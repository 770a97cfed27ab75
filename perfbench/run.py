"""Benchmark of the ppn package: study throughput on three workloads.

    python3 perfbench/run.py --workload gmm-study --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run times units of the workload for ``--seconds``
seconds and reports the end-to-end metrics named in ``BENCHMARK.json``.
With ``--trace 1`` it runs the unit of the first data seed untraced, then
traced, each for half of ``--seconds`` (at least once), and reports the
per-layer metrics of one unit.  ``--smoke`` shrinks every size for a quick
self-test.  The last line of standard output is the result as JSON; a
fuller record goes to ``.perfbench/results/``.
"""

import os

# Thread caps go in before numpy is first imported, here and in every child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# the CLI lets PPN_SEED override the configured seed; inputs come from --seed
os.environ.pop("PPN_SEED", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
SMOKE_SETUP_REPEATS = 2
CHILD_TIMEOUT_S = 120
# submodules the workloads and the tracer reach as attributes of ``ppn``
PPN_MODULES = ("checks", "cli", "core", "datagen", "diagnostics", "estimators",
               "linear", "mixtures", "models", "report", "rng")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("gmm-study", "multmix-pairs", "linear-checks"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    p.add_argument("--setup-only", action="store_true",
                   help="import ppn and build the inputs, then exit (times setup_s)")
    args = p.parse_args(argv)
    # data seeds run up to seed + WINDOW - 1 and must stay 64-bit
    if not 0 <= args.seed < 2**63 or args.seconds <= 0:
        p.error("--seed must lie in [0, 2**63) and --seconds must be > 0")
    return args


def import_ppn():
    if not (SRC / "ppn" / "__init__.py").is_file():
        raise BenchError(f"no ppn package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ppn
    for module in PPN_MODULES:
        importlib.import_module(f"ppn.{module}")
    if Path(ppn.__file__).resolve().parent != SRC / "ppn":
        raise BenchError(f"imported ppn from {ppn.__file__}, not from {SRC}")
    return ppn


def source_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "ppn").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def data_seeds(args):
    return list(range(args.seed, args.seed + workloads.WINDOW))


def build_workload(args, ppn):
    work_dir = OUT / "work" / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    return workloads.make(args.workload, ppn, args.smoke, str(work_dir))


def setup_only(args):
    wl = build_workload(args, import_ppn())
    for d in data_seeds(args):
        wl.build(d)


def measure_setup(args):
    """Median wall time of fresh interpreters that import ppn and build inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(SMOKE_SETUP_REPEATS if args.smoke else SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError("set-up child failed:\n" + proc.stderr.decode(errors="replace"))
    return statistics.median(times)


class DigestStore:
    """Output digests per (package source, sizes, workload, data seed).

    Kept in the checkout, so every run of one commit is compared with the
    first run that produced the same unit; another commit gets new keys.
    """

    path = OUT / "digests.json"

    def __init__(self, source_sha, sizes):
        self.prefix = f"{source_sha[:16]}/{hashlib.sha256(repr(sizes).encode()).hexdigest()[:12]}"
        try:
            self.known = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.known = {}

    def check(self, workload, data_seed, res):
        """Fail every operation of a unit whose digest differs from the first."""
        key = f"{self.prefix}/{workload}/{data_seed}"
        first = self.known.setdefault(key, res.digest)
        if res.digest != first:
            res.errors.append(f"output digest {res.digest} differs from first {first}")
            res.failed = res.attempted

    def save(self):
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def provenance(args, ppn, source_sha):
    import numpy
    import scipy
    info = {
        "seed": args.seed, "workload": args.workload, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "ppn": getattr(ppn, "__version__", None),
        "ppn_source_sha256": source_sha,
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "mem_total_kb": None, "blas": None, "git_commit": None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next(ln.split(":", 1)[1].strip() for ln in fh
                                     if ln.startswith("model name"))
        with open("/proc/meminfo") as fh:
            info["mem_total_kb"] = int(next(ln.split()[1] for ln in fh
                                            if ln.startswith("MemTotal")))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            info["git_commit"] = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return info


def run_unit(wl, inputs):
    """Time one unit; validation stays outside the timed call."""
    t0 = time.perf_counter()
    raw = wl.run(inputs)
    elapsed = time.perf_counter() - t0
    return elapsed, wl.validate(inputs, raw)


def unit_record(data_seed, elapsed, res):
    return {"data_seed": data_seed, "seconds": elapsed, "evals": res.evals,
            "checks": res.checks, "pairs": res.pairs, "attempted": res.attempted,
            "failed": res.failed, "digest": res.digest, "errors": res.errors}


def end_to_end(args, wl, store, setup_s):
    seeds = data_seeds(args)
    inputs = {d: wl.build(d) for d in seeds}
    units = []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < args.seconds:
        d = seeds[len(units) % len(seeds)]
        elapsed, res = run_unit(wl, inputs[d])
        store.check(args.workload, d, res)
        units.append(unit_record(d, elapsed, res))
    evals = sum(u["evals"] for u in units)
    busy = sum(u["seconds"] for u in units)
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    metrics = {
        "evals_per_s": (evals / busy, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return metrics, units, [wl.inputs_digest(inputs[d]) for d in seeds]


def traced(args, ppn, wl, store):
    """Untraced, then traced repeats of one unit of the first data seed.

    Here a unit also builds its inputs, so the data generation and splits
    that set-up pays for show in the per-layer numbers.
    """
    d = args.seed
    half = args.seconds / 2.0
    units, walls, traced_walls, layers, spans = [], [], [], [], []

    def unit():
        inputs = wl.build(d)
        return inputs, wl.run(inputs)

    def record(inputs, raw, wall):
        res = wl.validate(inputs, raw)
        store.check(args.workload, d, res)
        units.append(unit_record(d, wall, res))

    start = time.perf_counter()
    while not walls or time.perf_counter() - start < half:
        t0 = time.perf_counter()
        inputs, raw = unit()
        walls.append(time.perf_counter() - t0)
        record(inputs, raw, walls[-1])
    start = time.perf_counter()
    while not traced_walls or time.perf_counter() - start < half:
        with Tracer(ppn) as tracer:
            inputs, raw = tracer.root(unit)
        _, _, t0, t1, _ = tracer.spans[0]
        traced_walls.append(t1 - t0)
        layers.append(tracer.layer_metrics())
        spans.append(tracer.span_records())
        record(inputs, raw, traced_walls[-1])
    counts_differ = [name for name, value in layers[0].items()
                     if isinstance(value, int) and any(m[name] != value for m in layers)]
    if counts_differ:
        units[-1]["errors"].append(f"work counts differ between traced repeats: {counts_differ}")
        units[-1]["failed"] = units[-1]["attempted"]
    metrics = {}
    for name, value in layers[0].items():
        if isinstance(value, int):
            metrics[name] = (value, "bytes" if "bytes" in name else "count")
        else:
            metrics[name] = (statistics.fmean(m[name] for m in layers), "s")
    # means, like the layer times, so the layer self times add up to the
    # traced wall time: unit_s * (1 + overhead_pct / 100)
    untraced = statistics.fmean(walls)
    metrics["trace.unit_s"] = (untraced, "s")
    metrics["trace.overhead_pct"] = (100.0 * (statistics.fmean(traced_walls) / untraced - 1.0), "%")
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    with open(spans_dir / f"{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump(spans, fh)
    return metrics, units, [wl.inputs_digest(inputs)]


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        setup_only(args)
        return 0
    ppn = import_ppn()
    setup_s = None if args.trace else measure_setup(args)
    wl = build_workload(args, ppn)
    source_sha = source_sha256()
    store = DigestStore(source_sha, wl.sizes)
    try:
        if args.trace:
            metrics, units, inputs_digests = traced(args, ppn, wl, store)
        else:
            metrics, units, inputs_digests = end_to_end(args, wl, store, setup_s)
    finally:
        shutil.rmtree(OUT / "work" / args.workload, ignore_errors=True)
    store.save()
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    info = provenance(args, ppn, source_sha)
    info["inputs_sha256"] = inputs_digests
    info["window"] = workloads.WINDOW
    info["sizes"] = wl.sizes
    info["totals"] = {key: sum(u[key] for u in units)
                      for key in ("seconds", "evals", "checks", "pairs")}
    info["units"] = len(units)
    for u in units:
        print(f"unit seed={u['data_seed']} {u['seconds']:.3f}s evals={u['evals']} "
              f"checks={u['checks']} pairs={u['pairs']} failed={u['failed']}/{u['attempted']}")
        for err in u["errors"]:
            print(f"  error: {err}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"provenance": info, "units": units, "result": result}, fh, indent=1)
    print(json.dumps({"provenance": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
