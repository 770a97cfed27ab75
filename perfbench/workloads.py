"""The three benchmark workloads, driven through ppn's public API.

A workload builds its inputs for one data seed (``build``), runs one unit of
work on them (``run``, the only timed call) and checks the outcomes
(``validate``), leaving nothing behind for the next unit.  A run cycles its
units over the data seeds ``seed .. seed + WINDOW - 1``, so neighbouring
benchmark seeds share most of their inputs and a run's throughput does not
hinge on one dataset.

The mixture workloads are the acceptance configurations with R halved and
every chain length divided by eight (250/125/5, so B = 25 retained draws),
so that a unit takes seconds rather than a minute; the data sizes, model
grids and pair lists are unchanged.  The linear workload runs at full
acceptance size.  ``SMOKE`` shrinks every size for the benchmark's own test.

Every ppn function is reached through its module attribute at call time,
so a :class:`tracer.Tracer` sees the call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import traceback
import warnings
from dataclasses import dataclass, field

WINDOW = 5

FULL = {
    "gmm-study": {"n": 1500, "R": 100, "chain": (250, 125, 5), "K": (1, 2, 3, 4)},
    "multmix-pairs": {"n": 510, "R": 100, "chain": (250, 125, 5),
                      "pairs": ((2, 1), (3, 2), (4, 2))},
    "linear-checks": {"reg_n": 2000, "reg_R": 2000, "ppca_n": 3000, "ppca_R": 200},
}
SMOKE = {
    "gmm-study": {"n": 150, "R": 8, "chain": (40, 20, 2), "K": (1, 2)},
    "multmix-pairs": {"n": 90, "R": 8, "chain": (40, 20, 2),
                      "pairs": ((2, 1), (3, 2), (4, 2))},
    "linear-checks": {"reg_n": 200, "reg_R": 40, "ppca_n": 300, "ppca_R": 20},
}


@dataclass
class UnitResult:
    """What one unit produced, checked: operation tallies and a digest."""

    attempted: int = 0
    failed: int = 0
    evals: int = 0
    checks: int = 0
    pairs: int = 0
    digest: str = ""
    errors: list = field(default_factory=list)

    def op(self, name, problem=None):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.errors.append(f"{name}: {problem}")
        return problem is None


def _sha256_json(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _attempt(fn, *args, **kwargs):
    """Run one operation; an exception becomes its outcome."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # recorded as a failed operation, the run goes on
        return RuntimeError(traceback.format_exc(limit=3))


def _check_problem(outcome, R):
    if isinstance(outcome, Exception):
        return str(outcome)
    reps = outcome.diagnostic_replicates
    if not 0.0 <= outcome.p_value <= 1.0:
        return f"p={outcome.p_value!r} outside [0, 1]"
    if len(reps) != R or not all(map(math.isfinite, reps)) \
            or not math.isfinite(outcome.diagnostic_observed):
        return "diagnostic samples missing or non-finite"
    return None


def _sym_kl_problem(value):
    if not (math.isfinite(value) and value >= 0.0):
        return f"sym-KL={value!r} not finite and >= 0"
    return None


def _pair_problem(outcome, R):
    if isinstance(outcome, Exception):
        return str(outcome)
    if len(outcome.samples_a) != R or len(outcome.samples_b) != R:
        return "diagnostic sample sets have the wrong size"
    return _sym_kl_problem(outcome.sym_kl)


class GmmStudy:
    """``ppn study`` on the README GMM grid, through ``ppn.cli.main``."""

    name = "gmm-study"

    def __init__(self, ppn, sizes, work_dir):
        self.ppn, self.sizes, self.work_dir = ppn, sizes, work_dir

    def build(self, data_seed):
        iters, burnin, thin = self.sizes["chain"]
        config = {
            "seed": data_seed, "R": self.sizes["R"], "alpha": 0.1, "tau": 1.0,
            "mode": "full", "fractions": [0.3333333, 0.3333333, 0.3333334],
            "data": {"preset": "gmm", "n": self.sizes["n"]},
            "chain": {"iters": iters, "burnin": burnin, "thin": thin},
            "models": [{"family": "gmm", "K": k} for k in self.sizes["K"]],
        }
        path = os.path.join(self.work_dir, f"gmm-config-{data_seed}.json")
        with open(path, "w") as fh:
            json.dump(config, fh, indent=2)
        out_dir = os.path.join(self.work_dir, f"gmm-out-{data_seed}")
        return {"config": config, "path": path, "out_dir": out_dir}

    def inputs_digest(self, inputs):
        return _sha256_json(inputs["config"])

    def run(self, inputs):
        return _attempt(self.ppn.cli.main,
                        ["study", "--config", inputs["path"], "--out-dir", inputs["out_dir"]])

    def validate(self, inputs, rc):
        try:
            return self._validate(inputs, rc)
        finally:
            shutil.rmtree(inputs["out_dir"], ignore_errors=True)

    def _validate(self, inputs, rc):
        res = UnitResult()
        out = inputs["out_dir"]
        report, problem = None, None
        if isinstance(rc, Exception):
            problem = str(rc)
        elif rc != 0:
            problem = f"exit code {rc}"
        else:
            try:
                with open(os.path.join(out, "report.json"), "rb") as fh:
                    raw = fh.read()
                report = json.loads(raw)
                res.digest = hashlib.sha256(raw).hexdigest()
                if os.path.getsize(os.path.join(out, "grid.svg")) == 0:
                    problem = "grid.svg is empty"
            except (OSError, ValueError) as exc:
                problem = str(exc)
        if not res.op("cli study", problem):
            return res
        R = inputs["config"]["R"]
        for check in report["diagonal"]:
            model = check["model"]
            rows = _cell_rows(out, model, model)
            res.checks += 1
            problem = None
            if not 0.0 <= check["p"] <= 1.0:
                problem = f"p={check['p']!r} outside [0, 1]"
            elif rows is None or rows.count(model) != R or rows.count("observed") != 1:
                problem = "cell CSV missing, malformed or of the wrong size"
            if res.op(f"check {model}", problem):
                res.evals += len(rows)
        for pair in report["pairs"]:
            owner, source = pair["diag_owner"], pair["data_source"]
            rows = _cell_rows(out, owner, source)
            res.pairs += 1
            problem = _sym_kl_problem(pair["sym_kl"])
            if problem is None and (rows is None or rows.count(source) != R):
                problem = "cell CSV missing, malformed or of the wrong size"
            # the owner's own samples are reused, so a pair computes R values
            if res.op(f"pair {owner}<-{source}", problem):
                res.evals += rows.count(source)
        return res


def _cell_rows(out_dir, owner, source):
    """Source column of a cell CSV, or None when it is missing or malformed."""
    try:
        with open(os.path.join(out_dir, f"cell_{owner}_{source}.csv"), newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if not all(math.isfinite(float(value)) for _, value in rows):
            return None
    except (OSError, ValueError):
        return None
    return [label for label, _ in rows]


class MultmixPairs:
    """Three standalone ``ppn_check`` calls on categorical mixture data."""

    name = "multmix-pairs"

    def __init__(self, ppn, sizes, work_dir):
        self.ppn, self.sizes = ppn, sizes

    def build(self, data_seed):
        ppn = self.ppn
        seed = ppn.Seed(data_seed)
        data = ppn.datagen.gen_multmix_data(self.sizes["n"], seed=seed)
        split = ppn.split_data(data, (1 / 3, 1 / 3, 1 / 3), seed)
        return {"seed": seed, "split": split}

    def inputs_digest(self, inputs):
        return hashlib.sha256(inputs["split"].x_in.values.tobytes()).hexdigest()

    def run(self, inputs):
        ppn = self.ppn
        iters, burnin, thin = self.sizes["chain"]
        models = {K: ppn.MultMixModel(K, iters, burnin, thin)
                  for pair in self.sizes["pairs"] for K in pair}
        out = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for a, b in self.sizes["pairs"]:
                out.append(_attempt(ppn.ppn_check, inputs["split"], models[a], models[b],
                                    R=self.sizes["R"], seed=inputs["seed"]))
        return out

    def validate(self, inputs, outcomes):
        res = UnitResult()
        R = self.sizes["R"]
        record = []
        for (a, b), outcome in zip(self.sizes["pairs"], outcomes):
            res.pairs += 1
            if res.op(f"pair {a}<-{b}", _pair_problem(outcome, R)):
                # a standalone pair scores both replicate sets
                res.evals += len(outcome.samples_a) + len(outcome.samples_b)
                record.append([outcome.diagnostic_owner, outcome.data_source, outcome.sym_kl])
        res.digest = _sha256_json(record)
        return res


class LinearChecks:
    """Regression checks and pair (criterion 3) plus PPCA checks (criterion 6)."""

    name = "linear-checks"

    def __init__(self, ppn, sizes, work_dir):
        self.ppn, self.sizes = ppn, sizes

    def build(self, data_seed):
        ppn, gen = self.ppn, self.ppn.datagen
        seed = ppn.Seed(data_seed)
        third = (1 / 3, 1 / 3, 1 / 3)
        return {
            "seed": seed,
            "reg": ppn.split_data(gen.gen_regression_data(self.sizes["reg_n"], 10, 2.5, seed),
                                  (0.25, 0.5, 0.25), seed),
            "nonlinear": ppn.split_data(gen.gen_nonlinear_factor_data(self.sizes["ppca_n"], seed),
                                        third, seed),
            "linear": ppn.split_data(gen.gen_linear_factor_data(self.sizes["ppca_n"], seed),
                                     third, seed),
        }

    def inputs_digest(self, inputs):
        h = hashlib.sha256()
        for part in ("reg", "nonlinear", "linear"):
            h.update(inputs[part].x_in.values.tobytes())
        return h.hexdigest()

    def run(self, inputs):
        ppn, seed = self.ppn, inputs["seed"]
        R, R_ppca = self.sizes["reg_R"], self.sizes["ppca_R"]
        A, B = ppn.RegressionModelA(), ppn.RegressionModelB()
        p2, p5 = ppn.PpcaModel(2), ppn.PpcaModel(5)
        checks = [
            ("reg-A", R, _attempt(ppn.heldout_predictive_check, inputs["reg"], A, R=R, seed=seed)),
            ("reg-B", R, _attempt(ppn.heldout_predictive_check, inputs["reg"], B, R=R, seed=seed)),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pair = _attempt(ppn.ppn_check, inputs["reg"], B, A, R=R, seed=seed)
        for label, split, model in (("ppca2-nonlinear", "nonlinear", p2),
                                    ("ppca5-nonlinear", "nonlinear", p5),
                                    ("ppca2-linear", "linear", p2)):
            checks.append((label, R_ppca, _attempt(ppn.heldout_predictive_check,
                                                   inputs[split], model, R=R_ppca, seed=seed)))
        return checks, pair

    def validate(self, inputs, outcomes):
        checks, pair = outcomes
        res = UnitResult()
        record = []
        for label, R, outcome in checks:
            res.checks += 1
            if res.op(f"check {label}", _check_problem(outcome, R)):
                res.evals += len(outcome.diagnostic_replicates) + 1
                record.append([label, outcome.p_value])
        res.pairs += 1
        if res.op("pair reg-B<-reg-A", _pair_problem(pair, self.sizes["reg_R"])):
            res.evals += len(pair.samples_a) + len(pair.samples_b)
            record.append(["reg-B<-reg-A", pair.sym_kl])
        res.digest = _sha256_json(record)
        return res


WORKLOADS = {cls.name: cls for cls in (GmmStudy, MultmixPairs, LinearChecks)}


def make(name, ppn, smoke, work_dir):
    sizes = (SMOKE if smoke else FULL)[name]
    return WORKLOADS[name](ppn, sizes, work_dir)
