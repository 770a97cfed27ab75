"""Self-test of the benchmark at smoke sizes; each run takes a few seconds."""

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, seed=1, trace=0, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--smoke", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)


def _result(workload, seed=1, trace=0, repeat=0):
    """(provenance, result) of one smoke run, shared between tests."""
    return _cached_result(workload, seed, trace, repeat)


@lru_cache(maxsize=None)
def _cached_result(workload, seed, trace, repeat):
    proc = _run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    *_, info, result = proc.stdout.splitlines()
    return json.loads(info)["provenance"], json.loads(result)


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    _, result = _result(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_their_counts(workload):
    runs = [_result(workload, trace=1, repeat=i)[1] for i in range(2)]
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [{name: m["value"] for name, m in r["metrics"].items()
               if m["unit"] in ("count", "bytes")} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["rng.streams_created"] > 0 and counts[0]["models.states_scored"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_add_up(workload):
    metrics = _result(workload, trace=1)[1]["metrics"]
    self_total = sum(m["value"] for name, m in metrics.items()
                     if m["unit"] == "s" and name != "trace.unit_s")
    overhead = metrics["trace.overhead_pct"]["value"] / 100
    traced_wall = metrics["trace.unit_s"]["value"] * (1 + overhead)
    assert self_total == pytest.approx(traced_wall, rel=1e-6)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs(workload):
    first = _result(workload, seed=1)[0]["inputs_sha256"]
    second = _result(workload, seed=2, trace=1)[0]["inputs_sha256"]
    assert first[0] != second[0]
    # neighbouring seeds share all but one data seed of their window
    assert first[1] == second[0]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_restores_every_patch(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import importlib
    ppn = importlib.import_module("ppn")
    for name in ("checks", "cli", "core", "datagen", "diagnostics", "estimators",
                 "linear", "mixtures", "models", "report", "rng"):
        importlib.import_module(f"ppn.{name}")
    from tracer import Tracer

    def bindings():
        namespaces = [m for n, m in sys.modules.items() if n == "ppn" or n.startswith("ppn.")]
        namespaces += [ppn.core.Dataset, ppn.rng.VariateStream, ppn.models.GmmModel]
        return [(ns, dict(vars(ns))) for ns in namespaces]

    before = bindings()
    split_data = ppn.core.split_data
    with Tracer(ppn) as tracer:
        assert ppn.split_data is not split_data and ppn.core.split_data is not split_data
        ppn.split_data(ppn.Dataset([[1.0], [2.0], [3.0]]), (1 / 3, 1 / 3, 1 / 3), ppn.Seed(1))
    assert {s[0] for s in tracer.spans} == {"core.split", "core.dataset_validate", "rng.stream"}
    assert bindings() == before
