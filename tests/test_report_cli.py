"""Report emission and command-line interface tests."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ppn import cli
from ppn.checks import StudyConfig, ppn_check, ppn_study
from ppn.cli import main
from ppn.core import CheckOutcome, Dataset, PpnOutcome, StudyReport, split_data
from ppn.errors import PpnError
from ppn.report import emit_report, render_grid_svg
from ppn.rng import Seed

from test_checks import FlatModel, ListModel, NormalModel


@pytest.fixture
def small_report():
    g = Seed(20).stream("report-data").generator
    split = split_data(Dataset(g.standard_normal((90, 1))),
                       (1 / 3, 1 / 3, 1 / 3), Seed(20))
    models = [NormalModel("m0"), NormalModel("m1")]
    return ppn_study(split, models, config=StudyConfig(R=60), seed=Seed(20))


class TestEmitReport:
    def test_file_set_full_grid(self, small_report, tmp_path):
        paths = emit_report(small_report, tmp_path)
        names = sorted(os.path.basename(p) for p in paths)
        expected = ["cell_m0_m0.csv", "cell_m1_m1.csv", "grid.svg", "report.json"]
        n_pass = sum(c.passed for c in small_report.diagonal)
        if n_pass == 2:
            expected += ["cell_m0_m1.csv", "cell_m1_m0.csv"]
        assert names == sorted(expected)

    def test_json_schema(self, small_report, tmp_path):
        emit_report(small_report, tmp_path)
        with open(tmp_path / "report.json") as fh:
            payload = json.load(fh)
        assert payload["models"] == ["m0", "m1"]
        assert payload["alpha"] == 0.1 and payload["tau"] == 1.0
        assert {d["model"] for d in payload["diagonal"]} == {"m0", "m1"}
        for d in payload["diagonal"]:
            assert set(d) == {"model", "p", "pass"}
        for p in payload["pairs"]:
            assert set(p) == {"diag_owner", "data_source", "sym_kl", "fools"}
        for v in payload["verdicts"]:
            assert set(v) == {"a", "b", "class"}

    def test_cell_csv_layout(self, small_report, tmp_path):
        emit_report(small_report, tmp_path)
        with open(tmp_path / "cell_m0_m0.csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "source,value"
        # R replicate rows plus one observed row
        assert len(lines) == 62
        assert lines[-1].startswith("observed,")
        check = small_report.diagonal[0]
        values = [float(l.split(",")[1]) for l in lines[1:-1]]
        assert np.allclose(values, check.diagnostic_replicates)

    def test_svg_annotations(self, small_report):
        svg = render_grid_svg(small_report)
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "p=" in svg
        if small_report.off_diagonal:
            assert "KL=" in svg

    @staticmethod
    def _one_cell_report(replicates, observed):
        g = np.random.default_rng(6)
        finite = CheckOutcome(0.5, True, g.normal(size=40), 0.1, "m0")
        return StudyReport(("m0", "m1"), 0.1, 1.0,
                           (finite, CheckOutcome(0.0, False, replicates, observed, "m1")))

    def test_infinite_observed_diagnostic_draws_no_line(self, tmp_path):
        replicates = np.random.default_rng(7).normal(size=40)
        emit_report(self._one_cell_report(replicates, np.inf), tmp_path)
        svg = (tmp_path / "grid.svg").read_text()
        # the finite cell's observed line only
        assert svg.count("<line ") == 1
        assert "nan" not in svg and "inf" not in svg and "p=0.00 FAIL" in svg

    def test_infinite_replicates_are_left_out_of_the_histogram(self):
        replicates = np.random.default_rng(8).normal(size=40)
        with_inf = replicates.copy()
        with_inf[[3, 17]] = [np.inf, -np.inf]
        svg = render_grid_svg(self._one_cell_report(with_inf, 0.1))
        assert "nan" not in svg and 'height="-' not in svg
        assert svg == render_grid_svg(self._one_cell_report(np.delete(replicates, [3, 17]), 0.1))
        pair = PpnOutcome(np.inf, False, with_inf, replicates[::-1], "m1", "m0")
        report = StudyReport(("m0", "m1"), 0.1, 1.0, off_diagonal=(pair,))
        assert "nan" not in render_grid_svg(report)

    def test_emission_deterministic(self, small_report, tmp_path):
        emit_report(small_report, tmp_path / "a")
        emit_report(small_report, tmp_path / "b")
        for name in os.listdir(tmp_path / "a"):
            with open(tmp_path / "a" / name) as fa, \
                 open(tmp_path / "b" / name) as fb:
                assert fa.read() == fb.read()


def _study_config(tmp_path, **overrides):
    cfg = {
        "seed": 7,
        "R": 40,
        "data": {"preset": "gmm", "n": 90},
        "models": [{"family": "gmm", "K": 1,
                    "iters": 60, "burnin": 20, "thin": 2},
                   {"family": "gmm", "K": 2,
                    "iters": 60, "burnin": 20, "thin": 2}],
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# Config and data inputs that must end in exit code 2 and one error line.
CLI_PROBES = {
    "chain-with-ppca": {"config": {
        "chain": {"iters": 60, "burnin": 20, "thin": 2},
        "models": [{"family": "ppca", "K": 1}, {"family": "gmm", "K": 1}]}},
    "seed-env-not-integer": {"env": "abc"},
    "model-K-not-integer": {"model": "gmm:x"},
    "R-not-integer": {"config": {"R": "abc"}},
    "model-without-K": {"config": {"models": [{"family": "gmm"}, "gmm:2"]}},
    "ragged-csv": {"csv": "x1,x2\n1.0,2.0\n3.0\n"},
    "non-numeric-csv": {"csv": "x1,x2\n1.0,abc\n"},
    "data-not-object": {"config": {"data": "x"}},
    "data-without-preset-or-path": {"config": {"data": {"n": 90}}},
    "config-is-a-list": {"json": [{"data": {"preset": "gmm"}}]},
    "fractions-not-numbers": {"config": {"fractions": "abc"}},
    "chain-not-object": {"config": {"chain": [60, 20, 2]}},
    "chain-not-integer": {"config": {"chain": {"iters": "abc"}, "models": ["gmm:1"]}},
    "ppca-takes-no-max-iters": {"config": {
        "models": [{"family": "ppca", "K": 1, "max_iters": 5}, "gmm:1"]}},
    "data-path-is-a-descriptor": {"config": {"data": {"path": 5}}},
    "data-path-is-stdin": {"config": {"data": {"path": 0}}},
    "models-not-a-list": {"config": {"models": 5}},
    "models-a-string": {"config": {"models": "gmm:1"}},
    "preset-not-a-string": {"config": {"data": {"preset": ["gmm"]}}},
    "family-not-a-string": {"config": {"models": [{"family": ["gmm"], "K": 2}, "gmm:1"]}},
    "R-float": {"config": {"R": 1.7}},
    "R-bool": {"config": {"R": True}},
    "R-numeric-string": {"config": {"R": "20"}},
    "R-string-200": {"config": {"R": "200"}},
    "seed-float": {"config": {"seed": 2.9}},
    "n-float": {"config": {"data": {"preset": "gmm", "n": 60.5}}},
    "K-float": {"config": {"chain": {"iters": 60, "burnin": 20, "thin": 2},
                           "models": [{"family": "gmm", "K": 2.5}, "gmm:1"]}},
    "tau-nan-string": {"config": {"tau": "nan"}},
    "fractions-numeric-strings": {"config": {"fractions": ["0.5", "0.25", "0.25"]}},
    "duplicate-model-ids": {"config": {"chain": {"iters": 60, "burnin": 20, "thin": 2},
                                       "models": ["gmm:2", "gmm:2"]}},
    "config-not-utf-8": {"raw": b"\xff{}"},
    "csv-not-utf-8": {"csv": b"\xff\xfex\x001\x00\n"},
    "categorical-code-not-whole": {
        "csv": "#levels=3,2\nv1,v2\n" + "0,1\n1.5,0\n2,1\n" * 10,
        "config": {"chain": {"iters": 60, "burnin": 20, "thin": 2},
                   "models": ["multmix:1", "multmix:2"]}},
    "reduction-unknown": {"config": {"models": [{"family": "gmm", "K": 1, "reduction": "median"},
                                                "gmm:2"]}},
    "chain-reduction": {"config": {"chain": {"reduction": "map"}}},
    "reduction-null": {"config": {"data": {"preset": "regression", "n": 90},
                                  "models": [{"family": "regression-A", "reduction": None},
                                             "regression-B"]}},
}


class TestCli:
    def test_generate_csv_roundtrip(self, tmp_path):
        out = tmp_path / "data.csv"
        assert main(["generate", "gmm", "--n", "50", "--seed", "3",
                     "--out", str(out)]) == 0
        data = Dataset.from_csv(out.read_text())
        assert data.n == 50 and data.d == 2

    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "multmix", "--n", "40", "--seed", "5", "--out", str(a)])
        main(["generate", "multmix", "--n", "40", "--seed", "5", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_usage_error_exit_code(self, capsys):
        assert main(["check", "--data", "x.csv"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_preset_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"data": {"preset": "nope"}, "models": []}))
        rc = main(["study", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "unknown data preset" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path):
        rc = main(["study", "--config", str(tmp_path / "absent.json"),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2

    def test_study_end_to_end(self, tmp_path):
        cfg = _study_config(tmp_path)
        out = tmp_path / "out"
        assert main(["study", "--config", cfg, "--out-dir", str(out)]) == 0
        with open(out / "report.json") as fh:
            payload = json.load(fh)
        assert payload["models"] == ["gmm-K1", "gmm-K2"]
        assert len(payload["diagonal"]) == 2
        assert (out / "grid.svg").exists()

    def test_study_byte_identical_reruns(self, tmp_path):
        cfg = _study_config(tmp_path)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["study", "--config", cfg, "--out-dir", str(d1)]) == 0
        assert main(["study", "--config", cfg, "--out-dir", str(d2)]) == 0
        assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()

    def test_seed_env_override(self, tmp_path, monkeypatch):
        cfg = _study_config(tmp_path)
        base, alt = tmp_path / "base", tmp_path / "alt"
        main(["study", "--config", cfg, "--out-dir", str(base)])
        monkeypatch.setenv("PPN_SEED", "99")
        main(["study", "--config", cfg, "--out-dir", str(alt)])
        assert (base / "report.json").read_text() != (alt / "report.json").read_text()

    def test_check_subcommand(self, tmp_path):
        data = tmp_path / "data.csv"
        main(["generate", "gmm", "--n", "90", "--seed", "2", "--out", str(data)])
        cfg = _study_config(tmp_path)
        out = tmp_path / "check.json"
        rc = main(["check", "--data", str(data), "--model", "gmm:1",
                   "--config", cfg, "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["model"] == "gmm-K1"
        assert 0.0 <= payload["p"] <= 1.0

    def test_ppn_subcommand(self, tmp_path):
        data = tmp_path / "data.csv"
        main(["generate", "gmm", "--n", "90", "--seed", "2", "--out", str(data)])
        cfg = _study_config(tmp_path)
        out = tmp_path / "ppn.json"
        rc = main(["ppn", "--data", str(data), "--model-a", "gmm:1",
                   "--model-b", "gmm:2", "--config", cfg, "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["diag_owner"] == "gmm-K1"
        assert payload["data_source"] == "gmm-K2"
        assert payload["sym_kl"] >= 0.0

    def test_ppn_subcommand_drops_only_the_unverified_pair_warning(self, tmp_path,
                                                                    monkeypatch):
        def warning_check(*args, **kwargs):
            warnings.warn("a numerical warning from the pair", RuntimeWarning)
            return ppn_check(*args, **kwargs)

        monkeypatch.setattr(cli, "ppn_check", warning_check)
        data = tmp_path / "data.csv"
        main(["generate", "gmm", "--n", "90", "--seed", "2", "--out", str(data)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["ppn", "--data", str(data), "--model-a", "gmm:1", "--model-b", "gmm:2",
                       "--config", _study_config(tmp_path), "--out", str(tmp_path / "p.json")])
        assert rc == 0
        assert [str(w.message) for w in caught] == ["a numerical warning from the pair"]

    def test_reduction_reaches_the_entry_model(self, tmp_path, monkeypatch):
        seen = {}

        def fake_study(split, models, config, seed):
            seen.update({m.id: m.reduction for m in models})
            raise PpnError("stop after building the models")

        monkeypatch.setattr(cli, "ppn_study", fake_study)
        cfg = _study_config(tmp_path, models=[
            {"family": "regression-A", "reduction": "average"},
            {"family": "regression-B"}, "gmm:2",
            {"family": "gmm", "K": 3, "reduction": "map"}])
        assert main(["study", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert seen == {"reg-A": "average", "reg-B": "map", "gmm-K2": "average",
                        "gmm-K3": "map"}

    def test_python_dash_m_runs_the_cli(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(cli.__file__))]
            + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        done = subprocess.run([sys.executable, "-m", "ppn", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: ppn")

    @pytest.mark.parametrize("bad", [ListModel, FlatModel], ids=["list", "flat"])
    def test_malformed_adapter_output_exits_2(self, bad, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "make_model", lambda family, K=None, **settings: bad(family))
        cfg = _study_config(tmp_path, models=["a", "b"])
        capsys.readouterr()
        assert main(["study", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: model 'a' failed during "), err

    @pytest.mark.parametrize("probe", sorted(CLI_PROBES))
    def test_bad_input_exits_2_with_one_error_line(self, probe, tmp_path,
                                                   monkeypatch, capsys):
        spec = CLI_PROBES[probe]
        overrides = dict(spec.get("config", {}))
        if "csv" in spec:
            bad = tmp_path / "bad.csv"
            csv = spec["csv"]
            bad.write_bytes(csv if isinstance(csv, bytes) else csv.encode())
            overrides["data"] = {"path": str(bad)}
        cfg = _study_config(tmp_path, **overrides)
        if "json" in spec:
            with open(cfg, "w") as fh:
                json.dump(spec["json"], fh)
        if "raw" in spec:
            with open(cfg, "wb") as fh:
                fh.write(spec["raw"])
        if "model" in spec:
            data = tmp_path / "data.csv"
            main(["generate", "gmm", "--n", "30", "--out", str(data)])
            argv = ["check", "--data", str(data), "--model", spec["model"],
                    "--config", cfg, "--out", str(tmp_path / "check.json")]
        else:
            argv = ["study", "--config", cfg, "--out-dir", str(tmp_path / "o")]
        if "env" in spec:
            monkeypatch.setenv("PPN_SEED", spec["env"])
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
