"""Check and study orchestration tests built on cheap synthetic adapters."""

from collections import Counter

import numpy as np
import pytest

from ppn.checks import (StudyConfig, _verdict, heldout_predictive_check,
                        posterior_predictive_pvalue, ppn_check, ppn_study)
from ppn.core import (VERDICT_A_DOMINATES, VERDICT_B_DOMINATES,
                      VERDICT_COMPLEMENTARY, VERDICT_EQUIVALENT, Dataset,
                      DataSplit, PosteriorDraws, split_data)
from ppn.errors import CheckError, ParameterError, StateError
from ppn.rng import Seed, ks_distance


class NormalModel:
    """Location model: fit stores the mean, replicates are unit normals."""

    reduction = "average"

    def __init__(self, model_id="normal", column=0, rep_sd=(1.0, 1.0)):
        self.id = model_id
        self.column = column
        self.rep_sd = np.asarray(rep_sd, dtype=float)

    def fit(self, x, stream):
        return PosteriorDraws((x.values.mean(axis=0),), self.id)

    def replicate(self, fit, like, R, stream):
        mean = fit.states[0]
        sd = self.rep_sd[: mean.size]
        return [Dataset(mean + sd * stream.substream(r).generator
                        .standard_normal((like.n, mean.size)))
                for r in range(R)]

    def diagnostic_batch(self, x, states, stream):
        # mean of one designated column, ignoring the anchoring state
        return np.array([x.values[:, self.column].mean() for _ in states])


class SquaredErrorModel(NormalModel):
    """Well-specified unit normal with a chi-square-like realized diagnostic."""

    def diagnostic_batch(self, x, states, stream):
        return np.array([((x.values - s) ** 2).sum() for s in states])


class BrokenModel(NormalModel):
    def fit(self, x, stream):
        raise StateError("synthetic fit failure")


class CountingModel(NormalModel):
    """Counts its fit and replicate calls."""

    def __init__(self, model_id):
        super().__init__(model_id)
        self.calls = Counter()

    def fit(self, x, stream):
        self.calls["fit"] += 1
        return super().fit(x, stream)

    def replicate(self, fit, like, R, stream):
        self.calls["replicate"] += 1
        return super().replicate(fit, like, R, stream)


class FaultyModel(SquaredErrorModel):
    """Raises StateError when fitting or scoring the data a predicate picks,
    or when replicating."""

    def __init__(self, model_id="faulty", fit_fails=None, score_fails=None,
                 replicate_fails=False):
        super().__init__(model_id)
        self.fit_fails = fit_fails or (lambda x: False)
        self.score_fails = score_fails or (lambda x: False)
        self.replicate_fails = replicate_fails

    def fit(self, x, stream):
        if self.fit_fails(x):
            raise StateError("synthetic fit failure")
        return super().fit(x, stream)

    def replicate(self, fit, like, R, stream):
        if self.replicate_fails:
            raise StateError("synthetic replicate failure")
        return super().replicate(fit, like, R, stream)

    def diagnostic_batch(self, x, states, stream):
        if self.score_fails(x):
            raise StateError("synthetic diagnostic failure")
        return super().diagnostic_batch(x, states, stream)


class SevensModel(NormalModel):
    """Replicates every cell as 7.0."""

    def replicate(self, fit, like, R, stream):
        return [Dataset(np.full((like.n, 1), 7.0)) for _ in range(R)]


def _split(n=60, d=1, seed=0):
    g = Seed(seed).stream("split-data").generator
    return split_data(Dataset(g.standard_normal((3 * n, d))),
                      (1 / 3, 1 / 3, 1 / 3), Seed(seed))


class TestHeldoutCheck:
    def test_p_on_grid_and_deterministic(self):
        split = _split()
        model = SquaredErrorModel()
        a = heldout_predictive_check(split, model, R=50, seed=Seed(1))
        b = heldout_predictive_check(split, model, R=50, seed=Seed(1))
        assert a.p_value == b.p_value
        assert a.p_value in {k / 50 for k in range(51)}
        assert len(a.diagnostic_replicates) == 50

    def test_extreme_observation_fails(self):
        g = Seed(2).stream("x").generator
        x = g.standard_normal((60, 1))
        split = DataSplit(x_in=Dataset(x[:20]), x_val=Dataset(x[20:40]),
                          x_out=Dataset(x[40:] + 50.0))
        out = heldout_predictive_check(split, SquaredErrorModel(), R=100,
                                       seed=Seed(2))
        assert out.p_value == 0.0 and not out.passed

    def test_ties_count_against_the_model(self):
        # constant diagnostic ties every replicate with the observation;
        # the strict comparison then yields p = 0
        split = _split()
        model = NormalModel()
        model.diagnostic_batch = lambda x, states, stream: np.zeros(len(states))
        out = heldout_predictive_check(split, model, R=20, seed=Seed(3))
        assert out.p_value == 0.0

    def test_calibration_across_seeds(self):
        # under a well-specified model the p-values are close to uniform
        pvals = []
        for s in range(100):
            split = _split(n=25, seed=s)
            out = heldout_predictive_check(split, SquaredErrorModel(), R=100,
                                           seed=Seed(s))
            pvals.append(out.p_value)
        assert ks_distance(np.array(pvals), lambda v: np.clip(v, 0, 1)) < 0.2

    def test_fit_error_carries_provenance(self):
        split = _split()
        with pytest.raises(CheckError) as exc:
            heldout_predictive_check(split, BrokenModel(model_id="bad-model"),
                                     R=5, seed=Seed(4))
        assert "bad-model" in str(exc.value)
        assert "fit" in str(exc.value)


class TestPosteriorPredictivePvalue:
    def test_symmetric_oracle(self):
        # double-use p-values of a symmetric diagnostic concentrate around
        # one half; check the median over independent datasets
        pvals = []
        for s in range(15):
            g = Seed(s).stream("obs").generator
            x_obs = Dataset(g.standard_normal((100, 1)))
            out = posterior_predictive_pvalue(x_obs, SquaredErrorModel(),
                                              R=200, seed=Seed(s))
            pvals.append(out.p_value)
        assert abs(np.median(pvals) - 0.5) < 0.15


class TestPpnCheck:
    def test_same_model_both_sides_fools(self):
        split = _split()
        model = NormalModel()
        out = ppn_check(split, model, model, R=100, seed=Seed(6),
                        verified_passed=True)
        assert out.sym_kl <= 0.01 and out.fools

    def test_warns_without_verified_passes(self):
        split = _split()
        model = NormalModel()
        with pytest.warns(UserWarning):
            ppn_check(split, model, model, R=20, seed=Seed(7))

    def test_distinguishable_source_does_not_fool(self):
        split = _split(d=1)
        owner = NormalModel("narrow", rep_sd=(1.0,))
        source = NormalModel("wide", rep_sd=(30.0,))
        out = ppn_check(split, owner, source, R=200, seed=Seed(8),
                        verified_passed=True)
        assert out.sym_kl > 1.0 and not out.fools


class TestVerdict:
    def test_truth_table(self):
        assert _verdict(True, True) == VERDICT_EQUIVALENT
        assert _verdict(False, True) == VERDICT_A_DOMINATES
        assert _verdict(True, False) == VERDICT_B_DOMINATES
        assert _verdict(False, False) == VERDICT_COMPLEMENTARY


class TestStudy:
    def test_full_grid_completeness(self):
        split = _split(seed=7)
        models = [NormalModel(f"m{i}") for i in range(3)]
        report = ppn_study(split, models, seed=Seed(7))
        assert len(report.diagonal) == 3
        passers = [c.model_id for c in report.diagonal if c.passed]
        assert len(passers) == 3
        assert len(report.off_diagonal) == len(passers) * (len(passers) - 1)
        assert len(report.verdicts) == len(passers) * (len(passers) - 1) // 2

    def test_equivalent_models(self):
        split = _split(seed=7)
        models = [NormalModel("m0"), NormalModel("m1")]
        report = ppn_study(split, models, seed=Seed(7))
        assert len(report.verdicts) == 1
        assert report.verdicts[0]["class"] == VERDICT_EQUIVALENT

    def test_asymmetric_pair_dominates(self):
        # the column-1 diagnostic sees the variance mismatch, the column-0
        # diagnostic cannot: exactly one direction fools
        split = _split(d=2, seed=11)
        sharp = NormalModel("sharp", column=1, rep_sd=(1.0, 1.0))
        blind = NormalModel("blind", column=0, rep_sd=(1.0, 30.0))
        report = ppn_study(split, [sharp, blind], seed=Seed(11))
        assert all(c.passed for c in report.diagonal)
        fools = {(p.diagnostic_owner, p.data_source): p.fools
                 for p in report.off_diagonal}
        assert fools[("blind", "sharp")] and not fools[("sharp", "blind")]
        assert report.verdicts[0]["class"] in (VERDICT_A_DOMINATES,
                                               VERDICT_B_DOMINATES)

    def test_complementary_pair(self):
        split = _split(d=2, seed=12)
        a = NormalModel("a", column=1, rep_sd=(30.0, 1.0))
        b = NormalModel("b", column=0, rep_sd=(1.0, 30.0))
        report = ppn_study(split, [a, b], seed=Seed(12))
        assert all(c.passed for c in report.diagonal)
        assert report.verdicts[0]["class"] == VERDICT_COMPLEMENTARY

    def test_single_passer_no_pairs(self):
        g = Seed(13).stream("x").generator
        x = g.standard_normal((90, 1))
        split = DataSplit(x_in=Dataset(x[:30]), x_val=Dataset(x[30:60]),
                          x_out=Dataset(x[60:] + 50.0))
        good = SquaredErrorModel("good")
        bad = SquaredErrorModel("bad")
        # the variance diagnostic cannot see the shift, so good passes while
        # bad's squared-error diagnostic fails on the shifted holdout
        good.diagnostic_batch = lambda x, states, stream: np.array(
            [x.values.var() for _ in states])
        report = ppn_study(split, [good, bad], seed=Seed(13))
        assert sum(c.passed for c in report.diagonal) == 1
        assert len(report.off_diagonal) == 0
        assert len(report.verdicts) == 0

    def test_chain_mode(self):
        split = _split(seed=7)
        models = [NormalModel(f"m{i}") for i in range(3)]
        report = ppn_study(split, models, config=StudyConfig(mode="chain"),
                           seed=Seed(7))
        passers = [c.model_id for c in report.diagonal if c.passed]
        assert len(passers) >= 2
        assert len(report.off_diagonal) == len(passers) - 1
        # later model in the chain owns the diagnostic
        for k, pair in enumerate(report.off_diagonal):
            assert pair.diagnostic_owner == passers[k + 1]
            assert pair.data_source == passers[k]
        assert report.verdicts == ()

    def test_needs_two_models(self):
        with pytest.raises(ParameterError):
            ppn_study(_split(), [NormalModel()], seed=Seed(15))

    def test_model_ids_must_be_unique(self):
        with pytest.raises(ParameterError, match="unique"):
            ppn_study(_split(), [NormalModel("m0"), NormalModel("m1"), NormalModel("m0")],
                      seed=Seed(15))

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            StudyConfig(R=0)
        with pytest.raises(ParameterError):
            StudyConfig(alpha=1.5)
        with pytest.raises(ParameterError):
            StudyConfig(tau=-0.1)
        with pytest.raises(ParameterError):
            StudyConfig(mode="grid")

    def test_report_reproducible(self):
        split = _split()
        models = [NormalModel("m0"), NormalModel("m1")]
        r1 = ppn_study(split, models, seed=Seed(16))
        r2 = ppn_study(split, models, seed=Seed(16))
        assert r1.to_json() == r2.to_json()


class TestEngine:
    """The study and the public functions share one staging path."""

    def test_study_matches_the_public_functions(self):
        split = _split(seed=7)
        models = [NormalModel(f"m{i}", rep_sd=(1.0 + 0.1 * i,)) for i in range(3)]
        report = ppn_study(split, models, config=StudyConfig(R=80), seed=Seed(7))
        assert len(report.off_diagonal) == 6
        for model, check in zip(models, report.diagonal):
            alone = heldout_predictive_check(split, model, R=80, seed=Seed(7))
            assert check.p_value == alone.p_value
            assert check.diagnostic_observed == alone.diagnostic_observed
            assert np.array_equal(check.diagnostic_replicates, alone.diagnostic_replicates)
        by_id = {m.id: m for m in models}
        for pair in report.off_diagonal:
            alone = ppn_check(split, by_id[pair.diagnostic_owner], by_id[pair.data_source],
                              R=80, seed=Seed(7), verified_passed=True)
            assert pair.sym_kl == alone.sym_kl and pair.fools == alone.fools
            assert np.array_equal(pair.samples_a, alone.samples_a)
            assert np.array_equal(pair.samples_b, alone.samples_b)

    def test_study_fits_each_part_once_and_replicates_once(self):
        split = _split(seed=7)
        models = [CountingModel(f"m{i}") for i in range(3)]
        report = ppn_study(split, models, seed=Seed(7))
        assert len(report.off_diagonal) == 6
        for model in models:
            assert model.calls == {"fit": 2, "replicate": 1}

    def test_classical_pvalue_fits_once(self):
        model = CountingModel("m")
        x_obs = Dataset(Seed(1).stream("obs").generator.standard_normal((40, 1)))
        posterior_predictive_pvalue(x_obs, model, R=20, seed=Seed(1))
        assert model.calls == {"fit": 1, "replicate": 1}

    @pytest.mark.parametrize("stage", [
        "fit x_in", "fit x_val", "replicate", "observed diagnostic",
        "replicate diagnostics", "cross diagnostics", "fit x_obs"])
    def test_failure_names_model_and_stage(self, stage):
        split = _split()
        faults = {
            "fit x_in": dict(fit_fails=lambda x: x is split.x_in),
            "fit x_val": dict(fit_fails=lambda x: x is split.x_val),
            "replicate": dict(replicate_fails=True),
            "observed diagnostic": dict(score_fails=lambda x: x is split.x_out),
            "replicate diagnostics": dict(score_fails=lambda x: x is not split.x_out),
            "cross diagnostics": dict(score_fails=lambda x: np.all(x.values == 7.0)),
            "fit x_obs": dict(fit_fails=lambda x: True),
        }
        model = FaultyModel("bad-model", **faults[stage])
        calls = {
            "cross diagnostics": lambda: ppn_check(split, model, SevensModel("sevens"),
                                                   R=5, seed=Seed(4), verified_passed=True),
            "fit x_obs": lambda: posterior_predictive_pvalue(split.x_in, model, R=5,
                                                             seed=Seed(4)),
        }
        run = calls.get(stage, lambda: heldout_predictive_check(split, model, R=5,
                                                                seed=Seed(4)))
        with pytest.raises(CheckError) as exc:
            run()
        assert (exc.value.model_id, exc.value.stage) == ("bad-model", stage)
