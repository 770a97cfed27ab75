"""Check and study orchestration tests built on cheap synthetic adapters."""

import multiprocessing
import pickle
import threading
import time
import warnings
from collections import Counter

import numpy as np
import pytest

from ppn import checks, mixtures
from ppn.checks import (StudyConfig, _verdict, heldout_predictive_check,
                        posterior_predictive_pvalue, ppn_check, ppn_study)
from ppn.core import (VERDICT_A_DOMINATES, VERDICT_B_DOMINATES,
                      VERDICT_COMPLEMENTARY, VERDICT_EQUIVALENT, Dataset,
                      DataSplit, PosteriorDraws, ReplicateBlock, split_data)
from ppn.datagen import gen_gmm_data, gen_linear_factor_data, gen_multmix_data
from ppn.errors import (CheckError, DegenerateSampleError, ParameterError, StateError,
                        WiringError)
from ppn.models import GmmModel, MultMixModel, PpcaModel
from ppn.rng import Seed, ks_distance, on_cores

from test_diagnostics import block_of_one
from test_rng import with_cores


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
        block = np.empty((R, like.n, mean.size))
        for rep, g in zip(block, stream.substream_generators(R)):
            rep[:] = mean + sd * g.standard_normal((like.n, mean.size))
        return ReplicateBlock(block)

    def diagnostic_batch(self, x, states):
        # mean of one designated column, ignoring the anchoring state: one
        # value per replicate of the block
        means = np.ascontiguousarray(x.values[..., self.column]).mean(axis=-1)
        return np.stack([means] * len(states), axis=-1)


class SquaredErrorModel(NormalModel):
    """Well-specified unit normal with a chi-square-like realized diagnostic."""

    def diagnostic_batch(self, x, states):
        sums = []
        for s in states:
            sq = (x.values - s) ** 2
            # each dataset's squares as one contiguous 1-d sum
            sums.append(sq.reshape(sq.shape[:-2] + (-1,)).sum(axis=-1))
        return np.stack(sums, axis=-1)


class BrokenModel(NormalModel):
    def fit(self, x, stream):
        raise StateError("synthetic fit failure")


class CountingModel(NormalModel):
    """Counts its fit and replicate calls, in shared memory, so that the calls
    a study's forked workers make are counted too."""

    KINDS = ("fit", "replicate")

    def __init__(self, model_id):
        super().__init__(model_id)
        self._counts = multiprocessing.Array("i", len(self.KINDS))

    @property
    def calls(self):
        return Counter({kind: n for kind, n in zip(self.KINDS, self._counts) if n})

    def _count(self, kind):
        with self._counts.get_lock():
            self._counts[self.KINDS.index(kind)] += 1

    def fit(self, x, stream):
        self._count("fit")
        return super().fit(x, stream)

    def replicate(self, fit, like, R, stream):
        self._count("replicate")
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

    def diagnostic_batch(self, x, states):
        if self.score_fails(x):
            raise StateError("synthetic diagnostic failure")
        return super().diagnostic_batch(x, states)


class SevensModel(NormalModel):
    """Replicates every cell as 7.0."""

    def replicate(self, fit, like, R, stream):
        return ReplicateBlock(np.full((R, like.n, 1), 7.0))


class ListModel(NormalModel):
    """Returns its replicates as a list of datasets, not as one block."""

    def replicate(self, fit, like, R, stream):
        return [Dataset(rep) for rep in super().replicate(fit, like, R, stream).values]


class ShortModel(NormalModel):
    """Returns one replicate fewer than asked for."""

    def replicate(self, fit, like, R, stream):
        return ReplicateBlock(super().replicate(fit, like, R, stream).values[1:])


class FlatModel(NormalModel):
    """Scores a replicate block as if it were one dataset: B values."""

    def diagnostic_batch(self, x, states):
        return np.zeros(len(states))


class ObservedFlatModel(NormalModel):
    """Scores the observed part's block of one as B values, and every other
    block as R x B."""

    def diagnostic_batch(self, x, states):
        if len(x) == 1:
            return np.zeros(len(states))
        return super().diagnostic_batch(x, states)


class WarningModel(NormalModel):
    """Warns once per fit, naming itself and the size of the part."""

    def fit(self, x, stream):
        warnings.warn(f"{self.id} fits {x.n} rows")
        return super().fit(x, stream)


def _split(n=60, d=1, seed=0):
    g = Seed(seed).stream("split-data").generator
    return split_data(Dataset(g.standard_normal((3 * n, d))),
                      (1 / 3, 1 / 3, 1 / 3), Seed(seed))


def _is_x_out(x, split):
    """Whether the block x is split's observed part, scored as its block of
    one replicate."""
    return np.array_equal(x.values, block_of_one(split.x_out).values)


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
        model.diagnostic_batch = lambda x, states: np.zeros(
            x.values.shape[:-2] + (len(states),))
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
        out = ppn_check(split, model, model, R=100, seed=Seed(6))
        assert out.sym_kl <= 0.01 and out.fools

    def test_distinguishable_source_does_not_fool(self):
        split = _split(d=1)
        owner = NormalModel("narrow", rep_sd=(1.0,))
        source = NormalModel("wide", rep_sd=(30.0,))
        out = ppn_check(split, owner, source, R=200, seed=Seed(8))
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
        good.diagnostic_batch = lambda x, states: np.stack(
            [x.values.reshape(x.values.shape[:-2] + (-1,)).var(axis=-1)] * len(states), -1)
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
        models = [NormalModel("m0"), NormalModel("m1")]
        with pytest.raises(ParameterError, match="tau must be nonnegative"):
            ppn_check(_split(), *models, tau=-0.5, seed=Seed(15))
        with pytest.raises(ParameterError, match="must be a StudyConfig"):
            ppn_study(_split(), models, config={"R": 10}, seed=Seed(15))

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
                              R=80, seed=Seed(7))
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

    @pytest.mark.parametrize("entry", [
        lambda split, models: heldout_predictive_check(split, models[0], R=5),
        lambda split, models: posterior_predictive_pvalue(split.x_in, models[0], R=5),
        lambda split, models: ppn_check(split, *models, R=5),
        lambda split, models: ppn_study(split, models),
        lambda split, models: heldout_predictive_check(split, models[0], R=5, seed=4),
    ], ids=["heldout", "classical", "ppn-check", "study", "int-seed"])
    def test_missing_seed_is_a_parameter_error(self, entry):
        models = [CountingModel("m0"), CountingModel("m1")]
        with pytest.raises(ParameterError, match="needs a Seed"):
            entry(_split(), models)
        assert all(m.calls == {} for m in models)

    @pytest.mark.parametrize("stage", [
        "fit x_in", "fit x_val", "replicate", "observed diagnostic",
        "replicate diagnostics", "cross diagnostics", "fit x_obs"])
    def test_failure_names_model_and_stage(self, stage):
        split = _split()
        faults = {
            "fit x_in": dict(fit_fails=lambda x: x is split.x_in),
            "fit x_val": dict(fit_fails=lambda x: x is split.x_val),
            "replicate": dict(replicate_fails=True),
            "observed diagnostic": dict(score_fails=lambda x: _is_x_out(x, split)),
            "replicate diagnostics": dict(score_fails=lambda x: not _is_x_out(x, split)),
            "cross diagnostics": dict(score_fails=lambda x: np.all(x.values == 7.0)),
            "fit x_obs": dict(fit_fails=lambda x: True),
        }
        model = FaultyModel("bad-model", **faults[stage])
        calls = {
            "cross diagnostics": lambda: ppn_check(split, model, SevensModel("sevens"),
                                                   R=5, seed=Seed(4)),
            "fit x_obs": lambda: posterior_predictive_pvalue(split.x_in, model, R=5,
                                                             seed=Seed(4)),
        }
        run = calls.get(stage, lambda: heldout_predictive_check(split, model, R=5,
                                                                seed=Seed(4)))
        with pytest.raises(CheckError) as exc:
            run()
        assert (exc.value.model_id, exc.value.stage) == ("bad-model", stage)

    @pytest.mark.parametrize("model, stage, message", [
        (ListModel("bad-model"), "replicate", "replicate gave a list, not a ReplicateBlock"),
        (FlatModel("bad-model"), "replicate diagnostics",
         "the diagnostic_batch of 'bad-model' gave (1,), not (5, 1) values"),
        (ShortModel("bad-model"), "replicate", "replicate gave 4 replicates, not 5"),
        (ObservedFlatModel("bad-model"), "observed diagnostic",
         "the diagnostic_batch of 'bad-model' gave (1,), not (1, 1) values")],
        ids=["list", "flat", "short", "observed-flat"])
    def test_malformed_adapter_output_fails_its_stage(self, model, stage, message):
        # a list of replicates, B values for a block of R replicates, a
        # block of R - 1 replicates, and B values for the observed block of
        # one
        with pytest.raises(CheckError) as exc:
            heldout_predictive_check(_split(), model, R=5, seed=Seed(4))
        assert (exc.value.model_id, exc.value.stage) == ("bad-model", stage)
        assert type(exc.value.cause) is WiringError and str(exc.value.cause) == message

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pair_diagnostics_name_owner_and_source(self, bad):
        class Owner(SquaredErrorModel):
            def diagnostic_batch(self, x, states):
                d = super().diagnostic_batch(x, states)
                return np.full_like(d, bad) if np.all(x.values == 7.0) else d

        with pytest.raises(CheckError, match="finite") as exc:
            ppn_check(_split(), Owner("owner"), SevensModel("sevens"), R=5, seed=Seed(4))
        assert (exc.value.model_id, exc.value.stage) == ("owner", "sym-KL against sevens")
        assert isinstance(exc.value.cause, DegenerateSampleError)


def _multmix_split(seed=5):
    return split_data(gen_multmix_data(90, seed=Seed(seed)), (1 / 3, 1 / 3, 1 / 3), Seed(seed))


def _recorded_groups(monkeypatch, fails=()):
    """The number of chains of every multmix_gibbs_fits call, lone fits
    included; a call with a K in fails raises StateError instead."""
    calls = []
    fits = mixtures.multmix_gibbs_fits

    def recorded(xs, Ks, *args):
        calls.append(len(Ks))
        if set(Ks) & set(fails):
            raise StateError("synthetic fit failure")
        return fits(xs, Ks, *args)

    monkeypatch.setattr(mixtures, "multmix_gibbs_fits", recorded)
    return calls


def _fit_alone(monkeypatch):
    """Leave every fit to the engine's fit, one chain at a time."""
    monkeypatch.setattr(checks._Engine, "fits", lambda self, jobs: None)


class TestGroupedFits:
    """Each entry point fits the multmix chains it needs in one loop."""

    def test_each_entry_point_makes_one_grouped_call(self, monkeypatch):
        split = _multmix_split()
        a, b = MultMixModel(2, 40, 20, 2), MultMixModel(3, 40, 20, 2)
        _with_workers(monkeypatch, 1)
        runs = [
            (lambda: heldout_predictive_check(split, a, R=8, seed=Seed(1)), [2]),
            (lambda: ppn_check(split, a, b, R=8, seed=Seed(1)), [3]),
            # the owner's chain on x_in is the source's: each chain is fitted once
            (lambda: ppn_check(split, a, a, R=8, seed=Seed(1)), [2]),
            # one call per model's task; the checks and pairs reuse their fits
            (lambda: ppn_study(split, [a, b], StudyConfig(R=8), Seed(1)), [2, 2]),
            (lambda: posterior_predictive_pvalue(split.x_in, a, R=8, seed=Seed(1)), [1]),
        ]
        for run, chains in runs:
            calls = _recorded_groups(monkeypatch)
            run()
            assert calls == chains

    def test_other_schedules_run_in_separate_loops(self, monkeypatch):
        calls = _recorded_groups(monkeypatch)
        ppn_check(_multmix_split(), MultMixModel(2, 40, 20, 2), MultMixModel(3, 30, 10, 2),
                  R=8, seed=Seed(1))
        assert calls == [2, 1]

    def test_outcomes_are_those_of_lone_fits(self, monkeypatch):
        split = _multmix_split()
        models = [MultMixModel(k, 40, 20, 2) for k in (1, 2, 3)]
        _with_workers(monkeypatch, 1)

        def outcomes():
            checks_ = [heldout_predictive_check(split, m, R=8, seed=Seed(1)) for m in models]
            pairs = [ppn_check(split, a, b, R=8, seed=Seed(1))
                     for a, b in ((models[1], models[0]), (models[2], models[1]))]
            study = ppn_study(split, models, StudyConfig(R=8), Seed(1))
            return ([(c.diagnostic_replicates, c.diagnostic_observed) for c in checks_]
                    + [(p.samples_a, p.samples_b) for p in pairs], study.to_json())

        grouped = outcomes()
        _fit_alone(monkeypatch)
        alone = outcomes()
        assert grouped[1] == alone[1]
        for (a, b), (c, d) in zip(grouped[0], alone[0]):
            assert np.array_equal(a, c) and np.array_equal(b, d)

    def test_a_failing_fit_reports_the_stage_of_lone_fits(self, monkeypatch):
        # every chain of three classes fails, in a group or alone; the
        # owner's own fits then succeed alone, so a failing source is
        # reached after the owner's diagnostics, as without groups
        split = _multmix_split()
        good, bad = MultMixModel(2, 40, 20, 2), MultMixModel(3, 40, 20, 2)
        _with_workers(monkeypatch, 1)
        runs = [
            (lambda: heldout_predictive_check(split, bad, R=8, seed=Seed(1)), "multmix-K3"),
            (lambda: ppn_check(split, good, bad, R=8, seed=Seed(1)), "multmix-K3"),
            (lambda: ppn_check(split, bad, good, R=8, seed=Seed(1)), "multmix-K3"),
            (lambda: ppn_study(split, [good, bad], StudyConfig(R=8), Seed(1)), "multmix-K3"),
            # multmix on continuous data fails its first fit
            (lambda: heldout_predictive_check(_split(), good, R=8, seed=Seed(1)), "multmix-K2"),
        ]
        calls = _recorded_groups(monkeypatch, fails=(3,))
        with pytest.raises(CheckError):
            runs[1][0]()
        # the group of three fails, so each chain runs alone where it is needed
        assert calls == [3, 1, 1, 1]
        for fit_alone in (False, True):
            if fit_alone:
                _fit_alone(monkeypatch)
            for run, model_id in runs:
                _recorded_groups(monkeypatch, fails=(3,))
                with pytest.raises(CheckError) as exc:
                    run()
                assert (exc.value.model_id, exc.value.stage) == (model_id, "fit x_in")


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the study pool forks its workers")


def _with_workers(monkeypatch, workers):
    monkeypatch.setattr(checks, "_worker_count", lambda tasks: min(tasks, workers))


@needs_fork
class TestWorkers:
    """A study gives the same report, errors and warnings on 1 or 2 workers."""

    @pytest.mark.parametrize("family", ["gmm", "multmix", "ppca"])
    @pytest.mark.parametrize("mode", ["full", "chain"])
    def test_report_does_not_depend_on_the_worker_count(self, monkeypatch, family, mode):
        seed = Seed(3)
        if family == "gmm":
            data, models = gen_gmm_data(300, seed), [GmmModel(k, 60, 30, 3) for k in (1, 2, 3)]
        elif family == "ppca":
            # the calling process draws its PPCA replicates on two threads,
            # a worker on one
            with_cores(monkeypatch, 2)
            data, models = gen_linear_factor_data(300, seed), [PpcaModel(k) for k in (2, 3, 4)]
        else:
            data = gen_multmix_data(150, seed=seed)
            models = [MultMixModel(k, 40, 20, 2) for k in (1, 2, 3)]
        split = split_data(data, (1 / 3, 1 / 3, 1 / 3), seed)
        reports = []
        for workers in (1, 2):
            _with_workers(monkeypatch, workers)
            reports.append(ppn_study(split, models, StudyConfig(R=20, mode=mode), seed))
        inline, pooled = reports
        assert len(inline.off_diagonal) >= 2
        assert inline.to_json() == pooled.to_json()
        for a, b in zip(inline.diagonal, pooled.diagonal):
            assert np.array_equal(a.diagnostic_replicates, b.diagnostic_replicates)
            assert a.diagnostic_observed == b.diagnostic_observed
        for a, b in zip(inline.off_diagonal, pooled.off_diagonal):
            assert np.array_equal(a.samples_a, b.samples_a)
            assert np.array_equal(a.samples_b, b.samples_b)

    def test_check_error_survives_pickling(self):
        err = pickle.loads(pickle.dumps(CheckError("gmm-K2", "fit x_in", ParameterError("x"))))
        assert type(err) is CheckError
        assert (err.model_id, err.stage, str(err)) == (
            "gmm-K2", "fit x_in", "model 'gmm-K2' failed during fit x_in: x")
        assert type(err.cause) is ParameterError and str(err.cause) == "x"

    @pytest.mark.parametrize("stage", [
        "fit x_val", "replicate", "replicate diagnostics", "observed diagnostic",
        "cross diagnostics", "both diagnostics"])
    def test_failing_model_raises_the_same_error(self, monkeypatch, stage):
        split = _split(seed=7)
        faults = {
            "fit x_val": dict(fit_fails=lambda x: x is split.x_val),
            "replicate": dict(replicate_fails=True),
            "replicate diagnostics": dict(score_fails=lambda x: not _is_x_out(x, split)),
            "observed diagnostic": dict(score_fails=lambda x: _is_x_out(x, split)),
            # only the wide model's replicates spread this far
            "cross diagnostics": dict(score_fails=lambda x: x.values.std() > 5.0),
            # the replicate diagnostics fail first, in a study and alone
            "both diagnostics": dict(score_fails=lambda x: True),
        }
        expected = "replicate diagnostics" if stage == "both diagnostics" else stage
        models = [NormalModel("m0"), FaultyModel("bad-model", **faults[stage]),
                  NormalModel("wide", rep_sd=(30.0,))]
        errors = []
        for workers in (1, 2):
            _with_workers(monkeypatch, workers)
            with pytest.raises(CheckError) as exc:
                ppn_study(split, models, StudyConfig(R=10), Seed(7))
            errors.append(exc.value)
            if stage == "both diagnostics":
                with pytest.raises(CheckError) as alone:
                    heldout_predictive_check(split, models[1], R=10, seed=Seed(7))
                assert (alone.value.model_id, alone.value.stage) == (
                    exc.value.model_id, exc.value.stage)
        inline, pooled = errors
        assert (inline.model_id, inline.stage) == ("bad-model", expected)
        assert type(pooled) is type(inline)
        assert (pooled.model_id, pooled.stage, str(pooled)) == (
            inline.model_id, inline.stage, str(inline))

    def test_worker_warnings_are_reissued_in_task_order(self, monkeypatch):
        split = _split(n=30, seed=7)
        models = [WarningModel(f"m{i}") for i in range(3)]
        seen = []
        for workers in (1, 2):
            _with_workers(monkeypatch, workers)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                ppn_study(split, models, StudyConfig(R=10), Seed(7))
            seen.append([(w.category, str(w.message), w.filename, w.lineno) for w in caught])
        assert [m for _, m, _, _ in seen[0]] == [
            f"m{i} fits {n} rows" for i in range(3) for n in (split.x_in.n, split.x_val.n)]
        assert seen[1] == seen[0]

    def test_a_task_in_a_worker_forks_no_pool_of_its_own(self, monkeypatch):
        worker_count = checks._worker_count
        _with_workers(monkeypatch, 2)
        assert checks._run_tasks(lambda _: worker_count(4), range(2)) == [1, 1]

    def test_a_task_in_a_worker_draws_on_one_thread(self, monkeypatch):
        with_cores(monkeypatch, 2)

        def runs(_):
            seen = []
            on_cores(lambda start, stop: seen.append((start, stop)), 8)
            return sorted(seen)

        assert runs(None) == [(0, 4), (4, 8)]
        _with_workers(monkeypatch, 2)
        assert checks._run_tasks(runs, range(2)) == [[(0, 8)], [(0, 8)]]

    def test_a_study_still_forks_after_threaded_draws(self, monkeypatch):
        with_cores(monkeypatch, 2)
        threads = threading.active_count()
        seed = Seed(3)
        split = split_data(gen_linear_factor_data(300, seed), (1 / 3, 1 / 3, 1 / 3), seed)
        heldout_predictive_check(split, PpcaModel(2), R=20, seed=seed)
        assert threading.active_count() == threads
        assert checks._worker_count(4) == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_tasks_maps_any_function_in_arg_order(self, monkeypatch, workers):
        # fn closes over a lambda, which no pickle can carry to a worker
        scale = lambda i: 10 * i        # noqa: E731
        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(scale)

        def fn(i):
            # later args finish first on two workers
            time.sleep(0.01 * (5 - i))
            warnings.warn(f"task {i}")
            if i in (1, 3):
                raise StateError(f"task {i} fails")
            return scale(i)

        _with_workers(monkeypatch, workers)
        for args, expected in (([0, 4, 2], [0, 40, 20]), ([0, 1, 2, 3], "task 1 fails")):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if isinstance(expected, list):
                    assert checks._run_tasks(fn, args) == expected
                else:
                    with pytest.raises(StateError, match=expected):
                        checks._run_tasks(fn, args)
            # the failing arg's warnings are re-issued before its error, and
            # no later arg's
            shown = args[:args.index(1) + 1] if 1 in args else args
            assert [str(w.message) for w in caught] == [f"task {i}" for i in shown]
