"""Model adapters: replicate blocks, the scoring of a whole block in one
call, and the data they refuse."""

import dataclasses

import numpy as np
import pytest

from ppn import mixtures
from ppn.checks import heldout_predictive_check
from ppn.core import BLOCK_CELLS, Dataset, PosteriorDraws, ReplicateBlock, split_data
from ppn.datagen import (gen_gmm_data, gen_linear_factor_data, gen_multmix_data,
                         gen_regression_data)
from ppn.diagnostics import replicate_diagnostics, validation_diagnostic
from ppn.errors import CheckError, DataError, DimensionError
from ppn.models import GmmModel, MultMixModel, PpcaModel, RegressionModelA, RegressionModelB
from ppn.rng import Seed

SEED = Seed(50)


def _regression_split():
    # x_in 500 rows of one response: 524 replicates in a block of scoring
    return split_data(gen_regression_data(2000, 3, 2.5, SEED), (0.25, 0.5, 0.25), SEED)


def _thirds(data):
    return split_data(data, (1 / 3, 1 / 3, 1 / 3), SEED)


def _factor_split():
    # x_out 100 rows of 10 values: 262 replicates in a block of scoring
    return _thirds(gen_linear_factor_data(300, SEED))


CASES = {"reg-A": (RegressionModelA, _regression_split),
         "reg-B": (RegressionModelB, _regression_split),
         "ppca-2": (lambda: PpcaModel(2), _factor_split),
         "gmm-2": (lambda: GmmModel(2, 40, 20, 5), lambda: _thirds(gen_gmm_data(300, SEED))),
         "multmix-2": (lambda: MultMixModel(2, 40, 20, 5),
                       lambda: _thirds(gen_multmix_data(300, seed=SEED)))}


def _replicates(name, R):
    make_model, make_split = CASES[name]
    model, split = make_model(), make_split()
    reps = model.replicate(model.fit(split.x_in, SEED.stream("in")), split.x_out, R,
                           SEED.stream("rep"))
    return model, split, reps


def _recorded_calls(monkeypatch, model):
    """The (values shape, state count) of each diagnostic_batch call of model."""
    calls = []
    batch = model.diagnostic_batch

    def recorded(x, states, stream):
        calls.append((x.values.shape, len(states)))
        return batch(x, states, stream)

    monkeypatch.setattr(model, "diagnostic_batch", recorded)
    return calls


class TestReplicateBlock:
    def test_replicates_are_views_built_without_checks(self, monkeypatch):
        drawn = {name: _replicates(name, 20) for name in CASES}
        assert drawn["reg-B"][2].values.shape == (20, 500, 1)
        monkeypatch.setattr(ReplicateBlock, "__init__", lambda *a: pytest.fail("checked again"))
        for name, (_, split, reps) in drawn.items():
            # regression replicates are drawn at the fitted x_in rows, the rest shaped like x_out
            rows = (split.x_in if name.startswith("reg") else split.x_out).n
            assert isinstance(reps, ReplicateBlock)
            assert reps.values.shape == (20, rows, split.x_in.d)
            for start, block in reps.blocks():
                assert np.shares_memory(block.values, reps.values)
                assert block.covariates is reps.covariates
                assert block.level_sizes is reps.level_sizes
                assert np.array_equal(block.values, reps.values[start:start + len(block)])
            assert len(reps) == 20

    def test_block_is_checked_once_as_a_dataset_is(self):
        good = np.zeros((3, 4, 2))
        for r, col in ((0, 0), (2, 1)):
            bad = good.copy()
            bad[r, 3, col] = np.nan
            with pytest.raises(DataError, match="non-finite"):
                ReplicateBlock(bad)
        with pytest.raises(DataError, match="covariates contain non-finite"):
            ReplicateBlock(good, np.full((4, 1), np.inf))
        with pytest.raises(DimensionError):
            ReplicateBlock(good, np.ones((3, 1)))
        with pytest.raises(DimensionError):
            ReplicateBlock(np.zeros((4, 2)))
        with pytest.raises(DataError, match="out of range"):
            ReplicateBlock(np.full((2, 3, 2), 1.0), level_sizes=(2, 1))
        codes = ReplicateBlock(np.ones((2, 3, 2)), level_sizes=(2, 3))
        assert codes.level_sizes == (2, 3)

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    @pytest.mark.parametrize("name", ["reg-A", "reg-B", "ppca-2", "gmm-2"])
    def test_non_finite_replicates_fail_at_the_replicate_stage(self, name):
        make_model, make_split = CASES[name]
        # a PPCA state refuses non-finite values, so its replicates overflow
        # from a finite loading instead
        field, value = {"reg-A": ("y_bar", np.nan), "reg-B": ("intercept", np.nan),
                        "ppca-2": ("W", 1e308), "gmm-2": ("means", np.nan)}[name]
        model = make_model()
        fit = model.fit

        def non_finite_fit(x, stream):
            state = fit(x, stream).states[0]
            bad = np.full(np.shape(getattr(state, field)), value)
            return PosteriorDraws((dataclasses.replace(state, **{field: bad}),), model.id)

        model.fit = non_finite_fit
        with pytest.raises(CheckError) as info:
            heldout_predictive_check(make_split(), model, R=30, seed=SEED)
        assert info.value.stage == "replicate"
        assert isinstance(info.value.cause, DataError)
        assert "non-finite" in str(info.value.cause)


class TestReplicateScoring:
    """Every adapter scores a whole replicate block in one diagnostic_batch
    call; each value must be the one validation_diagnostic gives that
    replicate on its own."""

    @pytest.mark.parametrize("name, R", [("reg-A", 7), ("reg-A", 1100), ("reg-B", 1100),
                                         ("ppca-2", 600), ("gmm-2", 30)])
    def test_scores_match_each_replicate_on_its_own(self, name, R, monkeypatch):
        model, split, reps = _replicates(name, R)
        anchor = model.fit(split.x_val, SEED.stream("val"))
        rows = BLOCK_CELLS // (reps.n * reps.d)
        if R > 100:   # several blocks, the last one short
            assert R > rows and R % rows
        stream = SEED.stream("diag")
        for reduction in ("average", "map"):
            model.reduction = reduction
            alone = np.array([validation_diagnostic(
                Dataset(reps.values[r], reps.covariates, reps.level_sizes), model, anchor,
                stream.substream(r)) for r in range(R)])
            calls = _recorded_calls(monkeypatch, model)
            got = replicate_diagnostics(reps, model, anchor, stream)
            monkeypatch.undo()
            assert got.tobytes() == alone.tobytes()
            # the whole block in one call, at the states the reduction needs
            assert calls == [(reps.values.shape, 1 if reduction == "map" else anchor.B)]

    @pytest.mark.parametrize("reduction", ["average", "map"])
    @pytest.mark.parametrize("source_K", [2, 3])
    def test_multmix_block_matches_each_replicate(self, reduction, source_K, monkeypatch):
        split = _thirds(gen_multmix_data(300, seed=SEED))
        source = MultMixModel(source_K, 40, 20, 5)
        reps = source.replicate(source.fit(split.x_in, SEED.stream("in")), split.x_out, 700,
                                SEED.stream("rep"))
        owner = MultMixModel(2, 40, 20, 5, reduction=reduction)
        anchor = owner.fit(split.x_val, SEED.stream("val"))
        # the kernel gathers several parts, and at every state several runs
        cells = len(reps) * reps.n * reps.d * (1 if reduction == "map" else anchor.B)
        assert cells > mixtures._GATHER_CELLS
        assert reduction == "map" or cells > 2 * BLOCK_CELLS
        stream = SEED.stream("diag")
        alone = np.array([validation_diagnostic(
            Dataset(rep, level_sizes=reps.level_sizes), owner, anchor, stream.substream(r))
            for r, rep in enumerate(reps.values)])
        calls = _recorded_calls(monkeypatch, owner)
        got = replicate_diagnostics(reps, owner, anchor, stream)
        assert got.tobytes() == alone.tobytes()
        # the whole block in one call, at the states the reduction needs
        assert calls == [(reps.values.shape, 1 if reduction == "map" else anchor.B)]

    def test_cross_family_scores_match(self):
        _, split, reps = _replicates("reg-A", 600)
        owner = RegressionModelB()
        anchor = owner.fit(split.x_val, SEED.stream("val"))
        stream = SEED.stream("diag")
        alone = [validation_diagnostic(Dataset(rep, reps.covariates), owner, anchor,
                                       stream.substream(r))
                 for r, rep in enumerate(reps.values)]
        assert np.array_equal(replicate_diagnostics(reps, owner, anchor, stream), alone)


class TestRegressionRefusals:
    """A regression adapter models one continuous response column."""

    @pytest.mark.parametrize("model", [RegressionModelA(), RegressionModelB()])
    def test_several_response_columns(self, model):
        data = gen_regression_data(60, 2, 2.5, SEED)
        two = Dataset(np.hstack([data.values, data.values]), data.covariates)
        with pytest.raises(DimensionError, match="one response column"):
            model.fit(two, SEED.stream("f"))
        state = model.fit(data, SEED.stream("f")).states[0]
        with pytest.raises(DimensionError, match="one response column"):
            model.diagnostic_batch(two, [state], None)
        split = split_data(two, (1 / 3, 1 / 3, 1 / 3), SEED)
        with pytest.raises(CheckError) as info:
            heldout_predictive_check(split, model, R=10, seed=SEED)
        assert isinstance(info.value.cause, DimensionError)

    @pytest.mark.parametrize("model", [RegressionModelA(), RegressionModelB()])
    def test_level_codes(self, model):
        codes = gen_multmix_data(60, seed=SEED)
        one_code = Dataset(codes.values[:, :1], level_sizes=codes.level_sizes[:1])
        for data in (codes, one_code):
            with pytest.raises(DataError, match="level codes"):
                model.fit(data, SEED.stream("f"))
        state = model.fit(gen_regression_data(60, 2, 2.5, SEED), SEED.stream("f")).states[0]
        with pytest.raises(DataError, match="level codes"):
            model.diagnostic_batch(one_code, [state], None)
        split = split_data(codes, (1 / 3, 1 / 3, 1 / 3), SEED)
        with pytest.raises(CheckError) as info:
            heldout_predictive_check(split, model, R=10, seed=SEED)
        assert isinstance(info.value.cause, DataError)
