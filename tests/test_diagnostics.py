"""Validation-diagnostic reduction tests."""

import numpy as np
import pytest

from ppn.checks import heldout_predictive_check
from ppn.core import Dataset, PosteriorDraws, ReplicateBlock, split_data
from ppn.datagen import gen_gmm_data
from ppn.diagnostics import replicate_diagnostics, validation_diagnostic
from ppn.errors import ParameterError, WiringError
from ppn.mixtures import gmm_loglik_diagnostic_batch
from ppn.models import (GmmModel, MultMixModel, PpcaModel, RegressionModelA,
                        RegressionModelB, make_model)
from ppn.rng import Seed


def block_of_one(x):
    """The Dataset x as a block of one replicate, as validation_diagnostic
    scores it."""
    return ReplicateBlock(x.values[None], x.covariates, x.level_sizes)


class FakeModel:
    """Adapter whose realized diagnostic is a supplied function of (x, state),
    scoring a block of one replicate."""

    def __init__(self, fn, model_id="fake", reduction="average"):
        self.fn = fn
        self.id = model_id
        self.reduction = reduction

    def diagnostic_batch(self, x, states):
        return np.array([[self.fn(x, s) for s in states]])


def _draws(states, model_id="fake", logpost=None):
    return PosteriorDraws(tuple(states), model_id,
                          logpost=None if logpost is None else np.asarray(logpost))


class TestValidationDiagnostic:
    def test_single_draw_equals_realized(self):
        model = FakeModel(lambda x, s: s + x.values.sum())
        x = Dataset(np.array([[1.0], [2.0]]))
        val = validation_diagnostic(x, model, _draws([4.0]))
        assert val == 7.0

    def test_constant_diagnostic(self):
        model = FakeModel(lambda x, s: 3.25)
        x = Dataset(np.array([[0.0]]))
        val = validation_diagnostic(x, model, _draws([1.0, 2.0, 3.0]))
        assert val == 3.25

    def test_average_is_linear(self):
        f = lambda x, s: s
        g = lambda x, s: s**2
        mix = lambda x, s: 0.3 * f(x, s) + 0.7 * g(x, s)
        x = Dataset(np.array([[0.0]]))
        states = [1.0, 2.0, 5.0]
        vf = validation_diagnostic(x, FakeModel(f), _draws(states))
        vg = validation_diagnostic(x, FakeModel(g), _draws(states))
        vm = validation_diagnostic(x, FakeModel(mix), _draws(states))
        assert abs(vm - (0.3 * vf + 0.7 * vg)) < 1e-12

    def test_regression_a_closed_form(self):
        model = RegressionModelA()
        y_val = Dataset(np.array([[1.0], [2.0], [3.0]]))
        draws = model.fit(y_val, Seed(0).stream("f"))
        x = Dataset(np.array([[0.0], [4.0]]))
        val = validation_diagnostic(x, model, draws)
        assert abs(val - ((0.0 - 2.0) ** 2 + (4.0 - 2.0) ** 2)) < 1e-12

    def test_map_reduction_uses_highest_posterior(self):
        model = FakeModel(lambda x, s: s, reduction="map")
        draws = _draws([10.0, 30.0, 20.0], logpost=[0.1, 0.9, 0.5])
        val = validation_diagnostic(Dataset(np.array([[0.0]])), model, draws)
        assert val == 30.0

    def test_purity(self):
        # value is a pure function of (x, model, draws)
        model = FakeModel(lambda x, s: s * x.values.sum())
        x = Dataset(np.array([[2.0]]))
        draws = _draws([1.0, 2.0])
        a = validation_diagnostic(x, model, draws)
        b = validation_diagnostic(x, model, draws)
        assert a == b

    def test_wiring_error(self):
        model = FakeModel(lambda x, s: s, model_id="m1")
        draws = _draws([1.0], model_id="m2")
        with pytest.raises(WiringError):
            validation_diagnostic(Dataset(np.array([[0.0]])), model, draws)
        # replicates that are not one block, such as a list of datasets
        with pytest.raises(WiringError, match="ReplicateBlock"):
            replicate_diagnostics([Dataset(np.array([[0.0]]))], model,
                                  _draws([1.0], model_id="m1"))

    def test_bad_spec(self):
        # the reduction is checked where the adapter is built
        for cls in (GmmModel, MultMixModel):
            for reduction in ("median", None, "MAP", 1, ["map"]):
                with pytest.raises(ParameterError, match="unknown reduction"):
                    cls(2, reduction=reduction)

    @pytest.mark.parametrize("family, K", [("regression-A", None), ("regression-B", None),
                                           ("ppca", 2)])
    def test_single_state_families_take_no_reduction(self, family, K):
        for reduction in ("map", "average"):
            with pytest.raises(ParameterError,
                               match=f"model family '{family}' takes no setting 'reduction'"):
                make_model(family, K, reduction=reduction)
        assert make_model(family, K).reduction == "map"

    def test_family_default_reductions(self):
        assert [m.reduction for m in (GmmModel(2), MultMixModel(2), PpcaModel(2),
                                      RegressionModelA(), RegressionModelB())] == \
            ["average", "average", "map", "map", "map"]


class TestMapReductionOnAMixture:
    def test_gmm_check_scores_the_map_state_of_the_val_fit(self):
        seed = Seed(31)
        split = split_data(gen_gmm_data(180, seed), (1 / 3, 1 / 3, 1 / 3), seed)
        model = GmmModel(2, 60, 20, 2, reduction="map")
        out = heldout_predictive_check(split, model, R=10, seed=seed)
        fit_val = model.fit(split.x_val, seed.stream(model.id, "fit-val"))
        want = gmm_loglik_diagnostic_batch(block_of_one(split.x_out),
                                           [fit_val.map_state()])[0, 0]
        assert fit_val.B > 1 and out.diagnostic_observed == want
        # the average reduction of the same fit scores something else
        average = heldout_predictive_check(split, GmmModel(2, 60, 20, 2), R=10, seed=seed)
        assert average.diagnostic_observed != want
