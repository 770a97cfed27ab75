"""Validation-diagnostic reduction tests."""

import numpy as np
import pytest

from ppn.core import Dataset
from ppn.diagnostics import DiagnosticSpec, validation_diagnostic
from ppn.errors import ParameterError, WiringError
from ppn.mixtures import PosteriorDraws
from ppn.models import RegressionModelA
from ppn.rng import Seed


class FakeModel:
    """Adapter whose realized diagnostic is a supplied function of (x, state)."""

    default_reduction = "average"

    def __init__(self, fn, model_id="fake"):
        self.fn = fn
        self.id = model_id

    def diagnostic_batch(self, x, states, stream):
        return np.array([self.fn(x, s) for s in states])


def _draws(states, model_id="fake", logpost=None):
    return PosteriorDraws(tuple(states), model_id,
                          logpost=None if logpost is None else np.asarray(logpost))


class TestValidationDiagnostic:
    def test_single_draw_equals_realized(self):
        model = FakeModel(lambda x, s: s + x.values.sum())
        x = Dataset(np.array([[1.0], [2.0]]))
        val = validation_diagnostic(x, DiagnosticSpec(model), _draws([4.0]),
                                    Seed(0).stream("d"))
        assert val == 7.0

    def test_constant_diagnostic(self):
        model = FakeModel(lambda x, s: 3.25)
        x = Dataset(np.array([[0.0]]))
        val = validation_diagnostic(x, DiagnosticSpec(model),
                                    _draws([1.0, 2.0, 3.0]), Seed(0).stream("d"))
        assert val == 3.25

    def test_average_is_linear(self):
        f = lambda x, s: s
        g = lambda x, s: s**2
        mix = lambda x, s: 0.3 * f(x, s) + 0.7 * g(x, s)
        x = Dataset(np.array([[0.0]]))
        states = [1.0, 2.0, 5.0]
        stream = Seed(0).stream("d")
        vf = validation_diagnostic(x, DiagnosticSpec(FakeModel(f)), _draws(states), stream)
        vg = validation_diagnostic(x, DiagnosticSpec(FakeModel(g)), _draws(states), stream)
        vm = validation_diagnostic(x, DiagnosticSpec(FakeModel(mix)), _draws(states), stream)
        assert abs(vm - (0.3 * vf + 0.7 * vg)) < 1e-12

    def test_regression_a_closed_form(self):
        model = RegressionModelA()
        y_val = Dataset(np.array([[1.0], [2.0], [3.0]]))
        draws = model.fit(y_val, Seed(0).stream("f"))
        x = Dataset(np.array([[0.0], [4.0]]))
        val = validation_diagnostic(x, DiagnosticSpec(model), draws, Seed(0).stream("d"))
        assert abs(val - ((0.0 - 2.0) ** 2 + (4.0 - 2.0) ** 2)) < 1e-12

    def test_map_reduction_uses_highest_posterior(self):
        model = FakeModel(lambda x, s: s)
        spec = DiagnosticSpec(model, reduction="map")
        draws = _draws([10.0, 30.0, 20.0], logpost=[0.1, 0.9, 0.5])
        val = validation_diagnostic(Dataset(np.array([[0.0]])), spec, draws,
                                    Seed(0).stream("d"))
        assert val == 30.0

    def test_b_cap(self):
        model = FakeModel(lambda x, s: s)
        spec = DiagnosticSpec(model, B=2)
        val = validation_diagnostic(Dataset(np.array([[0.0]])), spec,
                                    _draws([1.0, 3.0, 100.0]), Seed(0).stream("d"))
        assert val == 2.0

    def test_purity(self):
        # value is a pure function of (x, spec, draws, stream label)
        model = FakeModel(lambda x, s: s * x.values.sum())
        x = Dataset(np.array([[2.0]]))
        draws = _draws([1.0, 2.0])
        a = validation_diagnostic(x, DiagnosticSpec(model), draws, Seed(0).stream("d"))
        b = validation_diagnostic(x, DiagnosticSpec(model), draws, Seed(0).stream("d"))
        assert a == b

    def test_wiring_error(self):
        model = FakeModel(lambda x, s: s, model_id="m1")
        draws = _draws([1.0], model_id="m2")
        with pytest.raises(WiringError):
            validation_diagnostic(Dataset(np.array([[0.0]])), DiagnosticSpec(model),
                                  draws, Seed(0).stream("d"))

    def test_bad_spec(self):
        model = FakeModel(lambda x, s: s)
        with pytest.raises(ParameterError):
            DiagnosticSpec(model, reduction="median")
        with pytest.raises(ParameterError):
            DiagnosticSpec(model, B=0)
