"""Model-agnostic diagnostic machinery.

A realized diagnostic d(x, theta) becomes a function of data alone through a
reduction: averaging over a posterior anchored on the validation part, or
evaluating at a single point estimate.  The validation part never overlaps
the data being scored, which is what makes the resulting p-values meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .errors import ParameterError, WiringError
from .models import REDUCTION_AVERAGE, REDUCTION_MAP


@dataclass(frozen=True)
class DiagnosticSpec:
    """Which model's realized diagnostic to use and how to reduce it."""

    model: object
    reduction: str = None

    def __post_init__(self):
        if self.reduction is None:
            object.__setattr__(self, "reduction", self.model.default_reduction)
        if self.reduction not in (REDUCTION_AVERAGE, REDUCTION_MAP):
            raise ParameterError(f"unknown reduction {self.reduction!r}")


def validation_diagnostic(x: Dataset, spec: DiagnosticSpec, draws, stream) -> float:
    """Reduce the realized diagnostic of x over draws anchored on x_val."""
    if draws.model_id != spec.model.id:
        raise WiringError(f"draws for {draws.model_id!r} cannot anchor a "
                          f"{spec.model.id!r} diagnostic")
    if spec.reduction == REDUCTION_MAP:
        state = draws.states[0] if draws.B == 1 else draws.map_state()
        return float(spec.model.diagnostic_batch(x, [state], stream)[0])
    vals = spec.model.diagnostic_batch(x, draws.batch(), stream)
    return float(np.mean(vals))
