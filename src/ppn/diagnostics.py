"""Model-agnostic diagnostic machinery.

A realized diagnostic d(x, theta) becomes a function of data alone through
the model's reduction: averaging over a posterior anchored on the
validation part, or evaluating at its MAP state.  The validation part never
overlaps the data being scored, which is what makes the resulting p-values
meaningful.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset
from .errors import WiringError
from .models import REDUCTION_MAP


def validation_diagnostic(x: Dataset, model, draws, stream) -> float:
    """Reduce model's realized diagnostic of x over draws anchored on x_val."""
    if draws.model_id != model.id:
        raise WiringError(f"draws for {draws.model_id!r} cannot anchor a "
                          f"{model.id!r} diagnostic")
    if model.reduction == REDUCTION_MAP:
        state = draws.states[0] if draws.B == 1 else draws.map_state()
        return float(model.diagnostic_batch(x, [state], stream)[0])
    return float(np.mean(model.diagnostic_batch(x, draws.states, stream)))
