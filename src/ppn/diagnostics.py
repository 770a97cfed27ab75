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
    _check_wiring(model, draws)
    if model.reduction == REDUCTION_MAP:
        return float(model.diagnostic_batch(x, [_one_state(draws)], stream)[0])
    return float(np.mean(model.diagnostic_batch(x, draws.states, stream)))


def replicate_diagnostics(reps, model, draws, stream) -> np.ndarray:
    """validation_diagnostic of each replicate, the r-th drawing from
    stream.substream(r).

    An adapter whose diagnostic draws nothing (one with
    ``replicate_diagnostics``) scores the whole set in one call, when its
    reduction comes down to one state: a single draw, or the MAP state.
    That gives each replicate the value validation_diagnostic gives it.
    """
    _check_wiring(model, draws)
    score = getattr(model, "replicate_diagnostics", None)
    if score is not None and (draws.B == 1 or model.reduction == REDUCTION_MAP):
        return score(reps, _one_state(draws))
    vals = np.empty(len(reps))
    for r, rep in enumerate(reps):
        vals[r] = validation_diagnostic(rep, model, draws, stream.substream(r))
    return vals


def _one_state(draws):
    """The state a diagnostic that comes down to one state is taken at."""
    return draws.states[0] if draws.B == 1 else draws.map_state()


def _check_wiring(model, draws):
    if draws.model_id != model.id:
        raise WiringError(f"draws for {draws.model_id!r} cannot anchor a "
                          f"{model.id!r} diagnostic")
