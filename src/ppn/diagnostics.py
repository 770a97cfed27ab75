"""Model-agnostic diagnostic machinery.

A realized diagnostic d(x, theta) becomes a function of data alone through
the model's reduction: averaging over a posterior anchored on the
validation part, or evaluating at its MAP state.  The validation part never
overlaps the data being scored, which is what makes the resulting p-values
meaningful.  A dataset and a whole replicate set are each scored by one
diagnostic_batch call and reduced by one rule.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, ReplicateBlock
from .errors import WiringError
from .models import REDUCTION_MAP


def validation_diagnostic(x: Dataset, model, draws, stream) -> float:
    """Reduce model's realized diagnostic of x over draws anchored on x_val."""
    return float(_reduced(x, model, draws, stream))


def replicate_diagnostics(reps: ReplicateBlock, model, draws, stream) -> np.ndarray:
    """validation_diagnostic of each replicate, the r-th drawing from
    stream.substream(r)."""
    if not isinstance(reps, ReplicateBlock):
        raise WiringError(f"replicates must be one ReplicateBlock, not a {type(reps).__name__}")
    return _reduced(reps, model, draws, stream)


def _reduced(x, model, draws, stream):
    """The diagnostic_batch of x at the states model's reduction needs,
    reduced over the states: B values for a Dataset, or R x B for a
    ReplicateBlock, to one value per dataset."""
    _check_wiring(model, draws)
    states = [_one_state(draws)] if model.reduction == REDUCTION_MAP else draws.states
    vals = model.diagnostic_batch(x, states, stream)
    shape = (len(x), len(states)) if isinstance(x, ReplicateBlock) else (len(states),)
    if not (isinstance(vals, np.ndarray) and vals.shape == shape):
        got = vals.shape if isinstance(vals, np.ndarray) else type(vals).__name__
        raise WiringError(f"the diagnostic_batch of {model.id!r} gave {got}, "
                          f"not {shape} values")
    return vals[..., 0] if model.reduction == REDUCTION_MAP else np.mean(vals, axis=-1)


def _one_state(draws):
    """The state a diagnostic that comes down to one state is taken at."""
    return draws.states[0] if draws.B == 1 else draws.map_state()


def _check_wiring(model, draws):
    if draws.model_id != model.id:
        raise WiringError(f"draws for {draws.model_id!r} cannot anchor a "
                          f"{model.id!r} diagnostic")
