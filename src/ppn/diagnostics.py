"""Model-agnostic diagnostic machinery.

A realized diagnostic d(x, theta) becomes a function of data alone through
the model's reduction: averaging over a posterior anchored on the
validation part, or evaluating at its MAP state.  The validation part never
overlaps the data being scored, which is what makes the resulting p-values
meaningful.  A diagnostic is a function of the data and the state alone, so
scoring draws nothing.  The observed part is scored as a block of one
replicate, so every diagnostic is one diagnostic_batch call on a
ReplicateBlock, reduced by one rule.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, ReplicateBlock
from .errors import WiringError
from .models import REDUCTION_MAP


def validation_diagnostic(x: Dataset, model, draws) -> float:
    """Reduce model's realized diagnostic of x over draws anchored on x_val,
    x scored as a block of one replicate."""
    block = ReplicateBlock(x.values[None], x.covariates, x.level_sizes)
    return float(_reduced(block, model, draws)[0])


def replicate_diagnostics(reps: ReplicateBlock, model, draws) -> np.ndarray:
    """validation_diagnostic of each replicate."""
    if not isinstance(reps, ReplicateBlock):
        raise WiringError(f"replicates must be one ReplicateBlock, not a {type(reps).__name__}")
    return _reduced(reps, model, draws)


def _reduced(x, model, draws):
    """The R x B diagnostic_batch of the block x, at the MAP state (the one
    state of a single-state fit) under ``map`` or at every retained state
    under ``average``, reduced over the states to one value per replicate."""
    if draws.model_id != model.id:
        raise WiringError(f"draws for {draws.model_id!r} cannot anchor a "
                          f"{model.id!r} diagnostic")
    at_map = model.reduction == REDUCTION_MAP
    states = ([draws.states[0] if draws.B == 1 else draws.map_state()] if at_map
              else draws.states)
    vals = model.diagnostic_batch(x, states)
    shape = (len(x), len(states))
    if not (isinstance(vals, np.ndarray) and vals.shape == shape):
        got = vals.shape if isinstance(vals, np.ndarray) else type(vals).__name__
        raise WiringError(f"the diagnostic_batch of {model.id!r} gave {got}, "
                          f"not {shape} values")
    return vals[:, 0] if at_map else np.mean(vals, axis=1)
