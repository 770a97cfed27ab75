"""Model-agnostic diagnostic machinery.

A realized diagnostic d(x, theta) becomes a function of data alone through
the model's reduction: averaging over a posterior anchored on the
validation part, or evaluating at its MAP state.  The validation part never
overlaps the data being scored, which is what makes the resulting p-values
meaningful.  A replicate set is scored one replicate at a time, or, for an
adapter whose diagnostic draws nothing, as one block by one rule.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, ReplicateBlock
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

    An adapter whose diagnostic draws nothing declares ``scores_blocks``:
    its diagnostic_batch then scores a whole ReplicateBlock in one call, at
    the states its reduction needs, and each replicate's row of R x B values
    is reduced as validation_diagnostic reduces the B values of one dataset.
    That gives each replicate the value validation_diagnostic gives it.  Any
    other adapter, or sequence of replicates, is scored one replicate at a
    time.
    """
    _check_wiring(model, draws)
    if getattr(model, "scores_blocks", False) and isinstance(reps, ReplicateBlock):
        if model.reduction == REDUCTION_MAP:
            return model.diagnostic_batch(reps, [_one_state(draws)], stream)[:, 0]
        return np.mean(model.diagnostic_batch(reps, draws.states, stream), axis=1)
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
