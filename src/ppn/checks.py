"""Heldout predictive checks, pairwise nulls, and study orchestration.

A heldout check locates the diagnostic of x_out within the diagnostics of
replicates drawn from the x_in fit, with the diagnostic itself anchored on
x_val.  A pairwise null asks whether replicates from a second model are
distinguishable from the first model's own replicates under the first
model's diagnostic.  A model's diagnostic includes its reduction over the
x_val posterior, so the check belongs to the model adapter.  The study runs
all checks, filters to passers, and classifies every passing pair.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (VERDICT_A_DOMINATES, VERDICT_B_DOMINATES,
                   VERDICT_COMPLEMENTARY, VERDICT_EQUIVALENT, CheckOutcome,
                   DataSplit, PpnOutcome, StudyReport, pass_fail)
from .diagnostics import validation_diagnostic
from .errors import CheckError, ParameterError, PpnError, finite, integer
from .estimators import sym_kl_estimate

MODE_FULL = "full"
MODE_CHAIN = "chain"


@dataclass(frozen=True)
class StudyConfig:
    """Knobs shared by every check in a study."""

    R: int = 200
    alpha: float = 0.1
    tau: float = 1.0
    mode: str = MODE_FULL

    def __post_init__(self):
        object.__setattr__(self, "R", integer(self.R, "R", 1))
        object.__setattr__(self, "alpha", finite(self.alpha, "alpha"))
        object.__setattr__(self, "tau", finite(self.tau, "tau"))
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError("alpha must lie in (0, 1)")
        if self.tau < 0:
            raise ParameterError("tau must be nonnegative")
        if self.mode not in (MODE_FULL, MODE_CHAIN):
            raise ParameterError(f"unknown study mode {self.mode!r}")


def _stage(model_id, stage, fn, *args):
    try:
        return fn(*args)
    except PpnError as exc:
        raise CheckError(model_id, stage, exc) from exc


def _diag_samples(reps, model, anchor, stream):
    vals = np.empty(len(reps))
    for r, rep in enumerate(reps):
        vals[r] = validation_diagnostic(rep, model, anchor, stream.substream(r))
    return vals


class _Engine:
    """The per-model products that the checks and pairs of one call share.

    Each product is computed once and kept under the stream label it is
    drawn from: ``fit-<part>`` for a fit, ``rep`` for the replicates, and
    ``diag/<source>`` for the diagnostics of a source model's replicates
    under an owner's diagnostic.  Replicates are drawn from the fit to the
    source part and shaped like x_out; diagnostics are anchored on the fit
    to the anchor part.
    """

    def __init__(self, seed, R, x_out, source, anchor):
        self.seed, self.R, self.x_out = seed, R, x_out
        self.source, self.anchor = source, anchor      # (part name, data)
        self._kept = {}

    @classmethod
    def of_split(cls, split: DataSplit, seed, R):
        return cls(seed, R, split.x_out, ("in", split.x_in), ("val", split.x_val))

    def _once(self, model, label, stage, fn, *args):
        key = (model, label)
        if key not in self._kept:
            self._kept[key] = _stage(model.id, stage, fn, *args,
                                     self.seed.stream(model.id, label))
        return self._kept[key]

    def fit(self, model, part):
        name, data = part
        return self._once(model, f"fit-{name}", f"fit x_{name}", model.fit, data)

    def reps(self, model):
        return self._once(model, "rep", "replicate", model.replicate,
                          self.fit(model, self.source), self.x_out, self.R)

    def samples(self, owner, source):
        anchor = self.fit(owner, self.anchor)
        stage = "replicate diagnostics" if source is owner else "cross diagnostics"
        return self._once(owner, f"diag/{source.id}", stage, _diag_samples,
                          self.reps(source), owner, anchor)

    def prepare(self, model):
        """Fit both parts and draw the replicates, in that order."""
        self.fit(model, self.source)
        self.fit(model, self.anchor)
        self.reps(model)

    def check(self, model, alpha) -> CheckOutcome:
        self.prepare(model)
        d_obs = _stage(model.id, "observed diagnostic", validation_diagnostic,
                       self.x_out, model, self.fit(model, self.anchor),
                       self.seed.stream(model.id, "diag", "observed"))
        d_rep = self.samples(model, model)
        p = float((d_rep > d_obs).mean())
        return CheckOutcome(p, pass_fail(p, alpha), d_rep, d_obs, model.id)

    def pair(self, owner, source, tau) -> PpnOutcome:
        samples_a = self.samples(owner, owner)
        samples_b = self.samples(owner, source)
        sym_kl = sym_kl_estimate(samples_a, samples_b)
        return PpnOutcome(sym_kl, sym_kl <= tau, samples_a, samples_b,
                          owner.id, source.id)


def heldout_predictive_check(split: DataSplit, model, R=200, alpha=0.1,
                             seed=None) -> CheckOutcome:
    """Locate x_out's diagnostic within replicates of the x_in fit."""
    return _Engine.of_split(split, seed, R).check(model, alpha)


def posterior_predictive_pvalue(x_obs, model, R=200, alpha=0.1,
                                seed=None) -> CheckOutcome:
    """Classical double-use p-value: reference and anchor share x_obs.

    Provided for comparison studies only; unlike the heldout check it is
    not calibrated.  The one fit to x_obs is both the replicate source and
    the anchor.
    """
    obs = ("obs", x_obs)
    return _Engine(seed, R, x_obs, obs, obs).check(model, alpha)


def ppn_check(split: DataSplit, model_a, model_b, R=200, tau=1.0, seed=None,
              verified_passed=False) -> PpnOutcome:
    """Can replicates from model_b pass for model_a's own replicates?

    Both replicate sets are conditioned on x_in and scored by model_a's
    validation diagnostic; closeness is the symmetrized KL between the two
    diagnostic sample sets.
    """
    if not verified_passed:
        warnings.warn("pairwise null run without verified heldout passes; "
                      "interpret with care", stacklevel=2)
    return _Engine.of_split(split, seed, R).pair(model_a, model_b, tau)


def _verdict(fooled_by_b: bool, fooled_by_a: bool) -> str:
    if fooled_by_b and fooled_by_a:
        return VERDICT_EQUIVALENT
    if fooled_by_a and not fooled_by_b:
        # a's data passes b's check but not vice versa: a's check sees more
        return VERDICT_A_DOMINATES
    if fooled_by_b and not fooled_by_a:
        return VERDICT_B_DOMINATES
    return VERDICT_COMPLEMENTARY


def ppn_study(split: DataSplit, models, config: StudyConfig = None,
              seed=None) -> StudyReport:
    """Run every heldout check, then pairwise nulls among the passers.

    Full mode compares every ordered passing pair; chain mode only
    consecutive passers, with the later model owning the diagnostic.
    """
    if len(models) < 2:
        raise ParameterError("a study needs at least two models")
    ids = [m.id for m in models]
    if len(set(ids)) < len(ids):
        raise ParameterError(f"model ids must be unique, not {ids}")
    if config is None:
        config = StudyConfig()
    engine = _Engine.of_split(split, seed, config.R)
    for model in models:
        engine.prepare(model)
    diagonal = [engine.check(model, config.alpha) for model in models]
    survivors = [m for m, c in zip(models, diagonal) if c.passed]
    if config.mode == MODE_CHAIN:
        pairs_to_run = [(survivors[i + 1], survivors[i])
                        for i in range(len(survivors) - 1)]
    else:
        pairs_to_run = [(a, b) for a in survivors for b in survivors if a is not b]
    off_diagonal = [engine.pair(owner, source, config.tau)
                    for owner, source in pairs_to_run]
    outcome = {(p.diagnostic_owner, p.data_source): p for p in off_diagonal}
    verdicts = []
    if config.mode == MODE_FULL:
        for i, a in enumerate(survivors):
            for b in survivors[i + 1:]:
                verdicts.append({
                    "a": a.id,
                    "b": b.id,
                    "class": _verdict(outcome[(a.id, b.id)].fools,
                                      outcome[(b.id, a.id)].fools),
                })
    return StudyReport(tuple(m.id for m in models), config.alpha, config.tau,
                       tuple(diagonal), tuple(off_diagonal), tuple(verdicts))
