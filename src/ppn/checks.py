"""Heldout predictive checks, pairwise nulls, and study orchestration.

A heldout check locates the diagnostic of x_out within the diagnostics of
replicates drawn from the x_in fit, with the diagnostic itself anchored on
x_val.  A pairwise null asks whether replicates from a second model are
distinguishable from the first model's own replicates under the first
model's diagnostic.  A model's diagnostic includes its reduction over the
x_val posterior, so the check belongs to the model adapter.  The study runs
all checks, filters to passers, and classifies every passing pair.

Every product is drawn from its own labelled stream, so the order in which
products are made cannot change a value.  A study therefore makes each
model's products, then finishes each passing pair, on a pool of forked
worker processes, one per usable core; with one core, or where ``fork`` is
unavailable, the same tasks run in the calling process.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

from .core import (VERDICT_A_DOMINATES, VERDICT_B_DOMINATES,
                   VERDICT_COMPLEMENTARY, VERDICT_EQUIVALENT, CheckOutcome,
                   DataSplit, PpnOutcome, ReplicateBlock, StudyReport, pass_fail)
from .diagnostics import replicate_diagnostics, validation_diagnostic
from .errors import CheckError, ParameterError, PpnError, WiringError, finite, integer
from .estimators import sym_kl_estimate
from .models import MultMixModel
from .rng import need_seed
from . import mixtures

MODE_FULL = "full"
MODE_CHAIN = "chain"


@dataclass(frozen=True)
class StudyConfig:
    """The settings every entry point runs on, checked before any fit: the
    single checks and ``ppn_check`` build one from their R, alpha and tau."""

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


class _Engine:
    """The per-model products that the checks and pairs of one call share.

    Each product is computed once and kept under the stream label it is
    drawn from: ``fit-<part>`` for a fit, ``rep`` for the replicates, and
    ``diag/<source>`` for the diagnostics of a source model's replicates
    under an owner's diagnostic.  Replicates are drawn from the fit to the
    source part and shaped like x_out; diagnostics are anchored on the fit
    to the anchor part.  They are made in one order, the source's fit and
    replicates, the owner's anchor fit, the replicate diagnostics, then a
    check's observed one, so every entry point reports the same failing
    stage.  config gives R, the check's alpha and the pair's tau.

    Before that order starts, ``fits`` fits together the categorical
    mixture chains that a call needs: a check's two (the model on the
    source and anchor parts), a pair's three (the owner on both, the source
    on the source part) and a study's two per model, each chain once.
    ``MultMixModel`` chains that share a schedule run as one
    ``mixtures.multmix_gibbs_fits`` loop, whose draws are bit for bit those
    of the chains run alone.  Every other fit, a custom adapter's included,
    is made by the adapter's ``fit`` where the order reaches it, so an
    adapter needs only ``fit``.
    """

    def __init__(self, seed, config: StudyConfig, x_out, source, anchor):
        self.seed, self.config = need_seed(seed, "a check"), config
        self.x_out, self.source, self.anchor = x_out, source, anchor  # (part name, data)
        self._kept = {}

    @classmethod
    def of_split(cls, split: DataSplit, seed, config):
        return cls(seed, config, split.x_out, ("in", split.x_in), ("val", split.x_val))

    def _once(self, model, label, stage, fn, *args):
        key = (model, label)
        if key not in self._kept:
            self._kept[key] = _stage(model.id, stage, fn, *args,
                                     self.seed.stream(model.id, label))
        return self._kept[key]

    def products(self, model):
        """The products kept for model, by label."""
        return {label: value for (owner, label), value in self._kept.items()
                if owner is model}

    def adopt(self, model, products):
        """Keep products made for model by a forked copy of this engine."""
        for label, value in products.items():
            self._kept.setdefault((model, label), value)

    def fits(self, jobs):
        """Fit the (model, part) jobs that run as one loop and are not kept
        yet, and keep their draws as fit keeps them.  A job whose group has
        no other, or whose group fails, is left to fit, which fits it alone
        and raises any failure where the order reaches it."""
        groups = {}
        for model, (name, data) in jobs:
            if type(model) is MultMixModel and (model, f"fit-{name}") not in self._kept:
                groups.setdefault(model.chain, {})[model, name] = data
        for chain, group in groups.items():
            if len(group) < 2:
                continue
            try:
                fitted = mixtures.multmix_gibbs_fits(
                    group.values(), [model.K for model, _ in group],
                    chain.iters, chain.burnin, chain.thin,
                    [self.seed.stream(model.id, f"fit-{name}") for model, name in group])
            except PpnError:
                continue
            for (model, name), draws in zip(group, fitted):
                self._kept[model, f"fit-{name}"] = draws

    def fit(self, model, part):
        name, data = part
        return self._once(model, f"fit-{name}", f"fit x_{name}", model.fit, data)

    def reps(self, model):
        return self._once(model, "rep", "replicate", _replicate_block, model,
                          self.fit(model, self.source), self.x_out, self.config.R)

    def samples(self, owner, source):
        reps = self.reps(source)
        anchor = self.fit(owner, self.anchor)
        stage = "replicate diagnostics" if source is owner else "cross diagnostics"
        return self._once(owner, f"diag/{source.id}", stage, replicate_diagnostics,
                          reps, owner, anchor)

    def check(self, model) -> CheckOutcome:
        self.fits([(model, self.source), (model, self.anchor)])
        d_rep = self.samples(model, model)
        d_obs = _stage(model.id, "observed diagnostic", validation_diagnostic,
                       self.x_out, model, self.fit(model, self.anchor),
                       self.seed.stream(model.id, "diag", "observed"))
        p = float((d_rep > d_obs).mean())
        return CheckOutcome(p, pass_fail(p, self.config.alpha), d_rep, d_obs, model.id)

    def pair(self, owner, source) -> PpnOutcome:
        self.fits([(owner, self.source), (owner, self.anchor), (source, self.source)])
        samples_a = self.samples(owner, owner)
        samples_b = self.samples(owner, source)
        sym_kl = _stage(owner.id, f"sym-KL against {source.id}", sym_kl_estimate,
                        samples_a, samples_b)
        return PpnOutcome(sym_kl, sym_kl <= self.config.tau, samples_a, samples_b,
                          owner.id, source.id)


def _replicate_block(model, fit, like, R, stream):
    """model's replicates, refused unless they are one ReplicateBlock of R."""
    reps = model.replicate(fit, like, R, stream)
    if not isinstance(reps, ReplicateBlock):
        raise WiringError(f"replicate gave a {type(reps).__name__}, not a ReplicateBlock")
    if len(reps) != R:
        raise WiringError(f"replicate gave {len(reps)} replicates, not {R}")
    return reps


def heldout_predictive_check(split: DataSplit, model, R=200, alpha=0.1,
                             seed=None) -> CheckOutcome:
    """Locate x_out's diagnostic within replicates of the x_in fit."""
    return _Engine.of_split(split, seed, StudyConfig(R=R, alpha=alpha)).check(model)


def posterior_predictive_pvalue(x_obs, model, R=200, alpha=0.1,
                                seed=None) -> CheckOutcome:
    """Classical double-use p-value: reference and anchor share x_obs.

    Provided for comparison studies only; unlike the heldout check it is
    not calibrated.  The one fit to x_obs is both the replicate source and
    the anchor.
    """
    obs = ("obs", x_obs)
    return _Engine(seed, StudyConfig(R=R, alpha=alpha), x_obs, obs, obs).check(model)


def ppn_check(split: DataSplit, model_a, model_b, R=200, tau=1.0, seed=None) -> PpnOutcome:
    """Can replicates from model_b pass for model_a's own replicates?

    Both replicate sets are conditioned on x_in and scored by model_a's
    validation diagnostic; closeness is the symmetrized KL between the two
    diagnostic sample sets.  No heldout check is run: ``ppn_study`` pairs
    only the models that pass theirs.
    """
    return _Engine.of_split(split, seed, StudyConfig(R=R, tau=tau)).pair(model_a, model_b)


def _worker_count(tasks):
    """Processes for this many tasks: one per usable core, at most one per
    task.  One (the caller itself) where forking is unavailable or unsafe:
    in a child process, such as a pool worker, whose tasks would otherwise
    fork a pool of their own, or beside other threads, whose held locks a
    forked child would copy."""
    # the pool's modules load here and in _run_tasks, so that a run that
    # forks nothing, such as a single check, never imports them
    import multiprocessing
    import threading
    if not hasattr(os, "sched_getaffinity") \
            or "fork" not in multiprocessing.get_all_start_methods() \
            or multiprocessing.parent_process() is not None \
            or threading.active_count() > 1:
        return 1
    return min(tasks, len(os.sched_getaffinity(0)))


_task = None        # the function that a forked worker of a pool maps


def _attach(fn):
    global _task
    _task = fn


def _in_worker(arg):
    return _recorded(_task, arg)


def _recorded(fn, arg):
    """fn(arg) or the PpnError it raised, with the warnings it raised kept
    for the caller to re-issue."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, error = fn(arg), None
        except PpnError as exc:
            result, error = None, exc
    return result, [(w.message, w.category, w.filename, w.lineno) for w in caught], error


def _run_tasks(fn, args):
    """fn(arg) for each arg, results in order.

    With more than one worker the calls run on a fork pool: each worker
    inherits fn with all it closes over, so only args and results are
    pickled.  Each call's warnings are re-issued, and the first failing
    call's error raised, in arg order.
    """
    workers = _worker_count(len(args))
    if workers <= 1:
        return _reissued(_recorded(fn, arg) for arg in args)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=_attach, initargs=(fn,))
    try:
        return _reissued(pool.map(_in_worker, args))
    finally:
        pool.shutdown(cancel_futures=True)


def _reissued(outputs):
    results = []
    for result, caught, error in outputs:
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno)
        if error is not None:
            raise error
        results.append(result)
    return results


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
    consecutive passers, with the later model owning the diagnostic.  The
    models' products, then the finished pairs, are made on up to one forked
    worker per usable core; the report does not depend on how many.  config
    must be a StudyConfig (None for the defaults).
    """
    if len(models) < 2:
        raise ParameterError("a study needs at least two models")
    ids = [m.id for m in models]
    if len(set(ids)) < len(ids):
        raise ParameterError(f"model ids must be unique, not {ids}")
    if config is None:
        config = StudyConfig()
    elif not isinstance(config, StudyConfig):
        raise ParameterError(f"config must be a StudyConfig, not a {type(config).__name__}")
    engine = _Engine.of_split(split, seed, config)

    def own_products(i):
        """Model i's fits, replicates and own diagnostic set, as kept products."""
        engine.fits([(models[i], engine.source), (models[i], engine.anchor)])
        engine.samples(models[i], models[i])
        return engine.products(models[i])

    for model, products in zip(models, _run_tasks(own_products, range(len(models)))):
        engine.adopt(model, products)
    diagonal = [engine.check(model) for model in models]
    passers = [i for i, c in enumerate(diagonal) if c.passed]
    if config.mode == MODE_CHAIN:
        pairs_to_run = list(zip(passers[1:], passers[:-1]))
    else:
        pairs_to_run = [(a, b) for a in passers for b in passers if a != b]
    off_diagonal = _run_tasks(lambda pair: engine.pair(models[pair[0]], models[pair[1]]),
                              pairs_to_run)
    survivors = [models[i] for i in passers]
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
