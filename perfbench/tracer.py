"""Span tracing of the ppn package from outside it.

A :class:`Tracer` patches public functions and adapter methods of the
package in place, wherever their names are looked up, and records one span
per call: (layer, function, start, end, parent).  Spans stay in memory until
the caller writes them out.  A layer's self time is the duration of its
spans minus the time covered by their child spans, so the self times of all
layers plus the benchmark's own root span add up to the traced wall time.

Every patch is undone by :meth:`Tracer.close` (or on leaving the ``with``
block), so a traced unit and an untraced one run the same package code.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

# Layer of each span -> per-layer self-time metric.  "bench" is the root span
# the benchmark opens around a unit; its self time is whatever no patched
# function covers (benchmark glue, argument handling, the CLI's argparse).
SELF_TIME_METRICS = {
    "models.diagnostic_batch": "models.diagnostic_batch_s",
    "mixtures.diag": "mixtures.diag_s",
    "models.fit": "models.fit_s",
    "mixtures.gibbs": "mixtures.gibbs_s",
    "linear.fit": "linear.fit_s",
    "models.replicate": "models.replicate_s",
    "rng.stream": "rng.stream_s",
    "core.dataset_validate": "core.dataset_validate_s",
    "core.split": "core.split_s",
    "diagnostics.validation_diagnostic": "diagnostics.validation_diagnostic_s",
    "checks": "checks.self_s",
    "estimators.sym_kl": "estimators.sym_kl_s",
    "report.emit": "report.emit_s",
    "cli": "cli.self_s",
    "datagen": "datagen.s",
    "bench": "bench.self_s",
}

# Layer -> metric counting its spans.
CALL_METRICS = {
    "models.diagnostic_batch": "models.diagnostic_batch_calls",
    "models.fit": "models.fit_calls",
    "diagnostics.validation_diagnostic": "diagnostics.validation_diagnostic_calls",
    "checks": "checks.calls",
    "estimators.sym_kl": "estimators.sym_kl_calls",
    "rng.stream": "rng.streams_created",
    "core.dataset_validate": "core.datasets_built",
}

# Work counters filled from call arguments and results.
COUNT_METRICS = (
    "models.states_scored", "models.replicates", "mixtures.diag_cells",
    "mixtures.diag_bytes_computed", "mixtures.gibbs_iters",
    "estimators.kde_grid_cells", "report.bytes_written", "report.files_written",
)

FLOAT64_BYTES = 8


def _count_states(c, a, result):
    c["models.states_scored"] += len(a["states"])


def _count_replicates(c, a, result):
    c["models.replicates"] += len(result)


def _count_diag(c, a, result):
    # Computed, not measured: the kernels build n x B x K arrays over the
    # d data columns, so 8*n*B*K*d bytes is the working set they imply.
    x, states = a["x"], a["states"]
    cells = x.n * len(states) * states[0].K
    c["mixtures.diag_cells"] += cells
    c["mixtures.diag_bytes_computed"] += FLOAT64_BYTES * cells * x.d


def _count_gibbs(c, a, result):
    c["mixtures.gibbs_iters"] += int(a["iters"])


def _count_kde(grid_points):
    def count(c, a, result):
        c["estimators.kde_grid_cells"] += grid_points * (len(a["samples_p"]) + len(a["samples_q"]))
    return count


def _count_emit(c, a, result):
    c["report.files_written"] += len(result)
    c["report.bytes_written"] += sum(os.path.getsize(p) for p in result)


def probes(ppn):
    """(owner, attribute, layer, counter) for every patched callable."""
    mixtures, linear, models = ppn.mixtures, ppn.linear, ppn.models
    out = [
        (ppn.cli, "main", "cli", None),
        (ppn.report, "emit_report", "report.emit", _count_emit),
        (ppn.core, "split_data", "core.split", None),
        (ppn.core.Dataset, "__post_init__", "core.dataset_validate", None),
        (ppn.rng.VariateStream, "__init__", "rng.stream", None),
        (ppn.diagnostics, "validation_diagnostic", "diagnostics.validation_diagnostic", None),
        (ppn.estimators, "sym_kl_estimate", "estimators.sym_kl",
         _count_kde(ppn.estimators.GRID_POINTS)),
        (mixtures, "gmm_gibbs_fit", "mixtures.gibbs", _count_gibbs),
        (mixtures, "multmix_gibbs_fit", "mixtures.gibbs", _count_gibbs),
        (mixtures, "gmm_loglik_diagnostic_batch", "mixtures.diag", _count_diag),
        (mixtures, "multmix_chi2_diagnostic_batch", "mixtures.diag", _count_diag),
        (linear, "regression_fit_A", "linear.fit", None),
        (linear, "regression_fit_B", "linear.fit", None),
        (linear, "ppca_em_fit", "linear.fit", None),
    ]
    for name in ("heldout_predictive_check", "ppn_check", "ppn_study",
                 "posterior_predictive_pvalue"):
        out.append((ppn.checks, name, "checks", None))
    for name in ("gen_gmm_data", "gen_regression_data", "gen_linear_factor_data",
                 "gen_nonlinear_factor_data", "gen_multmix_data"):
        out.append((ppn.datagen, name, "datagen", None))
    for cls in (models.GmmModel, models.MultMixModel, models.RegressionModelA,
                models.RegressionModelB, models.PpcaModel):
        out += [(cls, "fit", "models.fit", None),
                (cls, "replicate", "models.replicate", _count_replicates),
                (cls, "diagnostic_batch", "models.diagnostic_batch", _count_states)]
    return out


class Tracer:
    """Patches the package on entry, records spans, restores it on close."""

    def __init__(self, ppn):
        self.spans = []          # (layer, function, start, end, parent index)
        self.counts = Counter()
        self._stack = [-1]
        self._patches = []       # (namespace, attribute, original)
        self._ppn = ppn

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "ppn" or name.startswith("ppn.")) and m is not None]
        try:
            for owner, attr, layer, counter in probes(self._ppn):
                original = owner.__dict__[attr]
                wrapper = self._wrap(original, layer, counter)
                if isinstance(owner, type):
                    self._patch(owner, attr, original, wrapper)
                    continue
                # functions imported by name (``from .checks import ppn_check``)
                # are looked up in the importing module, so patch every binding
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, original, wrapper)
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc):
        self.close()

    def _patch(self, namespace, attr, original, wrapper):
        setattr(namespace, attr, wrapper)
        self._patches.append((namespace, attr, original))

    def close(self):
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def _wrap(self, fn, layer, counter):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        qualname = f"{fn.__module__}.{fn.__qualname__}"
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, qualname, start, end, parent)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(counts, bound.arguments, result)
            return result

        return wrapper

    def root(self, fn, *args):
        """Run ``fn(*args)`` inside a root "bench" span; returns its result."""
        return self._wrap(fn, "bench", None)(*args)

    def layer_metrics(self):
        """Self time, call count and work count per layer over all spans."""
        child_time = defaultdict(float)
        for layer, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time = defaultdict(float)
        calls = Counter()
        for idx, (layer, _, start, end, parent) in enumerate(self.spans):
            self_time[layer] += (end - start) - child_time[idx]
            calls[layer] += 1
        out = {metric: self_time[layer] for layer, metric in SELF_TIME_METRICS.items()}
        out.update({metric: calls[layer] for layer, metric in CALL_METRICS.items()})
        out.update({name: self.counts[name] for name in COUNT_METRICS})
        return out

    def span_records(self):
        return [{"layer": layer, "function": fn, "start": start, "end": end, "parent": parent}
                for layer, fn, start, end, parent in self.spans]
