"""Seedable, splittable random variate streams and special functions.

Every stochastic task in the package draws from a ``VariateStream`` derived
from a root :class:`Seed` and a string label.  Streams with distinct labels
are statistically independent (counter-based Philox keys derived by hashing),
so replicates and chains can run in any order, or concurrently, and still
give bit-identical results.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, DomainError, ParameterError, integer

_PROB_TOL = 1e-9


@dataclass(frozen=True)
class Seed:
    """Root seed; sub-streams are addressed by label."""

    root: int

    def __post_init__(self):
        root = integer(self.root, "root seed", 0)
        if root >= 2**64:
            raise ParameterError("root seed must be a 64-bit unsigned integer")
        object.__setattr__(self, "root", root)

    def stream(self, *labels) -> "VariateStream":
        return VariateStream(self, "/".join(str(x) for x in labels))


def need_seed(seed, who):
    """seed, if it is a Seed; else a ParameterError saying who needs one."""
    if not isinstance(seed, Seed):
        raise ParameterError(f"{who} needs a Seed, not {seed!r}")
    return seed


class VariateStream:
    """A deterministic variate stream keyed by (seed root, label).

    Single-owner: never share one stream between concurrent tasks; derive a
    fresh labeled stream for each task instead.
    """

    def __init__(self, seed: Seed, label: str):
        self.seed = seed
        self.label = label

    @functools.cached_property
    def generator(self) -> np.random.Generator:
        """The stream's Philox generator, built on first use: many streams
        (one per replicate diagnostic, say) are never drawn from."""
        return np.random.Generator(np.random.Philox(key=_philox_key(self.seed, self.label)))

    def substream(self, *labels) -> "VariateStream":
        return VariateStream(self.seed, self.label + "/" + "/".join(str(x) for x in labels))

    def substream_generators(self, R):
        """The generators of substream(0), ..., substream(R - 1), in turn.

        Each draws exactly what ``substream(r).generator`` draws, but all of
        them are one Generator whose Philox bit generator is re-keyed before
        it is handed out again: a generator is valid only until the next one
        is handed out.  This skips building a stream and a bit generator
        (whose constructor gathers OS entropy even when given its key) per
        replicate.
        """
        bits = np.random.Philox(key=_philox_key(self.seed, self.label))
        generator = np.random.Generator(bits)
        state = bits.state
        for r in range(R):
            state["state"] = {"counter": np.zeros(4, dtype=np.uint64),
                              "key": _philox_key(self.seed, f"{self.label}/{r}")}
            bits.state = state
            yield generator


def _philox_key(seed, label):
    digest = hashlib.sha256(f"{seed.root}\x1f{label}".encode()).digest()
    return np.frombuffer(digest, dtype=np.uint64)[:2]


def _check_prob_vector(p, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ParameterError(f"{name} must be a nonempty vector")
    if np.any(p < 0):
        raise ParameterError(f"{name} has negative entries")
    if abs(p.sum() - 1.0) > _PROB_TOL:
        raise ParameterError(f"{name} must sum to 1 (got {p.sum()!r})")
    return p


def categorical(g: np.random.Generator, p, size: int) -> np.ndarray:
    """Draw ``size`` labels from Categorical(p) via inverse CDF, from the
    numpy Generator g."""
    p = _check_prob_vector(p, "p")
    u = g.random(size)
    # a count over the first L - 1 cumulative sums is a label in [0, L - 1]
    return (u[:, None] > np.cumsum(p)[None, :-1]).sum(axis=1)


def logsumexp(a, axis=None) -> np.ndarray:
    """log(sum(exp(a))) along axis (all of a when None), with each slice's
    largest entry subtracted before exponentiating.

    A slice whose entries are all -inf gives -inf, without a warning; one
    with a +inf entry gives +inf, and one with a NaN gives NaN.
    """
    a = np.asarray(a, dtype=float)
    top = np.max(a, axis=axis, keepdims=True)
    # no shift for an infinite or NaN maximum: -inf - -inf would be NaN
    top[~np.isfinite(top)] = 0.0
    shifted = a - top
    total = np.exp(shifted, out=shifted).sum(axis=axis)
    with np.errstate(divide="ignore"):
        return np.log(total) + np.squeeze(top, axis=axis)


def chi_square_cdf(x: float, k: float) -> float:
    """Chi-square CDF: regularized lower incomplete gamma P(k/2, x/2).

    The only SciPy user in the package, so SciPy is imported on the first
    call rather than with the package.
    """
    if x < 0:
        raise DomainError("chi-square CDF argument must be nonnegative")
    if k < 1:
        raise DomainError("degrees of freedom must be >= 1")
    from scipy import special
    return float(special.gammainc(k / 2.0, np.asarray(x, dtype=float) / 2.0))


def ks_distance(samples, cdf) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and a CDF."""
    s = np.sort(np.asarray(samples, dtype=float))
    if s.size == 0:
        raise DegenerateSampleError("ks_distance needs a nonempty sample")
    n = s.size
    c = np.asarray([cdf(v) for v in s], dtype=float)
    upper = np.max(np.arange(1, n + 1) / n - c)
    lower = np.max(c - np.arange(0, n) / n)
    return float(max(upper, lower))
