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
from scipy import special

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
        digest = hashlib.sha256(f"{self.seed.root}\x1f{self.label}".encode()).digest()
        key = np.frombuffer(digest, dtype=np.uint64)[:2]
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, *labels) -> "VariateStream":
        return VariateStream(self.seed, self.label + "/" + "/".join(str(x) for x in labels))


def _check_prob_vector(p, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ParameterError(f"{name} must be a nonempty vector")
    if np.any(p < 0):
        raise ParameterError(f"{name} has negative entries")
    if abs(p.sum() - 1.0) > _PROB_TOL:
        raise ParameterError(f"{name} must sum to 1 (got {p.sum()!r})")
    return p


def categorical(stream: VariateStream, p, size: int) -> np.ndarray:
    """Draw ``size`` labels from Categorical(p) via inverse CDF."""
    p = _check_prob_vector(p, "p")
    u = stream.generator.random(size)
    return np.minimum((u[:, None] > np.cumsum(p)[None, :-1]).sum(axis=1), len(p) - 1)


def chi_square_cdf(x: float, k: float) -> float:
    """Chi-square CDF: regularized lower incomplete gamma P(k/2, x/2)."""
    if x < 0:
        raise DomainError("chi-square CDF argument must be nonnegative")
    if k < 1:
        raise DomainError("degrees of freedom must be >= 1")
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
