"""Seedable, splittable random variate streams and special functions.

Every stochastic task in the package draws from a ``VariateStream`` derived
from a root :class:`Seed` and a string label.  Streams with distinct labels
are statistically independent (counter-based Philox keys derived by hashing),
so replicates and chains can run in any order, or concurrently, and still
give bit-identical results.

The special functions (``logsumexp``, ``chi_square_cdf``) need numpy and the
standard library alone.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, DomainError, ParameterError, integer

_PROB_TOL = 1e-9
# the series' and continued fraction's relative stopping step, and Lentz's
# stand-in for a zero denominator
_EPS = 2.0**-53
_TINY = 1e-300


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


def need_stream(stream, who):
    """stream's generator, if stream has one; else a ParameterError saying
    who needs a stream."""
    generator = getattr(stream, "generator", None)
    if generator is None:
        raise ParameterError(f"{who} needs a VariateStream, not {stream!r}")
    return generator


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
        replicate.  A re-key hashes only r onto a copy of the hashed label
        prefix, and hands the state setter Python ints, not fresh arrays.
        """
        prefix = hashlib.sha256(f"{self.seed.root}\x1f{self.label}/".encode())
        bits = np.random.Philox(key=_philox_key(self.seed, self.label))
        generator = np.random.Generator(bits)
        state = bits.state
        state["buffer"] = [0, 0, 0, 0]
        words = state["state"] = {"counter": [0, 0, 0, 0]}
        for r in range(R):
            digest = prefix.copy()
            digest.update(str(r).encode())
            words["key"] = _KEY_WORDS.unpack_from(digest.digest())
            bits.state = state
            yield generator


def _philox_key(seed, label):
    digest = hashlib.sha256(f"{seed.root}\x1f{label}".encode()).digest()
    return np.frombuffer(digest, dtype=np.uint64)[:2]


# _philox_key's two words as Python ints: native byte order, standard sizes
_KEY_WORDS = struct.Struct("=2Q")


def _check_prob_vector(p, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ParameterError(f"{name} must be a nonempty vector")
    # written so that NaN fails both tests, and an infinite entry the sum
    if not np.all(p >= 0):
        raise ParameterError(f"{name} has negative or NaN entries")
    if not abs(p.sum() - 1.0) <= _PROB_TOL:
        raise ParameterError(f"{name} must sum to 1 (got {p.sum()!r})")
    return p


def category_bounds(p) -> np.ndarray:
    """The first L - 1 cumulative sums of the probability vector p, once p
    is checked."""
    return np.cumsum(_check_prob_vector(p, "p"))[:-1]


def categories(bounds, u) -> np.ndarray:
    """The inverse-CDF label in [0, L - 1] of each uniform variate in u: the
    count of the L - 1 category bounds below it."""
    return (bounds[:, None] < u).sum(axis=0)


def categorical(g: np.random.Generator, p, size: int) -> np.ndarray:
    """Draw ``size`` labels from Categorical(p) via inverse CDF, from the
    numpy Generator g."""
    bounds = category_bounds(p)
    return categories(bounds, g.random(size))


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

    x must be nonnegative and k lie in [1, 1e6]; NaN is refused for either.
    x = 0 gives exactly 0.0 and x = inf exactly 1.0.  Computed by the
    standard library alone.  Both error and work grow with k: against
    ``scipy.special.gammainc`` the error is under 3e-13 for k up to 2000 and
    about 1e-10 at k = 1e6, where a value near the bulk sums over 5000 terms.
    """
    # written so that a NaN x or k fails
    if not x >= 0:
        raise DomainError("chi-square CDF argument must be nonnegative")
    if not 1 <= k <= 1e6:
        raise DomainError("degrees of freedom must lie in [1, 1e6]")
    return _gamma_p(float(k) / 2.0, float(x) / 2.0)


def _gamma_p(s, x):
    """P(s, x) for s >= 0.5 and x >= 0, as Numerical Recipes' ``gammp``
    computes it: the power series below x = s + 1, where it converges
    fastest, and one minus Lentz's continued fraction for Q(s, x) above."""
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    front = math.exp(s * math.log(x) - x - math.lgamma(s))
    if x < s + 1.0:
        term = total = 1.0 / s
        a = s
        while term > _EPS * total:
            a += 1.0
            term *= x / a
            total += term
        return front * total
    b = x + 1.0 - s
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    i = 0
    while True:
        i += 1
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= _TINY else _TINY)
        c = b + an / c
        c = c if abs(c) >= _TINY else _TINY
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return 1.0 - front * h


def ks_distance(samples, cdf) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and a CDF."""
    s = np.sort(np.asarray(samples, dtype=float))
    if s.size == 0 or not np.all(np.isfinite(s)):
        raise DegenerateSampleError("ks_distance needs a nonempty, finite sample")
    n = s.size
    c = np.asarray([cdf(v) for v in s], dtype=float)
    upper = np.max(np.arange(1, n + 1) / n - c)
    lower = np.max(c - np.arange(0, n) / n)
    return float(max(upper, lower))
