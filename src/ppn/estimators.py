"""Divergence and evidence estimators built from diagnostic samples.

Two model replicate sets are compared through kernel density estimates of
their scalar diagnostics: the symmetrized KL divergence between the two
densities is the similarity score every pairwise null reports.  Marginal
likelihoods come from the harmonic mean of posterior likelihood values,
kept in log space throughout.
"""

from __future__ import annotations

import numpy as np

from .core import BLOCK_CELLS
from .errors import DataError, DegenerateSampleError
from .rng import logsumexp

DENSITY_FLOOR = 1e-12
GRID_POINTS = 1024


def _silverman_bandwidth(samples: np.ndarray) -> float:
    # checked before any arithmetic: std and percentile of fewer than two
    # values warn or raise, and max(0.0, nan) would read as a sym-KL of 0
    if samples.size < 2:
        raise DegenerateSampleError("need at least two samples for a density estimate")
    if not np.all(np.isfinite(samples)):
        raise DegenerateSampleError("samples must be finite")
    sd = samples.std(ddof=1)
    q75, q25 = np.percentile(samples, [75, 25])
    iqr = q75 - q25
    scale = min(sd, iqr / 1.34) if iqr > 0 else sd
    if scale <= 0:
        raise DegenerateSampleError("samples have zero spread")
    return 0.9 * scale * len(samples) ** (-0.2)


def kde_density(samples, grid) -> np.ndarray:
    """Gaussian KDE with Silverman bandwidth, floored at a tiny positive value."""
    samples = np.asarray(samples, dtype=float)
    grid = np.asarray(grid, dtype=float)
    h = _silverman_bandwidth(samples)
    # the grid-by-sample matrix is built and worked in place a block of grid
    # rows at a time, at most 2 MB, where the whole of it holds 16 MB at
    # R = 2000; each row is summed as a whole either way
    rows = max(1, BLOCK_CELLS // samples.size)
    sums = np.empty(grid.size)
    for start in range(0, grid.size, rows):
        z = np.subtract.outer(grid[start:start + rows], samples)
        z /= h
        z *= z
        z *= -0.5
        np.exp(z, out=z).sum(axis=1, out=sums[start:start + rows])
    return np.maximum(sums / (samples.size * h * np.sqrt(2 * np.pi)), DENSITY_FLOOR)


def sym_kl_estimate(samples_p, samples_q) -> float:
    """Symmetrized KL divergence between two sample sets.

    Both densities are evaluated on one shared grid spanning the pooled
    samples, so the estimate is symmetric in its arguments by construction.
    A sample set with a NaN or infinite value, or with zero spread, raises
    DegenerateSampleError.
    """
    samples_p = np.asarray(samples_p, dtype=float)
    samples_q = np.asarray(samples_q, dtype=float)
    h = max(_silverman_bandwidth(samples_p), _silverman_bandwidth(samples_q))
    pooled = np.concatenate([samples_p, samples_q])
    grid = np.linspace(pooled.min() - 3 * h, pooled.max() + 3 * h, GRID_POINTS)
    f = kde_density(samples_p, grid)
    g = kde_density(samples_q, grid)
    kl_pq = np.trapezoid(f * (np.log(f) - np.log(g)), grid)
    kl_qp = np.trapezoid(g * (np.log(g) - np.log(f)), grid)
    return max(0.0, float(0.5 * (kl_pq + kl_qp)))


def harmonic_mean_marginal_likelihood(loglik_draws) -> float:
    """Log marginal likelihood from the harmonic mean of posterior likelihoods.

    Known to have high variance; reported values should be read as rough
    evidence, not precise quantities.
    """
    draws = np.asarray(loglik_draws, dtype=float)
    if draws.size < 1:
        raise DataError("need at least one log-likelihood draw")
    if not np.all(np.isfinite(draws)):
        raise DataError("log-likelihood draws must be finite")
    return float(np.log(draws.size) - logsumexp(-draws))


def bayes_factor(log_ml_a: float, log_ml_b: float) -> float:
    """Evidence ratio of two models under equal prior model probabilities;
    inf when the ratio exceeds the float range, and 0.0 when it underflows."""
    if not (np.isfinite(log_ml_a) and np.isfinite(log_ml_b)):
        raise DataError("log marginal likelihoods must be finite")
    with np.errstate(over="ignore"):
        return float(np.exp(log_ml_a - log_ml_b))
