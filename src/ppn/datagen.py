"""Synthetic data generators for every supported experiment family.

Each generator is a pure function of its parameters and a root seed, so a
study config that names a preset and a seed pins its data exactly.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset
from .errors import ParameterError, integer
from .rng import Seed, categorical, need_seed

# 3-component, 2-d Gaussian mixture: one mean/variance column per component.
GMM_MEANS = np.array([[-5.0, 0.0, 10.0], [5.0, 0.0, 5.0]]).T
GMM_VARIANCES = np.array([[1.0, 2.0, 2.0], [1.0, 1.0, 4.0]]).T

# Two-block loading matrix for the linear factor experiment (G=10, K=2).
LINEAR_W = np.array([
    [5.0, 5.0, 5.0, 5.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 5.0, 5.0, 5.0, 5.0],
]).T

MULTMIX_LEVEL_SIZES = (4, 3, 3)

# Preset: two well-separated classes over scores, mass capped at 0.7 per cell.
MULTMIX_TABLES = (
    ([0.05, 0.10, 0.15, 0.70], [0.10, 0.20, 0.70], [0.10, 0.20, 0.70]),
    ([0.70, 0.15, 0.10, 0.05], [0.70, 0.20, 0.10], [0.70, 0.20, 0.10]),
)


def gen_gmm_data(n: int, seed: Seed) -> Dataset:
    """Equal-weight 3-component 2-d Gaussian mixture draw."""
    n = integer(n, "n", 1)
    stream = need_seed(seed, "the gmm generator").stream("gen", "gmm")
    comp = categorical(stream.generator, np.full(3, 1.0 / 3.0), n)
    noise = stream.generator.standard_normal((n, 2))
    x = GMM_MEANS[comp] + np.sqrt(GMM_VARIANCES[comp]) * noise
    return Dataset(x)


def gen_regression_data(n: int = 2000, p: int = 10, theta: float = 2.5, seed: Seed = None) -> Dataset:
    """Constant-mean responses with independent, meaningless covariates."""
    n, p = integer(n, "n", 1), integer(p, "p", 1)
    stream = need_seed(seed, "the regression generator").stream("gen", "regression")
    y = theta + stream.generator.standard_normal(n)
    covariates = stream.generator.standard_normal((n, p))
    return Dataset(y[:, None], covariates=covariates)


def gen_linear_factor_data(n: int, seed: Seed) -> Dataset:
    """Linear two-factor data: x = Wz + eps with unit noise."""
    n = integer(n, "n", 1)
    stream = need_seed(seed, "the linear factor generator").stream("gen", "linear_factor")
    z = stream.generator.standard_normal((n, 2))
    eps = stream.generator.standard_normal((n, LINEAR_W.shape[0]))
    return Dataset(z @ LINEAR_W.T + eps)


def gen_nonlinear_factor_data(n: int, seed: Seed) -> Dataset:
    """Nonlinear two-factor data in 7 dimensions with unit noise."""
    n = integer(n, "n", 1)
    stream = need_seed(seed, "the nonlinear factor generator").stream("gen", "nonlinear_factor")
    z = stream.generator.standard_normal((n, 2))
    z1, z2 = z[:, 0], z[:, 1]
    mean = np.column_stack([
        7.0 * z1,
        6.0 * z1,
        5.0 * z1**2,
        4.0 * z2,
        3.0 * z2,
        2.0 * np.sin(np.pi / 2.0 * z2),
        1.0 * z1 * z2,
    ])
    eps = stream.generator.standard_normal((n, 7))
    return Dataset(mean + eps)


def gen_multmix_data(n: int, K_true: int = None, seed: Seed = None) -> Dataset:
    """Equal-weight draw from the preset's first K_true classes (all of
    them by default) over three scored variables, as level codes."""
    n = integer(n, "n", 1)
    if K_true is not None:
        K_true = integer(K_true, "K_true", 1)
        if K_true > len(MULTMIX_TABLES):
            raise ParameterError(f"K_true = {K_true} exceeds the {len(MULTMIX_TABLES)} tables")
    tables = MULTMIX_TABLES[:K_true]
    stream = need_seed(seed, "the multmix generator").stream("gen", "multmix")
    z = categorical(stream.generator, np.full(len(tables), 1 / len(tables)), n)
    codes = np.empty((n, len(MULTMIX_LEVEL_SIZES)), dtype=int)
    for j in range(len(MULTMIX_LEVEL_SIZES)):
        for k in range(len(tables)):
            mask = z == k
            if mask.any():
                codes[mask, j] = categorical(stream.substream("v", j, "k", k).generator,
                                             np.asarray(tables[k][j], dtype=float), int(mask.sum()))
    return Dataset(codes, level_sizes=MULTMIX_LEVEL_SIZES)
