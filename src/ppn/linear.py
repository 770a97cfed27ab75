"""Conjugate regression pair and probabilistic PCA.

The regression pair contrasts a covariate-free location model (A) against an
ordinary-least-squares regression (B); both have closed-form posterior
predictives.  Probabilistic PCA is fitted by EM to its maximum-likelihood
solution and replicates through its linear-Gaussian generative process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CONTINUOUS, Dataset, ReplicateBlock
from .errors import (DataError, DimensionError, ParameterError,
                     SingularityError, StateError, integer)

REGRESSION_PRED_VAR = 2.0


@dataclass(frozen=True)
class RegressionPosteriorA:
    """Location-only predictive: Normal(mean of fitted responses, fixed var)."""

    y_bar: float
    n_in: int
    covariates: np.ndarray = None


@dataclass(frozen=True)
class RegressionPosteriorB:
    """OLS predictive: Normal(intercept + x'beta, fixed var + x'(X'X)^{-1}x).

    The coefficient solve is the intercept-included least squares, i.e. the
    Gram matrix is that of the mean-centered covariates; this is the form
    under which the intercept formula ybar - xbar'beta is the exact solution
    and beta is invariant to constant shifts of the response.
    """

    intercept: float
    coef: np.ndarray
    gram_inv: np.ndarray
    x_mean: np.ndarray
    n_in: int
    X_in: np.ndarray = None

    def predictive_mean(self, covariates) -> np.ndarray:
        return self.intercept + np.asarray(covariates, dtype=float) @ self.coef

    def predictive_var(self, covariates) -> np.ndarray:
        centered = np.asarray(covariates, dtype=float) - self.x_mean
        return REGRESSION_PRED_VAR + np.einsum("ij,jk,ik->i", centered, self.gram_inv, centered)


def regression_fit_A(y_in, covariates=None) -> RegressionPosteriorA:
    """Store the response mean; the predictive is Normal(mean, fixed var)."""
    y_in = np.asarray(y_in, dtype=float).ravel()
    if y_in.size < 1:
        raise ParameterError("need at least one response")
    return RegressionPosteriorA(float(y_in.mean()), y_in.size, covariates)


def regression_fit_B(y_in, X_in) -> RegressionPosteriorB:
    """Ordinary least squares with a centered intercept."""
    y_in = np.asarray(y_in, dtype=float).ravel()
    X_in = np.atleast_2d(np.asarray(X_in, dtype=float))
    n, p = X_in.shape
    if y_in.size != n:
        raise DimensionError("response and covariate row counts differ")
    if n <= p:
        raise ParameterError("need more rows than covariates")
    x_mean = X_in.mean(axis=0)
    centered = X_in - x_mean
    gram = centered.T @ centered
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularityError("covariate Gram matrix is numerically singular")
    gram_inv = np.linalg.inv(gram)
    coef = gram_inv @ (centered.T @ y_in)
    intercept = float(y_in.mean() - x_mean @ coef)
    return RegressionPosteriorB(intercept, coef, gram_inv, x_mean, n, X_in)


def regression_predictive(posterior, covariates, R: int, stream) -> np.ndarray:
    """R replicate response vectors, the rows of an R x n array, from the
    stored predictive Normals; replicate r draws from stream.substream(r)."""
    R = integer(R, "R", 1)
    if isinstance(posterior, RegressionPosteriorA):
        n_rep = covariates if np.isscalar(covariates) else len(covariates)
        mean = np.full(n_rep, posterior.y_bar)
        sd = np.sqrt(REGRESSION_PRED_VAR)
    elif isinstance(posterior, RegressionPosteriorB):
        mean = posterior.predictive_mean(covariates)
        sd = np.sqrt(posterior.predictive_var(covariates))
        n_rep = mean.size
    else:
        raise ParameterError("unknown regression posterior kind")
    reps = np.empty((R, n_rep))
    for rep, g in zip(reps, stream.substream_generators(R)):
        rep[:] = mean + sd * g.standard_normal(n_rep)
    return reps


def regression_diagnostic(y, covariates, fitted_on_val):
    """Sum of squared deviations from the validation predictive mean: of a
    response vector, or of each row of an R x n array of them."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        y = y.ravel()
    if isinstance(fitted_on_val, RegressionPosteriorA):
        mean = np.full(y.shape[-1], fitted_on_val.y_bar)
    elif isinstance(fitted_on_val, RegressionPosteriorB):
        mean = fitted_on_val.predictive_mean(covariates)
    else:
        raise ParameterError("unknown regression posterior kind")
    if mean.shape != y.shape[-1:]:
        raise DimensionError("response and predictive mean lengths differ")
    resid = y - mean
    resid *= resid
    # each row is one contiguous 1-d sum, as it would be on its own
    return resid.sum(axis=-1)


@dataclass(frozen=True)
class PpcaParams:
    """Maximum-likelihood factor loading, noise variance, and data mean."""

    W: np.ndarray
    sigma2: float
    mean: np.ndarray

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise StateError("noise variance must be positive")
        if not np.all(np.isfinite(self.W)):
            raise StateError("loading matrix must be finite")

    @property
    def G(self):
        return self.W.shape[0]

    @property
    def K(self):
        return self.W.shape[1]


def _ppca_loglik(S, W, sigma2, n, G):
    C = W @ W.T + sigma2 * np.eye(G)
    sign, logdet = np.linalg.slogdet(C)
    if sign <= 0:
        return -np.inf
    return -0.5 * n * (G * np.log(2 * np.pi) + logdet + np.trace(np.linalg.solve(C, S)))


def ppca_em_fit(x: Dataset, K: int, tol: float = 1e-8, max_iters: int = 1000) -> PpcaParams:
    """EM for probabilistic PCA on centered data.

    Runs until the relative log-likelihood change drops below tol, returning
    the maximum-likelihood loading matrix and isotropic noise variance.
    """
    if x.kind != CONTINUOUS:
        raise DataError("factor models expect continuous data")
    data = x.values
    n, G = data.shape
    if K < 1 or K >= G:
        raise DimensionError("need 1 <= K < data dimension")
    if n <= K:
        raise ParameterError("need more rows than latent dimensions")
    mean = data.mean(axis=0)
    centered = data - mean
    S = centered.T @ centered / n
    # deterministic, data-derived initialization
    W = S[:, :K] + 1e-3 * np.eye(G)[:, :K]
    sigma2 = float(np.trace(S)) / G
    prev = -np.inf
    for _ in range(max_iters):
        M = W.T @ W + sigma2 * np.eye(K)
        M_inv = np.linalg.inv(M)
        SW = S @ W
        # E-step sufficient statistics folded into the closed-form M-step
        W_new = SW @ np.linalg.inv(sigma2 * np.eye(K) + M_inv @ W.T @ SW)
        sigma2_new = float(np.trace(S - SW @ M_inv @ W_new.T)) / G
        sigma2_new = max(sigma2_new, 1e-12)
        W, sigma2 = W_new, sigma2_new
        ll = _ppca_loglik(S, W, sigma2, n, G)
        if np.isfinite(prev) and abs(ll - prev) <= tol * abs(prev):
            break
        prev = ll
    return PpcaParams(W, sigma2, mean)


def ppca_predictive(params: PpcaParams, n_rep: int, R: int, stream) -> ReplicateBlock:
    """R replicate datasets from the linear-Gaussian generative process, as
    one block; replicate r draws from stream.substream(r)."""
    R, n_rep = integer(R, "R", 1), integer(n_rep, "n_rep", 1)
    block = np.empty((R, n_rep, params.G))
    for rep, g in zip(block, stream.substream_generators(R)):
        z = g.standard_normal((n_rep, params.K))
        eps = np.sqrt(params.sigma2) * g.standard_normal((n_rep, params.G))
        rep[:] = params.mean + z @ params.W.T + eps
    return ReplicateBlock(block)


def ppca_reconstruction_diagnostic(x, params: PpcaParams):
    """Summed squared error of the posterior-mean latent reconstruction: of a
    Dataset, or of each replicate of a ReplicateBlock."""
    if x.d != params.G:
        raise DimensionError("data dimension does not match the fitted loading")
    centered = x.values - params.mean
    M = params.W.T @ params.W + params.sigma2 * np.eye(params.K)
    # a stacked matmul multiplies each replicate's n x G matrix on its own
    centered -= centered @ params.W @ np.linalg.solve(M, params.W.T)
    centered *= centered
    # each replicate is one contiguous 1-d sum, as it would be on its own
    return centered.reshape(centered.shape[:-2] + (-1,)).sum(axis=-1)
