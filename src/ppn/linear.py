"""Conjugate regression pair and probabilistic PCA.

The regression pair contrasts a covariate-free location model (A) against an
ordinary-least-squares regression (B); both have closed-form posterior
predictives.  Probabilistic PCA is fitted to its maximum-likelihood state
in closed form and replicates through its linear-Gaussian generative process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CONTINUOUS, Dataset, ReplicateBlock
from .errors import (DataError, DimensionError, ParameterError,
                     SingularityError, StateError, integer)

REGRESSION_PRED_VAR = 2.0
PPCA_SIGMA2_FLOOR = 1e-12


@dataclass(frozen=True)
class RegressionPosteriorA:
    """Location-only predictive: Normal(mean of fitted responses, fixed var),
    the same at every row; X_in holds the fitted rows' covariates, if any."""

    y_bar: float
    n_in: int
    X_in: np.ndarray = None

    def predictive_mean(self, covariates) -> float:
        return self.y_bar

    def predictive_var(self, covariates) -> float:
        return REGRESSION_PRED_VAR


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
    X_in: np.ndarray

    def predictive_mean(self, covariates) -> np.ndarray:
        return self.intercept + np.asarray(covariates, dtype=float) @ self.coef

    def predictive_var(self, covariates) -> np.ndarray:
        centered = np.asarray(covariates, dtype=float) - self.x_mean
        return REGRESSION_PRED_VAR + np.einsum("ij,jk,ik->i", centered, self.gram_inv, centered)


def regression_fit_A(y_in, X_in=None) -> RegressionPosteriorA:
    """Store the response mean; the predictive is Normal(mean, fixed var)."""
    y_in = np.asarray(y_in, dtype=float).ravel()
    if y_in.size < 1:
        raise ParameterError("need at least one response")
    return RegressionPosteriorA(float(y_in.mean()), y_in.size, X_in)


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


def regression_predictive(posterior, R: int, stream) -> ReplicateBlock:
    """R replicate response vectors at the fitted rows, from the stored
    predictive Normals, as one R x n_in x 1 block carrying the fitted rows'
    covariates; replicate r draws from stream.substream(r)."""
    R = integer(R, "R", 1)
    mean = posterior.predictive_mean(posterior.X_in)
    sd = np.sqrt(posterior.predictive_var(posterior.X_in))
    values = np.empty((R, posterior.n_in))
    for rep, g in zip(values, stream.substream_generators(R)):
        g.standard_normal(out=rep)
    # mean + sd * z for every replicate at once, with the same roundings
    values *= sd
    values += mean
    return ReplicateBlock(values[:, :, None], posterior.X_in)


def regression_diagnostic(y, covariates, fitted_on_val):
    """Sum of squared deviations from the validation predictive mean: of a
    response vector, or of each row of an R x n array of them."""
    y = np.asarray(y, dtype=float)
    mean = fitted_on_val.predictive_mean(covariates)
    if np.ndim(mean) and mean.shape != y.shape[-1:]:
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
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0):
            raise StateError("noise variance must be positive and finite")
        if np.ndim(self.W) != 2 or not np.all(np.isfinite(self.W)):
            raise StateError("loading matrix must be a finite 2-d array")
        if np.shape(self.mean) != (self.G,) or not np.all(np.isfinite(self.mean)):
            raise StateError(f"mean must be {self.G} finite values")

    @property
    def G(self):
        return self.W.shape[0]

    @property
    def K(self):
        return self.W.shape[1]


def ppca_ml_fit(x: Dataset, K: int) -> PpcaParams:
    """Probabilistic PCA's maximum-likelihood state, in closed form.

    From one eigendecomposition of the sample covariance S (Tipping & Bishop
    1999, JRSSB 61:611, eqs. 7-8): sigma2 is the mean of the G - K smallest
    eigenvalues, floored at PPCA_SIGMA2_FLOOR, and W = U_K (Lambda_K -
    sigma2 I)^(1/2) from the K leading eigenpairs.  On data of rank K sigma2
    sits at the floor and WW' + sigma2 I equals S.
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
    eigval, eigvec = np.linalg.eigh(centered.T @ centered / n)      # ascending
    sigma2 = max(float(eigval[:-K].mean()), PPCA_SIGMA2_FLOOR)
    W = eigvec[:, :-K - 1:-1] * np.sqrt(np.maximum(eigval[:-K - 1:-1] - sigma2, 0.0))
    return PpcaParams(W, sigma2, mean)


# perfbench's tracer probes linear.ppca_em_fit by name; the alias keeps its
# traced runs working and their PPCA fits counted under linear.fit.  Drop it
# once that probe names ppca_ml_fit.
ppca_em_fit = ppca_ml_fit


def ppca_predictive(params: PpcaParams, n_rep: int, R: int, stream) -> ReplicateBlock:
    """R replicate datasets from the linear-Gaussian generative process, as
    one block; replicate r draws from stream.substream(r)."""
    R, n_rep = integer(R, "R", 1), integer(n_rep, "n_rep", 1)
    block = np.empty((R, n_rep, params.G))
    z, shift = np.empty((n_rep, params.K)), np.empty((n_rep, params.G))
    noise_sd = np.sqrt(params.sigma2)
    for rep, g in zip(block, stream.substream_generators(R)):
        g.standard_normal(out=z)
        g.standard_normal(out=rep)
        # mean + z W' + sd * eps, with the same roundings, in place
        np.matmul(z, params.W.T, out=shift)
        shift += params.mean
        rep *= noise_sd
        rep += shift
    return ReplicateBlock(block)


def ppca_reconstruction_diagnostic(x, params: PpcaParams):
    """Summed squared error of the posterior-mean latent reconstruction, one
    value per n x G replicate of x.values."""
    if x.d != params.G:
        raise DimensionError("data dimension does not match the fitted loading")
    centered = x.values - params.mean
    M = params.W.T @ params.W + params.sigma2 * np.eye(params.K)
    # a stacked matmul multiplies each replicate's n x G matrix on its own
    centered -= centered @ params.W @ np.linalg.solve(M, params.W.T)
    centered *= centered
    # each replicate is one contiguous 1-d sum, as it would be on its own
    return centered.reshape(centered.shape[:-2] + (-1,)).sum(axis=-1)
