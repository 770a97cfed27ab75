"""Uniform model adapters used by the check and study orchestration.

Every adapter exposes the same four-method surface: fit a dataset, draw
replicate datasets shaped like a target part, evaluate the realized
diagnostic at a batch of parameter states, and report its preferred
reduction.  Fits always come back as PosteriorDraws, even when the
"posterior" is a single closed-form or maximum-likelihood state.
"""

from __future__ import annotations

import inspect

import numpy as np

from .core import Dataset
from .errors import ParameterError
from . import linear, mixtures

REDUCTION_AVERAGE = "average"
REDUCTION_MAP = "map"


class GmmModel:
    """Diagonal Gaussian mixture with K components and Dirichlet(1) weights,
    Gibbs-updated."""

    default_reduction = REDUCTION_AVERAGE

    def __init__(self, K, iters=2000, burnin=1000, thin=5):
        self.K = int(K)
        self.chain = mixtures.ChainConfig(iters, burnin, thin)
        self.id = f"gmm-K{self.K}"

    def fit(self, x: Dataset, stream) -> mixtures.PosteriorDraws:
        return mixtures.gmm_gibbs_fit(x, self.K, self.chain.iters,
                                      self.chain.burnin, self.chain.thin, stream)

    def replicate(self, fit, like: Dataset, R: int, stream) -> list:
        return mixtures.gmm_predictive(fit, like.n, R, stream)

    def diagnostic_batch(self, x: Dataset, states, stream) -> np.ndarray:
        return mixtures.gmm_loglik_diagnostic_batch(x, states, stream)


class MultMixModel:
    """Categorical mixture over scored variables with K latent classes."""

    default_reduction = REDUCTION_AVERAGE

    def __init__(self, K, iters=2000, burnin=1000, thin=5):
        self.K = int(K)
        self.chain = mixtures.ChainConfig(iters, burnin, thin)
        self.id = f"multmix-K{self.K}"

    def fit(self, x: Dataset, stream) -> mixtures.PosteriorDraws:
        return mixtures.multmix_gibbs_fit(x, self.K, self.chain.iters,
                                          self.chain.burnin, self.chain.thin, stream)

    def replicate(self, fit, like: Dataset, R: int, stream) -> list:
        return mixtures.multmix_predictive(fit, like.n, R, stream)

    def diagnostic_batch(self, x: Dataset, states, stream) -> np.ndarray:
        return mixtures.multmix_chi2_diagnostic_batch(x, states)


class RegressionModelA:
    """Covariate-free location model with a fixed-variance predictive.

    Replicates are drawn at the fitted rows (the predictive is defined
    there), so `like` only matters for other model families.
    """

    default_reduction = REDUCTION_MAP
    id = "reg-A"

    def fit(self, x: Dataset, stream) -> mixtures.PosteriorDraws:
        post = linear.regression_fit_A(x.values[:, 0], x.covariates)
        return mixtures.PosteriorDraws((post,), self.id)

    def replicate(self, fit, like: Dataset, R: int, stream) -> list:
        post = fit.states[0]
        ys = linear.regression_predictive(post, post.n_in, R, stream)
        return [Dataset(y[:, None], covariates=post.covariates) for y in ys]

    def diagnostic_batch(self, x: Dataset, states, stream) -> np.ndarray:
        return np.array([linear.regression_diagnostic(x.values[:, 0], x.covariates, s)
                         for s in states])


class RegressionModelB:
    """Ordinary-least-squares regression with row-dependent predictive variance."""

    default_reduction = REDUCTION_MAP
    id = "reg-B"

    def fit(self, x: Dataset, stream) -> mixtures.PosteriorDraws:
        if x.covariates is None:
            raise ParameterError("regression with covariates needs a covariate matrix")
        post = linear.regression_fit_B(x.values[:, 0], x.covariates)
        return mixtures.PosteriorDraws((post,), self.id)

    def replicate(self, fit, like: Dataset, R: int, stream) -> list:
        post = fit.states[0]
        ys = linear.regression_predictive(post, post.X_in, R, stream)
        return [Dataset(y[:, None], covariates=post.X_in) for y in ys]

    def diagnostic_batch(self, x: Dataset, states, stream) -> np.ndarray:
        return np.array([linear.regression_diagnostic(x.values[:, 0], x.covariates, s)
                         for s in states])


class PpcaModel:
    """Probabilistic PCA with a K-dimensional latent space, fitted by EM."""

    default_reduction = REDUCTION_MAP

    def __init__(self, K, tol=1e-8, max_iters=1000):
        self.K = int(K)
        self.tol = tol
        self.max_iters = max_iters
        self.id = f"ppca-K{self.K}"

    def fit(self, x: Dataset, stream) -> mixtures.PosteriorDraws:
        params = linear.ppca_em_fit(x, self.K, self.tol, self.max_iters)
        return mixtures.PosteriorDraws((params,), self.id)

    def replicate(self, fit, like: Dataset, R: int, stream) -> list:
        return linear.ppca_predictive(fit.states[0], like.n, R, stream)

    def diagnostic_batch(self, x: Dataset, states, stream) -> np.ndarray:
        return np.array([linear.ppca_reconstruction_diagnostic(x, s) for s in states])


_FAMILIES = {"gmm": GmmModel, "multmix": MultMixModel, "ppca": PpcaModel,
             "regression-A": RegressionModelA, "regression-B": RegressionModelB}


def make_model(family: str, K: int = None, **settings):
    """Build a model adapter from a config-style description.

    The mixture and PPCA families need K and the regression families take
    none.  ``settings`` are the family's own keywords (the chain schedule
    of gmm and multmix, tol and max_iters of ppca); any other is refused.
    """
    cls = _FAMILIES.get(family)
    if cls is None:
        raise ParameterError(f"unknown model family {family!r}")
    takes = inspect.signature(cls).parameters
    if ("K" in takes) != (K is not None):
        raise ParameterError(f"model family {family!r} "
                             f"{'needs' if 'K' in takes else 'takes no'} K")
    unknown = sorted(set(settings) - set(takes))
    if unknown:
        raise ParameterError(f"model family {family!r} takes no setting "
                             + ", ".join(map(repr, unknown)))
    return cls(**settings) if K is None else cls(K, **settings)
