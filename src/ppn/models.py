"""Uniform model adapters used by the check and study orchestration.

Every adapter exposes the same surface: ``fit`` a dataset to
PosteriorDraws (even when the "posterior" is a single closed-form or
maximum-likelihood state), ``replicate`` R datasets shaped like a target
part as one ReplicateBlock, and ``diagnostic_batch`` of a ReplicateBlock
of R replicates at B parameter states, R x B values.  A diagnostic is a
function of the data and the state alone: an adapter's randomness belongs
in ``replicate``.  Each adapter also owns its predictive check, so its
``reduction`` says how that diagnostic is reduced over the x_val
posterior: averaged over the draws, or taken at the MAP state.  The
mixtures take either; the regression and PPCA adapters fit one state and
score at it.
"""

from __future__ import annotations

import inspect

import numpy as np

from .core import Dataset, PosteriorDraws, ReplicateBlock
from .errors import DataError, DimensionError, ParameterError, integer
from . import linear, mixtures

REDUCTION_AVERAGE = "average"
REDUCTION_MAP = "map"


def _reduction(value):
    if not (isinstance(value, str) and value in (REDUCTION_AVERAGE, REDUCTION_MAP)):
        raise ParameterError(f"unknown reduction {value!r}")
    return value


class GmmModel:
    """Diagonal Gaussian mixture with K components and Dirichlet(1) weights,
    Gibbs-updated."""

    def __init__(self, K, iters=2000, burnin=1000, thin=5, reduction=REDUCTION_AVERAGE):
        self.K = integer(K, "K", 1)
        self.chain = mixtures.ChainConfig(iters, burnin, thin)
        self.reduction = _reduction(reduction)
        self.id = f"gmm-K{self.K}"

    def fit(self, x: Dataset, stream) -> PosteriorDraws:
        return mixtures.gmm_gibbs_fit(x, self.K, self.chain.iters,
                                      self.chain.burnin, self.chain.thin, stream)

    def replicate(self, fit, like: Dataset, R: int, stream) -> ReplicateBlock:
        return mixtures.gmm_predictive(fit, like.n, R, stream)

    def diagnostic_batch(self, x: ReplicateBlock, states) -> np.ndarray:
        return mixtures.gmm_loglik_diagnostic_batch(x, states)


class MultMixModel:
    """Categorical mixture over scored variables with K latent classes."""

    def __init__(self, K, iters=2000, burnin=1000, thin=5, reduction=REDUCTION_AVERAGE):
        self.K = integer(K, "K", 1)
        self.chain = mixtures.ChainConfig(iters, burnin, thin)
        self.reduction = _reduction(reduction)
        self.id = f"multmix-K{self.K}"

    def fit(self, x: Dataset, stream) -> PosteriorDraws:
        return mixtures.multmix_gibbs_fit(x, self.K, self.chain.iters,
                                          self.chain.burnin, self.chain.thin, stream)

    def replicate(self, fit, like: Dataset, R: int, stream) -> ReplicateBlock:
        return mixtures.multmix_predictive(fit, like.n, R, stream)

    def diagnostic_batch(self, x: ReplicateBlock, states) -> np.ndarray:
        return mixtures.multmix_chi2_diagnostic_batch(x, states)


class _OneStateModel:
    """An adapter whose fit is one state.

    Its ``_score(block, state)`` gives one value per replicate of a
    ReplicateBlock.  Each adapter class calls ``_at_states`` from its own
    diagnostic_batch, so that every adapter class still defines the whole
    adapter surface itself.  Its diagnostic is taken at its one state, so
    its reduction is fixed at ``map``.
    """

    reduction = REDUCTION_MAP

    def _at_states(self, x, states) -> np.ndarray:
        """R x B values for the R replicates of x, scored a block of
        replicates at a time."""
        vals = np.empty((len(x), len(states)))
        for start, block in x.blocks():
            for b, state in enumerate(states):
                vals[start:start + len(block), b] = self._score(block, state)
        return vals


def _responses(x):
    """The response column of x (a Dataset or a ReplicateBlock)."""
    if x.level_sizes is not None:
        raise DataError("regression models expect continuous responses, not level codes")
    if x.d != 1:
        raise DimensionError(f"regression models expect one response column, not {x.d}")
    return x.values[..., 0]


def _covariates(x):
    if x.covariates is None:
        raise ParameterError("regression with covariates needs a covariate matrix")
    return x.covariates


class RegressionModelA(_OneStateModel):
    """Covariate-free location model with a fixed-variance predictive.

    Replicates are drawn at the fitted rows (the predictive is defined
    there), so `like` only matters for other model families.
    """

    id = "reg-A"

    def fit(self, x: Dataset, stream) -> PosteriorDraws:
        post = linear.regression_fit_A(_responses(x), x.covariates)
        return PosteriorDraws((post,), self.id)

    def replicate(self, fit, like: Dataset, R: int, stream) -> ReplicateBlock:
        return linear.regression_predictive(fit.states[0], R, stream)

    def diagnostic_batch(self, x: ReplicateBlock, states) -> np.ndarray:
        return self._at_states(x, states)

    def _score(self, block, state):
        return linear.regression_diagnostic(_responses(block), None, state)


class RegressionModelB(_OneStateModel):
    """Ordinary-least-squares regression with row-dependent predictive variance."""

    id = "reg-B"

    def fit(self, x: Dataset, stream) -> PosteriorDraws:
        post = linear.regression_fit_B(_responses(x), _covariates(x))
        return PosteriorDraws((post,), self.id)

    def replicate(self, fit, like: Dataset, R: int, stream) -> ReplicateBlock:
        return linear.regression_predictive(fit.states[0], R, stream)

    def diagnostic_batch(self, x: ReplicateBlock, states) -> np.ndarray:
        return self._at_states(x, states)

    def _score(self, block, state):
        y, covariates = _responses(block), _covariates(block)
        if covariates.shape[1] != state.coef.size:
            raise DimensionError(f"{covariates.shape[1]} covariate columns for "
                                 f"{state.coef.size} coefficients")
        return linear.regression_diagnostic(y, covariates, state)


class PpcaModel(_OneStateModel):
    """Probabilistic PCA with a K-dimensional latent space, at its closed-form
    maximum-likelihood state."""

    def __init__(self, K):
        self.K = integer(K, "K", 1)
        self.id = f"ppca-K{self.K}"

    def fit(self, x: Dataset, stream) -> PosteriorDraws:
        params = linear.ppca_ml_fit(x, self.K)
        return PosteriorDraws((params,), self.id)

    def replicate(self, fit, like: Dataset, R: int, stream) -> ReplicateBlock:
        return linear.ppca_predictive(fit.states[0], like.n, R, stream)

    def diagnostic_batch(self, x: ReplicateBlock, states) -> np.ndarray:
        return self._at_states(x, states)

    def _score(self, block, state):
        return linear.ppca_reconstruction_diagnostic(block, state)


_FAMILIES = {"gmm": GmmModel, "multmix": MultMixModel, "ppca": PpcaModel,
             "regression-A": RegressionModelA, "regression-B": RegressionModelB}


def make_model(family: str, K: int = None, **settings):
    """Build a model adapter from a config-style description.

    The mixture and PPCA families need K and the regression families take
    none.  ``settings`` are the family's own keywords, the reduction and
    chain schedule of gmm and multmix; any other is refused.
    """
    cls = _FAMILIES.get(family) if isinstance(family, str) else None
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
