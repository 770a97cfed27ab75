"""Finite mixture models: diagonal Gaussian and categorical (multinomial).

Both are fitted by Gibbs sampling over conjugate full conditionals and expose
the same surface: fit, posterior-predictive replication, and a realized
diagnostic.  The Gaussian mixture has Dirichlet(1) weights, Gibbs-updated with
the rest of the chain, and per-dimension variances; the categorical mixture
has Dirichlet-distributed weights and one probability table per class and
variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, logsumexp

from .core import CATEGORICAL, CONTINUOUS, Dataset
from .errors import DataError, DimensionError, ParameterError, StateError
from .rng import categorical

# Gaussian mixture priors: means Normal(0, 25), variances Inverse-Gamma(1, 1),
# weights a symmetric Dirichlet(1).
GMM_MEAN_VAR = 25.0
GMM_IG_SHAPE = 1.0
GMM_IG_SCALE = 1.0
GMM_ALPHA_PI = 1.0

# Categorical mixture priors: symmetric Dirichlets.
MULTMIX_ALPHA = 2.0
MULTMIX_ALPHA_PI = 2.0


@dataclass(frozen=True)
class ChainConfig:
    """Gibbs chain schedule; retained draws B = (iters - burnin) / thin."""

    iters: int = 2000
    burnin: int = 1000
    thin: int = 5

    def __post_init__(self):
        if not (self.iters > self.burnin >= 0 and self.thin >= 1):
            raise ParameterError("need iters > burnin >= 0 and thin >= 1")


@dataclass(frozen=True)
class GmmState:
    """One Gibbs state: Dirichlet(1) mixing weights, Gibbs-updated, and
    per-component diagonal Gaussians."""

    means: np.ndarray
    variances: np.ndarray
    assignments: np.ndarray
    weights: np.ndarray

    @property
    def K(self):
        return self.means.shape[0]


@dataclass(frozen=True)
class MultMixState:
    """One Gibbs state: class weights and per-class, per-variable tables."""

    weights: np.ndarray
    tables: tuple
    assignments: np.ndarray

    @property
    def K(self):
        return len(self.weights)


class StateBatch(tuple):
    """Retained states scored together.

    A scoring kernel may keep the arrays it stacks from the states in
    ``stacked``, so they are built once and freed with the batch.
    """

    stacked = None


def _stacked(states, build):
    """build(states), kept on a StateBatch so that it is built only once."""
    if not isinstance(states, StateBatch):
        return build(states)
    if states.stacked is None:
        states.stacked = build(states)
    return states.stacked


@dataclass(frozen=True)
class PosteriorDraws:
    """B retained parameter states plus their (log) likelihood bookkeeping."""

    states: tuple
    model_id: str
    loglik: np.ndarray = field(default=None)
    logpost: np.ndarray = field(default=None)
    _batches: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.states) < 1:
            raise ParameterError("need at least one retained draw")

    @property
    def B(self):
        return len(self.states)

    def batch(self, B=None) -> StateBatch:
        """The first B states (all by default), one batch per B kept here."""
        B = self.B if B is None else min(B, self.B)
        if B not in self._batches:
            self._batches[B] = StateBatch(self.states[:B])
        return self._batches[B]

    def map_state(self):
        if self.logpost is None:
            raise StateError("no posterior density recorded for these draws")
        return self.states[int(np.argmax(self.logpost))]


def _require_continuous(x: Dataset):
    if x.kind != CONTINUOUS:
        raise DataError("expected continuous data")


def gmm_full_loglik(x: Dataset, means, variances, weights) -> float:
    """Mixture log-likelihood at the given mixing weights, constants included."""
    comp = -0.5 * (((x.values[:, None, :] - means) ** 2) / variances
                   + np.log(2 * np.pi * variances)).sum(-1)
    return float(logsumexp(comp + np.log(weights), axis=1).sum())


def _gmm_log_prior(means, variances, weights) -> float:
    lp = -0.5 * (means**2 / GMM_MEAN_VAR + np.log(2 * np.pi * GMM_MEAN_VAR)).sum()
    a, b = GMM_IG_SHAPE, GMM_IG_SCALE
    lp += (a * np.log(b) - gammaln(a) - (a + 1) * np.log(variances) - b / variances).sum()
    K, a = len(weights), GMM_ALPHA_PI
    lp += (a - 1) * np.log(weights).sum() + gammaln(K * a) - K * gammaln(a)
    return float(lp)


def _farthest_point_init(data, K):
    """Deterministic spread-out centers so chains on different parts of one
    dataset settle into compatible modes."""
    centers = [data[np.argmax(((data - data.mean(axis=0)) ** 2).sum(1))]]
    for _ in range(K - 1):
        dists = np.min([((data - c) ** 2).sum(1) for c in centers], axis=0)
        centers.append(data[np.argmax(dists)])
    return np.array(centers, dtype=float)


def _kmeans_init(data, K, iters=100):
    """Deterministic Lloyd iterations from farthest-point starting centers.

    Chains fitted to different parts of the same dataset must settle into
    the same posterior mode for cross-part diagnostics to be comparable;
    the deterministic local optimum gives that alignment.
    """
    centers = _farthest_point_init(data, K)
    for _ in range(iters):
        d2 = ((data[:, None, :] - centers[None]) ** 2).sum(-1)
        z = d2.argmin(axis=1)
        new = centers.copy()
        for k in range(K):
            if np.any(z == k):
                new[k] = data[z == k].mean(axis=0)
        if np.allclose(new, centers):
            break
        centers = new
    d2 = ((data[:, None, :] - centers[None]) ** 2).sum(-1)
    z = d2.argmin(axis=1)
    variances = np.tile(np.maximum(data.var(axis=0), 1e-6), (K, 1))
    for k in range(K):
        if (z == k).sum() > 1:
            variances[k] = np.maximum(data[z == k].var(axis=0), 1e-6)
    return centers, variances


def gmm_gibbs_fit(x: Dataset, K: int, iters=2000, burnin=1000, thin=5, stream=None) -> PosteriorDraws:
    """Gibbs chain over assignments, mixing weights, means, and variances.

    Full conditionals are conjugate throughout; components that lose all
    their points are refreshed from the prior, which keeps the chain on the
    correct stationary distribution.
    """
    _require_continuous(x)
    if K < 1:
        raise ParameterError("K must be >= 1")
    ChainConfig(iters, burnin, thin)
    g = stream.generator
    data = x.values
    n, D = data.shape
    means, variances = _kmeans_init(data, K)
    weights = np.full(K, 1.0 / K)
    states, logliks, logposts = [], [], []
    for it in range(iters):
        # assignments: weighted diagonal Gaussian responsibilities
        comp = np.log(weights) - 0.5 * (((data[:, None, :] - means) ** 2) / variances
                                        + np.log(variances)).sum(-1)
        e = np.exp(comp - comp.max(axis=1, keepdims=True))
        cum = np.cumsum(e, axis=1)
        u = g.random(n)
        z = (cum[:, :-1] < (u * cum[:, -1])[:, None]).sum(1)
        counts = np.bincount(z, minlength=K)
        # conjugate Dirichlet update for the mixing weights
        weights = g.dirichlet(GMM_ALPHA_PI + counts)
        sums = np.stack([np.bincount(z, data[:, d], K) for d in range(D)], axis=1)
        # conjugate Normal update for each mean coordinate
        prec = counts[:, None] / variances + 1.0 / GMM_MEAN_VAR
        post_mean = (sums / variances) / prec
        means = post_mean + g.standard_normal((K, D)) / np.sqrt(prec)
        # conjugate Inverse-Gamma update for each variance coordinate
        resid = (data - means[z]) ** 2
        sq = np.stack([np.bincount(z, resid[:, d], K) for d in range(D)], axis=1)
        shape = GMM_IG_SHAPE + counts[:, None] / 2.0
        scale = GMM_IG_SCALE + sq / 2.0
        variances = 1.0 / g.gamma(shape, 1.0 / scale)
        empty = counts == 0
        if empty.any():
            k_empty = int(empty.sum())
            means[empty] = np.sqrt(GMM_MEAN_VAR) * g.standard_normal((k_empty, D))
            variances[empty] = 1.0 / g.gamma(GMM_IG_SHAPE, 1.0 / GMM_IG_SCALE, size=(k_empty, D))
        if it >= burnin and (it - burnin) % thin == 0:
            states.append(GmmState(means.copy(), variances.copy(), z.copy(), weights.copy()))
            ll = gmm_full_loglik(x, means, variances, weights)
            logliks.append(ll)
            logposts.append(ll + _gmm_log_prior(means, variances, weights))
    return PosteriorDraws(tuple(states), f"gmm-K{K}", loglik=np.array(logliks),
                          logpost=np.array(logposts))


def gmm_predictive(draws: PosteriorDraws, n_rep: int, R: int, stream) -> list:
    """R replicate datasets, each generated from one retained posterior state."""
    if R < 1:
        raise ParameterError("R must be >= 1")
    if n_rep < 1:
        raise ParameterError("n_rep must be >= 1")
    reps = []
    for r in range(R):
        sub = stream.substream(r)
        state = draws.states[int(sub.generator.integers(draws.B))]
        comp = categorical(sub, state.weights, n_rep)
        rows = state.means[comp] + np.sqrt(state.variances[comp]) * sub.generator.standard_normal((n_rep, state.means.shape[1]))
        reps.append(Dataset(rows))
    return reps


@dataclass(frozen=True)
class _GmmStack:
    """Arrays of B mixture states stacked for scoring, components first."""

    means: np.ndarray          # D x K x B
    half_prec: np.ndarray      # D x K x B, 1 / (2 variance)
    offset: np.ndarray         # K x B, log weight - log det / 2
    log_weights: np.ndarray    # K x B

    @classmethod
    def of(cls, states):
        means = np.stack([s.means for s in states])        # B x K x D
        variances = np.stack([s.variances for s in states])
        weights = np.stack([s.weights for s in states])    # B x K
        # checked before any reciprocal or log, so a bad state warns nothing
        if not np.all(variances > 0):
            raise StateError("non-positive variance in a mixture state")
        if weights.shape != means.shape[:2] or not np.all(weights > 0):
            raise StateError("mixing weights must be positive, one per component")
        log_weights = np.log(weights).T
        offset = log_weights - 0.5 * np.log(variances).sum(-1).T
        return cls(np.ascontiguousarray(means.transpose(2, 1, 0)),
                   np.ascontiguousarray((0.5 / variances).transpose(2, 1, 0)),
                   np.ascontiguousarray(offset), np.ascontiguousarray(log_weights))


def gmm_loglik_diagnostic_batch(x: Dataset, states, stream) -> np.ndarray:
    """Log-likelihood diagnostic of x at each state, one fresh label draw each.

    For every state a class label is drawn per row from its responsibility,
    which includes the state's mixing weights, and the diagnostic is the
    Mahalanobis term plus log-determinant penalty summed over rows at those
    labels.  The stacked state arrays are kept on a StateBatch (see
    PosteriorDraws.batch) and rebuilt for any other sequence of states.
    """
    _require_continuous(x)
    stack = _stacked(states, _GmmStack.of)
    D, K, B = stack.means.shape
    if D != x.d:
        raise DimensionError("state dimension does not match data")
    n = x.n
    # log w_k - (Mahalanobis + log det) / 2, one data dimension at a time
    logits = np.empty((K, n, B))
    for k in range(K):
        lk = logits[k]
        lk[...] = stack.offset[k]
        for d in range(D):
            sq = x.values[:, d, None] - stack.means[d, k]
            sq *= sq
            sq *= stack.half_prec[d, k]
            lk -= sq
    e = logits - logits.max(axis=0)
    np.exp(e, out=e)
    # inverse-CDF label draw on the unnormalized responsibilities
    threshold = stream.generator.random((n, B)) * e.sum(axis=0)
    labels = np.zeros((n, B), dtype=np.intp)
    cum = e[0].copy()
    for k in range(1, K):
        labels += cum < threshold
        cum += e[k]
    picked = np.take_along_axis(logits, labels[None], axis=0)[0]
    picked -= stack.log_weights[labels, np.arange(B)]
    return picked.sum(axis=0)


def _require_onehot(x: Dataset):
    if x.kind != CATEGORICAL:
        raise DataError("expected one-hot categorical data")


def multmix_full_loglik(x: Dataset, state: MultMixState) -> float:
    codes = x.codes()
    logp = np.log(state.weights)[None, :]
    for j, table in enumerate(state.tables):
        with np.errstate(divide="ignore"):
            logp = logp + np.log(table[:, codes[:, j]]).T
    return float(logsumexp(logp, axis=1).sum())


def _multmix_log_prior(state: MultMixState) -> float:
    def dirichlet_logpdf(p, alpha):
        a = np.full(len(p), alpha)
        return float(((a - 1) * np.log(p)).sum() + gammaln(a.sum()) - gammaln(a).sum())

    lp = dirichlet_logpdf(state.weights, MULTMIX_ALPHA_PI)
    for table in state.tables:
        for row in table:
            lp += dirichlet_logpdf(row, MULTMIX_ALPHA)
    return lp


def multmix_gibbs_fit(x: Dataset, K: int, iters=2000, burnin=1000, thin=5, stream=None) -> PosteriorDraws:
    """Gibbs chain over class labels, weights, and per-class tables."""
    _require_onehot(x)
    if K < 1:
        raise ParameterError("K must be >= 1")
    ChainConfig(iters, burnin, thin)
    g = stream.generator
    codes = x.codes()
    n = x.n
    level_sizes = x.level_sizes
    weights = g.dirichlet(np.full(K, MULTMIX_ALPHA_PI))
    tables = [g.dirichlet(np.full(L, MULTMIX_ALPHA), size=K) for L in level_sizes]
    states, logliks, logposts = [], [], []
    J = len(level_sizes)
    for it in range(iters):
        logp = np.log(weights)[None, :]
        for j in range(J):
            logp = logp + np.log(tables[j][:, codes[:, j]]).T
        probs = np.exp(logp - logsumexp(logp, axis=1, keepdims=True))
        u = g.random(n)
        z = np.minimum((np.cumsum(probs, axis=1)[:, :-1] < u[:, None]).sum(1), K - 1)
        counts = np.bincount(z, minlength=K)
        weights = g.dirichlet(MULTMIX_ALPHA_PI + counts)
        for j, L in enumerate(level_sizes):
            cell = np.zeros((K, L))
            np.add.at(cell, (z, codes[:, j]), 1.0)
            # Dirichlet rows via normalized Gamma draws, all classes at once
            gam = g.gamma(MULTMIX_ALPHA + cell)
            tables[j] = gam / gam.sum(axis=1, keepdims=True)
        if it >= burnin and (it - burnin) % thin == 0:
            state = MultMixState(weights.copy(), tuple(t.copy() for t in tables), z.copy())
            states.append(state)
            ll = multmix_full_loglik(x, state)
            logliks.append(ll)
            logposts.append(ll + _multmix_log_prior(state))
    return PosteriorDraws(tuple(states), f"multmix-K{K}", loglik=np.array(logliks),
                          logpost=np.array(logposts))


def multmix_predictive(draws: PosteriorDraws, n_rep: int, R: int, stream) -> list:
    """R one-hot replicate datasets from retained posterior states."""
    if R < 1:
        raise ParameterError("R must be >= 1")
    if n_rep < 1:
        raise ParameterError("n_rep must be >= 1")
    reps = []
    for r in range(R):
        sub = stream.substream(r)
        state = draws.states[int(sub.generator.integers(draws.B))]
        z = categorical(sub, state.weights, n_rep)
        level_sizes = tuple(t.shape[1] for t in state.tables)
        codes = np.empty((n_rep, len(level_sizes)), dtype=int)
        for j, table in enumerate(state.tables):
            cum = np.cumsum(table, axis=1)[z]
            codes[:, j] = np.minimum((cum[:, :-1] < sub.generator.random(n_rep)[:, None]).sum(1),
                                     table.shape[1] - 1)
        reps.append(Dataset.from_codes(codes, level_sizes))
    return reps


def multmix_chi2_diagnostic_batch(x: Dataset, states) -> np.ndarray:
    """Deviance-style discrepancy of x at each state.

    Predicted cell probabilities mix the class tables by each row's posterior
    class responsibility; the statistic is twice the summed log shortfall at
    the observed cells.  A zero predicted probability at an observed cell
    yields an infinite value.
    """
    _require_onehot(x)
    codes = x.codes()
    J = codes.shape[1]
    weights = np.stack([s.weights for s in states])    # B x K
    logp = np.log(weights)[None, :, :]                 # n x B x K
    with np.errstate(divide="ignore"):
        for j in range(J):
            table = np.stack([s.tables[j] for s in states])   # B x K x L
            logp = logp + np.transpose(np.log(table[:, :, codes[:, j]]), (2, 0, 1))
    with np.errstate(invalid="ignore"):
        # rows with zero likelihood under every class get uniform weight
        gap = logp - logsumexp(logp, axis=2, keepdims=True)
    resp = np.where(np.isnan(gap), 1.0 / logp.shape[2], np.exp(gap))
    d = np.zeros(len(states))
    for j in range(J):
        table = np.stack([s.tables[j] for s in states])
        pred = np.einsum("nbk,bkl->nbl", resp, table)
        obs = np.take_along_axis(pred, codes[:, j][:, None, None], axis=2)[:, :, 0]
        with np.errstate(divide="ignore"):
            d += 2.0 * np.where(obs > 0, -np.log(np.maximum(obs, 1e-300)), np.inf).sum(0)
    return d
