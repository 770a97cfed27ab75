"""Finite mixture models: diagonal Gaussian and categorical (multinomial).

Both are fitted by Gibbs sampling over conjugate full conditionals and expose
the same surface: fit, posterior-predictive replication, and a realized
diagnostic.  The Gaussian mixture has Dirichlet(1) weights, Gibbs-updated with
the rest of the chain, and per-dimension variances; the categorical mixture
has Dirichlet-distributed weights and one probability table per class and
variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (BLOCK_CELLS, CATEGORICAL, CONTINUOUS, Dataset, PosteriorDraws,
                   ReplicateBlock, StateBatch)
from .errors import DataError, DimensionError, ParameterError, StateError, integer
from .rng import categorical, logsumexp

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
        for name, low in (("iters", 1), ("burnin", 0), ("thin", 1)):
            object.__setattr__(self, name, integer(getattr(self, name), name, low))
        if self.iters <= self.burnin:
            raise ParameterError("need iters > burnin")


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


def _stacked(states, build):
    """build(states), kept on a StateBatch so that it is built only once."""
    if not isinstance(states, StateBatch):
        return build(states)
    if states.stacked is None:
        states.stacked = build(states)
    return states.stacked


def _require_continuous(x: Dataset):
    if x.kind != CONTINUOUS:
        raise DataError("expected continuous data")


def _component_sums(columns, means, variances, log_terms):
    """Sum over d of (x_d - mean)^2 / variance + log_term, K x n.

    Built data dimension first (D x K x n, from columns D x 1 x n), so that
    every step runs along the rows, and summed over D in the order numpy
    sums the last axis of an n x K x D array: one value after another below
    eight values, in pairwise blocks from eight on.
    """
    terms = columns - means.T[:, :, None]
    terms *= terms
    terms /= variances.T[:, :, None]
    terms += log_terms.T[:, :, None]
    if len(terms) >= 8:
        return np.ascontiguousarray(np.moveaxis(terms, 0, -1)).sum(-1)
    total = terms[0]
    for t in terms[1:]:
        total += t
    return total


def _state_blocks(states, cells_per_state):
    """Consecutive runs of states whose cells_per_state arrays fill at most
    BLOCK_CELLS cells together (at least one state per run)."""
    size = max(1, BLOCK_CELLS // cells_per_state)
    return [states[i:i + size] for i in range(0, len(states), size)]


def _loglik_rows(logp):
    """The log-likelihood of each state's B x n x K component log terms:
    one 1-d sum per state, whose pairwise order a 2-d reduction need not
    keep."""
    return [row.sum() for row in logsumexp(logp, axis=2)]


def gmm_full_loglik(x: Dataset, states) -> np.ndarray:
    """Mixture log-likelihood of x at each state, constants included.

    States are taken a block at a time, so logsumexp's temporaries stay
    small; each state's value does not depend on the others'.
    """
    columns = np.ascontiguousarray(x.values.T)[:, None, :]    # D x 1 x n
    loglik = []
    for block in _state_blocks(states, x.n * states[0].K):
        logp = np.empty((len(block), x.n, states[0].K))
        for out, s in zip(logp, block):
            comp = _component_sums(columns, s.means, s.variances, np.log(2 * np.pi * s.variances))
            comp *= -0.5
            np.add(comp.T, np.log(s.weights), out=out)
        loglik += _loglik_rows(logp)
    return np.array(loglik)


def _gmm_log_prior(means, variances, weights) -> float:
    lp = -0.5 * (means**2 / GMM_MEAN_VAR + np.log(2 * np.pi * GMM_MEAN_VAR)).sum()
    a, b = GMM_IG_SHAPE, GMM_IG_SCALE
    lp += (a * np.log(b) - math.lgamma(a) - (a + 1) * np.log(variances) - b / variances).sum()
    K, a = len(weights), GMM_ALPHA_PI
    lp += (a - 1) * np.log(weights).sum() + math.lgamma(K * a) - K * math.lgamma(a)
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
    K = integer(K, "K", 1)
    ChainConfig(iters, burnin, thin)
    g = stream.generator
    data = x.values
    n, D = data.shape
    columns = np.ascontiguousarray(data.T)[:, None, :]    # D x 1 x n
    dims = np.arange(D)
    means, variances = _kmeans_init(data, K)
    weights = np.full(K, 1.0 / K)
    states = []
    for it in range(iters):
        # assignments: weighted diagonal Gaussian responsibilities, K x n
        comp = _component_sums(columns, means, variances, np.log(variances))
        comp *= 0.5
        np.subtract(np.log(weights)[:, None], comp, out=comp)
        comp -= comp.max(axis=0)
        # inverse-CDF label draw on the unnormalized responsibilities
        cum = np.exp(comp, out=comp)
        for k in range(1, K):
            cum[k] += cum[k - 1]
        u = g.random(n)
        z = (cum[:-1] < u * cum[-1]).sum(0)
        counts = np.bincount(z, minlength=K)
        # conjugate Dirichlet update for the mixing weights
        weights = g.dirichlet(GMM_ALPHA_PI + counts)
        # per component and dimension, rows summed in order: bin z * D + d
        bins = (z[:, None] * D + dims).ravel()
        sums = np.bincount(bins, data.ravel(), K * D).reshape(K, D)
        # conjugate Normal update for each mean coordinate
        prec = counts[:, None] / variances + 1.0 / GMM_MEAN_VAR
        post_mean = (sums / variances) / prec
        means = post_mean + g.standard_normal((K, D)) / np.sqrt(prec)
        # conjugate Inverse-Gamma update for each variance coordinate
        resid = (data - means[z]) ** 2
        sq = np.bincount(bins, resid.ravel(), K * D).reshape(K, D)
        shape = GMM_IG_SHAPE + counts[:, None] / 2.0
        scale = GMM_IG_SCALE + sq / 2.0
        variances = 1.0 / g.gamma(shape, 1.0 / scale)
        empty = counts == 0
        if empty.any():
            k_empty = int(empty.sum())
            means[empty] = np.sqrt(GMM_MEAN_VAR) * g.standard_normal((k_empty, D))
            variances[empty] = 1.0 / g.gamma(GMM_IG_SHAPE, 1.0 / GMM_IG_SCALE, size=(k_empty, D))
        if it >= burnin and (it - burnin) % thin == 0:
            # every array here is rebuilt, not updated, by the next sweep
            states.append(GmmState(means, variances, z, weights))
    loglik = gmm_full_loglik(x, states)
    logpost = loglik + np.array([_gmm_log_prior(s.means, s.variances, s.weights) for s in states])
    return PosteriorDraws(states, f"gmm-K{K}", loglik=loglik, logpost=logpost)


def gmm_predictive(draws: PosteriorDraws, n_rep: int, R: int, stream) -> ReplicateBlock:
    """R replicate datasets, each generated from one retained posterior state,
    as one block; replicate r draws from stream.substream(r)."""
    R, n_rep = integer(R, "R", 1), integer(n_rep, "n_rep", 1)
    block = np.empty((R, n_rep, draws.states[0].means.shape[1]))
    for rep, g in zip(block, stream.substream_generators(R)):
        state = draws.states[int(g.integers(draws.B))]
        comp = categorical(g, state.weights, n_rep)
        rep[:] = state.means[comp] + np.sqrt(state.variances[comp]) * g.standard_normal(rep.shape)
    return ReplicateBlock(block)


@dataclass(frozen=True)
class _GmmStack:
    """Arrays of B mixture states stacked for scoring, components first.

    Component k's logit at a row x, log w_k - sum_d (x_d - mu_kd)^2 h_kd -
    log det_k / 2 with h = 1 / (2 variance), is expanded about c_k, the
    component's mean location over the B states.  With m = mu_k - c_k it is
    the row [(x - c_k)^2, x - c_k, 1] times the coefficients
    [-h, 2 h m, log w_k - log det_k / 2 - sum_d h m^2], so the logits of all
    B states at all rows are one matrix product per component.  Centring
    keeps the expansion accurate for data far from the origin, where the
    uncentred terms would cancel; what cancellation is left grows with
    h m^2, so only with means that move far, in standard deviations, between
    states (label switching).
    """

    coef: np.ndarray           # K x B x (2D + 1)
    centres: np.ndarray        # K x D
    log_weights: np.ndarray    # K x B x 1

    @classmethod
    def of(cls, states):
        shape = np.shape(states[0].means) if len(states) else ()
        if len(shape) != 2 or any(
                np.shape(s.means) != shape or np.shape(s.variances) != shape
                or np.shape(s.weights) != shape[:1] for s in states):
            raise StateError("every state needs K x D means and variances and K mixing "
                             "weights, all of one shape")
        means = np.stack([s.means for s in states], axis=1)            # K x B x D
        variances = np.stack([s.variances for s in states], axis=1)
        weights = np.stack([s.weights for s in states], axis=1)        # K x B
        # checked before any reciprocal or log, so a bad state warns nothing
        if not np.all(variances > 0):
            raise StateError("non-positive variance in a mixture state")
        if not np.all(weights > 0):
            raise StateError("mixing weights must be positive")
        centres = means.mean(axis=1)
        centred = means - centres[:, None]
        half_prec = 0.5 / variances
        log_weights = np.log(weights)
        constant = (log_weights - 0.5 * np.log(variances).sum(-1)
                    - (half_prec * centred * centred).sum(-1))
        coef = np.concatenate((-half_prec, 2.0 * half_prec * centred, constant[..., None]), -1)
        return cls(coef, centres, log_weights[..., None])


def _gmm_logits(x: Dataset, stack: _GmmStack) -> np.ndarray:
    """Every state's logit at every row, states-major, K x B x n: one matrix
    product per component of its coefficients and the rows' centred terms
    [(x - c_k)^2, x - c_k, 1], (2D + 1) x n."""
    K, D = stack.centres.shape
    diff = x.values.T - stack.centres[:, :, None]                      # K x D x n
    terms = np.empty((K, 2 * D + 1, x.n))
    np.multiply(diff, diff, out=terms[:, :D])
    terms[:, D:-1] = diff
    terms[:, -1] = 1.0
    return np.matmul(stack.coef, terms)


def gmm_loglik_diagnostic_batch(x: Dataset, states, stream) -> np.ndarray:
    """Log-likelihood diagnostic of x at each state, one fresh label draw each.

    For every state a class label is drawn per row from its responsibility,
    which includes the state's mixing weights, and the diagnostic is the
    Mahalanobis term plus log-determinant penalty summed over rows at those
    labels.  The logits come from _gmm_logits (the centred expansion of
    _GmmStack) as K x B x n, so every later pass runs along the rows.  The
    stacked state arrays are kept on a StateBatch (such as
    PosteriorDraws.states) and rebuilt for any other sequence of states.
    """
    _require_continuous(x)
    stack = _stacked(states, _GmmStack.of)
    K, D = stack.centres.shape
    if D != x.d:
        raise DimensionError("state dimension does not match data")
    logits = _gmm_logits(x, stack)
    if K > 1:
        cum = logits - logits.max(axis=0)
        np.exp(cum, out=cum)
        # cumulative unnormalized responsibilities, added in the order of a
        # sum over axis 0, so that cum[-1] is their total
        for k in range(1, K):
            cum[k] += cum[k - 1]
        # one uniform per row and state, drawn rows first, times the total
        threshold = cum[-1]
        threshold *= stream.generator.random((x.n, len(threshold))).T
    # the diagnostic is the logit at the drawn label less its log weight;
    # with one component the label is 0 and nothing needs drawing
    logits -= stack.log_weights
    picked = logits[0]
    # inverse-CDF label draw: cum only grows along k, so the last k with
    # cum[k - 1] < threshold is the drawn label
    for k in range(1, K):
        np.putmask(picked, cum[k - 1] < threshold, logits[k])
    # each state's rows added one after another
    return np.ascontiguousarray(picked.T).sum(axis=0)


def _require_categorical(x: Dataset):
    if x.kind != CATEGORICAL:
        raise DataError("expected categorical data")


def multmix_full_loglik(x: Dataset, states) -> np.ndarray:
    """Mixture log-likelihood of x at each state, a block of states at a
    time, as gmm_full_loglik."""
    codes = x.codes()
    loglik = []
    for block in _state_blocks(states, x.n * states[0].K):
        logp = np.log(np.stack([s.weights for s in block]))[:, None, :]    # B x 1 x K
        with np.errstate(divide="ignore"):
            for j in range(codes.shape[1]):
                table = np.stack([s.tables[j] for s in block])             # B x K x L
                logp = logp + np.log(table[:, :, codes[:, j]]).transpose(0, 2, 1)
        loglik += _loglik_rows(logp)
    return np.array(loglik)


def _dirichlet_log_density(p, alpha) -> np.ndarray:
    """Symmetric Dirichlet(alpha) log density of each row of p (... x L)."""
    L = p.shape[-1]
    constant = math.lgamma(L * alpha) - L * math.lgamma(alpha)
    return ((alpha - 1) * np.log(p)).sum(axis=-1) + constant


def _multmix_log_prior(states) -> np.ndarray:
    """Log prior density of each state: the weights' Dirichlet term, then
    each table row's, added in turn."""
    lp = _dirichlet_log_density(np.stack([s.weights for s in states]), MULTMIX_ALPHA_PI)
    for j in range(len(states[0].tables)):
        rows = _dirichlet_log_density(np.stack([s.tables[j] for s in states]), MULTMIX_ALPHA)
        for k in range(rows.shape[1]):
            lp += rows[:, k]
    return lp


def multmix_gibbs_fit(x: Dataset, K: int, iters=2000, burnin=1000, thin=5, stream=None) -> PosteriorDraws:
    """Gibbs chain over class labels, weights, and per-class tables."""
    _require_categorical(x)
    K = integer(K, "K", 1)
    ChainConfig(iters, burnin, thin)
    g = stream.generator
    codes = x.codes()
    n = x.n
    level_sizes = x.level_sizes
    weights = g.dirichlet(np.full(K, MULTMIX_ALPHA_PI))
    tables = [g.dirichlet(np.full(L, MULTMIX_ALPHA), size=K) for L in level_sizes]
    states = []
    sizes = np.array(level_sizes)
    ends = np.concatenate(([0], np.cumsum(K * sizes)))
    for it in range(iters):
        # class responsibilities: log tables gathered levels-first, n x K
        logp = np.log(weights)
        for j, table in enumerate(tables):
            logp = logp + np.log(table.T)[codes[:, j]]
        # inverse-CDF label draw on the unnormalized responsibilities
        cum = np.cumsum(np.exp(logp - logp.max(axis=1, keepdims=True)), axis=1)
        u = g.random(n)
        z = (cum[:, :-1] < (u * cum[:, -1])[:, None]).sum(1)
        counts = np.bincount(z, minlength=K)
        weights = g.dirichlet(MULTMIX_ALPHA_PI + counts)
        # every table's K x L cell counts, laid end to end
        cells = np.bincount((z[:, None] * sizes + codes + ends[:-1]).ravel(), minlength=ends[-1])
        # Dirichlet rows via normalized Gamma draws: one call for all tables
        # draws the same variates, in the same order, as one call per table
        gam = g.gamma(MULTMIX_ALPHA + cells)
        for j, L in enumerate(level_sizes):
            block = gam[ends[j]:ends[j + 1]].reshape(K, L)
            tables[j] = block / block.sum(axis=1, keepdims=True)
        if it >= burnin and (it - burnin) % thin == 0:
            states.append(MultMixState(weights, tuple(tables), z))
    loglik = multmix_full_loglik(x, states)
    logpost = loglik + _multmix_log_prior(states)
    return PosteriorDraws(states, f"multmix-K{K}", loglik=loglik, logpost=logpost)


def multmix_predictive(draws: PosteriorDraws, n_rep: int, R: int, stream) -> ReplicateBlock:
    """R categorical replicate datasets, as level codes, from retained
    posterior states, as one block; replicate r draws from
    stream.substream(r)."""
    R, n_rep = integer(R, "R", 1), integer(n_rep, "n_rep", 1)
    level_sizes = tuple(t.shape[1] for t in draws.states[0].tables)
    block = np.empty((R, n_rep, len(level_sizes)))
    for rep, g in zip(block, stream.substream_generators(R)):
        state = draws.states[int(g.integers(draws.B))]
        z = categorical(g, state.weights, n_rep)
        for j, table in enumerate(state.tables):
            cum = np.cumsum(table, axis=1)[z]
            rep[:, j] = (cum[:, :-1] < g.random(n_rep)[:, None]).sum(1)
    return ReplicateBlock(block, level_sizes=level_sizes)


@dataclass(frozen=True)
class _MultMixStack:
    """Arrays of B categorical mixture states stacked for scoring, levels
    first, so that indexing a table by the level codes gives n x K x B."""

    log_weights: np.ndarray    # K x B
    tables: tuple              # per variable, L x K x B
    log_tables: tuple          # per variable, L x K x B; log 0 = -inf

    @classmethod
    def of(cls, states):
        K = np.size(states[0].weights)
        shapes = tuple(np.shape(t) for t in states[0].tables)
        if any(len(shape) != 2 or shape[0] != K for shape in shapes) or any(
                np.shape(s.weights) != (K,) or tuple(np.shape(t) for t in s.tables) != shapes
                for s in states):
            raise StateError("every state needs K class weights and one K-row table "
                             "per variable, all of one shape")
        weights = np.stack([s.weights for s in states], axis=-1)
        tables = tuple(np.ascontiguousarray(
            np.stack([s.tables[j] for s in states], axis=-1).transpose(1, 0, 2), dtype=float)
            for j in range(len(shapes)))
        # checked before any log; a zero weight or cell is probability 0
        if not all(np.all((a >= 0) & (a < np.inf)) for a in (weights, *tables)):
            raise StateError("class weights and table cells must be finite and non-negative")
        with np.errstate(divide="ignore"):
            return cls(np.log(weights), tables, tuple(np.log(t) for t in tables))


def multmix_chi2_diagnostic_batch(x: Dataset, states) -> np.ndarray:
    """Deviance-style discrepancy of x at each state.

    Predicted cell probabilities mix the class tables by each row's posterior
    class responsibility; the statistic is twice the summed log shortfall at
    the observed cells.  Rows with zero likelihood under every class get
    uniform responsibilities, and a zero predicted probability at an observed
    cell yields an infinite value.  The stacked state arrays are kept on a
    StateBatch (such as PosteriorDraws.states) and rebuilt for any other
    sequence of states.
    """
    _require_categorical(x)
    stack = _stacked(states, _MultMixStack.of)
    if tuple(len(t) for t in stack.tables) != x.level_sizes:
        raise DimensionError("state level sizes do not match data")
    codes = x.codes()
    # log w_k + sum_j log table_j[k, code], gathered as n x K x B
    logits = stack.log_weights + stack.log_tables[0][codes[:, 0]]
    for j in range(1, codes.shape[1]):
        logits += stack.log_tables[j][codes[:, j]]
    top = logits.max(axis=1, keepdims=True)
    dead = np.isneginf(top)
    if dead.any():
        # zero likelihood under every class: uniform responsibilities
        np.copyto(logits, 0.0, where=dead)
        top[dead] = 0.0
    logits -= top
    resp = np.exp(logits, out=logits)
    resp /= resp.sum(axis=1, keepdims=True)
    # predicted probability of each observed cell: sum_k resp * table
    obs = np.empty((codes.shape[1],) + resp.shape[::2])
    for j in range(codes.shape[1]):
        np.einsum("nkb,nkb->nb", resp, stack.tables[j][codes[:, j]], out=obs[j])
    with np.errstate(divide="ignore"):
        # rows summed before variables; 0.0 - keeps a perfect prediction at +0.0
        return 0.0 - 2.0 * np.log(obs).sum(axis=1).sum(axis=0)
