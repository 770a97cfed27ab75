"""Finite mixture models: diagonal Gaussian and categorical (multinomial).

Both are fitted by Gibbs sampling over conjugate full conditionals and expose
the same surface: fit, posterior-predictive replication, and a realized
diagnostic.  The Gaussian mixture has Dirichlet(1) weights, Gibbs-updated with
the rest of the chain, and per-dimension variances; the categorical mixture
has Dirichlet-distributed weights and one probability table per class and
variable.

A categorical sweep is some thirty numpy calls on a few hundred values, so
its cost is per-call overhead: ``multmix_gibbs_fits`` runs several chains in
one sweep loop, each bit for bit what it gives alone, and the checks fit
the chains that one call needs with it.  A Gaussian sweep at the study's
sizes is bound by arithmetic instead (run in one loop, chains ran at
0.53-0.92x their separate speed), so ``gmm_gibbs_fit`` runs one chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BLOCK_CELLS, Dataset, PosteriorDraws, ReplicateBlock
from .errors import DataError, DimensionError, ParameterError, StateError, integer
from .rng import categories, category_bounds, logsumexp, need_stream

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


def _require_continuous(x):
    """x (a Dataset or a ReplicateBlock) holds continuous values."""
    if x.level_sizes is not None:
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
    lp += _dirichlet_log_density(weights, GMM_ALPHA_PI)
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


def _dirichlet_from_gammas(gammas) -> np.ndarray:
    """A Dirichlet variate from the standard Gamma variates drawn for it, as
    Generator.dirichlet makes it from concentrations of at least 0.1: each
    variate times the reciprocal of their sum, added one after another."""
    total = 0.0
    for v in gammas.tolist():
        total += v
    return gammas * (1.0 / total)


def _draw_labels(logits, u) -> np.ndarray:
    """A label for each column of the K x n logits, drawn by inverse CDF on
    the unnormalized responsibilities with the column's uniform from u; the
    logits are overwritten.  A class whose logit is -inf adds exactly 0 to
    every cumulative sum after it, so it is never drawn and leaves the
    other classes' draws as they are without it."""
    logits -= logits.max(axis=0)
    cum = np.exp(logits, out=logits)
    for k in range(1, len(cum)):
        cum[k] += cum[k - 1]
    return (cum[:-1] < u * cum[-1]).sum(0)


def gmm_gibbs_fit(x: Dataset, K: int, iters=2000, burnin=1000, thin=5, stream=None) -> PosteriorDraws:
    """Gibbs chain over assignments, mixing weights, means, and variances.

    Full conditionals are conjugate throughout; a component with no points
    has its prior as its full conditional, so its conjugate updates draw its
    mean and variances from the prior.
    """
    _require_continuous(x)
    K = integer(K, "K", 1)
    ChainConfig(iters, burnin, thin)
    g = need_stream(stream, "a Gibbs chain")
    data = x.values
    D = data.shape[1]
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
        z = _draw_labels(comp, g.random(len(data)))
        counts = np.bincount(z, minlength=K)
        # conjugate Dirichlet update for the mixing weights
        weights = _dirichlet_from_gammas(g.standard_gamma(GMM_ALPHA_PI + counts))
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
        # Generator.gamma(shape, theta) draws theta * standard_gamma(shape)
        variances = 1.0 / (g.standard_gamma(shape, scale.shape) * (1.0 / scale))
        if it >= burnin and (it - burnin) % thin == 0:
            # every array here is rebuilt, not updated, by the next sweep
            states.append(GmmState(means, variances, z, weights))
    loglik = gmm_full_loglik(x, states)
    logpost = loglik + np.array([_gmm_log_prior(s.means, s.variances, s.weights) for s in states])
    return PosteriorDraws(states, f"gmm-K{K}", loglik=loglik, logpost=logpost)


def _replicate_states(draws: PosteriorDraws, R, stream, prepare):
    """The generator and prepared state of each of R replicates: replicate r
    draws its state's index first from stream.substream(r), and each state
    is prepared once, when it is first drawn."""
    prepared = {}
    for g in stream.substream_generators(R):
        b = int(g.integers(draws.B))
        if b not in prepared:
            prepared[b] = prepare(draws.states[b])
        yield g, prepared[b]


def _gmm_sampler(state: GmmState):
    """The state's weight bounds, means and standard deviations."""
    return category_bounds(state.weights), state.means, np.sqrt(state.variances)


def gmm_predictive(draws: PosteriorDraws, n_rep: int, R: int, stream) -> ReplicateBlock:
    """R replicate datasets, each generated from one retained posterior state,
    as one block; replicate r draws from stream.substream(r)."""
    R, n_rep = integer(R, "R", 1), integer(n_rep, "n_rep", 1)
    block = np.empty((R, n_rep, draws.states[0].means.shape[1]))
    replicates = _replicate_states(draws, R, stream, _gmm_sampler)
    for rep, (g, (bounds, means, sd)) in zip(block, replicates):
        comp = categories(bounds, g.random(n_rep))
        g.standard_normal(out=rep)
        rep *= sd[comp]
        rep += means[comp]
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


def _gmm_logits(values, stack: _GmmStack) -> np.ndarray:
    """Every state's logit at every row of the n x D values, states-major,
    K x B x n: one matrix product per component of its coefficients and the
    rows' centred terms [(x - c_k)^2, x - c_k, 1], (2D + 1) x n."""
    K, D = stack.centres.shape
    diff = values.T - stack.centres[:, :, None]                        # K x D x n
    terms = np.empty((K, 2 * D + 1, len(values)))
    np.multiply(diff, diff, out=terms[:, :D])
    terms[:, D:-1] = diff
    terms[:, -1] = 1.0
    return np.matmul(stack.coef, terms)


def gmm_loglik_diagnostic_batch(x: ReplicateBlock, states, generators) -> np.ndarray:
    """Log-likelihood diagnostic of each of the R replicates of x at each
    state, one fresh label draw each, R x B; replicate r draws from the
    r-th of the R generators, and any other number of them raises.

    For every state a class label is drawn per row from its responsibility,
    which includes the state's mixing weights, and the diagnostic is the
    Mahalanobis term plus log-determinant penalty summed over rows at those
    labels.  The logits come from _gmm_logits (the centred expansion of
    _GmmStack) as K x B x n, so every later pass runs along the rows.
    """
    _require_continuous(x)
    stack = _GmmStack.of(states)
    if stack.centres.shape[1] != x.d:
        raise DimensionError("state dimension does not match data")
    K = len(stack.centres)
    out = np.empty((len(x), len(states)))
    for row, values, g in zip(out, x.values, generators, strict=True):
        logits = _gmm_logits(values, stack)
        if K > 1:
            cum = logits - logits.max(axis=0)
            np.exp(cum, out=cum)
            # cumulative unnormalized responsibilities, added in the order
            # of a sum over axis 0, so that cum[-1] is their total
            for k in range(1, K):
                cum[k] += cum[k - 1]
            # one uniform per row and state, drawn rows first, times the total
            threshold = cum[-1]
            threshold *= g.random((len(values), len(threshold))).T
        # the diagnostic is the logit at the drawn label less its log
        # weight; with one component the label is 0 and nothing is drawn
        logits -= stack.log_weights
        picked = logits[0]
        # inverse-CDF label draw: cum only grows along k, so the last k with
        # cum[k - 1] < threshold is the drawn label
        for k in range(1, K):
            np.putmask(picked, cum[k - 1] < threshold, logits[k])
        # each state's rows added one after another
        row[:] = np.ascontiguousarray(picked.T).sum(axis=0)
    return out


def _require_categorical(x):
    """x (a Dataset or a ReplicateBlock) holds level codes."""
    if x.level_sizes is None:
        raise DataError("expected categorical data")


def multmix_full_loglik(x: Dataset, states) -> np.ndarray:
    """Mixture log-likelihood of x at each state, through the diagnostic's
    class logits, a block of states at a time, as gmm_full_loglik."""
    codes = x.codes()
    loglik = []
    for block in _state_blocks(states, x.n * states[0].K):
        logits = _MultMixStack.of(block).logits(codes).transpose(2, 0, 1)    # B x n x K
        if logits.shape[2] >= 8:
            # the classes are summed as numpy sums a contiguous last axis:
            # one value after another, as this view sums them, below eight
            # values, and pairwise from eight on
            logits = np.ascontiguousarray(logits)
        loglik += _loglik_rows(logits)
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
    """Gibbs chain over class labels, weights, and per-class tables: the
    one-chain call of multmix_gibbs_fits."""
    return multmix_gibbs_fits([x], [K], iters, burnin, thin, [stream])[0]


def multmix_gibbs_fits(xs, Ks, iters, burnin, thin, streams) -> list:
    """A Gibbs chain over class labels, weights, and per-class tables for
    each dataset of xs, with its K from Ks and its draws from its stream in
    streams, all run in one sweep loop: one PosteriorDraws per chain, bit
    for bit what the chain gives on its own.

    The chains share level sizes and a schedule; their datasets may differ
    in n.  Their parameters live in one flat vector, chain after chain: the
    K weights, then each variable's K x L table, rows end to end.  A sweep
    gathers the logs of the weight and the cells at each distinct row of
    codes of each chain and adds them, log weight first, at as many classes
    as the largest K; a class that a chain lacks reads a -inf slot, so its
    label draw never picks it.  It draws every label at once, each chain's
    from the chain's own uniforms, and counts every chain's classes and
    cells in one bincount.  Each chain then draws its weights and table
    cells with one standard Gamma call, the weights' variates first as a
    Dirichlet draw takes them.
    """
    xs, Ks, streams = list(xs), list(Ks), list(streams)
    if not xs or not len(xs) == len(Ks) == len(streams):
        raise ParameterError("need one K and one stream for each of one or more datasets")
    for x in xs:
        _require_categorical(x)
    Ks = [integer(K, "K", 1) for K in Ks]
    ChainConfig(iters, burnin, thin)
    gens = [need_stream(stream, "a Gibbs chain") for stream in streams]
    level_sizes = xs[0].level_sizes
    if any(x.level_sizes != level_sizes for x in xs):
        raise DimensionError("chains fitted together need the same level sizes")
    # each class has T terms, its weight and a row of each table: chain c
    # takes the K_c * T places of params from bases[c] and, among all
    # chains' n rows, the rows from ends[c]; the logs' -inf slot sits at P
    T, Kmax = 1 + sum(level_sizes), max(Ks)
    bases = np.cumsum([0] + [K * T for K in Ks])
    ends = np.cumsum([0] + [x.n for x in xs])
    P, n = bases[-1], ends[-1]
    first = np.cumsum((0, 1) + level_sizes[:-1])[:, None]
    strides = np.array((1,) + level_sizes)[:, None]
    params, terms, cols, offsets, chains, tables_by_size = [], [], [], [], [], {}
    for c, (x, K, g) in enumerate(zip(xs, Ks, gens)):
        params.append(g.dirichlet(np.full(K, MULTMIX_ALPHA_PI)))
        params += [g.dirichlet(np.full(L, MULTMIX_ALPHA), size=K).ravel() for L in level_sizes]
        # where the chain's weights and each of its tables start in params,
        # and where the next chain starts
        starts = bases[c] + K + np.concatenate(([0], np.cumsum(K * np.array(level_sizes))))
        for a, L in zip(starts, level_sizes):
            tables_by_size.setdefault(L, []).append(a + np.arange(K * L).reshape(K, L))
        # the chain's terms: the index in params of each class's weight and
        # table rows, side by side, Kmax x T.  Row j + 1 of cols is the
        # column of variable j's cell at each data row among all chains'
        # terms, and row 0 the weight's; row j of offsets is the same term's
        # index in params at class 0, and of strides the step to the next
        # class.
        chain_terms = np.full((Kmax, T), P)
        chain_terms[:K] = np.hstack([bases[c] + np.arange(K)[:, None]] + [
            a + L * np.arange(K)[:, None] + np.arange(L) for a, L in zip(starts, level_sizes)])
        levels = np.vstack((np.zeros(x.n, dtype=np.intp), x.codes().T))
        terms.append(chain_terms)
        cols.append(levels + first + c * T)
        offsets.append(levels + chain_terms[0, first])
        chains.append((g, K, bases[c], starts, slice(ends[c], ends[c + 1])))
    params = np.concatenate(params)
    terms, offsets = np.hstack(terms), np.hstack(offsets)
    # the rows of one chain with one pattern of codes share their logits,
    # so each distinct column of cols is summed once; a spare column, a
    # copy of the first, follows them.  The sweep sums parts of two columns
    # or more, and a last part of one column is the spare alone, whose
    # logits are dropped: numpy adds the terms of a lone column pairwise,
    # not in order.
    patterns, row_pattern = np.unique(np.hstack(cols), axis=1, return_inverse=True)
    patterns = np.hstack((patterns, patterns[:, :1]))
    width = patterns.shape[1]
    # every table row of one level size, of every chain, normalised together
    table_rows = [np.vstack(rows) for rows in tables_by_size.values()]
    prior = np.full(P, MULTMIX_ALPHA)
    for _, K, base, _, _ in chains:
        prior[base:base + K] = MULTMIX_ALPHA_PI
    logs = np.empty(P + 1)
    logs[P] = -np.inf
    part = max(2, BLOCK_CELLS // (Kmax * T))
    states = [[] for _ in xs]
    for it in range(iters):
        # class logits log w_k + sum_j log table_j[k, code], added in that
        # order, at most BLOCK_CELLS terms at a time, Kmax x n for all
        # chains' rows
        np.log(params, out=logs[:P])
        class_logs = logs[terms]
        pattern_logits = np.empty((Kmax, width))
        for a in range(0, width, part):
            class_logs.take(patterns[:, a:a + part], axis=1).sum(
                axis=1, out=pattern_logits[:, a:a + part])
        u = np.empty(n)
        for g, _, _, _, rows in chains:
            g.random(out=u[rows])
        z = _draw_labels(pattern_logits.take(row_pattern, axis=1), u)
        # Gamma shapes: each chain's class counts, then every table's K x L
        # cell counts, on their priors; each chain's variates are drawn into
        # params in place (size, dtype and out by position)
        shapes = prior + np.bincount((strides * z + offsets).ravel(), minlength=P)
        params = np.empty(P)
        for g, K, base, starts, _ in chains:
            cells = slice(base, starts[-1])
            g.standard_gamma(shapes[cells], None, np.float64, params[cells])
            params[base:base + K] = _dirichlet_from_gammas(params[base:base + K])
        for rows_at in table_rows:
            block = params[rows_at]
            block /= block.sum(axis=1, keepdims=True)
            params[rows_at] = block
        if it >= burnin and (it - burnin) % thin == 0:
            # params and z are rebuilt, not updated, by the next sweep
            for kept, (_, K, base, starts, rows) in zip(states, chains):
                tables = tuple(params[a:b].reshape(K, -1) for a, b in zip(starts[:-1], starts[1:]))
                kept.append(MultMixState(params[base:base + K], tables, z[rows]))
    fits = []
    for x, K, kept in zip(xs, Ks, states):
        loglik = multmix_full_loglik(x, kept)
        fits.append(PosteriorDraws(kept, f"multmix-K{K}", loglik=loglik,
                                   logpost=loglik + _multmix_log_prior(kept)))
    return fits


def multmix_predictive(draws: PosteriorDraws, n_rep: int, R: int, stream) -> ReplicateBlock:
    """R categorical replicate datasets, as level codes, from retained
    posterior states, as one block; replicate r draws from
    stream.substream(r)."""
    R, n_rep = integer(R, "R", 1), integer(n_rep, "n_rep", 1)
    level_sizes = tuple(t.shape[1] for t in draws.states[0].tables)
    d = len(level_sizes)
    block = np.empty((R, n_rep, d))
    # the variable of each row of a state's table bounds, and a d x rows 0/1
    # matrix that counts each variable's rows; integer, so that the product
    # runs in numpy's own loop, not in BLAS, whose first call adds about
    # 0.3 MB of resident pages to a run that makes no other
    variable = np.repeat(np.arange(d), np.array(level_sizes) - 1)
    count = (variable == np.arange(d)[:, None]).astype(np.intp)
    replicates = _replicate_states(draws, R, stream, _multmix_sampler)
    for rep, (g, (bounds, cells)) in zip(block, replicates):
        # a class per row, then one uniform per row and variable, drawn
        # variable by variable: a code is the count of its class's table row
        # bounds below its uniform
        z = categories(bounds, g.random(n_rep))
        below = cells.take(z, axis=1) < g.random((d, n_rep))[variable]
        np.matmul(count, below, out=rep.T)
    return ReplicateBlock(block, level_sizes=level_sizes)


def _multmix_sampler(state: MultMixState):
    """The state's weight bounds, and the first L - 1 cumulative sums of
    every table row, stacked variable by variable, sum(L - 1) x K."""
    cells = np.concatenate([np.cumsum(t, axis=1)[:, :-1].T for t in state.tables])
    return category_bounds(state.weights), cells


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

    def logits(self, codes) -> np.ndarray:
        """log w_k + sum_j log table_j[k, code] at each row of the n x d
        codes, added in that order, n x K x B; log 0 = -inf."""
        logits = self.log_weights + self.log_tables[0][codes[:, 0]]
        for j in range(1, codes.shape[1]):
            logits += self.log_tables[j][codes[:, j]]
        return logits


def multmix_chi2_diagnostic_batch(x: ReplicateBlock, states) -> np.ndarray:
    """Deviance-style discrepancy of each of the R replicates of x at each
    state, R x B.

    Predicted cell probabilities mix the class tables by each row's posterior
    class responsibility; the statistic is twice the summed log shortfall at
    the observed cells.  Rows with zero likelihood under every class get
    uniform responsibilities, and a zero predicted probability at an observed
    cell yields an infinite value.

    A row of codes is one of P = prod(level_sizes) possible rows.  Where P
    is at most the R x n rows of x and the possible rows' arrays fit a
    block, each possible row is scored once, in mixed-radix order, and each
    replicate's rows are gathered back by their mixed-radix indices;
    otherwise every row is scored where it stands, a run of replicates at a
    time.  Either way each replicate sums its rows' values in order, rows
    before variables, as it would on its own.
    """
    _require_categorical(x)
    stack = _MultMixStack.of(states)
    if tuple(len(t) for t in stack.tables) != x.level_sizes:
        raise DimensionError("state level sizes do not match data")
    R, n, d = x.values.shape
    K, B = stack.log_weights.shape
    # a run's rows, and the possible rows when looked up, score within a
    # block: rows x K x B and d x rows x B cells
    width = max(K, d) * B
    run = max(1, BLOCK_CELLS // (n * width))
    part = max(1, _GATHER_CELLS // (n * d * B))
    table = None
    if math.prod(x.level_sizes) <= min(R * n, BLOCK_CELLS // width):
        table = _multmix_log_obs(np.indices(x.level_sizes).reshape(d, -1).T, stack)
    out = np.empty((R, B))
    for start in range(0, R, run):
        reps = x.values[start:start + run]
        codes = reps.reshape(-1, d).astype(np.intp)
        if table is None:
            log_obs = _multmix_log_obs(codes, stack).reshape(d, len(reps), n, B)
            out[start:start + len(reps)] = _deviance(log_obs)
            continue
        ids = np.ravel_multi_index(codes.T, x.level_sizes).reshape(len(reps), n)
        for at in range(start, start + len(reps), part):
            # take keeps the gathered rows in C order, so that a replicate's
            # row sum runs as it does over a block of its own
            chunk = np.take(table, ids[at - start:at - start + part], axis=1)
            out[at:at + chunk.shape[1]] = _deviance(chunk)
    return out


# The log cells the multmix kernel gathers at a time for the replicates
# of a run.
_GATHER_CELLS = BLOCK_CELLS // 16


def _deviance(log_obs):
    """d x R x n x B log cells to R x B values.  Rows are summed before
    variables, and each replicate's d x B row sums are laid out as one
    dataset's, so that its sum over variables runs in the same order
    (pairwise at B = 1); 0.0 - keeps a perfect prediction at +0.0."""
    sums = np.ascontiguousarray(log_obs.sum(axis=2).transpose(1, 0, 2))
    return 0.0 - 2.0 * sums.sum(axis=1)


def _multmix_log_obs(codes, stack) -> np.ndarray:
    """Log predicted probability of each observed cell of the n x d codes at
    each stacked state, d x n x B; log 0 = -inf."""
    logits = stack.logits(codes)
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
        return np.log(obs, out=obs)
