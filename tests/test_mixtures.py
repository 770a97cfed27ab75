"""Gibbs samplers, predictives, and realized diagnostics for the mixtures."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from ppn import mixtures
from ppn.core import Dataset, PosteriorDraws, ReplicateBlock
from ppn.datagen import gen_gmm_data, gen_multmix_data, MULTMIX_TABLES
from ppn.errors import DataError, DimensionError, ParameterError, StateError
from ppn.mixtures import (GMM_ALPHA_PI, GMM_IG_SCALE, GMM_IG_SHAPE, GMM_MEAN_VAR,
                          MULTMIX_ALPHA, MULTMIX_ALPHA_PI, ChainConfig, GmmState,
                          MultMixState, _component_sums, _kmeans_init,
                          _multmix_log_prior, gmm_full_loglik, gmm_gibbs_fit,
                          gmm_loglik_diagnostic_batch, gmm_predictive,
                          multmix_chi2_diagnostic_batch, multmix_full_loglik,
                          multmix_gibbs_fit, multmix_predictive)
from ppn.rng import Seed, categorical, logsumexp
from scipy.special import gammaln

from test_diagnostics import block_of_one


def _gmm_state(means, variances, n=1):
    means = np.atleast_2d(np.asarray(means, dtype=float))
    variances = np.atleast_2d(np.asarray(variances, dtype=float))
    K = means.shape[0]
    return GmmState(means, variances, np.zeros(n, dtype=int), np.full(K, 1.0 / K))


def _gmm_gibbs_reference(x, K, iters, burnin, thin, stream):
    """Reference Gibbs sweep: responsibilities n x K x D summed by numpy,
    one bincount per data dimension, and each retained state's
    log-likelihood and log prior on its own.  Returns (states, loglik, logpost)."""
    g = stream.generator
    data = x.values
    n, D = data.shape
    means, variances = _kmeans_init(data, K)
    weights = np.full(K, 1.0 / K)
    states, logliks, logposts = [], [], []
    for it in range(iters):
        comp = np.log(weights) - 0.5 * (((data[:, None, :] - means) ** 2) / variances
                                        + np.log(variances)).sum(-1)
        e = np.exp(comp - comp.max(axis=1, keepdims=True))
        cum = np.cumsum(e, axis=1)
        u = g.random(n)
        z = (cum[:, :-1] < (u * cum[:, -1])[:, None]).sum(1)
        counts = np.bincount(z, minlength=K)
        weights = g.dirichlet(GMM_ALPHA_PI + counts)
        sums = np.stack([np.bincount(z, data[:, d], K) for d in range(D)], axis=1)
        prec = counts[:, None] / variances + 1.0 / GMM_MEAN_VAR
        post_mean = (sums / variances) / prec
        means = post_mean + g.standard_normal((K, D)) / np.sqrt(prec)
        resid = (data - means[z]) ** 2
        sq = np.stack([np.bincount(z, resid[:, d], K) for d in range(D)], axis=1)
        shape = GMM_IG_SHAPE + counts[:, None] / 2.0
        scale = GMM_IG_SCALE + sq / 2.0
        variances = 1.0 / g.gamma(shape, 1.0 / scale)
        if it >= burnin and (it - burnin) % thin == 0:
            states.append(GmmState(means.copy(), variances.copy(), z.copy(), weights.copy()))
            comp = -0.5 * (((data[:, None, :] - means) ** 2) / variances
                           + np.log(2 * np.pi * variances)).sum(-1)
            ll = float(logsumexp(comp + np.log(weights), axis=1).sum())
            a, b = GMM_IG_SHAPE, GMM_IG_SCALE
            lp = -0.5 * (means**2 / GMM_MEAN_VAR + np.log(2 * np.pi * GMM_MEAN_VAR)).sum()
            lp += (a * np.log(b) - math.lgamma(a) - (a + 1) * np.log(variances)
                   - b / variances).sum()
            lp += ((GMM_ALPHA_PI - 1) * np.log(weights).sum() + math.lgamma(K * GMM_ALPHA_PI)
                   - K * math.lgamma(GMM_ALPHA_PI))
            logliks.append(ll)
            logposts.append(ll + float(lp))
    return states, np.array(logliks), np.array(logposts)


def _multmix_gibbs_reference(x, K, iters, burnin, thin, stream):
    """Reference Gibbs sweep: one gather and add per variable, n x K, a
    Dirichlet call for the weights and a Gamma call for the table cells, and
    each table normalised on its own.  Returns (states, loglik, logpost)."""
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
    return states, loglik, loglik + _multmix_log_prior(states)


def _gmm_direct_logits(x, states):
    """Each state's logits by the direct quadratic, K x n x B: log weight,
    less the squared residuals over twice the variances, less half the log
    determinant."""
    logits = np.empty((states[0].K, x.n, len(states)))
    for b, s in enumerate(states):
        for k in range(s.K):
            quad = ((x.values - s.means[k]) ** 2 / (2.0 * s.variances[k])).sum(axis=1)
            logits[k, :, b] = np.log(s.weights[k]) - 0.5 * np.log(s.variances[k]).sum() - quad
    return logits


def _gmm_diagnostic_reference(logits, states):
    """Reference expectation on K x n x B logits, one state at a time: each
    row's logits less log weights, weighted by its responsibilities, with
    the rows added in turn."""
    values = np.empty(len(states))
    for b, state in enumerate(states):
        state_logits = logits[:, :, b]                                     # K x n
        e = np.exp(state_logits - state_logits.max(axis=0))
        terms = ((state_logits - np.log(state.weights)[:, None]) * e).sum(axis=0) / e.sum(axis=0)
        values[b] = 0.0
        for term in terms:
            values[b] += term
    return values


def _datasets(block):
    """The replicates of a block, each as a Dataset of its own."""
    return [Dataset(rep, block.covariates, block.level_sizes) for rep in block.values]


def _gmm_scores(x, states):
    """The GMM kernel's B values for the Dataset x, its block of one
    replicate, as validation_diagnostic scores it."""
    return gmm_loglik_diagnostic_batch(block_of_one(x), states)[0]


def _multmix_scores(x, states):
    """The multmix kernel's B values for the Dataset x, as its block of one."""
    return multmix_chi2_diagnostic_batch(block_of_one(x), states)[0]


def _kernel_logits(x, states):
    """The kernel's logits, rows first (K x n x B) and contiguous."""
    logits = mixtures._gmm_logits(x.values, mixtures._GmmStack.of(states))
    return np.ascontiguousarray(logits.transpose(0, 2, 1))


class TestChainConfig:
    def test_retained_count(self):
        cfg = ChainConfig()
        assert (cfg.iters - cfg.burnin) // cfg.thin == 200

    def test_invalid(self):
        with pytest.raises(ParameterError):
            ChainConfig(100, 100, 1)
        with pytest.raises(ParameterError):
            ChainConfig(100, 50, 0)


class TestGmmFit:
    def test_k1_conjugate_oracle(self):
        # K=1 reduces to Normal mean / Inverse-Gamma variance conditionals
        g = Seed(11).stream("k1data").generator
        y = 3.0 + np.sqrt(2.0) * g.standard_normal((400, 1))
        fit = gmm_gibbs_fit(Dataset(y), 1, 3000, 1000, 2, Seed(11).stream("k1"))
        mu = np.array([s.means[0, 0] for s in fit.states])
        var = np.array([s.variances[0, 0] for s in fit.states])
        n, ybar = 400, y.mean()
        s2 = var.mean()
        mu_post = (n * ybar / s2) / (n / s2 + 1.0 / 25.0)
        sd_post = 1.0 / np.sqrt(n / s2 + 1.0 / 25.0)
        assert abs(mu.mean() - mu_post) < 4 * sd_post / np.sqrt(len(mu) / 10)
        # E[1/sigma^2 | mu] = (1 + n/2) / (1 + SS/2) at the posterior-mean mu
        ss = ((y[:, 0] - mu.mean()) ** 2).sum()
        assert abs((1.0 / var).mean() - (1 + n / 2) / (1 + ss / 2)) < 0.05 * (1.0 / var).mean()

    def test_empty_components_refresh_from_prior(self):
        # two points cannot occupy three components; the conjugate update
        # alone must draw the empty ones from the prior: E[1/sigma^2] = 1,
        # E[mu] = 0, var 25
        data = Dataset(np.array([[0.0, 0.0], [0.1, 0.1]]))
        fit = gmm_gibbs_fit(data, 3, 4000, 1000, 1, Seed(5).stream("empty"))
        inv_var, mus = [], []
        for s in fit.states:
            counts = np.bincount(s.assignments, minlength=3)
            for k in np.flatnonzero(counts == 0):
                inv_var.extend(1.0 / s.variances[k])
                mus.extend(s.means[k])
        inv_var, mus = np.array(inv_var), np.array(mus)
        assert len(inv_var) > 1000
        assert abs(inv_var.mean() - 1.0) < 0.15
        assert abs(mus.mean()) < 0.6
        assert abs(mus.var() - 25.0) < 3.0

    def test_appendix_recovery(self):
        data = gen_gmm_data(500, Seed(21))
        fit = gmm_gibbs_fit(data, 3, stream=Seed(21).stream("fit"))
        post_means = np.mean([s.means for s in fit.states], axis=0)
        got = post_means[np.argsort(post_means[:, 0])]
        truth = np.array([[-5.0, 5.0], [0.0, 0.0], [10.0, 5.0]])
        assert np.all(np.abs(got - truth) < 0.5)

    def test_determinism(self):
        data = gen_gmm_data(60, Seed(2))
        a = gmm_gibbs_fit(data, 2, 200, 100, 2, Seed(3).stream("f"))
        b = gmm_gibbs_fit(data, 2, 200, 100, 2, Seed(3).stream("f"))
        assert np.array_equal(a.states[-1].means, b.states[-1].means)
        assert a.model_id == "gmm-K2"

    def test_invalid_k(self):
        with pytest.raises(ParameterError):
            gmm_gibbs_fit(gen_gmm_data(10, Seed(0)), 0, stream=Seed(0).stream("x"))

    def test_recovers_unequal_weights(self):
        # 80/20 two-cluster data: the chain's weights settle near (0.8, 0.2)
        g = Seed(31).stream("weights-data").generator
        big = g.standard_normal((400, 2))
        small = 8.0 + g.standard_normal((100, 2))
        fit = gmm_gibbs_fit(Dataset(np.vstack([big, small])), 2, 600, 200, 2,
                            Seed(31).stream("fit"))
        post = np.mean([np.sort(s.weights) for s in fit.states], axis=0)
        assert np.all(np.abs(post - [0.2, 0.8]) < 0.05)
        assert all(abs(s.weights.sum() - 1.0) < 1e-12 for s in fit.states)

    def test_logpost_adds_weight_prior(self):
        # Dirichlet(1) has density Gamma(K) on the simplex
        fit = gmm_gibbs_fit(gen_gmm_data(60, Seed(8)), 3, 200, 100, 10,
                            Seed(8).stream("f"))
        s = fit.states[0]
        means_vars = (-0.5 * (s.means ** 2 / 25.0 + np.log(2 * np.pi * 25.0)).sum()
                      + (-2.0 * np.log(s.variances) - 1.0 / s.variances).sum())
        expected = fit.loglik[0] + means_vars + np.log(2.0)
        assert abs(fit.logpost[0] - expected) < 1e-9

    def test_full_loglik_weighted_closed_form(self):
        y = np.array([[0.0]])
        state = GmmState(np.array([[0.0], [1.0]]), np.array([[1.0], [1.0]]),
                         np.zeros(1, dtype=int), np.array([0.25, 0.75]))
        ll = gmm_full_loglik(Dataset(y), [state])
        phi = lambda v: np.exp(-0.5 * v * v) / np.sqrt(2 * np.pi)
        assert ll.shape == (1,)
        assert abs(ll[0] - np.log(0.25 * phi(0.0) + 0.75 * phi(1.0))) < 1e-12

    def test_full_loglik_k1_closed_form(self):
        y = np.array([[0.5], [-0.5]])
        ll = gmm_full_loglik(Dataset(y), [_gmm_state([[0.0]], [[1.0]])])[0]
        expected = -0.5 * (2 * np.log(2 * np.pi) + 0.25 + 0.25)
        assert abs(ll - expected) < 1e-12

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_fit_matches_per_dimension_reference(self, K):
        # the sweep on the chain's own stream, on two seeds and on three
        # points, where components go empty
        tiny = Dataset(np.array([[0.0, 0.0], [0.1, 0.1], [3.0, 2.0]]))
        for data, label in ((gen_gmm_data(120, Seed(1)), 1), (gen_gmm_data(120, Seed(2)), 2),
                            (tiny, "tiny")):
            fit = gmm_gibbs_fit(data, K, 60, 20, 2, Seed(K).stream("f", label))
            ref = _gmm_gibbs_reference(data, K, 60, 20, 2, Seed(K).stream("f", label))
            assert len(fit.states) == len(ref[0]) == 20
            for got, want in zip(fit.states, ref[0]):
                for name in ("means", "variances", "assignments", "weights"):
                    assert np.array_equal(getattr(got, name), getattr(want, name))
                    assert getattr(got, name).dtype == getattr(want, name).dtype
            assert np.array_equal(fit.loglik, ref[1])
            assert np.array_equal(fit.logpost, ref[2])
        if K > 3:  # a component of the three-point chain did go empty
            assert any(np.bincount(s.assignments, minlength=K).min() == 0 for s in fit.states)

    def test_each_sweep_draws_each_component_once(self):
        # three points leave at least one of four components empty, and its
        # conjugate updates draw it from the prior: every sweep reads the
        # generator for the labels, the weights' gammas, the means and the
        # variances' gammas, and for nothing else
        class Recording:
            def __init__(self, g):
                self.g, self.calls = g, []

            def __getattr__(self, name):
                draw = getattr(self.g, name)

                def recorded(*args, **kwargs):
                    self.calls.append(name)
                    return draw(*args, **kwargs)
                return recorded

        tiny = Dataset(np.array([[0.0, 0.0], [0.1, 0.1], [3.0, 2.0]]))
        rec = Recording(Seed(4).stream("f", "tiny").generator)
        fit = gmm_gibbs_fit(tiny, 4, 60, 0, 1, type("S", (), {"generator": rec}))
        assert len(fit.states) == 60
        assert rec.calls == ["random", "standard_gamma", "standard_normal", "standard_gamma"] * 60

    def test_component_sums_keep_numpys_row_order(self):
        # below eight values numpy adds a row one value after another, from
        # eight on in pairwise blocks; both orders must come out unchanged
        g = Seed(6).stream("sums").generator
        for D in range(1, 11):
            x = g.standard_normal((40, D)) * np.exp(3 * g.standard_normal((40, D)))
            means = g.standard_normal((3, D))
            variances = np.exp(3 * g.standard_normal((3, D)))
            logs = np.log(variances)
            want = (((x[:, None, :] - means) ** 2) / variances + logs).sum(-1).T
            got = _component_sums(np.ascontiguousarray(x.T)[:, None, :], means, variances, logs)
            assert np.array_equal(got, want)


class TestGmmPredictive:
    def test_tight_cluster_mean(self):
        g = Seed(4).stream("tight").generator
        data = Dataset(0.05 * g.standard_normal((300, 2)))
        fit = gmm_gibbs_fit(data, 1, 600, 100, 5, Seed(4).stream("fitt"))
        reps = gmm_predictive(fit, 400, 50, Seed(4).stream("rep"))
        grand = np.mean([rep.mean(axis=0) for rep in reps.values], axis=0)
        assert np.all(np.abs(grand) < 0.2)
        assert reps.n == 400

    def test_components_follow_weights(self):
        state = GmmState(np.array([[0.0], [100.0]]), np.array([[1e-4], [1e-4]]),
                         np.zeros(1, dtype=int), np.array([0.7, 0.3]))
        fit = PosteriorDraws((state,), "gmm-K2")
        reps = gmm_predictive(fit, 2000, 20, Seed(7).stream("rep"))
        share = np.mean([(rep[:, 0] > 50.0).mean() for rep in reps.values])
        assert abs(share - 0.3) < 0.02

    def test_r_zero(self):
        fit = PosteriorDraws((_gmm_state([[0.0, 0.0]], [[1.0, 1.0]]),), "gmm-K1")
        with pytest.raises(ParameterError):
            gmm_predictive(fit, 10, 0, Seed(0).stream("r"))

    def test_determinism(self):
        data = gen_gmm_data(50, Seed(6))
        fit = gmm_gibbs_fit(data, 2, 200, 100, 5, Seed(6).stream("f"))
        a = gmm_predictive(fit, 30, 5, Seed(6).stream("r"))
        b = gmm_predictive(fit, 30, 5, Seed(6).stream("r"))
        assert np.array_equal(a.values, b.values)

    def test_block_rows_match_the_per_replicate_recipe(self):
        data = gen_gmm_data(60, Seed(6))
        fit = gmm_gibbs_fit(data, 3, 200, 100, 5, Seed(6).stream("f"))
        stream = Seed(6).stream("r")
        block = gmm_predictive(fit, 40, 12, stream)
        assert isinstance(block, ReplicateBlock) and block.values.shape == (12, 40, 2)
        for r, rep in enumerate(block.values):
            g = stream.substream(r).generator
            state = fit.states[int(g.integers(fit.B))]
            comp = categorical(g, state.weights, 40)
            want = state.means[comp] + np.sqrt(state.variances[comp]) * g.standard_normal((40, 2))
            assert rep.tobytes() == want.tobytes()


class TestGmmDiagnostic:
    def test_zero_residual_unit_variance(self):
        state = _gmm_state([[1.0, 2.0]], [[1.0, 1.0]])
        x = Dataset(np.array([[1.0, 2.0]]))
        assert _gmm_scores(x, [state])[0] == 0.0

    def test_unit_residual(self):
        state = _gmm_state([[0.0, 0.0]], [[1.0, 1.0]])
        x = Dataset(np.array([[1.0, 0.0]]))
        assert abs(_gmm_scores(x, [state])[0] + 0.5) < 1e-12

    def test_symmetric_components_deterministic(self):
        # identical components: the expectation is their common term
        state = GmmState(np.array([[0.0, 0.0], [0.0, 0.0]]),
                         np.array([[1.0, 1.0], [1.0, 1.0]]),
                         np.zeros(1, dtype=int), np.array([0.5, 0.5]))
        x = Dataset(np.array([[1.0, 0.0]]))
        assert np.isclose(_gmm_scores(x, [state])[0], -0.5)

    def test_label_permutation_invariance_in_expectation(self):
        state = GmmState(np.array([[0.0, 0.0], [3.0, 3.0]]),
                         np.array([[1.0, 1.0], [2.0, 2.0]]),
                         np.zeros(1, dtype=int), np.array([0.5, 0.5]))
        flipped = GmmState(state.means[::-1].copy(), state.variances[::-1].copy(),
                           state.assignments, state.weights[::-1].copy())
        x = gen_gmm_data(40, Seed(12))
        a, b = _gmm_scores(x, [state])[0], _gmm_scores(x, [flipped])[0]
        assert abs(a - b) <= 1e-9 * abs(a)

    def test_batch_shape_and_errors(self):
        states = [_gmm_state([[0.0, 0.0]], [[1.0, 1.0]]) for _ in range(7)]
        x = gen_gmm_data(10, Seed(1))
        vals = _gmm_scores(x, states)
        assert vals.shape == (7,)
        block = ReplicateBlock(np.stack([x.values] * 3))
        assert gmm_loglik_diagnostic_batch(block, states).shape == (3, 7)
        with pytest.raises(DimensionError):
            gmm_loglik_diagnostic_batch(ReplicateBlock(np.zeros((3, 4, 3))), states)
        bad = _gmm_state([[0.0, 0.0]], [[1.0, -1.0]])
        with pytest.raises(StateError):
            _gmm_scores(x, [bad])

    def test_label_draw_follows_weights(self):
        # at the shared mean, component 0 scores 0 and component 1 scores -1,
        # so the diagnostic per row is minus component 1's responsibility,
        # w1 e^-1 / (w0 + w1 e^-1)
        x = Dataset(np.zeros((4000, 1)))
        for w1 in (0.5, 0.9):
            state = GmmState(np.zeros((2, 1)), np.array([[1.0], [np.e ** 2]]),
                             np.zeros(1, dtype=int), np.array([1.0 - w1, w1]))
            share = -_gmm_scores(x, [state])[0] / x.n
            expected = w1 / np.e / (1.0 - w1 + w1 / np.e)
            assert abs(share - expected) < 1e-12

    def test_stacked_batch_matches_fresh_states(self):
        data = gen_gmm_data(200, Seed(9))
        fit = gmm_gibbs_fit(data, 3, 300, 100, 4, Seed(9).stream("f"))
        x = gen_gmm_data(80, Seed(10))
        fresh = _gmm_scores(x, list(fit.states))
        for _ in range(2):  # every call stacks the draws' states afresh
            got = _gmm_scores(x, fit.states)
            assert np.all(np.abs(got - fresh) <= 1e-12 * np.abs(fresh))

    def test_bad_states_raise_on_every_call_without_warning(self):
        x = gen_gmm_data(10, Seed(1))
        zero_var = _gmm_state([[0.0, 0.0]], [[1.0, 0.0]])
        nan_var = _gmm_state([[0.0, 0.0]], [[np.nan, 1.0]])
        zero_w = GmmState(np.zeros((2, 2)), np.ones((2, 2)), np.zeros(1, dtype=int),
                          np.array([1.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (zero_var, nan_var, zero_w):
                batch = PosteriorDraws((bad,), "gmm").states
                for _ in range(2):
                    with pytest.raises(StateError):
                        _gmm_scores(x, batch)
            good = PosteriorDraws((_gmm_state([[0.0, 0.0]], [[1.0, 1.0]]),), "gmm").states
            _gmm_scores(x, good)
            with pytest.raises(DimensionError):
                _gmm_scores(Dataset(np.zeros((4, 3))), good)

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_kernel_matches_label_array_reference(self, K):
        fit = gmm_gibbs_fit(gen_gmm_data(150, Seed(40 + K)), K, 80, 40, 2, Seed(K).stream("f"))
        x, other = gen_gmm_data(70, Seed(50 + K)), gen_gmm_data(30, Seed(60 + K))
        ref = _gmm_diagnostic_reference(_kernel_logits(x, fit.states), fit.states)
        got = _gmm_scores(x, list(fit.states))
        assert np.array_equal(got, ref)
        batch = fit.states
        # later calls, also after another size
        for data in (x, x, other, x):
            want = _gmm_diagnostic_reference(_kernel_logits(data, fit.states), fit.states)
            got = _gmm_scores(data, batch)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("case", ["origin", "offset", "permuted"])
    def test_expanded_logits_match_the_direct_quadratic(self, case):
        fit = gmm_gibbs_fit(gen_gmm_data(300, Seed(70)), 3, 80, 40, 2, Seed(70).stream("f"))
        x, states = gen_gmm_data(200, Seed(71)), list(fit.states)
        if case == "offset":
            # far from the origin with small variances: uncentred squares of
            # about 5e13 would cancel down to logits of a few thousand
            states = [GmmState(s.means + 1e6, np.full_like(s.variances, 0.01), s.assignments,
                               s.weights) for s in states]
            x = Dataset(x.values + 1e6)
        elif case == "permuted":
            # label switching: every other state's components reversed, so
            # each centre lies between clusters
            states = [GmmState(s.means[::-1].copy(), s.variances[::-1].copy(), s.assignments,
                               s.weights[::-1].copy()) if b % 2 else s
                      for b, s in enumerate(states)]
        got, want = _kernel_logits(x, states), _gmm_direct_logits(x, states)
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))

    def test_batch_mixing_component_counts_raises(self):
        x = gen_gmm_data(10, Seed(1))
        two = _gmm_state([[0.0, 0.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]])
        three = _gmm_state([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], np.ones((3, 2)))
        with pytest.raises(StateError):
            _gmm_scores(x, [two, three])

    def test_empty_batch_raises(self):
        with pytest.raises(StateError):
            _gmm_scores(gen_gmm_data(10, Seed(1)), [])

    @pytest.mark.parametrize("columns", [1, 3])
    def test_variances_of_another_width_raise(self, columns):
        # one column short, or one column over that would enter the log det
        x = gen_gmm_data(10, Seed(1))
        state = GmmState(np.zeros((2, 2)), np.ones((2, columns)), np.zeros(1, dtype=int),
                         np.array([0.5, 0.5]))
        with pytest.raises(StateError):
            _gmm_scores(x, [state])

    def test_continuous_required(self):
        x = gen_multmix_data(5, seed=Seed(0))
        state = _gmm_state([[0.0, 0.0]], [[1.0, 1.0]])
        with pytest.raises(DataError):
            _gmm_scores(x, [state])
        block = ReplicateBlock(x.values[None], level_sizes=x.level_sizes)
        with pytest.raises(DataError):
            gmm_loglik_diagnostic_batch(block, [state])


class TestMultMixFit:
    def test_k1_conjugate_oracle(self):
        data = gen_multmix_data(300, K_true=1, seed=Seed(9))
        fit = multmix_gibbs_fit(data, 1, 2000, 500, 3, Seed(9).stream("f"))
        assert all(np.allclose(s.weights, [1.0]) for s in fit.states)
        codes = data.codes()
        for j, size in enumerate(data.level_sizes):
            counts = np.bincount(codes[:, j], minlength=size)
            expected = (2.0 + counts) / (2.0 * size + data.n)
            got = np.mean([s.tables[j][0] for s in fit.states], axis=0)
            assert np.allclose(got, expected, atol=0.01)

    def test_two_class_recovery(self):
        data = gen_multmix_data(1000, seed=Seed(14))
        fit = multmix_gibbs_fit(data, 2, stream=Seed(14).stream("f"))
        post = [np.mean([s.tables[j] for s in fit.states], axis=0) for j in range(3)]
        truth = [np.array([MULTMIX_TABLES[0][j], MULTMIX_TABLES[1][j]]) for j in range(3)]
        # classes may come out in either order; match on variable 0
        direct = max(np.abs(post[j] - truth[j]).max() for j in range(3))
        swapped = max(np.abs(post[j] - truth[j][::-1]).max() for j in range(3))
        assert min(direct, swapped) < 0.1

    def test_determinism(self):
        data = gen_multmix_data(80, seed=Seed(3))
        a = multmix_gibbs_fit(data, 2, 300, 100, 4, Seed(3).stream("f"))
        b = multmix_gibbs_fit(data, 2, 300, 100, 4, Seed(3).stream("f"))
        assert np.array_equal(a.states[-1].weights, b.states[-1].weights)
        assert a.model_id == "multmix-K2"

    def test_requires_onehot(self):
        with pytest.raises(DataError):
            multmix_gibbs_fit(gen_gmm_data(10, Seed(0)), 2, stream=Seed(0).stream("f"))

    def test_loglik_matches_per_state_reference(self):
        data = gen_multmix_data(90, seed=Seed(26))
        codes = data.codes()
        # from eight classes on, numpy sums a contiguous class axis pairwise
        for K in (3, 8, 11):
            fit = multmix_gibbs_fit(data, K, 60, 20, 4, Seed(26).stream("f"))
            ref = []
            for s in fit.states:
                logp = np.log(s.weights)[None, :]
                for j, t in enumerate(s.tables):
                    logp = logp + np.log(t[:, codes[:, j]]).T
                ref.append(float(logsumexp(logp, axis=1).sum()))
            assert np.array_equal(fit.loglik, ref)

    def test_loglik_refuses_the_states_the_diagnostic_refuses(self):
        data = gen_multmix_data(30, seed=Seed(26))
        state = multmix_gibbs_fit(data, 2, 6, 2, 2, Seed(26).stream("f")).states[0]
        negative = dataclasses.replace(state, weights=np.array([1.5, -0.5]))
        ragged = dataclasses.replace(state, tables=state.tables[:-1])
        for bad, message in ((negative, "class weights and table cells must be finite "
                                        "and non-negative"),
                             (ragged, "every state needs K class weights and one K-row "
                                      "table per variable, all of one shape")):
            for score in (multmix_full_loglik, _multmix_scores):
                with pytest.raises(StateError) as err:
                    score(data, [state, bad])
                assert str(err.value) == message

    def test_logpost_matches_per_row_prior_loop(self):
        def dirichlet_logpdf(p, alpha):
            a = np.full(len(p), alpha)
            return float(((a - 1) * np.log(p)).sum() + math.lgamma(a.sum())
                         - np.array([math.lgamma(v) for v in a]).sum())

        def log_prior(state):
            lp = dirichlet_logpdf(state.weights, MULTMIX_ALPHA_PI)
            for table in state.tables:
                for row in table:
                    lp += dirichlet_logpdf(row, MULTMIX_ALPHA)
            return lp

        data = gen_multmix_data(90, seed=Seed(27))
        for K in (1, 2, 3, 4):
            fit = multmix_gibbs_fit(data, K, 60, 20, 4, Seed(27).stream("f", K))
            prior = [log_prior(s) for s in fit.states]
            assert np.array_equal(_multmix_log_prior(fit.states), prior)
            assert np.array_equal(fit.logpost, [ll + lp for ll, lp in zip(fit.loglik, prior)])

    def test_cell_counts_match_add_at(self):
        # every iteration is kept, so the gamma shapes of iteration it must be
        # the prior plus the class counts, then the cell counts table by
        # table, of state it's labels
        class Recording:
            def __init__(self, g):
                self.g, self.shapes = g, []

            def standard_gamma(self, shape, *args):
                self.shapes.append(np.array(shape))
                return self.g.standard_gamma(shape, *args)

            def __getattr__(self, name):
                return getattr(self.g, name)

        data = gen_multmix_data(60, seed=Seed(23))
        codes, sizes = data.codes(), data.level_sizes
        rec = Recording(Seed(23).stream("f").generator)
        fit = multmix_gibbs_fit(data, 3, 30, 0, 1, type("S", (), {"generator": rec}))
        assert len(rec.shapes) == 30
        for shape, state in zip(rec.shapes, fit.states):
            cells = []
            for j, L in enumerate(sizes):
                cell = np.zeros((3, L))
                np.add.at(cell, (state.assignments, codes[:, j]), 1.0)
                cells.append(cell.ravel())
            counts = np.bincount(state.assignments, minlength=3)
            assert np.array_equal(shape[:3], MULTMIX_ALPHA_PI + counts)
            assert np.array_equal(shape[3:], MULTMIX_ALPHA + np.concatenate(cells))

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_fit_matches_reference_sweep(self, K):
        # the sweep on the chain's own stream: the (4, 3, 3) preset at two
        # sizes, 20 three-level variables, level sizes of 1 and of 8 or more
        # (whose row sums numpy adds in pairwise blocks), and three rows,
        # where classes empty out
        g = Seed(40).stream("codes").generator
        many = Dataset(g.integers(0, 3, (90, 20)).astype(float), level_sizes=(3,) * 20)
        sizes = (10, 1, 3, 8, 3, 3)
        mixed = Dataset(np.column_stack([g.integers(0, L, 120) for L in sizes]).astype(float),
                        level_sizes=sizes)
        tiny = Dataset(np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]), level_sizes=(4, 2))
        cases = ((gen_multmix_data(60, seed=Seed(41)), "60"),
                 (gen_multmix_data(170, seed=Seed(42)), "170"),
                 (many, "many"), (mixed, "mixed"), (tiny, "tiny"))
        for data, label in cases:
            fit = multmix_gibbs_fit(data, K, 60, 20, 2, Seed(K).stream("f", label))
            ref = _multmix_gibbs_reference(data, K, 60, 20, 2, Seed(K).stream("f", label))
            assert len(fit.states) == len(ref[0]) == 20
            for got, want in zip(fit.states, ref[0]):
                for name in ("weights", "assignments"):
                    assert np.array_equal(getattr(got, name), getattr(want, name))
                    assert getattr(got, name).dtype == getattr(want, name).dtype
                assert len(got.tables) == len(want.tables)
                for a, b in zip(got.tables, want.tables):
                    assert a.shape == b.shape and np.array_equal(a, b)
            assert np.array_equal(fit.loglik, ref[1])
            assert np.array_equal(fit.logpost, ref[2])
        if K > 3:  # the three-row chain did empty a class
            assert any(np.bincount(s.assignments, minlength=K).min() == 0 for s in fit.states)

    def test_logits_built_in_parts_match_the_reference(self, monkeypatch):
        # 3 classes x 11 terms, so parts of 6 rows and a last part of 4
        monkeypatch.setattr(mixtures, "BLOCK_CELLS", 200)
        data = gen_multmix_data(64, seed=Seed(43))
        fit = multmix_gibbs_fit(data, 3, 30, 10, 2, Seed(3).stream("f"))
        ref = _multmix_gibbs_reference(data, 3, 30, 10, 2, Seed(3).stream("f"))
        for got, want in zip(fit.states, ref[0]):
            assert np.array_equal(got.assignments, want.assignments)
            assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(fit.logpost, ref[2])


def _categorical(n, level_sizes, label):
    """n rows of uniform level codes, drawn from their own stream."""
    g = Seed(44).stream("codes", label).generator
    return Dataset(np.column_stack([g.integers(0, L, n) for L in level_sizes]).astype(float),
                   level_sizes=level_sizes)


def _assert_same_draws(got, want):
    """got and want hold the same chain: every state array, with its dtype,
    shape and bits, and the same loglik and logpost."""
    assert got.model_id == want.model_id and len(got.states) == len(want.states)
    for a, b in zip(got.states, want.states):
        pairs = [(a.weights, b.weights), (a.assignments, b.assignments)]
        assert len(a.tables) == len(b.tables)
        for u, v in pairs + list(zip(a.tables, b.tables)):
            assert u.dtype == v.dtype and u.shape == v.shape and np.array_equal(u, v)
    for name in ("loglik", "logpost"):
        u, v = getattr(got, name), getattr(want, name)
        assert u.dtype == v.dtype and np.array_equal(u, v)


class TestMultMixFits:
    """Chains run in one loop give what each gives alone, bit for bit."""

    # (datasets, Ks): K 1-4 at unequal n; K 8 and 11, whose classes numpy
    # sums pairwise; level sizes of 1 and of 8 or more, whose rows numpy
    # sums pairwise; three rows, where classes empty out; one row of nine
    # variables, whose ten terms numpy would add pairwise in a part of one
    # row
    CASES = {
        "K1-4": (lambda: [gen_multmix_data(n, seed=Seed(n)) for n in (60, 170, 90, 120)],
                 (1, 2, 3, 4)),
        "K8-11": (lambda: [gen_multmix_data(90, seed=Seed(26)),
                           gen_multmix_data(61, seed=Seed(27)),
                           gen_multmix_data(90, seed=Seed(26))], (8, 11, 2)),
        "mixed-levels": (lambda: [_categorical(n, (10, 1, 3, 8, 3, 3), n) for n in (120, 50)],
                         (4, 2)),
        "three-rows": (lambda: [Dataset(np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
                                        level_sizes=(4, 2)), _categorical(3, (4, 2), 3),
                                _categorical(40, (4, 2), 40)], (4, 3, 1)),
        "one-row": (lambda: [_categorical(1, (3,) * 9, 1), _categorical(5, (3,) * 9, 5)],
                    (2, 3)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_group_matches_lone_chains(self, case):
        make, Ks = self.CASES[case]
        xs = make()
        streams = [Seed(45).stream("f", case, c) for c in range(len(xs))]
        grouped = mixtures.multmix_gibbs_fits(xs, Ks, 60, 20, 2, streams)
        assert len(grouped) == len(xs)
        for c, (x, K, got) in enumerate(zip(xs, Ks, grouped)):
            want = multmix_gibbs_fit(x, K, 60, 20, 2, Seed(45).stream("f", case, c))
            _assert_same_draws(got, want)
        if case == "three-rows":  # the three-row chain did empty a class
            assert any(np.bincount(s.assignments, minlength=4).min() == 0
                       for s in grouped[0].states)

    @pytest.mark.parametrize("rows, part", [((1,), None), ((30, 20), 1), ((4, 1), None)],
                             ids=["one-row", "parts", "group"])
    def test_label_draw_sees_the_terms_added_in_order(self, monkeypatch, rows, part):
        # numpy adds the ten terms of a part of one row pairwise, yet a
        # one-row chain, and the rows before a last part of one, must add
        # them in order: here BLOCK_CELLS holds one row's terms, and the 50
        # rows, all distinct, and a spare column come in parts of two.  A
        # last bit seldom moves a label, so the logits themselves are
        # compared.
        if part:
            monkeypatch.setattr(mixtures, "BLOCK_CELLS", 3 * 28 * part)
        seen = []

        def recorded(logits, u):
            seen.append(logits.copy())
            return draw_labels(logits, u)

        draw_labels = mixtures._draw_labels
        monkeypatch.setattr(mixtures, "_draw_labels", recorded)
        xs = [_categorical(n, (3,) * 9, n) for n in rows]
        Ks = (3, 2)[:len(xs)]
        fits = mixtures.multmix_gibbs_fits(xs, Ks, 8, 0, 1,
                                           [Seed(48).stream("f", c) for c in range(len(xs))])
        assert len(seen) == 8
        for it in range(1, 8):
            want = np.full((max(Ks), sum(rows)), -np.inf)
            at = 0
            for x, K, fit in zip(xs, Ks, fits):
                s = fit.states[it - 1]
                terms = np.log(s.weights)[:, None] + np.zeros(x.n)
                for j, t in enumerate(s.tables):
                    terms = terms + np.log(t[:, x.codes()[:, j]])
                want[:K, at:at + x.n] = terms
                at += x.n
            assert np.array_equal(seen[it], want)

    def test_logits_built_in_parts(self, monkeypatch):
        # 3 classes x 28 terms at most, so parts of 5 rows
        monkeypatch.setattr(mixtures, "BLOCK_CELLS", 3 * 28 * 5)
        xs = [_categorical(n, (3,) * 9, n) for n in (30, 20)]
        grouped = mixtures.multmix_gibbs_fits(
            xs, (3, 2), 30, 10, 2, [Seed(47).stream("f", c) for c in range(2)])
        for c, (x, K, got) in enumerate(zip(xs, (3, 2), grouped)):
            _assert_same_draws(got, multmix_gibbs_fit(x, K, 30, 10, 2, Seed(47).stream("f", c)))
            ref = _multmix_gibbs_reference(x, K, 30, 10, 2, Seed(47).stream("f", c))
            assert np.array_equal(got.logpost, ref[2])

    def test_refusals(self):
        x, other = gen_multmix_data(30, seed=Seed(1)), _categorical(30, (4, 3), "other")
        streams = [Seed(1).stream("f", c) for c in range(2)]
        with pytest.raises(DimensionError, match="same level sizes"):
            mixtures.multmix_gibbs_fits([x, other], (2, 2), 10, 5, 1, streams)
        for xs, Ks, given in (([x, x], (2,), streams), ([x], (2,), streams), ([], (), ())):
            with pytest.raises(ParameterError, match="one K and one stream"):
                mixtures.multmix_gibbs_fits(xs, Ks, 10, 5, 1, given)
        with pytest.raises(DataError):
            mixtures.multmix_gibbs_fits([x, gen_gmm_data(30, Seed(1))], (2, 2), 10, 5, 1, streams)

    @pytest.mark.parametrize("fit, data", [
        (multmix_gibbs_fit, lambda: gen_multmix_data(30, seed=Seed(1))),
        (gmm_gibbs_fit, lambda: gen_gmm_data(30, Seed(1)))], ids=["multmix", "gmm"])
    def test_missing_stream_is_a_parameter_error(self, fit, data):
        with pytest.raises(ParameterError, match="a Gibbs chain needs a VariateStream, not None"):
            fit(data(), 2, 10, 5, 1)


class TestMultMixPredictive:
    def test_frequencies_match_posterior(self):
        data = gen_multmix_data(800, K_true=1, seed=Seed(15))
        fit = multmix_gibbs_fit(data, 1, 800, 300, 5, Seed(15).stream("f"))
        reps = multmix_predictive(fit, 1000, 20, Seed(15).stream("r"))
        post_table = np.mean([s.tables[0][0] for s in fit.states], axis=0)
        freq = np.mean([np.bincount(rep.codes()[:, 0], minlength=4) / rep.n
                        for rep in _datasets(reps)], axis=0)
        assert np.allclose(freq, post_table, atol=0.05)

    def test_onehot_and_determinism(self):
        data = gen_multmix_data(100, seed=Seed(16))
        fit = multmix_gibbs_fit(data, 2, 300, 100, 5, Seed(16).stream("f"))
        a = multmix_predictive(fit, 50, 4, Seed(16).stream("r"))
        b = multmix_predictive(fit, 50, 4, Seed(16).stream("r"))
        assert a.level_sizes == (4, 3, 3)
        assert np.array_equal(a.values, b.values)

    def test_block_rows_match_the_per_replicate_recipe(self):
        data = gen_multmix_data(100, seed=Seed(16))
        fit = multmix_gibbs_fit(data, 2, 300, 100, 5, Seed(16).stream("f"))
        stream = Seed(16).stream("r")
        block = multmix_predictive(fit, 50, 12, stream)
        assert isinstance(block, ReplicateBlock) and block.level_sizes == (4, 3, 3)
        for r, rep in enumerate(block.values):
            g = stream.substream(r).generator
            state = fit.states[int(g.integers(fit.B))]
            z = categorical(g, state.weights, 50)
            want = np.empty((50, 3), dtype=int)
            for j, table in enumerate(state.tables):
                cum = np.cumsum(table, axis=1)[z]
                want[:, j] = np.minimum((cum[:, :-1] < g.random(50)[:, None]).sum(1),
                                        table.shape[1] - 1)
            assert rep.tobytes() == want.astype(float).tobytes()


class TestMultMixDiagnostic:
    def test_perfect_prediction(self):
        state = MultMixState(np.array([1.0]),
                             (np.array([[1.0, 0.0]]), np.array([[1.0, 0.0, 0.0]])),
                             np.zeros(1, dtype=int))
        x = Dataset([[0, 0]], level_sizes=(2, 3))
        assert _multmix_scores(x, [state])[0] == 0.0

    def test_half_probability_single_variable(self):
        state = MultMixState(np.array([1.0]), (np.array([[0.5, 0.5]]),),
                             np.zeros(1, dtype=int))
        x = Dataset([[0]], level_sizes=(2,))
        assert abs(_multmix_scores(x, [state])[0] - 2 * np.log(2)) < 1e-12

    def test_doubling_additivity(self):
        data = gen_multmix_data(40, seed=Seed(17))
        fit = multmix_gibbs_fit(data, 2, 200, 100, 10, Seed(17).stream("f"))
        state = fit.states[0]
        doubled = Dataset(np.vstack([data.values, data.values]), level_sizes=data.level_sizes)
        single = _multmix_scores(data, [state])[0]
        assert abs(_multmix_scores(doubled, [state])[0] - 2 * single) < 1e-9

    def test_label_permutation_invariance(self):
        data = gen_multmix_data(40, seed=Seed(18))
        fit = multmix_gibbs_fit(data, 2, 200, 100, 10, Seed(18).stream("f"))
        s = fit.states[0]
        flipped = MultMixState(s.weights[::-1].copy(),
                               tuple(t[::-1].copy() for t in s.tables),
                               s.assignments)
        assert abs(_multmix_scores(data, [s])[0]
                   - _multmix_scores(data, [flipped])[0]) < 1e-9

    def test_zero_cell_sentinel(self):
        state = MultMixState(np.array([1.0]), (np.array([[0.0, 1.0]]),),
                             np.zeros(1, dtype=int))
        x = Dataset([[0]], level_sizes=(2,))
        assert _multmix_scores(x, [state])[0] == np.inf

    def test_batch_shape(self):
        data = gen_multmix_data(20, seed=Seed(19))
        fit = multmix_gibbs_fit(data, 2, 200, 100, 20, Seed(19).stream("f"))
        vals = _multmix_scores(data, fit.states)
        assert vals.shape == (len(fit.states),)
        assert np.all(vals > 0)

    @staticmethod
    def _reference(x, state):
        """Responsibilities by logsumexp, predicted cells over every level."""
        codes = x.codes()
        logp = np.log(state.weights) + sum(np.log(t[:, codes[:, j]]).T
                                           for j, t in enumerate(state.tables))
        resp = np.exp(logp - logsumexp(logp, axis=1)[:, None])
        return sum(-2.0 * np.log((resp @ t)[np.arange(x.n), codes[:, j]]).sum()
                   for j, t in enumerate(state.tables))

    def test_stacked_batch_matches_per_state_reference(self):
        data = gen_multmix_data(150, seed=Seed(24))
        x = gen_multmix_data(70, seed=Seed(25))
        for K in (1, 3):
            fit = multmix_gibbs_fit(data, K, 200, 100, 4, Seed(24).stream("f", K))
            ref = np.array([self._reference(x, s) for s in fit.states])
            for _ in range(2):  # every call stacks the draws' states afresh
                got = _multmix_scores(x, fit.states)
                assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))

    def test_zero_likelihood_row_gets_uniform_responsibilities(self):
        # the row (0, 0) is impossible under both classes; uniform weights
        # predict (0 + 0.4) / 2 and (0.8 + 0) / 2, not the class weights
        state = MultMixState(np.array([0.9, 0.1]),
                             (np.array([[0.0, 1.0], [0.4, 0.6]]),
                              np.array([[0.8, 0.2], [0.0, 1.0]])),
                             np.zeros(1, dtype=int))
        x = Dataset([[0, 0]], level_sizes=(2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _multmix_scores(x, [state])[0]
        assert abs(got + 2.0 * np.log(0.2 * 0.4)) < 1e-12

    def test_bad_states_raise_on_every_call_without_warning(self):
        x = Dataset([[0, 1], [1, 0]], level_sizes=(2, 2))
        table = np.array([[0.5, 0.5], [0.25, 0.75]])

        def state(weights, t0=table, t1=table):
            return MultMixState(np.array(weights), (t0, t1), np.zeros(1, dtype=int))

        bad = [state([1.2, -0.2]), state([0.5, np.nan]), state([0.5, np.inf]),
               state([0.5, 0.5], t0=np.array([[1.5, -0.5], [0.5, 0.5]])),
               state([0.5, 0.5], t1=np.array([[np.nan, 1.0], [0.5, 0.5]])),
               state([0.5, 0.5], t0=table[:1]),
               state([0.5, 0.5], t1=np.ones(2) / 2),
               state([1.0])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in bad:
                batch = PosteriorDraws((s,), "multmix").states
                for _ in range(2):
                    with pytest.raises(StateError):
                        _multmix_scores(x, batch)
            mixed = PosteriorDraws((state([0.5, 0.5]), state([1.0, 0.0, 0.0])), "multmix")
            with pytest.raises(StateError):
                _multmix_scores(x, mixed.states)
            # a zero weight or cell is probability 0, not an error
            zeros = state([1.0, 0.0], t0=np.array([[1.0, 0.0], [1.0, 0.0]]))
            good = PosteriorDraws((zeros,), "multmix").states
            assert _multmix_scores(x, good)[0] == np.inf
            assert np.isfinite(_multmix_scores(
                Dataset([[0, 1]], level_sizes=(2, 2)), good)[0])
            with pytest.raises(DimensionError):
                _multmix_scores(Dataset([[0, 1]], level_sizes=(2, 3)), good)

    @staticmethod
    def _each_alone(block, states):
        return np.array([_multmix_scores(rep, states) for rep in _datasets(block)])

    def _assert_block_matches(self, block, states):
        got = multmix_chi2_diagnostic_batch(block, states)
        assert got.shape == (len(block), len(states))
        assert got.tobytes() == self._each_alone(block, states).tobytes()
        return got

    def test_zero_cell_is_infinite_only_where_a_replicate_has_it(self):
        # level 0 of the first variable has probability 0 under both classes
        table = np.array([[0.0, 0.5, 0.5], [0.0, 0.2, 0.8]])
        state = MultMixState(np.array([0.3, 0.7]), (table, np.array([[0.4, 0.6], [0.9, 0.1]])),
                             np.zeros(1, dtype=int))
        g = np.random.default_rng(3)
        codes = np.stack([g.integers(1, 3, (6, 20)), g.integers(0, 2, (6, 20))], axis=-1)
        codes[[1, 4], 7, 0] = 0
        got = self._assert_block_matches(ReplicateBlock(codes, level_sizes=(3, 2)), [state])
        assert np.array_equal(np.isinf(got[:, 0]), np.isin(np.arange(6), [1, 4]))

    def test_zero_likelihood_row_in_a_block(self):
        # (0, 0) is impossible under both classes, as in the single-row case
        state = MultMixState(np.array([0.9, 0.1]),
                             (np.array([[0.0, 1.0], [0.4, 0.6]]),
                              np.array([[0.8, 0.2], [0.0, 1.0]])),
                             np.zeros(1, dtype=int))
        codes = np.array([[[0, 0], [1, 1], [0, 1]], [[1, 0], [1, 1], [1, 0]],
                          [[0, 0], [0, 0], [1, 1]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = self._assert_block_matches(ReplicateBlock(codes, level_sizes=(2, 2)), [state])
        assert np.all(np.isfinite(got))

    def test_level_sizes_whose_product_overflows_64_bits(self):
        # 70 binary variables: 2**70 possible rows, an exact int, so the set
        # is scored row by row
        g = np.random.default_rng(4)
        states = [MultMixState(np.array([0.4, 0.6]), tuple(g.dirichlet([2.0, 2.0], size=2)
                                                           for _ in range(70)),
                               np.zeros(1, dtype=int)) for _ in range(3)]
        base = g.integers(0, 2, (10, 40, 70))
        base[3, :20] = base[3, 20:]
        # rows that differ in the first variable only: a mixed-radix index
        # of all 70 codes in 64 bits would wrap and give them one index
        base[1, :, 1:] = base[1, 0, 1:]
        base[1, :, 0] = np.arange(40) % 2
        block = ReplicateBlock(np.tile(base, (7, 1, 1)), level_sizes=(2,) * 70)
        # runs of at least 20 replicates, the last one shorter
        assert 20 <= mixtures.BLOCK_CELLS // (block.n * 70 * 3) < len(block)
        got = self._assert_block_matches(block, PosteriorDraws(states, "multmix-K2").states)
        assert np.array_equal(got[15], got[5])
        ref = [self._reference(_datasets(block)[1], s) for s in states]
        assert np.all(np.abs(got[1] - ref) <= 1e-12 * np.abs(ref))

    def test_every_row_distinct(self):
        g = np.random.default_rng(5)
        rows = g.permutation(50 * 50)[:2000]
        codes = np.stack([rows // 50, rows % 50], axis=-1).reshape(4, 500, 2)
        states = [MultMixState(w, (g.dirichlet(np.ones(50), size=3),
                                   g.dirichlet(np.ones(50), size=3)), np.zeros(1, dtype=int))
                  for w in g.dirichlet(np.ones(3), size=5)]
        self._assert_block_matches(ReplicateBlock(codes, level_sizes=(50, 50)),
                                   PosteriorDraws(states, "multmix-K3").states)

    @staticmethod
    def _every_row(x, states):
        """The kernel's arithmetic over every row of x, none shared: n x K x B
        responsibilities, then sums over rows and then over variables."""
        stack = mixtures._MultMixStack.of(states)
        codes = x.codes()
        logits = stack.log_weights + stack.log_tables[0][codes[:, 0]]
        for j in range(1, x.d):
            logits += stack.log_tables[j][codes[:, j]]
        top = logits.max(axis=1, keepdims=True)
        dead = np.isneginf(top)
        np.copyto(logits, 0.0, where=dead)
        top[dead] = 0.0
        resp = np.exp(logits - top)
        resp /= resp.sum(axis=1, keepdims=True)
        obs = np.empty((x.d, x.n, len(states)))
        for j in range(x.d):
            np.einsum("nkb,nkb->nb", resp, stack.tables[j][codes[:, j]], out=obs[j])
        with np.errstate(divide="ignore"):
            return 0.0 - 2.0 * np.log(obs).sum(axis=1).sum(axis=0)

    def test_dataset_sums_as_if_no_row_were_shared(self):
        # the rows of a replicate are summed in order whichever distinct row
        # they share: pairwise over rows for one state, row by row for several
        data = gen_multmix_data(150, seed=Seed(28))
        fit = multmix_gibbs_fit(data, 3, 200, 100, 4, Seed(28).stream("f"))
        for n in (1, 7, 170, 1000):
            x = gen_multmix_data(n, seed=Seed(29 + n))
            for states in (fit.states, [fit.map_state()]):
                got = _multmix_scores(x, states)
                assert got.tobytes() == self._every_row(x, states).tobytes()

    def test_many_variables_at_one_state(self):
        # over 8 variables a dataset's sum over them at one state is
        # pairwise; parts of several replicates, and a run of every row,
        # must sum each replicate's variables in that order too
        g = np.random.default_rng(8)
        states = [MultMixState(w, tuple(g.dirichlet(np.ones(3), size=2) for _ in range(20)),
                               np.zeros(1, dtype=int)) for w in g.dirichlet(np.ones(2), size=4)]
        distinct = g.integers(0, 3, (40, 30, 20))
        repeated = distinct.copy()
        repeated[:, :, 2:] = distinct[0, 0, 2:]
        for codes in (distinct, repeated):
            block = ReplicateBlock(codes, level_sizes=(3,) * 20)
            assert 1 < mixtures._GATHER_CELLS // (block.n * block.d) < len(block)
            for batch in (states, states[:1]):
                got = self._assert_block_matches(block, batch)
                ref = [self._every_row(rep, batch) for rep in _datasets(block)]
                assert got.tobytes() == np.array(ref).tobytes()

    def test_fitted_states_over_several_runs_and_parts(self):
        data = gen_multmix_data(150, seed=Seed(27))
        fit = multmix_gibbs_fit(data, 3, 200, 100, 4, Seed(27).stream("f"))
        reps = multmix_predictive(fit, 100, 700, Seed(27).stream("r"))
        # the 36 possible rows are looked up; at 25 states the replicates
        # are numbered in several runs, each gathered in several parts, and
        # at one state in one run, gathered in several parts
        cells = reps.n * reps.d * fit.B
        assert 1 < mixtures.BLOCK_CELLS // cells < len(reps)
        assert mixtures._GATHER_CELLS // cells < mixtures.BLOCK_CELLS // cells
        assert len(reps) * reps.n * reps.d > mixtures._GATHER_CELLS
        for states in (fit.states, [fit.map_state()]):
            self._assert_block_matches(reps, states)

    def test_many_binary_variables_looked_up_at_one_state(self):
        # 10 binary variables: 1024 possible rows, looked up; over 8
        # variables a dataset's sum over them at one state is pairwise, and
        # a part of several replicates, not all, must keep that order
        g = np.random.default_rng(9)
        states = [MultMixState(w, tuple(g.dirichlet(np.ones(2), size=2) for _ in range(10)),
                               np.zeros(1, dtype=int)) for w in g.dirichlet(np.ones(2), size=4)]
        block = ReplicateBlock(g.integers(0, 2, (40, 60, 10)), level_sizes=(2,) * 10)
        assert 2**10 <= min(len(block) * block.n, mixtures.BLOCK_CELLS // (10 * len(states)))
        assert 1 < mixtures._GATHER_CELLS // (block.n * block.d) < len(block)
        for batch in (states, states[:1]):
            got = self._assert_block_matches(block, batch)
            ref = [self._every_row(rep, batch) for rep in _datasets(block)]
            assert got.tobytes() == np.array(ref).tobytes()

    def test_lookup_or_row_by_row(self, monkeypatch):
        # P = 4 x 5 = 20 possible rows, K = 3, d = 2, B = 5: the possible
        # rows are looked up when P <= min(R x n, BLOCK_CELLS // (3 x 5));
        # otherwise every row is scored, a run of BLOCK_CELLS // (n x 15)
        # replicates at a time.  The second variable takes 2 of its 5
        # levels, so no set holds more than 8 distinct rows.
        g = np.random.default_rng(6)
        states = PosteriorDraws(tuple(
            MultMixState(w, (g.dirichlet(np.ones(4), size=3), g.dirichlet(np.ones(5), size=3)),
                         np.zeros(1, dtype=int)) for w in g.dirichlet(np.ones(3), size=5)),
            "multmix-K3").states
        scored = []
        log_obs = mixtures._multmix_log_obs
        monkeypatch.setattr(mixtures, "_multmix_log_obs",
                            lambda codes, stack: scored.append(len(codes)) or log_obs(codes, stack))
        cases = [(300, 10, 4, [20]),          # P < R x n, the possible rows fit
                 (300, 5, 4, [20]),           # P = R x n
                 (300, 3, 6, [18]),           # P > R x n: one run of 3
                 (299, 10, 4, [16, 16, 8]),   # P > 299 // 15: runs of 4
                 (300, None, 20, [20]),       # a Dataset: R = 1
                 (300, None, 19, [19])]
        for cells, R, n, want in cases:
            monkeypatch.setattr(mixtures, "BLOCK_CELLS", cells)
            codes = np.stack([g.integers(0, 4, (R or 1, n)), g.integers(0, 2, (R or 1, n))], -1)
            x = (Dataset(codes[0], level_sizes=(4, 5)) if R is None
                 else ReplicateBlock(codes, level_sizes=(4, 5)))
            scored.clear()
            got = (_multmix_scores if R is None else multmix_chi2_diagnostic_batch)(x, states)
            assert scored == want
            ref = self._every_row(x, states) if R is None else self._each_alone(x, states)
            assert got.tobytes() == ref.tobytes()

    def test_block_refusals(self):
        table = np.array([[0.5, 0.5], [0.25, 0.75]])
        block = ReplicateBlock(np.zeros((3, 2, 2)), level_sizes=(2, 2))
        z = np.zeros(1, dtype=int)
        good = MultMixState(np.array([0.5, 0.5]), (table, table), z)
        for bad in (MultMixState(np.array([1.2, -0.2]), (table, table), z),
                    MultMixState(np.array([0.5, 0.5]), (table[:1], table), z)):
            with pytest.raises(StateError):
                multmix_chi2_diagnostic_batch(block, [bad])
        with pytest.raises(DimensionError):
            multmix_chi2_diagnostic_batch(ReplicateBlock(np.zeros((3, 2, 2)), level_sizes=(2, 3)),
                                          [good])
        with pytest.raises(DimensionError):
            multmix_chi2_diagnostic_batch(ReplicateBlock(np.zeros((3, 2, 1)), level_sizes=(2,)),
                                          [good])
        with pytest.raises(DataError, match="categorical"):
            multmix_chi2_diagnostic_batch(ReplicateBlock(np.zeros((3, 2, 2))), [good])


class TestGammaVariates:
    """The samplers draw standard Gamma variates and scale them, which must
    give numpy's own Dirichlet and scaled Gamma variates byte for byte."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_normalised_gammas_are_dirichlet_variates(self, seed):
        pick = Seed(seed).stream("alpha").generator
        for L in range(1, 9):
            for alpha in (np.ones(L), 2.0 + pick.integers(0, 500, L), 1.0 + 40.0 * pick.random(L)):
                want = Seed(seed).stream("draw", L).generator
                got = Seed(seed).stream("draw", L).generator
                for _ in range(3):
                    a = want.dirichlet(alpha)
                    b = mixtures._dirichlet_from_gammas(got.standard_gamma(alpha))
                    assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_scaled_standard_gammas_are_gamma_variates(self, seed):
        pick = Seed(seed).stream("shape").generator
        for K, D in ((1, 1), (3, 2), (4, 5)):
            shape = 1.0 + pick.integers(0, 300, (K, 1)) / 2.0
            scale = 1.0 + 50.0 * pick.random((K, D))
            want = Seed(seed).stream("draw", K).generator
            got = Seed(seed).stream("draw", K).generator
            a = want.gamma(shape, 1.0 / scale)
            b = got.standard_gamma(shape, scale.shape) * (1.0 / scale)
            assert a.tobytes() == b.tobytes()


class TestPredictiveWeights:
    @pytest.mark.parametrize("family", ["gmm", "multmix"])
    def test_bad_weights_raise_once_a_replicate_draws_them(self, family):
        # the state's weights are checked when a replicate first draws it,
        # so the predictive raises exactly when one of its R replicates does
        weights = (np.array([0.5, 0.5]), np.array([0.5, 0.4]))
        if family == "gmm":
            states = [GmmState(np.zeros((2, 1)), np.ones((2, 1)), np.zeros(1, dtype=int), w)
                      for w in weights]
            predictive = gmm_predictive
        else:
            states = [MultMixState(w, (np.full((2, 3), 1 / 3),), np.zeros(1, dtype=int))
                      for w in weights]
            predictive = multmix_predictive
        fit = PosteriorDraws(tuple(states), f"{family}-K2")
        stream = Seed(3).stream("bad")
        picks = [int(stream.substream(r).generator.integers(2)) for r in range(8)]
        assert 0 in picks and 1 in picks
        for R in range(1, 9):
            if 1 in picks[:R]:
                with pytest.raises(ParameterError, match="sum to 1"):
                    predictive(fit, 5, R, stream)
            else:
                predictive(fit, 5, R, stream)

    @pytest.mark.parametrize("family", ["gmm", "multmix"])
    @pytest.mark.parametrize("weights", [(np.nan, 1.0), (np.nan, np.nan), (0.5, np.nan)])
    def test_nan_weights_raise(self, family, weights):
        w = np.array(weights)
        if family == "gmm":
            state = GmmState(np.zeros((2, 1)), np.ones((2, 1)), np.zeros(1, dtype=int), w)
            predictive = gmm_predictive
        else:
            state = MultMixState(w, (np.full((2, 3), 1 / 3),), np.zeros(1, dtype=int))
            predictive = multmix_predictive
        with pytest.raises(ParameterError, match="NaN"):
            predictive(PosteriorDraws((state,), f"{family}-K2"), 5, 3, Seed(3).stream("nan"))


class TestPriorConstants:
    """The log-Gamma constants of both log priors come from math.lgamma.
    They may differ from scipy.special.gammaln in the last bit, and shift
    every state's log prior by the same amount."""

    @pytest.mark.parametrize("K", range(1, 11))
    def test_gmm_log_prior_matches_gammaln(self, K):
        # zero means, unit variances and weights of one leave the constants
        # and a few exact terms
        means, variances, weights = np.zeros((K, 1)), np.ones((K, 1)), np.ones(K)
        a, b = GMM_IG_SHAPE, GMM_IG_SCALE
        ref = -0.5 * (means**2 / GMM_MEAN_VAR + np.log(2 * np.pi * GMM_MEAN_VAR)).sum()
        ref += (a * np.log(b) - gammaln(a) - (a + 1) * np.log(variances) - b / variances).sum()
        ref += ((GMM_ALPHA_PI - 1) * np.log(weights).sum() + gammaln(K * GMM_ALPHA_PI)
                - K * gammaln(GMM_ALPHA_PI))
        assert abs(mixtures._gmm_log_prior(means, variances, weights) - ref) <= 1e-14

    @pytest.mark.parametrize("alpha", [MULTMIX_ALPHA, MULTMIX_ALPHA_PI])
    @pytest.mark.parametrize("L", range(1, 11))
    def test_dirichlet_constant_matches_gammaln(self, alpha, L):
        # at p = 1 every log p is 0, so the density is its constant alone
        a = np.full(L, alpha)
        ref = gammaln(a.sum()) - gammaln(a).sum()
        got = mixtures._dirichlet_log_density(np.ones((1, L)), alpha)
        assert got.shape == (1,) and abs(got[0] - ref) <= 1e-14


class TestFullLoglikBlocks:
    """Both full log-likelihoods take their states a block at a time; every
    state's value must be the one a single block of all states gives."""

    @pytest.mark.parametrize("family", ["gmm", "multmix"])
    @pytest.mark.parametrize("B", [1, 10, 11, 29, 900])
    def test_blocks_match_one_block(self, monkeypatch, family, B):
        # n = 100, K = 3: 300 cells a state, so blocks of 1 state, of 10 and
        # (by default) of 873
        if family == "gmm":
            data = gen_gmm_data(100, Seed(40))
            fit = gmm_gibbs_fit(data, 3, 40, 20, 2, Seed(40).stream("f"))
            loglik = gmm_full_loglik
        else:
            data = gen_multmix_data(100, seed=Seed(41))
            fit = multmix_gibbs_fit(data, 3, 40, 20, 2, Seed(41).stream("f"))
            loglik = multmix_full_loglik
        states = [fit.states[b % fit.B] for b in range(B)]
        blocked = {cells: None for cells in (1, 3000, mixtures.BLOCK_CELLS)}
        for cells in blocked:
            monkeypatch.setattr(mixtures, "BLOCK_CELLS", cells)
            blocked[cells] = loglik(data, states)
        monkeypatch.setattr(mixtures, "BLOCK_CELLS", 2**62)
        whole = loglik(data, states)
        assert whole.shape == (B,)
        for got in blocked.values():
            assert got.tobytes() == whole.tobytes()


class TestPosteriorDraws:
    def test_map_state(self):
        data = gen_gmm_data(50, Seed(20))
        fit = gmm_gibbs_fit(data, 1, 300, 100, 5, Seed(20).stream("f"))
        idx = int(np.argmax(fit.logpost))
        assert fit.map_state() is fit.states[idx]

    def test_needs_states(self):
        with pytest.raises(ParameterError):
            PosteriorDraws((), "m")

    def test_states_are_kept_as_one_batch(self):
        states = [_gmm_state([[0.0]], [[1.0]]), _gmm_state([[1.0]], [[2.0]])]
        draws = PosteriorDraws(states, "m")
        assert draws.states == tuple(states)
        assert draws.B == 2

    def test_map_needs_logpost(self):
        draws = PosteriorDraws((_gmm_state([[0.0]], [[1.0]]),), "m")
        with pytest.raises(StateError):
            draws.map_state()
