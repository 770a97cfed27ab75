"""Gibbs samplers, predictives, and realized diagnostics for the mixtures."""

import gc
import math
import warnings
import weakref

import numpy as np
import pytest

from ppn import mixtures
from ppn.core import Dataset, PosteriorDraws, ReplicateBlock, StateBatch
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
        empty = counts == 0
        if empty.any():
            k_empty = int(empty.sum())
            means[empty] = np.sqrt(GMM_MEAN_VAR) * g.standard_normal((k_empty, D))
            variances[empty] = 1.0 / g.gamma(GMM_IG_SHAPE, 1.0 / GMM_IG_SCALE, size=(k_empty, D))
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


def _gmm_diagnostic_reference(x, states, stream):
    """Reference scoring kernel: a label array, then the logits and log
    weights gathered at those labels."""
    means = np.stack([s.means for s in states]).transpose(2, 1, 0)      # D x K x B
    variances = np.stack([s.variances for s in states])
    log_weights = np.log(np.stack([s.weights for s in states])).T      # K x B
    half_prec = (0.5 / variances).transpose(2, 1, 0)
    offset = log_weights - 0.5 * np.log(variances).sum(-1).T
    D, K, B = means.shape
    n = x.n
    logits = np.empty((K, n, B))
    for k in range(K):
        logits[k] = offset[k]
        for d in range(D):
            sq = x.values[:, d, None] - means[d, k]
            sq *= sq
            sq *= half_prec[d, k]
            logits[k] -= sq
    e = logits - logits.max(axis=0)
    np.exp(e, out=e)
    threshold = stream.generator.random((n, B)) * e.sum(axis=0)
    labels = np.zeros((n, B), dtype=np.intp)
    cum = e[0].copy()
    for k in range(1, K):
        labels += cum < threshold
        cum += e[k]
    picked = np.take_along_axis(logits, labels[None], axis=0)[0]
    picked -= log_weights[labels, np.arange(B)]
    return picked.sum(axis=0)


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
        # two points cannot occupy three components; empty ones must carry
        # prior-distributed parameters: E[1/sigma^2] = 1, E[mu] = 0, var 25
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
        # points, where components go empty and are refreshed from the prior
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
        if K > 3:  # the three-point chain did refresh an empty component
            assert any(np.bincount(s.assignments, minlength=K).min() == 0 for s in fit.states)

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
        grand = np.mean([r.values.mean(axis=0) for r in reps], axis=0)
        assert np.all(np.abs(grand) < 0.2)
        assert all(r.n == 400 for r in reps)

    def test_components_follow_weights(self):
        state = GmmState(np.array([[0.0], [100.0]]), np.array([[1e-4], [1e-4]]),
                         np.zeros(1, dtype=int), np.array([0.7, 0.3]))
        fit = PosteriorDraws((state,), "gmm-K2")
        reps = gmm_predictive(fit, 2000, 20, Seed(7).stream("rep"))
        share = np.mean([(r.values[:, 0] > 50.0).mean() for r in reps])
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
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))

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
        assert gmm_loglik_diagnostic_batch(x, [state], Seed(0).stream("d"))[0] == 0.0

    def test_unit_residual(self):
        state = _gmm_state([[0.0, 0.0]], [[1.0, 1.0]])
        x = Dataset(np.array([[1.0, 0.0]]))
        assert abs(gmm_loglik_diagnostic_batch(x, [state], Seed(0).stream("d"))[0] + 0.5) < 1e-12

    def test_symmetric_components_deterministic(self):
        # identical components: the label draw cannot change the value
        state = GmmState(np.array([[0.0, 0.0], [0.0, 0.0]]),
                         np.array([[1.0, 1.0], [1.0, 1.0]]),
                         np.zeros(1, dtype=int), np.array([0.5, 0.5]))
        x = Dataset(np.array([[1.0, 0.0]]))
        vals = [gmm_loglik_diagnostic_batch(x, [state], Seed(i).stream("d"))[0] for i in range(5)]
        assert np.allclose(vals, -0.5)

    def test_label_permutation_invariance_in_expectation(self):
        state = GmmState(np.array([[0.0, 0.0], [3.0, 3.0]]),
                         np.array([[1.0, 1.0], [2.0, 2.0]]),
                         np.zeros(1, dtype=int), np.array([0.5, 0.5]))
        flipped = GmmState(state.means[::-1].copy(), state.variances[::-1].copy(),
                           state.assignments, state.weights[::-1].copy())
        x = gen_gmm_data(40, Seed(12))
        a = np.mean([gmm_loglik_diagnostic_batch(x, [state], Seed(i).stream("p"))[0]
                     for i in range(400)])
        b = np.mean([gmm_loglik_diagnostic_batch(x, [flipped], Seed(i).stream("q"))[0]
                     for i in range(400)])
        assert abs(a - b) < 3.0

    def test_batch_shape_and_errors(self):
        states = [_gmm_state([[0.0, 0.0]], [[1.0, 1.0]]) for _ in range(7)]
        x = gen_gmm_data(10, Seed(1))
        vals = gmm_loglik_diagnostic_batch(x, states, Seed(1).stream("b"))
        assert vals.shape == (7,)
        bad = _gmm_state([[0.0, 0.0]], [[1.0, -1.0]])
        with pytest.raises(StateError):
            gmm_loglik_diagnostic_batch(x, [bad], Seed(1).stream("b"))

    def test_label_draw_follows_weights(self):
        # at the shared mean, component 0 scores 0 and component 1 scores -1,
        # so the diagnostic per row is minus the share labelled 1, whose
        # expectation is w1 e^-1 / (w0 + w1 e^-1)
        x = Dataset(np.zeros((4000, 1)))
        for w1 in (0.5, 0.9):
            state = GmmState(np.zeros((2, 1)), np.array([[1.0], [np.e ** 2]]),
                             np.zeros(1, dtype=int), np.array([1.0 - w1, w1]))
            share = -gmm_loglik_diagnostic_batch(x, [state], Seed(3).stream("w", w1))[0] / x.n
            expected = w1 / np.e / (1.0 - w1 + w1 / np.e)
            assert abs(share - expected) < 0.03

    def test_stacked_batch_matches_fresh_states(self):
        data = gen_gmm_data(200, Seed(9))
        fit = gmm_gibbs_fit(data, 3, 300, 100, 4, Seed(9).stream("f"))
        x = gen_gmm_data(80, Seed(10))
        fresh = gmm_loglik_diagnostic_batch(x, list(fit.states), Seed(9).stream("s"))
        batch = fit.states
        for _ in range(2):  # the second call scores the kept stacked arrays
            got = gmm_loglik_diagnostic_batch(x, batch, Seed(9).stream("s"))
            assert np.all(np.abs(got - fresh) <= 1e-12 * np.abs(fresh))
        # the stacked arrays belong to the draws and go with them
        kept = weakref.ref(batch.stacked)
        del fit, batch
        gc.collect()
        assert kept() is None

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
                        gmm_loglik_diagnostic_batch(x, batch, Seed(1).stream("b"))
            good = PosteriorDraws((_gmm_state([[0.0, 0.0]], [[1.0, 1.0]]),), "gmm").states
            gmm_loglik_diagnostic_batch(x, good, Seed(1).stream("b"))
            with pytest.raises(DimensionError):
                gmm_loglik_diagnostic_batch(Dataset(np.zeros((4, 3))), good,
                                            Seed(1).stream("b"))

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_kernel_matches_label_array_reference(self, K):
        fit = gmm_gibbs_fit(gen_gmm_data(150, Seed(40 + K)), K, 80, 40, 2, Seed(K).stream("f"))
        x, other = gen_gmm_data(70, Seed(50 + K)), gen_gmm_data(30, Seed(60 + K))
        ref = _gmm_diagnostic_reference(x, fit.states, Seed(K).stream("d"))
        got = gmm_loglik_diagnostic_batch(x, list(fit.states), Seed(K).stream("d"))
        assert np.array_equal(got, ref)
        batch = fit.states
        # later calls score the kept stacked arrays, also after another size
        for data in (x, x, other, x):
            want = _gmm_diagnostic_reference(data, fit.states, Seed(K).stream("d", data.n))
            got = gmm_loglik_diagnostic_batch(data, batch, Seed(K).stream("d", data.n))
            assert np.array_equal(got, want)

    def test_continuous_required(self):
        x = gen_multmix_data(5, seed=Seed(0))
        state = _gmm_state([[0.0, 0.0]], [[1.0, 1.0]])
        with pytest.raises(DataError):
            gmm_loglik_diagnostic_batch(x, [state], Seed(0).stream("d"))


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
        fit = multmix_gibbs_fit(data, 3, 60, 20, 4, Seed(26).stream("f"))
        ref = []
        for s in fit.states:
            logp = np.log(s.weights)[None, :]
            for j, t in enumerate(s.tables):
                logp = logp + np.log(t[:, codes[:, j]]).T
            ref.append(float(logsumexp(logp, axis=1).sum()))
        assert np.array_equal(fit.loglik, ref)

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
        # the prior plus the cell counts of state it's labels, table by table
        class Recording:
            def __init__(self, g):
                self.g, self.shapes = g, []

            def gamma(self, shape, *args):
                self.shapes.append(np.array(shape))
                return self.g.gamma(shape, *args)

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
            assert np.array_equal(shape, MULTMIX_ALPHA + np.concatenate(cells))


class TestMultMixPredictive:
    def test_frequencies_match_posterior(self):
        data = gen_multmix_data(800, K_true=1, seed=Seed(15))
        fit = multmix_gibbs_fit(data, 1, 800, 300, 5, Seed(15).stream("f"))
        reps = multmix_predictive(fit, 1000, 20, Seed(15).stream("r"))
        post_table = np.mean([s.tables[0][0] for s in fit.states], axis=0)
        freq = np.mean([np.bincount(r.codes()[:, 0], minlength=4) / r.n
                        for r in reps], axis=0)
        assert np.allclose(freq, post_table, atol=0.05)

    def test_onehot_and_determinism(self):
        data = gen_multmix_data(100, seed=Seed(16))
        fit = multmix_gibbs_fit(data, 2, 300, 100, 5, Seed(16).stream("f"))
        a = multmix_predictive(fit, 50, 4, Seed(16).stream("r"))
        b = multmix_predictive(fit, 50, 4, Seed(16).stream("r"))
        assert all(r.kind == "categorical" and r.level_sizes == (4, 3, 3) for r in a)
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))

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
        assert multmix_chi2_diagnostic_batch(x, [state])[0] == 0.0

    def test_half_probability_single_variable(self):
        state = MultMixState(np.array([1.0]), (np.array([[0.5, 0.5]]),),
                             np.zeros(1, dtype=int))
        x = Dataset([[0]], level_sizes=(2,))
        assert abs(multmix_chi2_diagnostic_batch(x, [state])[0] - 2 * np.log(2)) < 1e-12

    def test_doubling_additivity(self):
        data = gen_multmix_data(40, seed=Seed(17))
        fit = multmix_gibbs_fit(data, 2, 200, 100, 10, Seed(17).stream("f"))
        state = fit.states[0]
        doubled = Dataset(np.vstack([data.values, data.values]), level_sizes=data.level_sizes)
        single = multmix_chi2_diagnostic_batch(data, [state])[0]
        assert abs(multmix_chi2_diagnostic_batch(doubled, [state])[0] - 2 * single) < 1e-9

    def test_label_permutation_invariance(self):
        data = gen_multmix_data(40, seed=Seed(18))
        fit = multmix_gibbs_fit(data, 2, 200, 100, 10, Seed(18).stream("f"))
        s = fit.states[0]
        flipped = MultMixState(s.weights[::-1].copy(),
                               tuple(t[::-1].copy() for t in s.tables),
                               s.assignments)
        assert abs(multmix_chi2_diagnostic_batch(data, [s])[0]
                   - multmix_chi2_diagnostic_batch(data, [flipped])[0]) < 1e-9

    def test_zero_cell_sentinel(self):
        state = MultMixState(np.array([1.0]), (np.array([[0.0, 1.0]]),),
                             np.zeros(1, dtype=int))
        x = Dataset([[0]], level_sizes=(2,))
        assert multmix_chi2_diagnostic_batch(x, [state])[0] == np.inf

    def test_batch_shape(self):
        data = gen_multmix_data(20, seed=Seed(19))
        fit = multmix_gibbs_fit(data, 2, 200, 100, 20, Seed(19).stream("f"))
        vals = multmix_chi2_diagnostic_batch(data, fit.states)
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
            batch = fit.states
            for _ in range(2):  # the second call scores the kept stacked arrays
                got = multmix_chi2_diagnostic_batch(x, batch)
                assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))
        # the stacked arrays belong to the draws and go with them
        kept = weakref.ref(batch.stacked)
        del fit, batch
        gc.collect()
        assert kept() is None

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
            got = multmix_chi2_diagnostic_batch(x, [state])[0]
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
                        multmix_chi2_diagnostic_batch(x, batch)
            mixed = PosteriorDraws((state([0.5, 0.5]), state([1.0, 0.0, 0.0])), "multmix")
            with pytest.raises(StateError):
                multmix_chi2_diagnostic_batch(x, mixed.states)
            # a zero weight or cell is probability 0, not an error
            zeros = state([1.0, 0.0], t0=np.array([[1.0, 0.0], [1.0, 0.0]]))
            good = PosteriorDraws((zeros,), "multmix").states
            assert multmix_chi2_diagnostic_batch(x, good)[0] == np.inf
            assert np.isfinite(multmix_chi2_diagnostic_batch(
                Dataset([[0, 1]], level_sizes=(2, 2)), good)[0])
            with pytest.raises(DimensionError):
                multmix_chi2_diagnostic_batch(Dataset([[0, 1]], level_sizes=(2, 3)), good)


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
        assert isinstance(draws.states, StateBatch) and draws.states == tuple(states)
        assert draws.B == 2

    def test_map_needs_logpost(self):
        draws = PosteriorDraws((_gmm_state([[0.0]], [[1.0]]),), "m")
        with pytest.raises(StateError):
            draws.map_state()
