"""Regression pair and probabilistic PCA tests against closed-form oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppn.core import Dataset, ReplicateBlock
from ppn.datagen import gen_linear_factor_data, gen_nonlinear_factor_data
from ppn.errors import (DataError, DimensionError, ParameterError,
                        SingularityError, StateError)
from ppn.linear import (PpcaParams, RegressionPosteriorA, RegressionPosteriorB,
                        ppca_ml_fit, ppca_predictive,
                        ppca_reconstruction_diagnostic, regression_diagnostic,
                        regression_fit_A, regression_fit_B,
                        regression_predictive)
from ppn.rng import Seed, chi_square_cdf, ks_distance


class TestFitA:
    def test_two_points(self):
        post = regression_fit_A([1.0, 3.0])
        assert post.y_bar == 2.0

    def test_constant(self):
        post = regression_fit_A(np.full(10, 7.5))
        assert post.y_bar == 7.5

    def test_permutation_invariance(self):
        y = Seed(0).stream("perm").generator.standard_normal(30)
        assert abs(regression_fit_A(y).y_bar
                   - regression_fit_A(y[::-1]).y_bar) < 1e-12

    def test_empty(self):
        with pytest.raises(ParameterError):
            regression_fit_A([])


class TestFitB:
    def test_exact_interpolation(self):
        g = Seed(1).stream("interp").generator
        X = g.standard_normal((40, 4))
        beta0 = np.array([1.0, -2.0, 0.5, 3.0])
        post = regression_fit_B(X @ beta0, X)
        assert np.allclose(post.coef, beta0, atol=1e-10)

    def test_hand_ols(self):
        post = regression_fit_B([1.0, -1.0], [[1.0], [-1.0]])
        assert abs(post.coef[0] - 1.0) < 1e-12
        assert abs(post.intercept) < 1e-12

    def test_normal_equations_oracle(self):
        g = Seed(2).stream("ols").generator
        X = g.standard_normal((50, 3))
        y = g.standard_normal(50)
        post = regression_fit_B(y, X)
        # independent solve of the intercept-included normal equations
        A = np.hstack([np.ones((50, 1)), X])
        coef = np.linalg.solve(A.T @ A, A.T @ y)
        assert abs(post.intercept - coef[0]) < 1e-10
        assert np.allclose(post.coef, coef[1:], atol=1e-10)

    @given(st.floats(-100, 100))
    @settings(max_examples=25, deadline=None)
    def test_shift_invariance(self, c):
        g = Seed(3).stream("shift").generator
        X = g.standard_normal((30, 2))
        y = g.standard_normal(30)
        base = regression_fit_B(y, X)
        shifted = regression_fit_B(y + c, X)
        assert np.allclose(shifted.coef, base.coef, atol=1e-8)
        assert abs(shifted.intercept - (base.intercept + c)) < 1e-8

    def test_singular_gram(self):
        x0 = np.arange(10.0)
        X = np.column_stack([x0, 2.0 * x0])
        with pytest.raises(SingularityError):
            regression_fit_B(np.arange(10.0), X)

    def test_shape_checks(self):
        with pytest.raises(DimensionError):
            regression_fit_B([1.0, 2.0], np.ones((3, 1)))
        with pytest.raises(ParameterError):
            regression_fit_B([1.0, 2.0], np.ones((2, 3)))


class TestRegressionPredictive:
    def test_model_a_moments(self):
        post = regression_fit_A([2.0, 3.0])
        reps = regression_predictive(post, 10**4, Seed(4).stream("ra"))
        assert reps.values.shape == (10**4, 2, 1)
        pooled = reps.values.ravel()
        assert abs(pooled.mean() - 2.5) < 0.05
        assert abs(pooled.var() - 2.0) < 0.05 * 2.0

    def test_model_b_row_variances(self):
        g = Seed(5).stream("rb").generator
        X = g.standard_normal((200, 2))
        post = regression_fit_B(g.standard_normal(200), X)
        var = post.predictive_var(X)
        assert np.all(var >= 2.0)

    def test_determinism_and_r(self):
        post = regression_fit_A([0.0, 1.0])
        a = regression_predictive(post, 3, Seed(6).stream("r"))
        b = regression_predictive(post, 3, Seed(6).stream("r"))
        assert np.array_equal(a.values, b.values)
        with pytest.raises(ParameterError):
            regression_predictive(post, 0, Seed(6).stream("r"))

    # A's sd is one scalar, B's one per row; R=600 spans many re-keys
    @pytest.mark.parametrize("name, with_covariates, R", [
        pytest.param(name, cov, R, id=f"{name}-{cov}" + ("" if R == 7 else f"-R{R}"))
        for name, cov in [("A", False), ("A", True), ("B", True)] for R in (1, 7, 600)])
    def test_rows_are_the_substream_draws_at_the_fitted_rows(self, name, with_covariates, R):
        g = Seed(8).stream("rows").generator
        X, y = g.standard_normal((12, 2)), g.standard_normal(12)
        X_in = X if with_covariates else None
        post = regression_fit_A(y, X_in) if name == "A" else regression_fit_B(y, X)
        stream = Seed(8).stream("reps")
        reps = regression_predictive(post, R, stream)
        assert isinstance(reps, ReplicateBlock) and reps.values.shape == (R, 12, 1)
        if name == "A":
            mean, sd = post.y_bar, np.sqrt(2.0)
        else:
            mean, sd = post.predictive_mean(X), np.sqrt(post.predictive_var(X))
        for r in range(R):
            want = mean + sd * stream.substream(r).generator.standard_normal(12)
            assert reps.values[r, :, 0].tobytes() == want.tobytes()
        if X_in is None:
            assert reps.covariates is None
        else:
            assert np.array_equal(reps.covariates, X)


class TestRegressionDiagnostic:
    def test_zero_residual(self):
        post = regression_fit_A([2.0, 2.0])
        assert regression_diagnostic([2.0, 2.0, 2.0], None, post) == 0.0

    def test_unit_offsets(self):
        post = regression_fit_A([1.0])
        assert regression_diagnostic(np.full(5, 2.0), None, post) == 5.0

    def test_proposition_one_oracle(self):
        # y ~ Normal(ybar_val, 2) implies diagnostic / 2 ~ chi-square(n)
        n, R = 2000, 10**4
        post = RegressionPosteriorA(y_bar=0.7, n_in=n)
        g = Seed(7).stream("prop1").generator
        y = post.y_bar + np.sqrt(2.0) * g.standard_normal((R, n))
        d = ((y - post.y_bar) ** 2).sum(axis=1)
        assert ks_distance(d / 2.0, lambda v: chi_square_cdf(v, n)) < 0.02

    def test_length_mismatch(self):
        post = regression_fit_B([1.0, -1.0], [[1.0], [-1.0]])
        with pytest.raises(DimensionError):
            regression_diagnostic([1.0, 2.0, 3.0], np.ones((2, 1)), post)


class TestPpcaFit:
    # on noiseless data sigma2 sits at its floor, with no numpy warning, and
    # WW' + sigma2 I is the sample covariance
    @pytest.mark.filterwarnings("error")
    def test_noiseless_subspace(self):
        g = Seed(8).stream("sub").generator
        W = g.standard_normal((6, 2))
        z = g.standard_normal((500, 2))
        params = ppca_ml_fit(Dataset(z @ W.T), 2)
        assert params.sigma2 <= 1e-8
        # principal angles between span(W) and span(W_hat)
        qa, _ = np.linalg.qr(W)
        qb, _ = np.linalg.qr(params.W)
        angles = np.arccos(np.clip(np.linalg.svd(qa.T @ qb)[1], -1, 1))
        assert np.all(angles < 1e-4)
        centered = z @ W.T - (z @ W.T).mean(axis=0)
        S = centered.T @ centered / len(z)
        C = params.W @ params.W.T + params.sigma2 * np.eye(6)
        assert np.linalg.norm(C - S) <= 1e-10 * np.linalg.norm(S)

    def test_sigma2_eigenvalue_oracle(self):
        data = gen_linear_factor_data(800, Seed(9))
        centered = data.values - data.values.mean(axis=0)
        S = centered.T @ centered / data.n
        eig = np.sort(np.linalg.eigvalsh(S))[::-1]
        for K in (1, 2, 5):
            params = ppca_ml_fit(data, K)
            assert abs(params.sigma2 - eig[K:].mean()) < 1e-12
            # the ML state is stationary: S C^-1 W = W (Tipping & Bishop eq. 8)
            W = params.W
            C = W @ W.T + params.sigma2 * np.eye(params.G)
            assert np.linalg.norm(S @ np.linalg.solve(C, W) - W) <= 1e-8 * np.linalg.norm(W)

    def test_preconditions(self):
        data = gen_linear_factor_data(50, Seed(11))
        with pytest.raises(DimensionError):
            ppca_ml_fit(data, 10)
        with pytest.raises(DimensionError):
            ppca_ml_fit(data, 0)
        with pytest.raises(DataError):
            ppca_ml_fit(Dataset([[0]], level_sizes=(2,)), 1)
        for n in (1, 2):
            with pytest.raises(ParameterError, match="^need more rows than latent dimensions$"):
                ppca_ml_fit(Dataset(np.arange(5.0 * n).reshape(n, 5)), 2)

    def test_state_validation(self):
        with pytest.raises(StateError):
            PpcaParams(np.ones((3, 1)), -1.0, np.zeros(3))
        with pytest.raises(StateError):
            PpcaParams(np.full((3, 1), np.nan), 1.0, np.zeros(3))
        for sigma2 in (np.nan, np.inf):
            with pytest.raises(StateError):
                PpcaParams(np.ones((3, 1)), sigma2, np.zeros(3))
        with pytest.raises(StateError):
            PpcaParams(np.ones(3), 1.0, np.zeros(3))
        for mean in (np.zeros(2), np.zeros((1, 3)), np.array([0.0, np.nan, 0.0])):
            with pytest.raises(StateError):
                PpcaParams(np.ones((3, 1)), 1.0, mean)


class TestPpcaPredictive:
    def test_covariance_oracle(self):
        g = Seed(12).stream("cov").generator
        W = g.standard_normal((4, 2))
        params = PpcaParams(W, 0.5, np.zeros(4))
        reps = ppca_predictive(params, 10**5, 1, Seed(12).stream("rep"))
        sample_cov = np.cov(reps.values[0], rowvar=False)
        target = W @ W.T + 0.5 * np.eye(4)
        gap = np.linalg.norm(sample_cov - target) / np.linalg.norm(target)
        assert gap < 0.05

    def test_rotation_invariance(self):
        g = Seed(13).stream("rot").generator
        W = g.standard_normal((5, 2))
        theta = 0.6
        Q = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        assert np.allclose(W @ W.T, (W @ Q) @ (W @ Q).T, atol=1e-12)

    @pytest.mark.parametrize("R", [1, 7, 600])
    @pytest.mark.parametrize("K", [1, 9])      # 1 and G - 1
    def test_replicates_are_the_substream_draws(self, K, R):
        params = ppca_ml_fit(gen_linear_factor_data(200, Seed(15)), K)
        assert params.G == 10
        stream = Seed(15).stream("reps")
        reps = ppca_predictive(params, 9, R, stream)
        assert reps.values.shape == (R, 9, 10)
        for r in range(R):
            g = stream.substream(r).generator
            z = g.standard_normal((9, K))
            eps = np.sqrt(params.sigma2) * g.standard_normal((9, 10))
            want = params.mean + z @ params.W.T + eps
            assert reps.values[r].tobytes() == want.tobytes()

    def test_determinism(self):
        params = PpcaParams(np.ones((3, 1)), 1.0, np.zeros(3))
        a = ppca_predictive(params, 20, 3, Seed(14).stream("r"))
        b = ppca_predictive(params, 20, 3, Seed(14).stream("r"))
        assert np.array_equal(a.values, b.values)


class TestPpcaDiagnostic:
    def test_fixed_point(self):
        params = PpcaParams(np.ones((3, 1)), 1.0, np.array([1.0, 2.0, 3.0]))
        x = Dataset(np.tile(params.mean, (4, 1)))
        assert ppca_reconstruction_diagnostic(x, params) == 0.0

    def test_hand_residual(self):
        # zero loading reconstructs nothing: diagnostic = squared offset norm
        params = PpcaParams(np.zeros((4, 2)), 1.0, np.zeros(4))
        x = Dataset(np.array([[3.0, 4.0, 0.0, 0.0]]))
        assert abs(ppca_reconstruction_diagnostic(x, params) - 25.0) < 1e-12

    def test_richer_subspace_reconstructs_better(self):
        data = gen_nonlinear_factor_data(500, Seed(15))
        p2 = ppca_ml_fit(data, 2)
        p5 = ppca_ml_fit(data, 5)
        x = gen_nonlinear_factor_data(200, Seed(16))
        assert (ppca_reconstruction_diagnostic(x, p2)
                > ppca_reconstruction_diagnostic(x, p5))

    def test_dimension_check(self):
        params = PpcaParams(np.ones((3, 1)), 1.0, np.zeros(3))
        with pytest.raises(DimensionError):
            ppca_reconstruction_diagnostic(Dataset(np.ones((2, 4))), params)
