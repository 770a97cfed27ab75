"""Divergence and evidence estimator tests against analytic oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppn.errors import DataError, DegenerateSampleError
from ppn.estimators import (GRID_POINTS, _silverman_bandwidth, bayes_factor,
                            harmonic_mean_marginal_likelihood, kde_density,
                            sym_kl_estimate)
from ppn.rng import Seed


def _normals(label, n, mean=0.0, sd=1.0):
    g = Seed(42).stream("est", label).generator
    return mean + sd * g.standard_normal(n)


class TestKde:
    def test_floor_far_from_samples(self):
        samples = _normals("floor", 500)
        dens = kde_density(samples, np.array([1e6]))
        assert dens[0] == 1e-12

    def test_integrates_to_one(self):
        samples = _normals("int", 2000)
        grid = np.linspace(-6, 6, 4096)
        dens = kde_density(samples, grid)
        assert abs(np.trapezoid(dens, grid) - 1.0) < 0.01

    def test_normal_density_at_zero(self):
        samples = _normals("peak", 10**5)
        dens = kde_density(samples, np.array([0.0]))
        assert abs(dens[0] - 0.3989) < 0.03 * 0.3989

    @pytest.mark.parametrize("R", [2, 255, 256, 2000, 3001])
    def test_blocks_match_one_whole_matrix(self, R):
        # the whole grid-by-sample matrix at once, as a reference
        samples = _normals("blocks", R, 3.0, 2.0)
        grid = np.linspace(-5, 11, GRID_POINTS)
        h = _silverman_bandwidth(samples)
        z = np.exp(-0.5 * (np.subtract.outer(grid, samples) / h) ** 2)
        want = np.maximum(z.sum(axis=1) / (R * h * np.sqrt(2 * np.pi)), 1e-12)
        assert np.array_equal(kde_density(samples, grid), want)

    def test_degenerate_samples(self):
        with pytest.raises(DegenerateSampleError):
            kde_density(np.zeros(100), np.array([0.0]))
        with pytest.raises(DegenerateSampleError):
            kde_density(np.array([1.0]), np.array([0.0]))


class TestSymKl:
    def test_identical_samples(self):
        samples = _normals("same", 5000)
        assert sym_kl_estimate(samples, samples) <= 0.01

    def test_analytic_normal_shift(self):
        p = _normals("p", 50_000, mean=0.0)
        q = _normals("q", 50_000, mean=1.0)
        assert abs(sym_kl_estimate(p, q) - 0.5) < 0.05

    def test_symmetry_bitwise(self):
        p = _normals("sp", 3000)
        q = _normals("sq", 3000, mean=0.7)
        assert sym_kl_estimate(p, q) == sym_kl_estimate(q, p)

    def test_monotone_in_separation(self):
        base = _normals("m0", 20_000)
        other = _normals("m1", 20_000)
        values = [sym_kl_estimate(base, other + sep) for sep in (0.0, 1.0, 2.0, 3.0)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v >= 0 for v in values)

    def test_degenerate_input(self):
        with pytest.raises(DegenerateSampleError):
            sym_kl_estimate(np.zeros(100), _normals("d", 100))


class TestHarmonicMean:
    def test_single_draw(self):
        assert harmonic_mean_marginal_likelihood([-12.5]) == -12.5

    def test_constant_draws(self):
        assert abs(harmonic_mean_marginal_likelihood(np.full(200, -3.0)) + 3.0) < 1e-12

    @given(st.floats(-50, 50))
    @settings(max_examples=30, deadline=None)
    def test_shift_consistency(self, c):
        draws = _normals("shift", 100, mean=-10.0)
        base = harmonic_mean_marginal_likelihood(draws)
        shifted = harmonic_mean_marginal_likelihood(draws + c)
        assert abs(shifted - (base + c)) < 1e-9

    def test_normal_normal_evidence(self):
        # y_i ~ Normal(mu, 1), mu ~ Normal(0, 1): closed-form log evidence via
        # y ~ Normal(0, I + 11'); posterior mu | y ~ Normal(n ybar/(n+1), 1/(n+1))
        n, R = 20, 10**4
        g = Seed(7).stream("evidence").generator
        y = 0.4 + g.standard_normal(n)
        ybar = y.mean()
        # log |I + 11'| = log(1 + n); y'(I+11')^{-1}y = y'y - (sum y)^2/(1+n)
        quad = y @ y - y.sum() ** 2 / (1.0 + n)
        closed = -0.5 * (n * np.log(2 * np.pi) + np.log(1.0 + n) + quad)
        mu_draws = n * ybar / (n + 1.0) + g.standard_normal(R) / np.sqrt(n + 1.0)
        logliks = -0.5 * (((y[None, :] - mu_draws[:, None]) ** 2).sum(axis=1)
                          + n * np.log(2 * np.pi))
        estimate = harmonic_mean_marginal_likelihood(logliks)
        assert abs(estimate - closed) < 0.5

    def test_bad_inputs(self):
        with pytest.raises(DataError):
            harmonic_mean_marginal_likelihood([])
        with pytest.raises(DataError):
            harmonic_mean_marginal_likelihood([np.inf, -1.0])


class TestBayesFactor:
    def test_equal_evidence(self):
        assert bayes_factor(-5.0, -5.0) == 1.0

    def test_log_space(self):
        assert abs(bayes_factor(-1000.0, -1001.0) - np.e) < 1e-9

    def test_non_finite(self):
        with pytest.raises(DataError):
            bayes_factor(np.nan, 0.0)
