"""Divergence and evidence estimator tests against analytic oracles."""

import warnings

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_raise_without_warning(self, bad):
        good = _normals("nf", 100)
        broken = good.copy()
        broken[7] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pair in ((good, broken), (broken, good)):
                with pytest.raises(DegenerateSampleError, match="finite"):
                    sym_kl_estimate(*pair)
            with pytest.raises(DegenerateSampleError, match="finite"):
                kde_density(broken, np.array([0.0]))


# A sym-KL estimate is read against the study's tau, 1.0 by default; its mean
# over many sample pairs should sit within a tenth of that of the truth.
SYM_KL_TOLERANCE = 0.1


def _misses(mean, true):
    return pytest.mark.xfail(strict=True, reason=(
        f"the estimator's mean is {mean} against a true sym-KL of {true} "
        f"(default_rng(7)); the KDE tails overstate it"))


class TestSymKlTable:
    """Mean estimates over many sample pairs of N(0, 1) against N(delta,
    scale^2), whose sym-KL is (scale^2 + scale^-2 - 2) / 4
    + delta^2 (1 + scale^-2) / 4: 100 pairs at R=200 and 20 at R=2000."""

    @pytest.mark.parametrize("delta, scale, R", [
        pytest.param(0.0, 1.0, 200, id="null-R200"),
        pytest.param(0.0, 1.0, 2000, id="null-R2000"),
        pytest.param(1.0, 1.0, 200, id="shift-1-R200"),
        pytest.param(1.0, 1.0, 2000, id="shift-1-R2000"),
        pytest.param(np.sqrt(2), 1.0, 200, id="shift-sqrt2-R200", marks=_misses(1.153, 1.0)),
        pytest.param(np.sqrt(2), 1.0, 2000, id="shift-sqrt2-R2000"),
        pytest.param(0.0, 2.0, 200, id="scale-2-R200", marks=_misses(1.032, 0.5625)),
        pytest.param(0.0, 2.0, 2000, id="scale-2-R2000", marks=_misses(0.861, 0.5625)),
    ])
    def test_mean_estimate_near_the_closed_form(self, delta, scale, R):
        true = (scale**2 + scale**-2 - 2) / 4 + delta**2 * (1 + scale**-2) / 4
        rng = np.random.default_rng(7)
        pairs = 100 if R == 200 else 20
        mean = np.mean([sym_kl_estimate(rng.standard_normal(R),
                                        delta + scale * rng.standard_normal(R))
                        for _ in range(pairs)])
        assert abs(mean - true) <= SYM_KL_TOLERANCE


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
