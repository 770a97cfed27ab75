"""Sampler and special-function tests against independent oracles."""

import hashlib
import math
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from ppn.errors import DegenerateSampleError, DomainError, ParameterError
from ppn.rng import (Seed, VariateStream, _philox_key, categorical, category_bounds,
                     chi_square_cdf, ks_distance, logsumexp)


def _series_gamma_p(s, x):
    """Regularized lower incomplete gamma by its power series, to ~1e-14."""
    if x == 0:
        return 0.0
    term = 1.0 / s
    total = term
    k = 0
    while True:
        k += 1
        term *= x / (s + k)
        total += term
        if abs(term) < 1e-16 * abs(total) or k > 10_000:
            break
    return math.exp(s * math.log(x) - x - math.lgamma(s)) * total


class TestStreams:
    def test_determinism(self):
        a = Seed(7).stream("chain", 3).generator.random(100)
        b = Seed(7).stream("chain", 3).generator.random(100)
        assert np.array_equal(a, b)

    def test_generator_built_on_first_use(self):
        stream = Seed(7).stream("lazy", 2)
        assert "generator" not in vars(stream)
        g = stream.generator
        assert stream.generator is g
        key = np.frombuffer(hashlib.sha256(b"7\x1flazy/2").digest(), dtype=np.uint64)[:2]
        eager = np.random.Generator(np.random.Philox(key=key))
        assert np.array_equal(g.random(5), eager.random(5))

    def test_distinct_labels_differ(self):
        a = Seed(7).stream("a").generator.random(10)
        b = Seed(7).stream("b").generator.random(10)
        assert not np.array_equal(a, b)

    def test_substream_matches_joined_label(self):
        a = Seed(1).stream("x").substream("y").generator.random(5)
        b = Seed(1).stream("x", "y").generator.random(5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("root, label, R", [
        pytest.param(9, "reps", 1, id="1"), pytest.param(9, "reps", 600, id="600"),
        pytest.param(0, "reps", 7, id="root-0"),
        pytest.param(2**64 - 1, "reps", 7, id="root-2**64-1"),
        pytest.param(9, "répliques/ψ", 7, id="non-ascii-label")])
    def test_substream_generators_draw_as_substreams(self, root, label, R):
        stream = Seed(root).stream(label)
        seen = 0
        for r, g in enumerate(stream.substream_generators(R)):
            want = stream.substream(r).generator
            # three 32-bit draws leave half of a 64-bit word for the next
            # one, which the next re-key must not hand on
            assert np.array_equal(g.random(3, dtype=np.float32),
                                  want.random(3, dtype=np.float32))
            assert g.bit_generator.state["has_uint32"] == 1
            assert np.array_equal(g.standard_normal((2, 3)), want.standard_normal((2, 3)))
            assert np.array_equal(g.integers(7, size=4), want.integers(7, size=4))
            assert np.array_equal(g.random(5), want.random(5))
            seen += 1
        assert seen == R

    def test_no_substream_generators_for_r_0(self):
        assert list(Seed(9).stream("reps").substream_generators(0)) == []

    def test_substream_keys_are_the_hashed_labels(self):
        stream = Seed(12345).stream("keys")
        for r, g in enumerate(stream.substream_generators(10**4 + 1)):
            key = g.bit_generator.state["state"]["key"]
            assert np.array_equal(key, _philox_key(stream.seed, f"keys/{r}"))
        assert r == 10**4

    def test_seed_range_check(self):
        with pytest.raises(ParameterError):
            Seed(-1)
        with pytest.raises(ParameterError):
            Seed(2**64)


class TestSample:
    def test_categorical_degenerate(self):
        draws = categorical(Seed(0).stream("c").generator, (1.0, 0.0, 0.0), 500)
        assert np.all(draws == 0)

    def test_categorical_frequencies(self):
        p = np.array([0.2, 0.3, 0.5])
        draws = categorical(Seed(0).stream("cf").generator, p, 10**5)
        freq = np.bincount(draws, minlength=3) / 10**5
        assert np.allclose(freq, p, atol=0.01)

    def test_categorical_must_sum_to_one(self):
        with pytest.raises(ParameterError) as err:
            categorical(Seed(0).stream("bad").generator, (0.5, 0.4), 10)
        assert "sum to 1" in str(err.value)

    @pytest.mark.parametrize("p", [[], [[0.5, 0.5]], [[0.5], [0.5]]],
                             ids=["empty", "row", "column"])
    def test_category_bounds_need_a_nonempty_vector(self, p):
        with pytest.raises(ParameterError, match="^p must be a nonempty vector$"):
            category_bounds(p)

    @pytest.mark.parametrize("p", [(np.nan, 1.0), (np.nan, np.nan), (0.5, 0.5, np.nan),
                                   (np.inf, 0.0)])
    def test_categorical_refuses_non_finite_probabilities(self, p):
        with pytest.raises(ParameterError):
            categorical(Seed(0).stream("bad").generator, p, 5)


class TestLogsumexp:
    @pytest.mark.parametrize("axis", [None, 0, 1, 2])
    def test_matches_scipy(self, axis):
        g = Seed(5).stream("lse").generator
        a = 30.0 * g.standard_normal((25, 50, 4))
        a[g.random(a.shape) < 0.2] = -np.inf
        got = logsumexp(a, axis=axis)
        ref = scipy.special.logsumexp(a, axis=axis)
        assert np.shape(got) == np.shape(ref)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)

    def test_all_minus_inf_slices_stay_minus_inf_without_warning(self):
        a = np.array([[0.5, -np.inf, 2.0], [-np.inf, -np.inf, -np.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = logsumexp(a, axis=1)
            whole = logsumexp(a[1])
        assert rows[0] == pytest.approx(np.log(np.exp(0.5) + np.exp(2.0)), rel=1e-15)
        assert rows[1] == -np.inf and whole == -np.inf

    def test_large_infinite_and_nan_entries(self):
        assert logsumexp(np.array([1000.0, 1000.0])) == 1000.0 + np.log(2.0)
        assert logsumexp(np.array([1.0, np.inf])) == np.inf
        assert np.isnan(logsumexp(np.array([1.0, np.nan])))


class TestChiSquareCdf:
    def test_lower_boundary(self):
        assert chi_square_cdf(0.0, 5) == 0.0

    def test_k2_closed_form(self):
        assert abs(chi_square_cdf(1.3863, 2) - 0.5) < 1e-4

    def test_series_oracle_value(self):
        assert abs(chi_square_cdf(3.0, 3) - 0.60837) < 5e-6
        assert abs(chi_square_cdf(3.0, 3) - _series_gamma_p(1.5, 1.5)) < 1e-10

    def test_series_oracle_grid(self):
        # 50-point grid across several degrees of freedom
        for k in (1, 2, 3, 10, 100):
            for x in np.linspace(0.01, 4.0 * k, 10):
                assert abs(chi_square_cdf(x, k) - _series_gamma_p(k / 2, x / 2)) < 1e-10

    @pytest.mark.filterwarnings("error")
    def test_scipy_oracle_grid(self):
        # integer and half-odd degrees of freedom; x evenly spaced over the
        # bulk and tail, log-spaced near 0, and at the series/continued
        # fraction switch x/2 = k/2 + 1 with its neighbours at +-1e-9
        ks = [*range(1, 201), *np.arange(1.5, 59.0), 500, 1000, 2000]
        points = [(k, x) for k in ks
                  for x in (*np.linspace(0.0, 8.0 * k + 50.0, 60), *np.logspace(-8, 4, 40),
                            *(2.0 * (k / 2.0 + 1.0 + d) for d in (-1e-9, 0.0, 1e-9)))]
        k, x = np.array(points).T
        ref = scipy.special.gammainc(k / 2.0, x / 2.0)
        got = np.array([chi_square_cdf(xi, ki) for ki, xi in points])
        assert np.max(np.abs(got - ref)) < 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [1, 1.5, 2.7, 50, 1e6])
    def test_boundaries_are_exact(self, k):
        assert chi_square_cdf(0.0, k) == 0.0
        assert chi_square_cdf(np.inf, k) == 1.0
        assert chi_square_cdf(1e300, k) == 1.0

    @pytest.mark.parametrize("x, k", [(1.0, 1.5), (4.0, 1.5), (1.0, 2.7), (6.0, 2.7)])
    def test_non_integer_degrees_of_freedom(self, x, k):
        assert abs(chi_square_cdf(x, k) - _series_gamma_p(k / 2, x / 2)) < 1e-13

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chi_square_cdf(-0.1, 2)
        with pytest.raises(DomainError):
            chi_square_cdf(1.0, 0.5)
        with pytest.raises(DomainError):
            chi_square_cdf(1.0, 1e6 * (1 + 1e-15))

    @pytest.mark.parametrize("x, k", [(np.nan, 2), (1.0, np.nan), (np.nan, np.nan),
                                      (1.0, np.inf)])
    def test_nan_arguments_are_domain_errors(self, x, k):
        with pytest.raises(DomainError):
            chi_square_cdf(x, k)

    @given(st.floats(0, 100), st.floats(0, 100), st.integers(1, 50))
    @settings(max_examples=50, deadline=None)
    def test_monotone_and_bounded(self, x1, x2, k):
        lo, hi = sorted((x1, x2))
        c1, c2 = chi_square_cdf(lo, k), chi_square_cdf(hi, k)
        assert 0.0 <= c1 <= c2 <= 1.0


class TestKsDistance:
    def test_exact_quantiles(self):
        R = 100
        qs = (np.arange(R) + 0.5) / R
        assert ks_distance(qs, lambda v: v) <= 0.5 / R + 1e-12

    def test_point_mass_at_boundary(self):
        assert ks_distance([0.0], lambda v: min(max(v, 0.0), 1.0)) == 1.0

    def test_dkw_chi_square(self):
        g = Seed(0).stream("ks").generator
        draws = 2.0 * g.chisquare(50, size=10**5)
        assert ks_distance(draws, lambda v: chi_square_cdf(v / 2.0, 50)) < 0.01

    def test_empty_sample(self):
        with pytest.raises(DegenerateSampleError):
            ks_distance([], lambda v: v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample(self, bad):
        with pytest.raises(DegenerateSampleError):
            ks_distance([0.1, bad, 0.5], lambda v: min(max(v, 0.0), 1.0))
