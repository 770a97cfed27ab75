"""Generator moment tests against their stated populations."""

import numpy as np
import pytest

from ppn.datagen import (GMM_MEANS, MULTMIX_TABLES, gen_gmm_data,
                         gen_linear_factor_data, gen_multmix_data,
                         gen_nonlinear_factor_data, gen_regression_data)
from ppn.errors import ParameterError
from ppn.rng import Seed


class TestGmm:
    def test_component_means_and_proportions(self):
        ds = gen_gmm_data(10**5, Seed(3))
        # assign each draw to the nearest mixture mean; separation makes
        # misassignment negligible for the center component
        d2 = ((ds.values[:, None, :] - GMM_MEANS[None]) ** 2).sum(-1)
        comp = d2.argmin(axis=1)
        center = ds.values[comp == 1]
        assert np.all(np.abs(center.mean(axis=0)) < 0.05)
        freq = np.bincount(comp, minlength=3) / ds.n
        assert np.allclose(freq, 1 / 3, atol=0.01)

    def test_determinism(self):
        a = gen_gmm_data(100, Seed(9))
        b = gen_gmm_data(100, Seed(9))
        assert np.array_equal(a.values, b.values)

    def test_bad_n(self):
        with pytest.raises(ParameterError):
            gen_gmm_data(0, Seed(0))


class TestRegression:
    def test_response_mean(self):
        ds = gen_regression_data(seed=Seed(4))
        assert ds.n == 2000 and ds.covariates.shape == (2000, 10)
        assert abs(ds.values.mean() - 2.5) < 0.1

    def test_covariates_uncorrelated(self):
        ds = gen_regression_data(seed=Seed(4))
        y = ds.values[:, 0]
        for j in range(ds.covariates.shape[1]):
            r = np.corrcoef(y, ds.covariates[:, j])[0, 1]
            assert abs(r) < 0.07

    def test_determinism(self):
        a = gen_regression_data(n=50, seed=Seed(1))
        b = gen_regression_data(n=50, seed=Seed(1))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.covariates, b.covariates)


class TestLinearFactor:
    def test_covariance_structure(self):
        ds = gen_linear_factor_data(10**5, Seed(5))
        cov = np.cov(ds.values, rowvar=False)
        assert abs(cov[0, 1] - 25.0) < 0.05 * 25.0
        assert abs(cov[0, 5]) < 0.5
        assert np.all(np.abs(np.diag(cov) - 26.0) < 0.05 * 26.0)


class TestNonlinearFactor:
    def test_column3_mean(self):
        ds = gen_nonlinear_factor_data(10**5, Seed(6))
        assert ds.d == 7
        # E[5 z1^2] = 5; odd terms have mean 0
        assert abs(ds.values[:, 2].mean() - 5.0) < 0.1
        for j in (0, 1, 3, 4, 5, 6):
            assert abs(ds.values[:, j].mean()) < 0.1

    def test_column_variances(self):
        ds = gen_nonlinear_factor_data(10**5, Seed(6))
        # var(7 z1 + eps) = 50; var(z1 z2 + eps) = 2
        assert abs(ds.values[:, 0].var() - 50.0) < 0.05 * 50.0
        assert abs(ds.values[:, 6].var() - 2.0) < 0.1 * 2.0


class TestMultMix:
    def test_single_class_frequencies(self):
        ds = gen_multmix_data(10**4, K_true=1, seed=Seed(7))
        codes = ds.codes()
        for j, table in enumerate(MULTMIX_TABLES[0]):
            freq = np.bincount(codes[:, j], minlength=len(table)) / ds.n
            assert np.allclose(freq, table, atol=0.02)

    def test_codes_validity(self):
        ds = gen_multmix_data(500, seed=Seed(8))
        assert ds.kind == "categorical"
        assert ds.level_sizes == (4, 3, 3) and ds.d == 3
        assert np.array_equal(ds.values, ds.codes())
        assert np.all((ds.codes() >= 0) & (ds.codes() < ds.level_sizes))

    def test_determinism(self):
        a = gen_multmix_data(200, seed=Seed(2))
        b = gen_multmix_data(200, seed=Seed(2))
        assert np.array_equal(a.values, b.values)

    def test_all_classes_by_default(self):
        a = gen_multmix_data(300, seed=Seed(4))
        b = gen_multmix_data(300, K_true=len(MULTMIX_TABLES), seed=Seed(4))
        assert np.array_equal(a.values, b.values)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("K_true", [0, 3], ids=["0-None", "3-None"])
    def test_kept_classes_and_weights_are_checked_before_use(self, K_true):
        # K_true = 0 would divide by zero in the equal class weights, and the
        # preset has 2 classes
        with pytest.raises(ParameterError):
            gen_multmix_data(10, K_true=K_true, seed=Seed(0))


@pytest.mark.parametrize("generate", [
    lambda: gen_regression_data(50),
    lambda: gen_multmix_data(50),
    lambda: gen_multmix_data(50, seed=3),
    lambda: gen_gmm_data(50, None),
    lambda: gen_linear_factor_data(50, None),
    lambda: gen_nonlinear_factor_data(50, None),
], ids=["regression", "multmix", "multmix-int-seed", "gmm", "linear-factor",
        "nonlinear-factor"])
def test_missing_seed_is_a_parameter_error(generate):
    with pytest.raises(ParameterError, match="needs a Seed"):
        generate()
