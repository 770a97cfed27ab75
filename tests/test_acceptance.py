"""End-to-end acceptance suite.

Each test prints a single pass/fail line for its criterion.  Multi-seed
criteria demand the stated pattern on at least 4 of 5 fixed seeds.
"""

import json
import time

import numpy as np
import pytest

import ppn
from ppn.cli import main as cli_main
from ppn.datagen import (gen_gmm_data, gen_linear_factor_data,
                         gen_multmix_data, gen_nonlinear_factor_data,
                         gen_regression_data)
from ppn.estimators import harmonic_mean_marginal_likelihood, sym_kl_estimate
from ppn.linear import (ppca_ml_fit, regression_fit_A, regression_fit_B,
                        regression_predictive)
from ppn.mixtures import gmm_gibbs_fit
from ppn.rng import Seed, chi_square_cdf, ks_distance

from test_rng import _series_gamma_p

pytestmark = pytest.mark.acceptance

SEEDS = (1, 2, 3, 4, 5)


def _report(num, name, ok, detail):
    line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


@pytest.fixture(scope="module")
def gmm_results():
    """Shared GMM studies plus marginal-likelihood chains for the fixed seeds."""
    out = []
    for root in SEEDS:
        t0 = time.time()
        seed = Seed(root)
        data = gen_gmm_data(1500, seed)
        split = ppn.split_data(data, (1 / 3, 1 / 3, 1 / 3), seed)
        models = [ppn.GmmModel(K) for K in (1, 2, 3, 4)]
        rep = ppn.ppn_study(split, models, ppn.StudyConfig(R=200), seed)
        study_time = time.time() - t0
        t0 = time.time()
        log_ev = {}
        for K in (1, 3, 4):
            fit = gmm_gibbs_fit(split.x_in, K,
                                stream=seed.stream(f"gmm-K{K}", "fit-in"))
            log_ev[K] = harmonic_mean_marginal_likelihood(fit.loglik)
        out.append({
            "p": {c.model_id: c.p_value for c in rep.diagonal},
            "passed": {c.model_id: c.passed for c in rep.diagonal},
            "kl": {(p.diagnostic_owner, p.data_source): p.sym_kl
                   for p in rep.off_diagonal},
            "log_ev": log_ev,
            "study_time": study_time,
            "evidence_time": time.time() - t0,
        })
    return out


def test_criterion_1_gmm_study_pattern(gmm_results):
    good = 0
    for res in gmm_results:
        all_pass = all(res["passed"].values())
        kl31 = res["kl"].get(("gmm-K3", "gmm-K1"), np.nan)
        kl32 = res["kl"].get(("gmm-K3", "gmm-K2"), np.nan)
        kl43 = res["kl"].get(("gmm-K4", "gmm-K3"), np.nan)
        if all_pass and kl31 > 1.0 and kl32 > 1.0 and kl43 <= 1.0:
            good += 1
    total = sum(r["study_time"] for r in gmm_results)
    ok = good >= 4 and total < 600
    _report(1, "gmm study pattern", ok, f"{good}/5 seeds, {total:.0f}s")
    assert ok


def test_criterion_2_gmm_pvalues(gmm_results):
    good = sum(1 for res in gmm_results
               if 0.22 <= res["p"]["gmm-K3"] <= 0.62
               and 0.22 <= res["p"]["gmm-K4"] <= 0.62)
    ok = good >= 4
    pvals = [(round(r["p"]["gmm-K3"], 2), round(r["p"]["gmm-K4"], 2))
             for r in gmm_results]
    _report(2, "gmm p-values in [0.22,0.62]", ok, f"{good}/5 seeds, (p3,p4)={pvals}")
    assert ok


def test_criterion_3_regression_sym_kl():
    t0 = time.time()
    good = 0
    kls = []
    for root in SEEDS:
        seed = Seed(root)
        data = gen_regression_data(2000, 10, 2.5, seed)
        split = ppn.split_data(data, (0.25, 0.5, 0.25), seed)
        A, B = ppn.RegressionModelA(), ppn.RegressionModelB()
        ca = ppn.heldout_predictive_check(split, A, R=2000, seed=seed)
        cb = ppn.heldout_predictive_check(split, B, R=2000, seed=seed)
        pair = ppn.ppn_check(split, B, A, R=2000, seed=seed)
        kls.append(round(pair.sym_kl, 3))
        if ca.passed and cb.passed and pair.sym_kl <= 0.6:
            good += 1
    elapsed = time.time() - t0
    ok = good >= 4 and elapsed < 60
    _report(3, "regression sym-KL", ok, f"{good}/5 seeds, kl={kls}, {elapsed:.0f}s")
    assert ok


def _predictive_reference_cdf(post, X, anchor):
    """CDF of sum((r - anchor)^2) / 2 for r drawn from post's predictive.

    Row i of the predictive is Normal(m_i, s_i^2), so (r_i - anchor_i)^2 / 2
    has mean (s_i^2 + delta_i^2) / 2 and variance (2 s_i^4 + 4 s_i^2 delta_i^2)
    / 4 with delta_i = m_i - anchor_i.  The sum is compared to the scaled
    chi-square with that mean and variance.
    """
    s2 = post.predictive_var(X)
    delta2 = (post.predictive_mean(X) - anchor) ** 2
    mean = ((s2 + delta2) / 2.0).sum()
    var = ((2.0 * s2 ** 2 + 4.0 * s2 * delta2) / 4.0).sum()
    scale, dof = var / (2.0 * mean), 2.0 * mean ** 2 / var
    return lambda v: chi_square_cdf(v / scale, dof)


def test_criterion_4_replicate_diagnostic_distribution():
    # the location-free diagnostic of either model's replicates, anchored on
    # a large validation fit, is compared to its reference: chi-square with
    # n degrees of freedom for A, and for B the scaled chi-square that its
    # predictive implies (fitted coefficients shift B's diagnostic by
    # sum(delta^2)/2 + p/2, so plain chi-square_n is not B's reference)
    t0 = time.time()
    seed = Seed(1)
    n, p, R = 2000, 10, 10**4
    data = gen_regression_data(n, p, 2.5, seed)
    val = gen_regression_data(40000, p, 2.5, Seed(101))
    y, X = data.values[:, 0], data.covariates
    post_val = regression_fit_B(val.values[:, 0], val.covariates)
    mean_val = post_val.predictive_mean(X)
    ks = {}
    for name, post in (("A", regression_fit_A(y)), ("B", regression_fit_B(y, X))):
        reps = regression_predictive(post, R, seed.stream("rep", name)).values[:, :, 0]
        d = np.array([((r - mean_val) ** 2).sum() for r in reps]) / 2.0
        cdf = ((lambda v: chi_square_cdf(v, n)) if name == "A"
               else _predictive_reference_cdf(post, X, mean_val))
        ks[name] = ks_distance(d, cdf)
    elapsed = time.time() - t0
    ok = ks["A"] < 0.03 and ks["B"] < 0.03 and elapsed < 60
    _report(4, "replicate diagnostic KS", ok,
            f"KS_A={ks['A']:.4f}, KS_B={ks['B']:.4f}, {elapsed:.0f}s")
    assert ok


def test_criterion_5_multinomial_study_pattern():
    t0 = time.time()
    good = 0
    rows = []
    for root in SEEDS:
        seed = Seed(root)
        split = ppn.split_data(gen_multmix_data(510, seed=seed),
                               (1 / 3, 1 / 3, 1 / 3), seed)
        m = {K: ppn.MultMixModel(K) for K in (1, 2, 3, 4)}
        k21 = ppn.ppn_check(split, m[2], m[1], R=200, seed=seed)
        k32 = ppn.ppn_check(split, m[3], m[2], R=200, seed=seed)
        k42 = ppn.ppn_check(split, m[4], m[2], R=200, seed=seed)
        rows.append((round(k21.sym_kl, 2), round(k32.sym_kl, 2),
                     round(k42.sym_kl, 2)))
        if k21.sym_kl > 1.0 and k32.sym_kl <= 1.0 and k42.sym_kl <= 1.0:
            good += 1
    elapsed = time.time() - t0
    ok = good >= 4 and elapsed < 300
    _report(5, "multinomial study pattern", ok,
            f"{good}/5 seeds, (kl21,kl32,kl42)={rows}, {elapsed:.0f}s")
    assert ok


def test_criterion_6_factor_model_contrast():
    t0 = time.time()
    good = 0
    rows = []
    for root in SEEDS:
        seed = Seed(root)
        nl = ppn.split_data(gen_nonlinear_factor_data(3000, seed),
                            (1 / 3, 1 / 3, 1 / 3), seed)
        lin = ppn.split_data(gen_linear_factor_data(3000, seed),
                             (1 / 3, 1 / 3, 1 / 3), seed)
        p2, p5 = ppn.PpcaModel(2), ppn.PpcaModel(5)
        c2 = ppn.heldout_predictive_check(nl, p2, R=200, seed=seed)
        c5 = ppn.heldout_predictive_check(nl, p5, R=200, seed=seed)
        c2l = ppn.heldout_predictive_check(lin, p2, R=200, seed=seed)
        rows.append((round(c2.p_value, 2), round(c5.p_value, 2),
                     round(c2l.p_value, 2)))
        if (not c2.passed) and c5.passed and c2l.passed:
            good += 1
    elapsed = time.time() - t0
    ok = good >= 4 and elapsed < 120
    _report(6, "factor-model check contrast", ok,
            f"{good}/5 seeds, (p2_nl,p5_nl,p2_lin)={rows}, {elapsed:.0f}s")
    assert ok


def test_criterion_7_bayes_factor_pattern(gmm_results):
    good = 0
    rows = []
    for res in gmm_results:
        log_bf31 = res["log_ev"][3] - res["log_ev"][1]
        log_bf43 = res["log_ev"][4] - res["log_ev"][3]
        rows.append((round(log_bf31, 1), round(log_bf43, 1)))
        if log_bf31 > np.log(3.0) and np.log(0.5) <= log_bf43 <= np.log(2.0):
            good += 1
    total = sum(r["evidence_time"] for r in gmm_results)
    ok = good >= 4 and total < 120
    _report(7, "bayes-factor pattern", ok,
            f"{good}/5 seeds, (logBF31,logBF43)={rows}, {total:.0f}s")
    assert ok


def test_criterion_8_estimator_suite():
    t0 = time.time()
    g = Seed(42).stream("estimator-acceptance").generator
    a = g.standard_normal(50000)
    b = 1.0 + g.standard_normal(50000)
    kl = sym_kl_estimate(a, b)
    kl_ok = abs(kl - 0.5) <= 0.05

    # conjugate normal-location evidence with unit prior and noise variance
    n, R = 5, 10**4
    y = g.standard_normal(n) + 0.3
    s, q = y.sum(), (y ** 2).sum()
    closed = -0.5 * (n * np.log(2 * np.pi) + np.log(1.0 + n) + q - s ** 2 / (1.0 + n))
    mu = s / (1.0 + n) + np.sqrt(1.0 / (1.0 + n)) * g.standard_normal(R)
    loglik = -0.5 * (n * np.log(2 * np.pi)
                     + (q - 2.0 * mu * s + n * mu ** 2))
    hm = harmonic_mean_marginal_likelihood(loglik)
    hm_ok = abs(hm - closed) <= 0.5

    xs = np.linspace(0.1, 30.0, 50)
    cdf_ok = all(abs(chi_square_cdf(x, k) - _series_gamma_p(k / 2.0, x / 2.0)) < 1e-10
                 for k in (1, 2, 3, 10) for x in xs)
    elapsed = time.time() - t0
    ok = kl_ok and hm_ok and cdf_ok and elapsed < 30
    _report(8, "estimator suite", ok,
            f"sym_kl={kl:.3f}, evidence gap={abs(hm - closed):.3f} nats, "
            f"cdf 1e-10 grid={'ok' if cdf_ok else 'bad'}, {elapsed:.0f}s")
    assert ok


def test_criterion_9_study_determinism(tmp_path):
    t0 = time.time()
    cfg = {
        "seed": 11,
        "R": 100,
        "data": {"preset": "gmm", "n": 300},
        "models": [{"family": "gmm", "K": 1, "iters": 400, "burnin": 200, "thin": 2},
                   {"family": "gmm", "K": 2, "iters": 400, "burnin": 200, "thin": 2}],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    rc1 = cli_main(["study", "--config", str(cfg_path), "--out-dir", str(d1)])
    rc2 = cli_main(["study", "--config", str(cfg_path), "--out-dir", str(d2)])
    identical = (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
    elapsed = time.time() - t0
    ok = rc1 == 0 and rc2 == 0 and identical and elapsed < 60
    _report(9, "study determinism", ok,
            f"byte-identical={identical}, {elapsed:.0f}s")
    assert ok


def test_criterion_10_conjugate_correctness():
    t0 = time.time()
    # single-component Gibbs against the closed-form conjugate posterior
    g = Seed(21).stream("conjugate-data").generator
    x = ppn.Dataset((3.0 + np.sqrt(2.0) * g.standard_normal(400))[:, None])
    fit = gmm_gibbs_fit(x, 1, iters=3000, burnin=1000, thin=2,
                        stream=Seed(21).stream("fit"))
    mus = np.array([s.means[0, 0] for s in fit.states])
    sig2 = np.array([s.variances[0, 0] for s in fit.states])
    prec = np.array([1.0 / v for v in sig2])
    n, ybar = x.n, x.values.mean()
    # mean update at the posterior-mean precision; variance update from
    # residuals around the posterior-mean location
    prec_hat = prec.mean()
    mu_target = (n * prec_hat * ybar) / (n * prec_hat + 1.0 / 25.0)
    ss = ((x.values[:, 0] - mus.mean()) ** 2).sum()
    prec_target = (1.0 + n / 2.0) / (1.0 + ss / 2.0)
    gibbs_ok = (abs(mus.mean() - mu_target) < 0.05 * max(abs(mu_target), 1.0)
                and abs(prec.mean() - prec_target) < 0.05 * prec_target)

    X = g.standard_normal((60, 4))
    y = g.standard_normal(60)
    post = regression_fit_B(y, X)
    A = np.hstack([np.ones((60, 1)), X])
    coef = np.linalg.solve(A.T @ A, A.T @ y)
    ols_ok = (abs(post.intercept - coef[0]) < 1e-10
              and np.allclose(post.coef, coef[1:], atol=1e-10))

    data = gen_linear_factor_data(600, Seed(22))
    params = ppca_ml_fit(data, 2)
    centered = data.values - data.values.mean(axis=0)
    S = centered.T @ centered / data.n
    eig = np.sort(np.linalg.eigvalsh(S))[::-1]
    sigma_ok = abs(params.sigma2 - eig[2:].mean()) < 1e-6
    # the ML state's defining property, S C^-1 W = W (Tipping & Bishop eq. 8)
    C = params.W @ params.W.T + params.sigma2 * np.eye(params.G)
    residual = np.linalg.norm(S @ np.linalg.solve(C, params.W) - params.W)
    stationary_ok = residual <= 1e-8 * np.linalg.norm(params.W)
    elapsed = time.time() - t0
    ok = gibbs_ok and ols_ok and sigma_ok and stationary_ok and elapsed < 60
    _report(10, "conjugate correctness", ok,
            f"gibbs={gibbs_ok}, ols={ols_ok}, sigma2={sigma_ok}, "
            f"ml-stationary={stationary_ok}, {elapsed:.0f}s")
    assert ok
