"""The package imports, fits, replicates and scores without SciPy.

SciPy is not a runtime dependency: the tests use it only as an oracle.
"""

import os
import subprocess
import sys
import textwrap

import ppn

SUBMODULES = ("checks", "cli", "core", "datagen", "diagnostics", "estimators",
              "linear", "mixtures", "models", "report", "rng")

# tiny runs of every built-in adapter through the check and the pairwise
# null, then the evidence estimator on a fit's log-likelihoods, then the
# chi-square CDF
PROBE = textwrap.dedent("""
    import importlib
    import sys

    import ppn
    for name in {submodules!r}:
        importlib.import_module("ppn." + name)
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, f"importing ppn loaded {{loaded[:5]}}"

    from ppn import datagen, mixtures
    seed = ppn.Seed(3)
    third = (1 / 3, 1 / 3, 1 / 3)
    gmm = ppn.split_data(datagen.gen_gmm_data(90, seed), third, seed)
    cat = ppn.split_data(datagen.gen_multmix_data(90, seed=seed), third, seed)
    reg = ppn.split_data(datagen.gen_regression_data(90, 3, 2.5, seed), third, seed)
    lin = ppn.split_data(datagen.gen_linear_factor_data(90, seed), third, seed)
    ppn.ppn_check(gmm, ppn.GmmModel(2, 40, 20, 2, reduction="map"),
                  ppn.GmmModel(1, 40, 20, 2), R=8, seed=seed)
    ppn.ppn_check(cat, ppn.MultMixModel(2, 40, 20, 2), ppn.MultMixModel(1, 40, 20, 2),
                  R=8, seed=seed)
    ppn.ppn_check(reg, ppn.RegressionModelB(), ppn.RegressionModelA(), R=8, seed=seed)
    ppn.heldout_predictive_check(lin, ppn.PpcaModel(2), R=8, seed=seed)
    fit = mixtures.gmm_gibbs_fit(gmm.x_in, 2, 40, 20, 2, seed.stream("fit"))
    ppn.harmonic_mean_marginal_likelihood(fit.loglik)
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, f"fitting and scoring loaded {{loaded[:5]}}"

    assert abs(ppn.chi_square_cdf(2.0, 2) - 0.6321205588285577) < 1e-12
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, f"the chi-square CDF loaded {{loaded[:5]}}"
""")


def test_package_runs_without_loading_scipy():
    src = os.path.dirname(os.path.dirname(ppn.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run([sys.executable, "-c", PROBE.format(submodules=SUBMODULES)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
