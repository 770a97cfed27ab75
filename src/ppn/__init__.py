"""Posterior predictive model criticism: heldout checks, pairwise nulls,
and study orchestration for a registry of Bayesian models."""

from .core import (CheckOutcome, DataSplit, Dataset, PpnOutcome, StudyReport,
                   pass_fail, split_data)
from .checks import (StudyConfig, heldout_predictive_check,
                     posterior_predictive_pvalue, ppn_check, ppn_study)
from .diagnostics import DiagnosticSpec, validation_diagnostic
from .estimators import (bayes_factor, harmonic_mean_marginal_likelihood,
                         kde_density, sym_kl_estimate)
from .models import (GmmModel, MultMixModel, PpcaModel, RegressionModelA,
                     RegressionModelB, make_model)
from .report import emit_report
from .rng import Seed, VariateStream, chi_square_cdf, ks_distance

__all__ = [
    "CheckOutcome", "DataSplit", "Dataset", "DiagnosticSpec", "GmmModel",
    "MultMixModel", "PpcaModel", "PpnOutcome", "RegressionModelA",
    "RegressionModelB", "Seed", "StudyConfig", "StudyReport", "VariateStream",
    "bayes_factor", "chi_square_cdf", "emit_report",
    "harmonic_mean_marginal_likelihood", "heldout_predictive_check",
    "kde_density", "ks_distance", "make_model", "pass_fail",
    "posterior_predictive_pvalue", "ppn_check", "ppn_study",
    "split_data", "sym_kl_estimate", "validation_diagnostic",
]

__version__ = "0.1.0"
