"""Settings from outside the program: every constructor that takes a count
refuses anything but an integer, and every one that takes a real number
refuses anything but a finite one."""

import math

import numpy as np
import pytest

from ppn import datagen
from ppn.checks import (StudyConfig, heldout_predictive_check, posterior_predictive_pvalue,
                        ppn_check)
from ppn.core import split_data
from ppn.errors import ParameterError, finite, integer
from ppn.mixtures import ChainConfig
from ppn.models import GmmModel, MultMixModel, PpcaModel
from ppn.rng import Seed

# The entry points check their settings before any fit, so these inputs
# are never fitted.
SPLIT = split_data(datagen.gen_gmm_data(30, Seed(0)), (1 / 3, 1 / 3, 1 / 3), Seed(0))
MODELS = GmmModel(1), GmmModel(2)


def _heldout(**settings):
    return heldout_predictive_check(SPLIT, MODELS[0], seed=Seed(0), **settings)


def _classical(**settings):
    return posterior_predictive_pvalue(SPLIT.x_in, MODELS[0], seed=Seed(0), **settings)


def _pair(**settings):
    return ppn_check(SPLIT, *MODELS, seed=Seed(0), **settings)


# Each builder passes its one argument to the setting named by its key.
INTEGER_SETTINGS = {
    "Seed.root": Seed,
    "ChainConfig.iters": lambda v: ChainConfig(iters=v, burnin=0),
    "ChainConfig.burnin": lambda v: ChainConfig(iters=10, burnin=v),
    "ChainConfig.thin": lambda v: ChainConfig(thin=v),
    "GmmModel.K": GmmModel,
    "MultMixModel.K": MultMixModel,
    "PpcaModel.K": PpcaModel,
    "gen_gmm_data.n": lambda v: datagen.gen_gmm_data(v, Seed(0)),
    "gen_regression_data.n": lambda v: datagen.gen_regression_data(v, seed=Seed(0)),
    "gen_linear_factor_data.n": lambda v: datagen.gen_linear_factor_data(v, Seed(0)),
    "gen_nonlinear_factor_data.n": lambda v: datagen.gen_nonlinear_factor_data(v, Seed(0)),
    "gen_multmix_data.n": lambda v: datagen.gen_multmix_data(v, seed=Seed(0)),
    "StudyConfig.R": lambda v: StudyConfig(R=v),
    "heldout_predictive_check.R": lambda v: _heldout(R=v),
    "posterior_predictive_pvalue.R": lambda v: _classical(R=v),
    "ppn_check.R": lambda v: _pair(R=v),
}
FINITE_SETTINGS = {
    "StudyConfig.alpha": lambda v: StudyConfig(alpha=v),
    "StudyConfig.tau": lambda v: StudyConfig(tau=v),
    "heldout_predictive_check.alpha": lambda v: _heldout(alpha=v),
    "posterior_predictive_pvalue.alpha": lambda v: _classical(alpha=v),
    "ppn_check.tau": lambda v: _pair(tau=v),
}


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2", math.nan],
                         ids=["float", "integral-float", "bool", "numeric-string", "nan"])
@pytest.mark.parametrize("setting", sorted(INTEGER_SETTINGS))
def test_integer_settings_refuse_non_integers(setting, bad):
    with pytest.raises(ParameterError, match="must be an integer"):
        INTEGER_SETTINGS[setting](bad)


@pytest.mark.parametrize("bad", [True, "0.5", math.nan, math.inf, 10**400],
                         ids=["bool", "numeric-string", "nan", "inf", "int-beyond-float"])
@pytest.mark.parametrize("setting", sorted(FINITE_SETTINGS))
def test_finite_settings_refuse_non_finite(setting, bad):
    with pytest.raises(ParameterError, match="must be a finite number"):
        FINITE_SETTINGS[setting](bad)


def test_checks_return_plain_values():
    assert type(integer(np.int64(3), "k", 1)) is int
    assert type(finite(np.float32(0.5), "x")) is float
    with pytest.raises(ParameterError, match="k must be >= 1, not 0"):
        integer(0, "k", 1)


def test_accepted_values_are_stored_plain():
    # a numpy integer seed keys its streams as the same int would
    a = Seed(np.int64(2)).stream("s").generator.random(3)
    assert np.array_equal(a, Seed(2).stream("s").generator.random(3))
    config = StudyConfig(R=np.int64(5), tau=1)
    assert type(config.R) is int and repr(config.tau) == "1.0"
    assert GmmModel(np.int64(2)).id == "gmm-K2"
