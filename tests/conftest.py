"""Shared fixtures: calibrated model, cached recoil engines, study FSS."""

from dataclasses import replace

import numpy as np
import pytest

from tribeta.bias import build_study_fss
from tribeta.franck_condon import GridSpec, RecoilEngine, default_model
from tribeta.physics import momentum_from_kinetic

ENDPOINT_EV = 18575.0


@pytest.fixture(scope="session")
def q_endpoint():
    return momentum_from_kinetic(ENDPOINT_EV).recoil_q_au


@pytest.fixture(scope="session")
def model():
    return default_model()


@pytest.fixture(scope="session")
def small_model():
    """Coarser grid variant for cheap overlap tests."""
    return replace(default_model(), grid=GridSpec(points=512))


@pytest.fixture(scope="session")
def small_engine(small_model):
    return RecoilEngine(small_model, j_max=40, v_max=60)


@pytest.fixture(scope="session")
def study_fss():
    return build_study_fss()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240901)
