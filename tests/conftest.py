import numpy as np
import pytest

import brokergame as bg


@pytest.fixture(scope="session")
def params():
    return bg.DEFAULT_PARAMS


@pytest.fixture(scope="session")
def grid1000():
    return bg.TimeGrid(1.0, 1000)


@pytest.fixture(scope="session")
def grid200():
    return bg.TimeGrid(1.0, 200)


@pytest.fixture(scope="session")
def bundle(params, grid1000):
    """Default coefficient tables on the standard grid, solved once."""
    return bg.build_coefficients(params, grid1000)


@pytest.fixture(scope="session")
def bundle200(params, grid200):
    return bg.build_coefficients(params, grid200)


@pytest.fixture(scope="session")
def random_params():
    """The 25 random parameter sets of acceptance criterion 6 (seed 1234)."""
    rng = np.random.default_rng(1234)
    return [bg.DEFAULT_PARAMS.replace(
        kappa_signal=rng.uniform(1.0, 8.0),
        sigma_signal=rng.uniform(0.2, 2.0),
        theta_speed=rng.uniform(5.0, 15.0),
        sigma_speed=rng.uniform(5.0, 80.0),
        kappa_flow=rng.uniform(5.0, 25.0),
        sigma_flow=rng.uniform(20.0, 150.0),
        perm_impact=rng.uniform(0.0, 2e-3),
        rho=rng.uniform(-0.5, 0.5),
        temp_impact=2.1e-3 * rng.uniform(0.5, 2.0),
        fee_informed=2e-3 * rng.uniform(0.5, 2.0),
        fee_uninformed=2e-3 * rng.uniform(0.5, 2.0),
    ) for _ in range(25)]
