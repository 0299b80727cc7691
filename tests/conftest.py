"""Shared fixtures: the reference microgrid, classified scenario pools,
and the acceptance-criteria summary hook."""

from dataclasses import replace

import numpy as np
import pytest

from gridbargain import PiecewiseSocBdc, classify_scenarios, forecast_all, validate_model
from gridbargain.fixtures import (FAVORABLE_FORECAST, four_user_model,
                                  synthetic_solar_pool, synthetic_wind_pool)

# one line per acceptance criterion, printed after the run
criterion_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in criterion_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def reference_model():
    return four_user_model()


@pytest.fixture(scope="session")
def reference_pools():
    """Classified pools for the reference model's three RG owners."""
    return {
        "u1": classify_scenarios(synthetic_solar_pool(6.5, seed=11), "pv", seed=21),
        "u3": classify_scenarios(synthetic_wind_pool(4.17, seed=12), "wt", seed=22),
        "u4": classify_scenarios(synthetic_solar_pool(5.3, seed=13), "pv", seed=23),
    }


@pytest.fixture(scope="session")
def favorable_rg(reference_pools):
    return forecast_all(reference_pools, FAVORABLE_FORECAST)


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


@pytest.fixture(scope="session")
def soc_dependent():
    """Puts every battery of a model on one piecewise SOC-dependent cost."""
    bdc = PiecewiseSocBdc(((0.0, 2.0), (0.2, 0.8), (0.8, 1.6)))

    def convert(model):
        users = tuple(replace(u, desd=replace(u.desd, bdc=bdc)) if u.is_active else u
                      for u in model.users)
        return validate_model(replace(model, users=users, _validated=False))
    return convert
