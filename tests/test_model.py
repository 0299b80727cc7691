"""Model types, validation, and the SOC recursion."""

import warnings

import numpy as np
import pytest

from gridbargain import (ConstantBdc, DesdParams, DisconnectedGraph, GridLimits,
                         Horizon, InvariantViolation, MicrogridModel,
                         PiecewiseSocBdc, PriceProfile, Pv, UserSpec,
                         soc_trajectory, validate_model)
from gridbargain.fixtures import four_user_model, household_demands, tou_prices


def _model(**overrides):
    """A small valid 2-user instance, fields swappable per test."""
    fields = dict(
        horizon=Horizon(steps=3, dt=1.0),
        users=(
            UserSpec("a"),
            UserSpec("b", desd=DesdParams(e0=1.0, e_min=0.5, e_max=2.0, p_b_max=1.0)),
        ),
        demands=np.ones((2, 3)),
        prices=PriceProfile(buy=np.full(3, 10.0), sell=np.full(3, 8.0)),
    )
    fields.update(overrides)
    return MicrogridModel(**fields)


# ---------------------------------------------------------------- validation

def test_reference_model_is_valid():
    m = four_user_model()
    assert m.n_users == 4
    assert m.user_ids == ("u1", "u2", "u3", "u4")
    u1 = m.users[0]
    assert u1.desd.kappa == 0.9
    assert u1.desd.e_min == 2.8 and u1.desd.e_max == 12.0
    assert u1.is_active and not m.users[1].is_active
    # defaults got filled in
    assert m.grid is not None and m.grid.p_g_max > 0
    assert m.graph is not None


def test_validate_fills_ring_and_grid_default():
    m = validate_model(_model())
    # ring over 2 users + grid agent
    assert set(m.graph) == {(0, 1), (0, 2), (1, 2)}
    peak = float(np.max(m.demands.sum(axis=0)))
    assert m.grid.p_g_max == pytest.approx(10.0 * peak)


def test_validate_is_idempotent():
    m = validate_model(_model())
    assert validate_model(m) is m


def test_rg_without_storage_rejected():
    # a load-only user cannot own a generator; storage is what makes a
    # user active
    with pytest.raises(InvariantViolation, match="storage"):
        validate_model(_model(users=(UserSpec("a", rg=Pv(3.0)), _model().users[1])))


def test_desd_bounds_rejected():
    bad = DesdParams(e0=3.0, e_min=0.0, e_max=2.0, p_b_max=1.0)  # e0 > e_max
    with pytest.raises(InvariantViolation, match="e_min <= e0 <= e_max"):
        validate_model(_model(users=(UserSpec("a"), UserSpec("b", desd=bad))))


def test_kappa_and_rating_rejected():
    bad = DesdParams(e0=1.0, e_min=0.0, e_max=2.0, p_b_max=0.0, kappa=1.5)
    try:
        validate_model(_model(users=(UserSpec("a"), UserSpec("b", desd=bad))))
    except InvariantViolation as e:
        text = "; ".join(e.violations)
        assert "kappa" in text and "p_b_max" in text  # both reported at once
    else:
        pytest.fail("invalid desd accepted")


def test_negative_demand_and_price_rejected():
    with pytest.raises(InvariantViolation, match="demands"):
        validate_model(_model(demands=-np.ones((2, 3))))
    with pytest.raises(InvariantViolation, match="prices.buy"):
        validate_model(_model(prices=PriceProfile(buy=[-1.0, 1, 1], sell=[0, 0, 0])))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_rejected(bad):
    """NaN fails every comparison, so each range check also needs isfinite."""
    demands = np.ones((2, 3))
    demands[1, 2] = bad
    buy = np.full(3, 10.0)
    buy[0] = bad
    cases = [dict(demands=demands),
             dict(prices=PriceProfile(buy=buy, sell=np.full(3, 8.0)))]
    for desd in (DesdParams(e0=1.0, e_min=0.0, e_max=2.0, p_b_max=1.0,
                            bdc=ConstantBdc(bad)),
                 DesdParams(e0=1.0, e_min=0.0, e_max=2.0, p_b_max=1.0,
                            bdc=PiecewiseSocBdc(((0.0, 1.0), (0.5, bad)))),
                 DesdParams(e0=1.0, e_min=0.0, e_max=bad, p_b_max=1.0),
                 DesdParams(e0=1.0, e_min=0.0, e_max=2.0, p_b_max=bad)):
        cases.append(dict(users=(UserSpec("a"), UserSpec("b", desd=desd))))
    cases += [dict(grid=GridLimits(bad)), dict(horizon=Horizon(steps=3, dt=bad)),
              dict(users=(UserSpec("a"), UserSpec("b", desd=DesdParams(
                  e0=1.0, e_min=0.0, e_max=2.0, p_b_max=1.0), rg=Pv(bad))))]
    for override in cases:
        with pytest.raises(InvariantViolation):
            validate_model(_model(**override))


def test_shape_mismatch_rejected():
    with pytest.raises(InvariantViolation, match="shape"):
        validate_model(_model(demands=np.ones((2, 5))))


def test_duplicate_ids_rejected():
    users = (UserSpec("a"), UserSpec("a"))
    with pytest.raises(InvariantViolation, match="unique"):
        validate_model(_model(users=users))


def test_isolated_node_rejected():
    # 2 users + grid = 3 nodes; the edge list leaves node 2 unreachable
    with pytest.raises(DisconnectedGraph):
        validate_model(_model(graph=((0, 1),)))


def test_sell_above_buy_warns_but_passes():
    prices = PriceProfile(buy=np.full(3, 10.0), sell=np.full(3, 12.0))
    with pytest.warns(UserWarning, match="sell price"):
        m = validate_model(_model(prices=prices))
    assert m._validated


def test_piecewise_bdc_validation():
    ok = PiecewiseSocBdc(((0.0, 2.0), (0.5, 1.0)))
    desd = DesdParams(e0=1.0, e_min=0.0, e_max=2.0, p_b_max=1.0, bdc=ok)
    validate_model(_model(users=(UserSpec("a"), UserSpec("b", desd=desd))))

    for bad in (
        PiecewiseSocBdc(((0.2, 1.0),)),             # must start at 0
        PiecewiseSocBdc(((0.0, 1.0), (0.0, 2.0))),  # not increasing
        PiecewiseSocBdc(((0.0, -1.0),)),            # negative cost
    ):
        desd = DesdParams(e0=1.0, e_min=0.0, e_max=2.0, p_b_max=1.0, bdc=bad)
        with pytest.raises(InvariantViolation, match="bdc"):
            validate_model(_model(users=(UserSpec("a"), UserSpec("b", desd=desd))))


# ---------------------------------------------------------------- soc

def test_soc_zero_schedule_is_flat():
    desd = DesdParams(e0=2.8, e_min=0.0, e_max=12.0, p_b_max=4.0, kappa=0.9)
    np.testing.assert_allclose(
        soc_trajectory(desd, np.zeros(5), np.zeros(5)), np.full(5, 2.8))


def test_soc_single_charge_step():
    desd = DesdParams(e0=2.8, e_min=0.0, e_max=12.0, p_b_max=4.0, kappa=0.9)
    soc = soc_trajectory(desd, [0.0], [1.0])
    assert soc[0] == pytest.approx(2.8 + 0.9, abs=1e-12)


def test_soc_single_discharge_step():
    desd = DesdParams(e0=2.8, e_min=0.0, e_max=12.0, p_b_max=4.0, kappa=0.9)
    soc = soc_trajectory(desd, [0.9], [0.0])
    assert soc[0] == pytest.approx(2.8 - 1.0, abs=1e-12)


def test_soc_is_linear_in_schedules(rng):
    desd = DesdParams(e0=5.0, e_min=0.0, e_max=20.0, p_b_max=4.0, kappa=0.85)
    x = rng.uniform(0, 2, size=(2, 8))
    y = rng.uniform(0, 2, size=(2, 8))
    a, b = 0.7, 1.9
    lhs = soc_trajectory(desd, a * x[0] + b * y[0], a * x[1] + b * y[1]) - desd.e0
    rhs = (a * (soc_trajectory(desd, x[0], x[1]) - desd.e0)
           + b * (soc_trajectory(desd, y[0], y[1]) - desd.e0))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_soc_respects_dt():
    desd = DesdParams(e0=2.0, e_min=0.0, e_max=12.0, p_b_max=4.0, kappa=1.0)
    np.testing.assert_allclose(
        soc_trajectory(desd, [0.0, 0.0], [1.0, 1.0], dt=0.5), [2.5, 3.0])


# ---------------------------------------------------------------- bdc lookup

def test_piecewise_unit_cost_lookup():
    bdc = PiecewiseSocBdc(((0.0, 2.0), (0.5, 1.0)))
    np.testing.assert_allclose(
        bdc.unit_cost(np.array([0.0, 0.49, 0.5, 0.51, 1.0])),
        [2.0, 2.0, 1.0, 1.0, 1.0])


def test_model_arrays_are_frozen():
    m = four_user_model()
    with pytest.raises(ValueError):
        m.demands[0, 0] = 99.0
    with pytest.raises(ValueError):
        m.prices.buy[0] = 99.0


def test_fixture_profiles_sane():
    d = household_demands()
    assert d.shape == (4, 24) and np.all(d >= 0)
    p = tou_prices()
    assert np.all(p.sell < p.buy)  # no arbitrage in the shipped tariff
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        four_user_model()  # shipped instance validates without warnings
