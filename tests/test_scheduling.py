"""Centralized social and individual schedulers.

The toy-instance expectations were produced by the brute-force oracles
in this file (exhaustive search over battery actions on a 0.1 kW
lattice) and frozen; each test re-runs its oracle so a drift in either
side shows up.
"""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from gridbargain import (ConstantBdc, DesdParams, GridLimits, Horizon, Infeasible,
                         InvariantViolation, LengthMismatch, MicrogridModel, PiecewiseSocBdc,
                         PriceProfile, Pv, UserSpec, bdc_cost, classify_scenarios,
                         forecast_all, individual_costs,
                         soc_trajectory, solve_individual, solve_social,
                         trading_cost, validate_model)
from gridbargain import scheduling
from gridbargain.fixtures import (FAVORABLE_FORECAST, four_user_model, random_model,
                                  random_rg_profiles, synthetic_solar_pool)
from gridbargain.scheduling import (FEAS_TOL, _battery_and_grid, _dual_value, _forced_exchange,
                                    _lp_keywords, _priced_battery, _solve_lp, _storage_lp)
from _oracles import cumulative_storage_lp, relinearize_every_pass

FLAT3 = PriceProfile(buy=np.full(3, 10.0), sell=np.full(3, 8.0))


# ---------------------------------------------------------------- costs

def test_trading_cost_zero():
    assert trading_cost(FLAT3, np.zeros(3), np.zeros(3)) == 0.0


def test_trading_cost_constant_rate():
    prices = PriceProfile(buy=np.full(24, 10.0), sell=np.full(24, 8.0))
    assert trading_cost(prices, np.ones(24), np.zeros(24)) == pytest.approx(240.0)


def test_trading_cost_buy_and_sell():
    prices = PriceProfile(buy=np.full(24, 10.0), sell=np.full(24, 8.0))
    assert trading_cost(prices, np.ones(24), np.ones(24)) == pytest.approx(48.0)


def test_trading_cost_length_mismatch():
    with pytest.raises(LengthMismatch):
        trading_cost(FLAT3, np.ones(5), np.zeros(5))


def test_bdc_cost_zero_throughput():
    assert bdc_cost(ConstantBdc(1.0), np.zeros(4), np.zeros(4), np.full(4, 2.0), 10.0) == 0.0


def test_bdc_cost_constant():
    got = bdc_cost(ConstantBdc(1.0), np.zeros(3), np.full(3, 2.0), np.full(3, 5.0), 10.0)
    assert got == pytest.approx(6.0)


def test_bdc_cost_piecewise_table_lookup():
    # oracle: units at soc/capacity 0.6/0.4/0.6 are 1/2/1 c/kWh and the
    # per-step throughputs 1/2/2 kWh, so 1*1 + 2*2 + 1*2 = 7 c by hand
    bdc = PiecewiseSocBdc(((0.0, 2.0), (0.5, 1.0)))
    got = bdc_cost(bdc, [1.0, 2.0, 0.0], [0.0, 0.0, 2.0], [6.0, 4.0, 6.0], 10.0)
    assert got == pytest.approx(7.0, abs=1e-12)


def test_bdc_cost_length_mismatch():
    with pytest.raises(LengthMismatch):
        bdc_cost(ConstantBdc(1.0), np.zeros(4), np.zeros(3), np.zeros(4), 10.0)


# ---------------------------------------------------------------- oracles

def _toy_model():
    """One passive plus one battery user, flat-then-peak tariff."""
    return validate_model(MicrogridModel(
        horizon=Horizon(steps=4, dt=1.0),
        users=(
            UserSpec("a"),
            UserSpec("b", desd=DesdParams(e0=0.5, e_min=0.0, e_max=1.0, p_b_max=0.3,
                                          kappa=1.0, bdc=ConstantBdc(0.0))),
        ),
        demands=np.array([[0.5, 0.5, 0.5, 0.5], [0.2, 0.2, 0.2, 0.8]]),
        prices=PriceProfile(buy=[10.0, 10.0, 10.0, 30.0], sell=[8.0, 8.0, 8.0, 24.0]),
        grid=GridLimits(100.0),
    ))


def _toy_grid_search():
    """Exhaustive search over net battery actions on the 0.1 kW lattice.

    kappa = 1 so only the net action matters, and every vertex of the LP
    lies on the lattice; the search is a true optimum, not a bound.
    """
    demand = np.array([0.7, 0.7, 0.7, 1.3])
    p_buy = np.array([10.0, 10.0, 10.0, 30.0])
    p_sell = np.array([8.0, 8.0, 8.0, 24.0])
    levels = np.round(np.arange(-0.3, 0.3 + 1e-12, 0.1), 10)
    best = np.inf
    for combo in itertools.product(levels, repeat=4):
        a = np.array(combo)
        soc = 0.5 - np.cumsum(a)
        if np.any(soc < -1e-12) or np.any(soc > 1.0 + 1e-12):
            continue
        net = demand - a
        cost = float(np.sum(p_buy * np.clip(net, 0, None)
                            - p_sell * np.clip(-net, 0, None)))
        best = min(best, cost)
    return best


def test_toy_social_matches_grid_search():
    oracle = _toy_grid_search()
    assert oracle == pytest.approx(49.0, abs=1e-9)  # frozen oracle output
    out = solve_social(_toy_model())
    assert out.social_cost == pytest.approx(oracle, abs=1e-6)


def test_social_zero_instance():
    # flat tariff so storage arbitrage cannot pay; with e0 = e_min and no
    # load the pool then has nothing to do
    m = four_user_model(p_g_max=50.0)
    flat = PriceProfile(buy=np.full(24, 10.0), sell=np.full(24, 8.0))
    m0 = validate_model(replace(m, demands=np.zeros((4, 24)), prices=flat,
                                _validated=False))
    out = solve_social(m0)
    assert out.social_cost == pytest.approx(0.0, abs=1e-9)
    assert abs(out.decision.grid_buy).max() <= 1e-9
    assert abs(out.decision.grid_sell).max() <= 1e-9
    for u in ("u1", "u3", "u4"):
        assert abs(out.decision.discharge[u]).max() <= 1e-9
        assert abs(out.decision.charge[u]).max() <= 1e-9


def test_social_single_passive_user(rng):
    d = rng.uniform(0, 3, size=5)
    prices = PriceProfile(buy=rng.uniform(5, 20, size=5), sell=np.full(5, 1.0))
    m = validate_model(MicrogridModel(
        horizon=Horizon(steps=5, dt=1.0), users=(UserSpec("p"),),
        demands=d[None, :], prices=prices))
    out = solve_social(m)
    assert out.social_cost == pytest.approx(float(prices.buy @ d), abs=1e-6)
    assert out.bdc_costs == {}


def test_social_cost_identity(reference_model, favorable_rg):
    out = solve_social(reference_model, favorable_rg)
    assert out.social_cost == pytest.approx(
        out.trading_cost + sum(out.bdc_costs.values()), abs=1e-9)


def test_non_finite_rg_profile_rejected(reference_model, favorable_rg):
    rg = dict(favorable_rg.profiles)
    rg["u3"] = rg["u3"].copy()
    rg["u3"][5] = np.nan
    with pytest.raises(InvariantViolation, match="u3"):
        solve_social(reference_model, rg)
    with pytest.raises(InvariantViolation, match="u3"):
        individual_costs(reference_model, rg)


@pytest.mark.parametrize("shape", [(), (1,), (23,), (25,), (24, 1), (1, 24)])
def test_wrong_shape_rg_profile_rejected(reference_model, favorable_rg, shape):
    rg = dict(favorable_rg.profiles, u3=np.ones(shape))
    with pytest.raises(LengthMismatch, match="u3"):
        solve_social(reference_model, rg)
    with pytest.raises(LengthMismatch, match="u3"):
        individual_costs(reference_model, rg)
    k = reference_model.user_index("u3")
    with pytest.raises(LengthMismatch, match="u3"):
        solve_individual(reference_model.users[k], reference_model.demands[k],
                         reference_model.prices, reference_model.grid,
                         reference_model.horizon, rg_profile=np.ones(shape))


def test_forecast_from_narrow_pool_rejected(reference_model):
    pool = classify_scenarios(synthetic_solar_pool(6.5, n_days=60, T=20, seed=11), "pv",
                              seed=21)
    rg = forecast_all({"u1": pool}, FAVORABLE_FORECAST)
    with pytest.raises(LengthMismatch, match="u1"):
        solve_social(reference_model, rg)
    with pytest.raises(LengthMismatch, match="u1"):
        individual_costs(reference_model, rg)


def test_solo_is_pooled_problem_of_one_user():
    rng = np.random.default_rng(31)
    bdc = PiecewiseSocBdc(((0.0, 2.0), (0.2, 0.8), (0.8, 1.6)))  # relinearizes
    for _ in range(3):
        m = random_model(rng, r_max=4, T=24)
        rg = random_rg_profiles(m, rng)
        for k, u in enumerate(m.users):
            if u.is_active:
                u = replace(u, desd=replace(u.desd, bdc=bdc))
            alone = validate_model(MicrogridModel(
                horizon=m.horizon, users=(u,), demands=m.demands[k:k + 1],
                prices=m.prices, grid=m.grid))
            solo = solve_individual(u, m.demands[k], m.prices, m.grid, m.horizon,
                                    rg_profile=rg.get(u.id))
            pooled = solve_social(alone, rg)
            assert solo.cost == pooled.social_cost
            assert solo.bdc_cost == pooled.bdc_costs.get(u.id, 0.0)
            np.testing.assert_array_equal(solo.decision.grid_buy, pooled.decision.grid_buy)


def test_outer_iterations_count_the_passes(monkeypatch, soc_dependent, reference_model):
    """outer_iterations is the number of linearizations solved, not the
    index of the best one. A SOC-dependent cost is re-solved until its
    true cost settles or its re-looked-up costs repeat a profile already
    solved; the pooled LP counts through ``_solve_lp``, a lone battery
    through its DP."""
    calls = []
    for name in ("_solve_lp", "_battery_and_grid"):
        def counting(*args, _real=getattr(scheduling, name), **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)
        monkeypatch.setattr(scheduling, name, counting)

    assert solve_social(reference_model).outer_iterations == len(calls) == 1
    calls.clear()
    assert solve_social(soc_dependent(reference_model)).outer_iterations == len(calls) == 3
    rng = np.random.default_rng(7)
    batteries = set()
    for _ in range(3):
        m = soc_dependent(random_model(rng, r_max=5, T=24))
        rg = random_rg_profiles(m, rng)
        calls.clear()
        assert solve_social(m, rg).outer_iterations == len(calls) >= 2
        batteries.add(sum(u.is_active for u in m.users) == 1)
    assert batteries == {True, False}  # both solvers were counted


def _soc_dependent_draws(soc_dependent):
    """SOC-dependent random grids with their generation: T=24 draws with
    one battery and with several, and one at T=96, dt=0.25."""
    rng = np.random.default_rng(7)
    draws = []
    for _ in range(8):
        m = soc_dependent(random_model(rng, r_max=5, T=24))
        draws.append((m, random_rg_profiles(m, rng)))
    m = random_model(rng, r_max=4, T=96)
    m = soc_dependent(replace(m, horizon=Horizon(steps=96, dt=0.25), _validated=False))
    draws.append((m, random_rg_profiles(m, rng)))
    n_batteries = {min(sum(u.is_active for u in m.users), 2) for m, _ in draws}
    assert n_batteries == {1, 2}  # both the DP and HiGHS are covered
    return draws


def _bits(x):
    """``x`` down to its bytes: arrays, floats and dicts of them."""
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    return None if x is None else (np.shape(x), np.asarray(x, dtype=float).tobytes())


def _assert_same_schedule(a, b, costs):
    """Decisions, SOC and the named cost fields of ``a`` and ``b``, bitwise."""
    for field in ("grid_buy", "grid_sell", "discharge", "charge"):
        assert _bits(getattr(a.decision, field)) == _bits(getattr(b.decision, field))
    for field in ("soc",) + costs:
        assert _bits(getattr(a, field)) == _bits(getattr(b, field))


def test_linearization_stopping_at_a_repeat_is_exact(monkeypatch, soc_dependent):
    """Stopping at the first repeated cost profile returns the schedule,
    SOC paths and costs of re-solving until MAX_OUTER, bit for bit, in
    fewer passes: a repeat only replays iterates already costed."""
    fewer = 0
    for m, rg in _soc_dependent_draws(soc_dependent):
        social, solo = solve_social(m, rg), individual_costs(m, rg)
        with monkeypatch.context() as patch:
            patch.setattr(scheduling, "_pooled", relinearize_every_pass)
            social_ref, solo_ref = solve_social(m, rg), individual_costs(m, rg)
        _assert_same_schedule(social, social_ref, ("trading_cost", "bdc_costs", "social_cost"))
        assert social.outer_iterations <= social_ref.outer_iterations
        fewer += social.outer_iterations < social_ref.outer_iterations
        assert solo.keys() == solo_ref.keys()
        for uid in solo:
            _assert_same_schedule(solo[uid], solo_ref[uid], ("trading_cost", "bdc_cost", "cost"))
    assert fewer > 0  # the draws do cycle


def test_no_cost_profile_is_solved_twice(monkeypatch, soc_dependent):
    """Every LP and DP a linearization hands out has inputs not solved
    before in the same schedule: a repeated unit-cost profile ends it."""
    seen = []

    def recording(name, key):
        def wrapped(*args, _real=getattr(scheduling, name), **kwargs):
            seen.append((name, key(*args)))
            return _real(*args, **kwargs)
        monkeypatch.setattr(scheduling, name, wrapped)

    recording("_solve_lp", lambda c, lp, bus, what: (c.tobytes(), bus.tobytes(), what))
    recording("_battery_and_grid", lambda desd, unit, buy, sell, net, *rest: (
        id(desd), np.asarray(unit).tobytes(), net.tobytes(), rest))
    for m, rg in _soc_dependent_draws(soc_dependent):
        seen.clear()
        solve_social(m, rg)
        assert len(seen) == len(set(seen)) >= 1
        for k, u in enumerate(m.users):
            if u.is_active:
                seen.clear()
                solve_individual(u, m.demands[k], m.prices, m.grid, m.horizon,
                                 rg_profile=rg.get(u.id))
                assert len(seen) == len(set(seen)) >= 1


def test_a_flat_soc_dependent_cost_takes_one_pass(reference_model):
    """When the re-looked-up costs equal the starting ones, the first
    solve is the answer: re-solving would return it again."""
    def with_bdc(bdc):
        users = tuple(replace(u, desd=replace(u.desd, bdc=bdc)) if u.is_active else u
                      for u in reference_model.users)
        return validate_model(replace(reference_model, users=users, _validated=False))

    out = solve_social(with_bdc(PiecewiseSocBdc(((0.0, 1.5), (0.5, 1.5)))))
    assert out.outer_iterations == 1
    assert out.social_cost == solve_social(with_bdc(ConstantBdc(1.5))).social_cost


def test_infeasible_when_grid_too_small():
    m = validate_model(MicrogridModel(
        horizon=Horizon(steps=3, dt=1.0), users=(UserSpec("p"),),
        demands=np.full((1, 3), 2.0), prices=FLAT3, grid=GridLimits(0.5)))
    with pytest.raises(Infeasible):
        solve_social(m)
    # with a battery: 2.5 kW in hour 2 is past the 1 kW grid plus 1 kW battery
    user = UserSpec("a", desd=DesdParams(e0=1.0, e_min=0.0, e_max=2.0, p_b_max=1.0))
    with pytest.raises(Infeasible):
        solve_individual(user, np.array([0.5, 2.5, 0.0]), FLAT3, GridLimits(1.0),
                         Horizon(steps=3, dt=1.0))


def test_individual_passive_is_forced_purchase(rng):
    d = rng.uniform(0, 3, size=6)
    prices = PriceProfile(buy=rng.uniform(5, 20, size=6), sell=np.full(6, 1.0))
    out = solve_individual(UserSpec("p"), d, prices, GridLimits(100.0),
                           Horizon(steps=6, dt=1.0))
    assert out.cost == pytest.approx(float(prices.buy @ d), abs=1e-9)
    assert out.decision.discharge is None and out.soc is None


@pytest.mark.parametrize("seed", range(20))
def test_forced_exchange_is_the_passive_lp_optimum(seed):
    rng = np.random.default_rng(seed)
    T, p_g_max, dt = int(rng.integers(1, 30)), float(rng.uniform(1.0, 10.0)), 0.25
    net = rng.uniform(-p_g_max, p_g_max, T)
    net[rng.random(T) < 0.15] = 0.0
    net[rng.random(T) < 0.15] = p_g_max * rng.choice([-1.0, 1.0])
    buy = rng.uniform(1.0, 20.0, T)
    sell = buy * rng.uniform(0.2, 1.5, T)  # selling pays more at about a third of the steps
    tie = rng.random(T) < 0.1
    sell[tie] = buy[tie]
    prices = PriceProfile(buy=buy, sell=sell)
    x = _solve_lp(np.concatenate([buy, -sell]) * dt,
                  _storage_lp([(p_g_max, None)], T, dt), net, "oracle")
    got_buy, got_sell = _forced_exchange(net, prices, p_g_max, "closed form")
    assert trading_cost(prices, got_buy, got_sell, dt) == pytest.approx(
        trading_cost(prices, x[:T], x[T:], dt), abs=1e-9)
    # the optimum is unique wherever buying and selling prices differ
    np.testing.assert_array_equal(got_buy[~tie], x[:T][~tie])
    np.testing.assert_array_equal(got_sell[~tie], x[T:][~tie])
    assert np.all(np.abs(got_buy - got_sell - net) <= FEAS_TOL)
    assert min(got_buy.min(), got_sell.min()) >= 0.0
    assert max(got_buy.max(), got_sell.max()) <= p_g_max


def test_forced_exchange_infeasible_like_the_lp():
    net = np.array([1.0, -2.5, 0.0])
    lp = _storage_lp([(2.0, None)], 3, 1.0)
    with pytest.raises(Infeasible):
        _solve_lp(np.concatenate([FLAT3.buy, -FLAT3.sell]), lp, net, "oracle")
    with pytest.raises(Infeasible):
        _forced_exchange(net, FLAT3, 2.0, "closed form")


def test_individual_flat_prices_battery_idles():
    # kappa < 1, flat tariff, e0 = e_min: cycling only loses energy.
    # Oracle (frozen): exhaustive 0.1 kW search returned exactly the
    # passive cost 12.0 for this instance.
    user = UserSpec("c", desd=DesdParams(e0=0.5, e_min=0.5, e_max=1.0, p_b_max=0.3,
                                         kappa=0.9, bdc=ConstantBdc(0.0)))
    out = solve_individual(user, np.full(3, 0.4), FLAT3, GridLimits(100.0),
                           Horizon(steps=3, dt=1.0))
    assert out.cost == pytest.approx(12.0, abs=1e-6)

    acts = np.round(np.arange(0.0, 0.3 + 1e-12, 0.1), 10)
    best = np.inf
    for combo in itertools.product(itertools.product(acts, acts), repeat=3):
        dis = np.array([c[0] for c in combo])
        ch = np.array([c[1] for c in combo])
        soc = 0.5 - np.cumsum(dis / 0.9 - 0.9 * ch)
        if np.any(soc < 0.5 - 1e-12) or np.any(soc > 1.0 + 1e-12):
            continue
        net = np.full(3, 0.4) - dis + ch
        best = min(best, float(np.sum(10.0 * np.clip(net, 0, None)
                                      - 8.0 * np.clip(-net, 0, None))))
    assert best == pytest.approx(12.0, abs=1e-12)


def test_individual_surplus_generation_profits():
    user = UserSpec("g", desd=DesdParams(e0=1.0, e_min=0.0, e_max=2.0, p_b_max=1.0,
                                         kappa=0.9, bdc=ConstantBdc(0.5)),
                    rg=Pv(5.0))
    rg = np.full(3, 3.0)  # covers the 1 kW demand with margin at every t
    out = solve_individual(user, np.ones(3), FLAT3, GridLimits(100.0),
                           Horizon(steps=3, dt=1.0), rg_profile=rg)
    assert out.cost < 0.0


def test_individual_costs_matches_per_user(reference_model, favorable_rg):
    table = individual_costs(reference_model, favorable_rg)
    assert set(table) == {"u1", "u2", "u3", "u4"}
    k = reference_model.user_index("u2")
    solo = solve_individual(reference_model.users[k], reference_model.demands[k],
                            reference_model.prices, reference_model.grid,
                            reference_model.horizon)
    assert table["u2"].cost == pytest.approx(solo.cost, abs=1e-9)


# ---------------------------------------------------------------- piecewise

def test_social_piecewise_bdc_converges():
    bdc = PiecewiseSocBdc(((0.0, 2.5), (0.3, 0.8)))
    m = four_user_model()
    users = tuple(
        replace(u, desd=replace(u.desd, bdc=bdc)) if u.is_active else u
        for u in m.users)
    m2 = validate_model(replace(m, users=users, _validated=False))
    out = solve_social(m2)
    # the reported cost must be the true step-cost of its own decision
    recomputed = trading_cost(m2.prices, out.decision.grid_buy, out.decision.grid_sell)
    for u in users:
        if u.is_active:
            recomputed += bdc_cost(bdc, out.decision.discharge[u.id],
                                   out.decision.charge[u.id], out.soc[u.id],
                                   u.desd.e_max)
    assert out.social_cost == pytest.approx(recomputed, abs=1e-9)
    # and no worse than pricing every kWh at the dearest segment
    flat_hi = solve_social(validate_model(replace(
        m, users=tuple(replace(u, desd=replace(u.desd, bdc=ConstantBdc(2.5)))
                       if u.is_active else u for u in m.users),
        _validated=False)))
    assert out.social_cost <= flat_hi.social_cost + 1e-6


# ---------------------------------------------------------------- properties

def _random_cases(n, seed, with_rg=True):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        m = random_model(rng, r_max=5, T=24, with_rg=with_rg)
        rg = random_rg_profiles(m, rng) if with_rg else None
        yield m, rg


def test_suboptimality_bound():
    # stacked individual schedules are feasible for the pool, so the
    # cooperative optimum can never exceed the sum of ideal costs
    for m, rg in _random_cases(8, seed=100):
        j_soc = solve_social(m, rg).social_cost
        d_sum = sum(o.cost for o in individual_costs(m, rg).values())
        assert d_sum >= j_soc - 1e-6


def _assert_schedule_feasible(m, rg, out):
    T, dt = int(m.horizon.steps), float(m.horizon.dt)
    net = m.demands.sum(axis=0).astype(float).copy()
    for u in m.users:
        if rg and u.id in rg:
            net -= rg[u.id]
    supply = out.decision.grid_buy - out.decision.grid_sell
    for u in m.users:
        if u.is_active:
            supply = supply + out.decision.discharge[u.id] - out.decision.charge[u.id]
    np.testing.assert_allclose(supply, net, atol=1e-6)

    assert np.all(out.decision.grid_buy >= -1e-9)
    assert np.all(out.decision.grid_sell >= -1e-9)
    assert np.all(out.decision.grid_buy <= m.grid.p_g_max + 1e-6)
    assert np.all(out.decision.grid_sell <= m.grid.p_g_max + 1e-6)
    assert np.all(out.decision.grid_buy * out.decision.grid_sell <= 1e-6)

    for u in m.users:
        if not u.is_active:
            continue
        dis, ch = out.decision.discharge[u.id], out.decision.charge[u.id]
        assert np.all(dis >= -1e-9) and np.all(ch >= -1e-9)
        assert np.all(dis <= u.desd.p_b_max + 1e-6)
        assert np.all(ch <= u.desd.p_b_max + 1e-6)
        if isinstance(u.desd.bdc, ConstantBdc) and u.desd.bdc.c_d > 0:
            assert np.all(dis * ch <= 1e-6)
        soc = soc_trajectory(u.desd, dis, ch, dt)
        assert np.all(soc >= u.desd.e_min - 1e-6)
        assert np.all(soc <= u.desd.e_max + 1e-6)


def test_social_schedule_feasibility():
    for m, rg in _random_cases(8, seed=200):
        out = solve_social(m, rg)
        _assert_schedule_feasible(m, rg, out)


def _probe_cost(m, rg, discharge, charge):
    """True cost of a battery schedule completed by cheapest grid action."""
    net = m.demands.sum(axis=0).astype(float).copy()
    for u in m.users:
        if rg and u.id in rg:
            net -= rg[u.id]
    for u in m.users:
        if u.is_active:
            net = net - discharge[u.id] + charge[u.id]
    buy, sell = np.clip(net, 0, None), np.clip(-net, 0, None)
    if np.any(buy > m.grid.p_g_max + 1e-12) or np.any(sell > m.grid.p_g_max + 1e-12):
        return None
    cost = trading_cost(m.prices, buy, sell, m.horizon.dt)
    for u in m.users:
        if u.is_active:
            soc = soc_trajectory(u.desd, discharge[u.id], charge[u.id], m.horizon.dt)
            if np.any(soc < u.desd.e_min - 1e-12) or np.any(soc > u.desd.e_max + 1e-12):
                return None
            cost += bdc_cost(u.desd.bdc, discharge[u.id], charge[u.id], soc,
                             u.desd.e_max, m.horizon.dt)
    return cost


def test_social_optimum_survives_coordinate_probe():
    # finite-difference optimality check: no single battery coordinate
    # can move by 1e-3 kW (staying feasible) and beat the optimum by
    # more than 1e-5 cents
    for m, rg in _random_cases(3, seed=300):
        out = solve_social(m, rg)
        base = out.social_cost
        for u in m.users:
            if not u.is_active:
                continue
            for series in ("discharge", "charge"):
                sched = getattr(out.decision, series)[u.id]
                for t in range(int(m.horizon.steps)):
                    for delta in (1e-3, -1e-3):
                        trial = sched.copy()
                        trial[t] += delta
                        if trial[t] < 0 or trial[t] > u.desd.p_b_max:
                            continue
                        dis = {k: v.copy() for k, v in out.decision.discharge.items()}
                        ch = {k: v.copy() for k, v in out.decision.charge.items()}
                        (dis if series == "discharge" else ch)[u.id] = trial
                        cost = _probe_cost(m, rg, dis, ch)
                        if cost is not None:
                            assert cost >= base - 1e-5


def test_price_scaling_scales_costs():
    rng = np.random.default_rng(400)
    m = random_model(rng, r_max=4, T=24)
    rg = random_rg_profiles(m, rng)
    alpha = 3.7
    scaled_users = tuple(
        replace(u, desd=replace(u.desd, bdc=ConstantBdc(alpha * u.desd.bdc.c_d)))
        if u.is_active else u for u in m.users)
    m2 = validate_model(replace(
        m, users=scaled_users,
        prices=PriceProfile(buy=alpha * m.prices.buy, sell=alpha * m.prices.sell),
        _validated=False))
    j1 = solve_social(m, rg).social_cost
    j2 = solve_social(m2, rg).social_cost
    assert j2 == pytest.approx(alpha * j1, rel=1e-6)
    d1 = individual_costs(m, rg)
    d2 = individual_costs(m2, rg)
    for uid in d1:
        assert d2[uid].cost == pytest.approx(alpha * d1[uid].cost, rel=1e-6, abs=1e-9)


def test_feas_tol_is_tight():
    assert FEAS_TOL == 1e-6


# ---------------------------------------------------------------- LP assembly

_BATTERIES = (
    DesdParams(e0=2.0, e_min=0.5, e_max=10.0, p_b_max=3.0, kappa=0.91),
    DesdParams(e0=0.0, e_min=0.0, e_max=4.0, p_b_max=1.5, kappa=0.88),
    DesdParams(e0=6.0, e_min=1.0, e_max=13.0, p_b_max=4.2, kappa=1.0),
)


def _dense_state_lp(ports, T, dt):
    """The state-form storage LP laid out densely, from identity blocks."""
    batteries = [(k, d) for k, (_, d) in enumerate(ports) if d is not None]
    n_ports = 2 * T * len(ports)
    A = np.zeros((T * (len(batteries) + 1), n_ports + T * len(batteries)))
    b_eq = np.zeros(A.shape[0])
    lo = np.zeros(A.shape[1])
    hi = np.concatenate([np.repeat([cap for cap, _ in ports], 2 * T),
                         np.repeat([d.e_max for _, d in batteries], T)])
    I = np.eye(T)
    A[:T, :n_ports] = np.hstack([I, -I] * len(ports))  # bus balance
    for b, (k, d) in enumerate(batteries):
        rows = slice(T * (b + 1), T * (b + 2))
        A[rows, 2 * T * k:2 * T * (k + 1)] = np.hstack([I / d.kappa, -d.kappa * I]) * dt
        A[rows, n_ports + T * b:n_ports + T * (b + 1)] = I - np.eye(T, k=-1)
        b_eq[T * (b + 1)] = d.e0
        lo[n_ports + T * b:n_ports + T * (b + 1)] = d.e_min
    return A, b_eq, np.column_stack([lo, hi])


_LAYOUTS = ("pooled", "solo", "cleanup", "rebalance")


def _ports(layout, batteries, grid=(12.0, None)):
    """Port lists: the pooled and cleanup LPs, and the one-battery-plus-grid
    program (solo, rebalance) that the DP now solves."""
    batteries = [(d.p_b_max, d) for d in batteries]
    return {"pooled": [grid] + batteries, "solo": [grid, batteries[0]],
            "cleanup": [batteries[-1]], "rebalance": [batteries[-1], grid]}[layout]


@pytest.mark.parametrize("layout", _LAYOUTS)
def test_storage_lp_is_the_dense_layout(layout):
    T, dt = 7, 0.3  # not a power of two, so the order of the scalings shows
    ports = _ports(layout, _BATTERIES if layout == "pooled" else _BATTERIES[:2])
    lp = _storage_lp(ports, T, dt)
    A, b_eq, bounds = _dense_state_lp(ports, T, dt)
    assert np.array_equal(lp["A_eq"].toarray(), A)
    assert np.all(lp["A_eq"].data != 0.0)  # no explicit zeros stored
    n_batteries = sum(d is not None for _, d in ports)
    assert lp["A_eq"].nnz == 2 * T * len(ports) + n_batteries * (4 * T - 1)
    assert np.array_equal(lp["b_eq"], b_eq)
    assert np.array_equal(lp["bounds"], bounds)


def test_lp_keywords_fill_the_balance_rows():
    T = 5
    ports = _ports("pooled", _BATTERIES)
    lp = _storage_lp(ports, T, 0.3)
    c, bus = np.ones(2 * T * len(ports)), np.arange(1.0, T + 1)
    kw = _lp_keywords(lp, c, bus)
    np.testing.assert_array_equal(kw["b_eq"][:T], bus)
    np.testing.assert_array_equal(kw["b_eq"][T:], lp["b_eq"][T:])
    np.testing.assert_array_equal(kw["c"], np.repeat([1.0, 0.0], [2 * T * len(ports),
                                                                 T * len(_BATTERIES)]))
    with pytest.raises(ValueError):
        _lp_keywords(lp, c, bus[:-1])


@st.composite
def _storage_programs(draw):
    """A port list with random costs and a bus that is often, not always, feasible."""
    T = draw(st.integers(1, 9))
    batteries = []
    for _ in range(3):
        e_max = draw(st.floats(0.5, 12.0))
        e_min = draw(st.just(0.0) | st.floats(0.0, e_max))
        batteries.append(DesdParams(e0=draw(st.just(e_min) | st.floats(e_min, e_max)),
                                    e_min=e_min, e_max=e_max,
                                    p_b_max=draw(st.floats(0.2, 5.0)),
                                    kappa=draw(st.floats(0.5, 1.0))))
    ports = _ports(draw(st.sampled_from(_LAYOUTS)), batteries,
                   grid=(draw(st.floats(0.5, 20.0)), None))
    costs = st.floats(-5.0, 20.0)
    c = np.array(draw(st.lists(costs, min_size=2 * T * len(ports),
                               max_size=2 * T * len(ports))))
    bus = np.array(draw(st.lists(st.floats(-6.0, 6.0), min_size=T, max_size=T)))
    return ports, T, c, bus


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_storage_programs())
def test_state_lp_matches_the_cumulative_layout(program):
    """Same optimum and same feasibility as the cumulative SOC rows."""
    ports, T, c, bus = program
    dt = 0.3
    lp = _storage_lp(ports, T, dt)
    A_ub, b_ub, A_eq = cumulative_storage_lp(ports, T, dt, False)
    n = c.size
    oracle = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=bus,
                     bounds=lp["bounds"][:n], method="highs")
    if oracle.status == 2:
        with pytest.raises(Infeasible):
            _solve_lp(c, lp, bus, "state form")
        return
    assert oracle.status == 0
    x = _solve_lp(c, lp, bus, "state form")
    assert abs(float(c @ x[:n]) - oracle.fun) <= 1e-7 * max(1.0, abs(oracle.fun))
    assert np.all(A_ub @ x[:n] <= b_ub + 1e-7)


def test_storage_lp_without_batteries():
    lp = _storage_lp([(5.0, None)], 4, 1.0)
    assert np.array_equal(lp["A_eq"].toarray(), np.hstack([np.eye(4), -np.eye(4)]))
    assert np.array_equal(lp["b_eq"], np.zeros(4))
    assert np.array_equal(lp["bounds"], np.repeat([[0.0, 5.0]], 8, axis=0))


def test_pooled_lp_assembly_memory():
    """60 batteries at T=96: ~1.1 GB as dense cumulative blocks, O(T) nonzeros each here."""
    T, n_active = 96, 60
    ports = [(200.0, None)] + [(d.p_b_max, d) for d in _BATTERIES * 20]
    tracemalloc.start()
    try:
        lp = _storage_lp(ports, T, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lp["A_eq"].shape == (T * (n_active + 1), 2 * T * (n_active + 1) + T * n_active)
    assert lp["A_eq"].nnz == 2 * T * (n_active + 1) + n_active * (4 * T - 1)
    assert peak < 10e6  # ~2.6 MB measured


# ------------------------------------------ one battery and the grid, by DP

@st.composite
def _battery_grid_programs(draw):
    """One battery and the grid, as in a solo schedule or a rebalance step.

    The net load reaches past the grid rating both ways, sometimes past
    what the battery can add, so a share of the draws is infeasible.
    Days of surplus just past the rating fill the battery, after which,
    with kappa < 1, it charges and discharges at once; at kappa one ulp
    below 1 that ray takes next to nothing.
    Buy prices repeat, and sell may tie or exceed buy.
    """
    T = draw(st.sampled_from([1, 2, 24, 96]) | st.integers(1, 96))
    dt = draw(st.sampled_from([0.25, 1.0]) | st.floats(0.1, 2.0))
    e_max = draw(st.floats(0.5, 20.0))
    e_min = draw(st.just(0.0) | st.floats(0.0, e_max))
    e0 = draw(st.sampled_from([e_min, e_max]) | st.floats(e_min, e_max))
    desd = DesdParams(e0=e0, e_min=e_min, e_max=e_max, p_b_max=draw(st.floats(0.1, 6.0)),
                      kappa=draw(st.sampled_from([1.0, np.nextafter(1.0, 0.0)])
                                 | st.floats(0.5, 1.0)))
    p_g_max = draw(st.floats(0.2, 10.0))
    costs = st.floats(0.0, 5.0)
    unit = draw(costs.map(lambda c: np.full(T, c))
                | st.lists(costs, min_size=T, max_size=T).map(np.array))
    buy = np.array(draw(st.lists(st.sampled_from([10.0, 30.0]) | st.floats(0.0, 40.0),
                                 min_size=T, max_size=T)))
    ratio = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.5)
    sell = buy * np.array(draw(st.lists(ratio, min_size=T, max_size=T)))
    reach = draw(st.sampled_from([0.5, 0.95, 1.2]) | st.floats(0.0, 1.4))
    # a surplus just past the rating, which a full battery with kappa < 1
    # can only take by charging and discharging at once
    burn = (1.0 - desd.kappa ** 2) * desd.p_b_max
    surplus = st.floats(0.0, 0.5).map(lambda f: -p_g_max - f * burn)
    step = st.floats(-1.0, 1.0).map(lambda f: f * reach * (p_g_max + desd.p_b_max))
    net = np.array(draw(st.lists(surplus if draw(st.booleans()) else step | surplus,
                                 min_size=T, max_size=T)))
    return desd, T, dt, unit, PriceProfile(buy=buy, sell=sell), net, p_g_max


def _burn_ray_program():
    """A full battery one ulp below kappa = 1, a surplus at the grid
    rating on every step and a step 2e-16 kW past it. The optimum is
    free; the DP's value, before it stopped returning one, read 0.667
    for a schedule that costs 5.6e-17, from burn-ray slopes of ~1e16
    times rounding-sized segment lengths."""
    T, dt = 83, 0.25
    desd = DesdParams(e0=1.0, e_min=0.0, e_max=1.0, p_b_max=2.0,
                      kappa=np.nextafter(1.0, 0.0))
    unit = np.zeros(T)
    unit[:9] = unit[68:] = 1.0
    net = np.full(T, -1.0)
    net[8] = -1.0000000000000002
    prices = PriceProfile(buy=np.full(T, 10.0), sell=np.zeros(T))
    return desd, T, dt, unit, prices, net, 1.0


def _schedule_cost(program, discharge, charge):
    """Trading plus degradation cost in cents of a battery schedule, the
    grid covering the rest of ``net`` at the cheapest exchange."""
    desd, T, dt, unit, prices, net, p_g_max = program
    grid = np.clip(net - (discharge - charge), -p_g_max, p_g_max)
    buy, sell = _forced_exchange(grid, prices, p_g_max, "cost")
    return (trading_cost(prices, buy, sell, dt)
            + float(np.sum(unit * (discharge + charge)) * dt))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_battery_grid_programs())
@example(_burn_ray_program())
def test_battery_and_grid_dp_matches_highs(program):
    """Same feasibility verdict as HiGHS on the cumulative layout, and a
    schedule that costs HiGHS's optimum."""
    desd, T, dt, unit, prices, net, p_g_max = program
    ports = [(p_g_max, None), (desd.p_b_max, desd)]
    A_ub, b_ub, A_eq = cumulative_storage_lp(ports, T, dt, False)
    c = np.concatenate([prices.buy, -prices.sell, unit, unit]) * dt
    bounds = [(0.0, p_g_max)] * (2 * T) + [(0.0, desd.p_b_max)] * (2 * T)
    oracle = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=net, bounds=bounds,
                     method="highs",
                     options={"dual_feasibility_tolerance": 1e-10,
                              "primal_feasibility_tolerance": 1e-10})
    sched = _battery_and_grid(desd, unit, prices.buy, prices.sell, net, p_g_max, dt)
    assert oracle.status in (0, 2)
    assert (sched is None) == (oracle.status == 2)
    if sched is None:
        return

    discharge, charge = sched
    grid = np.clip(net - (discharge - charge), -p_g_max, p_g_max)
    x = np.concatenate([*_forced_exchange(grid, prices, p_g_max, "dp"), discharge, charge])
    tol = 1e-9 * max(1.0, abs(oracle.fun))
    assert abs(float(c @ x) - oracle.fun) <= tol
    assert abs(_schedule_cost(program, discharge, charge) - oracle.fun) <= tol
    assert np.all(np.abs(A_eq @ x - net) <= 1e-9)
    assert np.all(A_ub @ x <= b_ub + 1e-9)
    hi = np.array([cap for _, cap in bounds])
    assert np.all(x >= -1e-9) and np.all(x <= hi + 1e-9)


def test_battery_and_grid_burns_a_surplus_beyond_the_grid_rating():
    """A full battery takes a surplus the grid cannot, by charging and
    discharging at once: kappa = 0.8 loses 1/kappa - kappa = 0.45 kWh
    per kWh cycled, so 0.9 kW over the 1 kW rating needs 2 kWh each way,
    and nothing cheaper is feasible."""
    desd = DesdParams(e0=5.0, e_min=0.0, e_max=5.0, p_b_max=3.0, kappa=0.8)
    flat = PriceProfile(buy=np.full(1, 10.0), sell=np.full(1, 5.0))
    program = desd, 1, 1.0, np.ones(1), flat, np.array([-1.9]), 1.0
    discharge, charge = _battery_and_grid(desd, np.ones(1), flat.buy, flat.sell,
                                          np.array([-1.9]), 1.0, 1.0)
    np.testing.assert_allclose(discharge, [1.6], atol=1e-12)
    np.testing.assert_allclose(charge, [2.5], atol=1e-12)
    # wear, less 1 kW sold
    assert _schedule_cost(program, discharge, charge) == pytest.approx(1.6 + 2.5 - 5.0,
                                                                       abs=1e-12)
    assert _battery_and_grid(desd, np.ones(1), flat.buy, flat.sell,
                             np.array([-2.2]), 1.0, 1.0) is None
    # One ulp below kappa = 1 the ray would burn 4.5e15 kWh per kWh of
    # SOC drop; an empty battery just stores what the grid cannot take.
    desd = DesdParams(e0=0.0, e_min=0.0, e_max=2.0, p_b_max=5.0, kappa=np.nextafter(1.0, 0.0))
    discharge, charge = _battery_and_grid(desd, np.ones(1), flat.buy, flat.sell,
                                          np.array([-5.7]), 1.0, 0.25)
    assert discharge[0] == 0.0
    assert charge[0] == pytest.approx(4.7, abs=1e-12)


def test_dual_value_is_a_lower_bound_at_any_price():
    """q(lam) <= J_soc for every common price, not only the probe's
    prices in [p_s, p_b]: below p_s, above p_b and negative too. Its
    injection is the users' priced schedules, summed. Criterion 5's
    draws, constant unit costs."""
    rng = np.random.default_rng(501)
    lam_rng = np.random.default_rng(5)
    for _ in range(50):
        m = random_model(rng, r_max=6, T=24)
        rg = random_rg_profiles(m, rng)
        j_soc = solve_social(m, rg).social_cost
        T, dt = int(m.horizon.steps), float(m.horizon.dt)
        net = m.demands.sum(axis=0) - sum(rg.values(), np.zeros(T))
        active = [u for u in m.users if u.is_active]
        units = {u.id: np.full(T, float(u.desd.bdc.unit_cost(u.desd.e0 / u.desd.e_max)))
                 for u in active}
        pb, ps = m.prices.buy, m.prices.sell
        for k in range(20):
            if k % 2:  # inside [p_s, p_b]
                lam = ps + lam_rng.uniform(0.0, 1.0, T) * (pb - ps)
            else:  # anywhere, negative prices included
                lam = lam_rng.uniform(-20.0, 2.0 * float(pb.max()) + 20.0, T)
            q, inj = _dual_value(lam, net, m.prices, m.grid.p_g_max, active, units, dt)
            assert q <= j_soc + 1e-9
            priced = [_priced_battery(u.desd, units[u.id], lam, dt) for u in active]
            np.testing.assert_array_equal(inj, sum((d - c for _, d, c in priced), np.zeros(T)))


def test_dual_value_by_hand():
    """Every term of q at prices outside [p_s, p_b]: hour 1's price is
    below the 15 c sale price, so the grid sells its 5 kW rating
    (-25 c), and hour 2's above the 20 c tariff, so it buys 5 kW
    (-50 c); lam . net is 70 c; the battery of
    ``test_storage_dp_bridge_by_hand`` fills at 10 c and drains 8.1 kW
    at 30 c, 11 * 10 - 29 * 8.1 c."""
    desd = DesdParams(e0=0.0, e_min=0.0, e_max=12.0, p_b_max=10.0, kappa=0.9,
                      bdc=ConstantBdc(1.0))
    prices = PriceProfile(buy=np.full(2, 20.0), sell=np.full(2, 15.0))
    q, inj = _dual_value(np.array([10.0, 30.0]), np.array([1.0, 2.0]), prices, 5.0,
                         [UserSpec("b", desd=desd)], {"b": np.ones(2)}, 1.0)
    assert q == pytest.approx(70.0 - 25.0 - 50.0 + 11.0 * 10.0 - 29.0 * 8.1, abs=1e-12)
    np.testing.assert_allclose(inj, [-10.0, 8.1], atol=1e-12)
