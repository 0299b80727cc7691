"""Distributed scheduling: oracle equivalence, determinism, privacy."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from gridbargain import codes, scheduling
from gridbargain import (ConstantBdc, DesdParams, InvariantViolation, LengthMismatch,
                         PriceProfile, SolverStall, build_pools, convergence_trace, data_path,
                         dump_message_log, forecast_all, load_experiment, load_model, run_codes,
                         solve_individual, solve_social, validate_model)
from gridbargain.fixtures import four_user_model, random_model, random_rg_profiles
from gridbargain.model import soc_trajectory
from gridbargain.scheduling import _battery_and_grid, _priced_battery
from _oracles import cleanup_lp, cumulative_storage_lp, two_segment_storage_dp


def _tol(cost):
    return max(codes.COST_TOL_ABS, codes.COST_TOL_REL * abs(cost))


@pytest.fixture(scope="module")
def reference_run(request):
    model = request.getfixturevalue("reference_model")
    rg = request.getfixturevalue("favorable_rg")
    return model, rg, run_codes(model, rg)


def test_reference_instance_matches_oracle(reference_run, reference_model, favorable_rg):
    _, _, run = reference_run
    oracle = solve_social(reference_model, favorable_rg)
    assert run.converged
    diff = abs(run.outcome.social_cost - oracle.social_cost)
    assert diff <= _tol(oracle.social_cost)
    assert run.gap <= _tol(run.outcome.social_cost)


def test_reference_instance_stops_at_the_first_check(reference_run):
    """One rebalance from the first check's candidate and the price probe
    close the gap."""
    model, rg, run = reference_run
    assert run.converged and run.iterations == codes.FIRST_CHECK == 5
    oracle = solve_social(model, rg)
    assert abs(run.outcome.social_cost - oracle.social_cost) <= 1e-6


def test_rebalance_starts_from_the_candidate():
    """Criterion-4 draw #6 closes at round 100 when every open check
    rebalances its own candidate; starting from the best schedule so
    far instead would take 625 rounds."""
    rng = np.random.default_rng(2026)
    for _ in range(6):
        m = random_model(rng, r_max=6, T=24)
        rg = random_rg_profiles(m, rng)
    run = run_codes(m, rg)
    assert run.converged and run.iterations <= 100


def _assert_feasible(model, profiles, run):
    net = model.demands.sum(axis=0).astype(float).copy()
    for uid, prof in profiles.items():
        net -= prof
    dec = run.outcome.decision
    supply = dec.grid_buy - dec.grid_sell
    for uid in dec.discharge:
        supply = supply + dec.discharge[uid] - dec.charge[uid]
    np.testing.assert_allclose(supply, net, atol=1e-6)
    for uid, dis in dec.discharge.items():
        desd = model.users[model.user_index(uid)].desd
        assert np.all(dis <= desd.p_b_max + 1e-6)
        assert np.all(dec.charge[uid] <= desd.p_b_max + 1e-6)
        soc = run.outcome.soc[uid]
        assert np.all(soc >= desd.e_min - 1e-6)
        assert np.all(soc <= desd.e_max + 1e-6)
        # cleanup pass removes simultaneous charge/discharge
        assert np.all(dis * dec.charge[uid] <= 1e-6)


def test_reference_schedule_is_feasible(reference_run, reference_model, favorable_rg):
    _assert_feasible(reference_model, favorable_rg.profiles, reference_run[2])


def test_two_node_network_is_individual_problem():
    rng = np.random.default_rng(11)
    m = random_model(rng, r_max=2, T=24)
    # keep exactly one user and make it active
    active = [u for u in m.users if u.is_active][0]
    m1 = validate_model(replace(
        m, users=(active,), demands=m.demands[m.user_index(active.id)][None, :],
        graph=None, _validated=False))
    rg = random_rg_profiles(m1, rng)
    run = run_codes(m1, rg)
    solo = solve_individual(active, m1.demands[0], m1.prices, m1.grid, m1.horizon,
                            rg_profile=rg.get(active.id) if rg else None)
    assert run.converged
    assert abs(run.outcome.social_cost - solo.cost) <= _tol(solo.cost)


def test_zero_instance_converges_quickly():
    m = four_user_model(p_g_max=50.0)
    flat = PriceProfile(buy=np.full(24, 10.0), sell=np.full(24, 8.0))
    m0 = validate_model(replace(m, demands=np.zeros((4, 24)), prices=flat,
                                _validated=False))
    run = run_codes(m0)
    assert run.converged
    assert run.outcome.social_cost == pytest.approx(0.0, abs=1e-6)
    assert run.iterations <= 2 * codes.CHECK_EVERY


def test_deterministic_bit_for_bit(reference_model, favorable_rg):
    a = run_codes(reference_model, favorable_rg, record_messages=True)
    b = run_codes(reference_model, favorable_rg, record_messages=True)
    assert a.iterations == b.iterations
    assert a.gap == b.gap
    np.testing.assert_array_equal(a.outcome.decision.grid_buy,
                                  b.outcome.decision.grid_buy)
    # one message per agent per round, none after the closing check
    assert len(a.messages) == (reference_model.n_users + 1) * a.iterations
    assert max(m.iteration for m in a.messages) == a.iterations
    assert len(a.messages) == len(b.messages)
    for ma, mb in zip(a.messages, b.messages):
        assert ma.sender == mb.sender and ma.iteration == mb.iteration
        np.testing.assert_array_equal(ma.dual_prices, mb.dual_prices)
        np.testing.assert_array_equal(ma.mismatch, mb.mismatch)


def test_trace_shape_and_convergence(reference_run):
    _, _, run = reference_run
    trace = convergence_trace(run)
    rounds = trace["round"]
    assert np.all(np.diff(rounds) > 0)
    assert trace["cost_gap"][-1] <= _tol(run.outcome.social_cost)
    assert trace["balance_residual"][-1] <= codes.BALANCE_TOL
    assert run.iterations < 10_000  # empirical bring-up bound


def held_out_draws(count):
    """The first ``count`` draws of the held-out seed 99, with generation."""
    rng = np.random.default_rng(99)
    draws = []
    for _ in range(count):
        m = random_model(rng, r_max=6, T=24)
        draws.append((m, random_rg_profiles(m, rng)))
    return draws


def test_soft_nonconvergence_returns_best_iterate(monkeypatch):
    """Held-out draw 14 does not certify even in MAX_ROUNDS; a 60-round
    budget stops it with its certified gap at 4.29 c. The run must stop
    without raising, flag itself, and still hand back its best iterate."""
    model, rg = held_out_draws(15)[14]
    oracle = solve_social(model, rg)
    for name, value in (("MAX_ROUNDS", 60), ("CHECK_EVERY", 20)):
        monkeypatch.setattr(codes, name, value)
    run = run_codes(model, rg)
    assert not run.converged
    assert run.iterations == 60
    trace = convergence_trace(run)
    # one row per check, budget capped
    assert trace["round"].tolist() == [codes.FIRST_CHECK, 20, 40, 60]
    assert np.isfinite(run.gap) and run.gap > 1.0
    # the iterate is good even though the dual bound is not: 1.37 c above
    # the pooled optimum, well inside the gap it certifies
    assert run.outcome.social_cost >= oracle.social_cost - 1e-9
    assert run.outcome.social_cost <= oracle.social_cost + 1.5


def test_run_without_a_balanced_schedule_stalls(monkeypatch, favorable_rg):
    """With the grid rated 3 kW the pooled program is feasible, but no
    check of the reference instance holds a schedule within BALANCE_TOL;
    rather than hand back an unbalanced candidate that costs less than
    the pooled optimum, the run raises SolverStall."""
    model = four_user_model(p_g_max=3.0)
    assert np.isfinite(solve_social(model, favorable_rg).social_cost)
    monkeypatch.setattr(codes, "MAX_ROUNDS", 60)
    with pytest.raises(SolverStall, match="balance"):
        run_codes(model, favorable_rg)


def test_privacy_of_message_payloads(reference_model, favorable_rg, tmp_path):
    run = run_codes(reference_model, favorable_rg, record_messages=True)
    allowed = {"sender", "iteration", "dual_prices", "mismatch"}
    for msg in run.messages:
        fields = {f for f in vars(msg)}
        assert fields == allowed
    path = tmp_path / "bus.jsonl"
    dump_message_log(run, path)
    forbidden = ("demand", "rg", "battery", "e0", "e_min", "e_max", "p_b_max",
                 "kappa", "bdc", "discharge", "charge", "soc")
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            assert set(record) == allowed
            assert not any(k in forbidden for k in record)


def test_relinearization_is_deterministic_and_feasible(soc_dependent, monkeypatch):
    """SOC-dependent unit costs are re-looked-up every 100 rounds; the
    fifth draw closes at round 150, past the re-lookup at round 100.
    Its message log, like the rest of the run, is the same bit for bit."""
    rng = np.random.default_rng(7)
    for _ in range(5):
        model = soc_dependent(random_model(rng, r_max=5, T=24))
        rg = random_rg_profiles(model, rng)
    monkeypatch.setattr(codes, "MAX_ROUNDS", 300)
    a = run_codes(model, rg, record_messages=True)
    b = run_codes(model, rg, record_messages=True)
    assert a.converged and a.iterations > codes.RELINEARIZE_EVERY
    assert (a.iterations, a.gap, a.probe_steps) == (b.iterations, b.gap, b.probe_steps)
    np.testing.assert_array_equal(a.trace, b.trace)
    for uid in a.outcome.decision.discharge:
        np.testing.assert_array_equal(a.outcome.decision.discharge[uid],
                                      b.outcome.decision.discharge[uid])
        np.testing.assert_array_equal(a.outcome.decision.charge[uid],
                                      b.outcome.decision.charge[uid])
    assert len(a.messages) == (model.n_users + 1) * a.iterations
    for ma, mb in zip(a.messages, b.messages, strict=True):
        assert (ma.sender, ma.iteration) == (mb.sender, mb.iteration)
        np.testing.assert_array_equal(ma.dual_prices, mb.dual_prices)
        np.testing.assert_array_equal(ma.mismatch, mb.mismatch)
    _assert_feasible(model, rg, a)
    assert a.outcome.social_cost == pytest.approx(
        a.outcome.trading_cost + sum(a.outcome.bdc_costs.values()), abs=1e-6)


def _criterion_4_family(reference_model, favorable_rg):
    rng = np.random.default_rng(2026)
    cases = [(reference_model, favorable_rg)]
    for _ in range(20):
        m = random_model(rng, r_max=6, T=24)
        cases.append((m, random_rg_profiles(m, rng)))
    return cases


def test_probe_bounds_are_valid(monkeypatch, reference_model, favorable_rg):
    """Over the criterion-4 family and held-out draws 0-13, every run
    probes, no dual value the certificate takes exceeds J_soc, and no
    converged run costs more than its certified gap above J_soc. Every
    run closes within 500 rounds."""
    values = []

    def record(*args, _real=codes._dual_value):
        out = _real(*args)
        values.append(out[0])
        return out

    monkeypatch.setattr(codes, "_dual_value", record)
    for m, rg in _criterion_4_family(reference_model, favorable_rg) + held_out_draws(14):
        values.clear()
        run = run_codes(m, rg)
        j_soc = solve_social(m, rg).social_cost
        # the probe's steps are the certificate's only dual values
        assert run.probe_steps > 0 and len(values) == run.probe_steps
        assert max(values) <= j_soc + 1e-9
        assert run.converged and run.iterations <= 500
        assert run.outcome.social_cost - j_soc <= run.gap + 1e-9


def test_probed_run_is_deterministic_bit_for_bit():
    """Criterion-4 draw #3 probes at every check of its 200 rounds."""
    rng = np.random.default_rng(2026)
    for _ in range(3):
        m = random_model(rng, r_max=6, T=24)
        rg = random_rg_profiles(m, rng)
    a = run_codes(m, rg, record_messages=True)
    b = run_codes(m, rg, record_messages=True)
    assert a.converged and a.probe_steps > 100 and len(a.trace) > 5
    assert (a.iterations, a.gap, a.probe_steps) == (b.iterations, b.gap, b.probe_steps)
    np.testing.assert_array_equal(a.trace, b.trace)
    da, db = a.outcome.decision, b.outcome.decision
    np.testing.assert_array_equal(da.grid_buy, db.grid_buy)
    np.testing.assert_array_equal(da.grid_sell, db.grid_sell)
    for uid in da.discharge:
        np.testing.assert_array_equal(da.discharge[uid], db.discharge[uid])
        np.testing.assert_array_equal(da.charge[uid], db.charge[uid])
    for ma, mb in zip(a.messages, b.messages, strict=True):
        np.testing.assert_array_equal(ma.dual_prices, mb.dual_prices)
        np.testing.assert_array_equal(ma.mismatch, mb.mismatch)


def test_soc_dependent_run_follows_the_one_check_schedule(soc_dependent, monkeypatch):
    """A SOC-dependent run checks as every run does: first at round
    FIRST_CHECK, and an open check probes the price."""
    rng = np.random.default_rng(2026)
    model = soc_dependent(random_model(rng, r_max=6, T=24))
    rg = random_rg_profiles(model, rng)
    monkeypatch.setattr(codes, "MAX_ROUNDS", 300)
    run = run_codes(model, rg)
    assert convergence_trace(run)["round"][0] == codes.FIRST_CHECK
    assert run.probe_steps > 0


def test_random_instances_match_oracle():
    # three here to keep the module quick; acceptance runs twenty
    rng = np.random.default_rng(55)
    for _ in range(3):
        m = random_model(rng, r_max=4, T=24)
        rg = random_rg_profiles(m, rng)
        run = run_codes(m, rg)
        oracle = solve_social(m, rg)
        assert run.converged
        assert abs(run.outcome.social_cost - oracle.social_cost) <= _tol(
            oracle.social_cost)


# ------------------------------------------------- exact local storage step

LAM_HI = 1.5 * 30.0 + 1.0  # run_codes' price clip for a 30 c/kWh peak tariff


@st.composite
def storage_programs(draw):
    """A battery, its unit costs and a price copy like those of run_codes."""
    T = draw(st.integers(1, 48))
    dt = draw(st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.1, 2.0))
    e_max = draw(st.floats(0.5, 20.0))
    e_min = draw(st.just(0.0) | st.floats(0.0, e_max))
    e0 = draw(st.just(e_min) | st.floats(e_min, e_max))
    desd = DesdParams(e0=e0, e_min=e_min, e_max=e_max,
                      p_b_max=draw(st.floats(0.1, 10.0)),
                      kappa=draw(st.floats(0.5, 1.0)))
    costs = st.floats(-2.0, 5.0)  # below 0 a step can gain by filling and draining
    unit = draw(costs.map(lambda c: np.full(T, c))
                | st.lists(costs, min_size=T, max_size=T).map(np.array))
    # ties, zeros and the clip at LAM_HI are where schedules are degenerate
    prices = st.sampled_from([0.0, 7.5, 7.5, LAM_HI]) | st.floats(0.0, 1.2 * LAM_HI)
    lam = np.clip(draw(st.lists(prices, min_size=T, max_size=T).map(np.array)),
                  0.0, LAM_HI)
    return desd, T, dt, unit, lam


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(storage_programs())
def test_storage_dp_matches_highs(program):
    desd, T, dt, unit, lam = program
    c = np.concatenate([unit - lam, unit + lam]) * dt
    A_ub, b_ub, _ = cumulative_storage_lp([(desd.p_b_max, desd)], T, dt, False)
    # at HiGHS's default 1e-7 tolerances the oracle itself can miss the
    # optimum by more than the 1e-9 asserted below when prices are tiny
    oracle = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[(0.0, desd.p_b_max)] * (2 * T),
                     method="highs",
                     options={"dual_feasibility_tolerance": 1e-10,
                              "primal_feasibility_tolerance": 1e-10})
    assert oracle.status == 0
    tol = 1e-9 * max(1.0, abs(oracle.fun))

    value, discharge, charge = _priced_battery(desd, unit, lam, dt)
    x = np.concatenate([discharge, charge])
    assert abs(float(c @ x) - oracle.fun) <= tol
    assert abs(value - oracle.fun) <= tol
    assert np.all(A_ub @ x <= b_ub + 1e-9)
    assert np.all(x >= -1e-9) and np.all(x <= desd.p_b_max + 1e-9)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(storage_programs())
def test_local_step_is_the_two_segment_dp_bit_for_bit(program):
    """The general DP, given the local step's two segments per hour,
    answers exactly as the two-segment DP did, ties and alpha + beta < 0
    included: the distributed round counts depend on every bit."""
    desd, T, dt, unit, lam = program
    kappa = desd.kappa
    args = (((unit - lam) * kappa).tolist(), ((unit + lam) / kappa).tolist(),
            desd.p_b_max * dt / kappa, kappa * desd.p_b_max * dt,
            desd.e_max - desd.e_min, desd.e0 - desd.e_min)
    value, x, y = two_segment_storage_dp(*args, True)
    priced, discharge, charge = _priced_battery(desd, unit, lam, dt)
    assert np.array_equal(discharge, np.array(x) * (kappa / dt))
    assert np.array_equal(charge, np.array(y) / (kappa * dt))
    assert priced == two_segment_storage_dp(*args, False)[0] == value


def test_storage_dp_bridge_by_hand():
    """Fill fully in the cheap hour, sell it all in the dear one.

    Storing a kWh costs (1 + 10) / 0.9 and draining it earns
    (30 - 1) * 0.9, so step 1 charges at the full 10 kW (9 kWh stored,
    inside the 12 kWh capacity) and step 2 drains all 9 kWh, i.e.
    discharges 8.1 kW. Nothing else breaks even, so the optimum is
    unique.
    """
    desd = DesdParams(e0=0.0, e_min=0.0, e_max=12.0, p_b_max=10.0, kappa=0.9,
                      bdc=ConstantBdc(1.0))
    value, discharge, charge = _priced_battery(desd, np.ones(2), np.array([10.0, 30.0]), 1.0)
    np.testing.assert_allclose(discharge, [0.0, 8.1], atol=1e-12)
    np.testing.assert_allclose(charge, [10.0, 0.0], atol=1e-12)
    assert value == pytest.approx(11.0 * 10.0 - 29.0 * 8.1, abs=1e-12)


def test_storage_dp_ties_end_at_higher_soc():
    """With every action free, any schedule is optimal; the DP's tie rule
    fills the battery, which the distributed round counts depend on."""
    desd = DesdParams(e0=1.0, e_min=0.0, e_max=2.0, p_b_max=0.5)
    _, discharge, charge = _priced_battery(desd, np.zeros(3), np.zeros(3), 1.0)
    np.testing.assert_array_equal(discharge, np.zeros(3))
    np.testing.assert_allclose(charge, [0.5, 0.5, 0.0], atol=1e-12)


def test_storage_dp_rejects_non_finite_prices():
    desd = DesdParams(e0=1.0, e_min=0.0, e_max=2.0, p_b_max=1.0)
    for lam in (np.array([1.0, np.nan]), np.array([np.inf, 1.0])):
        with pytest.raises(SolverStall):
            _priced_battery(desd, np.zeros(2), lam, 1.0)


def test_rebalance_step_beyond_the_ratings_has_no_schedule():
    """A rebalance step is the battery-and-grid DP at the grid's rating,
    and the rebalance gives up on a step without a schedule, so an
    imbalance beyond the battery and grid ratings must return None.
    Within them, hour 1 drains the battery fully (saving 10 c/kWh) and
    hour 2 stores only the 0.5 kW the grid cannot take."""
    desd = DesdParams(e0=1.0, e_min=0.0, e_max=2.0, p_b_max=1.0)
    tariff = np.full(2, 10.0), np.full(2, 5.0)
    unit = np.zeros(2) + 1e-9
    discharge, charge = _battery_and_grid(desd, unit, *tariff, np.array([3.5, -3.5]), 3.0, 1.0)
    np.testing.assert_allclose(discharge - charge, [1.0, -0.5], atol=1e-12)
    assert _battery_and_grid(desd, unit, *tariff, np.array([4.5, 0.0]), 3.0, 1.0) is None


def test_non_finite_rg_profile_rejected(reference_model):
    rg = {"u1": np.full(24, np.nan)}
    with pytest.raises(InvariantViolation, match="finite"):
        run_codes(reference_model, rg)


def test_wrong_shape_rg_profile_rejected(reference_model):
    with pytest.raises(LengthMismatch, match="u1"):
        run_codes(reference_model, {"u1": np.ones(1)})


def test_distributed_run_calls_no_lp(monkeypatch, reference_model, favorable_rg):
    """A run is DP from end to end: no local step, rebalance or cleanup
    reaches HiGHS. The cleanup is one battery-and-grid DP per active
    user at rating 0, the rebalance steps run at the grid's rating, and
    each answers exactly as a fresh call does."""
    def no_lp(*args, **kwargs):
        raise AssertionError("linprog was called")

    monkeypatch.setattr(codes, "linprog", no_lp)
    monkeypatch.setattr(scheduling, "linprog", no_lp)
    solves = []

    def record(*args, _real=codes._battery_and_grid):
        args = [np.copy(a) if isinstance(a, np.ndarray) else a for a in args]
        out = _real(*args)
        solves.append((args, out))
        return out

    monkeypatch.setattr(codes, "_battery_and_grid", record)
    run_codes(reference_model, favorable_rg)
    n_active = sum(u.is_active for u in reference_model.users)
    p_max = reference_model.grid.p_g_max
    ratings = [args[5] for args, _ in solves]
    assert ratings.count(0.0) == n_active and p_max in ratings

    monkeypatch.undo()
    for args, (discharge, charge) in solves:
        d2, c2 = _battery_and_grid(*args)
        assert np.array_equal(discharge, d2) and np.array_equal(charge, c2)


def test_shipped_instance_work_is_pinned(monkeypatch):
    """The bench's distributed job on the shipped experiment stops at
    round 5 after 11 probe steps, in 60 DP calls: 18 local steps and 33
    probe evaluations priced, 6 rebalance steps and 3 cleanups against
    the grid. A few percent of DP work is below the bench's resolution;
    this count is not."""
    config = load_experiment(data_path("experiment.yaml"))
    model = load_model(config.model_path)
    rg = forecast_all(build_pools(config), config.forecast)
    counts = {"dp": 0, "local": 0, "probe": 0, "rebalance": 0, "cleanup": 0}

    def counting(real, key):
        def wrapped(*args):
            counts[key(args) if callable(key) else key] += 1
            return real(*args)
        return wrapped

    monkeypatch.setattr(scheduling, "_storage_dp", counting(scheduling._storage_dp, "dp"))
    monkeypatch.setattr(codes, "_priced_battery", counting(codes._priced_battery, "local"))
    monkeypatch.setattr(scheduling, "_priced_battery",
                        counting(scheduling._priced_battery, "probe"))
    monkeypatch.setattr(codes, "_battery_and_grid", counting(
        codes._battery_and_grid, lambda args: "cleanup" if args[5] == 0.0 else "rebalance"))
    run = run_codes(model, rg)
    assert (run.converged, run.iterations, run.probe_steps) == (True, 5, 11)
    assert counts == {"dp": 60, "local": 18, "probe": 33, "rebalance": 6, "cleanup": 3}


# ------------------------------------------------------------ cleanup pass

@st.composite
def cleanup_programs(draw):
    """A battery, its unit costs and the net injection of a feasible
    schedule that may charge and discharge in the same step."""
    T = draw(st.integers(1, 24))
    dt = draw(st.sampled_from([0.25, 0.5, 1.0]))
    e_max = draw(st.floats(1.0, 50.0))
    e_min = draw(st.just(0.0) | st.floats(0.0, 0.5 * e_max))
    e0 = draw(st.sampled_from([e_max, e_min]) | st.floats(e_min, e_max))
    kappa = draw(st.sampled_from([1.0, float(np.nextafter(1.0, 0.0))])
                 | st.floats(0.5, 1.0, exclude_max=True))
    p_b_max = draw(st.floats(0.1, 10.0))
    desd = DesdParams(e0=e0, e_min=e_min, e_max=e_max, p_b_max=p_b_max, kappa=kappa)
    costs = st.floats(0.0, 5.0)
    unit = draw(costs.map(lambda c: np.full(T, c))
                | st.lists(costs, min_size=T, max_size=T).map(np.array))
    # each step drains a share of what the battery holds and then fills a
    # share of the room left, so the schedule stays within every bound
    share = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    net, soc = np.zeros(T), e0
    for t in range(T):
        d = draw(share) * min(p_b_max, (soc - e_min) * kappa / dt)
        soc -= d * dt / kappa
        c = draw(share) * min(p_b_max, (e_max - soc) / (kappa * dt))
        soc = min(max(soc + kappa * c * dt, e_min), e_max)
        net[t] = d - c
    return desd, T, dt, unit, net


def test_cleanup_dp_matches_the_cleanup_lp():
    """The cleanup DP costs what HiGHS's cleanup LP costs and keeps the
    net injection, the ratings and the SOC bounds. Enough programs can
    only be met by charging and discharging at once that the DP's burn
    ray is exercised."""
    burns = []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(cleanup_programs())
    def check(program):
        desd, T, dt, unit, net = program
        zero = np.zeros(T)
        discharge, charge = _battery_and_grid(desd, unit + 1e-9, zero, zero, net, 0.0, dt)
        d_lp, c_lp = cleanup_lp(desd, T, dt, unit, net)
        c = unit + 1e-9
        f = float(c @ (d_lp + c_lp))
        assert abs(float(c @ (discharge + charge)) - f) <= 1e-9 * max(1.0, abs(f))
        assert np.all(np.abs(discharge - charge - net) <= 1e-9)
        for x in (discharge, charge):
            assert np.all(x >= -1e-9) and np.all(x <= desd.p_b_max + 1e-9)
        soc = soc_trajectory(desd, discharge, charge, dt)
        assert np.all(soc >= desd.e_min - 1e-9) and np.all(soc <= desd.e_max + 1e-9)
        burns.append(bool(np.any(np.minimum(discharge, charge) > 1e-9)))

    check()
    assert sum(burns) >= 20, f"only {sum(burns)} of {len(burns)} programs burned energy"


def test_cleanup_burns_what_a_full_battery_cannot_store():
    """A full battery takes 0.9 kW only by cycling: kappa = 0.8 loses
    0.45 kWh per kWh cycled, so it charges 2.5 kW and discharges 1.6 kW.
    1.2 kW would need 3.3 kW of charge, above the 3 kW rating."""
    desd = DesdParams(e0=5.0, e_min=0.0, e_max=5.0, p_b_max=3.0, kappa=0.8)
    unit, zero = np.ones(1) + 1e-9, np.zeros(1)
    discharge, charge = _battery_and_grid(desd, unit, zero, zero, np.array([-0.9]), 0.0, 1.0)
    np.testing.assert_allclose(discharge, [1.6], atol=1e-12)
    np.testing.assert_allclose(charge, [2.5], atol=1e-12)
    assert _battery_and_grid(desd, unit, zero, zero, np.array([-1.2]), 0.0, 1.0) is None
