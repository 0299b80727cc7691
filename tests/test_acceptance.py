"""Acceptance gate: one test per release criterion.

Each test appends a PASS/FAIL line to the summary that pytest prints
after the run, then asserts. Criteria cover the allocation arithmetic
against the reference tables, the published resilience statistics, the
distributed solver against the pooled oracle, and the property suites
(feasibility, forecast algebra, consensus, privacy).
"""

import json
import time
import timeit

import numpy as np
import pytest

import conftest
from gridbargain import (allocate, allocate_from_consensus, gamma_solo_bound,
                         metropolis_weights, run_average_consensus, run_codes,
                         solve_social)
from gridbargain.bargaining import region_probabilities
from gridbargain.codes import dump_message_log
from gridbargain.fixtures import (REFERENCE_ADVERSE, REFERENCE_FAVORABLE, family,
                                  random_connected_graph, random_model,
                                  random_rg_profiles)
from gridbargain.graphs import ring_graph
from gridbargain.model import ConstantBdc, soc_trajectory
from gridbargain.rg_forecast import (ScenarioPool, WeatherForecast,
                                     classify_scenarios, predict_rg)
from gridbargain.scheduling import individual_costs


def _record(num, label, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num} {verdict}  {label}: {detail}"
    conftest.criterion_lines.append(line)
    assert ok, line


# 1 ------------------------------------------------------------------------

def test_criterion_1_allocation_arithmetic():
    targets = {
        "favorable": (REFERENCE_FAVORABLE, [-76.16, 466.36, 86.65, -38.16], 14.83),
        "adverse": (REFERENCE_ADVERSE, [156.55, 472.81, 373.82, 149.67], 8.37),
    }
    worst = 0.0
    for case, j_ref, eps_ref in targets.values():
        res = allocate(case.d, case.j_soc)
        worst = max(worst, float(np.max(np.abs(res.j - j_ref))),
                    abs(res.epsilon - eps_ref))
    per_call = min(timeit.repeat(
        lambda: allocate(REFERENCE_FAVORABLE.d, REFERENCE_FAVORABLE.j_soc),
        number=200, repeat=5)) / 200
    ok = worst <= 0.01 and per_call < 1e-3
    _record(1, "ideal allocation, both reference days", ok,
            f"max deviation {worst:.4f} c (tol 0.01), {per_call * 1e6:.1f} us/call")


# 2 ------------------------------------------------------------------------

def test_criterion_2_solo_gamma_bounds():
    case = REFERENCE_FAVORABLE
    eps0 = (float(case.d.sum()) - case.j_soc) / 4
    bounds = np.array([gamma_solo_bound(case.d, eps0, i) for i in range(4)])
    ref = np.array([0.9671, 0.1233, 0.5845, 2.5417])
    worst = float(np.max(np.abs(bounds - ref)))
    ok = worst <= 1e-3
    _record(2, "solo selfishness bounds", ok,
            f"max deviation {worst:.2e} (tol 1e-3)")


# 3 ------------------------------------------------------------------------

def test_criterion_3_region_probabilities():
    case = REFERENCE_FAVORABLE
    eps0 = (float(case.d.sum()) - case.j_soc) / 4
    targets = {
        0: {"all_dishonest_profit": (0.0018, 5e-4),
            "bargaining_fails": (0.9763, 2e-3),
            "succeeds_some_lose": (0.0219, 2e-3)},
        1: {"all_dishonest_profit": (0.0144, 5e-4),
            "bargaining_fails": (0.8140, 2e-3),
            "succeeds_some_lose": (0.1720, 2e-3)},
    }
    n = 10_000_000
    problems = []
    t0 = time.perf_counter()
    for honest, rows in targets.items():
        regions = region_probabilities(case.d, eps0, (honest,), n, seed=0)
        total, var = 0.0, 0.0
        for name, (want, tol) in rows.items():
            got = regions[name].probability
            total += got
            var += regions[name].stderr ** 2
            if abs(got - want) > tol:
                problems.append(f"honest u{honest + 1} {name}: "
                                f"{got:.4f} vs {want:.4f} (tol {tol:g})")
        if abs(total - 1.0) > 3.0 * np.sqrt(var):
            problems.append(f"honest u{honest + 1}: partition sums to {total}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f} s")
    _record(3, "outcome-region probabilities, 1e7 draws", not problems,
            "; ".join(problems) or f"both honest cases on target, {elapsed:.1f} s")


# 4 ------------------------------------------------------------------------

def test_criterion_4_distributed_matches_oracle(reference_model, favorable_rg):
    cases = [(reference_model, favorable_rg)] + family("criterion_4", 20)
    worst_gap, worst_time, fails = 0.0, 0.0, 0
    rounds = []
    for m, rg in cases:
        t0 = time.perf_counter()
        run = run_codes(m, rg)
        elapsed = time.perf_counter() - t0
        rounds.append(run.iterations)
        oracle = solve_social(m, rg)
        tol = max(0.1, 1e-3 * abs(oracle.social_cost))
        diff = abs(run.outcome.social_cost - oracle.social_cost)
        worst_gap = max(worst_gap, diff / tol)
        worst_time = max(worst_time, elapsed)
        if diff > tol or elapsed >= 60.0:
            fails += 1
    ok = fails == 0
    _record(4, "distributed solver vs pooled oracle, 21 instances", ok,
            f"worst gap {worst_gap:.3f}x tolerance, slowest {worst_time:.1f} s, "
            f"rounds sum {sum(rounds)} max {max(rounds)}")


# 5 ------------------------------------------------------------------------

def test_criterion_5_cooperation_always_pays():
    worst_slack, worst_eps, fails = np.inf, np.inf, 0
    for m, rg in family("criterion_5", 50):
        j_soc = solve_social(m, rg).social_cost
        d = np.array([individual_costs(m, rg)[u.id].cost for u in m.users])
        res = allocate(d, j_soc)
        slack = float(d.sum()) - j_soc
        worst_slack = min(worst_slack, slack)
        worst_eps = min(worst_eps, res.epsilon)
        if slack < -1e-6 or not res.success or res.epsilon < -1e-9:
            fails += 1
    ok = fails == 0
    _record(5, "pooling never beats the sum of solo runs", ok,
            f"min surplus {worst_slack:.3g} c, min eps {worst_eps:.3g} (50 instances)")


# 6 ------------------------------------------------------------------------

def test_criterion_6_consensus_allocation():
    rng = np.random.default_rng(601)
    worst_spread, worst_mean, worst_alloc = 0.0, 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        W = metropolis_weights(random_connected_graph(rng, n), n)
        r = n - 1
        s = rng.uniform(-50.0, 500.0, size=max(r, 1))
        if r == 0:
            continue
        c_b = rng.uniform(0.0, 30.0, size=r)
        j_soc = float(s.sum()) - float(rng.uniform(0.0, 80.0))
        x0 = np.concatenate([s - c_b, [-(j_soc - c_b.sum())]])
        run = run_average_consensus(x0, W)
        spread = float(run.final.max() - run.final.min())
        mean_dev = float(np.max(np.abs(run.final - x0.mean())))
        j = allocate_from_consensus(s, run.final[:r], r)
        alloc_dev = float(np.max(np.abs(j - allocate(s, j_soc).j)))
        worst_spread = max(worst_spread, spread)
        worst_mean = max(worst_mean, mean_dev)
        worst_alloc = max(worst_alloc, alloc_dev)
    case = REFERENCE_FAVORABLE
    c_b = {0: 20.0, 2: 15.0, 3: 18.0}
    x0 = np.array([case.d[i] - c_b.get(i, 0.0) for i in range(4)]
                  + [-(case.j_soc - sum(c_b.values()))])
    fixture = run_average_consensus(x0, metropolis_weights(ring_graph(5), 5))
    ok = (worst_spread <= 1e-9 and worst_mean <= 1e-9
          and worst_alloc <= 1e-8 and fixture.iterations <= 200)
    _record(6, "averaging consensus and local shares, 100 graphs", ok,
            f"spread {worst_spread:.1e}, mean dev {worst_mean:.1e}, "
            f"share dev {worst_alloc:.1e}, fixture {fixture.iterations} rounds")


# 7 ------------------------------------------------------------------------

def _schedule_violations(m, rg, out):
    bad = []
    dt = float(m.horizon.dt)
    net = m.demands.sum(axis=0).astype(float).copy()
    for u in m.users:
        if rg and u.id in rg:
            net -= rg[u.id]
    supply = out.decision.grid_buy - out.decision.grid_sell
    for u in m.users:
        if u.is_active:
            supply = supply + out.decision.discharge[u.id] - out.decision.charge[u.id]
    if np.max(np.abs(supply - net)) > 1e-6:
        bad.append("power balance")
    gb, gs = out.decision.grid_buy, out.decision.grid_sell
    if np.any(gb < -1e-9) or np.any(gs < -1e-9) or \
            np.any(gb > m.grid.p_g_max + 1e-6) or np.any(gs > m.grid.p_g_max + 1e-6):
        bad.append("grid rating")
    if np.any(m.prices.sell < m.prices.buy) and np.any(gb * gs > 1e-6):
        bad.append("simultaneous buy and sell")
    for u in m.users:
        if not u.is_active:
            continue
        dis, ch = out.decision.discharge[u.id], out.decision.charge[u.id]
        if np.any(dis < -1e-9) or np.any(ch < -1e-9) or \
                np.any(dis > u.desd.p_b_max + 1e-6) or np.any(ch > u.desd.p_b_max + 1e-6):
            bad.append(f"{u.id} rating")
        soc = soc_trajectory(u.desd, dis, ch, dt)
        if np.any(soc < u.desd.e_min - 1e-6) or np.any(soc > u.desd.e_max + 1e-6):
            bad.append(f"{u.id} soc bounds")
        if isinstance(u.desd.bdc, ConstantBdc) and u.desd.bdc.c_d > 0 and \
                np.any(dis * ch > 1e-6):
            bad.append(f"{u.id} simultaneous charge and discharge")
    return bad


def test_criterion_7_schedule_feasibility():
    rng = np.random.default_rng(701)
    violations = []
    for k in range(50):
        m = random_model(rng, r_max=6, T=24)
        rg = random_rg_profiles(m, rng)
        out = solve_social(m, rg)
        violations += [f"instance {k}: {v}" for v in _schedule_violations(m, rg, out)]
    _record(7, "schedule feasibility invariants, 50 instances", not violations,
            "; ".join(violations[:4]) or "balance, SOC, ratings, exclusivity all clean")


# 8 ------------------------------------------------------------------------

def test_criterion_8_forecast_algebra():
    rng = np.random.default_rng(801)
    violations = 0
    for _ in range(1000):
        kind = "pv" if rng.random() < 0.5 else "wt"
        K = int(rng.integers(4, 14))
        pool = classify_scenarios(rng.uniform(0, 6, size=(K, 24)), kind,
                                  seed=int(rng.integers(1 << 30)))
        n = pool.n_classes
        p1, p2 = rng.uniform(size=n), rng.uniform(size=n)
        p1, p2 = p1 / p1.sum(), p2 / p2.sum()
        mk = (lambda v: WeatherForecast(solar=v)) if kind == "pv" else \
            (lambda v: WeatherForecast(wind=v))
        out = predict_rg(pool, mk(p1))
        if np.any(out < pool.profiles.min(axis=0) - 1e-9) or \
                np.any(out > pool.profiles.max(axis=0) + 1e-9):
            violations += 1
        a = float(rng.uniform())
        mixed = predict_rg(pool, mk(a * p1 + (1 - a) * p2))
        straight = a * out + (1 - a) * predict_rg(pool, mk(p2))
        if np.max(np.abs(mixed - straight)) > 1e-10:
            violations += 1
        perm = rng.permutation(K)
        shuffled = ScenarioPool(kind=kind, profiles=pool.profiles[perm],
                                class_of=pool.class_of[perm],
                                cond_probs=pool.cond_probs[:, perm])
        if np.max(np.abs(predict_rg(shuffled, mk(p1)) - out)) > 1e-10:
            violations += 1
    _record(8, "forecast envelope, linearity, permutation, 1000 cases",
            violations == 0, f"{violations} violations")


# 9 ------------------------------------------------------------------------

def test_criterion_9_message_privacy(reference_model, favorable_rg, tmp_path):
    run = run_codes(reference_model, favorable_rg, record_messages=True)
    allowed = {"sender", "iteration", "dual_prices", "mismatch"}
    forbidden = ("demand", "rg", "profile", "battery", "e0", "e_min", "e_max",
                 "p_b_max", "kappa", "bdc", "discharge", "charge", "soc")
    leaks = []
    for msg in run.messages:
        if set(vars(msg)) != allowed:
            leaks.append(sorted(set(vars(msg)) - allowed))
            break
    path = tmp_path / "bus.jsonl"
    dump_message_log(run, path)
    with open(path) as fh:
        for line in fh:
            keys = set(json.loads(line))
            if keys != allowed or any(k in forbidden for k in keys):
                leaks.append(sorted(keys - allowed))
                break
    _record(9, "message payload privacy audit", not leaks,
            f"{len(run.messages)} messages, fields limited to "
            f"{sorted(allowed)}" if not leaks else f"extra fields {leaks}")
