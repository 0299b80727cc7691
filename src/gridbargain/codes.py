"""Distributed social scheduling by consensus on prices.

The pooled schedule of ``scheduling.solve_social`` is recovered without
any agent revealing its demand, generation, or device parameters. Each
agent (r users plus the grid) keeps a private copy of the shadow price
of power balance at every step and a tracker of the network-wide
supply-demand mismatch, held as rows of (r+1, T) arrays (row r the
grid): ``lam``, ``M`` and the own imbalances ``R``. A round is:

1. local step: each user re-solves its storage program against its
   price copy, exactly, by ``scheduling._priced_battery`` (lazily: only
   once the copy has moved by LAZY_TOL; ties end the hour at the higher
   state of charge, which the round counts depend on). The grid ramps its
   exchange toward profitability, damped by GRID_RAMP.
2. exchange: the agent sends neighbors its price copy and mismatch
   tracker, nothing else.
3. update: price copies are averaged with Metropolis weights and nudged
   by STEP_A/(k+STEP_B) times the tracker; trackers follow
   M = W M + R - R_old, so their sum is the true mismatch.

Tail averages of the user schedules (restarted at geometrically growing
rounds) smooth the price oscillation; they feed only the candidate. The
first check comes at round FIRST_CHECK and later ones every CHECK_EVERY
rounds. At each check the candidate is the averaged user schedules with
the grid absorbing the leftover imbalance; its cost minus the best dual
value q(lam) seen so far is a certified gap, and the run stops once that
meets the cost tolerance. Any common price gives a valid q,
``scheduling._dual_value``: one local step per user. While the gap is
open, a round-robin rebalance lets each user in turn re-solve from the
check's candidate against the true tariff together with the grid
(``scheduling._battery_and_grid``); it is kept when it beats the best
schedule.

A check still open after the rebalance then takes up to PROBE_STEPS
projected Polyak steps (Polyak 1987) on the bus price, the certificate's
only dual values: lam_t is pinned at the buy price where the best
schedule buys and at the sell price where it sells, and free in
[sell, buy] elsewhere; it moves by POLYAK_STEP (best cost - q) g/|g|^2,
g the mismatch at lam on the free hours. The first probe starts from the
mean price copy, later ones where the last stopped. Like the rest of the
certificate the probe is central; deployed, each step is a round of
local solves plus a network sum, so ``CodesRun.probe_steps`` counts them.

Unit costs are re-looked-up on the averaged trajectories every
RELINEARIZE_EVERY rounds; when a SOC-dependent cost moves, the
certificate restarts (a constant cost looks up the same profile). A
SOC-dependent gap therefore bounds the objective at the unit costs in
force at the closing check, not the true cost (ROADMAP item 8).

A final per-user cleanup re-times each storage schedule at fixed net
injection (``_battery_and_grid`` with the grid rated 0 kW), so a run
calls no LP solver. A run ends at its closing check, or at MAX_ROUNDS;
each round every agent puts one message on the bus, (r+1) k messages in
k rounds.
A run in which no check holds a schedule within BALANCE_TOL raises
SolverStall. A given (model, rg) gives the same result bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .consensus import metropolis_weights
from .errors import SolverStall
from .model import soc_trajectory, validate_model
from .scheduling import (SocialScheduleOutcome, _battery_and_grid, _costed, _dual_value,
                         _priced_battery, _rg_profiles, trading_cost)
# scheduling's lazy linprog, kept for bench/spans.py and the no-LP test (ROADMAP item 1).
from .scheduling import linprog  # noqa: F401

__all__ = ["RoundMessage", "CodesRun", "run_codes", "convergence_trace", "dump_message_log",
           "GRID_AGENT"]

GRID_AGENT = "grid"

STEP_A, STEP_B = 1.0, 10.0  # diminishing price step STEP_A / (k + STEP_B)
GRID_RAMP = 4.0  # grid damping: cents of price incentive per kW of response per round
LAZY_TOL = 0.02  # price movement (cents/kWh) that triggers a fresh user solve
RELINEARIZE_EVERY = 100  # rounds between unit-cost re-lookups
BALANCE_TOL = 1e-6  # kW of imbalance the grid patch may leave
MAX_ROUNDS = 6000  # round budget; running out is reported as converged=False
CHECK_EVERY = 25  # rounds between certificate checks
FIRST_CHECK = 5  # round of the first check
PROBE_STEPS, POLYAK_STEP = 15, 1.5  # price probe per open check: step budget, step factor
COST_TOL_ABS, COST_TOL_REL = 0.1, 1e-3  # stop at a certified gap <= max(ABS c, REL |cost|)


@dataclass(frozen=True)
class RoundMessage:
    """What one agent puts on the bus in one round: its price copy and
    mismatch tracker. No demand, generation, or device fields exist
    here, which is the privacy contract the audit checks."""

    sender: str
    iteration: int
    dual_prices: np.ndarray
    mismatch: np.ndarray


@dataclass(frozen=True)
class CodesRun:
    outcome: SocialScheduleOutcome
    converged: bool
    iterations: int
    gap: float
    trace: np.ndarray  # (checks, 3): round, certified gap, patch residual kW
    probe_steps: int  # dual evaluations of the price probe, one DP per user each
    messages: list | None = None


def run_codes(model, rg=None, *, record_messages=False):
    """Distributed social schedule; see the module docstring.

    Returns a CodesRun whose outcome mirrors ``solve_social``. Running
    out of rounds is reported softly (converged=False, best schedule
    kept) so experiments can log it rather than die; without a balanced
    schedule to keep, the run raises SolverStall. record_messages
    keeps every message put on the bus in ``CodesRun.messages``.
    """
    model = validate_model(model)
    T, dt = int(model.horizon.steps), float(model.horizon.dt)
    r, n = model.n_users, model.n_users + 1
    pb, ps = model.prices.buy, model.prices.sell
    p_max = model.grid.p_g_max

    rg_prof = _rg_profiles(rg, model.users, T)
    netload = model.demands.sum(axis=0) - sum(rg_prof.values())
    W = metropolis_weights(model.graph, n)

    active = [u for u in model.users if u.is_active]
    rows = {u.id: model.user_index(u.id) for u in active}
    desd = {u.id: u.desd for u in active}
    units = {u.id: np.full(T, float(u.desd.bdc.unit_cost(u.desd.e0 / u.desd.e_max)))
             for u in active}
    senders = [u.id for u in model.users] + [GRID_AGENT]

    # Row i is user i and row r the grid: price copies lam, mismatch
    # trackers M and each agent's own imbalance R, kW. The grid starts
    # idle and ramps its exchange (buy, sell) from there.
    lam = np.tile(0.5 * (pb + ps), (n, 1))
    lam_hi = 1.5 * float(pb.max()) + 1.0
    R = np.zeros((n, T))
    for i, u in enumerate(model.users):
        R[i] = model.demands[i] - rg_prof[u.id]
    user_net = {uid: R[i].copy() for uid, i in rows.items()}  # demand minus generation
    buy, sell = np.zeros(T), np.zeros(T)

    # Round 0 local step seeds the imbalances and trackers. Each active
    # user keeps its last schedule, the price copy it was solved at and
    # its tail sums (discharge, charge), which restart with the network
    # price's below, so all share avg_count.
    sched, solved_at, acc = {}, {}, {}
    for uid, i in rows.items():
        sched[uid] = _priced_battery(desd[uid], units[uid], lam[i], dt)[1:]
        solved_at[uid] = lam[i]
        acc[uid] = np.array(sched[uid])
        R[i] = user_net[uid] - (sched[uid][0] - sched[uid][1])
    avg_count = 1
    M = R.copy()

    messages = [] if record_messages else None
    best_q, best_cost = -np.inf, np.inf
    best = None  # (avg schedules, patch) snapshot at best_cost
    trace = []
    next_restart = 64
    converged = False
    rounds_done = probe_steps = 0
    probe_lam = None  # where the last price probe stopped

    def tol_for(cost):
        return max(COST_TOL_ABS, COST_TOL_REL * abs(cost))

    def patch(g, d, c):
        """The grid's patch of imbalance g, its residual, and the cost of (d, c) with it."""
        gb, gs = np.clip(g, 0.0, p_max), np.clip(-g, 0.0, p_max)
        cost = trading_cost(model.prices, gb, gs, dt)
        for uid in d:
            cost += float(np.sum(units[uid] * (d[uid] + c[uid])) * dt)
        return gb, gs, float(np.max(np.abs(g - (gb - gs)))), cost

    def candidate():
        """Feasible schedule from tail averages plus a grid patch."""
        avg = {u.id: np.clip(acc[u.id] / avg_count, 0.0, u.desd.p_b_max) for u in active}
        avg_d = {uid: a[0] for uid, a in avg.items()}
        avg_c = {uid: a[1] for uid, a in avg.items()}
        g = netload - sum((avg_d[uid] - avg_c[uid] for uid in rows), np.zeros(T))
        return (avg_d, avg_c, *patch(g, avg_d, avg_c))

    def rebalance(d0, c0):
        """Round-robin exact best responses against the true tariff.

        Averaging can leave small imbalances on hours where several
        schedules tie, and patching them at the tariff spread costs real
        cents; each user's re-solve with everyone else frozen moves that
        mass back. It needs only the others' aggregate, which the
        mismatch tracker already circulates. None when a step has no
        schedule within the battery and grid ratings.
        """
        d, c = dict(d0), dict(c0)
        inj = sum((d[uid] - c[uid] for uid in rows), np.zeros(T))
        prev = np.inf
        out = None
        for _ in range(3):
            for uid in rows:
                own = d[uid] - c[uid]
                # 1e-9 per kWh of throughput breaks zero-cost ties toward idling
                sched_u = _battery_and_grid(desd[uid], units[uid] + 1e-9, pb, ps,
                                            netload - (inj - own), p_max, dt)
                if sched_u is None:
                    return None
                d[uid], c[uid] = sched_u
                inj += (d[uid] - c[uid]) - own
            gb, gs, resid, cost = patch(netload - inj, d, c)
            if cost > prev - 1e-6:
                break
            prev = cost
            out = (dict(d), dict(c), gb, gs, resid, cost)
        return out

    def probe(start):
        """Projected Polyak steps on the bus price; returns (last price, best q, steps)."""
        lo = np.where(best[2] > 1e-6, pb, ps)  # pinned where the best schedule buys
        hi = np.where(best[3] > 1e-6, ps, pb)  # or sells
        lam_p, q_best, steps = np.clip(start, lo, hi), best_q, 0
        for steps in range(1, PROBE_STEPS + 1):
            q, inj = _dual_value(lam_p, netload, model.prices, p_max, active, units, dt)
            q_best = max(q_best, q)
            g = np.where(lo < hi, netload - inj, 0.0) * dt
            gg = float(g @ g)
            if best_cost - q_best <= tol_for(best_cost) or gg == 0.0:
                break
            lam_p = np.clip(lam_p + POLYAK_STEP * (best_cost - q) / gg * g, lo, hi)
        return lam_p, q_best, steps

    for k in range(1, MAX_ROUNDS + 1):
        rounds_done = k
        if messages is not None:
            for i, sender in enumerate(senders):
                messages.append(RoundMessage(sender=sender, iteration=k,
                                             dual_prices=lam[i].copy(), mismatch=M[i].copy()))

        lam = np.clip(W @ lam + STEP_A / (k + STEP_B) * n * M, 0.0, lam_hi)
        R_old = R.copy()
        if k >= next_restart:
            next_restart *= 2
            acc = {uid: np.zeros((2, T)) for uid in rows}
            avg_count = 0

        buy = np.clip(buy + (lam[r] - pb) / GRID_RAMP, 0.0, p_max)
        sell = np.clip(sell + (ps - lam[r]) / GRID_RAMP, 0.0, p_max)
        R[r] = -(buy - sell)
        for uid, i in rows.items():
            if float(np.max(np.abs(lam[i] - solved_at[uid]))) > LAZY_TOL:
                sched[uid] = _priced_battery(desd[uid], units[uid], lam[i], dt)[1:]
                solved_at[uid] = lam[i]
            R[i] = user_net[uid] - (sched[uid][0] - sched[uid][1])
            acc[uid] += sched[uid]
        avg_count += 1
        M = W @ M + R - R_old

        if k % CHECK_EVERY == 0 or k == MAX_ROUNDS or k == FIRST_CHECK:
            if k % RELINEARIZE_EVERY == 0:
                changed = False
                for u in active:
                    soc = soc_trajectory(u.desd, *(acc[u.id] / avg_count), dt)
                    new = np.asarray(u.desd.bdc.unit_cost(
                        np.clip(soc, u.desd.e_min, u.desd.e_max) / u.desd.e_max), dtype=float)
                    if not np.array_equal(new, units[u.id]):
                        units[u.id], changed = new, True
                if changed:  # objective moved; old bounds no longer comparable
                    best_q, best_cost, best = -np.inf, np.inf, None

            avg_d, avg_c, gb, gs, resid, cost = candidate()
            if cost < best_cost and resid <= BALANCE_TOL:
                best_cost = cost
                best = (avg_d, avg_c, gb, gs, resid)
            gap = best_cost - best_q
            if best is not None and gap > tol_for(best_cost):
                better = rebalance(avg_d, avg_c)
                if better is not None and better[5] < best_cost and better[4] <= BALANCE_TOL:
                    best, best_cost = better[:5], better[5]
                    gap = best_cost - best_q
                if gap > tol_for(best_cost):
                    probe_lam, best_q, steps = probe(
                        lam.mean(axis=0) if probe_lam is None else probe_lam)
                    probe_steps += steps
                    gap = best_cost - best_q
            trace.append((k, gap, best[4] if best else resid))
            if best is not None and gap <= tol_for(best_cost):
                converged = True
                break

    if best is None:
        raise SolverStall(f"distributed schedule: no check in {rounds_done} rounds held a "
                          f"schedule within {BALANCE_TOL} kW of balance")

    avg_d, avg_c, gb, gs, resid = best
    discharge, charge = {}, {}
    zero = np.zeros(T)
    for u in active:
        # at rating 0 the battery alone covers its net injection; 1e-9
        # per kWh of throughput breaks zero-cost ties toward idling
        sched_u = _battery_and_grid(u.desd, units[u.id] + 1e-9, zero, zero,
                                    avg_d[u.id] - avg_c[u.id], 0.0, dt)
        if sched_u is None:
            raise SolverStall("cleanup pass: no schedule has this net injection")
        discharge[u.id], charge[u.id] = sched_u
    return CodesRun(
        outcome=_costed(active, gb, gs, discharge, charge, model.prices, dt),
        converged=converged, iterations=rounds_done, gap=float(best_cost - best_q),
        trace=np.array(trace, dtype=float).reshape(-1, 3), probe_steps=probe_steps,
        messages=messages,
    )


def convergence_trace(run):
    """Trace as named columns: round index, certified gap, patch residual."""
    t = run.trace
    return {"round": t[:, 0].astype(int), "cost_gap": t[:, 1], "balance_residual": t[:, 2]}


def dump_message_log(run, path):
    """Write the recorded message log as line-delimited JSON."""
    if run.messages is None:
        raise ValueError("run was made without record_messages=True")
    with open(path, "w") as fh:
        for msg in run.messages:
            fh.write(json.dumps({"sender": msg.sender, "iteration": msg.iteration,
                                 "dual_prices": msg.dual_prices.tolist(),
                                 "mismatch": msg.mismatch.tolist()}, sort_keys=True) + "\n")
