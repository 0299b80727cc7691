"""Distributed social scheduling by consensus on prices.

The pooled schedule of ``scheduling.solve_social`` is recovered without
any agent revealing its demand, generation, or device parameters. Each
agent (r users plus the grid) keeps a private copy of the shadow price
of power balance at every step and a tracker of the network-wide
supply-demand mismatch. A synchronous round is:

1. local step: the agent re-optimizes only its own devices against its
   current price copy. Users solve their storage program exactly with
   an O(T^2) dynamic program over the convex piecewise-linear value of
   stored energy, no LP solver involved (lazily: a fresh solve only
   once their price copy has moved by LAZY_TOL). Where several
   schedules are optimal the DP picks the one ending each hour at the
   higher state of charge, which the round counts depend on. The grid
   ramps its exchange toward profitability (GRID_RAMP), a damped best
   response that keeps the network signal smooth.
2. exchange: the agent sends neighbors its price copy and mismatch
   tracker, nothing else.
3. update: price copies are averaged with Metropolis weights and nudged
   by a diminishing step STEP_A/(k+STEP_B) times the mismatch tracker
   (innovation); trackers are averaged and corrected by the change in
   the agent's own imbalance, which keeps their network sum equal to
   the true instantaneous mismatch.

The state of all agents is held as (r+1, T) arrays, row i for user i
and row r for the grid: ``lam`` (price copies), ``M`` (trackers) and
``R`` (own imbalances), so the tracker update is M = W M + R - R_old.

Price oscillation is smoothed by tail averaging (accumulators restart
at geometrically growing rounds, so averages cover roughly the trailing
half). The candidate schedule is the tail-averaged user schedules with
the grid absorbing the leftover imbalance; its cost minus the dual
value of the tail-averaged network price is a certified optimality gap,
and the run stops once that certificate meets the cost tolerance.
SOC-dependent unit costs are re-looked-up on the averaged trajectories
every RELINEARIZE_EVERY rounds, which restarts the certificate. At
every check whose gap is still open, a round-robin rebalance starts
from that check's candidate and lets each user in turn re-solve against
the true tariff together with the grid; its schedule is kept when it
beats the best one. Each of those best responses, one battery plus the
grid, is the exact DP of ``scheduling`` too. A final per-user cleanup
pass re-times each storage schedule at fixed net injection, which
removes any simultaneous charge/discharge the averaging introduced. It
is the same DP with the grid rated 0 kW, so a run calls no LP solver at
all.

A run ends at the round of its closing check, or at MAX_ROUNDS when no
check closes. Every round each agent puts one message on the bus, so a
run of k rounds sends (r+1) k messages and nothing after its last
round. The routine is deterministic: a given (model, rg) gives the
same result bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .consensus import metropolis_weights
from .errors import SolverStall
from .model import ConstantBdc, soc_trajectory, validate_model
from .scheduling import (_DRAIN, _FILL, SocialScheduleOutcome, _battery_and_grid, _costed,
                         _rg_profiles, _storage_dp, trading_cost)
# scheduling's lazy linprog, kept for bench/spans.py and the no-LP test (ROADMAP item 1).
from .scheduling import linprog  # noqa: F401

__all__ = [
    "RoundMessage",
    "CodesRun",
    "run_codes",
    "convergence_trace",
    "dump_message_log",
    "GRID_AGENT",
]

GRID_AGENT = "grid"

STEP_A, STEP_B = 1.0, 10.0  # diminishing price step STEP_A / (k + STEP_B)
GRID_RAMP = 4.0  # grid damping: cents of price incentive per kW of response per round
LAZY_TOL = 0.02  # price movement (cents/kWh) that triggers a fresh user solve
RELINEARIZE_EVERY = 100  # rounds between re-lookups of SOC-dependent unit costs
BALANCE_TOL = 1e-6  # kW of imbalance the grid patch may leave
MAX_ROUNDS = 6000  # round budget; running out is reported as converged=False
CHECK_EVERY = 25  # rounds between certificate checks
# The run stops once the certified gap is within
# max(COST_TOL_ABS cents, COST_TOL_REL * |cost|).
COST_TOL_ABS, COST_TOL_REL = 0.1, 1e-3


@dataclass(frozen=True)
class RoundMessage:
    """What one agent puts on the bus in one round.

    Only coordination state: the sender's price copy and mismatch
    tracker. No demand, generation, or device fields exist here, which
    is the privacy contract the audit checks.
    """

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
    messages: list | None = None


class _UserLocal:
    """One active user's storage subproblem, solved exactly when asked.

    min sum_t ((c - lam) discharge + (c + lam) charge) dt over the SOC
    polytope. The per-round step and its value are
    ``scheduling._storage_dp`` in energy units, two segments per step:
    fill less at -beta per kWh (y = kappa charge dt up to Y) and drain
    more at alpha (x = discharge dt / kappa up to X). The round-robin
    rebalance is the same DP on the battery-plus-grid program, and the
    cleanup is that program with the grid rated 0 kW.
    """

    def __init__(self, desd, T, dt, p_max):
        self.desd, self.T, self.dt, self.p_max = desd, T, dt, p_max
        kappa = desd.kappa
        self._X, self._Y = desd.p_b_max * dt / kappa, kappa * desd.p_b_max * dt
        self._dp_args = (desd.e_max - desd.e_min, desd.e0 - desd.e_min)

    def _steps(self, unit_cost, lam):
        alpha = (unit_cost - lam) * self.desd.kappa
        beta = (unit_cost + lam) / self.desd.kappa
        if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))):
            raise SolverStall("local storage step: non-finite cost or price")
        X, Y = self._X, self._Y
        return [(-Y, b * Y, ((-b, Y, _FILL), (a, X, _DRAIN)))
                for a, b in zip(alpha.tolist(), beta.tolist())]

    def solve(self, unit_cost, lam):
        """Optimal (discharge, charge) against the price copy lam."""
        _, x, y = _storage_dp(self._steps(unit_cost, lam), *self._dp_args, True)
        kappa, dt = self.desd.kappa, self.dt
        return np.array(x) * (kappa / dt), np.array(y) / (kappa * dt)

    def value(self, unit_cost, lam):
        """Optimal cost against lam, without recovering the schedule."""
        return _storage_dp(self._steps(unit_cost, lam), *self._dp_args, False)[0]

    def min_throughput(self, unit_cost, net):
        """Cheapest schedule with the given net injection (cleanup pass).

        With the grid rated 0 kW the battery alone covers ``net``: each
        step takes its least SOC drop, and past it only burns energy.
        """
        zero = np.zeros(self.T)
        # 1e-9 per kWh of throughput breaks zero-cost ties toward idling
        sched = _battery_and_grid(self.desd, unit_cost + 1e-9, zero, zero, net, 0.0, self.dt)
        if sched is None:
            raise SolverStall("cleanup pass: no schedule has this net injection")
        return sched

    def social_response(self, unit_cost, pb, ps, resid):
        """Best response against the true tariff with everyone else frozen.

        resid is the imbalance this user and the grid must cover
        together. Returns the user's schedule (discharge, charge).
        """
        # 1e-9 per kWh of throughput breaks zero-cost ties toward idling
        sched = _battery_and_grid(self.desd, unit_cost + 1e-9, pb, ps, resid, self.p_max,
                                  self.dt)
        if sched is None:
            raise SolverStall("rebalance step: no feasible schedule")
        return sched


def _dual_value(lam, netload, pb, ps, p_max, dt, locals_, units):
    """Lower bound on the social cost at a common price vector lam."""
    q = float(np.sum(lam * netload) * dt)
    q += float(np.sum(np.minimum(0.0, pb - lam) * p_max * dt))
    q += float(np.sum(np.minimum(0.0, lam - ps) * p_max * dt))
    for uid, loc in locals_.items():
        q += loc.value(units[uid], lam)
    return q


def run_codes(model, rg=None, *, record_messages=False):
    """Distributed social schedule; see the module docstring.

    Returns a CodesRun whose outcome mirrors ``solve_social``. Running
    out of rounds is reported softly (converged=False, best candidate
    kept) so experiments can log it rather than die. record_messages
    keeps every message put on the bus in ``CodesRun.messages``.
    """
    model = validate_model(model)
    T, dt = int(model.horizon.steps), float(model.horizon.dt)
    r = model.n_users
    n = r + 1
    pb, ps = model.prices.buy, model.prices.sell
    p_max = model.grid.p_g_max

    rg_prof = _rg_profiles(rg, model.users, T)
    netload = model.demands.sum(axis=0) - sum(rg_prof.values())
    W = metropolis_weights(model.graph, n)

    active = [u for u in model.users if u.is_active]
    rows = {u.id: model.user_index(u.id) for u in active}
    locals_ = {u.id: _UserLocal(u.desd, T, dt, p_max) for u in active}
    units = {u.id: np.full(T, float(u.desd.bdc.unit_cost(u.desd.e0 / u.desd.e_max)))
             for u in active}
    all_constant = all(isinstance(u.desd.bdc, ConstantBdc) for u in active)
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
    # the tail-average sums (discharge, charge); all users and the
    # network price below restart their sums together, so they share
    # avg_count.
    sched, solved_at, acc = {}, {}, {}
    for uid, i in rows.items():
        sched[uid] = locals_[uid].solve(units[uid], lam[i])
        solved_at[uid] = lam[i]
        acc[uid] = np.array(sched[uid])
        R[i] = user_net[uid] - (sched[uid][0] - sched[uid][1])
    avg_count = 1
    M = R.copy()

    messages = [] if record_messages else None
    lam_net_acc = lam.mean(axis=0)  # tail sum of the network price
    best_q, best_cost = -np.inf, np.inf
    best = None  # (avg schedules, patch) snapshot at best_cost
    trace = []
    next_restart = 64
    converged = False
    rounds_done = 0

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
        schedules tie; patching them at the tariff spread costs real
        cents. Letting each user in turn re-solve against the true
        prices with everyone else frozen moves that mass back. Each
        pass only needs the aggregate of the others, which is what the
        mismatch tracker already circulates.
        """
        d, c = dict(d0), dict(c0)
        inj = sum((d[uid] - c[uid] for uid in rows), np.zeros(T))
        prev = np.inf
        out = None
        for _ in range(3):
            for uid in rows:
                own = d[uid] - c[uid]
                d[uid], c[uid] = locals_[uid].social_response(
                    units[uid], pb, ps, netload - (inj - own))
                inj += (d[uid] - c[uid]) - own
            gb, gs, resid, cost = patch(netload - inj, d, c)
            if cost > prev - 1e-6:
                break
            prev = cost
            out = (dict(d), dict(c), gb, gs, resid, cost)
        return out

    for k in range(1, MAX_ROUNDS + 1):
        rounds_done = k
        if messages is not None:
            for i, sender in enumerate(senders):
                messages.append(RoundMessage(sender=sender, iteration=k,
                                             dual_prices=lam[i].copy(), mismatch=M[i].copy()))

        step = STEP_A / (k + STEP_B)
        lam = np.clip(W @ lam + step * n * M, 0.0, lam_hi)
        R_old = R.copy()
        restart = k >= next_restart
        if restart:
            next_restart *= 2
            acc = {uid: np.zeros((2, T)) for uid in rows}
            avg_count = 0
            lam_net_acc = np.zeros(T)

        buy = np.clip(buy + (lam[r] - pb) / GRID_RAMP, 0.0, p_max)
        sell = np.clip(sell + (ps - lam[r]) / GRID_RAMP, 0.0, p_max)
        R[r] = -(buy - sell)
        for uid, i in rows.items():
            if float(np.max(np.abs(lam[i] - solved_at[uid]))) > LAZY_TOL:
                sched[uid] = locals_[uid].solve(units[uid], lam[i])
                solved_at[uid] = lam[i]
            R[i] = user_net[uid] - (sched[uid][0] - sched[uid][1])
            acc[uid] += sched[uid]
        avg_count += 1
        M = W @ M + R - R_old
        lam_net_acc += lam.mean(axis=0)

        if k % CHECK_EVERY == 0 or k == MAX_ROUNDS:
            if not all_constant and k % RELINEARIZE_EVERY == 0:
                changed = False
                for u in active:
                    soc = soc_trajectory(u.desd, *(acc[u.id] / avg_count), dt)
                    new = np.asarray(u.desd.bdc.unit_cost(
                        np.clip(soc, u.desd.e_min, u.desd.e_max) / u.desd.e_max),
                        dtype=float)
                    if not np.array_equal(new, units[u.id]):
                        units[u.id] = new
                        changed = True
                if changed:  # objective moved; old bounds no longer comparable
                    best_q, best_cost, best = -np.inf, np.inf, None

            avg_d, avg_c, gb, gs, resid, cost = candidate()
            lam_tail = np.clip(lam_net_acc / avg_count, ps, pb)
            # Any common price gives a valid lower bound. The clip to
            # the price band removes the grid's huge penalty for tiny
            # overshoots; the snap pins hours where the candidate says
            # the grid trades, since there the price must sit on the
            # corresponding tariff to be tight.
            lam_snap = np.where(gb > 1e-6, pb, np.where(gs > 1e-6, ps, lam_tail))
            q1 = _dual_value(lam_tail, netload, pb, ps, p_max, dt, locals_, units)
            q2 = _dual_value(lam_snap, netload, pb, ps, p_max, dt, locals_, units)
            best_q = max(best_q, q1, q2)
            if cost < best_cost and resid <= BALANCE_TOL:
                best_cost = cost
                best = (avg_d, avg_c, gb, gs, resid)
            gap = best_cost - best_q
            if best is not None and gap > tol_for(best_cost):
                try:
                    better = rebalance(avg_d, avg_c)
                except SolverStall:
                    better = None
                if (better is not None and better[5] < best_cost
                        and better[4] <= BALANCE_TOL):
                    best = better[:5]
                    best_cost = better[5]
                    gap = best_cost - best_q
            trace.append((k, gap, best[4] if best else resid))
            if best is not None and gap <= tol_for(best_cost):
                converged = True
                break

    if best is None:  # never had a candidate within residual tolerance
        avg_d, avg_c, gb, gs, resid, cost = candidate()
        best, best_cost = (avg_d, avg_c, gb, gs, resid), cost

    avg_d, avg_c, gb, gs, resid = best
    discharge, charge = {}, {}
    for u in active:
        discharge[u.id], charge[u.id] = locals_[u.id].min_throughput(
            units[u.id], avg_d[u.id] - avg_c[u.id])
    return CodesRun(
        outcome=_costed(active, gb, gs, discharge, charge, model.prices, dt),
        converged=converged, iterations=rounds_done, gap=float(best_cost - best_q),
        trace=np.array(trace, dtype=float).reshape(-1, 3), messages=messages,
    )


def convergence_trace(run):
    """Trace as named columns: round index, certified gap, patch residual."""
    t = run.trace
    return {
        "round": t[:, 0].astype(int),
        "cost_gap": t[:, 1],
        "balance_residual": t[:, 2],
    }


def dump_message_log(run, path):
    """Write the recorded message log as line-delimited JSON."""
    if run.messages is None:
        raise ValueError("run was made without record_messages=True")
    with open(path, "w") as fh:
        for msg in run.messages:
            fh.write(json.dumps({
                "sender": msg.sender,
                "iteration": msg.iteration,
                "dual_prices": msg.dual_prices.tolist(),
                "mismatch": msg.mismatch.tolist(),
            }, sort_keys=True))
            fh.write("\n")
