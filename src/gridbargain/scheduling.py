"""Day-ahead scheduling.

Two solvers over the same physics:

* ``solve_social``     one pooled problem for the whole microgrid; the
  grid exchange is shared and every storage device works toward the
  aggregate bill. Its optimum is the cooperative ("social") cost the
  bargaining layer allocates.
* ``solve_individual`` one user alone against the utility tariff; its
  optimum is that user's ideal (non-cooperative) cost.

Both minimize trading cost plus battery degradation over the horizon,
subject to power balance at every step, state-of-charge limits, device
ratings and the point-of-coupling rating. With a constant degradation
cost this is a linear program solved directly (HiGHS); a SOC-dependent
degradation cost is handled by successive linearization: solve with the
cost profile looked up on the previous SOC trajectory, re-lookup,
repeat until the true cost moves less than CONVERGED_DELTA_CENTS (at
most MAX_OUTER linearizations).

Costs are comparable across solvers; decisions are reported but two
optimal schedules may differ wherever the optimum is degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import Infeasible, InvariantViolation, LengthMismatch, SolverStall
from .model import ConstantBdc, soc_trajectory, validate_model

__all__ = [
    "trading_cost",
    "bdc_cost",
    "SocialDecision",
    "SocialScheduleOutcome",
    "IndividualDecision",
    "IndividualOutcome",
    "solve_social",
    "solve_individual",
    "individual_costs",
    "FEAS_TOL",
]

FEAS_TOL = 1e-6
CONVERGED_DELTA_CENTS = 1e-4
MAX_OUTER = 20


def trading_cost(prices, buy, sell, dt=1.0):
    """Net payment to the utility in cents: sum (p_b*buy - p_s*sell)*dt."""
    buy, sell = np.asarray(buy, dtype=float), np.asarray(sell, dtype=float)
    if buy.shape != prices.buy.shape or sell.shape != prices.sell.shape:
        raise LengthMismatch(
            f"series shapes {buy.shape}/{sell.shape} do not match the "
            f"{prices.buy.shape[0]}-step tariff")
    return float(np.sum(prices.buy * buy - prices.sell * sell) * dt)


def bdc_cost(bdc, discharge, charge, soc, capacity, dt=1.0):
    """Battery degradation cost in cents for a given schedule.

    The unit cost (cents/kWh of throughput) is constant or looked up at
    soc(t)/capacity on the supplied trajectory.
    """
    discharge, charge, soc = (np.asarray(a, dtype=float) for a in (discharge, charge, soc))
    if not (discharge.shape == charge.shape == soc.shape):
        raise LengthMismatch(
            f"discharge/charge/soc shapes differ: "
            f"{discharge.shape}/{charge.shape}/{soc.shape}")
    unit = bdc.unit_cost(soc / capacity)
    return float(np.sum(unit * (discharge + charge)) * dt)


@dataclass(frozen=True)
class SocialDecision:
    grid_buy: np.ndarray
    grid_sell: np.ndarray
    discharge: dict  # user_id -> kW per step, active users only
    charge: dict


@dataclass(frozen=True)
class SocialScheduleOutcome:
    decision: SocialDecision
    trading_cost: float
    bdc_costs: dict  # user_id -> cents
    social_cost: float
    soc: dict  # user_id -> kWh after each step
    outer_iterations: int = 1


@dataclass(frozen=True)
class IndividualDecision:
    grid_buy: np.ndarray
    grid_sell: np.ndarray
    discharge: np.ndarray | None
    charge: np.ndarray | None


@dataclass(frozen=True)
class IndividualOutcome:
    decision: IndividualDecision
    trading_cost: float
    bdc_cost: float
    cost: float
    soc: np.ndarray | None


def _soc_rows(desd, T, dt, refill_terminal):
    """A_ub block and rhs keeping the SOC inside [e_min, e_max].

    Columns are this device's (discharge, charge) variables; the rows are
    cumulative drain bounds, drain(t) = discharge/kappa - kappa*charge.
    """
    L = np.tril(np.ones((T, T)))
    drain = np.hstack([L / desd.kappa, -desd.kappa * L]) * dt
    rows = [drain, -drain]
    rhs = [np.full(T, desd.e0 - desd.e_min), np.full(T, desd.e_max - desd.e0)]
    if refill_terminal:
        rows.append(drain[-1:])  # end-of-day energy no lower than e0
        rhs.append(np.zeros(1))
    return np.vstack(rows), np.concatenate(rhs)


def _solve_lp(c, A_ub, b_ub, A_eq, b_eq, bounds, what):
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status == 2:
        raise Infeasible(f"{what}: {res.message}")
    if res.status != 0:
        raise SolverStall(f"{what}: {res.message}")
    return res.x


def _check_residuals(x, A_eq, b_eq, bounds, what):
    if A_eq is not None:
        resid = float(np.max(np.abs(A_eq @ x - b_eq)))
        if resid > FEAS_TOL:
            raise SolverStall(f"{what}: balance residual {resid:g} above {FEAS_TOL:g}")
    for v, (lo, hi) in zip(x, bounds):
        if v < lo - FEAS_TOL or v > hi + FEAS_TOL:
            raise SolverStall(f"{what}: variable bound violated by more than {FEAS_TOL:g}")


def _rg_profile(rg, uid, T):
    """User uid's generation profile from a forecast result or a dict."""
    if rg is None:
        return np.zeros(T)
    prof = rg.profiles.get(uid) if hasattr(rg, "profiles") else rg.get(uid)
    if prof is None:
        return np.zeros(T)
    prof = np.asarray(prof, dtype=float)
    if not np.all(np.isfinite(prof)):
        raise InvariantViolation(f"rg profile of user {uid}: values must be finite")
    return prof


def solve_social(model, rg=None, *, refill_terminal=False):
    """Pooled minimum-cost schedule for the whole microgrid.

    ``rg`` maps user ids to predicted generation profiles (RgForecastResult
    or plain dict); users without an entry contribute no generation.
    Returns the cooperative cost split into grid trading and per-user
    degradation, J_soc being their sum.
    """
    model = validate_model(model)
    T, dt = int(model.horizon.steps), float(model.horizon.dt)
    active = [u for u in model.users if u.is_active]

    net = model.demands.sum(axis=0).astype(float).copy()
    for u in model.users:
        net -= _rg_profile(rg, u.id, T)

    n = 2 * T + 2 * T * len(active)
    bounds = [(0.0, model.grid.p_g_max)] * (2 * T)
    A_eq = np.zeros((T, n))
    I = np.eye(T)
    A_eq[:, :T] = I
    A_eq[:, T:2 * T] = -I
    blocks, rhss = [], []
    for k, u in enumerate(active):
        col = 2 * T + 2 * T * k
        A_eq[:, col:col + T] = I
        A_eq[:, col + T:col + 2 * T] = -I
        bounds += [(0.0, u.desd.p_b_max)] * (2 * T)
        rows, rhs = _soc_rows(u.desd, T, dt, refill_terminal)
        block = np.zeros((rows.shape[0], n))
        block[:, col:col + 2 * T] = rows
        blocks.append(block)
        rhss.append(rhs)
    A_ub = np.vstack(blocks) if blocks else None
    b_ub = np.concatenate(rhss) if rhss else None

    # c_d profiles start from the initial SOC and get re-looked-up on the
    # achieved trajectory until the true cost settles.
    unit = {u.id: np.full(T, float(u.desd.bdc.unit_cost(u.desd.e0 / u.desd.e_max)))
            for u in active}
    all_constant = all(isinstance(u.desd.bdc, ConstantBdc) for u in active)

    prev_cost = None
    best = None
    for outer in range(1, MAX_OUTER + 1):
        c = np.concatenate(
            [model.prices.buy * dt, -model.prices.sell * dt]
            + [np.concatenate([unit[u.id], unit[u.id]]) * dt for u in active]
        )
        x = _solve_lp(c, A_ub, b_ub, A_eq, net, bounds, "social schedule")
        _check_residuals(x, A_eq, net, bounds, "social schedule")

        grid_buy, grid_sell = x[:T], x[T:2 * T]
        discharge, charge, soc, bdc_costs = {}, {}, {}, {}
        for k, u in enumerate(active):
            col = 2 * T + 2 * T * k
            discharge[u.id] = x[col:col + T]
            charge[u.id] = x[col + T:col + 2 * T]
            soc[u.id] = soc_trajectory(u.desd, discharge[u.id], charge[u.id], dt)
            lo, hi = u.desd.e_min - FEAS_TOL, u.desd.e_max + FEAS_TOL
            if np.any(soc[u.id] < lo) or np.any(soc[u.id] > hi):
                raise SolverStall("social schedule: SOC left its bounds")
            bdc_costs[u.id] = bdc_cost(u.desd.bdc, discharge[u.id], charge[u.id],
                                       soc[u.id], u.desd.e_max, dt)
        trade = trading_cost(model.prices, grid_buy, grid_sell, dt)
        cost = trade + sum(bdc_costs.values())

        # every iterate is feasible and costed under the true step
        # costs, so the best one is always a valid answer even when
        # the linearization cycles instead of settling
        if best is None or cost < best.social_cost:
            best = SocialScheduleOutcome(
                decision=SocialDecision(grid_buy, grid_sell, discharge, charge),
                trading_cost=trade, bdc_costs=bdc_costs, social_cost=cost,
                soc=soc, outer_iterations=outer,
            )
        if all_constant or (prev_cost is not None
                            and abs(cost - prev_cost) < CONVERGED_DELTA_CENTS):
            return best
        prev_cost = cost
        unit = {u.id: np.asarray(u.desd.bdc.unit_cost(soc[u.id] / u.desd.e_max),
                                 dtype=float)
                for u in active}
    return best


def solve_individual(user, demand, prices, grid, horizon, rg_profile=None,
                     *, refill_terminal=False):
    """Minimum-cost schedule for one user facing the tariff alone.

    A passive user reduces to the forced purchase of its demand. The
    returned ``cost`` is the user's ideal cost D_i (trading plus
    degradation); negative values are net profit from exports.
    """
    T, dt = int(horizon.steps), float(horizon.dt)
    demand = np.asarray(demand, dtype=float)
    net = demand - (np.zeros(T) if rg_profile is None else np.asarray(rg_profile, dtype=float))

    has_desd = user.desd is not None
    n = 2 * T + (2 * T if has_desd else 0)
    bounds = [(0.0, grid.p_g_max)] * (2 * T)
    I = np.eye(T)
    A_eq = np.zeros((T, n))
    A_eq[:, :T] = I
    A_eq[:, T:2 * T] = -I
    A_ub = b_ub = None
    if has_desd:
        A_eq[:, 2 * T:3 * T] = I
        A_eq[:, 3 * T:4 * T] = -I
        bounds += [(0.0, user.desd.p_b_max)] * (2 * T)
        rows, rhs = _soc_rows(user.desd, T, dt, refill_terminal)
        A_ub = np.zeros((rows.shape[0], n))
        A_ub[:, 2 * T:] = rows
        b_ub = rhs

    unit = (np.full(T, float(user.desd.bdc.unit_cost(user.desd.e0 / user.desd.e_max)))
            if has_desd else None)
    prev_cost = None
    best = None
    for outer in range(1, MAX_OUTER + 1):
        parts = [prices.buy * dt, -prices.sell * dt]
        if has_desd:
            parts.append(np.concatenate([unit, unit]) * dt)
        x = _solve_lp(np.concatenate(parts), A_ub, b_ub, A_eq, net, bounds,
                      f"individual schedule ({user.id})")
        _check_residuals(x, A_eq, net, bounds, f"individual schedule ({user.id})")

        grid_buy, grid_sell = x[:T], x[T:2 * T]
        trade = trading_cost(prices, grid_buy, grid_sell, dt)
        if not has_desd:
            return IndividualOutcome(
                decision=IndividualDecision(grid_buy, grid_sell, None, None),
                trading_cost=trade, bdc_cost=0.0, cost=trade, soc=None,
            )
        discharge, charge = x[2 * T:3 * T], x[3 * T:4 * T]
        soc = soc_trajectory(user.desd, discharge, charge, dt)
        deg = bdc_cost(user.desd.bdc, discharge, charge, soc, user.desd.e_max, dt)
        cost = trade + deg
        if best is None or cost < best.cost:  # same cycle guard as the pool
            best = IndividualOutcome(
                decision=IndividualDecision(grid_buy, grid_sell, discharge, charge),
                trading_cost=trade, bdc_cost=deg, cost=cost, soc=soc,
            )
        if isinstance(user.desd.bdc, ConstantBdc) or (
                prev_cost is not None and abs(cost - prev_cost) < CONVERGED_DELTA_CENTS):
            return best
        prev_cost = cost
        unit = np.asarray(user.desd.bdc.unit_cost(soc / user.desd.e_max), dtype=float)
    return best


def individual_costs(model, rg=None, *, refill_terminal=False):
    """solve_individual for every user; returns {user_id: IndividualOutcome}."""
    model = validate_model(model)
    out = {}
    for k, u in enumerate(model.users):
        out[u.id] = solve_individual(
            u, model.demands[k], model.prices, model.grid, model.horizon,
            rg_profile=_rg_profile(rg, u.id, int(model.horizon.steps)),
            refill_terminal=refill_terminal,
        )
    return out
