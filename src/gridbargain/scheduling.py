"""Day-ahead scheduling.

One problem, solved for two memberships:

* ``solve_social``     the pooled problem for the whole microgrid; the
  grid exchange is shared and every storage device works toward the
  aggregate bill. Its optimum is the cooperative ("social") cost the
  bargaining layer allocates.
* ``solve_individual`` the same problem with one user as the only
  member, facing the utility tariff alone; its optimum is that user's
  ideal (non-cooperative) cost.

Both minimize trading cost plus battery degradation over the horizon,
subject to power balance at every step, state-of-charge limits, device
ratings and the point-of-coupling rating. With a constant degradation
cost this is a linear program solved directly (HiGHS); a SOC-dependent
degradation cost is handled by successive linearization: solve with the
cost profile looked up on the previous SOC trajectory, re-lookup,
repeat until the true cost moves less than CONVERGED_DELTA_CENTS (at
most MAX_OUTER linearizations).

A membership without a battery needs no solver: balance forces its grid
exchange, and the cheapest one has a closed form (``_forced_exchange``).

Every storage LP in the package, the distributed solver's cleanup and
rebalance programs included, is laid out by ``_storage_lp`` from an
ordered list of ports: the grid, or one battery with its SOC rows. The
constraint matrices are sparse, built once per run straight from index
arrays: O(T^2) nonzeros per battery, where a dense layout would hold
O((T * batteries)^2) entries. LPs small enough that scipy takes dense
input faster, such as a solo LP at T=24, reach ``linprog`` dense; HiGHS
receives the same matrix either way.

Costs are comparable across solvers; decisions are reported but two
optimal schedules may differ wherever the optimum is degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .errors import Infeasible, InvariantViolation, LengthMismatch, SolverStall
from .model import ConstantBdc, soc_trajectory, validate_model
from .rg_forecast import RgForecastResult

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


def _soc_pattern(T, refill_terminal):
    """Where one battery's SOC rows keep their nonzeros, in CSR order.

    Row t bounds the cumulative drain up to step t from above and row
    T + t from below, drain(s) = (discharge_s/kappa - kappa*charge_s)*dt;
    with ``refill_terminal`` a last row keeps the end-of-day energy no
    lower than e0. Returns the number of entries in each row, each
    entry's column among the battery's (discharge, charge) columns, and
    which coefficient it holds: 0 for dt/kappa, 1 for -kappa*dt, 2 and 3
    for their negatives.
    """
    t, s = np.tril_indices(T)
    order = np.argsort(np.concatenate([t, t]), kind="stable")  # discharge, then charge
    drain_cols = np.concatenate([s, T + s])[order]
    drain_coef = np.repeat([0, 1], t.size)[order]
    cols, coef = [drain_cols, drain_cols], [drain_coef, drain_coef + 2]
    counts = [np.arange(2, 2 * T + 1, 2)] * 2
    if refill_terminal:
        cols.append(np.arange(2 * T))
        coef.append(np.repeat([0, 1], T))
        counts.append([2 * T])
    return np.concatenate(counts), np.concatenate(cols).astype(np.int32), np.concatenate(coef)


def _storage_lp(ports, T, dt, refill_terminal=False):
    """Constraint keywords for ``linprog`` over an ordered list of ports.

    A port is (cap, desd): T columns of power into the bus, then T of
    power out of it, each in [0, cap]. The grid is a port without a
    device (buy, sell); a battery is one with its DesdParams (discharge,
    charge) and adds its SOC rows. The T balance rows sum every port's
    net injection; the caller supplies b_eq. Both matrices are sparse
    and store only their nonzeros, O(T^2) per battery.
    """
    n = 2 * T * len(ports)
    bounds = np.zeros((n, 2))
    bounds[:, 1] = np.repeat([float(cap) for cap, _ in ports], 2 * T)
    # each column of A_eq holds one +1 (into the bus) or -1 (out of it)
    A_eq = sparse.csc_array((np.tile(np.repeat([1.0, -1.0], T), len(ports)),
                             np.tile(np.arange(T, dtype=np.int32), 2 * len(ports)),
                             np.arange(n + 1, dtype=np.int32)), shape=(T, n))
    batteries = [(k, desd) for k, (_, desd) in enumerate(ports) if desd is not None]
    if not batteries:
        return {"A_ub": None, "b_ub": None, "A_eq": A_eq, "bounds": bounds}

    # every battery's rows share one pattern, shifted to its port's columns
    counts, cols, coef = _soc_pattern(T, refill_terminal)
    drain = np.array([[1.0 / d.kappa * dt, -d.kappa * dt] for _, d in batteries])
    values = np.hstack([drain, -drain])[:, coef]  # one row of values per battery
    first_col = np.array([2 * T * k for k, _ in batteries], dtype=np.int32)
    A_ub = sparse.csr_array(
        (values.ravel(), (cols + first_col[:, None]).ravel(),
         np.concatenate([[0], np.cumsum(np.tile(counts, len(batteries)))]).astype(np.int32)),
        shape=(len(batteries) * counts.size, n))
    b_ub = np.concatenate([np.repeat([d.e0 - d.e_min, d.e_max - d.e0, 0.0],
                                     [T, T, int(refill_terminal)]) for _, d in batteries])
    return {"A_ub": A_ub, "b_ub": b_ub, "A_eq": A_eq, "bounds": bounds}


# scipy's linprog spends a fixed ~0.5 ms on sparse input and ~20 ns per
# matrix entry on dense input; on storage LPs the two cross between 28k
# and 39k dense entries (2-core x86-64, scipy 1.17). HiGHS receives the
# same CSC matrix either way.
_DENSE_INPUT_MAX = 30_000


def _linprog_input(lp):
    """``lp`` as handed to ``linprog``: its matrices dense when they are small."""
    entries = sum(lp[k].shape[0] * lp[k].shape[1] for k in ("A_ub", "A_eq")
                  if lp[k] is not None)
    if entries > _DENSE_INPUT_MAX:
        return lp
    return {k: v.toarray() if sparse.issparse(v) else v for k, v in lp.items()}


def _solve_lp(c, lp, b_eq, what):
    """HiGHS on one storage LP; the answer is checked against its constraints."""
    res = linprog(c, **lp, b_eq=b_eq, method="highs")
    if res.status == 2:
        raise Infeasible(f"{what}: {res.message}")
    if res.status != 0:
        raise SolverStall(f"{what}: {res.message}")
    x = res.x
    resid = float(np.max(np.abs(lp["A_eq"] @ x - b_eq)))
    if resid > FEAS_TOL:
        raise SolverStall(f"{what}: balance residual {resid:g} above {FEAS_TOL:g}")
    lo, hi = lp["bounds"].T
    if np.any(x < lo - FEAS_TOL) or np.any(x > hi + FEAS_TOL):
        raise SolverStall(f"{what}: variable bound violated by more than {FEAS_TOL:g}")
    return x


def _rg_profiles(rg, users, T):
    """Every user's generation profile as a (T,) array, zeros where ``rg`` has none.

    ``rg`` is an RgForecastResult, a plain {user id: profile} dict or None.
    """
    given = rg.profiles if isinstance(rg, RgForecastResult) else (rg or {})
    out = {}
    for u in users:
        prof = given.get(u.id)
        prof = np.zeros(T) if prof is None else np.asarray(prof, dtype=float)
        if prof.shape != (T,):
            raise LengthMismatch(
                f"rg profile of user {u.id}: shape {prof.shape}, expected ({T},)")
        if not np.all(np.isfinite(prof)):
            raise InvariantViolation(f"rg profile of user {u.id}: values must be finite")
        out[u.id] = prof
    return out


def _costed(active, grid_buy, grid_sell, discharge, charge, prices, dt, outer=1):
    """A pooled schedule with its SOC trajectories and true costs."""
    soc, bdc_costs = {}, {}
    for u in active:
        soc[u.id] = soc_trajectory(u.desd, discharge[u.id], charge[u.id], dt)
        bdc_costs[u.id] = bdc_cost(u.desd.bdc, discharge[u.id], charge[u.id],
                                   soc[u.id], u.desd.e_max, dt)
    trade = trading_cost(prices, grid_buy, grid_sell, dt)
    return SocialScheduleOutcome(
        decision=SocialDecision(grid_buy, grid_sell, discharge, charge),
        trading_cost=trade, bdc_costs=bdc_costs,
        social_cost=trade + sum(bdc_costs.values()), soc=soc, outer_iterations=outer,
    )


def _forced_exchange(net, prices, p_g_max, what):
    """Optimal grid buy and sell of users without a battery, in closed form.

    Balance fixes buy - sell = net at every step, so a step costs
    buy * (p_b - p_s) + net * p_s: the least buy the rating allows where
    selling pays less than buying (only the net is traded), the most
    where it pays as much or more (sell all the rating allows).
    """
    if np.any(np.abs(net) > p_g_max):
        raise Infeasible(f"{what}: net demand exceeds the grid rating of {p_g_max:g} kW")
    buy, sell = np.maximum(net, 0.0), np.maximum(-net, 0.0)
    most = prices.sell >= prices.buy
    buy[most] = np.minimum(p_g_max, p_g_max + net[most])
    sell[most] = np.minimum(p_g_max, p_g_max - net[most])
    return buy, sell


def _pooled(users, net, prices, p_g_max, T, dt, refill_terminal, what):
    """Minimum-cost schedule of ``users`` sharing one grid connection.

    ``net`` is their demand minus generation. The grid is the first
    port, each active user's battery the next, in model order. The unit
    degradation costs start from the initial SOC and get re-looked-up on
    the achieved trajectory until the true cost settles. Without a
    battery the LP has a closed-form optimum and HiGHS is not called.
    """
    active = [u for u in users if u.is_active]
    if not active:
        return _costed([], *_forced_exchange(net, prices, p_g_max, what), {}, {}, prices, dt)
    lp = _linprog_input(_storage_lp(
        [(p_g_max, None)] + [(u.desd.p_b_max, u.desd) for u in active], T, dt, refill_terminal))
    unit = {u.id: np.full(T, float(u.desd.bdc.unit_cost(u.desd.e0 / u.desd.e_max)))
            for u in active}
    all_constant = all(isinstance(u.desd.bdc, ConstantBdc) for u in active)

    prev_cost = None
    best = None
    for outer in range(1, MAX_OUTER + 1):
        c = np.concatenate(
            [prices.buy * dt, -prices.sell * dt]
            + [np.concatenate([unit[u.id], unit[u.id]]) * dt for u in active]
        )
        x = _solve_lp(c, lp, net, what)

        dc = x[2 * T:].reshape(len(active), 2, T)  # (discharge, charge) per battery
        out = _costed(active, x[:T], x[T:2 * T], {u.id: d for u, (d, _) in zip(active, dc)},
                      {u.id: ch for u, (_, ch) in zip(active, dc)}, prices, dt, outer)
        if any(np.any(out.soc[u.id] < u.desd.e_min - FEAS_TOL)
               or np.any(out.soc[u.id] > u.desd.e_max + FEAS_TOL) for u in active):
            raise SolverStall(f"{what}: SOC left its bounds")
        cost = out.social_cost

        # every iterate is feasible and costed under the true step
        # costs, so the best one is always a valid answer even when
        # the linearization cycles instead of settling
        if best is None or cost < best.social_cost:
            best = out
        if all_constant or (prev_cost is not None
                            and abs(cost - prev_cost) < CONVERGED_DELTA_CENTS):
            return best
        prev_cost = cost
        unit = {u.id: np.asarray(u.desd.bdc.unit_cost(out.soc[u.id] / u.desd.e_max),
                                 dtype=float)
                for u in active}
    return best


def solve_social(model, rg=None, *, refill_terminal=False):
    """Pooled minimum-cost schedule for the whole microgrid.

    ``rg`` maps user ids to predicted generation profiles (RgForecastResult
    or plain dict); users without an entry contribute no generation.
    Returns the cooperative cost split into grid trading and per-user
    degradation, J_soc being their sum.
    """
    model = validate_model(model)
    T, dt = int(model.horizon.steps), float(model.horizon.dt)
    net = model.demands.sum(axis=0).astype(float).copy()
    for prof in _rg_profiles(rg, model.users, T).values():
        net -= prof
    return _pooled(model.users, net, model.prices, model.grid.p_g_max, T, dt,
                   refill_terminal, "social schedule")


def solve_individual(user, demand, prices, grid, horizon, rg_profile=None,
                     *, refill_terminal=False):
    """Minimum-cost schedule for one user facing the tariff alone.

    This is the pooled problem with the user as its only member. A
    passive user reduces to the forced exchange of its net demand. The
    returned ``cost`` is the user's ideal cost D_i (trading plus
    degradation); negative values are net profit from exports.
    """
    T, dt = int(horizon.steps), float(horizon.dt)
    net = (np.asarray(demand, dtype=float)
           - _rg_profiles({user.id: rg_profile}, [user], T)[user.id])
    out = _pooled([user], net, prices, grid.p_g_max, T, dt, refill_terminal,
                  f"individual schedule ({user.id})")
    dec = out.decision
    return IndividualOutcome(
        decision=IndividualDecision(dec.grid_buy, dec.grid_sell,
                                    dec.discharge.get(user.id), dec.charge.get(user.id)),
        trading_cost=out.trading_cost, bdc_cost=out.bdc_costs.get(user.id, 0.0),
        cost=out.social_cost, soc=out.soc.get(user.id),
    )


def individual_costs(model, rg=None, *, refill_terminal=False):
    """solve_individual for every user; returns {user_id: IndividualOutcome}."""
    model = validate_model(model)
    profiles = _rg_profiles(rg, model.users, int(model.horizon.steps))
    return {u.id: solve_individual(u, model.demands[k], model.prices, model.grid,
                                   model.horizon, rg_profile=profiles[u.id],
                                   refill_terminal=refill_terminal)
            for k, u in enumerate(model.users)}
