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
cost this is a linear program; a SOC-dependent degradation cost is
handled by successive linearization: solve with the cost profile looked
up on the previous SOC trajectory, re-lookup, repeat until the true
cost moves less than CONVERGED_DELTA_CENTS or the re-looked-up profile
is one already solved (at most MAX_OUTER linearizations). The lookup is
a step function and every solve deterministic, so a repeated profile
would only replay iterates already costed; the best iterate, the first
strict minimum, is returned.

The number of batteries in the program picks the solver:

* none: balance forces the grid exchange, and the cheapest one has a
  closed form (``_forced_exchange``);
* one (every solo schedule, and every program of the distributed
  solver): ``_storage_dp``, an exact backward DP over the convex
  piecewise-linear value of stored energy, whose steps only this module
  builds. ``_battery_and_grid`` builds each step's battery-plus-grid
  cost with array operations: solo schedules, the distributed
  rebalance, and its cleanup with the grid rated 0 kW.
  ``_priced_battery`` is one battery trading at a price both ways: the
  distributed local step, and each user's term of ``_dual_value``, the
  distributed certificate's lower bound. On equal slopes the DP ends
  the hour at the higher state of charge;
* two or more: HiGHS, on the LP that ``_storage_lp`` lays out from an
  ordered list of ports: the grid, then each battery. Each battery's
  state of charge is a column per step, tied to the previous step's by
  an equality row, so the LP has equality rows only and its sparse
  matrix, built once per run straight from index arrays, holds O(T)
  nonzeros per battery. scipy is imported on the first such program,
  so the other two cases, and every distributed run, never load it.

Costs are comparable across solvers; decisions are reported but two
optimal schedules may differ wherever the optimum is degenerate.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .errors import Infeasible, InvariantViolation, LengthMismatch, SolverStall
from .model import soc_trajectory, validate_model
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
    outer_iterations: int = 1  # linearizations solved; constant costs take 1


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


def _storage_lp(ports, T, dt):
    """One storage LP over an ordered list of ports, equality rows only.

    A port is (cap, desd): T columns of power into the bus, then T of
    power out of it, each in [0, cap]. The grid is a port without a
    device (buy, sell); a battery is one with its DesdParams (discharge,
    charge). After all port columns, each battery keeps its state: T
    columns E_t in [e_min, e_max], the energy after step t. The first T
    rows balance the bus; ``_lp_keywords`` fills in their right-hand
    side. Then each battery has T rows,
    E_t - E_{t-1} + (discharge_t/kappa - kappa*charge_t)*dt = 0 with
    E_0 = e0 on the right-hand side. The matrix is sparse: one entry per
    port column and 4T - 1 more per battery.
    """
    from scipy import sparse

    batteries = [(k, d) for k, (_, d) in enumerate(ports) if d is not None]
    n_ports, t = 2 * T * len(ports), np.arange(T)
    rows, cols = [np.tile(t, 2 * len(ports))], [np.arange(n_ports)]
    vals = [np.tile(np.repeat([1.0, -1.0], T), len(ports))]
    b_eq = np.zeros(T * (len(batteries) + 1))
    bounds = np.zeros((n_ports + T * len(batteries), 2))
    bounds[:n_ports, 1] = np.repeat([float(cap) for cap, _ in ports], 2 * T)
    for b, (k, d) in enumerate(batteries):
        soc, energy = T * (b + 1) + t, n_ports + T * b + t  # its rows, its E columns
        rows += [soc, soc, soc, soc[1:]]
        cols += [2 * T * k + t, 2 * T * k + T + t, energy, energy[:-1]]
        vals += [np.full(T, 1.0 / d.kappa * dt), np.full(T, -d.kappa * dt),
                 np.ones(T), -np.ones(T - 1)]
        b_eq[soc[0]] = d.e0
        bounds[energy] = d.e_min, d.e_max
    A_eq = sparse.csc_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                            shape=(b_eq.size, bounds.shape[0]))
    return {"A_eq": A_eq, "b_eq": b_eq, "bounds": bounds, "T": T}


def _lp_keywords(lp, c, bus):
    """``linprog`` keywords for ``lp`` with port costs ``c`` and bus balance ``bus``.

    The energy columns cost nothing; ``bus`` is the right-hand side of
    the first T rows.
    """
    b_eq = lp["b_eq"].copy()
    b_eq[:lp["T"]] = bus
    c = np.concatenate([c, np.zeros(lp["bounds"].shape[0] - len(c))])
    return {"c": c, "A_eq": lp["A_eq"], "b_eq": b_eq, "bounds": lp["bounds"]}


def linprog(*args, **kwargs):
    """scipy's ``linprog``, imported on the first call.

    Only programs with two or more batteries reach HiGHS, and importing
    ``scipy.optimize`` takes longer than a whole distributed run.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _solve_lp(c, lp, bus, what):
    """HiGHS on one storage LP; the answer is checked against its constraints."""
    kw = _lp_keywords(lp, c, bus)
    res = linprog(**kw, method="highs")
    if res.status == 2:
        raise Infeasible(f"{what}: {res.message}")
    if res.status != 0:
        raise SolverStall(f"{what}: {res.message}")
    x = res.x
    resid = float(np.max(np.abs(kw["A_eq"] @ x - kw["b_eq"])))
    if resid > FEAS_TOL:
        raise SolverStall(f"{what}: equality residual {resid:g} above {FEAS_TOL:g}")
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


def _costed(active, grid_buy, grid_sell, discharge, charge, prices, dt):
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
        social_cost=trade + sum(bdc_costs.values()), soc=soc,
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


# Who owns a segment of a merged slope list: the value function, or the
# step, which then drains more or fills less.
_W, _DRAIN, _FILL = 0, 1, 2
# kWh by which a domain may come up short before the DP calls the
# program infeasible; the merge's rounding stays far below it.
_DP_TOL = 1e-9
# Relative sale past the grid rating that ``_battery_and_grid`` leaves
# unburnt: the rounding of a SOC drop, which burning would magnify by
# 1 / (1 / kappa - kappa), 4.5e15 at kappa one ulp below 1.
_BURN_TOL = 1e-12


def _storage_dp(steps, span, start):
    """Exact single-battery program in energy units, by a backward DP.

    The state is the SOC offset above e_min, kept in [0, span]; it
    starts at ``start``. Step t lowers it by v_t at a cost h_t(v_t),
    convex piecewise-linear, given as (lo, h_t(lo), segments): v_t >=
    lo, and a segment (slope, length, tag) raises v_t by ``length`` at
    ``slope`` per kWh. A segment
    tagged _FILL lies left of v = 0 (the step fills less), one tagged
    _DRAIN right of it (drains more); the domain need not contain 0.
    Segments are sorted in one at a time, so a list out of slope order
    stands for its convex envelope, the LP value when filling and
    draining may run at once.

    The value function W_t of the SOC offset is held as the left end of
    its domain, the value there and (slope, length) segments sorted by
    slope. W_{t-1}, the infimal convolution h_t [] W_t cut back to
    [0, span], is a merge of two sorted segment lists.

    Tie rule: on equal slopes the W_t segment comes first, so the hour
    ends at the higher SOC; equal step segments keep their order. The
    distributed solver's round counts depend on which of several
    optimal schedules a solve returns.

    Returns W_0(start) and the per-step drain and fill (v_t = drain -
    fill) of one optimal schedule; all three are None when no schedule
    is feasible.
    """
    slopes, lens, tags = [0.0], [span], [_W]
    w_lo, w_hi = 0.0, span
    val = 0.0
    merged = []
    for lo, h_lo, segs in reversed(steps):
        for slope, length, tag in segs:
            i = bisect_right(slopes, slope)
            slopes.insert(i, slope)
            lens.insert(i, length)
            tags.insert(i, tag)
        left = w_lo + lo
        merged.append((left, lo, w_lo, w_hi, lens, tags))
        # The merge starts at offset ``left``, with the step at lo and
        # W_t at the left end of its domain; drop what lies below 0 and
        # keep what lies below span.
        val += h_lo
        skip = -left if left < 0.0 else 0.0
        w_lo = left if left > 0.0 else 0.0
        keep = span - w_lo
        if keep < 0.0:
            if keep < -_DP_TOL:
                return None, None, None
            w_lo, keep = span, 0.0
        new_s, new_l = [], []
        for slope, length in zip(slopes, lens):
            if skip > 0.0:
                if length <= skip:
                    val += slope * length
                    skip -= length
                    continue
                val += slope * skip
                length -= skip
                skip = 0.0
            if length >= keep:
                new_s.append(slope)
                new_l.append(keep)
                keep = 0.0
                break
            new_s.append(slope)
            new_l.append(length)
            keep -= length
        if skip > _DP_TOL:
            return None, None, None
        w_hi = span - keep
        slopes, lens, tags = new_s, new_l, [_W] * len(new_s)

    pos = start - w_lo
    if pos < -_DP_TOL or start > w_hi + _DP_TOL:
        return None, None, None
    for slope, length in zip(slopes, lens):
        if length >= pos:
            val += slope * pos
            break
        val += slope * length
        pos -= length

    # Forward pass: walking a merged list up to the current SOC splits
    # that point between this hour (h segments) and the rest (W).
    drain, fill = [], []
    soc = start
    for left, lo, w_lo, w_hi, lens_t, tags_t in reversed(merged):
        pos = soc - left
        x = lo if lo > 0.0 else 0.0
        used_fill = 0.0
        for length, tag in zip(lens_t, tags_t):
            take = length if length < pos else pos
            if tag == _DRAIN:
                x += take
            elif tag == _FILL:
                used_fill += take
            pos -= take
            if pos <= 0.0:
                break
        y = (-lo if lo < 0.0 else 0.0) - used_fill
        drain.append(x)
        fill.append(y)
        soc = min(max(soc - x + y, w_lo), w_hi)
    return val, drain, fill


def _battery_and_grid(desd, unit, buy, sell, net, p_g_max, dt):
    """One battery and the grid covering ``net`` at least cost, by ``_storage_dp``.

    In energy units a step drains x in [0, X], fills y in [0, Y] and
    buys e = a - kappa x + y / kappa from the grid, where a = net dt and
    |e| <= G = p_g_max dt; it pays c (kappa x + y / kappa) at the unit
    degradation cost c plus p e, p being the grid's marginal price:
    max(buy, sell) where it buys, min(buy, sell) where it sells (at
    sell >= buy it trades its full rating both ways, a constant
    min(0, buy - sell) G). Its cost h(v) as a function of the SOC drop
    v = x - y therefore has slope -(c + p) / kappa while filling and
    kappa (c - p) while draining, with kinks at v = 0 and where the
    battery meets the net load (e = 0). Where the grid is at -G, any
    further v needs kappa < 1: filling and draining at once burns the
    surplus, at 2 c / (1 / kappa - kappa) per kWh of v. The grid's
    rating and the battery's cut the domain. Unit costs and prices
    must be >= 0, as a validated model has them: then no schedule burns
    energy it could sell. With the grid rated 0 kW the battery covers
    ``net`` alone, which is the distributed solver's cleanup at fixed
    net injection: each step takes its least SOC drop, and any drop past
    it is the burn ray.

    Returns the battery's discharge and charge of an optimal schedule,
    or None when no schedule is feasible.
    """
    kappa = desd.kappa
    rho = 1.0 / kappa - kappa  # surplus burnt per kWh filled and drained at once
    X, Y = desd.p_b_max * dt / kappa, kappa * desd.p_b_max * dt
    c = np.asarray(unit, dtype=float)
    a, G = np.asarray(net, dtype=float) * dt, p_g_max * dt
    p_hi, p_lo = np.maximum(buy, sell), np.minimum(buy, sell)

    def burn(v):  # the least fill y that keeps the grid's sale within G at drop v
        y = np.maximum(-v, 0.0)
        if rho == 0.0:
            return y
        past = -G - (a - kappa * v + rho * y)  # kWh sold past G without burning
        return np.where(past > _BURN_TOL * (1.0 + G + np.abs(a)), y + past / rho, y)

    def at(r):  # the drop v without burning at which the grid buys a - r
        return np.where(r < 0.0, kappa * r, r / kappa)

    zero, sells_max = at(a), at(a + G)
    lo = np.maximum(-Y, at(a - G))
    hi = np.minimum(X, np.minimum(kappa * (X * rho + a + G), (Y * rho + a + G) / kappa))
    if np.any(lo > hi + _DP_TOL):
        return None
    hi = np.maximum(hi, lo)
    y_lo = burn(lo)
    x_lo = lo + y_lo
    e_lo = a - kappa * x_lo + y_lo / kappa
    h_lo = (c * (kappa * x_lo + y_lo / kappa) + np.minimum(0.0, buy - sell) * G
            + np.where(e_lo > 0.0, p_hi, p_lo) * e_lo)

    ends = np.sort(np.column_stack([lo, np.clip(0.0, lo, hi), np.clip(zero, lo, hi),
                                    np.clip(sells_max, lo, hi), hi]), axis=1)
    length = np.diff(ends, axis=1)
    mid = 0.5 * (ends[:, :-1] + ends[:, 1:])
    c, p = c[:, None], np.where(mid < zero[:, None], p_hi[:, None], p_lo[:, None])
    slope = np.where(mid < 0.0, -(c + p) / kappa, kappa * (c - p))
    if rho > 0.0:
        slope = np.where(mid > sells_max[:, None], (2.0 / rho) * c, slope)
    tag = np.where(mid < 0.0, _FILL, _DRAIN)
    steps = [(l0, h0, [seg for seg in zip(s, n, g) if seg[1] > 0.0])
             for l0, h0, s, n, g in zip(lo.tolist(), h_lo.tolist(), slope.tolist(),
                                        length.tolist(), tag.tolist())]

    val, drain, fill = _storage_dp(steps, desd.e_max - desd.e_min, desd.e0 - desd.e_min)
    if val is None:
        return None
    v = np.array(drain) - np.array(fill)
    y = burn(v)
    return (v + y) * (kappa / dt), y / (kappa * dt)


def _priced_battery(desd, unit, lam, dt):
    """One battery trading at price ``lam`` both ways, by ``_storage_dp``.

    min sum_t ((c - lam) discharge + (c + lam) charge) dt over the SOC
    polytope, c the unit degradation cost; in energy units a step fills
    less at -(c + lam) / kappa per kWh (up to kappa p_b_max dt) and
    drains more at kappa (c - lam) (up to p_b_max dt / kappa). It is the
    distributed solver's local step and one user's term of
    ``_dual_value``. Returns the optimal value and the (discharge,
    charge) attaining it.
    """
    kappa = desd.kappa
    X, Y = desd.p_b_max * dt / kappa, kappa * desd.p_b_max * dt
    alpha, beta = (unit - lam) * kappa, (unit + lam) / kappa
    if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))):
        raise SolverStall("local storage step: non-finite cost or price")
    steps = [(-Y, b * Y, ((-b, Y, _FILL), (a, X, _DRAIN)))
             for a, b in zip(alpha.tolist(), beta.tolist())]
    v, x, y = _storage_dp(steps, desd.e_max - desd.e_min, desd.e0 - desd.e_min)
    return v, np.array(x) * (kappa / dt), np.array(y) / (kappa * dt)


def _dual_value(lam, net, prices, p_g_max, users, units, dt):
    """Lower bound q(lam) on the pooled cost at a common price vector lam.

    Relaxing power balance at price lam splits the pooled program: the
    grid trades at its rating wherever lam beats the tariff, and each
    of ``users`` (active, with unit costs ``units[id]``) runs
    ``_priced_battery``. Returns q and the users' net injection
    (discharge - charge) at it.
    """
    q = float(np.sum(lam * net) * dt)
    q += float(np.sum(np.minimum(0.0, prices.buy - lam) * p_g_max * dt))
    q += float(np.sum(np.minimum(0.0, lam - prices.sell) * p_g_max * dt))
    inj = np.zeros(len(lam))
    for u in users:
        v, d, c = _priced_battery(u.desd, units[u.id], lam, dt)
        q += v
        inj += d - c
    return q, inj


def _pooled(users, net, prices, p_g_max, T, dt, what):
    """Minimum-cost schedule of ``users`` sharing one grid connection.

    ``net`` is their demand minus generation. The unit degradation
    costs start from the initial SOC and get re-looked-up on the
    achieved trajectory until the true cost settles or the profile
    repeats one already solved. Without a battery
    the program has a closed-form optimum; with one it is solved exactly
    by ``_battery_and_grid``; only two or more batteries go to HiGHS,
    with the grid as the first port and each battery the next, in model
    order.
    """
    active = [u for u in users if u.is_active]
    if not active:
        return _costed([], *_forced_exchange(net, prices, p_g_max, what), {}, {}, prices, dt)
    if len(active) == 1:
        (user,) = active

        def solve(unit):
            sched = _battery_and_grid(user.desd, unit[user.id], prices.buy, prices.sell, net,
                                      p_g_max, dt)
            if sched is None:
                raise Infeasible(f"{what}: no schedule meets the net demand within the "
                                 "battery and grid ratings")
            discharge, charge = sched
            grid = np.clip(net - (discharge - charge), -p_g_max, p_g_max)
            return (*_forced_exchange(grid, prices, p_g_max, what),
                    {user.id: discharge}, {user.id: charge})
    else:
        lp = _storage_lp([(p_g_max, None)] + [(u.desd.p_b_max, u.desd) for u in active], T, dt)

        def solve(unit):
            c = np.concatenate(
                [prices.buy * dt, -prices.sell * dt]
                + [np.concatenate([unit[u.id], unit[u.id]]) * dt for u in active]
            )
            x = _solve_lp(c, lp, net, what)
            dc = x[2 * T:2 * T * (len(active) + 1)].reshape(len(active), 2, T)
            return (x[:T], x[T:2 * T], {u.id: d for u, (d, _) in zip(active, dc)},
                    {u.id: ch for u, (_, ch) in zip(active, dc)})

    unit = {u.id: np.full(T, float(u.desd.bdc.unit_cost(u.desd.e0 / u.desd.e_max)))
            for u in active}
    solved = set()  # the unit-cost profiles solved so far, bitwise
    prev_cost = None
    best = None
    for outer in range(1, MAX_OUTER + 1):
        solved.add(tuple(unit[u.id].tobytes() for u in active))
        out = _costed(active, *solve(unit), prices, dt)
        if any(np.any(out.soc[u.id] < u.desd.e_min - FEAS_TOL)
               or np.any(out.soc[u.id] > u.desd.e_max + FEAS_TOL) for u in active):
            raise SolverStall(f"{what}: SOC left its bounds")
        cost = out.social_cost

        # every iterate is feasible and costed under the true step
        # costs, so the best one is always a valid answer even when
        # the linearization cycles instead of settling
        if best is None or cost < best.social_cost:
            best = out
        if prev_cost is not None and abs(cost - prev_cost) < CONVERGED_DELTA_CENTS:
            break
        prev_cost = cost
        unit = {u.id: np.asarray(u.desd.bdc.unit_cost(out.soc[u.id] / u.desd.e_max),
                                 dtype=float)
                for u in active}
        # a profile solved before replays iterates already costed, so
        # the best one cannot change
        if tuple(unit[u.id].tobytes() for u in active) in solved:
            break
    return replace(best, outer_iterations=outer)


def solve_social(model, rg=None):
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
                   "social schedule")


def solve_individual(user, demand, prices, grid, horizon, rg_profile=None):
    """Minimum-cost schedule for one user facing the tariff alone.

    This is the pooled problem with the user as its only member. A
    passive user reduces to the forced exchange of its net demand. The
    returned ``cost`` is the user's ideal cost D_i (trading plus
    degradation); negative values are net profit from exports.
    """
    T, dt = int(horizon.steps), float(horizon.dt)
    net = (np.asarray(demand, dtype=float)
           - _rg_profiles({user.id: rg_profile}, [user], T)[user.id])
    out = _pooled([user], net, prices, grid.p_g_max, T, dt,
                  f"individual schedule ({user.id})")
    dec = out.decision
    return IndividualOutcome(
        decision=IndividualDecision(dec.grid_buy, dec.grid_sell,
                                    dec.discharge.get(user.id), dec.charge.get(user.id)),
        trading_cost=out.trading_cost, bdc_cost=out.bdc_costs.get(user.id, 0.0),
        cost=out.social_cost, soc=out.soc.get(user.id),
    )


def individual_costs(model, rg=None):
    """solve_individual for every user; returns {user_id: IndividualOutcome}."""
    model = validate_model(model)
    profiles = _rg_profiles(rg, model.users, int(model.horizon.steps))
    return {u.id: solve_individual(u, model.demands[k], model.prices, model.grid,
                                   model.horizon, rg_profile=profiles[u.id])
            for k, u in enumerate(model.users)}
