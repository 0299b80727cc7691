"""Reference layouts shared by the test modules.

``cumulative_storage_lp`` is the storage LP as the package built it
before each battery's state of charge became a column: every SOC bound
is a cumulative sum over the earlier steps. It stays here, verbatim, as
an independent oracle for the state-form builder and the storage DP.

``two_segment_storage_dp`` is the storage DP as the package had it
before each step's cost became any convex piecewise-linear function: a
fill and a drain segment per step, its value function starting at 0.
It stays here, verbatim but for its name, as the oracle that the
general DP's local step must reproduce bit for bit.

``relinearize_every_pass`` is ``scheduling._pooled`` as the package had
it before the successive linearization stopped at the first repeated
unit-cost profile: it re-solves until the true cost settles or
MAX_OUTER passes are spent. It stays here, verbatim but for its name
and the options the package no longer takes, as the oracle whose
schedules, SOC paths and costs the shipped loop must return bit for
bit.

``cleanup_lp`` is the distributed solver's cleanup pass as the package
ran it before it became the battery-and-grid DP with the grid rated
0 kW: HiGHS on ``_storage_lp`` over the one port [battery], each kW of
throughput at the unit cost plus 1e-9, the bus held at the net
injection. It stays here as the oracle for ``_UserLocal.min_throughput``,
at HiGHS tolerances of 1e-10: at the default 1e-7 it leaves a net
injection of a few nW uncovered.
"""

from bisect import bisect_right
from dataclasses import replace

import numpy as np
from scipy.optimize import linprog

from gridbargain.errors import Infeasible, SolverStall
from gridbargain.model import ConstantBdc
from gridbargain.scheduling import (CONVERGED_DELTA_CENTS, FEAS_TOL, MAX_OUTER,
                                    _battery_and_grid, _costed, _forced_exchange,
                                    _linprog_input, _lp_keywords, _solve_lp, _storage_lp)


def cumulative_storage_lp(ports, T, dt, refill_terminal):
    """The storage LP laid out densely: a lower-triangular block per battery."""
    n = 2 * T * len(ports)
    L = np.tril(np.ones((T, T)))
    blocks, rhs = [], []
    for k, (_, desd) in enumerate(ports):
        if desd is None:
            continue
        drain = np.hstack([L / desd.kappa, -desd.kappa * L]) * dt
        rows = np.vstack([drain, -drain] + ([drain[-1:]] if refill_terminal else []))
        block = np.zeros((rows.shape[0], n))
        block[:, 2 * T * k:2 * T * (k + 1)] = rows
        blocks.append(block)
        rhs += [np.full(T, desd.e0 - desd.e_min), np.full(T, desd.e_max - desd.e0)]
        rhs += [np.zeros(1)] if refill_terminal else []
    return (np.vstack(blocks) if blocks else None, np.concatenate(rhs) if rhs else None,
            np.hstack([np.eye(T), -np.eye(T)] * len(ports)))


_W, _DRAIN, _FILL = 0, 1, 2  # who owns a segment of a merged slope list


def two_segment_storage_dp(alpha, beta, X, Y, span, start, recover):
    """Exact single-battery program in energy units, by a backward DP.

    Per step t: drain x_t in [0, X] at alpha_t per kWh, fill y_t in
    [0, Y] at beta_t per kWh, with the SOC offset above e_min kept in
    [0, span] and starting at ``start``. The value function W_t of the
    SOC offset is convex piecewise-linear, held as a value at 0 plus
    (slope, length) segments sorted by slope. One step costs
    h_t(v), v = x - y in [-Y, X]: two segments, fill less (-beta, Y)
    and drain more (alpha, X), which sorting also makes convex when
    alpha + beta < 0. So W_{t-1}, the infimal convolution h_t [] W_t
    cut back to [0, span], is a merge of two sorted segment lists.

    Tie rule: on equal slopes the W_t segment comes first, so the hour
    ends at the higher SOC. The distributed solver's round counts
    depend on which of several optimal schedules a solve returns.

    Returns W_0(start) and, with ``recover``, the per-step drain and
    fill of one optimal schedule (None otherwise).
    """
    slopes, lens, tags = [0.0], [span], [_W]
    val = 0.0
    merged = []
    for a, b in zip(reversed(alpha), reversed(beta)):
        for slope, length, tag in ((-b, Y, _FILL), (a, X, _DRAIN)):
            i = bisect_right(slopes, slope)
            slopes.insert(i, slope)
            lens.insert(i, length)
            tags.insert(i, tag)
        if recover:
            merged.append((lens, tags))
        # The merge starts at offset -Y with every hour filling fully;
        # drop that first Y and keep the next span.
        val += b * Y
        skip, keep = Y, span
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
                break
            new_s.append(slope)
            new_l.append(length)
            keep -= length
        slopes, lens, tags = new_s, new_l, [_W] * len(new_s)

    pos = start
    for slope, length in zip(slopes, lens):
        if length >= pos:
            val += slope * pos
            break
        val += slope * length
        pos -= length
    if not recover:
        return val, None, None

    # Forward pass: walking a merged list up to the current SOC splits
    # that point between this hour (h segments) and the rest (W).
    drain, fill = [], []
    soc = start
    for lens_t, tags_t in reversed(merged):
        pos = soc + Y
        x = used_fill = 0.0
        for length, tag in zip(lens_t, tags_t):
            take = length if length < pos else pos
            if tag == _DRAIN:
                x += take
            elif tag == _FILL:
                used_fill += take
            pos -= take
            if pos <= 0.0:
                break
        y = Y - used_fill
        drain.append(x)
        fill.append(y)
        soc = min(max(soc - x + y, 0.0), span)
    return val, drain, fill


def relinearize_every_pass(users, net, prices, p_g_max, T, dt, what):
    """Minimum-cost schedule of ``users`` sharing one grid connection.

    ``net`` is their demand minus generation. The unit degradation
    costs start from the initial SOC and get re-looked-up on the
    achieved trajectory until the true cost settles. Without a battery
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
        lp = _linprog_input(_storage_lp(
            [(p_g_max, None)] + [(u.desd.p_b_max, u.desd) for u in active],
            T, dt))

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
    all_constant = all(isinstance(u.desd.bdc, ConstantBdc) for u in active)

    prev_cost = None
    best = None
    for outer in range(1, MAX_OUTER + 1):
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
        if all_constant or (prev_cost is not None
                            and abs(cost - prev_cost) < CONVERGED_DELTA_CENTS):
            break
        prev_cost = cost
        unit = {u.id: np.asarray(u.desd.bdc.unit_cost(out.soc[u.id] / u.desd.e_max),
                                 dtype=float)
                for u in active}
    return replace(best, outer_iterations=outer)


def cleanup_lp(desd, T, dt, unit_cost, net):
    """Cheapest schedule with the given net injection, by HiGHS."""
    lp = _linprog_input(_storage_lp([(desd.p_b_max, desd)], T, dt))
    c = np.concatenate([unit_cost, unit_cost]) + 1e-9  # break zero-cost ties
    res = linprog(**_lp_keywords(lp, c, net), method="highs",
                  options={"dual_feasibility_tolerance": 1e-10,
                           "primal_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise SolverStall(f"cleanup pass failed: {res.message}")
    return res.x[:T], res.x[T:2 * T]
