"""Microgrid data model.

Units are fixed package-wide: power in kW, energy in kWh, money in cents,
time in hours. A model describes one day-ahead horizon for r users plus
the utility grid. Users are passive (demand only) or active (demand plus
a distributed energy storage device, optionally a renewable generator).

Models are plain frozen dataclasses. ``validate_model`` checks every
structural invariant, fills defaults (grid limit, communication graph)
and returns the validated instance; validation is idempotent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import graphs
from .errors import InvariantViolation

__all__ = [
    "Horizon",
    "PriceProfile",
    "ConstantBdc",
    "PiecewiseSocBdc",
    "DesdParams",
    "Pv",
    "Wt",
    "UserSpec",
    "GridLimits",
    "MicrogridModel",
    "validate_model",
    "model_violations",
    "soc_trajectory",
    "default_grid_limit",
]


def _freeze(a):
    """Copy to a float array and make it read-only."""
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Horizon:
    """Uniform scheduling grid: ``steps`` intervals of ``dt`` hours."""

    steps: int
    dt: float = 1.0


@dataclass(frozen=True)
class PriceProfile:
    """Utility buying/selling prices in cents per kWh, one entry per step.

    ``buy`` is what users pay the grid, ``sell`` is what the grid pays
    users for exported power.
    """

    buy: np.ndarray
    sell: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "buy", _freeze(self.buy))
        object.__setattr__(self, "sell", _freeze(self.sell))


@dataclass(frozen=True)
class ConstantBdc:
    """Flat battery degradation cost: ``c_d`` cents per kWh of throughput."""

    c_d: float

    def unit_cost(self, soc_frac):
        return np.full_like(np.asarray(soc_frac, dtype=float), self.c_d)


@dataclass(frozen=True)
class PiecewiseSocBdc:
    """Degradation cost as a step function of the state-of-charge fraction.

    ``breakpoints`` is a list of (soc fraction, cents per kWh) pairs with
    strictly increasing fractions starting at 0.0; the cost between
    breakpoints is the value at the last breakpoint at or below the
    operating point (table lookup).
    """

    breakpoints: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "breakpoints", tuple((float(s), float(c)) for s, c in self.breakpoints)
        )

    def unit_cost(self, soc_frac):
        fracs = np.array([s for s, _ in self.breakpoints])
        costs = np.array([c for _, c in self.breakpoints])
        s = np.clip(np.asarray(soc_frac, dtype=float), 0.0, 1.0)
        idx = np.searchsorted(fracs, s, side="right") - 1
        return costs[np.clip(idx, 0, len(costs) - 1)]


@dataclass(frozen=True)
class DesdParams:
    """Storage device parameters.

    e0/e_min/e_max in kWh, p_b_max (charge and discharge rating) in kW,
    kappa the one-way conversion efficiency in (0, 1], bdc the
    degradation cost model applied to throughput.
    """

    e0: float
    e_min: float
    e_max: float
    p_b_max: float
    kappa: float = 1.0
    bdc: ConstantBdc | PiecewiseSocBdc = ConstantBdc(0.0)


@dataclass(frozen=True)
class Pv:
    """Photovoltaic unit of the given rated size in kW."""

    size_kw: float


@dataclass(frozen=True)
class Wt:
    """Wind turbine of the given rated size in kW."""

    size_kw: float


@dataclass(frozen=True)
class UserSpec:
    """One microgrid user.

    Passive users have neither storage nor generation (desd is None,
    rg is None); active users own a storage device and optionally a
    renewable generator.
    """

    id: str
    desd: DesdParams | None = None
    rg: Pv | Wt | None = None

    @property
    def is_active(self):
        return self.desd is not None


@dataclass(frozen=True)
class GridLimits:
    """Point-of-coupling rating: grid import and export each in [0, p_g_max] kW."""

    p_g_max: float


@dataclass(frozen=True)
class MicrogridModel:
    """A complete instance: horizon, users, per-user demand, prices, grid, graph.

    ``demands`` has one row per user (kW per step). ``graph`` is an edge
    list over r+1 nodes, users 0..r-1 in list order and the grid agent at
    index r; None selects a ring. ``grid`` None selects a limit of 10x
    the peak aggregate demand.
    """

    horizon: Horizon
    users: tuple
    demands: np.ndarray
    prices: PriceProfile
    grid: GridLimits | None = None
    graph: tuple | None = None
    _validated: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "users", tuple(self.users))
        object.__setattr__(self, "demands", _freeze(np.atleast_2d(self.demands)))
        if self.graph is not None:
            object.__setattr__(self, "graph", tuple(tuple(e) for e in self.graph))

    @property
    def n_users(self):
        return len(self.users)

    @property
    def user_ids(self):
        return tuple(u.id for u in self.users)

    def user_index(self, user_id):
        return self.user_ids.index(user_id)


def default_grid_limit(demands):
    """Default point-of-coupling rating: 10x the peak aggregate demand."""
    return GridLimits(p_g_max=10.0 * float(np.max(np.sum(np.atleast_2d(demands), axis=0))))


def _desd_violations(uid, d):
    out = []
    if not (0.0 <= d.e_min <= d.e0 <= d.e_max < np.inf):
        out.append(f"user {uid}: need 0 <= e_min <= e0 <= e_max < inf, got "
                   f"({d.e_min}, {d.e0}, {d.e_max})")
    if not (0.0 < d.kappa <= 1.0):
        out.append(f"user {uid}: kappa must be in (0, 1], got {d.kappa}")
    if not 0.0 < d.p_b_max < np.inf:
        out.append(f"user {uid}: p_b_max must be finite and > 0, got {d.p_b_max}")
    bdc = d.bdc
    if isinstance(bdc, ConstantBdc):
        if not 0.0 <= bdc.c_d < np.inf:
            out.append(f"user {uid}: bdc unit cost must be finite and >= 0, got {bdc.c_d}")
    elif isinstance(bdc, PiecewiseSocBdc):
        bps = bdc.breakpoints
        if not bps:
            out.append(f"user {uid}: bdc breakpoints empty")
        else:
            fracs = [s for s, _ in bps]
            if fracs[0] != 0.0:
                out.append(f"user {uid}: first bdc breakpoint must sit at soc 0.0")
            if any(b <= a for a, b in zip(fracs, fracs[1:])):
                out.append(f"user {uid}: bdc breakpoint fractions must strictly increase")
            if any(not (0.0 <= s <= 1.0) for s in fracs):
                out.append(f"user {uid}: bdc breakpoint fractions must lie in [0, 1]")
            if any(not 0.0 <= c < np.inf for _, c in bps):
                out.append(f"user {uid}: bdc breakpoint costs must be finite and >= 0")
    else:
        out.append(f"user {uid}: unknown bdc model {type(bdc).__name__}")
    return out


def model_violations(model):
    """All structural invariant violations of a model, as strings.

    Does not check graph connectivity (see validate_model) and does not
    warn about price inversion.
    """
    v = []
    h = model.horizon
    if int(h.steps) < 1:
        v.append(f"horizon: steps must be >= 1, got {h.steps}")
    if not 0.0 < h.dt < np.inf:
        v.append(f"horizon: dt must be finite and > 0, got {h.dt}")
    T = int(h.steps)

    r = model.n_users
    if r < 1:
        v.append("users: need at least one user")
    ids = [u.id for u in model.users]
    if len(set(ids)) != len(ids):
        v.append("users: ids must be unique")
    if any(not str(u.id) for u in model.users):
        v.append("users: ids must be non-empty")
    for u in model.users:
        if u.desd is None and u.rg is not None:
            v.append(f"user {u.id}: renewable generation requires a storage device")
        if u.desd is not None:
            v.extend(_desd_violations(u.id, u.desd))
        if u.rg is not None and not 0.0 < u.rg.size_kw < np.inf:
            v.append(f"user {u.id}: rg size must be finite and > 0, got {u.rg.size_kw}")

    if model.demands.shape != (r, T):
        v.append(f"demands: expected shape ({r}, {T}), got {model.demands.shape}")
    elif not np.all(np.isfinite(model.demands)):
        v.append("demands: must be finite")
    elif np.any(model.demands < 0.0):
        v.append("demands: must be >= 0")

    for name, arr in (("buy", model.prices.buy), ("sell", model.prices.sell)):
        if arr.shape != (T,):
            v.append(f"prices.{name}: expected length {T}, got shape {arr.shape}")
        elif not np.all(np.isfinite(arr)):
            v.append(f"prices.{name}: must be finite")
        elif np.any(arr < 0.0):
            v.append(f"prices.{name}: must be >= 0")

    if model.grid is not None and not 0.0 < model.grid.p_g_max < np.inf:
        v.append(f"grid: p_g_max must be finite and > 0, got {model.grid.p_g_max}")
    return v


def validate_model(model):
    """Check every invariant, fill defaults, and return the validated model.

    Raises InvariantViolation listing all failures, or DisconnectedGraph
    when the communication graph does not span users plus grid. Emits a
    UserWarning when sell price reaches buy price anywhere (an arbitrage
    loop the solvers tolerate but real tariffs avoid). Validating an
    already validated model returns it unchanged.
    """
    if model._validated:
        return model
    violations = model_violations(model)
    if violations:
        raise InvariantViolation(violations)

    n = model.n_users + 1  # grid agent participates in the graph
    graph = model.graph
    if graph is None:
        graph = graphs.ring_graph(n)
    graph = graphs.normalize_edges(graph, n)
    graphs.check_connected(graph, n)

    grid = model.grid if model.grid is not None else default_grid_limit(model.demands)

    if np.any(model.prices.sell >= model.prices.buy):
        warnings.warn("sell price >= buy price at some step", UserWarning, stacklevel=2)

    return replace(model, grid=grid, graph=graph, _validated=True)


def soc_trajectory(desd, discharge, charge, dt=1.0):
    """Stored energy after each step for a discharge/charge schedule.

    E(t) = e0 - sum_{tau<=t} (discharge/kappa - kappa*charge) * dt, the
    running account of what conversion losses take out of the device.
    """
    discharge = np.asarray(discharge, dtype=float)
    charge = np.asarray(charge, dtype=float)
    drain = discharge / desd.kappa - desd.kappa * charge
    return desd.e0 - np.cumsum(drain) * dt
