"""Shipped example instances and synthetic data generators.

``four_user_model`` is the package's reference microgrid: three active
users with storage (two solar, one wind) around one passive user, on a
ring with the grid agent. ``REFERENCE_FAVORABLE`` / ``REFERENCE_ADVERSE``
carry the package's reference allocation cases: frozen ideal costs and
cooperative cost for a favorable and an adverse weather day, used by
tests and demos as known-good bargaining inputs.

The synthetic pools and the random instance generator exist for tests
and demos; they are deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import ring_graph
from .model import (ConstantBdc, DesdParams, GridLimits, Horizon, MicrogridModel,
                    PriceProfile, Pv, UserSpec, Wt, validate_model)
from .rg_forecast import WeatherForecast

__all__ = [
    "tou_prices",
    "household_demands",
    "four_user_model",
    "ReferenceCase",
    "REFERENCE_FAVORABLE",
    "REFERENCE_ADVERSE",
    "FAVORABLE_FORECAST",
    "ADVERSE_FORECAST",
    "synthetic_solar_pool",
    "synthetic_wind_pool",
    "random_connected_graph",
    "random_model",
    "random_rg_profiles",
]

def tou_prices(T=24, dt=1.0):
    """Three-tier time-of-use tariff; sell price is 80% of buy price."""
    t = np.arange(T) * dt % 24
    buy = np.where((t >= 16) & (t < 21), 24.3, np.where((t >= 7) & (t < 22), 14.4, 9.7))
    return PriceProfile(buy=buy, sell=0.8 * buy)


def _bumps(center, width, height, T):
    t = np.arange(T)
    return height * np.exp(-0.5 * ((t - center) / width) ** 2)


def household_demands(T=24):
    """Four synthetic household load profiles (kW), morning/evening peaked."""
    base = np.array([0.45, 0.30, 0.40, 0.35])[:, None] * np.ones(T)
    d = base
    d = d + np.vstack([
        _bumps(7.5, 1.6, 1.1, T) + _bumps(19.0, 2.2, 2.0, T),
        _bumps(8.0, 1.2, 0.7, T) + _bumps(20.0, 1.8, 1.3, T),
        _bumps(7.0, 1.5, 0.9, T) + _bumps(18.5, 2.0, 1.7, T),
        _bumps(8.5, 1.4, 0.8, T) + _bumps(19.5, 2.4, 1.5, T),
    ])
    return np.round(d, 4)


def four_user_model(bdc_cd=1.0, p_g_max=None, graph=None):
    """The reference 4-user microgrid.

    Users u1/u3/u4 are active: u1 solar 6.5 kW, u3 wind 4.17 kW, u4
    solar 5.3 kW, storage devices starting at their 2.8 kWh floor with
    12/7/10 kWh capacity, 4.3/3.3/4.3 kW ratings and 0.9 conversion
    efficiency. u2 is passive. ``bdc_cd`` sets the flat degradation cost
    for all devices (cents/kWh of throughput).
    """
    def desd(e_max, p_b_max):
        return DesdParams(e0=2.8, e_min=2.8, e_max=e_max, p_b_max=p_b_max,
                          kappa=0.9, bdc=ConstantBdc(bdc_cd))

    users = (
        UserSpec("u1", desd=desd(12.0, 4.3), rg=Pv(6.5)),
        UserSpec("u2"),
        UserSpec("u3", desd=desd(7.0, 3.3), rg=Wt(4.17)),
        UserSpec("u4", desd=desd(10.0, 4.3), rg=Pv(5.3)),
    )
    return validate_model(MicrogridModel(
        horizon=Horizon(steps=24, dt=1.0),
        users=users,
        demands=household_demands(),
        prices=tou_prices(),
        grid=None if p_g_max is None else GridLimits(p_g_max),
        graph=graph,
    ))


FAVORABLE_FORECAST = WeatherForecast(solar=(0.8, 0.2, 0.0), wind=(0.0, 0.3, 0.7, 0.0))
ADVERSE_FORECAST = WeatherForecast(solar=(0.0, 0.2, 0.8), wind=(0.5, 0.5, 0.0, 0.0))


@dataclass(frozen=True)
class ReferenceCase:
    """Frozen bargaining inputs for one weather day of the reference grid."""

    name: str
    forecast: WeatherForecast
    d: np.ndarray  # ideal individual costs, cents
    j_soc: float  # cooperative cost, cents

    def __post_init__(self):
        arr = np.array(self.d, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "d", arr)

    @property
    def eps0(self):
        return (float(self.d.sum()) - self.j_soc) / self.d.shape[0]


REFERENCE_FAVORABLE = ReferenceCase(
    name="favorable", forecast=FAVORABLE_FORECAST,
    d=(-61.33, 481.18, 101.48, -23.34), j_soc=438.68,
)
REFERENCE_ADVERSE = ReferenceCase(
    name="adverse", forecast=ADVERSE_FORECAST,
    d=(164.92, 481.18, 382.19, 158.04), j_soc=1152.87,
)


def synthetic_solar_pool(size_kw, n_days=365, T=24, seed=0):
    """Daily solar profiles (kW): a daylight bell scaled by a random
    per-day clearness, with mild hourly texture."""
    rng = np.random.default_rng(seed)
    t = np.arange(T)
    bell = np.clip(np.sin(np.pi * (t - 6.0) / 12.0), 0.0, None)
    clearness = rng.beta(2.2, 1.8, size=n_days)
    texture = 1.0 + 0.08 * rng.standard_normal((n_days, T))
    return np.clip(size_kw * clearness[:, None] * bell[None, :] * texture, 0.0, size_kw)


def synthetic_wind_pool(size_kw, n_days=365, T=24, seed=0):
    """Daily wind power profiles (kW): a per-day level with slow
    within-day wander, saturated at the rating."""
    rng = np.random.default_rng(seed)
    level = np.clip(rng.gamma(2.0, 0.22, size=n_days), 0.0, 1.0)
    steps = 0.15 * rng.standard_normal((n_days, T))
    wander = np.cumsum(steps, axis=1)
    wander -= wander.mean(axis=1, keepdims=True)
    return np.clip(size_kw * (level[:, None] + wander), 0.0, size_kw)


def random_connected_graph(rng, n, extra_edge_prob=0.3):
    """Random spanning tree plus a few extra edges."""
    edges = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.add((j, i))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra_edge_prob / n:
                edges.add((i, j))
    return tuple(sorted(edges))


def _random_demand(rng, T):
    base = rng.uniform(0.2, 0.8)
    d = base + (_bumps(rng.uniform(6, 9), rng.uniform(1, 2), rng.uniform(0.4, 1.5), T)
                + _bumps(rng.uniform(17, 21), rng.uniform(1.5, 2.5), rng.uniform(0.8, 2.5), T))
    return d


def random_rg_profiles(model, rng):
    """Plausible generation profiles for every RG owner in a model."""
    T = int(model.horizon.steps)
    t = np.arange(T)
    out = {}
    for u in model.users:
        if u.rg is None:
            continue
        if isinstance(u.rg, Pv):
            bell = np.clip(np.sin(np.pi * (t - 6.0) / 12.0), 0.0, None)
            prof = u.rg.size_kw * rng.uniform(0.2, 0.95) * bell
        else:
            prof = u.rg.size_kw * np.clip(
                rng.uniform(0.1, 0.7) + 0.1 * rng.standard_normal(T), 0.0, 1.0)
        out[u.id] = np.clip(prof, 0.0, u.rg.size_kw)
    return out


def random_model(rng, r_max=6, T=24, with_rg=True, random_graph=False):
    """A random feasible instance for property tests.

    Always has at least one active user; the grid rating is left at its
    default (10x peak aggregate demand) so pooled schedules are never
    capacity-bound.
    """
    r = int(rng.integers(2, r_max + 1))
    users = []
    active_slots = sorted(rng.choice(r, size=max(1, int(rng.integers(1, r + 1))),
                                     replace=False).tolist())
    for i in range(r):
        uid = f"u{i + 1}"
        if i in active_slots:
            e_max = float(rng.uniform(4.0, 14.0))
            e_min = float(rng.uniform(0.0, 0.3) * e_max)
            e0 = float(rng.uniform(e_min, 0.6 * e_max))
            desd = DesdParams(
                e0=e0, e_min=e_min, e_max=e_max,
                p_b_max=float(rng.uniform(2.0, 5.0)),
                kappa=float(rng.uniform(0.85, 1.0)),
                bdc=ConstantBdc(float(rng.uniform(0.3, 2.0))),
            )
            rg = None
            if with_rg and rng.random() < 0.5:
                size = float(rng.uniform(2.0, 7.0))
                rg = Pv(size) if rng.random() < 0.5 else Wt(size)
            users.append(UserSpec(uid, desd=desd, rg=rg))
        else:
            users.append(UserSpec(uid))

    demands = np.vstack([_random_demand(rng, T) for _ in range(r)])
    t = np.arange(T)
    buy = (rng.uniform(8.0, 12.0)
           + rng.uniform(6.0, 14.0) * np.exp(-0.5 * ((t - rng.uniform(17, 20)) / 2.2) ** 2)
           + rng.uniform(0.0, 1.5, size=T))
    prices = PriceProfile(buy=buy, sell=0.8 * buy)
    graph = random_connected_graph(rng, r + 1) if random_graph else None
    return validate_model(MicrogridModel(
        horizon=Horizon(steps=T, dt=1.0), users=tuple(users), demands=demands,
        prices=prices, grid=None, graph=graph,
    ))
