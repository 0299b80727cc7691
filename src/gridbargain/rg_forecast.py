"""Weather-conditioned renewable generation forecasts.

A scenario pool holds one historical generation profile per day (kW per
step). Profiles are grouped into weather classes by their daily mean:
solar pools into 3 classes read as (sunny, cloudy, rainy), wind pools
into 4 wind-speed levels. A day-ahead weather forecast assigns a
probability to each class; the predicted profile is the two-stage
expectation over classes and over scenarios within each class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, KindMismatch, TooFewScenarios

__all__ = [
    "WeatherForecast",
    "ScenarioPool",
    "RgForecastResult",
    "classify_scenarios",
    "predict_rg",
    "forecast_all",
    "N_SOLAR_CLASSES",
    "N_WIND_CLASSES",
]

N_SOLAR_CLASSES = 3
N_WIND_CLASSES = 4

_PROB_TOL = 1e-9


def _check_prob_vector(name, p, length):
    p = np.array(p, dtype=float, copy=True)
    if p.shape != (length,):
        raise InvariantViolation(f"{name}: expected {length} probabilities, got shape {p.shape}")
    if np.any(p < 0.0):
        raise InvariantViolation(f"{name}: probabilities must be >= 0")
    if abs(p.sum() - 1.0) > _PROB_TOL:
        raise InvariantViolation(f"{name}: probabilities must sum to 1, got {p.sum():g}")
    p.flags.writeable = False
    return p


@dataclass(frozen=True)
class WeatherForecast:
    """Day-ahead class probabilities.

    ``solar`` orders classes (sunny, cloudy, rainy); ``wind`` orders
    levels from calmest to strongest. Either vector may be omitted when
    the experiment has no generator of that kind.
    """

    solar: np.ndarray | None = None
    wind: np.ndarray | None = None

    def __post_init__(self):
        if self.solar is not None:
            object.__setattr__(
                self, "solar", _check_prob_vector("solar", self.solar, N_SOLAR_CLASSES)
            )
        if self.wind is not None:
            object.__setattr__(
                self, "wind", _check_prob_vector("wind", self.wind, N_WIND_CLASSES)
            )


@dataclass(frozen=True)
class ScenarioPool:
    """Classified historical profiles for one generator.

    ``profiles`` is (K, T); ``class_of[k]`` assigns scenario k to a class
    indexed by ascending daily mean; ``cond_probs`` is (n_classes, K)
    with row c the conditional probability of each scenario given class
    c (zero outside the class, summing to 1 unless the class is empty).
    """

    kind: str  # "pv" or "wt"
    profiles: np.ndarray
    class_of: np.ndarray
    cond_probs: np.ndarray

    @property
    def n_classes(self):
        return self.cond_probs.shape[0]

    def class_members(self, c):
        return np.flatnonzero(self.class_of == c)


def classify_scenarios(profiles, kind, *, seed=None, weights="random"):
    """Group profiles into weather classes and attach conditional weights.

    Profiles are ranked by daily mean (the irradiance / wind-speed proxy
    available from the profile itself) and split into contiguous classes
    of near-equal size, any remainder going to the lowest classes. The
    kind fixes the class count: N_SOLAR_CLASSES for "pv", N_WIND_CLASSES
    for "wt". Ties keep input order. Conditional probabilities within a
    class are normalized U[0,1] draws from ``seed`` (weights="random") or
    uniform 1/|class| (weights="equal").
    """
    if kind not in ("pv", "wt"):
        raise KindMismatch(f"kind must be 'pv' or 'wt', got {kind!r}")
    n_classes = N_SOLAR_CLASSES if kind == "pv" else N_WIND_CLASSES
    profiles = np.array(np.atleast_2d(profiles), dtype=float)
    K = profiles.shape[0]
    if K < n_classes:
        raise TooFewScenarios(f"{K} scenarios cannot fill {n_classes} classes")
    if not np.all(np.isfinite(profiles)):
        raise InvariantViolation("profiles: generation must be finite")
    if np.any(profiles < 0.0):
        raise InvariantViolation("profiles: generation must be >= 0")

    order = np.argsort(profiles.mean(axis=1), kind="stable")
    base, rem = divmod(K, n_classes)
    sizes = [base + 1 if c < rem else base for c in range(n_classes)]

    class_of = np.empty(K, dtype=int)
    start = 0
    for c, size in enumerate(sizes):
        class_of[order[start:start + size]] = c
        start += size

    rng = np.random.default_rng(seed)
    cond = np.zeros((n_classes, K))
    for c in range(n_classes):
        members = np.flatnonzero(class_of == c)
        if weights == "equal":
            w = np.ones(members.size)
        elif weights == "random":
            w = rng.uniform(size=members.size)
            if w.sum() == 0.0:  # measure-zero guard
                w = np.ones(members.size)
        else:
            raise InvariantViolation(f"weights must be 'random' or 'equal', got {weights!r}")
        cond[c, members] = w / w.sum()

    profiles.flags.writeable = False
    class_of.flags.writeable = False
    cond.flags.writeable = False
    return ScenarioPool(kind=kind, profiles=profiles, class_of=class_of, cond_probs=cond)


def _class_for_forecast_index(kind, n_classes, m):
    # Solar forecasts list (sunny, cloudy, rainy): sunny is the
    # highest-mean class. Wind levels already ascend with the mean.
    if kind == "pv":
        return n_classes - 1 - m
    return m


def predict_rg(pool, forecast):
    """Expected generation profile under a weather forecast.

    P(t) = sum_m pi_m * sum_k pi_{k|m} * profile_k(t), classes weighted
    by the forecast and scenarios by their in-class conditionals.
    """
    vec = forecast.solar if pool.kind == "pv" else forecast.wind
    if vec is None:
        raise KindMismatch(f"forecast has no {pool.kind!r} class probabilities")
    if vec.shape[0] != pool.n_classes:
        raise KindMismatch(
            f"forecast lists {vec.shape[0]} classes, pool has {pool.n_classes}"
        )
    weights = np.zeros(pool.profiles.shape[0])
    for m, pi in enumerate(vec):
        c = _class_for_forecast_index(pool.kind, pool.n_classes, m)
        row = pool.cond_probs[c]
        if pi > 0.0 and row.sum() == 0.0:
            raise InvariantViolation(
                f"forecast assigns probability {pi} to empty scenario class {c}"
            )
        weights += pi * row
    return weights @ pool.profiles


@dataclass(frozen=True)
class RgForecastResult:
    """Predicted generation per RG-owning user id."""

    profiles: dict


def forecast_all(pools, forecast):
    """predict_rg over a {user_id: ScenarioPool} mapping."""
    return RgForecastResult(
        profiles={uid: predict_rg(pool, forecast) for uid, pool in pools.items()}
    )
