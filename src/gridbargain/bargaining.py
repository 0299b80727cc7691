"""Bargaining-based cost allocation and its resilience to selfish claims.

With ideal (truthful) individual costs D_i and cooperative cost J_soc,
the symmetric bargain charges every user J_i = D_i - eps0 where
eps0 = (sum D - J_soc)/r, an equal share of the cooperative surplus.
A selfish user understates its cost as S_i = D_i - gamma_i |D_i|; the
allocation then discounts everyone by eps = (sum S - J_soc)/r and the
bargain holds only while the understatements R_tot = sum gamma_i |D_i|
stay within the surplus budget r*eps0.

This module contains the allocation algebra, the per-user manipulation
bounds, and a Monte Carlo estimator for how likely random selfishness
is to profit everybody, to kill the bargain, or to land in between.
The estimator draws in cache-sized chunks into one reused buffer, scales
the draws in place and drops a draw as soon as its largest single
understatement exceeds the budget, which decides it exactly; its tallies
equal those of one pass over whole blocks of draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BargainingFailed, InvariantViolation, NegativeGamma, ZeroIdealCost

__all__ = [
    "AllocationResult",
    "Interval",
    "RegionProbability",
    "selfish_cost",
    "allocate",
    "gamma_solo_bound",
    "manipulation_interval",
    "dishonest_benefit",
    "region_probabilities",
    "resilience_report",
    "PREDICATES",
    "SUCCESS_TOL",
]

SUCCESS_TOL = 1e-9  # eps >= -SUCCESS_TOL counts as a successful bargain
PREDICATES = ("all_dishonest_profit", "bargaining_fails", "succeeds_some_lose")

_MC_BLOCK = 1_000_000
_MC_CHUNK = 1 << 14  # rows drawn at a time: 128 KB per dishonest user


def _vec(x):
    return np.asarray(x, dtype=float)


def selfish_cost(d, gamma):
    """Declared cost S_i = D_i - gamma_i |D_i| (gamma_i >= 0)."""
    d, gamma = _vec(d), _vec(gamma)
    if np.any(gamma < 0.0):
        raise NegativeGamma(f"gamma must be >= 0, got {gamma}")
    return d - gamma * np.abs(d)


@dataclass(frozen=True)
class AllocationResult:
    """Cost shares for one round of bargaining.

    ``j`` is what each user pays, ``epsilon`` the common discount off the
    declared costs, ``success`` whether the cooperative cost undercuts
    the declared total (epsilon >= 0 up to tolerance). The result is
    populated even when the bargain fails, so callers can report it.
    """

    j: np.ndarray
    epsilon: float
    success: bool
    j_soc: float
    s: np.ndarray


def allocate(s, j_soc):
    """Equal-discount allocation from declared costs: J_i = S_i - epsilon."""
    s = _vec(s)
    r = s.shape[0]
    epsilon = (float(s.sum()) - float(j_soc)) / r
    return AllocationResult(
        j=s - epsilon, epsilon=epsilon, success=epsilon >= -SUCCESS_TOL,
        j_soc=float(j_soc), s=s,
    )


def gamma_solo_bound(d, eps0, i):
    """Largest gamma_i a lone selfish user can pick without breaking the bargain.

    gamma_i <= r eps0 / |D_i|; values above 1 mean even a full write-off
    of that user's cost stays inside the surplus budget.
    """
    d = _vec(d)
    if d[i] == 0.0:
        raise ZeroIdealCost(f"user index {i} has D_i = 0; any gamma leaves its claim unchanged")
    return len(d) * float(eps0) / abs(float(d[i]))


@dataclass(frozen=True)
class Interval:
    """Half-open interval (lower, upper]."""

    lower: float
    upper: float

    def contains(self, x):
        return self.lower < x <= self.upper


def manipulation_interval(d, eps0, gamma, i):
    """gamma_i range where user i profits and the bargain still holds.

    Given the other users' coefficients (gamma[i] is ignored), user i
    strictly profits over honesty iff gamma_i |D_i| exceeds its share
    R_tot/r of the total understatement, and the bargain survives iff
    R_tot <= r eps0; together (sigma_i/((r-1)|D_i|), (r eps0 - sigma_i)/|D_i|]
    with sigma_i the others' understatement total. Returns None when the
    interval is empty.
    """
    d, gamma = _vec(d), _vec(gamma)
    if np.any(np.delete(gamma, i) < 0.0):
        raise NegativeGamma("gamma must be >= 0")
    r = d.shape[0]
    if d[i] == 0.0:
        raise ZeroIdealCost(f"user index {i} has D_i = 0; no gamma changes its claim")
    if r < 2:
        return None  # alone, the user's own claim is the whole pool
    sigma = float(np.sum(np.delete(gamma * np.abs(d), i)))
    lower = sigma / ((r - 1) * abs(float(d[i])))
    upper = (r * float(eps0) - sigma) / abs(float(d[i]))
    if lower >= upper:
        return None
    return Interval(lower=lower, upper=upper)


def dishonest_benefit(d, gamma, i, eps0=None):
    """User i's gain over the truthful allocation: gamma_i |D_i| - R_tot/r.

    Positive means the lie pays off, negative means other users' lies
    cost user i more than its own lie recovers. When ``eps0`` is given
    the bargain is checked first and BargainingFailed raised if the
    declarations sink it.
    """
    d, gamma = _vec(d), _vec(gamma)
    if np.any(gamma < 0.0):
        raise NegativeGamma("gamma must be >= 0")
    r = d.shape[0]
    r_tot = float(np.sum(gamma * np.abs(d)))
    if eps0 is not None and r_tot > r * float(eps0) + r * SUCCESS_TOL:
        raise BargainingFailed(
            f"total understatement {r_tot:.6g} exceeds the budget {r * float(eps0):.6g}"
        )
    return float(gamma[i] * abs(d[i]) - r_tot / r)


@dataclass(frozen=True)
class RegionProbability:
    probability: float
    stderr: float
    n_samples: int


def _region_counts(d, eps0, honest, n_samples, seed, gamma_high):
    """Monte Carlo tallies of the three outcome regions.

    Dishonest users draw gamma ~ U[0, gamma_high] independently, honest
    users keep gamma = 0. Sampling runs in fixed blocks with a
    counter-based generator keyed by (seed, block), so tallies depend
    only on (seed, n_samples) no matter how blocks are scheduled.

    Each block is drawn in chunks of _MC_CHUNK rows that continue the
    block's stream, so the working set stays in cache. Every chunk
    fills the front of one flat buffer allocated per call, then scales
    it in place: by gamma_high, then by the dishonest magnitudes tiled
    once to the buffer's length. That is bit-identical to
    ``uniform(0, gamma_high) * mags``, which numpy computes as
    ``0.0 + gamma_high * u``, equal to ``gamma_high * u`` for u >= 0.
    A short last chunk reads only the rows it drew.

    A chunk then drops every row whose largest understatement y_j,
    found by a running maximum over the columns, is above the budget;
    a row's maximum is within the budget exactly when all its entries
    are. The float sum of non-negative terms is never below any of its
    terms (rounding is monotone), so a dropped row fails whatever the
    order of summation. The row sum and the profit test then run only
    on the rows still in play (``compress`` copies the same rows as a
    boolean index, at a fraction of its cost on a 2-D array), with the
    same numpy operations as a whole-block pass, so every tally is
    bit-identical to one.
    """
    d = _vec(d)
    r = d.shape[0]
    honest = frozenset(honest)
    dishonest = np.array([i for i in range(r) if i not in honest], dtype=int)
    budget = r * float(eps0)

    counts = dict.fromkeys(PREDICATES, 0)
    if dishonest.size == 0:
        # Nobody lies: the bargain holds, and universal dishonest profit
        # is vacuously impossible.
        counts["succeeds_some_lose"] = n_samples
        return counts

    mags = np.abs(d[dishonest])
    k = mags.size
    rows = min(_MC_CHUNK, n_samples)
    buf = np.empty(rows * k)
    scale = np.tile(mags, rows)
    done = 0
    block_idx = 0
    while done < n_samples:
        m = min(_MC_BLOCK, n_samples - done)
        rng = np.random.Generator(np.random.Philox(key=[int(seed), block_idx]))
        for start in range(0, m, _MC_CHUNK):
            c = min(_MC_CHUNK, m - start)
            flat = buf[:c * k]
            rng.random(out=flat)
            flat *= gamma_high
            flat *= scale[:c * k]
            y = flat.reshape(c, k)
            largest = y[:, 0] if k == 1 else np.maximum(y[:, 0], y[:, 1])
            for j in range(2, k):
                np.maximum(largest, y[:, j], out=largest)
            keep = largest <= budget
            # past half a chunk, a copy costs more than carrying the rows
            # along: the next test rejects them anyway
            if 2 * np.count_nonzero(keep) <= c:
                y = y.compress(keep, axis=0)
            r_tot = y.sum(axis=1)  # a sum of columns differs in the last bit from k = 8
            success = r_tot <= budget
            n_success = int(np.count_nonzero(success))
            counts["bargaining_fails"] += c - n_success
            if n_success == 0:
                continue
            profit = success
            if 2 * n_success <= success.size:
                y, r_tot = y.compress(success, axis=0), r_tot[success]
                profit = np.ones(n_success, dtype=bool)
            for j in range(k):
                profit &= y[:, j] * r > r_tot
            n_profit = int(np.count_nonzero(profit))
            counts["all_dishonest_profit"] += n_profit
            counts["succeeds_some_lose"] += n_success - n_profit
        done += m
        block_idx += 1
    return counts


def _honest_indices(honest, r):
    """``honest`` as a set of 0-based user indices, each within 0..r-1."""
    honest = frozenset(honest)
    outside = sorted(i for i in honest if not 0 <= i < r)
    if outside:
        raise InvariantViolation(
            f"honest user indices {outside} (0-based) are outside the {r} users")
    return honest


def region_probabilities(d, eps0, honest, n_samples, seed=0, gamma_high=1.0):
    """All three region probabilities from one sampling pass.

    ``honest`` holds 0-based user indices; the sample count must be
    positive and ``gamma_high`` finite and non-negative.
    """
    honest = _honest_indices(honest, _vec(d).shape[0])
    n_samples = int(n_samples)
    if n_samples < 1:
        raise InvariantViolation(f"the Monte Carlo needs at least one sample, got {n_samples}")
    if not gamma_high >= 0.0:
        raise NegativeGamma(f"gamma_high must be >= 0, got {gamma_high}")
    if not np.isfinite(gamma_high):
        raise InvariantViolation(f"gamma_high must be finite, got {gamma_high}")
    counts = _region_counts(d, eps0, honest, n_samples, seed, gamma_high)
    out = {}
    for name, c in counts.items():
        p = c / n_samples
        out[name] = RegionProbability(
            probability=p, stderr=float(np.sqrt(p * (1.0 - p) / n_samples)),
            n_samples=n_samples,
        )
    return out


def resilience_report(d, j_soc, gamma=None, *, honest=None, mc_samples=0, seed=0):
    """Bundle of manipulation diagnostics for a given instance.

    Includes per-user solo bounds and profit intervals at the supplied
    gamma, the understatement totals against the surplus budget, and
    (when mc_samples > 0) the Monte Carlo region probabilities with
    gamma = 0 pinned for ``honest`` users, whose 0-based indices are
    checked whether or not the Monte Carlo runs.
    """
    d = _vec(d)
    r = d.shape[0]
    gamma = np.zeros(r) if gamma is None else _vec(gamma)
    honest = _honest_indices(honest or (), r)
    eps0 = (float(d.sum()) - float(j_soc)) / r
    r_tot = float(np.sum(gamma * np.abs(d)))
    declared = allocate(selfish_cost(d, gamma), j_soc)  # also validates gamma
    n_dishonest = int(np.count_nonzero(gamma > 0.0))

    users = []
    for i in range(r):
        zero = d[i] == 0.0
        users.append({
            "index": i,
            "d": float(d[i]),
            "gamma": float(gamma[i]),
            "understatement": float(gamma[i] * abs(d[i])),
            "solo_bound": None if zero else gamma_solo_bound(d, eps0, i),
            "profit_interval": None if zero else manipulation_interval(d, eps0, gamma, i),
            "benefit": dishonest_benefit(d, gamma, i) if declared.success else None,
        })

    report = {
        "eps0": eps0,
        "budget": r * eps0,
        "r_tot": r_tot,
        "success": declared.success,
        "epsilon": declared.epsilon,
        "n_dishonest": n_dishonest,
        "max_single_gain": eps0,
        "avg_gain_bound": eps0 / n_dishonest if n_dishonest else None,
        "users": users,
    }
    if mc_samples:
        report["regions"] = region_probabilities(d, eps0, honest, int(mc_samples), seed=seed)
    return report
