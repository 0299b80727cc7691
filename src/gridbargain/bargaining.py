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
The estimator splits every block of draws into one contiguous span per
CPU the process may run on, at most _MC_MAX_WORKERS, tallies the spans
on threads and adds their counts. A span reaches its first draw of the
block's counter-based stream by advancing the generator, so the tallies
do not depend on the CPU count. Each span draws in cache-sized chunks into one reused
buffer, scales the draws in place and drops a draw as soon as its
largest single understatement exceeds the budget, which decides it
exactly; the tallies equal those of one pass over whole blocks of
draws.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, NegativeGamma, ZeroIdealCost

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
    "mc_workers",
    "check_seed",
    "resilience_report",
    "PREDICATES",
    "SUCCESS_TOL",
]

SUCCESS_TOL = 1e-9  # eps >= -SUCCESS_TOL counts as a successful bargain
PREDICATES = ("all_dishonest_profit", "bargaining_fails", "succeeds_some_lose")

_MC_BLOCK = 1_000_000
_MC_CHUNK = 1 << 14  # rows drawn at a time: 128 KB per dishonest user
# Tally threads at most, whatever the host: each holds ~0.3 MB per
# dishonest user of buffers, so the tally's memory stays a few chunks.
_MC_MAX_WORKERS = 4


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


def dishonest_benefit(d, gamma, i):
    """User i's gain over the truthful allocation: gamma_i |D_i| - R_tot/r.

    Positive means the lie pays off, negative means other users' lies
    cost user i more than its own lie recovers. The algebra holds
    whether or not the bargain survives the declarations; check that
    with ``allocate``.
    """
    d, gamma = _vec(d), _vec(gamma)
    if np.any(gamma < 0.0):
        raise NegativeGamma("gamma must be >= 0")
    r = d.shape[0]
    r_tot = float(np.sum(gamma * np.abs(d)))
    return float(gamma[i] * abs(d[i]) - r_tot / r)


@dataclass(frozen=True)
class RegionProbability:
    probability: float
    stderr: float
    n_samples: int


def _cpus():
    """CPUs this process may run on: its affinity mask where the OS keeps one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def mc_workers(n_samples):
    """Threads a Monte Carlo tally of ``n_samples`` draws runs on.

    One per CPU of the process's affinity mask, but no more than
    _MC_MAX_WORKERS or than a block has chunks; 0 when there is nothing
    to draw.
    """
    chunks = -(-min(n_samples, _MC_BLOCK) // _MC_CHUNK)
    return min(_cpus(), _MC_MAX_WORKERS, chunks)


def _spans(m, workers):
    """Rows [0, m) of a block as at most ``workers`` contiguous spans.

    Spans split the block's chunks evenly and start on a multiple of 4
    rows: ``Philox.advance(n)`` skips 4n doubles, so a span starting at
    row lo of k doubles each is reached by ``advance(lo * k // 4)``.
    """
    chunks = -(-m // _MC_CHUNK)
    workers = min(workers, chunks)
    bounds = [i * chunks // workers * _MC_CHUNK // 4 * 4 for i in range(workers)] + [m]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]


def _tally_span(mags, budget, r, seed, block, lo, hi):
    """Counts of the three regions, in PREDICATES order, over rows
    [lo, hi) of block ``block``."""
    k = mags.size
    # a uint64 key: numpy keys a list holding an int >= 2**63 through
    # float64, which merges neighbouring seeds and maps 2**64 - 1 to 0
    bit_gen = np.random.Philox(key=np.array([seed, block], dtype=np.uint64))
    bit_gen.advance(lo * k // 4)
    rng = np.random.Generator(bit_gen)
    rows = min(_MC_CHUNK, hi - lo)
    buf = np.empty(rows * k)
    scale = np.tile(mags, rows)
    n_profit = n_fails = n_lose = 0
    for start in range(lo, hi, _MC_CHUNK):
        c = min(_MC_CHUNK, hi - start)
        flat = buf[:c * k]
        rng.random(out=flat)
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
        n_fails += c - n_success
        if n_success == 0:
            continue
        profit = success
        if 2 * n_success <= success.size:
            y, r_tot = y.compress(success, axis=0), r_tot[success]
            profit = np.ones(n_success, dtype=bool)
        for j in range(k):
            profit &= y[:, j] * r > r_tot
        n_all = int(np.count_nonzero(profit))
        n_profit += n_all
        n_lose += n_success - n_all
    return n_profit, n_fails, n_lose


def _region_counts(d, eps0, honest, n_samples, seed, stats=None):
    """Monte Carlo tallies of the three outcome regions. A ``stats`` dict
    receives ``mc_workers``, the threads they ran on (0 when nobody draws).

    Dishonest users draw gamma ~ U[0, 1] independently, honest
    users keep gamma = 0. Sampling runs in fixed blocks with a
    counter-based generator keyed by (seed, block), so tallies depend
    only on (seed, n_samples) no matter how blocks are scheduled.

    Each block is cut into one contiguous span of rows per worker
    thread (``mc_workers``: one per CPU, at most _MC_MAX_WORKERS). A span starts on a multiple of 4 rows, so
    its own generator, keyed like the block's, reaches the span's first
    row with one ``Philox.advance`` and then draws exactly the rows a
    pass over the whole block would. The spans' integer counts are
    summed, so the tally does not depend on the worker count. numpy
    releases the GIL while it draws and in the ufuncs on whole chunks,
    so the threads run in parallel.

    A span is drawn in chunks of _MC_CHUNK rows that continue its
    stream, so the working set stays in cache; its last chunk ends at
    the span's end. Every chunk fills the front of one flat buffer
    allocated per span, then scales it in place by the dishonest
    magnitudes tiled once to the buffer's length. That is bit-identical
    to ``uniform(0, 1) * mags``, which numpy computes as
    ``0.0 + 1.0 * u``, equal to u. A short chunk reads only the rows it
    drew.

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

    workers = mc_workers(n_samples) if dishonest.size else 0
    if stats is not None:
        stats["mc_workers"] = workers
    if not workers:
        # Nobody lies (or nothing is drawn): the bargain holds, and
        # universal dishonest profit is vacuously impossible.
        return dict(zip(PREDICATES, (0, 0, n_samples)))

    mags = np.abs(d[dishonest])
    spans = [(block, lo, hi)
             for block, done in enumerate(range(0, n_samples, _MC_BLOCK))
             for lo, hi in _spans(min(_MC_BLOCK, n_samples - done), workers)]
    with ThreadPoolExecutor(workers) as pool:
        tallies = list(pool.map(
            lambda span: _tally_span(mags, budget, r, seed, *span), spans))
    return dict(zip(PREDICATES, map(sum, zip(*tallies))))


def _honest_indices(honest, r):
    """``honest`` as a set of 0-based user indices, each within 0..r-1."""
    honest = frozenset(honest)
    outside = sorted(i for i in honest if not 0 <= i < r)
    if outside:
        raise InvariantViolation(
            f"honest user indices {outside} (0-based) are outside the {r} users")
    return honest


def _check_tally_scale(d, eps0, honest):
    """Refuse a tally whose inputs are not finite or whose sums overflow.

    The tally compares r y_j, with y_j <= |D_j| for each dishonest j,
    and their sum R_tot against the budget r eps0; all of them are
    finite floats when r sum |D_dishonest| and r eps0 are. The bounds
    are summed in Python floats, which overflow to inf without a
    warning.
    """
    d, eps0 = d.tolist(), float(eps0)
    if not all(map(math.isfinite, d + [eps0])):
        raise InvariantViolation(["the Monte Carlo needs finite costs d and eps0"])
    r = len(d)
    dishonest = sum(abs(x) for i, x in enumerate(d) if i not in honest)
    if not (math.isfinite(r * dishonest) and math.isfinite(r * eps0)):
        raise InvariantViolation([
            "costs too large: r sum |D_dishonest| or r eps0 overflows a float"])


def check_seed(seed, what="seed"):
    """``seed`` as an int if it can key the Monte Carlo's generators
    (Philox takes an unsigned 64-bit key), else InvariantViolation."""
    if (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
            or not 0 <= seed < 2 ** 64):
        raise InvariantViolation([f"{what} must be an integer in [0, 2**64), got {seed!r}"])
    return int(seed)


def region_probabilities(d, eps0, honest, n_samples, seed=0, *, stats=None):
    """All three region probabilities from one sampling pass.

    Dishonest users draw gamma ~ U[0, 1]; gamma ~ U[0, g] is the same
    as ``d`` scaled by g at the same ``eps0``. ``honest`` holds 0-based
    user indices; the sample count must be positive and ``seed`` an
    integer in [0, 2**64). A ``stats`` dict receives ``mc_workers``, the
    threads the tally ran on (0 when every user is honest). Costs and
    ``eps0`` must be finite, and r sum |D_dishonest| and r eps0 must be
    finite floats.
    """
    d = _vec(d)
    honest = _honest_indices(honest, d.shape[0])
    seed = check_seed(seed)
    n_samples = int(n_samples)
    if n_samples < 1:
        raise InvariantViolation(f"the Monte Carlo needs at least one sample, got {n_samples}")
    _check_tally_scale(d, eps0, honest)
    counts = _region_counts(d, eps0, honest, n_samples, seed, stats)
    out = {}
    for name, c in counts.items():
        p = c / n_samples
        out[name] = RegionProbability(
            probability=p, stderr=float(np.sqrt(p * (1.0 - p) / n_samples)),
            n_samples=n_samples,
        )
    return out


def resilience_report(d, j_soc, gamma=None, *, honest=None, mc_samples=0, seed=0,
                      stats=None):
    """Bundle of manipulation diagnostics for a given instance.

    Includes per-user solo bounds and profit intervals at the supplied
    gamma, the understatement totals against the surplus budget, and
    (when mc_samples > 0) the Monte Carlo region probabilities with
    gamma = 0 pinned for ``honest`` users, whose 0-based indices are
    checked whether or not the Monte Carlo runs. A ``stats`` dict
    receives ``mc_workers`` as from ``region_probabilities``, 0 when the
    Monte Carlo does not run. The costs and j_soc must be finite and
    r (sum |D_i| + |j_soc|) a finite float, as the CLI asks of every
    bargain, before eps0 is formed from them.
    """
    d = _vec(d)
    r = d.shape[0]
    gamma = np.zeros(r) if gamma is None else _vec(gamma)
    if gamma.shape != (r,):
        raise InvariantViolation(f"gamma has shape {gamma.shape} but there are {r} users")
    honest = _honest_indices(honest or (), r)
    if not math.isfinite(r * (sum(abs(x) for x in d.tolist()) + abs(float(j_soc)))):
        raise InvariantViolation([
            "costs too large or not finite: r (sum |D_i| + |J_soc|) is not a finite float"])
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
        report["regions"] = region_probabilities(d, eps0, honest, int(mc_samples), seed=seed,
                                                 stats=stats)
    elif stats is not None:
        stats["mc_workers"] = 0
    return report
