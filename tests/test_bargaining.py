"""Allocation algebra, manipulation bounds, and region probabilities.

Frozen numbers below the reference tolerances come from the package's
reference cases; interval endpoints and per-user gains were computed by
the direct predicate/term-evaluation oracles repeated inline here.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gridbargain import (Interval, InvariantViolation, NegativeGamma, ZeroIdealCost, allocate,
                         dishonest_benefit, gamma_solo_bound, manipulation_interval,
                         region_probabilities, resilience_report, selfish_cost)
from gridbargain.bargaining import (_MC_BLOCK, _MC_CHUNK, _MC_MAX_WORKERS, PREDICATES,
                                    SUCCESS_TOL, _region_counts, _spans, mc_workers)
from gridbargain.fixtures import REFERENCE_ADVERSE, REFERENCE_FAVORABLE

FAV = REFERENCE_FAVORABLE
ADV = REFERENCE_ADVERSE


# ---------------------------------------------------------------- selfish

def test_selfish_cost_honest_is_identity():
    d = np.array([-61.33, 481.18])
    np.testing.assert_array_equal(selfish_cost(d, np.zeros(2)), d)


def test_selfish_cost_negative_ideal():
    assert selfish_cost([-61.33], [0.5])[0] == pytest.approx(-91.995, abs=1e-9)


def test_selfish_cost_at_solo_boundary():
    assert selfish_cost([481.18], [0.1233])[0] == pytest.approx(421.85, abs=0.01)


def test_negative_gamma_rejected():
    with pytest.raises(NegativeGamma):
        selfish_cost([10.0], [-0.1])


# ---------------------------------------------------------------- allocate

def test_reference_favorable_allocation():
    res = allocate(FAV.d, FAV.j_soc)
    np.testing.assert_allclose(res.j, [-76.16, 466.36, 86.65, -38.16], atol=0.01)
    assert res.epsilon == pytest.approx(14.83, abs=0.01)
    assert res.success
    # the common-discount identity, exactly
    np.testing.assert_allclose(res.s - res.j, res.epsilon, atol=1e-9)
    assert res.j.sum() == pytest.approx(FAV.j_soc, abs=1e-9)


def test_reference_adverse_allocation():
    res = allocate(ADV.d, ADV.j_soc)
    np.testing.assert_allclose(res.j, [156.55, 472.81, 373.82, 149.67], atol=0.01)
    assert res.epsilon == pytest.approx(8.37, abs=0.01)


def test_single_player_boundary():
    res = allocate([438.68], 438.68)
    assert res.j[0] == pytest.approx(438.68)
    assert res.epsilon == pytest.approx(0.0, abs=1e-12)
    assert res.success


def test_failure_still_reports():
    res = allocate([10.0, 10.0], 100.0)  # declared total far below j_soc
    assert not res.success
    assert res.epsilon < 0
    np.testing.assert_allclose(res.s - res.j, res.epsilon)


# ---------------------------------------------------------------- adjusted

def _adjusted(d, gamma, j_soc):
    """The allocation under selfish claims, composed as callers compose it."""
    return allocate(selfish_cost(d, gamma), j_soc)


def test_adjusted_reduces_to_ideal_when_honest():
    res = _adjusted(FAV.d, np.zeros(4), FAV.j_soc)
    ideal = allocate(FAV.d, FAV.j_soc)
    np.testing.assert_allclose(res.j, ideal.j, atol=1e-12)
    assert res.epsilon == pytest.approx(ideal.epsilon, abs=1e-12)


def test_adjusted_overclaim_kills_bargain():
    res = _adjusted(FAV.d, [0.0, 0.2, 0.0, 0.0], FAV.j_soc)
    assert not res.success  # 0.2 * 481.18 = 96.2 understates past the 59.31 budget


def test_adjusted_moderate_claim_survives():
    res = _adjusted(FAV.d, [0.0, 0.1, 0.0, 0.0], FAV.j_soc)
    assert res.success
    expected_eps = (4 * FAV.eps0 - 0.1 * 481.18) / 4
    assert res.epsilon == pytest.approx(expected_eps, abs=1e-9)
    assert res.epsilon == pytest.approx(2.798, abs=1e-3)


def test_adjusted_agrees_with_allocate(rng):
    # the composed allocation must match the ideal-cost algebra
    # J_i = D_i - gamma_i |D_i| - (r eps0 - R_tot)/r on random inputs,
    # and hold exactly while R_tot <= r eps0
    for _ in range(50):
        r = int(rng.integers(1, 8))
        d = rng.uniform(-300, 600, size=r)
        gamma = rng.uniform(0, 0.5, size=r)
        j_soc = d.sum() - rng.uniform(0, 100)
        a = _adjusted(d, gamma, j_soc)
        r_tot = float(np.sum(gamma * np.abs(d)))
        eps0 = (d.sum() - j_soc) / r
        epsilon = (r * eps0 - r_tot) / r
        np.testing.assert_allclose(a.j, d - gamma * np.abs(d) - epsilon, atol=1e-9)
        assert a.epsilon == pytest.approx(epsilon, abs=1e-9)
        assert a.success == (r_tot <= r * eps0 + r * SUCCESS_TOL)


def test_gamma_monotonicity(rng):
    # raising any one gamma only shrinks the common discount
    d, j_soc = FAV.d, FAV.j_soc
    gamma = rng.uniform(0, 0.05, size=4)
    base = _adjusted(d, gamma, j_soc).epsilon
    for i in range(4):
        bumped = gamma.copy()
        bumped[i] += 0.02
        assert _adjusted(d, bumped, j_soc).epsilon <= base + 1e-12


# ---------------------------------------------------------------- bounds

def test_solo_bounds_reference_values():
    bounds = [gamma_solo_bound(FAV.d, FAV.eps0, i) for i in range(4)]
    np.testing.assert_allclose(bounds, [0.9671, 0.1233, 0.5845, 2.5417], atol=1e-3)


def test_solo_bound_zero_cost_raises():
    with pytest.raises(ZeroIdealCost):
        gamma_solo_bound([0.0, 50.0], 10.0, 0)


def test_lone_dishonest_interval_is_solo_bound():
    iv = manipulation_interval(FAV.d, FAV.eps0, np.zeros(4), 0)
    assert iv.lower == 0.0
    assert iv.upper == pytest.approx(gamma_solo_bound(FAV.d, FAV.eps0, 0), abs=1e-12)


def test_interval_empty_when_budget_exhausted():
    # others' understatement sigma_2 = 59.31 eats the whole budget
    gamma = np.zeros(4)
    gamma[0] = (4 * FAV.eps0) / abs(FAV.d[0])
    assert manipulation_interval(FAV.d, FAV.eps0, gamma, 1) is None


def test_interval_endpoints_against_predicates():
    # sigma_1 = 30 spread over the others; frozen oracle endpoints
    # (0.16305234, 0.47790641] with the defining predicates flipping
    # exactly there
    d, eps0, r = FAV.d, FAV.eps0, 4
    sigma = 30.0
    gamma = np.zeros(4)
    gamma[1] = sigma / abs(d[1])
    iv = manipulation_interval(d, eps0, gamma, 0)
    assert iv.lower == pytest.approx(0.16305234, abs=1e-7)
    assert iv.upper == pytest.approx(0.47790641, abs=1e-7)

    def survives_and_profits(g0):
        g = gamma.copy()
        g[0] = g0
        scr = g * np.abs(d)
        return (scr.sum() <= r * eps0 + 1e-12) and (scr[0] > scr.sum() / r + 1e-15)

    delta = 1e-6
    assert not survives_and_profits(iv.lower - delta)
    assert survives_and_profits(iv.lower + delta)
    assert survives_and_profits(iv.upper - delta)
    assert not survives_and_profits(iv.upper + delta)


def test_interval_matches_brute_force_grid():
    gamma = np.array([0.0, 0.03, 0.0, 0.12])
    i = 2
    iv = manipulation_interval(FAV.d, FAV.eps0, gamma, i)
    d, r = FAV.d, 4
    for g in np.arange(0.0, 1.0, 1e-3):
        trial = gamma.copy()
        trial[i] = g
        scr = trial * np.abs(d)
        direct = (scr.sum() <= r * FAV.eps0 + 1e-12) and (scr[i] > scr.sum() / r)
        assert direct == iv.contains(g), f"disagree at gamma={g}"


def test_interval_is_half_open():
    iv = Interval(0.1, 0.4)
    assert not iv.contains(0.1)
    assert iv.contains(0.4)
    assert iv.contains(0.25)
    assert not iv.contains(0.5)


# ---------------------------------------------------------------- benefit

def test_benefit_single_dishonest_keeps_three_quarters():
    d = FAV.d
    gamma = np.array([0.0, 0.08, 0.0, 0.0])
    gain = dishonest_benefit(d, gamma, 1)
    assert gain == pytest.approx(0.08 * 481.18 * 3 / 4, abs=1e-9)
    assert gain > 0


def test_benefit_equal_claims_cancel():
    d = np.array([100.0, -100.0, 100.0, 100.0])  # equal |D|
    gamma = np.full(4, 0.1)
    for i in range(4):
        assert dishonest_benefit(d, gamma, i) == pytest.approx(0.0, abs=1e-12)


def test_benefit_reference_pair():
    # frozen oracle: direct term evaluation gives u2 +16.77575 and
    # u3 -2.20925 for gamma = (0, .05, .05, 0)
    gamma = np.array([0.0, 0.05, 0.05, 0.0])
    assert dishonest_benefit(FAV.d, gamma, 1) == pytest.approx(16.77575, abs=1e-9)
    assert dishonest_benefit(FAV.d, gamma, 2) == pytest.approx(-2.20925, abs=1e-9)


def test_benefit_zero_sum(rng):
    for _ in range(20):
        r = int(rng.integers(2, 7))
        d = rng.uniform(-200, 500, size=r)
        gamma = rng.uniform(0, 0.2, size=r)
        gains = [dishonest_benefit(d, gamma, i) for i in range(r)]
        assert sum(gains) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------- regions

def test_all_honest_is_degenerate():
    probs = region_probabilities(FAV.d, FAV.eps0, honest=range(4), n_samples=1000)
    assert probs["all_dishonest_profit"].probability == 0.0
    assert probs["bargaining_fails"].probability == 0.0
    assert probs["succeeds_some_lose"].probability == 1.0


def test_regions_partition_exactly():
    probs = region_probabilities(FAV.d, FAV.eps0, honest={0}, n_samples=50_000, seed=3)
    total = sum(p.probability for p in probs.values())
    assert total == pytest.approx(1.0, abs=1e-12)  # counts partition the draws


def test_region_probabilities_reference_targets():
    # 1e6 samples keeps this fast; the acceptance gate runs 1e7
    probs = region_probabilities(FAV.d, FAV.eps0, honest={0}, n_samples=1_000_000, seed=0)
    assert probs["all_dishonest_profit"].probability == pytest.approx(0.0018, abs=5e-4)
    assert probs["bargaining_fails"].probability == pytest.approx(0.9763, abs=2e-3)
    assert probs["succeeds_some_lose"].probability == pytest.approx(0.0219, abs=2e-3)


def test_region_deterministic_and_block_invariant():
    a = region_probabilities(FAV.d, FAV.eps0, {1}, n_samples=200_000, seed=42)
    b = region_probabilities(FAV.d, FAV.eps0, {1}, n_samples=200_000, seed=42)
    assert a == b
    c = region_probabilities(FAV.d, FAV.eps0, {1}, n_samples=200_000, seed=43)
    assert a["bargaining_fails"].probability != c["bargaining_fails"].probability


# the whole-block tally the chunked, screened kernel must reproduce bit
# for bit, frozen as it stood before the kernel was rewritten

def _vec(x):
    return np.asarray(x, dtype=float)


def _region_counts_whole_block(d, eps0, honest, n_samples, seed):
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
    done = 0
    block_idx = 0
    while done < n_samples:
        m = min(_MC_BLOCK, n_samples - done)
        rng = np.random.Generator(np.random.Philox(key=[int(seed), block_idx]))
        y = rng.uniform(0.0, 1.0, size=(m, dishonest.size)) * mags
        r_tot = y.sum(axis=1)
        success = r_tot <= budget
        all_profit = success & np.all(y * r > r_tot[:, None], axis=1)
        counts["bargaining_fails"] += int(np.count_nonzero(~success))
        counts["all_dishonest_profit"] += int(np.count_nonzero(all_profit))
        counts["succeeds_some_lose"] += int(np.count_nonzero(success & ~all_profit))
        done += m
        block_idx += 1
    return counts


# shipped experiment: ideal costs, truthful discount, user 1 honest
SHIPPED_D = np.array([-116.57969148004392, 247.90535, -258.12201292596217,
                      -127.37826346238587])
SHIPPED_EPS0 = 12.92411160647032

# budget as a share of the largest possible understatement total
_SHARES = {"almost_none": 0.05, "half": 0.5, "all": 1.01}


def _case(k, share, scale, seed):
    """k dishonest users (some with D_i = 0) behind two honest ones;
    ``scale`` stretches the costs and the budget alike."""
    rng = np.random.default_rng(seed)
    d = scale * rng.uniform(-300.0, 300.0, k + 2)
    d[rng.random(k + 2) < 0.15] = 0.0
    mags = np.abs(d[2:])
    return d, share * mags.sum() / d.size


@pytest.mark.parametrize("k", range(1, 17))
@pytest.mark.parametrize("share", sorted(_SHARES))
def test_region_counts_match_whole_block(k, share):
    d, eps0 = _case(k, _SHARES[share], (0.3, 1.0, 2.5)[k % 3], seed=k)
    n = 3 * _MC_CHUNK + 17
    for costs in (d, 0.0 * d):  # every understatement 0 in the second pass
        got = _region_counts(costs, eps0, {0, 1}, n, 11 + k)
        assert got == _region_counts_whole_block(costs, eps0, {0, 1}, n, 11 + k)
        assert sum(got.values()) == n


@pytest.mark.parametrize("k", [1, 3, 9])
@pytest.mark.parametrize("chunk", [1, 5, 4096, 1 << 15])
def test_region_counts_reuse_the_buffer(monkeypatch, chunk, k):
    """A short last chunk reads only its own rows of a buffer that still
    holds the previous chunk's draws."""
    monkeypatch.setattr("gridbargain.bargaining._MC_CHUNK", chunk)
    n = 37 if chunk == 1 else 3 * chunk + 2
    for share, scale in (("almost_none", 0.3), ("half", 1.0), ("all", 2.5)):
        d, eps0 = _case(k, _SHARES[share], scale, seed=chunk + k)
        assert (_region_counts(d, eps0, {0, 1}, n, k)
                == _region_counts_whole_block(d, eps0, {0, 1}, n, k))


@pytest.mark.parametrize("n", [1, _MC_CHUNK - 1, _MC_CHUNK, _MC_CHUNK + 1,
                               _MC_BLOCK - 1, _MC_BLOCK + 1, 2_300_000])
def test_region_counts_match_whole_block_across_sizes(n):
    for share in ("half", "all"):
        d, eps0 = _case(9, _SHARES[share], 1.0, seed=n)
        assert (_region_counts(d, eps0, {0, 1}, n, 3)
                == _region_counts_whole_block(d, eps0, {0, 1}, n, 3))


@pytest.mark.parametrize("eps0", [-1.0, 0.0, SHIPPED_EPS0])
def test_region_counts_match_whole_block_edge_budgets(eps0):
    for honest in ((), (0,), (0, 1, 2, 3)):
        assert (_region_counts(SHIPPED_D, eps0, honest, 40_000, 8)
                == _region_counts_whole_block(SHIPPED_D, eps0, honest, 40_000, 8))


@pytest.mark.parametrize("k, zeros, seed", [(1, 0, 0), (3, 2, 1), (3, 0, 2), (7, 0, 3),
                                            (8, 0, 4), (9, 1, 5), (11, 0, 6), (13, 0, 7),
                                            (16, 0, 8), (16, 3, 9)])
def test_region_counts_match_whole_block_on_the_boundary(k, zeros, seed):
    """The budget is the row sum of one draw, so summation order decides that draw."""
    rng = np.random.default_rng(seed)
    r = 8 if k <= 8 else 16  # r * (budget / r) == budget exactly
    d = rng.uniform(-300.0, 300.0, r)
    d[1:1 + zeros] = 0.0  # with every other term zero, the sum is one term
    honest = set(range(k, r))
    mags = np.abs(d[:k])
    draws = np.random.Generator(np.random.Philox(key=[seed, 0])).uniform(0.0, 1.0, (8, k))
    for row_sum in (draws * mags).sum(axis=1):
        eps0 = row_sum / r
        assert (_region_counts(d, eps0, honest, 20_000, seed)
                == _region_counts_whole_block(d, eps0, honest, 20_000, seed))


@pytest.mark.parametrize("k", [1, 2, 3, 9])
@pytest.mark.parametrize("chunk", [1, 5, _MC_CHUNK])
def test_region_counts_do_not_depend_on_the_worker_count(monkeypatch, chunk, k):
    """Per-worker spans, each reached by Philox.advance, tally what one
    pass over whole blocks does, for any worker count; 7 workers exceed
    the chunks of every block below but the default-chunk full block.
    The cap on workers is lifted so that 7 CPUs give 7 spans."""
    monkeypatch.setattr("gridbargain.bargaining._MC_CHUNK", chunk)
    monkeypatch.setattr("gridbargain.bargaining._MC_MAX_WORKERS", 7)
    if chunk < _MC_CHUNK:
        # a block boundary within reach of a one- or five-row chunk loop
        monkeypatch.setattr("gridbargain.bargaining._MC_BLOCK", 64)
        monkeypatch.setitem(globals(), "_MC_BLOCK", 64)
    for n in (1, 3, 4 * chunk + 2, _MC_BLOCK + 1):
        for share, scale in (("half", 1.0), ("all", 2.5)):
            d, eps0 = _case(k, _SHARES[share], scale, seed=n + k)
            want = _region_counts_whole_block(d, eps0, {0, 1}, n, k)
            for workers in (1, 2, 3, 7):
                monkeypatch.setattr("gridbargain.bargaining._cpus", lambda: workers)
                assert _region_counts(d, eps0, {0, 1}, n, k) == want


@pytest.mark.parametrize("chunk", [1, 5, 16])
@pytest.mark.parametrize("m", [1, 3, 4, 17, 64, 1000])
@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_spans_tile_the_block_from_multiples_of_four(monkeypatch, chunk, m, workers):
    monkeypatch.setattr("gridbargain.bargaining._MC_CHUNK", chunk)
    spans = _spans(m, workers)
    assert spans[0][0] == 0 and spans[-1][1] == m
    assert all(hi == lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
    assert all(lo < hi and lo % 4 == 0 for lo, hi in spans)
    assert len(spans) <= min(workers, -(-m // chunk))


def test_mc_workers_follow_the_cpus_and_the_chunks(monkeypatch):
    monkeypatch.setattr("gridbargain.bargaining._cpus", lambda: 3)
    assert mc_workers(0) == 0
    assert mc_workers(1) == 1
    assert mc_workers(2 * _MC_CHUNK) == 2
    assert mc_workers(2 * _MC_CHUNK + 1) == 3
    assert mc_workers(5 * _MC_BLOCK) == 3


def test_mc_workers_are_capped_whatever_the_cpus(monkeypatch):
    monkeypatch.setattr("gridbargain.bargaining._cpus", lambda: 64)
    assert mc_workers(_MC_BLOCK) == _MC_MAX_WORKERS
    assert mc_workers(2 * _MC_CHUNK) == min(2, _MC_MAX_WORKERS)
    stats = {}
    _region_counts(SHIPPED_D, SHIPPED_EPS0, {0}, 100_000, 0, stats)
    assert stats == {"mc_workers": _MC_MAX_WORKERS}


@pytest.mark.parametrize("honest, n, workers", [({0}, 1, 1), ({0}, 3 * _MC_CHUNK, 2),
                                                ({0, 1, 2, 3}, 1000, 0)])
def test_region_counts_report_the_workers_they_ran_on(monkeypatch, honest, n, workers):
    monkeypatch.setattr("gridbargain.bargaining._cpus", lambda: 2)
    stats = {}
    region_probabilities(SHIPPED_D, SHIPPED_EPS0, honest, n, stats=stats)
    assert stats == {"mc_workers": workers}


def test_region_counts_golden_shipped():
    got = _region_counts(SHIPPED_D, SHIPPED_EPS0, {0}, 1_000_000, 0)
    assert got == {"all_dishonest_profit": 184, "bargaining_fails": 997172,
                   "succeeds_some_lose": 2644}


def _exact_failure_probability(d, eps0, honest):
    """P(sum_i gamma_i |D_i| > r eps0) for gamma_i ~ U[0, 1].

    Inclusion-exclusion over the vertices of the box: the volume of
    {u in [0, 1]^k : sum a_i u_i <= B} is
    sum_S (-1)^|S| (B - sum_S a_i)_+^k / (k! prod a_i).
    """
    d = _vec(d)
    budget = d.size * float(eps0)
    a = [abs(d[i]) for i in range(d.size) if i not in honest and d[i] != 0.0]
    terms = [(-1) ** len(S) * max(budget - sum(S), 0.0) ** len(a)
             for n in range(len(a) + 1) for S in itertools.combinations(a, n)]
    return 1.0 - math.fsum(terms) / (math.factorial(len(a)) * math.prod(a))


@pytest.mark.parametrize("d, eps0, honest", [
    (SHIPPED_D, SHIPPED_EPS0, {0}),
    (FAV.d, FAV.eps0, {0}),
    (FAV.d, FAV.eps0, {1}),
    (FAV.d, FAV.eps0, {2, 3}),
    (FAV.d, FAV.eps0, set()),
])
def test_failure_probability_matches_inclusion_exclusion(d, eps0, honest):
    mc = region_probabilities(d, eps0, honest, n_samples=1_000_000, seed=5)
    exact = _exact_failure_probability(d, eps0, honest)
    fails = mc["bargaining_fails"]
    assert abs(fails.probability - exact) <= 4 * max(fails.stderr, 1e-6)


def test_region_counts_memory_is_chunk_sized():
    tracemalloc.start()
    try:
        _region_counts(SHIPPED_D, SHIPPED_EPS0, {0}, 1_000_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6  # a whole-block pass holds several 24 MB arrays


def test_region_counts_memory_is_chunk_sized_on_many_cpus(monkeypatch):
    """The worker cap keeps the tally's memory bounded whatever the host."""
    monkeypatch.setattr("gridbargain.bargaining._cpus", lambda: 64)
    tracemalloc.start()
    try:
        _region_counts(SHIPPED_D, SHIPPED_EPS0, {0}, 1_000_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("kwargs, error", [
    ({"n_samples": 0}, InvariantViolation),
    ({"n_samples": -5}, InvariantViolation),
    ({"honest": {4}}, InvariantViolation),
    ({"honest": {-1}}, InvariantViolation),
    ({"honest": {0, 4}}, InvariantViolation),
    ({"seed": np.int64(-1)}, InvariantViolation),
    ({"seed": -1}, InvariantViolation),
    ({"seed": 2 ** 64}, InvariantViolation),
    ({"seed": 1.7}, InvariantViolation),
    ({"seed": 3.0}, InvariantViolation),
    ({"seed": "3"}, InvariantViolation),
    ({"seed": True}, InvariantViolation),
    ({"seed": None}, InvariantViolation),
    ({"d": [0.0, 1e308], "eps0": 5e307, "honest": ()}, InvariantViolation),
    ({"eps0": np.nan}, InvariantViolation),
    ({"eps0": np.inf}, InvariantViolation),
    ({"d": (-61.33, np.inf, 101.48, -23.34)}, InvariantViolation),
    ({"d": (-61.33, 481.18, np.nan, -23.34)}, InvariantViolation),
    ({"eps0": 1e308}, InvariantViolation),
])
def test_region_probabilities_rejects_bad_arguments(monkeypatch, kwargs, error):
    def no_tally(*args):
        raise AssertionError("the tally started")
    monkeypatch.setattr("gridbargain.bargaining._region_counts", no_tally)
    args = dict(d=FAV.d, eps0=FAV.eps0, honest={0}, n_samples=100)
    with pytest.raises(error):
        region_probabilities(**dict(args, **kwargs))


def test_region_probabilities_bounds_only_the_dishonest_costs():
    """An honest user's cost never enters the tally's sums, so it may be
    near the float range; the tally then runs without a numpy warning."""
    out = region_probabilities([1e308, 1.0], 0.5, {0}, 100)
    assert out["all_dishonest_profit"].probability == 1.0


@pytest.mark.parametrize("d, j_soc", [
    ([0.0, 1e308], -5e307),
    ([1e308, 1e308, 1e308], -1e308),
    ([1.0, np.nan], 3.0),
    ([1.0, np.inf], 3.0),
    ([1.0, 2.0], np.inf),
    ([1.0, 2.0], np.nan),
])
@pytest.mark.parametrize("mc_samples", [0, 100])
def test_resilience_report_refuses_bad_scale(monkeypatch, d, j_soc, mc_samples):
    def no_tally(*args):
        raise AssertionError("the tally started")
    monkeypatch.setattr("gridbargain.bargaining._region_counts", no_tally)
    with pytest.raises(InvariantViolation):
        resilience_report(d, j_soc, mc_samples=mc_samples)


@pytest.mark.parametrize("seed", [0, 5, 2 ** 64 - 1])
def test_region_probabilities_takes_any_unsigned_64_bit_seed(seed):
    want = region_probabilities(FAV.d, FAV.eps0, {0}, 1000, seed=seed)
    for same in (np.uint64(seed), np.array(seed, dtype=np.uint64)[()]):
        assert region_probabilities(FAV.d, FAV.eps0, {0}, 1000, seed=same) == want


def test_region_probabilities_keys_seeds_above_2_63_apart():
    """Neighbouring seeds past 2**63 keep distinct streams."""
    a, b = (region_probabilities(FAV.d, FAV.eps0, {0}, 100_000, seed=2 ** 63 + i)
            for i in (0, 1))
    assert a != b


def test_predicate_names_stable():
    assert PREDICATES == ("all_dishonest_profit", "bargaining_fails",
                          "succeeds_some_lose")


# ---------------------------------------------------------------- report

def test_resilience_report_shape():
    rep = resilience_report(FAV.d, FAV.j_soc, gamma=[0.0, 0.05, 0.05, 0.0],
                            honest=[0], mc_samples=10_000, seed=1)
    assert rep["success"]
    assert rep["eps0"] == pytest.approx(FAV.eps0, abs=1e-12)
    assert rep["budget"] == pytest.approx(4 * FAV.eps0, abs=1e-12)
    assert rep["r_tot"] == pytest.approx(0.05 * (481.18 + 101.48), abs=1e-9)
    assert rep["n_dishonest"] == 2
    assert rep["avg_gain_bound"] == pytest.approx(FAV.eps0 / 2, abs=1e-12)
    u2 = rep["users"][1]
    assert u2["benefit"] == pytest.approx(16.77575, abs=1e-9)
    assert set(rep["regions"]) == set(PREDICATES)


def test_resilience_report_zero_cost_user():
    d = np.array([0.0, 50.0, 30.0])
    rep = resilience_report(d, 70.0)
    assert rep["users"][0]["solo_bound"] is None
    assert rep["users"][0]["profit_interval"] is None
    assert rep["users"][1]["solo_bound"] is not None


@pytest.mark.parametrize("gamma", [[0.0, 0.05, 0.05], [0.05], [[0.0] * 4]])
def test_resilience_report_rejects_gamma_of_another_length(gamma):
    """One gamma per user: a short one, or one that numpy would broadcast,
    is bad input rather than a numpy error or a silent broadcast."""
    with pytest.raises(InvariantViolation, match="gamma"):
        resilience_report(FAV.d, FAV.j_soc, gamma=gamma)


@pytest.mark.parametrize("honest", [[4], [-1]])
def test_resilience_report_checks_honest_without_monte_carlo(honest):
    with pytest.raises(InvariantViolation, match="outside"):
        resilience_report(FAV.d, FAV.j_soc, honest=honest, mc_samples=0)
