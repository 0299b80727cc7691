"""Metropolis weights, averaging consensus, and local cost shares."""

import numpy as np
import pytest

from gridbargain import consensus
from gridbargain import (DisconnectedGraph, NoConvergence, allocate,
                         allocate_from_consensus, metropolis_weights,
                         run_average_consensus)
from gridbargain.fixtures import REFERENCE_FAVORABLE, random_connected_graph
from gridbargain.graphs import ring_graph


def _is_doubly_stochastic(W):
    return (np.all(W >= -1e-15)
            and np.allclose(W.sum(axis=0), 1.0, atol=1e-12)
            and np.allclose(W.sum(axis=1), 1.0, atol=1e-12))


# ---------------------------------------------------------------- weights

def test_two_node_path_weights():
    W = metropolis_weights(((0, 1),), 2)
    np.testing.assert_allclose(W, [[0.5, 0.5], [0.5, 0.5]])


def test_five_node_ring_weights():
    W = metropolis_weights(ring_graph(5), 5)
    # degree 2 everywhere: every edge weight and diagonal is 1/3
    assert _is_doubly_stochastic(W)
    for i, j in ring_graph(5):
        assert W[i, j] == pytest.approx(1 / 3)
    np.testing.assert_allclose(np.diag(W), 1 / 3)


def test_star_four_weights_by_hand():
    # center 0 with degree 3: edges 1/(1+3) = 1/4, center diagonal
    # 1 - 3/4 = 1/4, leaf diagonals 1 - 1/4 = 3/4
    W = metropolis_weights(((0, 1), (0, 2), (0, 3)), 4)
    np.testing.assert_allclose(W, [
        [0.25, 0.25, 0.25, 0.25],
        [0.25, 0.75, 0.00, 0.00],
        [0.25, 0.00, 0.75, 0.00],
        [0.25, 0.00, 0.00, 0.75],
    ])


def test_weights_random_graphs_doubly_stochastic(rng):
    for _ in range(20):
        n = int(rng.integers(2, 13))
        edges = random_connected_graph(rng, n)
        W = metropolis_weights(edges, n)
        assert _is_doubly_stochastic(W)
        # sparsity pattern: positive only on edges and the diagonal
        allowed = set(edges) | {(i, i) for i in range(n)}
        for i in range(n):
            for j in range(i, n):
                if W[i, j] > 0:
                    assert (i, j) in allowed or (j, i) in allowed


def test_weights_disconnected_rejected():
    with pytest.raises(DisconnectedGraph):
        metropolis_weights(((0, 1),), 4)


# ---------------------------------------------------------------- consensus

def test_equal_states_return_immediately():
    W = metropolis_weights(ring_graph(4), 4)
    run = run_average_consensus(np.full(4, 3.25), W)
    assert run.iterations == 0
    np.testing.assert_array_equal(run.final, np.full(4, 3.25))


def test_two_nodes_meet_in_the_middle():
    W = metropolis_weights(((0, 1),), 2)
    run = run_average_consensus(np.array([0.0, 10.0]), W)
    np.testing.assert_allclose(run.final, [5.0, 5.0], atol=1e-9)
    assert run.iterations >= 1


def test_conservation_and_contraction(rng):
    W = metropolis_weights(random_connected_graph(rng, 7), 7)
    x0 = rng.uniform(-100, 100, size=7)
    run = run_average_consensus(x0, W)
    x, spread = x0, np.ptp(x0)
    for _ in range(run.iterations):
        x = W @ x
        np.testing.assert_allclose(x.sum(), x0.sum(), atol=1e-9)
        assert np.ptp(x) <= spread + 1e-12
        spread = np.ptp(x)
    np.testing.assert_array_equal(run.final, x)
    np.testing.assert_allclose(run.final.sum(), x0.sum(), atol=1e-9)


def test_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(consensus, "MAX_ITER", 2)
    W = metropolis_weights(ring_graph(5), 5)
    with pytest.raises(NoConvergence):
        run_average_consensus(np.arange(5.0), W)


def test_wrong_state_length_rejected():
    W = metropolis_weights(ring_graph(3), 3)
    with pytest.raises(ValueError):
        run_average_consensus(np.zeros(4), W)


# ---------------------------------------------------------------- allocation

def test_reference_ring_fixture():
    # the favorable reference case on the 5-node ring: users seed their
    # declared cost net of their own degradation share, the grid agent
    # the negated trading cost (split of j_soc chosen arbitrarily; only
    # the total is pinned). Oracle by hand: x-hat = 59.31/5 = 11.862 and
    # J1 = -61.33 - 5*11.862/4 = -76.1575.
    case = REFERENCE_FAVORABLE
    c_b = {0: 20.0, 2: 15.0, 3: 18.0}
    c_p = case.j_soc - sum(c_b.values())
    x0 = np.array([case.d[i] - c_b.get(i, 0.0) for i in range(4)] + [-c_p])
    W = metropolis_weights(ring_graph(5), 5)
    run = run_average_consensus(x0, W)
    assert run.iterations <= 200
    np.testing.assert_allclose(run.final, 11.862, atol=1e-8)
    j = allocate_from_consensus(case.d, run.final[:4], r=4)
    assert j[0] == pytest.approx(-76.1575, abs=1e-6)
    assert j[0] == pytest.approx(-76.16, abs=0.01)  # printed reference value


def test_adverse_reference_allocation():
    # direct allocation identity on the adverse day: shares match the
    # frozen reference values to the printed cent
    from gridbargain.fixtures import REFERENCE_ADVERSE
    case = REFERENCE_ADVERSE
    res = allocate(case.d, case.j_soc)
    np.testing.assert_allclose(res.j, [156.55, 472.81, 373.82, 149.67], atol=0.01)
    assert res.epsilon == pytest.approx(8.37, abs=0.01)


def test_zero_average_means_no_surplus():
    s = np.array([5.0, -3.0, 9.0])
    np.testing.assert_array_equal(allocate_from_consensus(s, np.zeros(3), 3), s)


def test_consensus_allocation_matches_direct(rng):
    # settlement by consensus == closed-form allocation, on random instances
    for _ in range(10):
        r = int(rng.integers(2, 7))
        s = rng.uniform(-200, 500, size=r)
        j_soc = s.sum() - rng.uniform(0, 80)
        parts = rng.uniform(0, 30, size=r)
        x0 = np.concatenate([s - parts, [-(j_soc - parts.sum())]])
        W = metropolis_weights(random_connected_graph(rng, r + 1), r + 1)
        run = run_average_consensus(x0, W)
        direct = allocate(s, j_soc)
        local = allocate_from_consensus(s, run.final[:r], r)
        np.testing.assert_allclose(local, direct.j, atol=1e-8)
        # allocation identity: common discount, shares exhaust j_soc
        np.testing.assert_allclose(s - local, direct.epsilon, atol=1e-8)
        assert local.sum() == pytest.approx(j_soc, abs=(r + 1) * 1e-9 + 1e-8)
