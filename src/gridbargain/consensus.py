"""Averaging consensus over the communication graph.

Nodes repeatedly replace their state with a weighted average of their
neighbors' states, x(k+1) = W x(k). With Metropolis weights W is
symmetric doubly stochastic, so the node average is conserved and every
state converges to it. The bargaining layer uses this to let each agent
learn the network-average surplus and derive its own cost share locally,
without anyone publishing a full cost vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graphs
from .errors import NoConvergence

__all__ = [
    "metropolis_weights",
    "run_average_consensus",
    "allocate_from_consensus",
    "ConsensusRun",
    "SPREAD_TOL",
]

SPREAD_TOL = 1e-9  # cents; max-min spread that counts as agreement
MAX_ITER = 50_000


def metropolis_weights(edges, n):
    """Doubly stochastic weight matrix from the local Metropolis rule.

    W[i,j] = 1/(1 + max(deg_i, deg_j)) on edges, diagonal absorbs the
    remainder. Each entry needs only the two endpoint degrees, so agents
    can build their own row from neighbor handshakes.
    """
    edges = graphs.normalize_edges(edges, n)
    graphs.check_connected(edges, n)
    deg = graphs.degrees(edges, n)
    W = np.zeros((n, n))
    for i, j in edges:
        W[i, j] = W[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    W[np.diag_indices(n)] = 1.0 - W.sum(axis=1)
    assert np.all(W >= 0.0)
    assert np.allclose(W.sum(axis=0), 1.0) and np.allclose(W.sum(axis=1), 1.0)
    return W


@dataclass(frozen=True)
class ConsensusRun:
    initial: np.ndarray
    final: np.ndarray
    iterations: int


def run_average_consensus(x0, W):
    """Iterate x <- W x until the max-min spread falls to SPREAD_TOL.

    Returns the run with the final (agreed) states; iteration count is
    the number of multiplications performed. Raises NoConvergence only
    if the MAX_ITER budget runs out, which a valid doubly stochastic W
    on a connected graph does not do.
    """
    x = np.array(x0, dtype=float)
    if x.ndim != 1 or x.shape[0] != W.shape[0]:
        raise ValueError(f"x0 must be a vector of length {W.shape[0]}")
    for k in range(MAX_ITER + 1):
        if float(x.max() - x.min()) <= SPREAD_TOL:
            return ConsensusRun(initial=np.array(x0, dtype=float), final=x, iterations=k)
        x = W @ x
    raise NoConvergence(f"consensus spread above {SPREAD_TOL:g} after {MAX_ITER} iterations")


def allocate_from_consensus(s_i, x_hat_i, r):
    """A node's own cost share from its agreed consensus state.

    With states seeded so the network average is (sum S - J_soc)/(r+1),
    the share J_i = S_i - (r+1) x_hat_i / r charges every user its
    declared cost minus an equal slice of the cooperative surplus. Works
    elementwise for vector inputs.
    """
    return np.asarray(s_i, dtype=float) - (r + 1) * np.asarray(x_hat_i, dtype=float) / r
