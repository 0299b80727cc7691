"""Reference layouts shared by the test modules.

``cumulative_storage_lp`` is the storage LP as the package built it
before each battery's state of charge became a column: every SOC bound
is a cumulative sum over the earlier steps. It stays here, verbatim, as
an independent oracle for the state-form builder and the storage DP.
"""

import numpy as np


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
