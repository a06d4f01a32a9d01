"""Hot fixed-point kernels over frame tables.

Both oracle-modality computations reduce to integer table recursions,
vectorized with numpy over the whole carrier:

* ``kleene_table`` iterates t := s \\/ \\/_a (E_a /\\ (P_a => t)) from t = s
  until it stabilizes, for every start s at once;
* ``prefixed_mask`` / ``bruteforce_table`` realize the same operator as the
  meet of all prefixed points, the independent route the Kleene tables are
  checked against.
"""

from __future__ import annotations

import numpy as np


def kleene_table(meet, join, implies, ext, prd) -> np.ndarray:
    """Least-fixed-point table for the query operator, one entry per start."""
    n = meet.shape[0]
    start = np.arange(n, dtype=np.int32)
    t = start.copy()
    while True:
        nxt = start.copy()
        for a in range(ext.shape[0]):
            nxt = join[nxt, meet[ext[a], implies[prd[a], t]]]
        if (nxt == t).all():
            return t
        t = nxt


def prefixed_mask(leq, meet, implies, ext, prd) -> np.ndarray:
    """Boolean mask of the prefixed points of the query operator."""
    n = meet.shape[0]
    if ext.shape[0] == 0:
        return np.ones(n, dtype=bool)
    carrier = np.arange(n)
    rows = meet[ext[:, None], implies[prd[:, None], carrier[None, :]]]
    return leq[rows, carrier[None, :]].all(axis=0)


def bruteforce_table(leq, meet, implies, ext, prd, top: int) -> np.ndarray:
    """Modality table as the meet of all prefixed points above each start."""
    acc = np.full(meet.shape[0], top, dtype=np.int32)
    for r in np.flatnonzero(prefixed_mask(leq, meet, implies, ext, prd)):
        acc = np.where(leq[:, r], meet[acc, r], acc)
    return acc
