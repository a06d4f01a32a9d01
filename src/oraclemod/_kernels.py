"""Fixed-point kernels over frame tables, for the referees.

The oracle modality itself has a closed form (``containers``); these
kernels compute it from the paper's construction instead, as integer table
recursions vectorized with numpy over the whole carrier, so that it can be
checked against a route that shares no code with it:

* ``query_table`` tabulates the single-query map
  q(x) = \\/_a (E_a /\\ (P_a => x)) once over the carrier: the k-by-n rows
  are gathered with flat ``take`` from the raveled tables, in blocks of
  at most ``frames.BLOCK_CELLS`` cells, and join-reduced pairwise. It is
  also the table of ``containers.instance_prenucleus``;
* ``kleene_table`` iterates t := s \\/ q(t) from t = s until it stabilizes,
  for every start s at once. Since q depends on t only through the value
  t(s), each round after the tabulation is two O(n) lookups;
* ``prefixed_mask`` / ``bruteforce_table`` realize the same operator as the
  meet of all prefixed points, the second, independent referee.
"""

from __future__ import annotations

import numpy as np

from . import frames


def query_table(meet, join, implies, ext, prd, bot: int) -> np.ndarray:
    """The single-query map q as a length-n table; constant ``bot`` when
    there are no shapes."""
    n = meet.shape[0]
    meet_flat, join_flat, imp_flat = meet.ravel(), join.ravel(), implies.ravel()
    carrier = np.arange(n)
    q = None
    rows = max(1, frames.BLOCK_CELLS // n)
    for lo in range(0, ext.shape[0], rows):
        # block[a, x] = E_a /\ (P_a => x); indices stay below n**2, which
        # int32 holds for every carrier whose tables fit in memory.
        e, p = ext[lo:lo + rows, None] * n, prd[lo:lo + rows, None] * n
        block = meet_flat.take(e + imp_flat.take(p + carrier))
        while block.shape[0] > 1:
            # join the last half of the rows into the first, in place
            half = block.shape[0] // 2
            block[:half] = join_flat.take(block[:half] * n + block[-half:])
            block = block[:block.shape[0] - half]
        # a copy, so that q does not keep the whole block alive
        q = block[0].copy() if q is None else join_flat.take(q * n + block[0])
    return np.full(n, bot, dtype=np.int32) if q is None else q


def kleene_table(meet, join, implies, ext, prd, bot: int) -> np.ndarray:
    """Least-fixed-point table for the query operator, one entry per start."""
    n = meet.shape[0]
    q = query_table(meet, join, implies, ext, prd, bot)
    join_flat = join.ravel()
    starts = np.arange(n, dtype=np.intp) * n  # row s of the raveled join
    t = np.arange(n, dtype=np.int32)
    while True:
        nxt = join_flat.take(starts + q.take(t))
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
