"""Fixed-point kernels over frame tables, for the referees.

The oracle modality itself has a closed form (``containers``); these
kernels compute it from the paper's construction instead, as integer table
recursions vectorized with numpy over the whole carrier, so that it can be
checked against a route that shares no code with it:

* ``query_table`` tabulates the single-query maps
  q(x) = \\/_a (E_a /\\ (P_a => x)) of m containers at once, from their
  shapes concatenated with a count per container: the flat ``ext`` and
  ``prd`` arrays of a ``containers.ContainerBatch`` and the differences of
  its offsets, read as they are. The shapes are laid out
  on one grid of slots, one row per container and as wide as the widest,
  the empty slots filled with a shape whose row is bottom; the rows are
  gathered with flat ``take`` from the raveled tables, in the blocks of
  ``frames.blocks``, and join-reduced along the slots by ``frames.fold``;
* ``kleene_table`` iterates t := s \\/ q(t) from t = s until it stabilizes,
  for every start s of every container at once, in the blocks of
  ``frames.blocks``. Since q depends on t only through the
  value t(s), each round after the tabulation is two lookups per cell. It
  can hand back the tabulation too, the single-query maps of its batch;
* ``prefixed_mask`` / ``bruteforce_table`` realize the same operator for
  one container as the meet of all prefixed points, the second,
  independent referee, reading only the leq, implies and meet tables. By
  the Heyting adjunction, x is prefixed for shape a when
  (P_a => x) <= (E_a => x), so a block of shapes costs two copies of
  implies rows and one flat ``take`` from the raveled leq table. The
  prefixed points r are then met in blocks: a block stacks, for each r,
  the row that is r at the starts below r and top elsewhere, folds the
  stack by meet with ``frames.fold`` and meets it into the table. Both
  passes run in the blocks of ``frames.blocks``.
"""

from __future__ import annotations

import numpy as np

from . import frames


def query_table(meet, join, implies, ext, prd, counts, bot: int) -> np.ndarray:
    """The single-query maps of m containers as an (m, n) table.

    ``ext`` and ``prd`` hold the shapes of the containers one after another,
    ``counts[i]`` of them for container i; a container with no shapes maps
    everything to ``bot``. The containers lie on one grid of (m, widest)
    slots."""
    n = meet.shape[0]
    meet_flat, join_flat, imp_flat = meet.ravel(), join.ravel(), implies.ravel()
    counts = np.asarray(counts, dtype=np.intp)
    m, width = counts.shape[0], int(counts.max(initial=0))
    # Slot (i, a) holds shape a of container i. The slots past its count
    # hold the shape (bot, bot), whose row is bot: the unit of join.
    filled = np.arange(width) < counts[:, None]
    e_slots = np.full((m, width), bot, dtype=np.int32)
    p_slots = np.full((m, width), bot, dtype=np.int32)
    e_slots[filled], p_slots[filled] = ext, prd
    q = np.full((m, n), bot, dtype=np.int32)
    carrier = np.arange(n)
    for cols in frames.blocks(width, n):
        for rows in frames.blocks(m, n * (cols.stop - cols.start)):
            # block[a, i, x] = E_a /\ (P_a => x) for slot a of container i;
            # indices stay below n**2, which int32 holds under the carrier limit.
            e = e_slots[rows, cols].T[:, :, None] * n
            p = p_slots[rows, cols].T[:, :, None] * n
            part = frames.fold(join, meet_flat.take(e + imp_flat.take(p + carrier)))
            q[rows] = part if cols.start == 0 else join_flat.take(q[rows] * n + part)
    return q


def kleene_table(meet, join, implies, ext, prd, counts, bot: int, maps=None) -> np.ndarray:
    """Least-fixed-point tables of the query operators of m containers, laid
    out as for ``query_table``: row i has one entry per start. ``maps``, if
    given, an (m, n) array, receives the ``query_table`` rows the iteration
    starts from."""
    n = meet.shape[0]
    q = query_table(meet, join, implies, ext, prd, counts, bot)
    if maps is not None:
        maps[:] = q
    join_flat = join.ravel()
    starts = np.arange(n, dtype=np.intp) * n  # row s of the raveled join
    for block in frames.blocks(q.shape[0], n):
        chunk = q[block]
        rows = np.arange(chunk.shape[0], dtype=np.intp)[:, None] * n
        q_flat = chunk.ravel()
        t = np.broadcast_to(np.arange(n, dtype=np.int32), chunk.shape)
        while True:
            # a converged row is a fixed point, so further rounds keep it
            nxt = join_flat.take(starts + q_flat.take(rows + t))
            if (nxt == t).all():
                break
            t = nxt
        chunk[:] = t  # the chunk's query rows are not read again
    return q


def prefixed_mask(leq, implies, ext, prd) -> np.ndarray:
    """Boolean mask of the prefixed points of the query operator: the x with
    E_a /\\ (P_a => x) <= x for every shape a, tested as
    (P_a => x) <= (E_a => x), its form under the Heyting adjunction."""
    n = implies.shape[0]
    leq_flat = leq.ravel()
    ok = np.ones(n, dtype=bool)
    for rows in frames.blocks(ext.shape[0], n):
        # cell (a, x) of the raveled leq: row P_a => x, column E_a => x;
        # indices stay below n**2, which int32 holds under the carrier limit
        lhs = implies[prd[rows]]
        lhs *= n
        lhs += implies[ext[rows]]
        ok &= leq_flat.take(lhs).all(axis=0)
    return ok


def bruteforce_table(leq, meet, implies, ext, prd, top: int) -> np.ndarray:
    """Modality table as the meet of all prefixed points above each start."""
    n = meet.shape[0]
    meet_flat = meet.ravel()
    acc = np.full(n, top, dtype=np.int32)
    r = np.flatnonzero(prefixed_mask(leq, implies, ext, prd))
    for b in frames.blocks(r.shape[0], n):
        # row i, column s: the prefixed point r_i if s <= r_i, else top
        part = frames.fold(meet, np.where(leq[:, r[b]].T, r[b, None], top))
        acc = meet_flat.take(acc * n + part)
    return acc
