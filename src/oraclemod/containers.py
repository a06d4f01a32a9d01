"""Propositional containers over a frame and their induced modalities.

A container lists finitely many query shapes; each shape carries an extent
(the stage at which the query exists) and a predicate value (the truth of
its answer).  Globally-defined containers have extent top everywhere.  The
induced modality, the least nucleus forcing the container, is computed in
closed form: a nucleus j_S (see ``nuclei``) forces the container iff S
misses bad(c) = \\/_a (E(a) minus P(a)), a union of label sets, so the
modality is j of the labels outside bad(c).

The closed form reads the label membership masks and the label rows
j_{x}, folded by the meet table. Two referees compute the same nucleus
from the paper's construction, the least fixed point above s of

    t  |->  s \\/ \\/_a ( E(a) /\\ (P(a) => t) )

one by Kleene iteration, from the meet, join and implies tables, and one
as the meet of all prefixed points (``oracle_modality_bruteforce``), from
the leq, implies and meet tables alone; neither computes its table
through the closed form, which only validates them.
``oracle_modalities_kleene`` iterates a batch of containers in one kernel
call, validates all their tables in one batched test and returns them as
an (m, n) stack, and on request hands back the single-query maps of the
batch, which the kernel tabulates first; ``oracle_modality_kleene`` wraps
its one row as a ``Nucleus``. The kernel lays a batch out on one grid of
slots as wide as its widest container.

``IndexedPropContainer`` is one container, read from a file or built by a
library caller: it keeps its shapes as built, with aligned ``ext``/``prd``
carrier-index arrays (joins commute). The constructor takes frame elements;
containers read from files, sums and ``pred_of_nucleus`` are built from
carrier indices by ``of_indices``. ``ContainerBatch`` holds many
containers as one flat pair of shape arrays with row offsets, which is
what the kernel reads; the ``verify`` referees draw straight into batches,
``stable_query_batch`` builds the stable-query containers of a stack of
nuclei with one meet gather, and ``ContainerBatch.forced_by`` judges every
row against its own table at once. A batch names its shapes only when a
row is built as an ``IndexedPropContainer``. ``instance_reducible`` walks
the operation tables index by index.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from . import _kernels
from .errors import FrameMismatch, InternalInvariantViolation
from .frames import Frame, FrameElement
from .nuclei import Nucleus, j_table, law_scan, nucleus_rows, validate_nucleus


class IndexedPropContainer:
    """Finitely many shapes with extent and predicate values in one frame."""

    def __init__(
        self,
        frame: Frame,
        pred: Mapping[str, FrameElement],
        extent: Mapping[str, FrameElement] | None = None,
    ):
        shapes = list(pred)
        if extent is None:
            ext = [frame.top_index] * len(shapes)
        elif extent.keys() != pred.keys():
            raise FrameMismatch("extent and pred must share the same shapes")
        else:
            ext = [frame.check_element(extent[a]) for a in shapes]
        prd = [frame.check_element(pred[a]) for a in shapes]
        self._store(frame, shapes, ext, prd)

    @classmethod
    def of_indices(cls, frame: Frame, shapes: Sequence[str], ext, prd):
        """A container from carrier-index arrays aligned with ``shapes``,
        unchecked: the route of every container the package builds or reads."""
        c = cls.__new__(cls)
        c._store(frame, shapes, ext, prd)
        return c

    def _store(self, frame: Frame, shapes: Sequence[str], ext, prd) -> None:
        self.frame = frame
        self.shapes: tuple[str, ...] = tuple(shapes)
        self.ext = np.asarray(ext, dtype=np.int32)
        self.prd = np.asarray(prd, dtype=np.int32)

    def __len__(self) -> int:
        return len(self.shapes)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{a}: {self.frame.el(int(p))!r}<={self.frame.el(int(e))!r}"
            for a, e, p in zip(self.shapes, self.ext, self.prd)
        )
        return f"Container({parts})"


def validate_container(c: IndexedPropContainer) -> bool:
    """A container is valid when every predicate sits under its extent:
    each label of P(a) lies in E(a)."""
    members = c.frame.label_members
    return not (members[c.prd] & ~members[c.ext]).any()


def sum_shapes(parts: Sequence[Sequence[str]]) -> tuple[str, ...]:
    """The shape names of a sum: each component's, tagged by its index."""
    return tuple(f"{i}:{a}" for i, names in enumerate(parts) for a in names)


def container_sum(
    cs: Sequence[IndexedPropContainer], frame: Frame | None = None
) -> IndexedPropContainer:
    """Disjoint union of containers, shapes tagged by component index.

    The nullary sum is the empty container; it needs the frame spelled out.
    """
    if not cs:
        if frame is None:
            raise FrameMismatch("empty sum needs an explicit frame")
        return IndexedPropContainer(frame, {})
    frame = cs[0].frame
    if any(c.frame is not frame for c in cs):
        raise FrameMismatch("containers on different frames")
    return IndexedPropContainer.of_indices(
        frame,
        sum_shapes([c.shapes for c in cs]),
        np.concatenate([c.ext for c in cs]),
        np.concatenate([c.prd for c in cs]),
    )


class ContainerBatch:
    """m containers on one frame as flat shape arrays: row i owns the shapes
    ``offsets[i]`` up to ``offsets[i + 1]`` of the int32 ``ext`` and ``prd``.

    ``names[i]`` is the shape-name tuple of row i, one tuple shared by every
    row of its kind, or None for a stable-query row, whose names are the
    frame's ``element_reprs``. Names are read only when a row is built as an
    ``IndexedPropContainer``, by indexing or iterating the batch."""

    def __init__(self, frame: Frame, ext, prd, offsets, names: list):
        self.frame = frame
        self.ext = np.asarray(ext, dtype=np.int32)
        self.prd = np.asarray(prd, dtype=np.int32)
        self.offsets = np.asarray(offsets, dtype=np.intp)
        self.names = names

    @classmethod
    def of(cls, frame: Frame, cs: Sequence[IndexedPropContainer]) -> ContainerBatch:
        """A batch as it is, or the batch of a sequence of containers: their
        sum's shape arrays, cut into one row per container."""
        if isinstance(cs, ContainerBatch):
            if cs.frame is not frame:
                raise FrameMismatch("containers on different frames")
            return cs
        if any(c.frame is not frame for c in cs):
            raise FrameMismatch("containers on different frames")
        total = container_sum(cs, frame)
        offsets = np.cumsum([0] + [len(c) for c in cs])
        return cls(frame, total.ext, total.prd, offsets, [c.shapes for c in cs])

    @classmethod
    def concat(cls, frame: Frame, batches: Sequence[ContainerBatch]) -> ContainerBatch:
        """The rows of several batches on ``frame``, one batch after another."""
        if any(b.frame is not frame for b in batches):
            raise FrameMismatch("containers on different frames")
        if len(batches) == 1:
            return batches[0]
        none = np.zeros(0, dtype=np.int32)
        bases = np.cumsum([0] + [len(b.ext) for b in batches])
        return cls(frame,
                   np.concatenate([b.ext for b in batches] + [none]),
                   np.concatenate([b.prd for b in batches] + [none]),
                   np.concatenate([[0]] + [b.offsets[1:] + base
                                           for b, base in zip(batches, bases)]),
                   [names for b in batches for names in b.names])

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, i: int) -> IndexedPropContainer:
        i = range(len(self))[i]
        lo, hi = self.offsets[i], self.offsets[i + 1]
        names = self.names[i]
        return IndexedPropContainer.of_indices(
            self.frame, self.frame.element_reprs if names is None else names,
            self.ext[lo:hi], self.prd[lo:hi])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    @property
    def counts(self) -> np.ndarray:
        """The number of shapes of each row."""
        return np.diff(self.offsets)

    def take(self, rows) -> ContainerBatch:
        """The batch of the given rows, in that order (a row may repeat)."""
        rows = np.asarray(rows, dtype=np.intp)
        starts = self.offsets[rows]
        counts = self.offsets[rows + 1] - starts
        offsets = np.zeros(len(rows) + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        shapes = np.repeat(starts - offsets[:-1], counts) + np.arange(offsets[-1])
        return ContainerBatch(self.frame, self.ext[shapes], self.prd[shapes], offsets,
                              [self.names[r] for r in rows.tolist()])

    def forced_by(self, tables: np.ndarray) -> np.ndarray:
        """``forced_by`` of every row at once: whether row i is forced by
        ``tables[i]``, E(a) <= t(P(a)) for each of its shapes a. One gather
        from leq judges every shape, and a row is forced when it has no
        failing shape, so an empty row is forced."""
        m = len(self)
        row = np.repeat(np.arange(m), self.counts)
        ok = self.frame.leq_table[self.ext, tables[row, self.prd]]
        return np.bincount(row[~ok], minlength=m) == 0


def _law_violation(report) -> InternalInvariantViolation:
    return InternalInvariantViolation(
        f"computed modality violates nucleus laws: {report.law_names()}"
    )


def oracle_modality(c: IndexedPropContainer) -> Nucleus:
    """Least nucleus forcing the container: j of the labels outside
    bad(c) = \\/_a (E(a) minus P(a))."""
    members = c.frame.label_members
    bad = (members[c.ext] & ~members[c.prd]).any(axis=0)
    return Nucleus(c.frame, j_table(c.frame, ~bad))


def oracle_modalities_kleene(
    frame: Frame, cs: Sequence[IndexedPropContainer], maps: np.ndarray | None = None
) -> np.ndarray:
    """Referee: the least nucleus forcing each container by Kleene iteration
    from s, the paper's construction, in one kernel call for all of them,
    as an (m, n) stack of tables. ``maps``, if given, an (m, n) array,
    receives the single-query maps t |-> \\/_a (E(a) /\\ (P(a) => t)) of the
    containers, which the kernel tabulates before it iterates. Each table
    is checked to be a nucleus; the first that is not raises
    ``InternalInvariantViolation`` naming the laws it violates. ``cs`` is a
    ``ContainerBatch``, taken as it is, or a sequence of containers."""
    batch = ContainerBatch.of(frame, cs)
    tables = _kernels.kleene_table(frame.meet_table, frame.join_table, frame.implies_table,
                                   batch.ext, batch.prd, batch.counts, frame.bot_index, maps)
    bad = np.flatnonzero(~nucleus_rows(frame, tables))
    if bad.size:
        raise _law_violation(law_scan(frame, tables[bad[0]]))
    return tables


def oracle_modality_kleene(c: IndexedPropContainer) -> Nucleus:
    """Referee: ``oracle_modalities_kleene`` of the one container."""
    one = ContainerBatch(c.frame, c.ext, c.prd, [0, len(c)], [c.shapes])
    return Nucleus(c.frame, oracle_modalities_kleene(c.frame, one)[0])


def oracle_modality_bruteforce(c: IndexedPropContainer) -> Nucleus:
    """Independent route: the meet of all prefixed points above each start."""
    frame = c.frame
    table = _kernels.bruteforce_table(
        frame.leq_table,
        frame.meet_table,
        frame.implies_table,
        c.ext,
        c.prd,
        frame.top_index,
    )
    report = validate_nucleus(frame, table)
    if not report.valid:
        raise _law_violation(report)
    return Nucleus(frame, table)


def forced_by(c: IndexedPropContainer, table: np.ndarray) -> bool:
    """Whether a table over c's carrier answers every query of c at its
    stage: E(a) <= t(P(a)) for every shape a."""
    return bool(c.frame.leq_table[c.ext, table[c.prd]].all())


def forces(j: Nucleus, c: IndexedPropContainer) -> bool:
    """Whether the nucleus answers every query at its stage: E(a) <= j(P(a))."""
    if j.frame is not c.frame:
        raise FrameMismatch("nucleus and container on different frames")
    return forced_by(c, j.table)


def stable_query_batch(frame: Frame, tables: np.ndarray) -> ContainerBatch:
    """The container of stable queries of each row of an (m, n) stack of
    nucleus tables j, as one batch: one shape per element s, in carrier
    order, existing at stage j(s) and asking for s /\\ j(s), which is s
    itself when j is inflationary, with one meet gather for the stack."""
    m, n = tables.shape
    prd = frame.meet_table[np.arange(n), tables]
    return ContainerBatch(frame, tables.ravel(), prd.ravel(), np.arange(0, m * n + 1, n),
                          [None] * m)


def pred_of_nucleus(j: Nucleus) -> IndexedPropContainer:
    """The container of stable queries of one nucleus."""
    frame = j.frame
    prd = frame.meet_table[np.arange(len(frame)), j.table]
    return IndexedPropContainer.of_indices(frame, frame.element_reprs, j.table, prd)


def instance_reducible(c: IndexedPropContainer, d: IndexedPropContainer) -> bool:
    """Every c-query is answerable from one d-query at its own stage:
    E_c(a) <= \\/_b (E_d(b) /\\ (P_d(b) => P_c(a))), one shape pair at a
    time through the operation tables, sharing no code with ``query_table``:
    the independent route of the ``instance-vs-forcing`` referee."""
    if c.frame is not d.frame:
        raise FrameMismatch("containers on different frames")
    frame = c.frame
    meet, join, imp = frame.meet_table, frame.join_table, frame.implies_table
    for ea, pa in zip(c.ext, c.prd):
        answerable = frame.bot_index
        for eb, pb in zip(d.ext, d.prd):
            answerable = join[answerable, meet[eb, imp[pb, pa]]]
        if not frame.leq_table[ea, answerable]:
            return False
    return True
