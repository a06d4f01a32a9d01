"""Nuclei (Lawvere-Tierney topologies) on a finite frame.

A nucleus is stored as a total index table over the frame carrier and must
be inflationary, idempotent and finite-meet preserving.  Meet preservation
is an axiom here, not a consequence: on an external finite frame the other
laws do not imply it. Every table is an array of carrier indices; ``io``
is the one place that reads one from JSON element names.

A downset frame Down(P) is spatial, so its nuclei are exactly the

    j_S(U) = {y in P : down(y) & S <= U}        for subsets S of P,

distinct for distinct S, and S is read back from any nucleus j as
S(j) = {x : x not in j(down(x) minus {x})}. ``j_table`` builds j_S as the
meet of the single-label rows ``Frame.label_rows`` for x in S, folded
by ``frames.fold``, and ``subset_of`` reads S back with one gather; both also take a
stack of m masks or tables. On this closed form a table is a nucleus iff it
equals j of its own subset (O(n x labels); the law scan runs only on a
table that fails, to name its violations). ``validate_nucleus`` applies
that test to one table and ``nucleus_rows`` to a stack of them, such as
the Kleene tables of a batch of containers. The
sup of a family is j of the intersection of their subsets, enumeration
(``nucleus_stack``) is one ``j_table`` call on all 2^labels subset masks,
and the frame of fixed points is the downset frame of the subposet S.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import frames
from .errors import FrameMismatch, SizeLimitExceeded
from .frames import Frame, FrameElement, Poset, downset_frame

# Cells of the tables nucleus_stack builds at once, 2**labels x carrier.
ENUMERATION_LIMIT = 1 << 14


@dataclass
class NucleusReport:
    """Outcome of an exhaustive law check; one witness per violated law."""

    valid: bool
    violations: list[tuple[str, tuple[FrameElement, ...]]]

    def law_names(self) -> list[str]:
        return [law for law, _ in self.violations]


class Nucleus:
    """A validated closure operator given by its value table."""

    def __init__(self, frame: Frame, table: np.ndarray):
        self.frame = frame
        self.table = np.asarray(table, dtype=np.int32).copy()
        self.table.flags.writeable = False

    def __call__(self, x: FrameElement) -> FrameElement:
        return self.frame.el(int(self.table[self.frame.check_element(x)]))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Nucleus)
            and other.frame is self.frame
            and bool((other.table == self.table).all())
        )

    def __hash__(self) -> int:
        return hash((id(self.frame), self.table.tobytes()))

    def __repr__(self) -> str:
        return f"Nucleus({list(map(int, self.table))})"


def j_table(frame: Frame, subset: np.ndarray) -> np.ndarray:
    """The table of j_S, for S a boolean mask over the frame's sorted labels;
    an (m, labels) stack of masks gives the (m, n) stack of tables."""
    if subset.ndim == 1:
        rows = frame.label_rows[subset]
    else:
        # (labels, m, n): the row of each label in S, else top, the unit of meet
        rows = np.where(subset.T[:, :, None], frame.label_rows[:, None], frame.top_index)
    if rows.shape[0] == 0:
        return np.full(rows.shape[1:], frame.top_index, dtype=np.int32)
    return frames.fold(frame.meet_table, rows)


def subset_of(frame: Frame, table: np.ndarray) -> np.ndarray:
    """S(t) = {x : x not in t(down(x) minus {x})}, a boolean label mask; an
    (m, n) stack of tables gives the (m, labels) stack of masks."""
    members = frame.label_members
    return ~members[table.take(frame.label_strict, axis=-1), np.arange(members.shape[1])]


def _is_own_j(frame: Frame, tables: np.ndarray) -> np.ndarray:
    """Whether each table, along the last axis, equals j of its own label
    subset: the test that accepts a nucleus."""
    return (j_table(frame, subset_of(frame, tables)) == tables).all(axis=-1)


def nucleus_rows(frame: Frame, tables: np.ndarray) -> np.ndarray:
    """Which rows of an (m, n) stack of tables are nuclei, by the accept test
    of ``validate_nucleus``, in chunks whose label rows fit
    ``frames.BLOCK_CELLS`` cells."""
    ok = np.empty(tables.shape[0], dtype=bool)
    for rows in frames.blocks(tables.shape[0], len(frame.poset) * len(frame)):
        ok[rows] = _is_own_j(frame, tables[rows])
    return ok


def validate_nucleus(frame: Frame, table) -> NucleusReport:
    """Check all nucleus laws exhaustively, reporting first-found witnesses.

    A table equal to j of its own label subset is a nucleus; any other
    table goes through the law scan, which names its violations. ``table``
    is an array of carrier indices, one per element in carrier order."""
    t = np.asarray(table, dtype=np.int32)
    if t.shape != (len(frame),) or t.min() < 0 or t.max() >= len(frame):
        raise FrameMismatch("nucleus table does not fit the carrier")
    if _is_own_j(frame, t):
        return NucleusReport(valid=True, violations=[])
    return law_scan(frame, t)


def law_scan(frame: Frame, t: np.ndarray) -> NucleusReport:
    """Check each nucleus law on every element or pair, in O(n**2), with
    the lexicographically first witness of each violated law."""
    n = len(frame)
    leq, meet = frame.leq_table, frame.meet_table
    rng = np.arange(n)
    violations: list[tuple[str, tuple[FrameElement, ...]]] = []

    infl = leq[rng, t]
    if not infl.all():
        x = int(np.flatnonzero(~infl)[0])
        violations.append(("inflationary", (frame.el(x),)))
    idem = t[t] == t
    if not idem.all():
        x = int(np.flatnonzero(~idem)[0])
        violations.append(("idempotent", (frame.el(x),)))
    # j(x /\ y) == j(x) /\ j(y) for every pair
    meets = t.take(meet) == meet[t][:, t]
    if not (meets.all() and t[frame.top_index] == frame.top_index):
        if meets.all():
            violations.append(("meet_preservation", (frame.top,)))
        else:
            x, y = map(int, np.argwhere(~meets)[0])
            violations.append(("meet_preservation", (frame.el(x), frame.el(y))))
    mono = ~leq | leq[t][:, t]
    if not mono.all():
        x, y = map(int, np.argwhere(~mono)[0])
        violations.append(("monotone", (frame.el(x), frame.el(y))))
    return NucleusReport(valid=not violations, violations=violations)


def dense_elements(j: Nucleus) -> tuple[FrameElement, ...]:
    """Elements forced by the nucleus, i.e. sent to top."""
    return tuple(
        j.frame.el(int(i)) for i in np.flatnonzero(j.table == j.frame.top_index)
    )


def nucleus_stack(frame: Frame) -> np.ndarray:
    """All nuclei on the frame as a (2**labels, n) int32 stack of tables, in
    lexicographic table order: the j_S for every subset S of the labels."""
    if len(frame) << len(frame.poset) > ENUMERATION_LIMIT:
        raise SizeLimitExceeded(
            f"2**{len(frame.poset)} nuclei on carrier {len(frame)} exceed the"
            f" enumeration limit of {ENUMERATION_LIMIT} table cells"
        )
    labels = len(frame.poset)
    # row s holds label x iff bit x of s is set
    subsets = (np.arange(1 << labels)[:, None] >> np.arange(labels) & 1).astype(bool)
    tables = j_table(frame, subsets)
    return tables[np.lexsort(tables.T[::-1])]


def enumerate_nuclei(frame: Frame) -> tuple[Nucleus, ...]:
    """All nuclei on the frame, in lexicographic table order: the rows of
    ``nucleus_stack`` as ``Nucleus`` objects."""
    return tuple(Nucleus(frame, t) for t in nucleus_stack(frame))


def sup_nuclei(frame: Frame, js: Iterable[Nucleus]) -> Nucleus:
    """Supremum of a family of nuclei: j of the intersection of their label
    subsets (the identity for the empty family)."""
    subset = np.ones(len(frame.poset), dtype=bool)
    for j in js:
        if j.frame is not frame:
            raise FrameMismatch("nucleus on a different frame")
        subset &= subset_of(frame, j.table)
    return Nucleus(frame, j_table(frame, subset))


def fixed_points_frame(j: Nucleus) -> Frame:
    """The frame of j-stable elements, as the downset frame of the subposet
    S(j): a stable element U corresponds to U & S(j)."""
    poset = j.frame.poset
    kept = np.flatnonzero(subset_of(j.frame, j.table)).tolist()
    # bit i of each kept mask moves to the rank of label i among the kept
    masks = [sum(1 << r for r, i in enumerate(kept) if poset.masks[x] >> i & 1) for x in kept]
    return downset_frame(Poset([poset.labels[x] for x in kept], masks))
