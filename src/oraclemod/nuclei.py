"""Nuclei (Lawvere-Tierney topologies) on a finite frame.

A nucleus is stored as a total index table over the frame carrier and must
be inflationary, idempotent and finite-meet preserving.  Meet preservation
is an axiom here, not a consequence: on an external finite frame the other
laws do not imply it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import FrameMismatch, InternalInvariantViolation, SizeLimitExceeded
from .frames import Frame, FrameElement, subframe

ENUMERATION_LIMIT = 64

LAWS = ("inflationary", "idempotent", "meet_preservation", "monotone")


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


def _coerce_table(frame: Frame, table) -> np.ndarray:
    if isinstance(table, Mapping):
        arr = np.zeros(len(frame), dtype=np.int32)
        seen = set()
        for k, v in table.items():
            ki = frame.check_element(k)
            arr[ki] = frame.check_element(v)
            seen.add(ki)
        if len(seen) != len(frame):
            raise FrameMismatch("nucleus table is not total on the carrier")
        return arr
    arr = np.asarray(table, dtype=np.int32)
    if arr.shape != (len(frame),) or arr.min() < 0 or arr.max() >= len(frame):
        raise FrameMismatch("nucleus table does not fit the carrier")
    return arr


def validate_nucleus(frame: Frame, table) -> NucleusReport:
    """Check all nucleus laws exhaustively, reporting first-found witnesses."""
    t = _coerce_table(frame, table)
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


def nucleus(frame: Frame, table) -> Nucleus:
    """Wrap a table as a Nucleus after validating the laws."""
    arr = _coerce_table(frame, table)
    report = validate_nucleus(frame, arr)
    if not report.valid:
        raise ValueError(f"table violates nucleus laws: {report.law_names()}")
    return Nucleus(frame, arr)


def canonical_nuclei(frame: Frame, kind: str, p: FrameElement | None = None) -> Nucleus:
    """The named standard nuclei: identity, constant top, open/closed at an
    element, and double negation."""
    if kind == "identity":
        return Nucleus(frame, np.arange(len(frame)))
    if kind == "top":
        return Nucleus(frame, np.full(len(frame), frame.top_index))
    if kind == "double_negation":
        return Nucleus(frame, frame.neg_table[frame.neg_table])
    if kind in ("open", "closed"):
        if p is None:
            raise ValueError(f"{kind} nucleus needs an element")
        pi = frame.check_element(p)
        if kind == "open":
            return Nucleus(frame, frame.implies_table[pi, :])
        return Nucleus(frame, frame.join_table[pi, :])
    raise ValueError(f"unknown nucleus kind {kind!r}")


def nucleus_leq(j: Nucleus, k: Nucleus) -> bool:
    """Pointwise order on nuclei."""
    if j.frame is not k.frame:
        raise FrameMismatch("nuclei live on different frames")
    return bool(j.frame.leq_table[j.table, k.table].all())


def dense_elements(j: Nucleus) -> tuple[FrameElement, ...]:
    """Elements forced by the nucleus, i.e. sent to top."""
    return tuple(
        j.frame.el(int(i)) for i in np.flatnonzero(j.table == j.frame.top_index)
    )


def _close_fixed_set(frame: Frame, seed: frozenset[int]) -> frozenset[int]:
    # Close under binary meets and under x => f for every carrier x.
    meet, imp = frame.meet_table, frame.implies_table
    n = len(frame)
    cur = set(seed) | {frame.top_index}
    frontier = list(cur)
    while frontier:
        f = frontier.pop()
        for x in range(n):
            g = int(imp[x, f])
            if g not in cur:
                cur.add(g)
                frontier.append(g)
        for g in list(cur):
            h = int(meet[f, g])
            if h not in cur:
                cur.add(h)
                frontier.append(h)
    return frozenset(cur)


def _nucleus_of_fixed_set(frame: Frame, fixed: frozenset[int]) -> np.ndarray:
    # j(x) is the least member of the fixed set above x; the set is
    # meet-closed so the meet of all candidates is that least member.
    table = np.full(len(frame), frame.top_index, dtype=np.int32)
    for f in fixed:
        table = np.where(frame.leq_table[:, f], frame.meet_table[table, f], table)
    return table


def enumerate_nuclei(frame: Frame) -> tuple[Nucleus, ...]:
    """All nuclei on the frame, in lexicographic table order.

    The search walks the closure system of meet- and implication-closed
    subsets containing top (exactly the fixed-point sets of nuclei), then
    re-validates every produced table.
    """
    if len(frame) > ENUMERATION_LIMIT:
        raise SizeLimitExceeded(
            f"carrier {len(frame)} exceeds enumeration limit {ENUMERATION_LIMIT}"
        )
    first = _close_fixed_set(frame, frozenset())
    seen = {first}
    stack = [first]
    while stack:
        fixed = stack.pop()
        for e in range(len(frame)):
            if e not in fixed:
                bigger = _close_fixed_set(frame, fixed | {e})
                if bigger not in seen:
                    seen.add(bigger)
                    stack.append(bigger)
    tables = sorted(tuple(map(int, _nucleus_of_fixed_set(frame, f))) for f in seen)
    out = []
    for t in tables:
        report = validate_nucleus(frame, np.array(t, dtype=np.int32))
        if not report.valid:
            raise InternalInvariantViolation(
                f"enumerated table {t} fails laws {report.law_names()}"
            )
        out.append(Nucleus(frame, np.array(t, dtype=np.int32)))
    return tuple(out)


def sup_nuclei(frame: Frame, js: Iterable[Nucleus]) -> Nucleus:
    """Supremum of a family of nuclei, in closed form.

    Every nucleus is the oracle modality of its container of stable queries,
    and the modality of a sum of containers is the sup of their modalities,
    so the sup is the modality of the sum of those containers.
    """
    # Imported here because the containers module builds on this one.
    from .containers import container_sum, oracle_modality, pred_of_nucleus

    js = list(js)
    for j in js:
        if j.frame is not frame:
            raise FrameMismatch("nucleus on a different frame")
    return oracle_modality(container_sum([pred_of_nucleus(j) for j in js], frame))


def fixed_points_frame(j: Nucleus) -> Frame:
    """The frame of j-stable elements, with join rebuilt through j."""
    fixed = [int(i) for i in np.flatnonzero(j.table == np.arange(len(j.frame)))]
    return subframe(j.frame, fixed, j.table)
