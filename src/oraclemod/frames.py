"""Finite Heyting frames presented as downset lattices of finite posets.

A frame is built once from a poset and is immutable afterwards: the carrier
is the family of downward-closed subsets ordered by inclusion, and the
binary meet, join and Heyting implication are precomputed into integer
tables so that every downstream fixed-point computation is pure table
lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    AntisymmetryViolation,
    FrameMismatch,
    InternalInvariantViolation,
    SizeLimitExceeded,
    UnknownLabel,
)

DEFAULT_CARRIER_LIMIT = 1 << 16


class Poset:
    """A finite poset over string labels, closed reflexively and transitively."""

    def __init__(self, labels: Sequence[str], below: Mapping[str, frozenset[str]]):
        self.labels: tuple[str, ...] = tuple(sorted(labels))
        self.below: dict[str, frozenset[str]] = {x: below[x] for x in self.labels}

    def le(self, a: str, b: str) -> bool:
        if a not in self.below or b not in self.below:
            raise UnknownLabel(f"unknown poset label {a if a not in self.below else b!r}")
        return a in self.below[b]

    def down(self, a: str) -> frozenset[str]:
        """The principal downset of a single element."""
        return self.below[a]

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        return f"Poset({list(self.labels)!r})"


def poset_from_relation(
    labels: Sequence[str], pairs: Iterable[tuple[str, str]]
) -> Poset:
    """Build a poset from generating pairs, taking the reflexive-transitive
    closure. A cycle through distinct labels is rejected."""
    labels = list(labels)
    if len(set(labels)) != len(labels):
        raise UnknownLabel("duplicate labels in poset description")
    known = set(labels)
    below: dict[str, set[str]] = {x: {x} for x in labels}
    for a, b in pairs:
        if a not in known or b not in known:
            missing = a if a not in known else b
            raise UnknownLabel(f"relation mentions undeclared label {missing!r}")
        below[b].add(a)
    # Warshall-style closure: y <= z and x <= y gives x <= z.
    changed = True
    while changed:
        changed = False
        for z in labels:
            extra: set[str] = set()
            for y in below[z]:
                extra |= below[y]
            if not extra <= below[z]:
                below[z] |= extra
                changed = True
    for a in labels:
        for b in below[a]:
            if a != b and a in below[b]:
                raise AntisymmetryViolation(f"cycle through {a!r} and {b!r}")
    return Poset(labels, {x: frozenset(below[x]) for x in labels})


@dataclass(frozen=True)
class FrameElement:
    """An element of one specific frame; compared and combined only within it."""

    frame: "Frame"
    index: int

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(sorted(self.frame.elements[self.index]))

    @property
    def key(self) -> str:
        """Canonical string form, used as a JSON object key."""
        return ",".join(self.labels)

    def __repr__(self) -> str:
        return "{" + self.key + "}"


class Frame:
    """A finite Heyting algebra with cached operation tables.

    ``elements`` holds one frozenset of labels per carrier element; for
    downset frames these are the downward-closed subsets of the generating
    poset, sorted by (size, labels) so that bottom comes first and top last.
    """

    def __init__(
        self,
        elements: Sequence[frozenset[str]],
        leq: np.ndarray,
        meet: np.ndarray,
        join: np.ndarray,
        implies: np.ndarray,
        poset: Poset | None = None,
    ):
        self.elements: tuple[frozenset[str], ...] = tuple(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        self.poset = poset
        self.leq_table = leq
        self.meet_table = meet
        self.join_table = join
        self.implies_table = implies
        for t in (self.leq_table, self.meet_table, self.join_table, self.implies_table):
            t.flags.writeable = False
        n = len(self.elements)
        self.bot_index = int(np.flatnonzero(leq.all(axis=1))[0])
        self.top_index = int(np.flatnonzero(leq.all(axis=0))[0])
        self.neg_table = implies[:, self.bot_index].copy()
        self.neg_table.flags.writeable = False
        self._n = n

    # -- element access ------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def bot(self) -> FrameElement:
        return FrameElement(self, self.bot_index)

    @property
    def top(self) -> FrameElement:
        return FrameElement(self, self.top_index)

    def el(self, index: int) -> FrameElement:
        if not 0 <= index < self._n:
            raise IndexError(index)
        return FrameElement(self, index)

    def element(self, labels: Iterable[str]) -> FrameElement:
        key = frozenset(labels)
        if key not in self._index:
            raise UnknownLabel(f"{sorted(key)!r} is not an element of this frame")
        return FrameElement(self, self._index[key])

    def all_elements(self) -> tuple[FrameElement, ...]:
        return tuple(FrameElement(self, i) for i in range(self._n))

    def check_element(self, x: FrameElement) -> int:
        if x.frame is not self:
            raise FrameMismatch("element belongs to a different frame")
        return x.index

    # -- lattice operations ---------------------------------------------

    def le(self, a: FrameElement, b: FrameElement) -> bool:
        return bool(self.leq_table[self.check_element(a), self.check_element(b)])

    def meet(self, *args: FrameElement) -> FrameElement:
        acc = self.top_index
        for x in args:
            acc = int(self.meet_table[acc, self.check_element(x)])
        return FrameElement(self, acc)

    def join(self, *args: FrameElement) -> FrameElement:
        acc = self.bot_index
        for x in args:
            acc = int(self.join_table[acc, self.check_element(x)])
        return FrameElement(self, acc)

    def implies(self, a: FrameElement, b: FrameElement) -> FrameElement:
        return FrameElement(
            self, int(self.implies_table[self.check_element(a), self.check_element(b)])
        )

    def neg(self, a: FrameElement) -> FrameElement:
        return FrameElement(self, int(self.neg_table[self.check_element(a)]))

    # -- validation ------------------------------------------------------

    def check_laws(self) -> list[str]:
        """Exhaustively check residuation, distributivity and the lattice
        laws. Returns a list of violation descriptions (empty when sound)."""
        n = self._n
        leq, meet, join, imp = (
            self.leq_table,
            self.meet_table,
            self.join_table,
            self.implies_table,
        )
        bad: list[str] = []
        rng = np.arange(n)
        if not (meet == meet.T).all() or not (join == join.T).all():
            bad.append("meet/join not commutative")
        if not (meet[rng, rng] == rng).all() or not (join[rng, rng] == rng).all():
            bad.append("meet/join not idempotent")
        if not (meet[self.top_index] == rng).all():
            bad.append("top is not a meet unit")
        if not (join[self.bot_index] == rng).all():
            bad.append("bot is not a join unit")
        # Order agrees with the operations: a <= b iff meet(a,b) == a.
        if not ((meet == rng[:, None]) == leq).all():
            bad.append("order does not match meet")
        # Associativity via full tables: op[op[a,b],c] == op[a,op[b,c]].
        if not (meet[meet] == meet[:, meet]).all():
            bad.append("meet not associative")
        if not (join[join] == join[:, join]).all():
            bad.append("join not associative")
        # Residuation: meet(a,b) <= c  iff  a <= implies(b,c).
        lhs = leq[meet]                      # [a,b,c] = leq[meet[a,b], c]
        rhs = np.take(leq, imp, axis=1)      # [a,b,c] = leq[a, imp[b,c]]
        if not (lhs == rhs).all():
            a, b, c = np.argwhere(lhs != rhs)[0]
            bad.append(f"residuation fails at ({a},{b},{c})")
        # Finite distributivity: a /\ (b \/ c) == (a /\ b) \/ (a /\ c).
        lhs = meet[np.arange(n)[:, None, None], join[None, :, :]]
        rhs = join[meet[:, :, None], meet[:, None, :]]
        if not (lhs == rhs).all():
            a, b, c = np.argwhere(lhs != rhs)[0]
            bad.append(f"distributivity fails at ({a},{b},{c})")
        return bad


def downset_frame(poset: Poset, carrier_limit: int = DEFAULT_CARRIER_LIMIT) -> Frame:
    """The frame of downward-closed subsets of a poset, ordered by inclusion."""
    downsets: set[frozenset[str]] = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        d = frontier.pop()
        for x in poset.labels:
            if x not in d and poset.down(x) - {x} <= d:
                nd = d | {x}
                if nd not in downsets:
                    if len(downsets) >= carrier_limit:
                        raise SizeLimitExceeded(
                            f"carrier would exceed {carrier_limit} elements"
                        )
                    downsets.add(nd)
                    frontier.append(nd)
    elements = sorted(downsets, key=lambda s: (len(s), tuple(sorted(s))))
    n = len(elements)
    index = {e: i for i, e in enumerate(elements)}
    leq = np.zeros((n, n), dtype=bool)
    meet = np.zeros((n, n), dtype=np.int32)
    join = np.zeros((n, n), dtype=np.int32)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            leq[i, j] = a <= b
            meet[i, j] = index[a & b]
            join[i, j] = index[a | b]
    # Heyting implication in a downset lattice:
    # I => J contains x iff the principal downset of x meets I only inside J.
    imp = np.zeros((n, n), dtype=np.int32)
    downs = {x: poset.down(x) for x in poset.labels}
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            body = frozenset(x for x in poset.labels if downs[x] & a <= b)
            imp[i, j] = index[body]
    return Frame(elements, leq, meet, join, imp, poset=poset)


def subframe(ambient: Frame, indices: Sequence[int], join_map: np.ndarray) -> Frame:
    """Build a frame on a meet- and implication-closed subset of ``ambient``.

    ``join_map`` sends each ambient index to its closure inside the subset;
    the subset join of a and b is ``join_map[ambient.join(a, b)]``.
    """
    idx = list(indices)
    pos = {g: i for i, g in enumerate(idx)}
    n = len(idx)
    leq = ambient.leq_table[np.ix_(idx, idx)].copy()
    meet = np.zeros((n, n), dtype=np.int32)
    join = np.zeros((n, n), dtype=np.int32)
    imp = np.zeros((n, n), dtype=np.int32)
    for i, g in enumerate(idx):
        for j, h in enumerate(idx):
            meet[i, j] = pos[int(ambient.meet_table[g, h])]
            join[i, j] = pos[int(join_map[ambient.join_table[g, h]])]
            imp[i, j] = pos[int(ambient.implies_table[g, h])]
    elements = [ambient.elements[g] for g in idx]
    frame = Frame(elements, leq, meet, join, imp, poset=None)
    bad = frame.check_laws()
    if bad:
        raise InternalInvariantViolation(f"derived frame breaks laws: {bad}")
    return frame

