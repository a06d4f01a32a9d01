"""Finite Heyting frames presented as downset lattices of finite posets.

A frame is built once from a poset and is immutable afterwards: the carrier
is the family of downward-closed subsets ordered by inclusion. The frame is
its downset masks; the binary meet, join and Heyting implication and the
order are integer tables built on first read, so a caller pays only for the
tables it reads, and every fixed-point computation on them is table lookup.
Elements are combined by reading these tables at their carrier indices; the
frame has no element-wise operations.

A downset is stored once, as an int bitmask over the poset's sorted labels.
A poset keeps one mask per label, closed from its generating pairs by
OR-ing along a topological order. A cycle is reported by the first pair of
labels, in label order, that lie on one, found by one pass of Tarjan's
strongly-connected-components algorithm over the labels the topological
sort leaves over: linear in the pairs, 10 ms CPU for a cycle through 4000
labels on a 2-core VM. The downsets are generated once each, walking the
labels along a linear extension (by the size of their principal
downsets): a label extends every downset found so far that holds the rest
of its principal downset. A frame keeps one mask per element.
By Birkhoff, every downset r past the empty one is a downset one smaller,
its parent p, plus one maximal label x: take x as the last label of r along
the linear extension, and p = r - {x}. The carrier is sorted by size, so
its levels (the downsets of one size) are contiguous slices, and the
level pass fills the meet, join and implication tables level by level,
the row of r one gather from the row of p (``_level_pass``). With one
table, ``add[x, i]`` (downset i with label x added), the meet row of r is
p's with x added at the columns that hold x, the join row is p's with x
added everywhere, and the implication row is the meet of p's with j_{x},
since a => b is j_a(b) and j_{p | {x}} is j_p meet j_{x}; the order table
is where meet gives back its row. A table takes n**2 cells of gathers,
where the label sweeps the pass replaced took labels x n**2 label steps.
Every blocked pass takes its slices from ``blocks``, the one place that
applies ``BLOCK_CELLS``; the level pass cuts its rows at every level and
every block, and other passes reduce by an operation table with ``fold``.
Element labels, keys and lookup (``element_index`` finds an element by its
key or its label tuple), and the label tables the closed form of nuclei
reads (label membership, the index of ``down(x) - {x}`` and the
single-label nuclei j_{x}), are derived from the masks on first use, label
membership once per frame, for them and for the level pass.
The carrier is sorted by one int per downset (``_carrier_key``), which is
cheaper to build and compare than a tuple of label positions.

So the label-level verbs build few tables: ``frame build`` none,
``oracle compute`` and an accepted ``nuclei validate`` the meet table
alone, a rejected ``nuclei validate`` meet and order, and ``oracle
compare``, ``verify`` and ``check_laws`` all four. At the 4096 downsets of
12 incomparable labels, a whole ``frame build`` process takes 0.27 s CPU and
32 MB max RSS, ``oracle compute`` 0.35 s and 100 MB, and ``oracle compare``,
which builds every table, 0.54 s and 246 MB (2-core VM, numpy 2.4).

``Frame.check_laws`` checks its two-index laws cell by cell and decides
each three-index law with n**2 cells of work per candidate element, read
from the masks: associativity by Light's test over a generating set,
distributivity from the down(x) being join-dense and join-prime in the
lattice of the tables, and residuation at the down(x) alone (the proofs
are in its docstring). It takes about 1 ms at carriers 64 and 81, 7 ms at
243 and 65-110 ms at 729 (CPU time on a 2-core VM, numpy 2.4). Light's test
is exact, so associativity needs no scan. A residuation or distributivity
law that the decisions refute or leave open is scanned only to name its
first witness, one row a at a time, comparing the two [b, c] sides: n**2
cells of temporaries and at worst cubic time. A sound frame never reaches
the scan, so it is kept plain rather than fast.

One rule decides frame size: a build of more than ``BUILD_COST_LIMIT``
label steps, labels x downsets**2, is refused; the limit is that cost at
the 4096 downsets of 12 incomparable labels. The rule still counts the
label steps of the label sweeps that once built each table, though a table
of the level pass costs about downsets**2 cells: the rule and its message
are unchanged. ``downset_frame`` applies it
first to the least carrier the labels allow (labels + 1 downsets), before
any downset is enumerated, so a chain of 586 labels, the shortest refused,
is refused with its order unread; then after each label, to the downsets
found so far. The rule caps the carrier too: a poset has at most
2**labels downsets, so over 4096 of them take at least 13 labels and 13 x
4097**2 label steps. At 4096 the four tables take 13 bytes per pair,
about 218 MB.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AntisymmetryViolation,
    FrameMismatch,
    SizeLimitExceeded,
    UnknownLabel,
)

# Label steps, labels x carrier**2, at the 4096 downsets of 12 incomparable
# labels: the cost of one label sweep, which built a table before the level
# pass. The longest chain within it has 585 labels and every carrier within
# it has at most 4096 downsets.
BUILD_COST_LIMIT = 12 * 4096 ** 2
# Cells per block of every blocked pass (see ``blocks``).
BLOCK_CELLS = 1 << 18


def blocks(count: int, cells: int) -> list[slice]:
    """Slices covering ``range(count)`` in order, none empty, each of at
    most ``max(1, BLOCK_CELLS // cells)`` items: the blocks of a pass whose
    items take ``cells`` cells each."""
    per = max(1, BLOCK_CELLS // max(1, cells))
    return [slice(lo, min(lo + per, count)) for lo in range(0, count, per)]


def fold(op: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Reduce a non-empty stack of index arrays along its first axis by the
    (n, n) operation table ``op``, pairwise and in place, in log2(len(rows))
    gathers; ``rows`` is overwritten."""
    n, flat = op.shape[0], op.ravel()
    while rows.shape[0] > 1:
        # combine the last half of the rows into the first
        half = rows.shape[0] // 2
        rows[:half] = flat.take(rows[:half] * n + rows[-half:])
        rows = rows[:rows.shape[0] - half]
    return rows[0]


class Poset:
    """A finite poset over sorted string labels, closed reflexively and
    transitively, stored once: bit k of ``masks[i]`` says label k <= label i."""

    def __init__(self, labels: Sequence[str], masks: Sequence[int]):
        self.labels: tuple[str, ...] = tuple(labels)
        self.masks = masks
        self.bit: dict[str, int] = {x: i for i, x in enumerate(self.labels)}

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        return f"Poset({list(self.labels)!r})"


def poset_from_relation(
    labels: Sequence[str], pairs: Iterable[tuple[str, str]]
) -> Poset:
    """Build a poset from generating pairs, taking the reflexive-transitive
    closure. A cycle through distinct labels is rejected, naming the first
    pair of labels in label order that lie on one cycle: the least label on
    any cycle, and the next-least label on a cycle through it."""
    labels = list(labels)
    if len(set(labels)) != len(labels):
        raise UnknownLabel("duplicate labels in poset description")
    order = sorted(labels)
    bit = {x: i for i, x in enumerate(order)}
    lower: list[list[int]] = [[] for _ in order]
    for a, b in pairs:
        if a not in bit or b not in bit:
            missing = a if a not in bit else b
            raise UnknownLabel(f"relation mentions undeclared label {missing!r}")
        lower[bit[b]].append(bit[a])
    below, cyclic = _down_closure(lower)
    if cyclic:
        a, b = _first_cycle_pair(lower, cyclic)
        raise AntisymmetryViolation(f"cycle through {order[a]!r} and {order[b]!r}")
    return Poset(order, below)


def _down_closure(lower: list[list[int]]) -> tuple[list[int], list[int]]:
    """The reflexive-transitive closure of ``lower`` (the labels given
    directly below each label) as one bitmask per label, complete for the
    labels in topological order, which take one OR per pair, and the labels
    a topological sort leaves over, ascending: those on or above a cycle
    through distinct labels."""
    upper: list[list[int]] = [[] for _ in lower]
    waiting = [0] * len(lower)
    for b, lows in enumerate(lower):
        for a in lows:
            if a != b:
                upper[a].append(b)
                waiting[b] += 1
    ready = [i for i, w in enumerate(waiting) if not w]
    below = [1 << i for i in range(len(lower))]
    while ready:
        b = ready.pop()
        for a in lower[b]:
            below[b] |= below[a]
        for c in upper[b]:
            waiting[c] -= 1
            if not waiting[c]:
                ready.append(c)
    return below, [i for i, w in enumerate(waiting) if w]


def _first_cycle_pair(lower: list[list[int]], cyclic: list[int]) -> tuple[int, int]:
    """The least label in a strongly connected component of more than one
    label, and the next-least label in that component, by one iterative
    pass of Tarjan's algorithm over the labels ``cyclic`` (every cycle lies
    among them) and the pairs of ``lower`` between them."""
    inside = [False] * len(lower)
    for v in cyclic:
        inside[v] = True
    index, low = [-1] * len(lower), [0] * len(lower)
    stack: list[int] = []
    on_stack = [False] * len(lower)
    found: list[tuple[int, int]] = []
    count = 0
    for root in cyclic:
        if index[root] >= 0:
            continue
        work = [(root, iter(lower[root]))]
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, edges = work[-1]
            for w in edges:
                if not inside[w]:
                    continue
                if index[w] < 0:
                    # descend into w; v's remaining pairs wait in ``edges``
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(lower[w])))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    # v roots a component: everything above it on the stack
                    component = [stack.pop()]
                    while component[-1] != v:
                        component.append(stack.pop())
                    for w in component:
                        on_stack[w] = False
                    if len(component) > 1:
                        found.append(tuple(sorted(component)[:2]))
    return min(found)


@dataclass(frozen=True)
class FrameElement:
    """An element of one specific frame; compared and combined only within it."""

    frame: "Frame"
    index: int

    @property
    def labels(self) -> tuple[str, ...]:
        return self.frame.element_labels[self.index]

    @property
    def key(self) -> str:
        """Canonical string form, used as a JSON object key."""
        return self.frame.element_keys[self.index]

    def __repr__(self) -> str:
        return "{" + self.key + "}"


class Frame:
    """A finite Heyting algebra whose operation tables are built on first read.

    The carrier is the downsets of ``poset``, stored once: ``masks[i]`` is
    element i as one int bitmask over the poset's sorted labels, as in
    ``Poset.masks``, sorted by (size, labels), so bottom is index 0 and top
    index n - 1. The masks are the whole state a frame starts with. The
    tables (``meet_table``, ``join_table``, ``implies_table`` and
    ``leq_table``, where meet gives back its row) are filled by the level
    pass on first read; the label lists and keys of the elements, their lookup
    ``element_index``, the mask lookup of ``element`` and the label tables
    (``label_members``, ``label_strict``, ``label_rows``) are derived from
    the masks on first use, and ``below``, the elements under each element
    that the samplers draw from, from the order table.
    """

    def __init__(self, poset: Poset, masks: Sequence[int]):
        self.poset = poset
        self.masks = masks
        self._n = len(masks)
        self.bot_index, self.top_index = 0, self._n - 1

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
        labels, bit = set(labels), self.poset.bit
        # an unknown label sets the bit past the last label, in no element
        index = self._mask_index.get(sum(1 << bit.get(x, len(bit)) for x in labels))
        if index is None:
            raise UnknownLabel(f"{sorted(labels)!r} is not an element of this frame")
        return FrameElement(self, index)

    @functools.cached_property
    def _mask_index(self) -> dict[int, int]:
        """Carrier index of each element's mask."""
        return {m: i for i, m in enumerate(self.masks)}

    @functools.cached_property
    def element_labels(self) -> tuple[tuple[str, ...], ...]:
        """``FrameElement.labels`` of every element, in carrier order."""
        names = self.poset.labels
        return tuple(tuple(compress(names, row)) for row in self.label_members.tolist())

    @functools.cached_property
    def element_keys(self) -> tuple[str, ...]:
        """``FrameElement.key`` of every element, in carrier order."""
        return tuple(map(",".join, self.element_labels))

    @functools.cached_property
    def element_reprs(self) -> tuple[str, ...]:
        """``repr`` of every element, in carrier order: the shape names of a
        stable-query container."""
        return tuple(f"{{{key}}}" for key in self.element_keys)

    @functools.cached_property
    def element_index(self) -> dict[str | tuple[str, ...], int]:
        """Carrier index of each element by its key and by its label tuple:
        one lookup for an element as ``io`` writes it."""
        index = dict(zip(self.element_keys, range(self._n)))
        index.update(zip(self.element_labels, range(self._n)))
        return index

    @functools.cached_property
    def below(self) -> tuple[list[int], list[int]]:
        """The elements below each element as two flat lists ``ptr`` and
        ``idx``: those below e are ``idx[ptr[e]:ptr[e + 1]]``, ascending."""
        above, idx = np.nonzero(self.leq_table.T)
        ptr = np.searchsorted(above, np.arange(self._n + 1))
        return ptr.tolist(), idx.tolist()

    # -- operation tables ------------------------------------------------
    #
    # Each is built on first read by the level pass and is read-only: row r
    # past bottom is one gather from the row of its parent p, r minus its
    # added label x (``_levels``), which lies one level below.

    @functools.cached_property
    def _add(self) -> np.ndarray:
        """(labels + 1, n) int32: add[x, i] is downset i with label x added
        where that is a downset, else i; the last row adds nothing."""
        index, n = self._mask_index, self._n
        return np.array([[index.get(m | 1 << x, i) for i, m in enumerate(self.masks)]
                         for x in range(len(self.poset))] + [range(n)],
                        dtype=np.int32).reshape(len(self.poset) + 1, n)

    @functools.cached_property
    def _levels(self) -> list[tuple[slice, np.ndarray, np.ndarray]]:
        """The steps of the level pass, in order: for each block of
        ``blocks`` within one level past bottom, its rows and each row's
        parent and added label.

        The added label x of an element is its last label along the linear
        extension the enumeration walked. It is maximal in the element, since a label above x has a
        larger principal downset and comes later, so the parent, the element
        without x, is a downset. The carrier is sorted by size first, so each
        level is a contiguous slice and the parents of a level lie in the
        one before it."""
        n, members = self._n, self.label_members.T
        label = np.zeros(n, dtype=np.intp)
        for x in _linear_extension(self.poset):
            label[members[x]] = x  # a later label overwrites an earlier one
        index = self._mask_index
        parent = np.array([0] + [index[m ^ 1 << x]
                                 for m, x in zip(self.masks[1:], label[1:].tolist())],
                          dtype=np.intp)
        # the rows past bottom, cut at the end of every level and block
        sizes = [m.bit_count() for m in self.masks]
        cuts = {bisect.bisect_left(sizes, k) for k in range(1, len(self.poset) + 2)}
        cuts = sorted(cuts.union(b.stop for b in blocks(n, n)))
        return [(rows, parent[rows], label[rows]) for rows in map(slice, cuts, cuts[1:])]

    def _level_pass(self, bottom, op: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Read-only (n, n) int32 table whose bottom row is ``bottom`` and
        whose row r past bottom is one gather from the row of its parent p:
        cell b is ``op.flat[offsets[x, b] + row_p[b]]``, x the label r adds
        to p. ``offsets`` is a (labels, n) intp table."""
        # take copies a table that is not C-contiguous whole on every call
        n, flat, offsets = self._n, op.ravel(), np.ascontiguousarray(offsets)
        out = np.empty((n, n), dtype=np.int32)
        out[self.bot_index] = bottom
        for rows, parent, x in self._levels:
            index = offsets.take(x, axis=0)
            index += out.take(parent, axis=0)
            out[rows] = flat.take(index)
            del index  # before the next step makes its own
        return _frozen(out)

    @functools.cached_property
    def meet_table(self) -> np.ndarray:
        """(n, n) int32: meet[a, b] holds the labels in a and in b. Row r is
        its parent's row with x added at the columns b that hold x, where
        down(x) minus {x} lies in both, and kept elsewhere."""
        n, labels = self._n, len(self.poset)
        # row x of add where column b holds x, else its last row
        offsets = np.where(self.label_members.T, np.arange(0, n * labels, n)[:, None], n * labels)
        return self._level_pass(0, self._add, offsets)

    @functools.cached_property
    def join_table(self) -> np.ndarray:
        """(n, n) int32: join[a, b] holds the labels in a or in b. Row r is
        its parent's row with x added everywhere."""
        n, labels = self._n, len(self.poset)
        offsets = np.arange(0, n * labels, n).repeat(n).reshape(labels, n)  # row x of add
        return self._level_pass(np.arange(n), self._add, offsets)

    @functools.cached_property
    def implies_table(self) -> np.ndarray:
        """(n, n) int32: implies[a, b] holds label y iff down(y) meets a
        only inside b. So a => b is j_a(b), and j_r is the meet of j_p and
        j_{x}: row r is the meet of its parent's row with ``label_rows[x]``."""
        offsets = np.multiply(self.label_rows, self._n, dtype=np.intp)
        return self._level_pass(self.top_index, self.meet_table, offsets)

    @functools.cached_property
    def leq_table(self) -> np.ndarray:
        """(n, n) bool: a <= b, where meet gives back row a."""
        return _frozen(self.meet_table == np.arange(self._n, dtype=np.int32)[:, None])

    # -- label tables ----------------------------------------------------
    #
    # Each nucleus of a downset frame is j_S(U) = {y : down(y) & S <= U} for
    # one subset S of the labels (see ``nuclei``); these tables serve it.

    @functools.cached_property
    def label_members(self) -> np.ndarray:
        """(n, labels) bool: whether each sorted label lies in each element,
        read from the binary digits of each mask, least significant first (a
        bit set past the last label keeps every mask at ``labels`` digits)."""
        labels = len(self.poset)
        digits = "".join(bin(m | 1 << labels)[:2:-1] for m in self.masks)
        members = np.frombuffer(digits.encode(), dtype=np.uint8).reshape(self._n, labels)
        return _frozen(members == ord("1"))

    @functools.cached_property
    def label_strict(self) -> np.ndarray:
        """Carrier index of down(x) minus {x} for each label x."""
        index = self._mask_index
        return _frozen(np.array([index[m & ~(1 << x)] for x, m in enumerate(self.poset.masks)],
                                dtype=np.intp))

    @functools.cached_property
    def label_rows(self) -> np.ndarray:
        """(labels, n) int32: row x is the table of j_{x}, top at the
        elements holding x and P minus up(x) elsewhere; C-ordered, so that a
        row is contiguous for the gathers that read rows."""
        return _frozen(np.where(self.label_members.T, self.top_index,
                                self._label_outside[:, None]).astype(np.int32, order="C"))

    @functools.cached_property
    def _label_down(self) -> np.ndarray:
        """Carrier index of down(x) for each label x."""
        index = self._mask_index
        return _frozen(np.array([index[m] for m in self.poset.masks], dtype=np.intp))

    @functools.cached_property
    def _label_outside(self) -> np.ndarray:
        """Carrier index of P minus up(x), the largest downset missing x, for
        each label x: the last element without x."""
        return _frozen(self._n - 1 - self.label_members[::-1].argmin(axis=0))

    def all_elements(self) -> tuple[FrameElement, ...]:
        return tuple(FrameElement(self, i) for i in range(self._n))

    def check_element(self, x: FrameElement) -> int:
        if x.frame is not self:
            raise FrameMismatch("element belongs to a different frame")
        return x.index

    # -- validation ------------------------------------------------------

    def check_laws(self) -> list[str]:
        """Exhaustively check residuation, distributivity and the lattice
        laws. Returns a list of violation descriptions (empty when sound);
        residuation and distributivity name their lexicographically first
        witness (a, b, c).

        The two-index laws are checked cell by cell. Each three-index law is
        then decided from the tables, with n**2 cells of work per candidate
        element; the candidates are read from the masks, the laws only from
        the tables.

        - Associativity of ``op``, by Light's test: the middle elements g
          with op(op(a, g), c) == op(a, op(g, c)) for all a, c are closed
          under ``op`` in any magma, so testing a set that generates the
          carrier under ``op`` decides the law. The set is the candidates
          (top and the P minus up(x) for meet, bot and the down(x) for
          join) and every element their closure under the table misses
          (``_generators``).
        - If the two-index laws hold, both tables are associative and
          absorption holds both ways, the tables form a lattice ordered by
          ``leq``. If every element is the join of the down(x) below it
          (``_join_dense``) and each down(x) is join-prime (``_join_prime``),
          then a -> {x : down(x) <= a} is one-to-one and takes joins to
          unions and meets to intersections, so the lattice is distributive.
          In a downset frame the down(x) are exactly the join-irreducibles,
          and a finite lattice is distributive iff its join-irreducibles are
          join-prime (Davey-Priestley, *Introduction to Lattices and Order*,
          ch. 10), so a sound frame passes both.
        - Once that is proved, every a is the join of the down(x) below it
          and meet distributes over that join, so residuation holds iff it
          holds for a among the down(x) (``_residuated``).

        Associativity is refuted by Light's test itself, which names no
        witness. A residuation or distributivity law that these decisions
        refute or cannot decide goes to ``_scan_laws``, which finds its
        message and first witness; on a sound frame it never runs.
        """
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
        # int16 copies halve the bytes Light's test and absorption gather
        assert n < 1 << 15, "carrier indices must fit int16"
        meet16, join16 = meet.astype(np.int16), join.astype(np.int16)
        down = self._label_down
        if not _associative(meet16, np.append(self._label_outside, self.top_index)):
            bad.append("meet not associative")
        if not _associative(join16, np.append(down, self.bot_index)):
            bad.append("join not associative")
        lattice = (not bad
                   # meet(a, join(a, b)) == a == join(a, meet(a, b))
                   and (np.take_along_axis(meet16, join, axis=1) == rng[:, None]).all()
                   and (np.take_along_axis(join16, meet, axis=1) == rng[:, None]).all())
        distributive = (lattice and _join_dense(leq, join, down, self.bot_index)
                        and _join_prime(leq, join, down))
        if not distributive:
            return bad + self._scan_laws(["residuation fails", "distributivity fails"])
        if not _residuated(leq, meet, imp, down):
            return bad + self._scan_laws(["residuation fails"])
        return bad

    def _scan_laws(self, messages: list[str]) -> list[str]:
        """Each of the named laws, residuation and distributivity, in that
        order, with its lexicographically first witness (a, b, c), if it has
        one: the two [b, c] sides for one a at a time, n**2 cells, until
        they differ. Each law casts the table it gathers through to intp
        once, before its rows."""
        leq, meet, join = self.leq_table, self.meet_table, self.join_table
        laws = {
            # meet(a,b) <= c  iff  a <= implies(b,c); idx is implies
            "residuation fails": (self.implies_table,
                                  lambda a, idx: (leq[meet[a]], leq[a].take(idx))),
            # a /\ (b \/ c) == (a /\ b) \/ (a /\ c); idx is join
            "distributivity fails": (join, lambda a, idx: (meet[a].take(idx),
                                                           join[meet[a]].take(meet[a], axis=1))),
        }
        bad: list[str] = []
        for message in messages:
            table, sides = laws[message]
            idx = None  # the previous law's copy goes before this one is made
            idx = table.astype(np.intp)
            for a in range(self._n):
                diff = np.not_equal(*sides(a, idx))
                if diff.any():
                    b, c = np.argwhere(diff)[0]
                    bad.append(f"{message} at ({a},{b},{c})")
                    break
        return bad


def _generators(op: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """``candidates`` and every element that their closure under the (n, n)
    table ``op`` does not reach: a set that generates the carrier under
    ``op``. The closure adds the products of each newly reached element with
    every reached one, both ways round, so it reads each product once."""
    reached, hit = np.zeros(len(op), dtype=bool), np.zeros(len(op), dtype=bool)
    reached[candidates] = True
    new = np.flatnonzero(reached)
    while new.size:
        old = np.flatnonzero(reached)
        hit[op[np.ix_(new, old)]] = hit[op[np.ix_(old, new)]] = True
        new = np.flatnonzero(hit & ~reached)
        reached[new] = True
    return np.concatenate((candidates, np.flatnonzero(~reached)))


def _associative(op: np.ndarray, candidates: np.ndarray) -> bool:
    """Whether the (n, n) table ``op`` is associative, by Light's test
    (Clifford-Preston, *The Algebraic Theory of Semigroups* I, 1.2): the
    middle elements g with op(op(a, g), c) == op(a, op(g, c)) for every a and
    c are closed under ``op`` in any magma, so it is enough to test a
    generating set, n**2 cells per generator."""
    return all(np.array_equal(op[op[:, g]], op[:, op[g]]) for g in _generators(op, candidates))


def _join_dense(leq: np.ndarray, join: np.ndarray, basis: np.ndarray, bot: int) -> bool:
    """Whether every element is the join of the elements of ``basis`` below
    it, by one ``fold`` over a stack of masked rows."""
    # the bot row keeps the stack non-empty
    with_bot = np.append(basis, bot)
    below = np.where(leq[with_bot], with_bot[:, None], bot)
    return bool((fold(join, below) == np.arange(len(leq))).all())


def _join_prime(leq: np.ndarray, join: np.ndarray, basis: np.ndarray) -> bool:
    """Whether every element j of ``basis`` is join-prime: no b, c have
    j <= join(b, c) while j is under neither. n**2 cells per element."""
    join = join.astype(np.intp)  # cast once for the n**2 gathers
    for j in basis:
        above = leq[j]
        if (above[join] & ~above[:, None] & ~above).any():
            return False
    return True


def _residuated(leq: np.ndarray, meet: np.ndarray, imp: np.ndarray, basis: np.ndarray) -> bool:
    """Whether meet(j, b) <= c iff j <= imp(b, c) for every j in ``basis``
    and every b, c: n**2 cells per basis element."""
    imp = imp.astype(np.intp)  # cast once for the n**2 gathers
    return all(np.array_equal(leq[meet[j]], leq[j][imp]) for j in basis)


def _frozen(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def _check_build_cost(labels: int, n: int) -> None:
    """Refuse a build of labels x n**2 label steps, the cost of one label
    sweep, over ``BUILD_COST_LIMIT``: the one size rule."""
    cost = labels * n * n
    if cost > BUILD_COST_LIMIT:
        raise SizeLimitExceeded(
            f"frame build would take {cost} label steps, over {BUILD_COST_LIMIT}"
        )


def _linear_extension(poset: Poset) -> list[int]:
    """The labels by the size of their principal downsets, a linear
    extension: the order the enumeration walks them in, and the one whose
    last label in each downset the level pass removes."""
    return sorted(range(len(poset)), key=lambda x: poset.masks[x].bit_count())


def downset_frame(poset: Poset) -> Frame:
    """The frame of downward-closed subsets of a poset, ordered by inclusion,
    refused past ``BUILD_COST_LIMIT`` label steps."""
    labels = len(poset)
    # a poset has at least one downset more than labels: the empty one and
    # the principal ones
    _check_build_cost(labels, labels + 1)
    # Label x extends each downset found so far that holds down(x) minus {x}.
    downsets = [0]
    for x in _linear_extension(poset):
        downsets += [d | 1 << x for d in downsets if poset.masks[x] & ~d == 1 << x]
        _check_build_cost(labels, len(downsets))
    return Frame(poset, tuple(sorted(downsets, key=functools.partial(_carrier_key, labels))))


def _carrier_key(labels: int, m: int) -> int:
    """The place of downset ``m`` in the carrier order, by (size, sorted
    labels), as one int: its size, then its bits reversed, descending.

    Labels are sorted, so that order is (size, ascending set-bit positions).
    Let masks A and B of one size first differ in their position lists at
    the j-th position, a_j < b_j, so A comes first. Their positions before
    the j-th agree and B's from the j-th on are at least b_j, so a_j is not
    in B, and a_j is the least bit of the symmetric difference of A and B.
    Reversed, bit p of ``labels`` bits goes to bit labels - 1 - p, so that
    least bit becomes the most significant bit where the reversed masks
    differ: reversed A is the larger. The digits of ``m | 1 << labels``
    from the least significant, read as a number, are the reversed mask
    times two plus one (the bit past the last label keeps the empty poset's
    one digit), below ``2 << labels``, so subtracting them from the size
    shifted past that bound keeps size first.
    """
    return (m.bit_count() << labels + 1) - int(bin(m | 1 << labels)[:1:-1], 2)
