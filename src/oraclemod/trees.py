"""Oracle-computation trees over set-valued containers.

This module works in a classical two-valued meta: a container is either
degenerate (some shape has no positions, so the induced modality is
trivial and equality collapses) or not (the modality is identity).  Trees
are plain inductive values; the equifoliate predicate singles out those
that compute at most one value up to that collapsed equality, and such
trees descend to canonical sheaf elements. A member set is the values that
pass ``membership``.

The randomized law suites draw every integer through ``_draws.randbelow``,
which reproduces ``random.Random``'s ``choice``, ``randint`` and
``randrange`` draw for draw, so a seed names the same cases, and the same
reports, as it did when the suites called those methods. Every law goes
through the module-level ``tree_bind``, ``membership``, ``member_set``,
``equifoliate`` and ``delta``, so a broken one fails its suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ._draws import randbelow
from .errors import InternalInvariantViolation, NotEquifoliate, UnknownLabel


class SetContainer:
    """Shapes with finite (possibly empty) position sets."""

    def __init__(self, positions: Mapping[str, Sequence[str]]):
        self.shapes: tuple[str, ...] = tuple(sorted(positions))
        self.positions: dict[str, tuple[str, ...]] = {
            a: tuple(sorted(positions[a])) for a in self.shapes
        }
        self.degenerate: bool = any(not ps for ps in self.positions.values())

    @classmethod
    def _sorted(cls, positions: dict[str, tuple[str, ...]]) -> "SetContainer":
        """The container of ``positions``, whose shapes and position tuples
        are already in sorted order, without sorting them again."""
        c = cls.__new__(cls)
        c.shapes = tuple(positions)
        c.positions = positions
        c.degenerate = not all(positions.values())
        return c

    def __repr__(self) -> str:
        return f"SetContainer({self.positions!r})"


@dataclass(frozen=True, slots=True)
class Leaf:
    value: str


@dataclass(frozen=True, slots=True)
class Node:
    shape: str
    children: tuple[tuple[str, "Tree"], ...]  # keyed by position, sorted


Tree = Leaf | Node


def leaf_values(t: Tree) -> frozenset[str]:
    if isinstance(t, Leaf):
        return frozenset((t.value,))
    out: set[str] = set()
    for _, sub in t.children:
        out |= leaf_values(sub)
    return frozenset(out)


def modal_eq(c: SetContainer, x: str, y: str) -> bool:
    """Equality up to the container's modality: plain equality unless the
    container is degenerate, in which case everything is identified."""
    return x == y or c.degenerate


def membership(c: SetContainer, x: str, t: Tree) -> bool:
    """x is computed by t: at a leaf up to modal equality, at a node along
    every branch (vacuously at empty-position nodes)."""
    if isinstance(t, Leaf):
        return modal_eq(c, x, t.value)
    for _, sub in t.children:
        if not membership(c, x, sub):
            return False
    return True


def member_set(c: SetContainer, t: Tree, values: Sequence[str]) -> frozenset[str]:
    """The values that t computes, by ``membership``."""
    return frozenset([x for x in values if membership(c, x, t)])


def _ambient_values(t: Tree, values: Sequence[str] | None) -> tuple[str, ...]:
    if values is not None:
        return tuple(values)
    # Leaf values decide membership for every occurring value; one fresh
    # value stands in for all the others.
    vs = sorted(leaf_values(t))
    fresh = "#fresh"
    while fresh in vs:
        fresh += "'"
    return tuple(vs) + (fresh,)


@dataclass
class EquiCheck:
    ok: bool
    witness: tuple[str, str, str] | None  # (value, position u, position v)
    values: tuple[str, ...]


def equifoliate(
    c: SetContainer, t: Tree, values: Sequence[str] | None = None
) -> EquiCheck:
    """Leaves always; a node when all children are equifoliate and sibling
    subtrees have the same member set over the ambient values."""
    vals = _ambient_values(t, values)

    def go(s: Tree) -> tuple[tuple[str, str, str] | None, frozenset[str]]:
        # One post-order pass: the first witness, else s's member set.
        if isinstance(s, Leaf):
            return None, member_set(c, s, vals)
        sets = []
        for u, sub in s.children:
            w, mu = go(sub)
            if w is not None:
                return w, mu
            sets.append((u, mu))
        for u, mu in sets:
            for v, mv in sets:
                missing = mu - mv
                if missing:
                    return (sorted(missing)[0], u, v), mu
        # equal sibling sets are the node's own; a childless node has all
        return None, sets[0][1] if sets else frozenset(vals)

    w, _ = go(t)
    return EquiCheck(ok=w is None, witness=w, values=vals)


@dataclass(frozen=True)
class EquiTree:
    """A tree together with the record of its equifoliate check."""

    tree: Tree
    certificate: tuple[str, ...]  # ambient values the check ran over

    @staticmethod
    def check(
        c: SetContainer, tree: Tree, values: Sequence[str] | None = None
    ) -> "EquiTree":
        """Certify ``tree`` as equifoliate over ``values``, which must hold
        every leaf value (by default the leaf values and one fresh value):
        a leaf outside them would pass unseen, and ``delta`` then fail."""
        if values is not None:
            unknown = leaf_values(tree).difference(values)
            if unknown:
                raise UnknownLabel(f"leaf value {min(unknown)!r} is not among the values")
        res = equifoliate(c, tree, values)
        if not res.ok:
            raise NotEquifoliate(f"tree is not equifoliate, witness {res.witness}")
        return EquiTree(tree, res.values)


def tree_bind(f: Callable[[str], Tree], t: Tree) -> Tree:
    """Graft f at every leaf."""
    if isinstance(t, Leaf):
        return f(t.value)
    return Node(t.shape, tuple([(u, tree_bind(f, sub)) for u, sub in t.children]))


@dataclass(frozen=True)
class CanonicalSheafElement:
    """Member-set form of a sheafification element: either the unique point
    of a collapsed (degenerate) sheaf, or a pure value."""

    collapsed: bool
    value: str | None = None

    @staticmethod
    def pure(v: str) -> "CanonicalSheafElement":
        return CanonicalSheafElement(collapsed=False, value=v)

    @staticmethod
    def collapse() -> "CanonicalSheafElement":
        return CanonicalSheafElement(collapsed=True)

    def contains(self, x: str) -> bool:
        return True if self.collapsed else x == self.value


def delta(c: SetContainer, e: EquiTree) -> CanonicalSheafElement:
    """Descend an equifoliate tree to its canonical sheaf element."""
    if c.degenerate:
        return CanonicalSheafElement.collapse()
    vals = _ambient_values(e.tree, None)
    members = member_set(c, e.tree, vals)
    if len(members) != 1:
        raise InternalInvariantViolation(
            f"equifoliate tree over nondegenerate container has members {sorted(members)}"
        )
    return CanonicalSheafElement.pure(next(iter(members)))


# -- sheaf classification ---------------------------------------------------


@dataclass
class SheafClassification:
    """Which types carry a structure map for the truncated predicate."""

    kind: str  # "all_types" | "singletons_only"
    xsize: int
    is_sheaf: bool
    structure_map: dict[str, list[int]] | None
    violated: str | None  # "i" | "ii" | "iii"


def sheaf_classify(p: Mapping[str, bool], xsize: int) -> SheafClassification:
    """Classify which value sets are sheaves for a Boolean answerability
    predicate on shapes.

    When every shape is answerable, every set is a sheaf and the structure
    map evaluates a branch family at the answer.  When some shape is not,
    only singletons are sheaves: the empty set has no structure map
    (condition i) and two distinct values violate the second sheaf equality
    (condition iii).
    """
    shapes = sorted(p)
    all_true = all(p[a] for a in shapes)
    if all_true:
        d = {a: list(range(xsize)) for a in shapes}
        return SheafClassification("all_types", xsize, True, d, None)
    if xsize == 0:
        return SheafClassification("singletons_only", xsize, False, None, "i")
    if xsize == 1:
        d = {a: [0] for a in shapes}
        return SheafClassification("singletons_only", xsize, True, d, None)
    return SheafClassification("singletons_only", xsize, False, None, "iii")


# -- randomized suites -------------------------------------------------------

# Upper bounds on the size of each random case.
MAX_SHAPES = 3
MAX_POSITIONS = 3
MAX_VALUES = 3


# Shape, position and value names by count; each tuple is in sorted order.
_SHAPES = tuple(f"a{i}" for i in range(MAX_SHAPES))
_POSITIONS = tuple(tuple(f"u{j}" for j in range(m)) for m in range(MAX_POSITIONS + 1))
_VALUES = tuple(tuple(f"x{j}" for j in range(m)) for m in range(1, MAX_VALUES + 1))
# One leaf per value name; a Leaf is immutable, so every draw can share it.
_LEAVES = {v: Leaf(v) for v in _VALUES[-1]}


def _rand_container(rng: random.Random) -> SetContainer:
    # A shape may get no positions, so degenerate containers are drawn too.
    k = 1 + randbelow(rng, MAX_SHAPES)
    return SetContainer._sorted(
        {a: _POSITIONS[randbelow(rng, MAX_POSITIONS + 1)] for a in _SHAPES[:k]}
    )


def _rand_tree(rng: random.Random, c: SetContainer, values: Sequence[str],
               depth: int) -> Tree:
    if depth <= 0 or rng.random() < 0.35:
        return _LEAVES[values[randbelow(rng, len(values))]]
    a = c.shapes[randbelow(rng, len(c.shapes))]
    return Node(
        a, tuple([(u, _rand_tree(rng, c, values, depth - 1)) for u in c.positions[a]])
    )


def _rand_equifoliate_tree(rng: random.Random, c: SetContainer,
                           values: Sequence[str], depth: int) -> Tree:
    if c.degenerate:
        return _rand_tree(rng, c, values, depth)
    # Over a nondegenerate container the equifoliate trees are exactly the
    # ones whose leaves all carry one common value.
    v = values[randbelow(rng, len(values))]
    return _rand_tree(rng, c, (v,), depth)


def _case_monad_laws(rng: random.Random, c: SetContainer,
                     values: Sequence[str], depth: int) -> str | None:
    f = {v: _rand_tree(rng, c, values, depth - 1) for v in values}.__getitem__
    t = _rand_tree(rng, c, values, depth)
    x = values[randbelow(rng, len(values))]
    if tree_bind(f, Leaf(x)) != f(x):
        return f"left unit at {x}"
    if tree_bind(Leaf, t) != t:
        return "right unit"
    g = {v: _rand_tree(rng, c, values, depth - 1) for v in values}.__getitem__
    # v |-> f(v) >>= g, bound once per value rather than once per leaf of t
    fg = {v: tree_bind(g, f(v)) for v in values}.__getitem__
    if tree_bind(g, tree_bind(f, t)) != tree_bind(fg, t):
        return "associativity"
    return None


def _case_equifoliate_bind(rng: random.Random, c: SetContainer,
                           values: Sequence[str], depth: int) -> str | None:
    t = _rand_equifoliate_tree(rng, c, values, depth)
    etable = {v: _rand_equifoliate_tree(rng, c, values, depth - 1) for v in values}
    if not equifoliate(c, tree_bind(etable.__getitem__, t), values).ok:
        return "bind broke the equifoliate certificate"
    return None


def _case_mem_bind(rng: random.Random, c: SetContainer,
                   values: Sequence[str], depth: int) -> str | None:
    f = {v: _rand_tree(rng, c, values, depth - 1) for v in values}.__getitem__
    t = _rand_equifoliate_tree(rng, c, values, depth)
    bound = tree_bind(f, t)
    computed = [x for x in values if membership(c, x, t)]
    for y in values:
        if membership(c, y, bound) != all(membership(c, y, f(x)) for x in computed):
            return f"membership mismatch at {y}"
    return None


def _case_single_member(rng: random.Random, c: SetContainer,
                        values: Sequence[str], depth: int) -> str | None:
    ms = member_set(c, _rand_equifoliate_tree(rng, c, values, depth), values)
    if c.degenerate:
        if ms != frozenset(values):
            return f"degenerate member set {sorted(ms)}"
    elif len(ms) != 1:
        return f"member set {sorted(ms)} not a singleton"
    return None


def _case_delta_membership(rng: random.Random, c: SetContainer,
                           values: Sequence[str], depth: int) -> str | None:
    t = _rand_equifoliate_tree(rng, c, values, depth)
    try:
        img = delta(c, EquiTree.check(c, t, values))
    except (NotEquifoliate, InternalInvariantViolation) as exc:
        # a broken law can leave the drawn tree uncertified or without a value
        return str(exc)
    for x in values:
        if membership(c, x, t) != img.contains(x):
            return f"descent changed membership of {x}"
    return None


# Suite name -> case, in report order.  Each case draws from rng only the
# trees its law reads, and returns a failure or None.
_SUITES = {
    "monad-laws": _case_monad_laws,
    "equifoliate-bind": _case_equifoliate_bind,
    "mem-bind": _case_mem_bind,
    "single-member": _case_single_member,
    "delta-membership": _case_delta_membership,
}


def run_tree_suites(seed: int, cases: int, depth: int = 4) -> list[dict]:
    """Run the randomized law suites; returns one JSON-ready report each."""
    reports = []
    for name, case in _SUITES.items():
        rng = random.Random(f"{seed}:{name}")
        failures: list[str] = []
        for i in range(cases):
            values = _VALUES[randbelow(rng, MAX_VALUES)]
            fails = case(rng, _rand_container(rng), values, depth)
            if fails:
                failures.append(f"case {i}: {fails}")
        reports.append(
            {"suite": name, "cases": cases, "failures": failures, "seed": seed}
        )
    return reports
