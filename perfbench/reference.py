"""Label-level model of downset frames, written independently of the package.

The benchmark uses it to generate inputs (posets, downsets, containers,
nucleus tables) and to compute expected results without calling the code it
measures.  A downset is an int bitmask over the sorted poset labels, so meet
is ``&``, join is ``|`` and ``a => b`` keeps the labels y whose principal
downset meets ``a`` only inside ``b``.
"""

from __future__ import annotations

import random


class PosetModel:
    def __init__(self, elements, le):
        self.labels = sorted(elements)
        index = {x: i for i, x in enumerate(self.labels)}
        below = [1 << i for i in range(len(self.labels))]
        for a, b in le:
            below[index[b]] |= 1 << index[a]
        changed = True
        while changed:
            changed = False
            for i, mask in enumerate(below):
                closed = mask
                for j in range(len(self.labels)):
                    if mask >> j & 1:
                        closed |= below[j]
                if closed != mask:
                    below[i] = closed
                    changed = True
        self.down = below
        self.top = (1 << len(self.labels)) - 1

    def mask(self, labels) -> int:
        return sum(1 << self.labels.index(x) for x in labels)

    def labels_of(self, mask: int) -> list[str]:
        return [x for i, x in enumerate(self.labels) if mask >> i & 1]

    def key(self, mask: int) -> str:
        return ",".join(self.labels_of(mask))

    def downsets(self) -> list[int]:
        """Every downset, in the package's carrier order: by size, then labels."""
        seen = {0}
        frontier = [0]
        while frontier:
            d = frontier.pop()
            for i, below in enumerate(self.down):
                if not d >> i & 1 and below & ~(1 << i) & ~d == 0:
                    nd = d | 1 << i
                    if nd not in seen:
                        seen.add(nd)
                        frontier.append(nd)
        return sorted(seen, key=lambda m: (bin(m).count("1"), self.labels_of(m)))

    def close_down(self, mask: int) -> int:
        out = 0
        for i, below in enumerate(self.down):
            if mask >> i & 1:
                out |= below
        return out

    def random_downset(self, rng: random.Random, within: int | None = None) -> int:
        """Down-closure of a random subset; stays inside ``within`` when that
        is itself a downset."""
        pool = self.top if within is None else within
        picked = sum(1 << i for i in range(len(self.labels))
                     if pool >> i & 1 and rng.random() < 0.35)
        return self.close_down(picked)

    def implies(self, a: int, b: int) -> int:
        out = 0
        for i, below in enumerate(self.down):
            if below & a & ~b == 0:
                out |= 1 << i
        return out

    def modality(self, shapes: list[tuple[int, int]], start: int) -> int:
        """Least t above ``start`` with E & (P => t) <= t for every shape (E, P)."""
        t = start
        while True:
            nxt = start
            for ext, prd in shapes:
                nxt |= ext & self.implies(prd, t)
            if nxt == t:
                return t
            t = nxt

    def closed_nucleus(self, p: int) -> dict[int, int]:
        return {x: x | p for x in self.downsets()}

    def open_nucleus(self, p: int) -> dict[int, int]:
        return {x: self.implies(p, x) for x in self.downsets()}


def relabel(shape: tuple[list[str], list[tuple[str, str]]], rng: random.Random) -> dict:
    """An isomorphic copy of a poset with seeded label names and listing order,
    so that inputs differ by seed while their cost does not."""
    elements, pairs = shape
    names = rng.sample(range(100, 1000), len(elements))
    rename = {x: f"v{n}" for x, n in zip(elements, names)}
    els = [rename[x] for x in elements]
    le = [[rename[a], rename[b]] for a, b in pairs]
    rng.shuffle(els)
    rng.shuffle(le)
    return {"elements": els, "le": le}


def antichain(n: int):
    return [f"a{i}" for i in range(n)], []


def chain(n: int):
    xs = [f"x{i}" for i in range(n)]
    return xs, list(zip(xs, xs[1:]))


def chain_union(copies: int, length: int):
    """Disjoint union of chains; the downset carrier is (length + 1) ** copies."""
    els, pairs = [], []
    for c in range(copies):
        xs = [f"c{c}_{i}" for i in range(length)]
        els += xs
        pairs += list(zip(xs, xs[1:]))
    return els, pairs


def disjoint_union(*shapes):
    """Disjoint union of posets; the downset carrier is the product."""
    els, pairs = [], []
    for k, (xs, ps) in enumerate(shapes):
        els += [f"u{k}_{x}" for x in xs]
        pairs += [(f"u{k}_{a}", f"u{k}_{b}") for a, b in ps]
    return els, pairs


DIAMOND = (["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
