"""Shared poset catalog for the test suite, with the paper's example
nuclei and containers built from a frame's operation tables, containers
drawn one at a time as the ``verify`` referees draw their batches, the
single-query maps of a batch as the Kleene kernel hands them back, every
S/K term of a few atoms, and the JSON writer of the test inputs."""

import functools
import json

import numpy as np

from oraclemod import theorems
from oraclemod.containers import IndexedPropContainer, oracle_modalities_kleene
from oraclemod.frames import downset_frame, poset_from_relation
from oraclemod.nuclei import Nucleus
from oraclemod.pca import I_TERM, App, K, S, app

# Named poset catalog; downset carrier sizes noted on the right.
POSETS = {
    "empty": ([], []),                                              # 1
    "point": (["p"], []),                                           # 2
    "chain2": (["p", "q"], [("p", "q")]),                           # 3
    "anti2": (["p", "q"], []),                                      # 4
    "chain3": (["p", "q", "r"], [("p", "q"), ("q", "r")]),          # 4
    "vee": (["p", "q", "r"], [("p", "r"), ("q", "r")]),             # 5
    "wedge": (["p", "q", "r"], [("r", "p"), ("r", "q")]),           # 5
    "chain2_point": (["p", "q", "r"], [("p", "q")]),                # 6
    "anti3": (["p", "q", "r"], []),                                 # 8
    "chain4": (["p", "q", "r", "s"], [("p", "q"), ("q", "r"), ("r", "s")]),  # 5
    "diamond": (["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]),  # 6
    "chain7": (
        [f"x{i}" for i in range(7)],
        [(f"x{i}", f"x{i+1}") for i in range(6)],
    ),                                                              # 8
    "anti4": (["p", "q", "r", "s"], []),                            # 16
}

SMALL = ("empty", "point", "chain2", "anti2", "chain3", "vee", "wedge",
         "chain2_point", "anti3")


# The projections of ``pca.pair``: PAIR_FST (pair p q) is p, PAIR_SND q.
PAIR_FST = app(S, I_TERM, App(K, K))
PAIR_SND = app(S, I_TERM, App(K, App(K, I_TERM)))


def sk_terms(k):
    """Every S/K term of up to k atoms, fewer atoms first.  There are
    Catalan(n - 1) * 2 ** n terms of n atoms; terms share their subterm
    objects."""
    by_size = [[], [S, K]]
    for n in range(2, k + 1):
        by_size.append([App(f, a) for i in range(1, n) for f in by_size[i] for a in by_size[n - i]])
    return [t for terms in by_size[:k + 1] for t in terms]


def principal_downset(poset, a):
    """The principal downset of label ``a`` in ``poset``, as a label set."""
    bits = bin(poset.masks[poset.bit[a]])[:1:-1]
    return frozenset(x for x, b in zip(poset.labels, bits) if b == "1")


def make_frame(name):
    labels, pairs = POSETS[name]
    return downset_frame(poset_from_relation(labels, pairs))


@functools.cache
def pairs_frame(copies):
    """Frame of ``copies`` disjoint two-element chains a_i < b_i, carrier
    3 ** copies (81 at four, 243 at five)."""
    labels = [f"{x}{i}" for i in range(copies) for x in "ab"]
    pairs = [(f"a{i}", f"b{i}") for i in range(copies)]
    return downset_frame(poset_from_relation(labels, pairs))


@functools.cache
def chain_frame(length):
    """Frame of a chain of ``length`` labels, a chain of ``length + 1``
    downsets."""
    labels = [f"x{i:03d}" for i in range(length)]
    return downset_frame(poset_from_relation(labels, list(zip(labels, labels[1:]))))


def all_labeled_posets(max_size=3):
    """Every labeled poset on at most max_size elements, as (labels, pairs)
    with the relation already transitively closed and deduplicated."""
    import itertools

    out = []
    for n in range(max_size + 1):
        labels = ["p", "q", "r", "s"][:n]
        arrows = [(a, b) for a in labels for b in labels if a != b]
        seen = set()
        for picks in itertools.product([False, True], repeat=len(arrows)):
            rel = {ab for ab, on in zip(arrows, picks) if on}
            # transitive closure
            changed = True
            while changed:
                changed = False
                for a, b in list(rel):
                    for c, d in list(rel):
                        if b == c and (a, d) not in rel:
                            rel.add((a, d))
                            changed = True
            if any((b, a) in rel for a, b in rel):
                continue  # cycle
            key = frozenset(rel)
            if key not in seen:
                seen.add(key)
                out.append((labels, sorted(rel)))
    return out


def random_container(frame, rng):
    """One container drawn as the ``verify`` referees draw each of theirs."""
    return theorems._Draws(frame, rng).containers(1)[0]


def surjective_relabeling(c, rng):
    """Precompose a container with a random surjection onto its shapes,
    drawn as the ``surjection`` referee draws it; shapes b0, b1, ..."""
    targets = theorems._Draws(c.frame, rng).surjection(len(c))
    return IndexedPropContainer.of_indices(
        c.frame, [f"b{i}" for i in range(len(targets))], c.ext[targets], c.prd[targets])


def all_single_shape_containers(frame):
    """Every single-shape container, one per pair P(a) <= E(a), as the
    referees list them."""
    return list(theorems._single_shape_batch(frame))


def instance_prenuclei(frame, cs):
    """The single-query maps t |-> \\/_a (E(a) /\\ (P(a) => t)) of a batch of
    containers, as an (m, n) stack: the rows ``oracle_modalities_kleene``
    writes to ``maps``."""
    maps = np.empty((len(cs), len(frame)), dtype=np.int32)
    oracle_modalities_kleene(frame, cs, maps)
    return maps


def dump_json(obj, path):
    """Write ``obj`` as sorted-key JSON, indented by two, with a trailing
    newline: the form of every recorded golden input."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def canonical_nuclei(frame, kind, p=None):
    """The named standard nuclei: identity, constant top, open (p => -) and
    closed (p \\/ -) at an element, and double negation."""
    if kind == "identity":
        return Nucleus(frame, np.arange(len(frame)))
    if kind == "top":
        return Nucleus(frame, np.full(len(frame), frame.top_index))
    if kind == "double_negation":
        neg = frame.implies_table[:, frame.bot_index]
        return Nucleus(frame, neg[neg])
    if kind in ("open", "closed"):
        if p is None:
            raise ValueError(f"{kind} nucleus needs an element")
        pi = frame.check_element(p)
        if kind == "open":
            return Nucleus(frame, frame.implies_table[pi, :])
        return Nucleus(frame, frame.join_table[pi, :])
    raise ValueError(f"unknown nucleus kind {kind!r}")


def lem_container(frame):
    """One query per element p, in carrier order, asking for p or its negation."""
    neg = frame.implies_table[:, frame.bot_index]
    pred = {f"{{{key}}}": frame.el(int(frame.join_table[i, neg[i]]))
            for i, key in enumerate(frame.element_keys)}
    return IndexedPropContainer(frame, pred)


def counterexample_container(frame):
    """A single query whose answer is absurd; the induced modality is trivial."""
    return IndexedPropContainer(frame, {"a0": frame.bot})


def realized_container(frame):
    """A single query already answered; the induced modality is identity."""
    return IndexedPropContainer(frame, {"a0": frame.top})
