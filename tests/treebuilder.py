"""Member-tree constructor and single-node mutations for checker tests.

The builder only produces terms that belong to the least fixed set by
construction; every mutation it emits changes exactly one node and must
therefore never verify as a member (the toy predicates below keep answer
families pairwise non-nested so no alternative family can rescue a
corrupted branch).
"""

import itertools
import random
from dataclasses import dataclass

from oraclemod.pca import App, Const, K, S, Term, app, numeral, pair, pp, tag_leaf, tag_node
from oraclemod.weihrauch import ExtWeihrauchPredicate

MEMBERS = [Const("m0"), Const("m1"), Const("m2")]
NON_MEMBER = Const("bad")
OMEGA = app(S, app(S, K, K), app(S, K, K))

# instance K answers with one of two disjoint singleton families; S K with a
# single two-element family; K S with the vacuous (empty) family.
TOY_F = ExtWeihrauchPredicate(
    [
        (K, [[S], [App(K, K)]]),
        (app(S, K), [[S, App(K, K)]]),
        (App(K, S), [[]]),
    ]
)

TOY_G = ExtWeihrauchPredicate([(K, [[App(K, K)]])])
TOY_H = ExtWeihrauchPredicate([(K, [[App(K, App(K, K))]])])
TOYS = [TOY_F, TOY_G, TOY_H]

_fresh = itertools.count()


@dataclass
class BLeaf:
    payload: Term


@dataclass
class BNode:
    realizer: Term
    family: int
    branches: list  # list of (answer, BLeaf | BNode)


def build_member(rng: random.Random, f: ExtWeihrauchPredicate, depth: int):
    if depth == 0 or rng.random() < 0.4 or not f.support:
        return BLeaf(rng.choice(MEMBERS))
    b = rng.choice(f.support)
    fams = f.families_for(pp(b))
    fi = rng.randrange(len(fams))
    return BNode(
        b, fi, [(d, build_member(rng, f, depth - 1)) for d in fams[fi].values()]
    )


def to_term(bt) -> Term:
    if isinstance(bt, BLeaf):
        return tag_leaf(bt.payload)
    rules = tuple((d, to_term(sub)) for d, sub in bt.branches)
    c = Const(f"br{next(_fresh)}", rules=rules)
    return tag_node(bt.realizer, c)


def _node_term_with(bt: BNode, branches) -> Term:
    rules = tuple((d, t) for d, t in branches)
    return tag_node(bt.realizer, Const(f"br{next(_fresh)}", rules=rules))


def mutations(bt):
    """Terms differing from to_term(bt) in exactly one node."""
    if isinstance(bt, BLeaf):
        yield pair(numeral(1), bt.payload)  # flipped tag
        yield tag_leaf(NON_MEMBER)          # payload swapped for a non-member
        return
    plain = [(d, to_term(sub)) for d, sub in bt.branches]
    # flipped tag at this node
    c = Const(f"br{next(_fresh)}", rules=tuple(plain))
    yield pair(numeral(0), pair(bt.realizer, c))
    # realizer swapped outside every support
    yield _node_term_with(BNode(NON_MEMBER, bt.family, bt.branches), plain)
    for i, (d, sub) in enumerate(bt.branches):
        # corrupt this branch's realizer outright
        broken = list(plain)
        broken[i] = (d, K)
        yield _node_term_with(bt, broken)
        # or mutate a single node inside the branch
        for m in mutations(sub):
            patched = list(plain)
            patched[i] = (d, m)
            yield _node_term_with(bt, patched)
