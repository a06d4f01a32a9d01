import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclemod import cli, trees
from oraclemod.trees import (
    CanonicalSheafElement,
    EquiTree,
    Leaf,
    Node,
    SetContainer,
    delta,
    equifoliate,
    member_set,
    membership,
    modal_eq,
    run_tree_suites,
    sheaf_classify,
    tree_bind,
)
from oraclemod.errors import NotEquifoliate, UnknownLabel
from oracles import per_ancestor_equifoliate

NONDEG = SetContainer({"a": ["u", "v"], "b": ["w"]})
DEG = SetContainer({"a": ["u", "v"], "z": []})


def test_modal_eq():
    assert modal_eq(NONDEG, "x", "x")
    assert not modal_eq(NONDEG, "x", "y")
    assert modal_eq(DEG, "x", "y")


def test_membership_examples():
    assert membership(NONDEG, "x", Leaf("x"))
    t = Node("a", (("u", Leaf("y")), ("v", Leaf("y"))))
    assert not membership(NONDEG, "x", t)
    assert membership(NONDEG, "y", t)
    vac = Node("z", ())
    assert membership(DEG, "anything", vac)


def test_equifoliate_leaf_always():
    assert equifoliate(NONDEG, Leaf("x")).ok


def test_equifoliate_witness_for_differing_siblings():
    t = Node("a", (("u", Leaf("x")), ("v", Leaf("y"))))
    res = equifoliate(NONDEG, t)
    assert not res.ok
    val, u, v = res.witness
    assert val in ("x", "y") and {u, v} == {"u", "v"}


def test_equifoliate_everything_over_degenerate():
    rng = random.Random(5)
    for _ in range(50):
        t = _rand_tree(rng, DEG, ["x", "y"], 3)
        assert equifoliate(DEG, t).ok


def _rand_tree(rng, c, values, depth):
    if depth == 0 or rng.random() < 0.4:
        return Leaf(rng.choice(values))
    a = rng.choice(c.shapes)
    return Node(a, tuple((u, _rand_tree(rng, c, values, depth - 1))
                         for u in c.positions[a]))


def _rand_ragged_tree(rng, c, values, depth):
    # like _rand_tree, but a node may also drop all its children, whatever
    # its shape's positions
    if depth == 0 or rng.random() < 0.3:
        return Leaf(rng.choice(values))
    a = rng.choice(c.shapes)
    if rng.random() < 0.1:
        return Node(a, ())
    return Node(a, tuple((u, _rand_ragged_tree(rng, c, values, depth - 1))
                         for u in c.positions[a]))


def test_equifoliate_matches_per_ancestor_referee():
    rng = random.Random(31)
    containers = [NONDEG, DEG, SetContainer({"a": ["u", "v", "w"]}),
                  SetContainer({"a": ["u"], "b": ["u", "v"], "z": []})]
    for _ in range(1500):
        c = rng.choice(containers)
        # few leaf values make equal sibling sets, hence deep checks, likely
        leaves = ["x", "y", "z"][:rng.randint(1, 3)]
        t = _rand_ragged_tree(rng, c, leaves, rng.randint(0, 5))
        for values in (None, ["x", "y"], ["x", "y", "z", "w"]):
            res = equifoliate(c, t, values)
            if values is not None:
                assert res.values == tuple(values)
            want = per_ancestor_equifoliate(c, t, res.values)
            assert (res.ok, res.witness) == (want is None, want), (c, t, values)


def test_equifoliate_walks_each_leaf_once(monkeypatch):
    # a full binary tree of depth 8 with one leaf value is equifoliate; each
    # leaf's member set takes one membership call per ambient value, and no
    # subtree is walked again for its ancestors
    calls = []
    real = trees.membership

    def counted(c, x, t):
        calls.append(t)
        return real(c, x, t)

    monkeypatch.setattr(trees, "membership", counted)
    c = SetContainer({"a": ["u", "v"]})
    t = Leaf("x")
    for _ in range(8):
        t = Node("a", (("u", t), ("v", t)))
    res = equifoliate(c, t)
    assert res.ok and res.values == ("x", "#fresh")
    assert len(calls) == 2 ** 8 * 2
    assert all(isinstance(s, Leaf) for s in calls)


# -- monad laws (hypothesis) ---------------------------------------------


@st.composite
def tree_cases(draw):
    k = draw(st.integers(1, 3))
    c = SetContainer(
        {f"a{i}": [f"u{j}" for j in range(draw(st.integers(0, 3)))] for i in range(k)}
    )
    values = [f"x{i}" for i in range(draw(st.integers(1, 3)))]

    def tree(depth):
        if depth == 0 or draw(st.booleans()):
            return Leaf(draw(st.sampled_from(values)))
        a = draw(st.sampled_from(c.shapes))
        return Node(a, tuple((u, tree(depth - 1)) for u in c.positions[a]))

    t = tree(3)
    f_table = {v: tree(2) for v in values}
    g_table = {v: tree(2) for v in values}
    return c, values, t, f_table, g_table


@settings(max_examples=150, deadline=None)
@given(tree_cases())
def test_monad_laws(case):
    c, values, t, f_table, g_table = case
    f = lambda v: f_table[v]  # noqa: E731
    g = lambda v: g_table[v]  # noqa: E731
    for x in values:
        assert tree_bind(f, Leaf(x)) == f(x)
    assert tree_bind(Leaf, t) == t
    assert tree_bind(g, tree_bind(f, t)) == tree_bind(
        lambda v: tree_bind(g, f(v)), t
    )


# -- mem-bind by full enumeration -------------------------------------------


def _all_trees(c, values, depth):
    yield from (Leaf(v) for v in values)
    if depth > 0:
        for a in c.shapes:
            subs = list(_all_trees(c, values, depth - 1))
            for combo in itertools.product(subs, repeat=len(c.positions[a])):
                yield Node(a, tuple(zip(c.positions[a], combo)))


@pytest.mark.parametrize("c", [SetContainer({"a": ["u", "v"]}),
                               SetContainer({"a": ["u"], "z": []})])
def test_mem_bind_full_enumeration(c):
    values = ["x", "y"]
    trees = [t for t in _all_trees(c, values, 2) if equifoliate(c, t, values).ok]
    images = list(_all_trees(c, values, 1))
    rng = random.Random(9)
    for t in trees:
        for _ in range(6):
            f_table = {v: rng.choice(images) for v in values}
            bound = tree_bind(lambda v: f_table[v], t)
            for y in values:
                lhs = membership(c, y, bound)
                rhs = all(
                    (not membership(c, x, t)) or membership(c, y, f_table[x])
                    for x in values
                )
                assert lhs == rhs


def test_single_member_and_delta():
    values = ["x", "y", "z"]
    rng = random.Random(17)
    for _ in range(80):
        t = _rand_tree(rng, NONDEG, ["x"], 3)  # same-leaf, hence equifoliate
        ms = member_set(NONDEG, t, values)
        assert ms == frozenset(["x"])
        e = EquiTree.check(NONDEG, t, values)
        assert delta(NONDEG, e) == CanonicalSheafElement.pure("x")
    for _ in range(80):
        t = _rand_tree(rng, DEG, values, 3)
        assert member_set(DEG, t, values) == frozenset(values)
        e = EquiTree.check(DEG, t, values)
        assert delta(DEG, e) == CanonicalSheafElement.collapse()


def test_delta_examples():
    assert delta(NONDEG, EquiTree.check(NONDEG, Leaf("y"))) == (
        CanonicalSheafElement.pure("y")
    )
    t = Node("a", (("u", Leaf("x")), ("v", Leaf("x"))))
    assert delta(NONDEG, EquiTree.check(NONDEG, t)) == CanonicalSheafElement.pure("x")


def test_delta_preserves_membership():
    rng = random.Random(23)
    values = ["x", "y"]
    for c in (NONDEG, DEG):
        for _ in range(60):
            t = (_rand_tree(rng, c, ["y"], 3) if c is NONDEG
                 else _rand_tree(rng, c, values, 3))
            e = EquiTree.check(c, t, values)
            img = delta(c, e)
            for x in values:
                assert membership(c, x, t) == img.contains(x)


def test_delta_surjective_for_projective_containers():
    # all positions nonempty: every pure element is hit by a leaf
    for v in ("x", "y"):
        assert delta(NONDEG, EquiTree.check(NONDEG, Leaf(v))) == (
            CanonicalSheafElement.pure(v)
        )


def test_equitree_check_rejects():
    t = Node("a", (("u", Leaf("x")), ("v", Leaf("y"))))
    with pytest.raises(NotEquifoliate):
        EquiTree.check(NONDEG, t)


def test_equitree_check_rejects_leaves_outside_values():
    # over ["x0"] both leaves compute nothing, so the tree would pass
    # equifoliate, and delta would find no member
    t = Node("a", (("u", Leaf("x1")), ("v", Leaf("x2"))))
    assert equifoliate(NONDEG, t, ["x0"]).ok
    for c in (NONDEG, DEG):
        with pytest.raises(UnknownLabel, match="leaf value 'x1' is not among the values"):
            EquiTree.check(c, t, ["x0"])
    assert EquiTree.check(DEG, t, ["x1", "x2"]).certificate == ("x1", "x2")


# -- sheaf classification -----------------------------------------------------


def _direct_sheaf_check(p: dict, xsize: int):
    """Exhaustive rendering of the three structure-map conditions."""
    shapes = sorted(p)
    X = list(range(xsize))
    homs = {a: (X if p[a] else [None]) for a in shapes}
    per_shape = [list(itertools.product(X, repeat=len(homs[a]))) for a in shapes]
    exists = False
    for combo in itertools.product(*per_shape):
        ok = True
        for i, a in enumerate(shapes):
            if p[a] and any(combo[i][k] != homs[a][k] for k in range(len(homs[a]))):
                ok = False  # first sheaf equality pins d(a,h) = h(answer)
                break
        if ok:
            exists = True
            break
    cond3 = all(p.values()) or xsize <= 1
    return exists and cond3


def _all_predicates(max_shapes=3):
    for k in range(0, max_shapes + 1):
        shapes = [f"a{i}" for i in range(k)]
        for bits in itertools.product([False, True], repeat=k):
            yield dict(zip(shapes, bits))


def test_sheaf_classify_examples():
    res = sheaf_classify({"a": True, "b": True}, 5)
    assert res.kind == "all_types" and res.is_sheaf
    assert res.structure_map == {"a": [0, 1, 2, 3, 4], "b": [0, 1, 2, 3, 4]}
    res = sheaf_classify({"a": False}, 1)
    assert res.kind == "singletons_only" and res.is_sheaf
    res = sheaf_classify({"a": False}, 2)
    assert not res.is_sheaf and res.violated == "iii"
    res = sheaf_classify({"a": False}, 0)
    assert not res.is_sheaf and res.violated == "i"


def test_sheaf_classify_agrees_with_direct_check():
    for p in _all_predicates(3):
        for xsize in (0, 1, 2):
            assert sheaf_classify(p, xsize).is_sheaf == _direct_sheaf_check(p, xsize), (
                p,
                xsize,
            )


def test_all_maps_between_sheaves_are_homomorphisms():
    for p in _all_predicates(3):
        for xs in (0, 1, 2):
            for ys in (0, 1, 2):
                cx, cy = sheaf_classify(p, xs), sheaf_classify(p, ys)
                if not (cx.is_sheaf and cy.is_sheaf):
                    continue
                for f in itertools.product(range(ys), repeat=xs):
                    for a in sorted(p):
                        dx, dy = cx.structure_map[a], cy.structure_map[a]
                        if p[a]:
                            for x in range(xs):
                                # f(d_X(a, h_x)) == d_Y(a, f . h_x)
                                assert f[dx[x]] == dy[f[x]]
                        elif xs > 0:
                            assert f[dx[0]] == dy[0]


def test_binary_products_of_sheaves_are_sheaves():
    for p in _all_predicates(2):
        for xs in (0, 1, 2):
            for ys in (0, 1, 2):
                cx, cy = sheaf_classify(p, xs), sheaf_classify(p, ys)
                if cx.is_sheaf and cy.is_sheaf:
                    assert sheaf_classify(p, xs * ys).is_sheaf
                    # the componentwise map satisfies the first sheaf equality
                    prod = sheaf_classify(p, xs * ys)
                    if prod.kind == "all_types":
                        pairs = list(itertools.product(range(xs), range(ys)))
                        for a in sorted(p):
                            for k, (i, j) in enumerate(pairs):
                                assert (
                                    cx.structure_map[a][i],
                                    cy.structure_map[a][j],
                                ) == pairs[prod.structure_map[a][k]]


def test_run_tree_suites_clean():
    for seed in (0, 1):
        reports = run_tree_suites(seed, cases=60)
        assert [r["suite"] for r in reports] == [
            "monad-laws",
            "equifoliate-bind",
            "mem-bind",
            "single-member",
            "delta-membership",
        ]
        for r in reports:
            assert r["failures"] == [], r


# -- every suite can be seen failing ------------------------------------------


def bind_dropping_a_branch(f, t):
    if isinstance(t, Leaf):
        return f(t.value)
    return Node(t.shape,
                tuple((u, bind_dropping_a_branch(f, sub)) for u, sub in t.children[1:]))


def bind_into_first_branch(f, t):
    """Grafts f only along each node's first branch; other leaves stay."""
    if isinstance(t, Leaf):
        return f(t.value)
    return Node(t.shape, tuple((u, bind_into_first_branch(f, sub) if k == 0 else sub)
                               for k, (u, sub) in enumerate(t.children)))


def membership_along_some_branch(c, x, t):
    if isinstance(t, Leaf):
        return modal_eq(c, x, t.value)
    return any(membership_along_some_branch(c, x, sub) for _, sub in t.children)


def membership_ignoring_container(c, x, t):
    return membership(NONDEG, x, t)


BROKEN_LAWS = [
    ("monad-laws", "tree_bind", bind_dropping_a_branch, "right unit"),
    ("equifoliate-bind", "tree_bind", bind_into_first_branch,
     "bind broke the equifoliate certificate"),
    ("mem-bind", "membership", membership_along_some_branch, r"membership mismatch at x\d"),
    ("single-member", "member_set", lambda c, t, values: frozenset(),
     r"(degenerate member set|member set) \[\]( not a singleton)?"),
    ("single-member", "membership", membership_ignoring_container,
     r"degenerate member set \[.*\]"),
    ("delta-membership", "delta", lambda c, e: CanonicalSheafElement.collapse(),
     r"descent changed membership of x\d"),
]


# Each BROKEN_LAWS run at seed 3 over 100 cases: its failure count and first
# three failures, recorded when the suites drew through random.Random's own
# choice and randint. A change of draws, or of CPython's, moves them.
PINNED_BROKEN_RUNS = {
    "monad-laws-tree_bind": (52, ["case 1: right unit", "case 2: right unit",
                                  "case 3: right unit"]),
    "equifoliate-bind-tree_bind": (9, [
        "case 6: bind broke the equifoliate certificate",
        "case 7: bind broke the equifoliate certificate",
        "case 10: bind broke the equifoliate certificate"]),
    "mem-bind-membership": (19, ["case 7: membership mismatch at x0",
                                 "case 11: membership mismatch at x0",
                                 "case 20: membership mismatch at x0"]),
    "single-member-member_set": (100, ["case 0: degenerate member set []",
                                       "case 1: degenerate member set []",
                                       "case 2: member set [] not a singleton"]),
    "single-member-membership": (17, ["case 0: degenerate member set ['x0']",
                                      "case 6: degenerate member set ['x2']",
                                      "case 9: degenerate member set []"]),
    "delta-membership-delta": (29, ["case 0: descent changed membership of x0",
                                    "case 3: descent changed membership of x0",
                                    "case 8: descent changed membership of x0"]),
}


@pytest.mark.parametrize("suite, name, broken, message", BROKEN_LAWS,
                         ids=[f"{s}-{n}" for s, n, _, _ in BROKEN_LAWS])
def test_suite_reports_a_broken_law(monkeypatch, capsys, suite, name, broken, message):
    # the suite alone, so that every failure reported is the broken law's own
    monkeypatch.setattr(trees, "_SUITES", {suite: trees._SUITES[suite]})
    monkeypatch.setattr(trees, name, broken)
    (report,) = run_tree_suites(seed=3, cases=100)
    assert report["suite"] == suite and report["failures"]
    for failure in report["failures"]:
        assert re.fullmatch(rf"case \d+: {message}", failure), failure
    count, first = PINNED_BROKEN_RUNS[f"{suite}-{name}"]
    assert (len(report["failures"]), report["failures"][:3]) == (count, first)
    assert cli.run(["--format", "json", "trees", "suite", "--seed", "3", "--cases", "100"]) == 1
    assert json.loads(capsys.readouterr().out)["body"]["suites"] == [report]


def test_sorted_containers_as_constructed():
    # the suites build their containers from names already in sorted order
    for k in range(1, trees.MAX_SHAPES + 1):
        for counts in itertools.product(range(trees.MAX_POSITIONS + 1), repeat=k):
            positions = {a: trees._POSITIONS[m] for a, m in zip(trees._SHAPES, counts)}
            fast, slow = SetContainer._sorted(positions), SetContainer(positions)
            assert (fast.shapes, fast.positions, fast.degenerate) == (
                slow.shapes, slow.positions, slow.degenerate)


@pytest.mark.parametrize("name, broken, message", [
    ("membership", membership_ignoring_container,
     r"tree is not equifoliate, witness \('x\d', 'u\d', 'u\d'\)"),
    ("member_set", lambda c, t, values: frozenset(),
     r"equifoliate tree over nondegenerate container has members \[\]"),
], ids=["membership", "member_set"])
def test_uncertified_descent_is_a_failed_case(monkeypatch, capsys, name, broken, message):
    # every suite runs: the tree that delta-membership draws is no longer
    # equifoliate, or has no member, and that case fails instead of raising
    monkeypatch.setattr(trees, name, broken)
    reports = run_tree_suites(seed=3, cases=100)
    assert [r["suite"] for r in reports] == list(trees._SUITES)
    (descent,) = [r["failures"] for r in reports if r["suite"] == "delta-membership"]
    assert any(re.fullmatch(rf"case \d+: {message}", f) for f in descent), descent
    assert cli.run(["--format", "json", "trees", "suite", "--seed", "3", "--cases", "100"]) == 1
    assert json.loads(capsys.readouterr().out)["body"]["suites"] == reports
