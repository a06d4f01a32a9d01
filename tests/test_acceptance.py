"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import itertools
import json
import random
import time

import pytest

from oraclemod import cli, io
from oraclemod.containers import (
    IndexedPropContainer,
    container_sum,
    oracle_modality,
    oracle_modality_bruteforce,
    pred_of_nucleus,
)
from oraclemod.frames import downset_frame, poset_from_relation
from oraclemod.nuclei import enumerate_nuclei, sup_nuclei
from oraclemod.pca import (
    App,
    K,
    S,
    app,
    eval_term,
    pair,
)
from oraclemod.theorems import Budget, verify_theorems
from oraclemod.trees import run_tree_suites, sheaf_classify
from oraclemod.weihrauch import check_oracle_membership_w, check_weihrauch, compose_reducers

from catalog import (
    PAIR_FST,
    PAIR_SND,
    POSETS,
    all_labeled_posets,
    canonical_nuclei,
    counterexample_container,
    dump_json,
    lem_container,
    make_frame,
    random_container,
    realized_container,
    surjective_relabeling,
)
from oracles import bruteforce_nuclei, bruteforce_sup
from test_pca import OMEGA, rand_normal
from test_trees import _all_predicates, _direct_sheaf_check
from test_weihrauch import I, L2_APPLY_K, L2_ID
from treebuilder import MEMBERS, TOY_F, TOYS, build_member, mutations, to_term


def _report(num, name, t0, detail=""):
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({detail}, {elapsed:.2f}s)")


@pytest.fixture(scope="module")
def small_family():
    """Downset frames of every labeled poset with <= 3 elements."""
    return [
        downset_frame(poset_from_relation(labels, pairs))
        for labels, pairs in all_labeled_posets(3)
    ]


@pytest.fixture(scope="module")
def family_le8(small_family):
    frames = [f for f in small_family] + [make_frame("chain7")]
    return [f for f in frames if len(f) <= 8]


def test_c01_frame_laws(small_family):
    t0 = time.monotonic()
    frames = list(small_family) + [make_frame("chain4"), make_frame("diamond")]
    for frame in frames:
        assert frame.check_laws() == []
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(1, "frame laws (residuation, distributivity)", t0,
            f"{len(frames)} frames exhaustively")


def test_c02_nuclei_enumeration(family_le8):
    t0 = time.monotonic()
    assert len(enumerate_nuclei(make_frame("chain2"))) == 4
    checked = 0
    for frame in family_le8:
        got = [tuple(map(int, j.table)) for j in enumerate_nuclei(frame)]
        assert got == bruteforce_nuclei(frame), "enumeration mismatch"
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(2, "nuclei enumeration vs brute force", t0, f"{checked} frames")


def test_c03_retraction(small_family):
    t0 = time.monotonic()
    total = 0
    for frame in small_family:
        for j in enumerate_nuclei(frame):
            assert oracle_modality(pred_of_nucleus(j)) == j
            total += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(3, "retraction, table-exact", t0, f"{total} nuclei")


def test_c04_two_route_agreement(family_le8):
    t0 = time.monotonic()
    checked = 0
    for name in ("point", "chain2"):
        frame = make_frame(name)
        stages = [
            (e, p)
            for e in frame.all_elements()
            for p in frame.all_elements()
            if frame.leq_table[p.index, e.index]
        ]
        for e1, p1 in stages:
            cs = [IndexedPropContainer(frame, {"a0": p1}, {"a0": e1})]
            for e2, p2 in stages:
                cs.append(
                    IndexedPropContainer(
                        frame, {"a0": p1, "a1": p2}, {"a0": e1, "a1": e2}
                    )
                )
            for c in cs:
                assert oracle_modality(c) == oracle_modality_bruteforce(c)
                checked += 1
    rng = random.Random(20240801)
    for i in range(1000):
        frame = family_le8[i % len(family_le8)]
        c = random_container(frame, rng)
        assert oracle_modality(c) == oracle_modality_bruteforce(c)
        checked += 1
    _report(4, "Kleene vs prefixed-point agreement", t0, f"{checked} containers")


def test_c05_example_theorems():
    t0 = time.monotonic()
    names = [n for n in POSETS]
    count = 0
    for name in names:
        frame = make_frame(name)
        if len(frame) > 16:
            continue
        assert oracle_modality(lem_container(frame)) == canonical_nuclei(
            frame, "double_negation"
        )
        assert oracle_modality(counterexample_container(frame)) == canonical_nuclei(
            frame, "top"
        )
        assert oracle_modality(realized_container(frame)) == canonical_nuclei(
            frame, "identity"
        )
        count += 1
    _report(5, "decidability/trivial-oracle examples", t0, f"{count} frames")


def test_c06_forcing_oracle_leq_least_above():
    t0 = time.monotonic()
    suite = ("forcing-iff", "oracle-leq", "least-above-instance")
    for name in ("chain2", "anti2"):  # exhaustive over singles on these
        for r in verify_theorems(make_frame(name), suite, Budget(seed=1, cases=10_000)):
            assert r.passed, (name, r.theorem, r.failures[:1])
            assert "exhaustive" in r.coverage
    sampled = 0
    for name in ("vee", "anti3", "chain7"):
        for r in verify_theorems(make_frame(name), suite, Budget(seed=2, cases=500)):
            assert r.passed, (name, r.theorem, r.failures[:1])
            sampled += r.checked
    assert sampled >= 3 * 500
    _report(6, "forcing-iff / oracle-leq / least-above", t0,
            f"exhaustive small + {sampled} sampled")


def test_c07_sup_theorem(family_le8):
    t0 = time.monotonic()
    rng = random.Random(77)
    checked = 0
    while checked < 500:
        frame = family_le8[checked % len(family_le8)]
        c1, c2 = random_container(frame, rng), random_container(frame, rng)
        js = [oracle_modality(c1), oracle_modality(c2)]
        want = bruteforce_sup(frame, js)
        assert tuple(map(int, oracle_modality(container_sum([c1, c2])).table)) == want
        assert tuple(map(int, sup_nuclei(frame, js).table)) == want
        checked += 1
    _report(7, "sum-of-containers is sup-of-modalities", t0, f"{checked} pairs")


def test_c08_surjection_lemma(family_le8):
    t0 = time.monotonic()
    rng = random.Random(88)
    for i in range(200):
        frame = family_le8[i % len(family_le8)]
        c = random_container(frame, rng)
        cq = surjective_relabeling(c, rng)
        assert oracle_modality(cq) == oracle_modality(c)
    _report(8, "surjective relabeling preserves the modality", t0, "200 pairs")


def test_c09_tree_suites():
    t0 = time.monotonic()
    reports = run_tree_suites(seed=11, cases=1000, depth=4)
    for r in reports:
        assert r["failures"] == [], r["suite"]
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(9, "tree monad/equifoliate/descent suites", t0,
            f"{len(reports)}x1000 cases")


def test_c10_sheaf_classifier():
    t0 = time.monotonic()
    agree = 0
    for p in _all_predicates(3):
        for xsize in (0, 1, 2):
            assert sheaf_classify(p, xsize).is_sheaf == _direct_sheaf_check(p, xsize)
            agree += 1
    # homomorphism and binary product closure over classified sheaves
    for p in _all_predicates(2):
        for xs in (0, 1, 2):
            for ys in (0, 1, 2):
                cx, cy = sheaf_classify(p, xs), sheaf_classify(p, ys)
                if not (cx.is_sheaf and cy.is_sheaf):
                    continue
                assert sheaf_classify(p, xs * ys).is_sheaf
                for f in itertools.product(range(ys), repeat=xs):
                    for a in sorted(p):
                        dx, dy = cx.structure_map[a], cy.structure_map[a]
                        if p[a]:
                            for x in range(xs):
                                assert f[dx[x]] == dy[f[x]]
                        elif xs > 0:
                            assert f[dx[0]] == dy[0]
    _report(10, "sheaf classifier vs direct conditions", t0,
            f"{agree} classifications")


def test_c11_pca_and_weihrauch():
    t0 = time.monotonic()
    fuel = 100_000
    rng = random.Random(20240811)
    for _ in range(100):
        x, y = rand_normal(rng), rand_normal(rng)
        assert eval_term(app(K, x, y), fuel).term == x
        x, y, z = (rand_normal(rng, 3) for _ in range(3))
        lhs = eval_term(app(S, x, y, z), fuel + 1)
        rhs = eval_term(App(App(x, z), App(y, z)), fuel)
        assert lhs.term == rhs.term
        x, y = rand_normal(rng), rand_normal(rng)
        assert eval_term(App(PAIR_FST, pair(x, y)), fuel).term == x
        assert eval_term(App(PAIR_SND, pair(x, y)), fuel).term == y
    for f in (10, 100, 1000, 10_000, 100_000):
        assert eval_term(App(OMEGA, OMEGA), fuel=f).diverged
    for toy in TOYS:
        assert check_weihrauch(toy, toy, I, L2_ID, fuel).verdict == "accepted"
    f = io.weihrauch_predicate_from_dict(
        {"entries": [{"instance": "K", "families": [["S"]]}]}
    )
    g = io.weihrauch_predicate_from_dict(
        {"entries": [{"instance": "K", "families": [["K S"]]}]}
    )
    h = io.weihrauch_predicate_from_dict(
        {"entries": [{"instance": "K", "families": [["K (K S)"]]}]}
    )
    assert check_weihrauch(f, g, I, L2_APPLY_K, fuel).verdict == "accepted"
    assert check_weihrauch(g, h, I, L2_APPLY_K, fuel).verdict == "accepted"
    l1c, l2c = compose_reducers(I, L2_APPLY_K, I, L2_APPLY_K)
    assert check_weihrauch(f, h, l1c, l2c, fuel).verdict == "accepted"
    trees = 0
    muts = 0
    rng = random.Random(424242)
    while trees < 50:
        bt = build_member(rng, TOY_F, depth=3)
        t = to_term(bt)
        assert check_oracle_membership_w(TOY_F, MEMBERS, t, fuel=fuel).verdict == "member"
        for m in mutations(bt):
            assert check_oracle_membership_w(
                TOY_F, MEMBERS, m, fuel=fuel
            ).verdict != "member"
            muts += 1
        trees += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(11, "combinatory algebra and reducibility checks", t0,
            f"axioms+laws, 50 trees, {muts} mutations")


def test_c12_cli_contract(tmp_path, capsys):
    t0 = time.monotonic()
    poset = tmp_path / "chain2.json"
    dump_json({"elements": ["p", "q"], "le": [["p", "q"]]}, poset)

    def run(argv):
        code = cli.run(argv)
        return code, capsys.readouterr().out

    argv = ["--format", "json", "verify", "all", "--poset", str(poset),
            "--cases", "30", "--seed", "4"]
    c1, out1 = run(argv)
    c2, out2 = run(argv)
    assert c1 == c2 == 0
    assert out1 == out2, "json reports must be byte-identical"

    code, _ = run(["--format", "json", "frame", "build", "--poset", str(poset)])
    assert code == 0
    bad = tmp_path / "bad.json"
    dump_json({"table": {"": ["p"], "p": ["p", "q"], "p,q": ["p", "q"]}}, bad)
    code, _ = run(["--format", "json", "nuclei", "validate", "--poset", str(poset),
                   "--nucleus", str(bad)])
    assert code == 1
    code, _ = run(["--format", "json", "verify", "retraction", "--poset", str(poset),
                   "--nucleus", str(bad)])
    assert code == 1
    assert cli.run(["frame", "build", "--poset", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    code, _ = run(["--format", "json", "pca", "eval", "--fuel", "100",
                   "--term", "S (S K K) (S K K) (S (S K K) (S K K))"])
    assert code == 3
    dump_json({"entries": [{"instance": "K", "families": [["S"]]}]},
              tmp_path / "f.json")
    code, _ = run(["--format", "json", "weihrauch", "check",
                   "--f", str(tmp_path / "f.json"), "--g", str(tmp_path / "f.json"),
                   "--l1", "K (S (S K K) (S K K) (S (S K K) (S K K)))",
                   "--l2", "K (S K K)", "--fuel", "2000"])
    assert code == 3
    code, _ = run(["--format", "json", "weihrauch", "check",
                   "--f", str(tmp_path / "f.json"), "--g", str(tmp_path / "f.json"),
                   "--l1", "S K K", "--l2", "K (S K K)"])
    assert code == 0
    # remaining verbs, success and failure paths
    code, _ = run(["nuclei", "enumerate", "--poset", str(poset)])
    assert code == 0
    good = tmp_path / "dn.json"
    dump_json({"table": {"": [], "p": ["p", "q"], "p,q": ["p", "q"]}}, good)
    code, _ = run(["nuclei", "sup", "--poset", str(poset),
                   "--nucleus", str(good), "--nucleus", str(good)])
    assert code == 0
    cfile = tmp_path / "c.json"
    dump_json({"shapes": ["a0"], "pred": {"a0": ["p"]}}, cfile)
    code, _ = run(["oracle", "compute", "--poset", str(poset),
                   "--container", str(cfile)])
    assert code == 0
    code, _ = run(["oracle", "compare", "--poset", str(poset),
                   "--container", str(cfile)])
    assert code == 0
    code, _ = run(["trees", "suite", "--seed", "0", "--cases", "20"])
    assert code == 0
    dump_json(["m0"], tmp_path / "s.json")
    leaf_src = "S (S (S K K) (K (S K K))) (K m0)"
    code, _ = run(["oracle-tree", "check", "--pred", str(tmp_path / "f.json"),
                   "--s", str(tmp_path / "s.json"), "--term", leaf_src])
    assert code == 0
    code, _ = run(["oracle-tree", "check", "--pred", str(tmp_path / "f.json"),
                   "--s", str(tmp_path / "s.json"), "--term", "K"])
    assert code == 1
    _report(12, "CLI determinism and exit-status contract", t0, "all verbs")
