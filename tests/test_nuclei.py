import numpy as np
import pytest

from oraclemod.errors import FrameMismatch, SizeLimitExceeded
from oraclemod.frames import downset_frame, poset_from_relation
from oraclemod.nuclei import (
    Nucleus,
    dense_elements,
    enumerate_nuclei,
    fixed_points_frame,
    sup_nuclei,
    validate_nucleus,
)

from catalog import SMALL, canonical_nuclei, make_frame, pairs_frame
from oracles import bruteforce_nuclei


def tables(ns):
    return [tuple(map(int, j.table)) for j in ns]


def nucleus_leq(j, k):
    """Pointwise order on nuclei of one frame."""
    return bool(j.frame.leq_table[j.table, k.table].all())


@pytest.mark.parametrize("name", SMALL)
def test_identity_table_is_valid(name):
    f = make_frame(name)
    assert validate_nucleus(f, np.arange(len(f), dtype=np.int32)).valid


def test_known_counterexample_table_fails_meet_preservation(o4):
    # bot->bot, {p}->top, {q}->{q}, top->top: inflationary, idempotent and
    # monotone, but j({p} /\ {q}) = bot while j({p}) /\ j({q}) = {q}.
    report = validate_nucleus(o4, np.array([0, 3, 2, 3], dtype=np.int32))
    assert not report.valid
    assert report.law_names() == ["meet_preservation"]
    ((law, witness),) = report.violations
    assert {w.labels for w in witness} == {("p",), ("q",)}


# Broken tables on the diamond (carrier {}, {p}, {q}, {p,q}), each with the
# exact laws it breaks and the first witness of each, as element keys.
DIAMOND_BREAKS = [
    ([0, 0, 0, 0], [("inflationary", ("p",)), ("meet_preservation", ("p,q",))]),
    ([0, 1, 1, 3], [("inflationary", ("q",)), ("meet_preservation", ("p", "q"))]),
    ([1, 3, 2, 3], [("idempotent", ("",)), ("meet_preservation", ("", "q")),
                    ("monotone", ("", "q"))]),
    ([2, 1, 2, 3], [("meet_preservation", ("", "p")), ("monotone", ("", "p"))]),
    ([1, 0, 3, 3], [("inflationary", ("p",)), ("idempotent", ("",)),
                    ("meet_preservation", ("", "p")), ("monotone", ("", "p"))]),
]


def witnesses(report):
    return [(law, tuple(w.key for w in ws)) for law, ws in report.violations]


@pytest.mark.parametrize("table, want", DIAMOND_BREAKS)
def test_broken_tables_on_the_diamond(o4, table, want):
    report = validate_nucleus(o4, np.array(table, dtype=np.int32))
    assert not report.valid and witnesses(report) == want


def test_broken_tables_on_carrier_81():
    f = pairs_frame(4)

    def el(*labels):
        return f.element(labels).index

    def corrupt(j, labels, value):
        t = j.table.copy()
        t[el(*labels)] = el(*value)
        return t

    top = "a0,a1,a2,a3,b0,b1,b2,b3"
    cases = [
        # x |-> x /\ c preserves meets but sends top to c
        (f.meet_table[np.arange(len(f)), el("a0", "b0", "a1", "a2")],
         [("inflationary", ("a3",)), ("meet_preservation", (top,))]),
        (corrupt(canonical_nuclei(f, "closed", f.element(["a1"])), ["a2"],
                 ["a1", "a2", "b2"]),
         [("meet_preservation", ("a2", "a0,a2")), ("monotone", ("a2", "a0,a2"))]),
        (corrupt(canonical_nuclei(f, "open", f.element(["a3"])), [], ["a3"]),
         [("idempotent", ("",)), ("meet_preservation", ("", "a0")),
          ("monotone", ("", "a0"))]),
        (corrupt(canonical_nuclei(f, "double_negation"), ["a0", "b0"], ["a0"]),
         [("inflationary", ("a0,b0",)), ("idempotent", ("a0",)),
          ("meet_preservation", ("a0", "a0,b0")), ("monotone", ("a0", "a0,b0"))]),
    ]
    for table, want in cases:
        assert witnesses(validate_nucleus(f, table)) == want


def test_closed_at_m_is_valid(o3):
    assert validate_nucleus(o3, np.array([1, 1, 2], dtype=np.int32)).valid


@pytest.mark.parametrize("table", [[2, 2], [0, 1, 2, 2], [0, 1, 3], [-1, 1, 2]])
def test_table_not_fitting_carrier_rejected(o3, table):
    with pytest.raises(FrameMismatch, match="nucleus table does not fit the carrier"):
        validate_nucleus(o3, np.array(table, dtype=np.int32))


def test_enumerate_omega2(o2):
    assert tables(enumerate_nuclei(o2)) == [(0, 1), (1, 1)]


def test_enumerate_omega3_the_four(o3):
    assert tables(enumerate_nuclei(o3)) == [
        (0, 1, 2),  # identity
        (0, 2, 2),  # double negation
        (1, 1, 2),  # closed at m
        (2, 2, 2),  # constant top
    ]


def test_enumerate_omega4_count_matches_bruteforce(o4):
    got = tables(enumerate_nuclei(o4))
    assert len(got) == 4
    assert got == bruteforce_nuclei(o4)


@pytest.mark.parametrize("name", SMALL + ("chain7",))
def test_enumerate_matches_bruteforce_filter(name):
    f = make_frame(name)
    assert tables(enumerate_nuclei(f)) == bruteforce_nuclei(f)


def test_enumerate_respects_limit():
    # four disjoint two-element chains a_i < b_i: 2**8 nuclei x carrier 81
    # = 20736 cells > 16384
    labels = [f"{x}{i}" for i in range(4) for x in "ab"]
    pairs = [(f"a{i}", f"b{i}") for i in range(4)]
    frame = downset_frame(poset_from_relation(labels, pairs))
    with pytest.raises(SizeLimitExceeded, match="exceed the enumeration limit of 16384 table cells"):
        enumerate_nuclei(frame)


@pytest.mark.parametrize("name", SMALL)
def test_enumeration_order_is_lexicographic(name):
    got = tables(enumerate_nuclei(make_frame(name)))
    assert got == sorted(got)


@pytest.mark.parametrize("name", ("chain2", "anti2", "vee"))
def test_order_extremes(name):
    f = make_frame(name)
    ident = canonical_nuclei(f, "identity")
    top = canonical_nuclei(f, "top")
    for j in enumerate_nuclei(f):
        assert nucleus_leq(ident, j)
        assert nucleus_leq(j, top)


def test_closed_vs_double_negation_incomparable(o3):
    closed = Nucleus(o3, np.array([1, 1, 2], dtype=np.int32))
    dn = canonical_nuclei(o3, "double_negation")
    assert not nucleus_leq(closed, dn)
    assert not nucleus_leq(dn, closed)


def test_sup_examples(o3):
    closed = Nucleus(o3, np.array([1, 1, 2], dtype=np.int32))
    dn = canonical_nuclei(o3, "double_negation")
    ident = canonical_nuclei(o3, "identity")
    assert sup_nuclei(o3, [closed]) == closed
    assert sup_nuclei(o3, [ident, closed]) == closed
    assert sup_nuclei(o3, [closed, dn]) == canonical_nuclei(o3, "top")


@pytest.mark.parametrize("name", ("chain2", "anti2", "vee"))
def test_sup_is_least_dominating(name):
    f = make_frame(name)
    ns = enumerate_nuclei(f)
    for j in ns:
        for k in ns:
            s = sup_nuclei(f, [j, k])
            assert nucleus_leq(j, s) and nucleus_leq(k, s)
            for other in ns:
                if nucleus_leq(j, other) and nucleus_leq(k, other):
                    assert nucleus_leq(s, other)


def test_canonical_open_extremes(o4):
    assert canonical_nuclei(o4, "open", o4.top) == canonical_nuclei(o4, "identity")
    assert canonical_nuclei(o4, "open", o4.bot) == canonical_nuclei(o4, "top")


def test_double_negation_table_omega3(o3):
    assert tuple(map(int, canonical_nuclei(o3, "double_negation").table)) == (0, 2, 2)


@pytest.mark.parametrize("name", SMALL)
def test_canonical_nuclei_are_valid(name):
    f = make_frame(name)
    kinds = [("identity", None), ("top", None), ("double_negation", None)]
    kinds += [("open", p) for p in f.all_elements()]
    kinds += [("closed", p) for p in f.all_elements()]
    for kind, p in kinds:
        j = canonical_nuclei(f, kind, p)
        assert validate_nucleus(f, j.table).valid, (name, kind, p)


def test_dense_elements(o3):
    assert dense_elements(canonical_nuclei(o3, "identity")) == (o3.top,)
    assert dense_elements(canonical_nuclei(o3, "top")) == o3.all_elements()
    dn = canonical_nuclei(o3, "double_negation")
    assert dense_elements(dn) == (o3.element(["p"]), o3.top)


def test_fixed_points_frames(o3):
    ident = canonical_nuclei(o3, "identity")
    assert len(fixed_points_frame(ident)) == len(o3)
    top = canonical_nuclei(o3, "top")
    assert len(fixed_points_frame(top)) == 1
    dn = canonical_nuclei(o3, "double_negation")
    booleanized = fixed_points_frame(dn)
    assert len(booleanized) == 2
    assert booleanized.check_laws() == []


@pytest.mark.parametrize("name", SMALL)
def test_fixed_points_frames_pass_laws(name):
    f = make_frame(name)
    for j in enumerate_nuclei(f):
        sub = fixed_points_frame(j)
        assert sub.check_laws() == []
        assert len(sub) == int((j.table == np.arange(len(f))).sum())


@pytest.mark.parametrize("name", ("chain2", "anti2", "vee", "wedge"))
def test_nucleus_weakens_implication(name):
    # j(a => b) <= j(a) => j(b), a consequence of meet preservation.
    f = make_frame(name)
    for j in enumerate_nuclei(f):
        for a in range(len(f)):
            for b in range(len(f)):
                lhs = int(j.table[f.implies_table[a, b]])
                rhs = int(f.implies_table[j.table[a], j.table[b]])
                assert f.leq_table[lhs, rhs]
