import pytest

from oraclemod.errors import (
    AntisymmetryViolation,
    FrameMismatch,
    SizeLimitExceeded,
    UnknownLabel,
)
from oraclemod.frames import downset_frame, poset_from_relation

from catalog import POSETS, make_frame
from oracles import powerset_downsets, residuation_scan, transitive_closure_pairs


def test_poset_empty():
    p = poset_from_relation([], [])
    assert len(p) == 0


def test_poset_singleton():
    p = poset_from_relation(["p"], [])
    assert p.le("p", "p")


def test_poset_closure_adds_transitive_pair():
    p = poset_from_relation(["p", "q", "r"], [("p", "q"), ("q", "r")])
    assert p.le("p", "r")
    # matches the saturation oracle
    want = transitive_closure_pairs(["p", "q", "r"], [("p", "q"), ("q", "r")])
    got = {(a, b) for b in p.labels for a in p.below[b]}
    assert got == want


def test_poset_cycle_rejected():
    with pytest.raises(AntisymmetryViolation):
        poset_from_relation(["p", "q"], [("p", "q"), ("q", "p")])


def test_poset_unknown_label_rejected():
    with pytest.raises(UnknownLabel):
        poset_from_relation(["p"], [("p", "z")])


def test_downset_frame_point_is_two_element():
    f = make_frame("point")
    assert len(f) == 2
    assert f.bot.labels == () and f.top.labels == ("p",)


def test_downset_frame_chain2_is_three_chain():
    f = make_frame("chain2")
    assert [e.labels for e in f.all_elements()] == [(), ("p",), ("p", "q")]


def test_downset_frame_anti2_is_diamond():
    f = make_frame("anti2")
    assert [e.labels for e in f.all_elements()] == [(), ("p",), ("q",), ("p", "q")]


@pytest.mark.parametrize("name", sorted(POSETS))
def test_downset_carrier_matches_powerset_filter(name):
    labels, pairs = POSETS[name]
    closed = transitive_closure_pairs(labels, pairs)
    frame = make_frame(name)
    assert [frozenset(e.labels) for e in frame.all_elements()] == powerset_downsets(
        labels, closed
    )


def test_downset_frame_size_limit():
    labels, pairs = POSETS["anti4"]
    with pytest.raises(SizeLimitExceeded):
        downset_frame(poset_from_relation(labels, pairs), carrier_limit=10)


@pytest.mark.parametrize("name", sorted(POSETS))
def test_frame_laws_hold(name):
    assert make_frame(name).check_laws() == []


@pytest.mark.parametrize("name", sorted(POSETS))
def test_meet_with_top_is_identity(name):
    f = make_frame(name)
    for x in f.all_elements():
        assert f.meet(f.top, x) == x


def test_omega3_implies_m_bot_is_bot(o3):
    m = o3.element(["p"])
    assert o3.implies(m, o3.bot) == o3.bot


def test_omega4_negation_swaps_atoms(o4):
    a, b = o4.element(["p"]), o4.element(["q"])
    assert o4.neg(a) == b
    assert o4.neg(b) == a


@pytest.mark.parametrize("name", ["chain2", "anti2", "vee", "chain2_point", "anti3"])
def test_implies_table_matches_residuation_scan(name):
    f = make_frame(name)
    for b in range(len(f)):
        for c in range(len(f)):
            assert int(f.implies_table[b, c]) == residuation_scan(f, b, c)


def test_cross_frame_operations_rejected(o3, o4):
    with pytest.raises(FrameMismatch):
        o3.meet(o3.top, o4.top)
    with pytest.raises(FrameMismatch):
        o3.le(o4.bot, o3.top)


def test_element_lookup_and_key(o3):
    m = o3.element(["p"])
    assert m.key == "p" and o3.bot.key == ""
    with pytest.raises(UnknownLabel):
        o3.element(["q"])  # {q} is not downward closed in the 2-chain


def test_heyting_dispatcher(o4):
    a, b = o4.element(["p"]), o4.element(["q"])
    assert o4.meet(a, b) == o4.bot
    assert o4.join(a, b) == o4.top
    assert o4.meet() == o4.top
    assert o4.join() == o4.bot
    assert o4.implies(a, o4.bot) == b
    assert o4.neg(a) == b