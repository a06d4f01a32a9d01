import copy
import random

import pytest

from oraclemod.errors import NotElementary
from oraclemod.pca import App, Const, K, S, app, pair, tag_leaf, tag_node
from oraclemod.weihrauch import (
    ExtWeihrauchPredicate,
    check_oracle_membership_w,
    check_weihrauch,
    compose_reducers,
    recheck_certificate_w,
)

from treebuilder import MEMBERS, NON_MEMBER, OMEGA, TOY_F, TOY_G, TOY_H, TOYS, \
    BLeaf, BNode, build_member, mutations, to_term

I = app(S, K, K)
L2_ID = App(K, I)               # l2 r s -> s
L2_APPLY_K = App(K, app(S, I, App(K, K)))  # l2 r s -> s K


def test_identity_reduction_on_all_toys():
    for f in TOYS:
        assert check_weihrauch(f, f, I, L2_ID).verdict == "accepted"


def test_empty_support_reduces_to_anything():
    empty = ExtWeihrauchPredicate([(K, [])])
    assert empty.support == ()
    assert check_weihrauch(empty, TOY_G, I, L2_ID).verdict == "accepted"


def test_chain_and_composites():
    # TOY_G: K |-> [{K K}];  TOY_H: K |-> [{K (K K)}]
    v = check_weihrauch(TOY_G, TOY_H, I, L2_APPLY_K)
    assert v.verdict == "accepted"
    v = check_weihrauch(TOY_H, TOY_H, I, L2_ID)
    assert v.verdict == "accepted"
    l1c, l2c = compose_reducers(I, L2_APPLY_K, I, L2_ID)
    assert check_weihrauch(TOY_G, TOY_H, l1c, l2c).verdict == "accepted"


def test_composite_of_accepted_factors_is_accepted():
    # f <= g via (I, s |-> s K): {S} pulled back from {K S}.
    f = ExtWeihrauchPredicate([(K, [[S]])])
    g = ExtWeihrauchPredicate([(K, [[App(K, S)]])])
    h = ExtWeihrauchPredicate([(K, [[App(K, App(K, S))]])])
    assert check_weihrauch(f, g, I, L2_APPLY_K).verdict == "accepted"
    assert check_weihrauch(g, h, I, L2_APPLY_K).verdict == "accepted"
    l1c, l2c = compose_reducers(I, L2_APPLY_K, I, L2_APPLY_K)
    assert check_weihrauch(f, h, l1c, l2c).verdict == "accepted"


def test_rejection_records_witness():
    f = ExtWeihrauchPredicate([(K, [[S]])])
    g = ExtWeihrauchPredicate([(K, [[App(K, K)]])])
    v = check_weihrauch(f, g, I, L2_ID)  # K K stays K K, never lands in {S}
    assert v.verdict == "rejected"
    assert v.witness is not None


def test_l1_outside_support_rejected():
    f = ExtWeihrauchPredicate([(K, [[S]])])
    g = ExtWeihrauchPredicate([(App(K, K), [[S]])])
    v = check_weihrauch(f, g, I, L2_ID)  # l1 K = K, but supp(g) = {K K}
    assert v.verdict == "rejected"


def test_diverging_reducer_is_unknown():
    f = ExtWeihrauchPredicate([(K, [[S]])])
    v = check_weihrauch(f, f, App(K, App(OMEGA, OMEGA)), L2_ID, fuel=2_000)
    assert v.verdict == "unknown"


def test_non_elementary_reducers_rejected():
    f = ExtWeihrauchPredicate([(K, [[S]])])
    with pytest.raises(NotElementary):
        check_weihrauch(f, f, Const("oracle"), L2_ID)


# -- membership -------------------------------------------------------------


def test_leaf_membership():
    assert check_oracle_membership_w(TOY_F, MEMBERS, tag_leaf(MEMBERS[0])).verdict == "member"
    v = check_oracle_membership_w(TOY_F, MEMBERS, tag_leaf(NON_MEMBER))
    assert v.verdict == "not_member"


def test_vacuous_node_is_member():
    t = tag_node(App(K, S), Const("inert"))  # the K S instance has the empty family
    assert check_oracle_membership_w(TOY_F, MEMBERS, t).verdict == "member"


def test_unmatched_realizer_not_member():
    t = tag_node(NON_MEMBER, Const("inert"))
    assert check_oracle_membership_w(TOY_F, MEMBERS, t).verdict == "not_member"


def test_term_is_normalized_first():
    t = app(K, tag_leaf(MEMBERS[1]), S)
    assert check_oracle_membership_w(TOY_F, MEMBERS, t).verdict == "member"


def test_built_trees_member_and_mutations_never():
    rng = random.Random(99)
    for _ in range(30):
        bt = build_member(rng, TOY_F, depth=3)
        t = to_term(bt)
        v = check_oracle_membership_w(TOY_F, MEMBERS, t)
        assert v.verdict == "member", v
        assert recheck_certificate_w(TOY_F, MEMBERS, t, v.certificate)
        for m in mutations(bt):
            assert check_oracle_membership_w(TOY_F, MEMBERS, m).verdict != "member"


def build_deep(levels):
    from treebuilder import BLeaf, BNode

    cur = BLeaf(MEMBERS[0])
    for _ in range(levels):
        cur = BNode(K, 0, [(S, cur)])
    return cur


def k_chain(levels, payload=MEMBERS[0]):
    """tag_node(K, K t) nested ``levels`` times over the leaf ``payload``:
    under K -> [[S]] each node's one answer S leads to the next."""
    t = tag_leaf(payload)
    for _ in range(levels):
        t = tag_node(K, App(K, t))
    return t


K_TO_S = ExtWeihrauchPredicate([(K, [[S]])])


@pytest.mark.parametrize("levels", (340, 2000))
def test_deep_chain_is_a_rechecked_member(levels):
    # the search and the recheck keep their open nodes on stacks
    t = k_chain(levels)
    v = check_oracle_membership_w(K_TO_S, MEMBERS, t, depth=levels)
    assert v.verdict == "member" and v.path == ()
    assert recheck_certificate_w(K_TO_S, MEMBERS, t, v.certificate)
    cert = v.certificate
    for _ in range(levels):
        assert (cert["kind"], cert["realizer"], cert["choice"]) == ("node", "K", "family 0")
        (cert,) = cert["children"].values()
    assert cert == {"kind": "leaf", "payload": "m0"}
    # one level short, the last node has no depth left
    v = check_oracle_membership_w(K_TO_S, MEMBERS, t, depth=levels - 1)
    assert v.verdict == "unknown" and v.path[-1] == "family 0, answer S: depth exhausted"


def test_deep_chain_blames_its_bottom_leaf():
    levels = 2000
    v = check_oracle_membership_w(K_TO_S, MEMBERS, k_chain(levels, NON_MEMBER), depth=levels)
    assert v.verdict == "not_member" and len(v.path) == levels + 1
    assert v.path[:3] == ("no alternative at K verified",
                          "family 0, answer S: no alternative at K verified",
                          "family 0, answer S: no alternative at K verified")
    assert v.path[-1] == "family 0, answer S: leaf payload bad not in the set"


def test_depth_exhaustion_is_unknown():
    t = to_term(build_deep(3))
    assert check_oracle_membership_w(TOY_F, MEMBERS, t, depth=5).verdict == "member"
    assert check_oracle_membership_w(TOY_F, MEMBERS, t, depth=1).verdict == "unknown"


def test_diverging_branch_is_unknown():
    c = Const("c", rules=((S, App(OMEGA, OMEGA)),))
    t = tag_node(K, c)
    v = check_oracle_membership_w(TOY_F, MEMBERS, t, fuel=2_000)
    assert v.verdict == "unknown"


def test_path_follows_the_failed_leaf_two_levels_down():
    from treebuilder import BLeaf, BNode

    # K -(S)-> K -(S)-> leaf "bad"; answer K K of family 1 is stuck at each node
    t = to_term(BNode(K, 0, [(S, BNode(K, 0, [(S, BLeaf(NON_MEMBER))]))]))
    v = check_oracle_membership_w(TOY_F, MEMBERS, t)
    assert (v.verdict, v.certificate) == ("not_member", None)
    assert v.path == (
        "no alternative at K verified",
        "family 0, answer S: no alternative at K verified",
        "family 0, answer S: leaf payload bad not in the set",
    )


def test_path_of_unknown_follows_the_first_undefined_obligation():
    # family 0 (answer S) fails first, family 1 (answer K K) diverges
    c = Const("c", rules=((S, tag_leaf(NON_MEMBER)), (App(K, K), App(OMEGA, OMEGA))))
    v = check_oracle_membership_w(TOY_F, MEMBERS, tag_node(K, c), fuel=2_000)
    assert v.verdict == "unknown"
    assert v.path == ("no alternative at K verified", "family 1, answer K K: diverged")


def test_instances_with_one_normal_form_are_merged():
    # S K K K normalizes to K: its families follow K's, in input order
    f = ExtWeihrauchPredicate([(K, [[S]]), (App(S, K), []), (app(S, K, K, K), [[K]])])
    assert [list(fam.values()) for fam in f.families_for("K")] == [[S], [K]]
    assert f.support == (K,)
    g = ExtWeihrauchPredicate([(K, [[S]])])
    v = check_weihrauch(f, g, I, L2_ID)
    assert v.verdict == "rejected"
    assert v.witness == "family 1 of K: no target family is translated into it"


def test_repeated_answers_are_kept_once():
    # a family is a set: K S K normalizes to S, so S is listed three times
    f = ExtWeihrauchPredicate([(K, [[S, S, app(K, S, K), App(K, K)]])])
    assert [list(fam.values()) for fam in f.families_for("K")] == [[S, App(K, K)]]
    t = tag_node(K, Const("br", rules=((S, tag_leaf(MEMBERS[0])),
                                      (App(K, K), tag_leaf(MEMBERS[1])))))
    v = check_oracle_membership_w(f, MEMBERS, t)
    assert v.verdict == "member"
    assert recheck_certificate_w(f, MEMBERS, t, v.certificate)
    # one answer listed twice
    g = ExtWeihrauchPredicate([(K, [[S, S]])])
    t = tag_node(K, Const("br", rules=((S, tag_leaf(MEMBERS[0])),)))
    v = check_oracle_membership_w(g, MEMBERS, t)
    assert v.verdict == "member" and recheck_certificate_w(g, MEMBERS, t, v.certificate)


def test_asm_examples():
    # A partitioned assembly with elements x, y realized by K (answers {S}
    # and {}) and z realized by S K (answers {S, K K}): one entry per element,
    # merged by realizer, so element y is family 1 of K.
    P = ExtWeihrauchPredicate(
        [(K, [[S]]), (K, [[]]), (App(S, K), [[S, App(K, K)]])]
    )
    assert [list(fam.values()) for fam in P.families_for("K")] == [[S], []]
    assert check_oracle_membership_w(P, MEMBERS, tag_leaf(MEMBERS[0])).verdict == "member"
    # x and y share the realizer K; y's empty answer set gives a vacuous proof
    t = tag_node(K, Const("inert"))
    v = check_oracle_membership_w(P, MEMBERS, t)
    assert v.verdict == "member" and v.certificate["choice"] == "family 1"
    assert recheck_certificate_w(P, MEMBERS, t, v.certificate)
    # no element carries this realizer
    bad = tag_node(App(K, K), Const("inert"))
    assert check_oracle_membership_w(P, MEMBERS, bad).verdict == "not_member"
    # z realizes a two-obligation node
    c = Const(
        "c2", rules=((S, tag_leaf(MEMBERS[0])), (App(K, K), tag_leaf(MEMBERS[1])))
    )
    assert check_oracle_membership_w(P, MEMBERS, tag_node(App(S, K), c)).verdict == "member"


def test_malformed_terms_not_member():
    assert check_oracle_membership_w(TOY_F, MEMBERS, K).verdict == "not_member"
    assert (
        check_oracle_membership_w(TOY_F, MEMBERS, pair(App(K, K), S)).verdict
        == "not_member"
    )


DIVERGES = App(OMEGA, OMEGA)  # S I I (S I I)

# S K, family 0 {S, K K}: S leads to the leaf m0, K K to a K node whose
# family 1 {K K} leads to the leaf m2.
TWO_LEVELS = BNode(app(S, K), 0, [(S, BLeaf(MEMBERS[0])),
                                  (App(K, K), BNode(K, 1, [(App(K, K), BLeaf(MEMBERS[2]))]))])


def _diverging_branch(t, cert):
    c = Const("c_omega", rules=((S, DIVERGES), (App(K, K), to_term(TWO_LEVELS.branches[1][1]))))
    return tag_node(app(S, K), c), cert


def _set(path, value):
    """A tamper that sets the certificate entry at ``path`` to ``value``."""
    def tamper(t, cert):
        *keys, last = path
        node = cert
        for k in keys:
            node = node[k]
        node[last] = value
        return t, cert
    return tamper


def _drop_child(t, cert):
    del cert["children"]["S"]
    return t, cert


TAMPERS = {
    "term diverges": lambda t, cert: (DIVERGES, cert),
    "branch diverges": _diverging_branch,
    "wrong leaf payload": _set(("children", "S", "payload"), "m1"),
    "payload not a member": lambda t, cert: (tag_leaf(NON_MEMBER),
                                             {"kind": "leaf", "payload": "bad"}),
    "leaf certificate on a node": lambda t, cert: (t, {"kind": "leaf", "payload": "m0"}),
    "node certificate on a leaf": lambda t, cert: (tag_leaf(MEMBERS[0]), cert),
    "node certificate on a malformed term": lambda t, cert: (K, cert),
    "unknown kind": _set(("kind",), "branch"),
    "wrong realizer": _set(("realizer",), "K"),
    "choice names no family": _set(("choice",), "family 2"),
    "children of another family": _set(("children", "K K", "choice"), "family 0"),
    "a child missing": _drop_child,
}


@pytest.mark.parametrize("tamper", TAMPERS.values(), ids=list(TAMPERS))
def test_recheck_rejects_tampered_certificates(tamper):
    t = to_term(TWO_LEVELS)
    v = check_oracle_membership_w(TOY_F, MEMBERS, t)
    assert v.verdict == "member"
    assert recheck_certificate_w(TOY_F, MEMBERS, t, copy.deepcopy(v.certificate))
    assert not recheck_certificate_w(TOY_F, MEMBERS, *tamper(t, copy.deepcopy(v.certificate)))
