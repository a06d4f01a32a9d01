"""Finite extended Weihrauch predicates and bounded oracle-tree checking.

``ExtWeihrauchPredicate`` is the one predicate type; a partitioned assembly
is the extended predicate that maps each realizer to the answer sets of the
elements it realizes.  Reductions (``check_weihrauch``) and tree membership
(``check_oracle_membership_w``) share one three-valued search,
``_search``: the first family whose obligations all hold, else
Unknown if some obligation was undefined, else a failure, reported with
what the check of the blamed obligation found.  A realizer's printed normal
form is its identity: the predicate maps each printed instance to its
families, and a family maps each printed answer to its normal form, so a
form printed once is looked up by that key and never printed again.

Membership in the least fixed point of the encoded-tree equation is checked
certificate-first: a Member verdict always carries a finite well-founded
certificate and is sound; NotMember is issued only when every alternative
fails with defined evaluations; anything resting on a diverging or
depth-exhausted branch stays Unknown. Any other verdict's ``path`` gives,
from the root down, each node's reason along the branch of the obligation
that decided it, each entry below the root prefixed ``family i, answer d:``.
The check and ``recheck_certificate_w`` keep the nodes they have open on
an explicit stack, so a tree of any depth is checked without recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import NotElementary, SizeLimitExceeded
from .pca import (
    DEFAULT_FUEL,
    App,
    K,
    S,
    Term,
    app,
    eval_term,
    match_pair,
    mentions_constants,
    numeral,
    pp,
)

_NUM0 = numeral(0)
_NUM1 = numeral(1)


def _normalize(t: Term, fuel: int, what: str) -> Term:
    r = eval_term(t, fuel)
    if r.diverged:
        raise SizeLimitExceeded(f"{what} {pp(t)} has no normal form within fuel {fuel}")
    return r.term


def _answer_set(family: Sequence[Term], fuel: int) -> dict[str, Term]:
    """A family's answers in normal form, keyed by printed form, in the order
    they first occur."""
    answers: dict[str, Term] = {}
    for m in family:
        a = _normalize(m, fuel, "family member")
        answers.setdefault(pp(a), a)
    return answers


class ExtWeihrauchPredicate:
    """A finite map instance-realizer -> families of finite realizer sets.

    Instances are kept by printed normal form, and entries whose instances
    share one are merged, their families concatenated in input order. A
    family is a set: its answers are kept by printed normal form too, each
    once, in the order they first occur.
    """

    def __init__(
        self,
        entries: Iterable[tuple[Term, Sequence[Sequence[Term]]]],
        fuel: int = DEFAULT_FUEL,
    ):
        # printed instance -> (its normal form, its families)
        self._instances: dict[str, tuple[Term, list[dict[str, Term]]]] = {}
        for instance, families in entries:
            r = _normalize(instance, fuel, "instance realizer")
            self._instances.setdefault(pp(r), (r, []))[1].extend(
                _answer_set(family, fuel) for family in families
            )
        self.support: tuple[Term, ...] = tuple(
            r for r, fams in self._instances.values() if fams)

    def families_for(self, key: str) -> Sequence[dict[str, Term]]:
        """The families of the instance whose normal form prints as key."""
        return self._instances.get(key, (None, ()))[1]


def _search(families):
    """The search of both checks: the first family whose obligations all hold.

    A generator: it yields each obligation x in search order and is sent
    ``(evidence, detail)`` for it: evidence that x holds (truthy), ``False``
    if it fails, or ``None`` if it is undefined, with what its check found.
    It returns ``(i, evidence)`` for the first family i whose members all
    hold, with the evidence in member order.  With no such family (of a
    non-empty list) it returns ``(None, (k, key, e, detail))``: the first
    undefined obligation, else the first failed one, its family k, its
    printed form key and what was sent for it.
    """
    blame = None
    for i, family in enumerate(families):
        evidence = []
        for key, x in family.items():
            e, detail = yield x
            if not e:
                if blame is None or (e is None and blame[2] is not None):
                    blame = (i, key, e, detail)
                break
            evidence.append(e)
        else:
            return i, evidence
    return None, blame


def _first_verified(families, decide):
    """``_search`` with each obligation x decided by ``decide(x)``, which
    returns what the search is sent."""
    search = _search(families)
    try:
        x = next(search)
        while True:
            x = search.send(decide(x))
    except StopIteration as stop:
        return stop.value


# -- reducibility ------------------------------------------------------------


@dataclass
class WeihrauchVerdict:
    verdict: str  # "accepted" | "rejected" | "unknown"
    obligations: list[str]
    witness: str | None = None


def check_weihrauch(
    f: ExtWeihrauchPredicate,
    g: ExtWeihrauchPredicate,
    l1: Term,
    l2: Term,
    fuel: int = DEFAULT_FUEL,
) -> WeihrauchVerdict:
    """Check that (l1, l2) witnesses f <= g over the stored finite predicates.

    The reducers must be elementary, i.e. mention no oracle constants.
    """
    for name, t in (("l1", l1), ("l2", l2)):
        if mentions_constants(t):
            raise NotElementary(f"{name} mentions oracle constants")
    log: list[str] = []
    for rp, (r, families) in f._instances.items():
        if not families:
            continue
        e1 = eval_term(App(l1, r), fuel)
        if e1.diverged:
            log.append(f"l1 ({rp}) diverged")
            return WeihrauchVerdict("unknown", log, witness=log[-1])
        r2p = pp(e1.term)
        targets = g.families_for(r2p)
        if not targets:
            log.append(f"l1 ({rp}) = {r2p} outside target support")
            return WeihrauchVerdict("rejected", log, witness=log[-1])
        log.append(f"l1 ({rp}) = {r2p} in target support")
        for ti, theta in enumerate(families):

            def lands_in_theta(s_el: Term) -> tuple[bool | None, None]:
                e2 = eval_term(app(l2, r, s_el), fuel)
                return (None if e2.diverged else pp(e2.term) in theta), None

            chosen, blame = _first_verified(targets, lands_in_theta)
            if chosen is None:
                msg = f"family {ti} of {rp}: no target family is translated into it"
                log.append(msg)
                return WeihrauchVerdict(
                    "rejected" if blame[2] is False else "unknown", log, witness=msg
                )
            log.append(f"family {ti} of {rp}: target family {chosen} works")
    return WeihrauchVerdict("accepted", log)


_B = app(S, App(K, S), K)  # B f g x = f (g x)


def compose_reducers(
    l1: Term, l2: Term, m1: Term, m2: Term
) -> tuple[Term, Term]:
    """Reducers witnessing f <= h from witnesses of f <= g and g <= h.

    The first maps r to m1 (l1 r); the second maps r, s to l2 r (m2 (l1 r) s).
    """
    first = app(_B, m1, l1)
    second = app(S, app(_B, _B, l2), app(_B, m2, l1))
    return first, second


# -- encoded-tree membership --------------------------------------------------


@dataclass
class MembershipVerdict:
    verdict: str  # "member" | "not_member" | "unknown"
    path: tuple[str, ...]
    certificate: dict | None = None


def _decode(t_nf: Term):
    """Syntactic decoding of a normal form against the canonical encodings."""
    m = match_pair(t_nf)
    if m is None:
        return ("malformed", "not a canonical pair")
    tag, body = m
    if tag == _NUM0:
        return ("leaf", body)
    if tag == _NUM1:
        mm = match_pair(body)
        if mm is None:
            return ("malformed", "node body is not a canonical pair")
        return ("node", mm[0], mm[1])
    return ("malformed", f"tag {pp(tag)} is neither 0 nor 1")


def check_oracle_membership_w(
    f: ExtWeihrauchPredicate,
    members: Sequence[Term],
    t: Term,
    depth: int = 8,
    fuel: int = DEFAULT_FUEL,
) -> MembershipVerdict:
    """Membership of an encoded tree in the least set generated by leaves
    over ``members`` and f-indexed nodes: a node with realizer b needs one
    family of b whose answers all lead to members."""
    members = {pp(_normalize(m, fuel, "answer-set member")) for m in members}
    start = eval_term(t, fuel)
    if start.diverged:
        return MembershipVerdict("unknown", ("term itself diverged",))

    # The walk keeps its open nodes on a stack, so a tree of any depth takes
    # no recursion: each is (its search, realizer, c, families, depth), and
    # ``outcome`` is what the top one's search is sent next, None to start.
    # A path is built reversed, so each level adds to its end.
    nodes: list[tuple] = []

    def visit(t_nf: Term, depth: int) -> tuple[dict | bool | None, list[str]] | None:
        """(certificate, []) for a member leaf, (False or None, path) for a
        tree that is not a member or whose membership is unknown here; None
        after opening the search of a node with families and depth left."""
        dec = _decode(t_nf)
        if dec[0] == "malformed":
            return False, [dec[1]]
        if dec[0] == "leaf":
            payload = pp(dec[1])
            if payload in members:
                return {"kind": "leaf", "payload": payload}, []
            return False, [f"leaf payload {payload} not in the set"]
        _, b, c = dec
        realizer = pp(b)
        families = f.families_for(realizer)
        if not families:
            return False, [f"node realizer {realizer} matches nothing"]
        if depth <= 0:
            return None, ["depth exhausted"]
        nodes.append((_search(families), realizer, c, families, depth))
        return None

    outcome = visit(start.term, depth)
    while nodes:
        search, realizer, c, families, level = nodes[-1]
        try:
            d = search.send(outcome)
        except StopIteration as stop:
            nodes.pop()
            i, found = stop.value
            if i is None:
                k, key, e, path = found
                path.append(f"family {k}, answer {key}: {path.pop()}")
                path.append(f"no alternative at {realizer} verified")
                outcome = e, path
            else:
                outcome = {
                    "kind": "node",
                    "realizer": realizer,
                    "choice": f"family {i}",
                    "children": dict(zip(families[i], found)),
                }, []
            continue
        e = eval_term(App(c, d), fuel)
        outcome = (None, ["diverged"]) if e.diverged else visit(e.term, level - 1)
    cert, path = outcome
    if cert:
        return MembershipVerdict("member", (), cert)
    return MembershipVerdict("not_member" if cert is False else "unknown", tuple(reversed(path)))


def recheck_certificate_w(
    f: ExtWeihrauchPredicate,
    members: Sequence[Term],
    t: Term,
    cert: dict,
    fuel: int = DEFAULT_FUEL,
) -> bool:
    """Independently re-verify a Member certificate against the same data,
    visiting its nodes depth first from a stack, children in answer order,
    and stopping at the first that fails."""
    members = {pp(_normalize(m, fuel, "answer-set member")) for m in members}
    todo = [(t, cert)]
    while todo:
        t_term, cert = todo.pop()
        start = eval_term(t_term, fuel)
        if start.diverged:
            return False
        dec = _decode(start.term)
        if cert["kind"] == "leaf":
            if not (dec[0] == "leaf" and pp(dec[1]) == cert["payload"]
                    and cert["payload"] in members):
                return False
            continue
        if cert["kind"] != "node" or dec[0] != "node":
            return False
        _, b, c = dec
        realizer = pp(b)
        if realizer != cert["realizer"]:
            return False
        labelled = {f"family {i}": fam for i, fam in enumerate(f.families_for(realizer))}
        answers = labelled.get(cert["choice"])
        if answers is None or answers.keys() != cert["children"].keys():
            return False
        todo += reversed([(App(c, d), cert["children"][key]) for key, d in answers.items()])
    return True
