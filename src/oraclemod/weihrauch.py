"""Finite extended Weihrauch predicates and bounded oracle-tree checking.

Membership in the least fixed point of the encoded-tree equation is checked
certificate-first: a Member verdict always carries a finite well-founded
certificate and is sound; NotMember is issued only when every alternative
fails with defined evaluations; anything resting on a diverging or
depth-exhausted branch stays Unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import NotElementary, SizeLimitExceeded
from .pca import (
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


class ExtWeihrauchPredicate:
    """A finite map instance-realizer -> families of finite realizer sets."""

    def __init__(
        self,
        entries: Iterable[tuple[Term, Sequence[Sequence[Term]]]],
        fuel: int = 100_000,
    ):
        normed = []
        for instance, families in entries:
            r = _normalize(instance, fuel, "instance realizer")
            fams = tuple(
                tuple(_normalize(m, fuel, "family member") for m in family)
                for family in families
            )
            normed.append((r, fams))
        self.entries: tuple[tuple[Term, tuple[tuple[Term, ...], ...]], ...] = tuple(
            normed
        )

    @property
    def support(self) -> tuple[Term, ...]:
        return tuple(r for r, fams in self.entries if fams)

    def families_for(self, r: Term) -> tuple[tuple[Term, ...], ...]:
        for inst, fams in self.entries:
            if inst == r:
                return fams
        return ()

    def alternatives(self, b: Term):
        """(label, answers) pairs for the existential at node realizer b:
        one per family stored for b."""
        for i, theta in enumerate(self.families_for(b)):
            yield (f"family {i}", theta)


class PartitionedAssemblyPredicate:
    """A finite carrier with one realizer per element and a set of answers
    per element; distinct elements may share a realizer."""

    def __init__(
        self,
        rho: Mapping[str, Term],
        pred: Mapping[str, Sequence[Term]],
        fuel: int = 100_000,
    ):
        if sorted(rho) != sorted(pred):
            raise ValueError("rho and pred must cover the same elements")
        self.elements: tuple[str, ...] = tuple(sorted(rho))
        self.rho = {x: _normalize(rho[x], fuel, "element realizer") for x in self.elements}
        self.pred = {
            x: tuple(_normalize(d, fuel, "answer") for d in pred[x])
            for x in self.elements
        }

    def alternatives(self, b: Term):
        """(label, answers) pairs for the existential at node realizer b:
        one per carrier element realized by b."""
        for x in self.elements:
            if self.rho[x] == b:
                yield (f"element {x}", self.pred[x])


# -- reducibility ------------------------------------------------------------


@dataclass
class WeihrauchVerdict:
    verdict: str  # "accepted" | "rejected" | "unknown"
    obligations: list[str]
    witness: str | None = None

    @property
    def accepted(self) -> bool:
        return self.verdict == "accepted"


def check_weihrauch(
    f: ExtWeihrauchPredicate,
    g: ExtWeihrauchPredicate,
    l1: Term,
    l2: Term,
    fuel: int = 100_000,
) -> WeihrauchVerdict:
    """Check that (l1, l2) witnesses f <= g over the stored finite predicates.

    The reducers must be elementary, i.e. mention no oracle constants.
    """
    for name, t in (("l1", l1), ("l2", l2)):
        if mentions_constants(t):
            raise NotElementary(f"{name} mentions oracle constants")
    log: list[str] = []
    for r in f.support:
        e1 = eval_term(App(l1, r), fuel)
        if e1.diverged:
            log.append(f"l1 ({pp(r)}) diverged")
            return WeihrauchVerdict("unknown", log, witness=log[-1])
        r2 = e1.term
        if r2 not in g.support:
            log.append(f"l1 ({pp(r)}) = {pp(r2)} outside target support")
            return WeihrauchVerdict("rejected", log, witness=log[-1])
        log.append(f"l1 ({pp(r)}) = {pp(r2)} in target support")
        for ti, theta in enumerate(f.families_for(r)):
            chosen = None
            saw_unknown = False
            for xi_i, xi in enumerate(g.families_for(r2)):
                ok = True
                unk = False
                for s_el in xi:
                    e2 = eval_term(app(l2, r, s_el), fuel)
                    if e2.diverged:
                        unk = True
                        break
                    if e2.term not in theta:
                        ok = False
                        break
                if unk:
                    saw_unknown = True
                elif ok:
                    chosen = xi_i
                    break
            if chosen is None:
                msg = f"family {ti} of {pp(r)}: no target family is translated into it"
                log.append(msg)
                return WeihrauchVerdict(
                    "unknown" if saw_unknown else "rejected", log, witness=msg
                )
            log.append(f"family {ti} of {pp(r)}: target family {chosen} works")
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

    @property
    def is_member(self) -> bool:
        return self.verdict == "member"


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


def _check_membership(alternatives_for, members, t, depth, fuel):
    """Shared engine; ``alternatives_for(b)`` yields (label, answers) pairs
    for the existential at a node realizer b."""
    members = tuple(_normalize(m, fuel, "answer-set member") for m in members)
    start = eval_term(t, fuel)
    if start.diverged:
        return MembershipVerdict("unknown", ("term itself diverged",))

    def go(t_nf: Term, depth: int, path: tuple[str, ...]) -> MembershipVerdict:
        dec = _decode(t_nf)
        if dec[0] == "malformed":
            return MembershipVerdict("not_member", path + (dec[1],))
        if dec[0] == "leaf":
            a = dec[1]
            if a in members:
                return MembershipVerdict(
                    "member", path, {"kind": "leaf", "payload": pp(a)}
                )
            return MembershipVerdict(
                "not_member", path + (f"leaf payload {pp(a)} not in the set",)
            )
        _, b, c = dec
        alts = list(alternatives_for(b))
        if not alts:
            return MembershipVerdict(
                "not_member", path + (f"node realizer {pp(b)} matches nothing",)
            )
        if depth <= 0:
            return MembershipVerdict("unknown", path + ("depth exhausted",))
        saw_unknown = False
        for label, answers in alts:
            children: dict[str, dict] = {}
            failed = False
            unk = False
            for d in answers:
                e = eval_term(App(c, d), fuel)
                if e.diverged:
                    unk = True
                    break
                sub = go(e.term, depth - 1, path + (f"{label}, answer {pp(d)}",))
                if sub.verdict == "member":
                    children[pp(d)] = sub.certificate
                elif sub.verdict == "unknown":
                    unk = True
                    break
                else:
                    failed = True
                    break
            if unk:
                saw_unknown = True
            elif not failed:
                cert = {
                    "kind": "node",
                    "realizer": pp(b),
                    "choice": label,
                    "children": children,
                }
                return MembershipVerdict("member", path, cert)
        return MembershipVerdict(
            "unknown" if saw_unknown else "not_member",
            path + (f"no alternative at {pp(b)} verified",),
        )

    return go(start.term, depth, ())


def check_oracle_membership_w(
    f: ExtWeihrauchPredicate,
    members: Sequence[Term],
    t: Term,
    depth: int = 8,
    fuel: int = 100_000,
) -> MembershipVerdict:
    """Membership of an encoded tree in the least set generated by leaves
    over ``members`` and f-indexed nodes."""
    return _check_membership(f.alternatives, members, t, depth, fuel)


def check_oracle_membership_asm(
    P: PartitionedAssemblyPredicate,
    members: Sequence[Term],
    t: Term,
    depth: int = 8,
    fuel: int = 100_000,
) -> MembershipVerdict:
    """Assembly flavour: a node realizer must be the realizer of some
    carrier element, each such element giving one alternative."""
    return _check_membership(P.alternatives, members, t, depth, fuel)


def recheck_certificate(
    alternatives_for, members, t: Term, cert: dict, fuel: int = 100_000
) -> bool:
    """Independently re-verify a Member certificate against the same data."""
    members = tuple(_normalize(m, fuel, "answer-set member") for m in members)

    def go(t_term: Term, cert: dict) -> bool:
        start = eval_term(t_term, fuel)
        if start.diverged:
            return False
        dec = _decode(start.term)
        if cert["kind"] == "leaf":
            return dec[0] == "leaf" and pp(dec[1]) == cert["payload"] and dec[1] in members
        if cert["kind"] != "node" or dec[0] != "node":
            return False
        _, b, c = dec
        if pp(b) != cert["realizer"]:
            return False
        for label, answers in alternatives_for(b):
            if label != cert["choice"]:
                continue
            if sorted(pp(d) for d in answers) != sorted(cert["children"]):
                return False
            return all(go(App(c, d), cert["children"][pp(d)]) for d in answers)
        return False

    return go(t, cert)


def recheck_certificate_w(f, members, t, cert, fuel: int = 100_000) -> bool:
    return recheck_certificate(f.alternatives, members, t, cert, fuel)


def recheck_certificate_asm(P, members, t, cert, fuel: int = 100_000) -> bool:
    return recheck_certificate(P.alternatives, members, t, cert, fuel)
