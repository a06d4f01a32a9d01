"""A small partial combinatory algebra: S, K, oracle constants, and
fuel-bounded normal-order evaluation.

Terms are finite application trees.  Reading, printing, comparing,
hashing and normalizing all walk explicit stacks, so no depth of nesting
is too deep; the printed form of a term identifies it.  Evaluation
contracts the leftmost outermost redex (K x y, S x y z, or a constant
applied to a listed normal form) and then normalizes the remaining
arguments, so a returned value has no enabled redex anywhere.  Running out
of fuel is an ordinary result, not an error: definedness is only
semi-decidable.

S and K are the only two ``Prim`` objects: ``Prim("S")`` and ``Prim("K")``
return the module's ``S`` and ``K``, and any other name is refused.  So the
normalizer's head loop tells them apart by identity, and a printed ``S`` or
``K`` always reads back as the primitive it came from.  The head loop
contracts ``S K y z`` to ``z`` in one iteration charged two steps, the
steps of ``S K y z -> K z (y z) -> z``, without building the ``y z`` that
K drops unread; with one step of fuel left it takes the ordinary S step,
so a run that runs out stops exactly where the step-by-step run does.
Every ``I = S K K`` applied to an argument is such a redex, and so is
every pair, numeral and tag applied to a selector.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ArityError, TermSyntaxError, UnknownConstant

# Contraction steps an evaluation may spend unless its caller says otherwise.
DEFAULT_FUEL = 100_000

# A name is a run of \w (exactly str.isalnum plus "_") and "'"; a token is a
# parenthesis or a name, and any other character outside whitespace is stray.
_NAME = re.compile(r"[\w']+")
_TOKEN = re.compile(r"[()]|[\w']+")
_STRAY = re.compile(r"[^\s()\w']")


class Prim:
    """The combinator S or K.  There is one object of each, the module's
    ``S`` and ``K``, which ``Prim(name)`` returns; any other name is a
    ``TermSyntaxError``, since it would print as a constant."""

    __slots__ = ("name",)

    def __new__(cls, name: str) -> "Prim":
        if name == "S":
            return S
        if name == "K":
            return K
        raise TermSyntaxError(f"primitive name {name!r} is neither S nor K")

    def __reduce__(self):
        # copies and unpickled terms hold the module's S and K
        return Prim, (self.name,)

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    """A named oracle constant; identity is the name, a token other than S
    and K so that printing is injective; the rules are evaluation only."""

    name: str
    rules: tuple[tuple["Term", "Term"], ...] = field(
        default=(), compare=False, hash=False
    )

    def __post_init__(self) -> None:
        if self.name in ("S", "K") or not _NAME.fullmatch(self.name):
            raise TermSyntaxError(
                f"constant name {self.name!r} is not an identifier other than S and K"
            )

    def __repr__(self) -> str:
        return self.name


class App:
    """An application node.  Equality is structural and hashing is cached;
    both walk an explicit stack, so any depth of nesting is fine.
    ``_normal`` is set once the normalizer has found the node to be its own
    normal form, which it then returns without walking it again."""

    __slots__ = ("fn", "arg", "_hash", "_normal")

    def __init__(self, fn: "Term", arg: "Term"):
        self.fn = fn
        self.arg = arg
        self._normal = False

    def __eq__(self, other: object) -> bool:
        if type(other) is not App:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if type(a) is App:
                if type(b) is not App:
                    return False
                todo += ((a.arg, b.arg), (a.fn, b.fn))
            elif type(b) is App or a != b:
                return False
        return True

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        # children before parents, so that each node hashes its children's
        # cached hashes
        todo = [self]
        while todo:
            t = todo[-1]
            unhashed = [c for c in (t.fn, t.arg) if type(c) is App and not hasattr(c, "_hash")]
            if unhashed:
                todo += unhashed
            else:
                todo.pop()
                t._hash = hash((t.fn, t.arg))
        return self._hash

    def __repr__(self) -> str:
        return pp(self)


Term = Prim | Const | App


def _prim(name: str) -> Prim:
    p = object.__new__(Prim)
    p.name = name
    return p


S = _prim("S")
K = _prim("K")


def app(*terms: Term) -> Term:
    """Left-associated application."""
    if not terms:
        raise ArityError("application needs at least one term")
    acc = terms[0]
    for t in terms[1:]:
        acc = App(acc, t)
    return acc


def pp(t: Term) -> str:
    """Print with minimal parentheses; application associates left.  Each left
    spine is unrolled in a loop, its arguments and their parentheses pushed
    right to left on an explicit stack of text and subterms still to print."""
    out: list[str] = []
    todo: list[Term | str] = [t]
    while todo:
        t = todo.pop()
        while isinstance(t, App):
            todo += (")", t.arg, " (") if isinstance(t.arg, App) else (f" {t.arg.name}",)
            t = t.fn
        out.append(t if isinstance(t, str) else t.name)
    return "".join(out)


def mentions_constants(t: Term) -> bool:
    """Whether t contains an oracle constant; walks an explicit stack, so
    any depth of nesting is fine."""
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, App):
            todo += (t.fn, t.arg)
        elif isinstance(t, Const):
            return True
    return False


# -- parsing ------------------------------------------------------------


def _tokenize(src: str) -> list[str]:
    stray = _STRAY.search(src)
    if stray:
        raise TermSyntaxError(f"unexpected character {stray.group()!r} at offset {stray.start()}")
    return _TOKEN.findall(src)


def parse_term(src: str, auto_declare: bool = False) -> Term:
    """Parse ``atom+`` with left-associative application.

    Identifiers other than S and K are errors unless ``auto_declare`` is
    set, in which case each distinct name becomes one fresh inert constant.
    One partial application is kept per open parenthesis, so any depth of
    nesting parses.
    """
    tokens = _tokenize(src)
    if not tokens:
        raise TermSyntaxError("empty term")
    constants: dict[str, Term] = {"S": S, "K": K}
    outer: list[Term | None] = []  # the partial application each '(' interrupted
    acc: Term | None = None
    for tok in tokens:
        if tok == "(":
            outer.append(acc)
            acc = None
            continue
        if tok == ")":
            if acc is None:
                raise TermSyntaxError("unexpected ')'")
            if not outer:
                raise TermSyntaxError("trailing input")
            t, acc = acc, outer.pop()
        elif tok in constants:
            t = constants[tok]
        elif auto_declare:
            t = constants[tok] = Const(tok)
        else:
            raise UnknownConstant(f"undeclared constant {tok!r}")
        acc = t if acc is None else App(acc, t)
    if acc is None:
        raise TermSyntaxError("term ends where an atom was expected")
    if outer:
        raise TermSyntaxError("unbalanced parenthesis")
    return acc


# -- evaluation ----------------------------------------------------------


@dataclass
class EvalResult:
    term: Term | None
    steps: int

    @property
    def diverged(self) -> bool:
        return self.term is None


def _norm(t: Term, fuel: int) -> tuple[Term | None, int]:
    """The normal form of t and the fuel left, or (None, 0) once the fuel
    runs out.

    Each call of the normalizer is a frame on an explicit stack.  A frame
    contracts the leftmost outermost redex of its term until the head is
    stuck, normalizing a constant's leftmost argument before matching its
    rules, and then normalizes the remaining arguments left to right.  The
    head loop unwinds the spine onto the argument stack and contracts K
    and S redexes, telling the two apart by identity (they are singletons)
    and checking the argument count once per step; a constant head with
    rules leaves it for the rule match.  It contracts ``S K y z`` straight
    to ``z`` and charges the two steps of ``K z (y z)`` and ``z``, but only
    with at least two steps of fuel left: with one, it takes the S step
    alone, so that the run stops at the step where it always stopped.
    Contractions share subterm objects (S duplicates its last argument by
    reference), so normal forms are memoized by the identity of the term
    they came from, and a shared subterm is normalized and charged once.
    A term with no redex anywhere is returned itself, and marked so
    (``App._normal``) that no later call walks it again: that costs no fuel
    either way, so a term's normal form and its steps stay the same.
    """
    if type(t) is not App or t._normal:
        return t, fuel
    memo: dict[int, tuple[Term, Term]] = {}
    # suspended frames: (term, head, argument stack, normal forms of the
    # arguments done so far or None while the head is reduced, whether the
    # frame has contracted)
    frames: list[tuple] = []
    while True:
        if t is not None:  # start a frame on t, an App with no memo entry
            head, args, done, contracted, matching = t, [], None, False, False
        elif frames:  # resume the innermost frame with nf, the value it awaited
            t, head, args, done, contracted = frames.pop()
            if done is None:
                args[-1] = nf
                matching = True
            else:
                done.append(nf)
        else:
            return nf, fuel
        call = None
        push, pop = args.append, args.pop
        # reduce the head; args[-1] is always the leftmost argument, and
        # matching says it is the normal form of a constant head's argument
        while done is None:
            if matching:
                matching = False
                a = args[-1]
                for lhs, rhs in head.rules:
                    if lhs == a:
                        if fuel <= 0:
                            return None, 0
                        fuel -= 1
                        pop()
                        head = rhs
                        contracted = True
                        break
                else:
                    done = [pop()]
                    break
            # the head loop: contract K and S redexes until the head is stuck
            while True:
                while type(head) is App:
                    push(head.arg)
                    head = head.fn
                n = len(args)
                if head is K and n >= 2:
                    if fuel <= 0:
                        return None, 0
                    fuel -= 1
                    head = pop()
                    pop()
                elif head is S and n >= 3:
                    if fuel <= 0:
                        return None, 0
                    x = pop()
                    if x is K and fuel >= 2:
                        # S K y z -> K z (y z) -> z, and K drops y z unread
                        fuel -= 2
                        pop()
                        head = pop()
                    else:
                        fuel -= 1
                        y = pop()
                        z = args[-1]
                        args[-1] = App(y, z)
                        push(z)
                        head = x
                else:
                    break
                contracted = True
            if type(head) is Const and head.rules and args:
                a = args[-1]
                if type(a) is App and not a._normal:
                    hit = memo.get(id(a))
                    if hit is None:
                        call = a
                        break
                    args[-1] = hit[1]
                matching = True
            else:
                done = []
        # then normalize the remaining arguments, leftmost first
        while call is None and args:
            a = pop()
            if type(a) is App and not a._normal:
                hit = memo.get(id(a))
                if hit is None:
                    call = a
                    break
                a = hit[1]
            done.append(a)
        if call is not None:
            frames.append((t, head, args, done, contracted))
            t = call
            continue
        # keep t itself unless a contraction or an argument changed it
        if not contracted:
            spine = t
            for a in reversed(done):
                if spine.arg is not a:
                    contracted = True
                    break
                spine = spine.fn
        if contracted:
            nf = head
            for a in done:
                nf = App(nf, a)
        else:
            nf = t
            t._normal = True
        memo[id(t)] = (t, nf)
        t = None


def eval_term(t: Term, fuel: int = DEFAULT_FUEL) -> EvalResult:
    """Normalize a closed term within a step budget.

    The result is diverged only when the fuel runs out.  The normalizer
    keeps its frames on an explicit stack, so a term of any depth of
    nesting normalizes.  It remembers normalized subterms by object, so
    one unnormalized subterm object used in two places is normalized and
    charged once: ``S (K S S) (K S S)`` built with one ``K S S`` object
    takes 1 step, its fresh parse 2.  Parsed terms share no such object,
    so the CLI's step counts are those of the printed term.
    """
    nf, left = _norm(t, fuel)
    return EvalResult(term=nf, steps=fuel - left)


# -- standard encodings ----------------------------------------------------

I_TERM = app(S, K, K)


def pair(p: Term, q: Term) -> Term:
    # S (S I (K p)) (K q) z  reduces to  z p q.
    return app(S, app(S, I_TERM, App(K, p)), App(K, q))


def numeral(n: int) -> Term:
    if n < 0:
        raise ArityError("numerals are nonnegative")
    t: Term = I_TERM
    for _ in range(n):
        t = pair(K, t)
    return t


def tag_leaf(a: Term) -> Term:
    return pair(numeral(0), a)


def tag_node(b: Term, c: Term) -> Term:
    return pair(numeral(1), pair(b, c))


def match_pair(t: Term) -> tuple[Term, Term] | None:
    """Destructure the canonical normal form S (S I (K p)) (K q) -> (p, q)."""
    if not (type(t) is App and type(t.fn) is App and t.fn.fn is S):
        return None
    left, right = t.fn.arg, t.arg
    if not (type(right) is App and right.fn is K):
        return None
    if not (
        type(left) is App
        and type(left.fn) is App
        and left.fn.fn is S
        and (left.fn.arg is I_TERM or left.fn.arg == I_TERM)
        and type(left.arg) is App
        and left.arg.fn is K
    ):
        return None
    return left.arg.arg, right.arg
