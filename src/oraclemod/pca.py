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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ArityError, TermSyntaxError, UnknownConstant

# Contraction steps an evaluation may spend unless its caller says otherwise.
DEFAULT_FUEL = 100_000

# A name is a run of \w (exactly str.isalnum plus "_") and "'"; a token is a
# parenthesis, a name, or (group 1) any other character outside whitespace.
_NAME = re.compile(r"[\w']+")
_TOKEN = re.compile(r"[()]|[\w']+|(\S)")


@dataclass(frozen=True)
class Prim:
    name: str  # "S" or "K"

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

S = Prim("S")
K = Prim("K")


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
    out: list[str] = []
    for m in _TOKEN.finditer(src):
        if m.group(1):
            raise TermSyntaxError(f"unexpected character {m.group(1)!r} at offset {m.start()}")
        out.append(m.group())
    return out


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
    rules, and then normalizes the remaining arguments left to right.
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
                        args.pop()
                        head = rhs
                        contracted = True
                        break
                else:
                    done = [args.pop()]
                    break
            while type(head) is App:
                args.append(head.arg)
                head = head.fn
            kind = type(head)
            if kind is Prim and head.name == "K" and len(args) >= 2:
                if fuel <= 0:
                    return None, 0
                fuel -= 1
                head = args.pop()
                args.pop()
                contracted = True
            elif kind is Prim and head.name == "S" and len(args) >= 3:
                if fuel <= 0:
                    return None, 0
                fuel -= 1
                head = args.pop()
                y = args.pop()
                z = args[-1]
                args[-1] = App(y, z)
                args.append(z)
                contracted = True
            elif kind is Const and head.rules and args:
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
            a = args.pop()
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
    nesting normalizes.
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
    if not (isinstance(t, App) and isinstance(t.fn, App) and t.fn.fn == S):
        return None
    left, right = t.fn.arg, t.arg
    if not (isinstance(right, App) and right.fn == K):
        return None
    if not (
        isinstance(left, App)
        and isinstance(left.fn, App)
        and left.fn.fn == S
        and left.fn.arg == I_TERM
        and isinstance(left.arg, App)
        and left.arg.fn == K
    ):
        return None
    return left.arg.arg, right.arg
