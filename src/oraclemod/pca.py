"""A small partial combinatory algebra: S, K, oracle constants, and
fuel-bounded normal-order evaluation.

Terms are finite application trees, read and printed at any depth by
explicit stacks; the printed form of a term identifies it.  Evaluation
contracts the leftmost outermost redex (K x y, S x y z, or a constant
applied to a listed normal form) and then normalizes the remaining
arguments, so a returned value has no enabled redex anywhere.  Running out
of fuel is an ordinary result, not an error: definedness is only
semi-decidable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ArityError, SizeLimitExceeded, TermSyntaxError, UnknownConstant

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


@dataclass(frozen=True)
class App:
    fn: "Term"
    arg: "Term"

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


class _OutOfFuel(Exception):
    pass


class _Fuel:
    __slots__ = ("left",)

    def __init__(self, amount: int):
        self.left = amount

    def spend(self) -> None:
        if self.left <= 0:
            raise _OutOfFuel
        self.left -= 1


def _norm(t: Term, fuel: _Fuel, memo: dict) -> Term:
    # Contractions share subterm objects (S duplicates its last argument by
    # reference), so memoizing by identity keeps repeated occurrences from
    # being renormalized and recharged.  The argument stack keeps one head
    # step O(1); stack[-1] is always the leftmost argument.
    hit = memo.get(id(t))
    if hit is not None:
        return hit[1]
    head = t
    stack: list[Term] = []
    while True:
        while isinstance(head, App):
            stack.append(head.arg)
            head = head.fn
        if isinstance(head, Prim) and head.name == "K" and len(stack) >= 2:
            fuel.spend()
            head = stack.pop()
            stack.pop()
        elif isinstance(head, Prim) and head.name == "S" and len(stack) >= 3:
            fuel.spend()
            x, y, z = stack.pop(), stack.pop(), stack.pop()
            stack.append(App(y, z))
            stack.append(z)
            head = x
        elif isinstance(head, Const) and head.rules and stack:
            stack[-1] = _norm(stack[-1], fuel, memo)
            for lhs, rhs in head.rules:
                if lhs == stack[-1]:
                    fuel.spend()
                    stack.pop()
                    head = rhs
                    break
            else:
                break
        else:
            break
    out = head
    while stack:
        out = App(out, _norm(stack.pop(), fuel, memo))
    memo[id(t)] = (t, out)
    return out


def eval_term(t: Term, fuel: int = DEFAULT_FUEL) -> EvalResult:
    """Normalize a closed term within a step budget.

    The result is diverged only when the fuel runs out.  The normalizer
    recurses once per nested argument, so a term nested deeper than the
    interpreter's recursion limit allows raises ``SizeLimitExceeded``.
    """
    cell = _Fuel(fuel)
    try:
        nf = _norm(t, cell, {})
    except _OutOfFuel:
        return EvalResult(term=None, steps=fuel)
    except RecursionError:
        raise SizeLimitExceeded("term nests too deeply to normalize") from None
    return EvalResult(term=nf, steps=fuel - cell.left)


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
