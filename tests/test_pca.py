import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclemod.errors import ArityError, TermSyntaxError, UnknownConstant
from oraclemod import pca
from oraclemod.pca import (
    App,
    Const,
    K,
    S,
    app,
    eval_term,
    match_pair,
    mentions_constants,
    numeral,
    pair,
    parse_term,
    pp,
    tag_leaf,
    tag_node,
)
from catalog import PAIR_FST, PAIR_SND
from oracles import recursive_eval, recursive_parse_term, recursive_pp, recursive_tokenize

OMEGA = app(S, app(S, K, K), app(S, K, K))


def rand_normal(rng: random.Random, depth: int = 4):
    """Random normal forms: S/K spines that never complete a redex."""
    r = rng.random()
    if depth == 0 or r < 0.4:
        return S if rng.random() < 0.5 else K
    if r < 0.7:
        return App(K, rand_normal(rng, depth - 1))
    return app(S, rand_normal(rng, depth - 1), rand_normal(rng, depth - 1))


def test_parse_atoms_and_association():
    assert parse_term("K") == K
    assert parse_term("S K K") == app(S, K, K)
    assert parse_term("S (K S) K") == app(S, App(K, S), K)


def test_parse_errors():
    for truncated in ("(S K", "(", "K ("):
        with pytest.raises(TermSyntaxError):
            parse_term(truncated)
    with pytest.raises(TermSyntaxError):
        parse_term("")
    with pytest.raises(TermSyntaxError):
        parse_term("S ? K")
    with pytest.raises(UnknownConstant):
        parse_term("S x")
    assert isinstance(parse_term("S x", auto_declare=True).arg, Const)


def test_parse_pp_roundtrip():
    rng = random.Random(1)
    for _ in range(100):
        t = rand_normal(rng)
        assert parse_term(pp(t)) == t


def test_k_axiom_on_seeded_tuples():
    rng = random.Random(2)
    for _ in range(100):
        x, y = rand_normal(rng), rand_normal(rng)
        assert eval_term(app(K, x, y)).term == x


def test_s_axiom_on_seeded_tuples():
    # Kleene equality: the S side costs exactly the one contraction more,
    # and both sides diverge together.
    rng = random.Random(3)
    for _ in range(100):
        x, y, z = (rand_normal(rng, 3) for _ in range(3))
        lhs = eval_term(app(S, x, y, z), fuel=100_001)
        rhs = eval_term(App(App(x, z), App(y, z)), fuel=100_000)
        assert lhs.term == rhs.term
        if not rhs.diverged:
            assert lhs.steps == rhs.steps + 1


def test_skk_is_identity():
    x = Const("x")
    assert eval_term(app(S, K, K, x)).term == x


@pytest.mark.parametrize("fuel", [10, 100, 1000, 10_000, 100_000])
def test_omega_omega_diverges_at_every_fuel(fuel):
    assert eval_term(App(OMEGA, OMEGA), fuel=fuel).diverged


def test_pairing_laws_on_seeded_tuples():
    rng = random.Random(4)
    for _ in range(100):
        x, y = rand_normal(rng), rand_normal(rng)
        p = pair(x, y)
        assert eval_term(App(PAIR_FST, p)).term == x
        assert eval_term(App(PAIR_SND, p)).term == y


def test_match_pair_roundtrip():
    rng = random.Random(5)
    for _ in range(50):
        x, y = rand_normal(rng), rand_normal(rng)
        assert match_pair(pair(x, y)) == (x, y)
    assert match_pair(K) is None
    assert match_pair(app(K, S)) is None


def test_numerals_distinct_normal_forms():
    nums = [numeral(i) for i in range(4)]
    assert len(set(nums)) == 4
    for t in nums:
        assert eval_term(t).term == t  # already normal


def test_tags():
    a = Const("a")
    assert match_pair(tag_leaf(a)) == (numeral(0), a)
    b, c = Const("b"), Const("c")
    tag, body = match_pair(tag_node(b, c))
    assert tag == numeral(1) and match_pair(body) == (b, c)


def test_arity_errors():
    with pytest.raises(ArityError):
        app()
    with pytest.raises(ArityError):
        numeral(-1)


def test_constant_rewrite_rules():
    x, y = Const("x"), Const("y")
    c = Const("c", rules=((x, y),))
    assert eval_term(App(c, x)).term == y
    stuck = eval_term(App(c, y)).term
    assert stuck == App(c, y)
    # the argument is normalized before the table lookup
    assert eval_term(App(c, app(S, K, K, x))).term == y


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**30), st.integers(10, 300))
def test_more_fuel_never_changes_a_value(seed, fuel):
    rng = random.Random(seed)
    t = App(rand_normal(rng, 5), rand_normal(rng, 5))
    r1 = eval_term(t, fuel=fuel)
    r2 = eval_term(t, fuel=fuel * 10)
    if not r1.diverged:
        assert not r2.diverged and r1.term == r2.term
        assert r1.steps == r2.steps


def test_evaluation_deterministic():
    rng = random.Random(6)
    for _ in range(40):
        t = App(rand_normal(rng, 5), rand_normal(rng, 5))
        a = eval_term(t, fuel=1000)
        b = eval_term(t, fuel=1000)
        assert (a.term, a.steps) == (b.term, b.steps)


def nest_under_k(t, depth):
    """K (K (... t)) with depth K's."""
    for _ in range(depth):
        t = App(K, t)
    return t


def test_nesting_past_the_recursion_limit_is_not_divergence():
    # K (K (... S)) nested 5000 deep is already a normal form
    t = nest_under_k(S, 5000)
    assert not mentions_constants(t)
    assert mentions_constants(App(t, Const("c")))
    r = eval_term(t)
    assert r.term == t and r.steps == 0


def test_redex_at_the_bottom_of_a_deep_term_is_contracted():
    # K K S S contracts to K S in one step, under 100,000 K's
    r = eval_term(nest_under_k(app(K, K, S, S), 100_000))
    assert r.steps == 1
    assert r.term == nest_under_k(App(K, S), 100_000)


def test_a_normal_term_is_returned_itself():
    t = app(S, App(K, Const("x")), app(S, K, K))
    assert eval_term(t).term is t
    # a contraction anywhere builds a new spine
    u = app(S, App(K, Const("x")), app(K, K, S, S))
    assert eval_term(u).term == app(S, App(K, Const("x")), App(K, S))


def test_normal_marks_change_no_result_or_step_count():
    # normal forms found by one evaluation are marked and not walked again;
    # a term built around them evaluates as an unmarked copy of it does
    rng = random.Random(7)
    for _ in range(200):
        parts = [rand_normal(rng) for _ in range(3)]
        for part in parts:
            assert eval_term(part).term is part
        t = app(S, App(K, parts[0]), app(S, K, K), app(parts[1], parts[2]))
        fresh = parse_term(pp(t))
        for fuel in (0, 1, 2, 5, 50):
            got, want = eval_term(t, fuel), eval_term(fresh, fuel)
            assert (got.diverged, got.steps) == (want.diverged, want.steps)
            assert got.diverged or pp(got.term) == pp(want.term)


def test_deep_terms_compare_and_hash_without_recursion():
    a, b = nest_under_k(S, 100_000), nest_under_k(S, 100_000)
    assert a is not b and a == b and hash(a) == hash(b)
    assert nest_under_k(S, 100_000) != nest_under_k(K, 100_000)
    spine = parse_term(" ".join(["x"] * 100_000), auto_declare=True)
    same = parse_term(" ".join(["x"] * 100_000), auto_declare=True)
    assert spine == same and hash(spine) == hash(same)
    assert spine != parse_term(" ".join(["y"] + ["x"] * 99_999), auto_declare=True)


def test_constants_of_separate_parses_are_equal_and_match_rules():
    d0 = parse_term("d0", auto_declare=True)
    again = parse_term("d0", auto_declare=True)
    assert d0 is not again and d0 == again and hash(d0) == hash(again)
    c = Const("c", rules=((parse_term("K d0", auto_declare=True), S),))
    assert eval_term(App(c, parse_term("K d0", auto_declare=True))).term == S
    assert eval_term(App(c, parse_term("K d1", auto_declare=True))).steps == 0


# -- the normalizer against the recursive referee -----------------------------

I = app(S, K, K)
RULE_LHS = ("K", "S K", "a", "K a", "S (K b)", "b")


def rand_redexes(rng, depth, atoms):
    """Random terms over the atom makers, with S redexes whose shared last
    argument is itself a K redex."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)()
    if rng.random() < 0.15:
        return app(S, rand_redexes(rng, depth - 1, atoms), rand_redexes(rng, depth - 1, atoms),
                   app(K, rand_redexes(rng, depth - 1, atoms), rand_redexes(rng, depth - 1, atoms)))
    return App(rand_redexes(rng, depth - 1, atoms), rand_redexes(rng, depth - 1, atoms))


def rand_rule_case(rng):
    """A term over S, K, inert constants a and b (a new object at each
    occurrence) and a constant c whose rules' left-hand sides are parsed on
    their own, applied to redexes that may normalize to one of them."""
    inert = [lambda: S, lambda: K, lambda: Const("a"), lambda: Const("b")]
    c = Const("c", rules=tuple(
        (parse_term(rng.choice(RULE_LHS), auto_declare=True), rand_redexes(rng, 2, inert))
        for _ in range(rng.randint(1, 3))))

    def disguised():
        lhs = parse_term(rng.choice(RULE_LHS), auto_declare=True)
        return app(K, lhs, S) if rng.random() < 0.5 else App(I, lhs)

    atoms = inert * 2 + [lambda: c, lambda: c, disguised]
    if rng.random() < 0.05:
        atoms.append(lambda: OMEGA)
    head = c if rng.random() < 0.5 else rand_redexes(rng, 2, atoms)
    return app(head, *(rand_redexes(rng, 4, atoms) for _ in range(rng.randint(1, 3))))


def test_normalizer_matches_recursive_referee():
    rng = random.Random(53)
    matched_after_steps = out_in_argument = 0
    for _ in range(2000):
        t = rand_rule_case(rng)
        head, args = t, []
        while isinstance(head, App):
            args.append(head.arg)
            head = head.fn
        for fuel in (0, 1, 50, 500, 5000):
            got = eval_term(t, fuel)
            want, steps = recursive_eval(t, fuel)
            assert (got.diverged, got.steps) == (want is None, steps), (pp(t), fuel)
            if want is not None:
                assert pp(got.term) == pp(want), (pp(t), fuel)
            if isinstance(head, Const) and head.rules:
                arg, arg_steps = recursive_eval(args[-1], fuel)
                out_in_argument += arg is None
                matched_after_steps += bool(
                    arg_steps and arg is not None and any(lhs == arg for lhs, _ in head.rules))
    assert matched_after_steps > 50 and out_in_argument > 500


# -- reader and printer against the recursive referees ----------------------

# constant names: letters of several scripts, digits of several kinds, "_"
# and "'" (all of them characters that str.isalnum or the grammar accepts)
NAMES = ("x", "y0", "x'", "_", "S1", "K'", "kS", "αβ", "ñ", "x²", "½", "٣", "名前")


def rand_term(rng: random.Random, depth: int = 5):
    """Random terms, redexes and constants included."""
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        return S if r < 0.3 else K if r < 0.6 else Const(rng.choice(NAMES))
    return App(rand_term(rng, depth - 1), rand_term(rng, depth - 1))


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the error class and message are compared
        return (type(exc), str(exc))


def test_pp_and_parse_match_recursive_referees():
    rng = random.Random(41)
    for _ in range(2000):
        t = rand_term(rng)
        printed = pp(t)
        assert printed == recursive_pp(t)
        assert parse_term(printed, auto_declare=True) == t
        assert recursive_parse_term(printed, auto_declare=True) == t


# "²" and "½" are alphanumeric, the combining acute accent and "?" are not
# (drawn rarely, so that most strings reach the parser); "\x1c" and the
# no-break space are whitespace
ALPHABET = (("S", "K", "S", "K", "(", "(", "(", ")", ")", ")", " ", " ", " ", "_",
             "'", "7", "x", "é", "名", "²", "½", "\x1c", "\u00a0", "\t") * 3
            + ("\u0301", "?"))


def test_reader_matches_recursive_referee_on_random_strings():
    rng = random.Random(43)
    for _ in range(6000):
        src = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 14)))
        assert _outcome(pca._tokenize, src) == _outcome(recursive_tokenize, src), src
        for auto in (False, True):
            got = _outcome(parse_term, src, auto)
            assert got == _outcome(recursive_parse_term, src, auto), (src, auto)


@pytest.mark.parametrize("src", ("", "(", "K (", "(S K", "((S)", "()", ")", "K )",
                                 "(K) )", "S ? K", "S x", "x )", "K ) x", "(x"))
def test_malformed_terms_fail_as_the_referee_does(src):
    got = _outcome(parse_term, src)
    assert got[0] != "ok"
    assert got == _outcome(recursive_parse_term, src)


def test_any_nesting_parses_and_prints():
    for depth in (10, 5000):
        src = "K (" * depth + "x y" + ")" * depth
        assert pp(parse_term(src, auto_declare=True)) == src
        assert pp(parse_term("(" * depth + src + ")" * depth, auto_declare=True)) == src


def test_printed_form_identifies_the_term():
    # few atoms and shallow terms, so that equal pairs are drawn often
    rng = random.Random(47)
    atoms = (S, K, Const("x"), Const("x'"), Const("xK"))
    equal = 0

    def small(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(atoms)
        return App(small(depth - 1), small(depth - 1))

    for _ in range(5000):
        a, b = small(3), small(3)
        assert (pp(a) == pp(b)) == (a == b), (a, b)
        equal += a == b
    assert equal > 100


@pytest.mark.parametrize("name", ("S", "K", "a b", "", "x(", "x\n"))
def test_const_refuses_names_that_print_ambiguously(name):
    with pytest.raises(TermSyntaxError, match="is not an identifier other than S and K"):
        Const(name)
