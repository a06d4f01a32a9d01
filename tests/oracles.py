"""Independent brute-force oracles used to freeze expected test values.

Everything here stays deliberately naive: powerset filters, closure by
saturation, frozenset lattice tables, residuation scans, the full
inflationary-table filter, the closure-system search for fixed-point sets,
the per-shape fold of the single-query map, the per-shape test of
prefixed points, the dictionary-built container of stable queries, and the
frame-element routes that drew single-shape containers and relabelings and
decided instance reducibility, the per-ancestor equifoliate walk, the
recursive S/K term reader and printer, and the triple-loop scan of the
frame laws.  None of it shares code with the package's own computation
paths.
"""

import functools
import itertools

import numpy as np

from oraclemod.containers import IndexedPropContainer
from oraclemod.errors import SizeLimitExceeded, TermSyntaxError, UnknownConstant
from oraclemod.pca import App, Const, K, S
from oraclemod.trees import Leaf

from catalog import principal_downset


def transitive_closure_pairs(labels, pairs):
    rel = set(pairs) | {(x, x) for x in labels}
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


def powerset_downsets(labels, closed_pairs):
    """All downward-closed subsets, by filtering the full powerset."""
    out = []
    for r in range(len(labels) + 1):
        for comb in itertools.combinations(labels, r):
            s = frozenset(comb)
            if all(a in s for (a, b) in closed_pairs if b in s):
                out.append(s)
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


def frozenset_tables(poset):
    """Referee for ``downset_frame``: the downsets as frozensets, grown one
    label at a time from the empty set, then the leq, meet, join and implies
    tables filled pair by pair with set operations and a dictionary lookup.
    Reads only ``poset.labels`` and the principal downsets
    (``catalog.principal_downset``)."""
    down = {x: principal_downset(poset, x) for x in poset.labels}
    downsets = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        d = frontier.pop()
        for x in poset.labels:
            if x not in d and down[x] - {x} <= d and d | {x} not in downsets:
                downsets.add(d | {x})
                frontier.append(d | {x})
    elements = sorted(downsets, key=lambda s: (len(s), tuple(sorted(s))))
    n = len(elements)
    index = {e: i for i, e in enumerate(elements)}
    leq = np.zeros((n, n), dtype=bool)
    meet = np.zeros((n, n), dtype=np.int32)
    join = np.zeros((n, n), dtype=np.int32)
    imp = np.zeros((n, n), dtype=np.int32)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            leq[i, j] = a <= b
            meet[i, j] = index[a & b]
            join[i, j] = index[a | b]
            # I => J contains x iff the principal downset of x meets I only
            # inside J.
            imp[i, j] = index[
                frozenset(x for x in poset.labels if down[x] & a <= b)
            ]
    return elements, leq, meet, join, imp


def residuation_scan(frame, b: int, c: int) -> int:
    """Largest d with meet(d, b) <= c, found by folding join over the scan."""
    acc = frame.bot_index
    for d in range(len(frame)):
        if frame.leq_table[frame.meet_table[d, b], c]:
            acc = int(frame.join_table[acc, d])
    return acc


def law_scan(frame):
    """Referee for ``Frame.check_laws``: the same laws, in the same order and
    with the same messages, checked by plain loops over the four tables read
    as nested lists; each three-index law stops at its first witness in
    (a, b, c) order."""
    leq, meet, join, imp = (t.tolist() for t in (
        frame.leq_table, frame.meet_table, frame.join_table, frame.implies_table))
    els = range(len(meet))
    pairs = [(a, b) for a in els for b in els]
    bad = []
    if any(meet[a][b] != meet[b][a] or join[a][b] != join[b][a] for a, b in pairs):
        bad.append("meet/join not commutative")
    if any(meet[a][a] != a or join[a][a] != a for a in els):
        bad.append("meet/join not idempotent")
    if any(meet[frame.top_index][a] != a for a in els):
        bad.append("top is not a meet unit")
    if any(join[frame.bot_index][a] != a for a in els):
        bad.append("bot is not a join unit")
    if any(leq[a][b] != (meet[a][b] == a) for a, b in pairs):
        bad.append("order does not match meet")

    def first_failure(holds):
        for a in els:
            for b in els:
                for c in els:
                    if not holds(a, b, c):
                        return a, b, c
        return None

    for message, with_witness, holds in (
        ("meet not associative", False,
         lambda a, b, c: meet[meet[a][b]][c] == meet[a][meet[b][c]]),
        ("join not associative", False,
         lambda a, b, c: join[join[a][b]][c] == join[a][join[b][c]]),
        ("residuation fails", True,
         lambda a, b, c: leq[meet[a][b]][c] == leq[a][imp[b][c]]),
        ("distributivity fails", True,
         lambda a, b, c: meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]),
    ):
        witness = first_failure(holds)
        if witness is not None:
            bad.append(f"{message} at ({witness[0]},{witness[1]},{witness[2]})"
                       if with_witness else message)
    return bad


def all_inflationary_tables(frame):
    ups = [list(map(int, np.flatnonzero(frame.leq_table[x]))) for x in range(len(frame))]
    return np.array(list(itertools.product(*ups)), dtype=np.int32)


def bruteforce_nuclei(frame):
    """Filter every inflationary table through the three remaining laws."""
    tables = all_inflationary_tables(frame)
    n = len(frame)
    idx = np.arange(tables.shape[0])[:, None]
    idem = (tables[idx, tables] == tables).all(axis=1)
    meet = frame.meet_table
    lhs = tables[:, meet.reshape(-1)]
    rhs = meet[
        tables[:, np.repeat(np.arange(n), n)], tables[:, np.tile(np.arange(n), n)]
    ]
    meets = (lhs == rhs).all(axis=1)
    keep = tables[idem & meets]
    return sorted(tuple(map(int, t)) for t in keep)


@functools.cache
def _nuclei_array(frame):
    return np.array(bruteforce_nuclei(frame), dtype=np.int32)


def least_above(frame, lowers, nuclei):
    """The table among ``nuclei`` that lies pointwise above every table in
    ``lowers`` and below every other such table, found by comparing them
    all pairwise."""
    leq = frame.leq_table
    above = np.ones(len(nuclei), dtype=bool)
    for t in lowers:
        above &= leq[np.asarray(t)[None, :], nuclei].all(axis=1)
    tables = nuclei[above]
    below_all = leq[tables[:, None, :], tables[None, :, :]].all(axis=(1, 2))
    (least,) = tables[below_all]
    return tuple(map(int, least))


def bruteforce_sup(frame, js):
    """Least brute-force nucleus table dominating every nucleus in js; the
    nuclei of each frame are filtered once and reused."""
    return least_above(frame, [j.table for j in js], _nuclei_array(frame))


def per_shape_query_table(frame, ext, prd):
    """Referee for ``_kernels.query_table``: the single-query map
    q(x) = \\/_a (E_a /\\ (P_a => x)) folded one shape at a time, with a join
    over the whole carrier per shape."""
    table = np.full(len(frame), frame.bot_index, dtype=np.int32)
    carrier = np.arange(len(frame))
    for e, p in zip(ext, prd):
        table = frame.join_table[table, frame.meet_table[e, frame.implies_table[p, carrier]]]
    return table


def per_shape_prefixed_mask(frame, ext, prd):
    """Referee for ``_kernels.prefixed_mask``: x is a prefixed point when
    E_a /\\ (P_a => x) <= x, tested literally one shape at a time over the
    whole carrier."""
    carrier = np.arange(len(frame))
    ok = np.ones(len(frame), dtype=bool)
    for e, p in zip(ext, prd):
        ok &= frame.leq_table[frame.meet_table[e, frame.implies_table[p, carrier]], carrier]
    return ok


def dict_pred_of_nucleus(j):
    """Referee for ``containers.pred_of_nucleus``: the container of stable
    queries as the dictionaries {shape: extent} and {shape: pred} of frame
    elements, built element by element and named from the element labels."""
    frame = j.frame
    pred, extent = {}, {}
    for i, el in enumerate(frame.all_elements()):
        name = "{" + ",".join(el.labels) + "}"
        extent[name] = frame.el(int(j.table[i]))
        pred[name] = frame.el(int(frame.meet_table[i, extent[name].index]))
    return pred, extent


def element_single_shape_containers(frame):
    """Referee for ``theorems._single_shape_batch``: one container
    per pair P(a) <= E(a), built from frame elements, extent by extent."""
    out = []
    for e in frame.all_elements():
        for p in frame.all_elements():
            if frame.leq_table[p.index, e.index]:
                out.append(IndexedPropContainer(frame, {"a0": p}, {"a0": e}))
    return out


def element_surjective_relabeling(c, rng):
    """Referee for ``catalog.surjective_relabeling``, the relabelings the
    ``surjection`` referee draws: the same rng calls,
    with each new shape looked up by name and built from frame elements."""
    k = len(c.shapes)
    m = k + rng.randint(0, 2)
    targets = list(c.shapes) + [rng.choice(c.shapes) for _ in range(m - k)]
    rng.shuffle(targets)
    pred, extent = {}, {}
    for i, a in enumerate(targets):
        k = c.shapes.index(a)
        pred[f"b{i}"], extent[f"b{i}"] = c.frame.el(int(c.prd[k])), c.frame.el(int(c.ext[k]))
    return IndexedPropContainer(c.frame, pred, extent)


def element_instance_reducible(c, d):
    """Referee for ``containers.instance_reducible``: E_c(a) <= \\/_b
    (E_d(b) /\\ (P_d(b) => P_c(a))), looking each shape's elements up by
    name and reading the operation tables one cell at a time."""
    frame = c.frame
    meet, join, imp = frame.meet_table, frame.join_table, frame.implies_table

    def element(x, table, a):
        # the carrier index of shape a in x's ext or prd, looked up by name
        return int(table[x.shapes.index(a)])

    for a in c.shapes:
        answerable = frame.bot_index
        for b in d.shapes:
            step = meet[element(d, d.ext, b), imp[element(d, d.prd, b), element(c, c.prd, a)]]
            answerable = int(join[answerable, step])
        if not frame.leq_table[element(c, c.ext, a), answerable]:
            return False
    return True


def _close_fixed_set(frame, seed):
    # Close under binary meets and under x => f for every carrier x.
    meet, imp = frame.meet_table, frame.implies_table
    n = len(frame)
    cur = set(seed) | {frame.top_index}
    frontier = list(cur)
    while frontier:
        f = frontier.pop()
        for x in range(n):
            g = int(imp[x, f])
            if g not in cur:
                cur.add(g)
                frontier.append(g)
        for g in list(cur):
            h = int(meet[f, g])
            if h not in cur:
                cur.add(h)
                frontier.append(h)
    return frozenset(cur)


def _nucleus_of_fixed_set(frame, fixed):
    # j(x) is the least member of the fixed set above x; the set is
    # meet-closed so the meet of all candidates is that least member.
    table = np.full(len(frame), frame.top_index, dtype=np.int32)
    for f in fixed:
        table = np.where(frame.leq_table[:, f], frame.meet_table[table, f], table)
    return table


def closure_system_nuclei(frame):
    """Referee for ``nuclei.enumerate_nuclei``: every nucleus table, sorted,
    found by walking the closure system of meet- and implication-closed
    subsets containing top (exactly the fixed-point sets of nuclei)."""
    first = _close_fixed_set(frame, frozenset())
    seen = {first}
    stack = [first]
    while stack:
        fixed = stack.pop()
        for e in range(len(frame)):
            if e not in fixed:
                bigger = _close_fixed_set(frame, fixed | {e})
                if bigger not in seen:
                    seen.add(bigger)
                    stack.append(bigger)
    return sorted(tuple(map(int, _nucleus_of_fixed_set(frame, f))) for f in seen)


def per_ancestor_equifoliate(c, t, vals):
    """Referee for ``trees.equifoliate`` over the ambient values ``vals``:
    the first witness, found by checking every child first and then
    recomputing each child's member set with a fresh walk per value, so a
    node at depth k is walked once per ancestor.  Returns the witness or
    None."""

    def computes(x, s):
        if isinstance(s, Leaf):
            return x == s.value or c.degenerate
        return all(computes(x, sub) for _, sub in s.children)

    def go(s):
        if isinstance(s, Leaf):
            return None
        for _, sub in s.children:
            w = go(sub)
            if w is not None:
                return w
        sets = [(u, frozenset(x for x in vals if computes(x, sub)))
                for u, sub in s.children]
        for u, mu in sets:
            for v, mv in sets:
                missing = mu - mv
                if missing:
                    return (sorted(missing)[0], u, v)
        return None

    return go(t)


def recursive_tokenize(src):
    """Referee for ``pca._tokenize``: a character scan with ``str.isspace``
    and ``str.isalnum``."""
    out = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            out.append(ch)
            i += 1
        elif ch.isalnum() or ch in "_'":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            out.append(src[i:j])
            i = j
        else:
            raise TermSyntaxError(f"unexpected character {ch!r} at offset {i}")
    return out


def recursive_parse_term(src, auto_declare=False):
    """Referee for ``pca.parse_term``: recursive descent, one call per
    parenthesis, so nesting is bounded by the recursion limit."""
    constants = {}
    tokens = recursive_tokenize(src)
    pos = 0

    def atom():
        nonlocal pos
        if pos == len(tokens):
            raise TermSyntaxError("term ends where an atom was expected")
        tok = tokens[pos]
        if tok == "(":
            pos += 1
            t = expr()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise TermSyntaxError("unbalanced parenthesis")
            pos += 1
            return t
        if tok == ")":
            raise TermSyntaxError("unexpected ')'")
        pos += 1
        if tok == "S":
            return S
        if tok == "K":
            return K
        if tok in constants:
            return constants[tok]
        if auto_declare:
            constants[tok] = Const(tok)
            return constants[tok]
        raise UnknownConstant(f"undeclared constant {tok!r}")

    def expr():
        nonlocal pos
        t = atom()
        while pos < len(tokens) and tokens[pos] != ")":
            t = App(t, atom())
        return t

    if not tokens:
        raise TermSyntaxError("empty term")
    try:
        t = expr()
    except RecursionError:
        raise SizeLimitExceeded("term nests parentheses too deeply to parse") from None
    if pos != len(tokens):
        raise TermSyntaxError("trailing input")
    return t


def recursive_pp(t):
    """Referee for ``pca.pp``: the left spine in a loop, each parenthesized
    argument by a recursive call."""
    parts = []
    while isinstance(t, App):
        parts.append(f"({recursive_pp(t.arg)})" if isinstance(t.arg, App) else t.arg.name)
        t = t.fn
    parts.append(t.name)
    return " ".join(reversed(parts))


class _OutOfFuel(Exception):
    pass


def recursive_eval(t, fuel):
    """Referee for ``pca.eval_term``: a recursive normalizer, one Python
    call per nested argument, so nesting is bounded by the recursion limit.  Returns ``(normal form or None, steps)``; None means
    the fuel ran out, and then steps is the whole fuel."""
    left = fuel

    def spend():
        nonlocal left
        if left <= 0:
            raise _OutOfFuel
        left -= 1

    def norm(t, memo):
        hit = memo.get(id(t))
        if hit is not None:
            return hit[1]
        head = t
        stack = []
        while True:
            while isinstance(head, App):
                stack.append(head.arg)
                head = head.fn
            if head == K and len(stack) >= 2:
                spend()
                head = stack.pop()
                stack.pop()
            elif head == S and len(stack) >= 3:
                spend()
                x, y, z = stack.pop(), stack.pop(), stack.pop()
                stack.append(App(y, z))
                stack.append(z)
                head = x
            elif isinstance(head, Const) and head.rules and stack:
                stack[-1] = norm(stack[-1], memo)
                for lhs, rhs in head.rules:
                    if lhs == stack[-1]:
                        spend()
                        stack.pop()
                        head = rhs
                        break
                else:
                    break
            else:
                break
        out = head
        while stack:
            out = App(out, norm(stack.pop(), memo))
        memo[id(t)] = (t, out)
        return out

    try:
        nf = norm(t, {})
    except _OutOfFuel:
        return None, fuel
    return nf, fuel - left
