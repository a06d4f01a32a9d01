import os
import random
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from oraclemod import frames, io
from oraclemod.errors import (
    AntisymmetryViolation,
    FrameMismatch,
    SizeLimitExceeded,
    UnknownLabel,
)
from oraclemod.frames import Frame, Poset, downset_frame, poset_from_relation
from oraclemod.nuclei import Nucleus

from catalog import POSETS, all_labeled_posets, make_frame, principal_downset
from oracles import (
    frozenset_tables,
    law_scan,
    powerset_downsets,
    residuation_scan,
    transitive_closure_pairs,
)


def chain_union(copies, length):
    """Disjoint union of chains; the downset carrier is (length + 1) ** copies."""
    labels = [f"c{c}_{i}" for c in range(copies) for i in range(length)]
    pairs = [(f"c{c}_{i}", f"c{c}_{i + 1}")
             for c in range(copies) for i in range(length - 1)]
    return labels, pairs


# The catalog, carriers 81 and 243, and a chain whose downset masks pass 64
# bits.
REFEREE_POSETS = {
    **POSETS,
    "chains2x4": chain_union(4, 2),    # 81
    "chains2x5": chain_union(5, 2),    # 243
    "chain70": chain_union(1, 70),     # 71
}


def random_poset(rng):
    """A poset of 1-9 labels, each in one of three parts with no relation
    across them; names count down along the drawn order, so whenever a < b
    holds, b's name sorts first and name order is not a linear extension."""
    size = rng.randint(1, 9)
    rank = list(range(size))
    rng.shuffle(rank)
    part = [rng.randrange(3) for _ in range(size)]
    name = [f"x{size - 1 - r}" for r in rank]
    pairs = [(name[i], name[j]) for i in range(size) for j in range(size)
             if rank[i] < rank[j] and part[i] == part[j] and rng.random() < 0.4]
    return name, pairs


# Posets whose name order is no linear extension, for the tables referee.
RANDOM_POSETS = {f"random{seed}": random_poset(random.Random(f"poset:{seed}"))
                 for seed in range(40)}

# Every labeled poset on at most four labels (243 of them), for the same.
LABELED_POSETS = {f"labeled{k}": poset for k, poset in enumerate(all_labeled_posets(4))}


def test_poset_empty():
    p = poset_from_relation([], [])
    assert len(p) == 0


def test_poset_singleton():
    p = poset_from_relation(["p"], [])
    assert "p" in principal_downset(p, "p")


def test_poset_closure_adds_transitive_pair():
    p = poset_from_relation(["p", "q", "r"], [("p", "q"), ("q", "r")])
    assert "p" in principal_downset(p, "r")
    # matches the saturation oracle
    want = transitive_closure_pairs(["p", "q", "r"], [("p", "q"), ("q", "r")])
    got = {(a, b) for b in p.labels for a in principal_downset(p, b)}
    assert got == want


def test_poset_cycle_rejected():
    with pytest.raises(AntisymmetryViolation):
        poset_from_relation(["p", "q"], [("p", "q"), ("q", "p")])


# (labels, pairs, the pair the cycle error names): the first pair in label
# order of two labels on one cycle.
CYCLES = [
    (["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")], ("a", "b")),
    (["d", "c", "b", "a"], [("b", "a"), ("c", "d"), ("d", "c"), ("a", "c")], ("c", "d")),
    (["z", "y", "x"], [("x", "z"), ("z", "x"), ("y", "x")], ("x", "z")),
]


@pytest.mark.parametrize("labels, pairs, witness", CYCLES,
                         ids=["four-cycle", "two-cycle-in-reversed-labels", "unsorted"])
def test_poset_cycle_names_first_pair_in_label_order(labels, pairs, witness):
    with pytest.raises(AntisymmetryViolation) as err:
        poset_from_relation(labels, pairs)
    assert str(err.value) == f"cycle through {witness[0]!r} and {witness[1]!r}"


def test_poset_cycle_message_does_not_depend_on_hash_seed():
    src = os.path.dirname(os.path.dirname(frames.__file__))
    code = ("from oraclemod.frames import poset_from_relation\n"
            "try:\n"
            "    poset_from_relation(list('abcd'), [('a','b'), ('b','c'), ('c','d'), ('d','a')])\n"
            "except Exception as e:\n"
            "    print(e)\n")
    outs = set()
    for seed in ("1", "4"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        outs.add(run.stdout)
    assert outs == {"cycle through 'a' and 'b'\n"}


def test_poset_closure_matches_saturation_referee():
    # random acyclic relations over shuffled labels, with repeated and
    # reflexive pairs
    rng = random.Random(5)
    for _ in range(300):
        labels = [f"l{i}" for i in range(rng.randint(0, 8))]
        rng.shuffle(labels)
        rank = labels[:]
        rng.shuffle(rank)
        pairs = [(a, b) for i, a in enumerate(rank) for b in rank[i:] if rng.random() < 0.3]
        pairs += rng.sample(pairs, len(pairs) // 3)
        rng.shuffle(pairs)
        p = poset_from_relation(labels, pairs)
        got = {(a, b) for b in p.labels for a in principal_downset(p, b)}
        assert got == transitive_closure_pairs(labels, pairs)


def test_poset_cycle_pair_matches_closure_referee():
    # seeded relations, many of them cyclic, with reflexive pairs: the named
    # pair is the first pair in label order that the closure relates both ways
    rng = random.Random(11)
    cyclic = 0
    for _ in range(300):
        labels = [f"l{i}" for i in range(rng.randint(1, 8))]
        rng.shuffle(labels)
        density = rng.choice((0.1, 0.2, 0.35))
        pairs = [(a, b) for a in labels for b in labels if rng.random() < density]
        closed = transitive_closure_pairs(labels, pairs)
        both = [(a, b) for a in sorted(labels) for b in sorted(labels)
                if a < b and (a, b) in closed and (b, a) in closed]
        if not both:
            p = poset_from_relation(labels, pairs)
            assert {(a, b) for b in p.labels for a in principal_downset(p, b)} == closed
            continue
        cyclic += 1
        with pytest.raises(AntisymmetryViolation) as err:
            poset_from_relation(labels, pairs)
        assert str(err.value) == f"cycle through {both[0][0]!r} and {both[0][1]!r}"
    assert 100 <= cyclic <= 250


def test_poset_long_cycle_named_at_once():
    # one cycle through 4000 labels, its pairs listed against label order
    labels = [f"x{i:04d}" for i in range(4000)]
    pairs = [(labels[(i + 1) % 4000], labels[i]) for i in range(4000)]
    start = time.perf_counter()
    with pytest.raises(AntisymmetryViolation) as err:
        poset_from_relation(labels, pairs)
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == "cycle through 'x0000' and 'x0001'"


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


@pytest.mark.parametrize("name", sorted(POSETS))
def test_carrier_key_orders_as_the_tuple_key(name):
    # the key downset_frame sorted by before its integer key: size, then the
    # set-bit positions ascending, which is the order by sorted labels
    frame = make_frame(name)
    labels = len(frame.poset)

    def tuple_key(m):
        return m.bit_count(), tuple(i for i in range(labels) if m >> i & 1)

    masks = list(frame.masks)
    shuffled = random.Random(name).sample(masks, len(masks))
    assert sorted(shuffled, key=tuple_key) == masks
    assert sorted(shuffled, key=lambda m: frames._carrier_key(labels, m)) == masks


def test_downset_frame_size_limit(monkeypatch):
    # 4 labels, 16 downsets: 4 * 16**2 label steps a sweep
    poset = poset_from_relation(*POSETS["anti4"])
    monkeypatch.setattr(frames, "BUILD_COST_LIMIT", 4 * 16**2 - 1)
    with pytest.raises(SizeLimitExceeded, match="would take 1024 label steps, over 1023"):
        downset_frame(poset)
    monkeypatch.setattr(frames, "BUILD_COST_LIMIT", 4 * 16**2)
    assert len(downset_frame(poset)) == 16


def chain_poset(length):
    """A chain of ``length`` labels, given already closed."""
    return Poset([f"x{i:04d}" for i in range(length)],
                 [(1 << i + 1) - 1 for i in range(length)])


def test_build_cost_limit():
    # A 1000-label chain has only 1001 downsets, but each sweep would take
    # 1000 * 1001**2 label steps.
    start = time.perf_counter()
    with pytest.raises(SizeLimitExceeded, match="would take 1002001000 label steps"):
        downset_frame(chain_poset(1000))
    assert time.perf_counter() - start < 1.0
    assert len(downset_frame(chain_poset(250))) == 251
    # the longest chain within the limit
    assert len(downset_frame(chain_poset(585))) == 586


def test_chain_refused_before_word_limit_now_builds():
    # 330 * 331**2 label steps per sweep; 330 * 331**2 * 6 word operations,
    # as costed over 64-bit words, were over the limit
    assert len(downset_frame(chain_poset(330))) == 331


class _UnreadableMasks:
    """Label masks that must not be read: enumerating the downsets reads them."""

    def __getitem__(self, i):
        raise AssertionError("order read before the cost check")

    def __iter__(self):
        raise AssertionError("order read before the cost check")


def test_build_refused_before_enumerating():
    # 4095 labels have at least 4096 downsets, so each sweep would take at
    # least 4095 * 4096**2 label steps, exactly the cost of the 4095-label
    # chain
    poset = Poset([f"x{i:04d}" for i in range(4095)], _UnreadableMasks())
    start = time.perf_counter()
    with pytest.raises(SizeLimitExceeded, match=f"would take {4095 * 4096**2} label steps"):
        downset_frame(poset)
    assert time.perf_counter() - start < 1.0


def test_shortest_refused_chain_refused_before_enumerating():
    # 586 labels have at least 587 downsets: 586 * 587**2 label steps, just
    # over 12 * 4096**2; the 585-label chain is the longest within it
    poset = Poset([f"x{i:04d}" for i in range(586)], _UnreadableMasks())
    with pytest.raises(SizeLimitExceeded) as refused:
        downset_frame(poset)
    assert str(refused.value) == "frame build would take 201917434 label steps, over 201326592"
    assert 585 * 586**2 <= frames.BUILD_COST_LIMIT < 586 * 587**2


def test_build_cost_checked_after_enumerating():
    # 10 incomparable labels beside a 3-chain: 2**10 * 4 = 4096 downsets of
    # 13 labels, over the limit only once the downsets are counted
    labels = [f"a{i}" for i in range(10)] + ["c0", "c1", "c2"]
    poset = poset_from_relation(labels, [("c0", "c1"), ("c1", "c2")])
    with pytest.raises(SizeLimitExceeded, match="would take 218103808 label steps"):
        downset_frame(poset)
    # 12 incomparable labels have 4096 downsets, at the limit; 13 have 8192,
    # refused once 12 labels have given 4096 downsets of 13 labels
    assert len(downset_frame(poset_from_relation(labels[:12], []))) == 4096
    with pytest.raises(SizeLimitExceeded) as refused:
        downset_frame(poset_from_relation(labels[:10] + ["b0", "b1", "b2"], []))
    assert str(refused.value) == "frame build would take 218103808 label steps, over 201326592"


@pytest.mark.parametrize("name", sorted(REFEREE_POSETS))
def test_label_tables_match_definitions(name):
    poset = poset_from_relation(*REFEREE_POSETS[name])
    frame = downset_frame(poset)
    assert "label_members" not in frame.__dict__  # derived on first use only
    elements = [frozenset(e.labels) for e in frame.all_elements()]
    index = {e: i for i, e in enumerate(elements)}
    members = [[x in e for x in poset.labels] for e in elements]
    assert frame.label_members.tolist() == members
    down = {x: principal_downset(poset, x) for x in poset.labels}
    strict = [index[down[x] - {x}] for x in poset.labels]
    assert frame.label_strict.tolist() == strict
    # j_{x}(U) = {y : x not in down(y), or x in U}
    rows = [[index[frozenset(y for y in poset.labels if x not in down[y] or x in u)]
             for u in elements] for x in poset.labels]
    assert np.array_equal(frame.label_rows, np.array(rows, dtype=np.int32).reshape(-1, len(frame)))
    assert frame.label_rows.dtype == np.int32


@pytest.mark.parametrize("name",
                         sorted(REFEREE_POSETS) + list(RANDOM_POSETS) + list(LABELED_POSETS))
def test_tables_match_frozenset_referee(monkeypatch, name):
    poset = poset_from_relation(*{**REFEREE_POSETS, **RANDOM_POSETS, **LABELED_POSETS}[name])
    elements, *want = frozenset_tables(poset)
    # the default blocks, and one row per block
    for cells in (frames.BLOCK_CELLS, 1):
        monkeypatch.setattr(frames, "BLOCK_CELLS", cells)
        frame = downset_frame(poset)
        # the build leaves every table to its first read
        assert not {f"{t}_table" for t in LAW_TABLES} & frame.__dict__.keys()
        assert [frozenset(e.labels) for e in frame.all_elements()] == elements
        got = (frame.leq_table, frame.meet_table, frame.join_table, frame.implies_table)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and (g == w).all()
        assert (frame.bot_index, frame.top_index) == (0, len(frame) - 1)
        assert frame.leq_table[frame.bot_index].all()
        assert frame.leq_table[:, frame.top_index].all()


def test_level_pass_memory_is_bounded_by_blocks(monkeypatch):
    # carrier 729, whose largest level has 141 rows of 729 cells: about six
    # blocks of 1 << 14 cells
    monkeypatch.setattr(frames, "BLOCK_CELLS", 1 << 14)
    frame = downset_frame(poset_from_relation(*chain_union(6, 2)))
    n = len(frame)
    sizes = [len(e.labels) for e in frame.all_elements()]
    assert n == 729 and max(sizes.count(k) for k in set(sizes)) == 141
    tracemalloc.start()
    try:
        tables = (frame.meet_table, frame.join_table, frame.implies_table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = sum(t.nbytes for t in tables)
    assert own == 3 * 4 * n * n
    # the level pass unblocked peaks about 1.5 MB above the tables
    assert peak - own <= 5 * frames.BLOCK_CELLS * 8


def connected_parts(poset):
    """The number of connected parts of the poset's comparability graph."""
    root = list(range(len(poset)))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for j, mask in enumerate(poset.masks):
        for i in range(len(poset)):
            if mask >> i & 1:
                root[find(i)] = find(j)
    return len({find(i) for i in range(len(poset))})


def test_random_posets_cover_ties_parts_and_misleading_names():
    ties = split = misleading = 0
    for labels, pairs in RANDOM_POSETS.values():
        poset = poset_from_relation(labels, pairs)
        sizes = [m.bit_count() for m in poset.masks]
        ties += len(set(sizes)) < len(sizes)
        split += connected_parts(poset) > 1
        # b below a, though a's name sorts first
        misleading += any(b in principal_downset(poset, a) and a < b for a in poset.labels for b in poset.labels)
    assert min(ties, split, misleading) >= 10


LAW_TABLES = ("leq", "meet", "join", "implies")


def with_cell(frame, table, i, j, value):
    """A copy of ``frame`` whose ``table`` holds ``value`` at (i, j): the
    copied tables go in the instance dict, where the cached properties keep
    them."""
    copy = Frame(frame.poset, frame.masks)
    for t in LAW_TABLES:
        copy.__dict__[f"{t}_table"] = getattr(frame, f"{t}_table").copy()
    copy.__dict__[f"{table}_table"][i, j] = value
    return copy


# One corrupted cell of the diamond's tables (carrier {}, {p}, {q}, {p,q}),
# and every law violation check_laws reports for it, first witness included.
CORRUPTIONS = {
    "implies": ((0, 0, 0), ["residuation fails at (1,0,0)"]),
    "leq": ((1, 0, True), ["order does not match meet",
                           "residuation fails at (1,1,0)"]),
    "meet": ((3, 0, 3), ["meet/join not commutative", "top is not a meet unit",
                         "order does not match meet", "meet not associative",
                         "residuation fails at (3,0,0)",
                         "distributivity fails at (3,0,1)"]),
    "join": ((0, 1, 0), ["meet/join not commutative", "bot is not a join unit",
                         "join not associative", "distributivity fails at (1,0,3)"]),
    "join-diagonal": ((1, 1, 0), ["meet/join not idempotent", "join not associative",
                                  "distributivity fails at (1,1,3)"]),
}


@pytest.mark.parametrize("cells", (frames.BLOCK_CELLS, 1))
@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_check_laws_reports_corrupted_table(monkeypatch, o4, name, cells):
    (i, j, value), want = CORRUPTIONS[name]
    # the tables are swept afresh at the default blocks, and one row per block
    monkeypatch.setattr(frames, "BLOCK_CELLS", cells)
    broken = with_cell(Frame(o4.poset, o4.masks), name.split("-")[0], i, j, value)
    sent = scanned_laws(monkeypatch)
    assert assert_laws_match_scan(broken) == want
    # Light's test refutes associativity, and the scan is sent no such law
    assert not any(m.endswith("not associative") for laws in sent for m in laws)


def assert_laws_match_scan(frame):
    """check_laws equals the law_scan referee; returns the list."""
    want = law_scan(frame)
    assert frame.check_laws() == want
    return want


@pytest.mark.parametrize("table", LAW_TABLES)
@pytest.mark.parametrize("name", sorted(POSETS))
def test_check_laws_matches_law_scan_on_corrupted_cells(name, table):
    frame = make_frame(name)
    n = len(frame)
    rng = random.Random(f"laws:{name}:{table}")
    for _ in range(4):
        i, j = rng.randrange(n), rng.randrange(n)
        old = getattr(frame, f"{table}_table")[i, j]
        others = [not old] if table == "leq" else [v for v in range(n) if v != old]
        if not others:
            continue  # carrier 1: no other index to write
        broken = with_cell(frame, table, i, j, rng.choice(others))
        # one changed cell always breaks some law
        assert assert_laws_match_scan(broken), (i, j)


def test_check_laws_witness_in_a_late_row():
    frame = downset_frame(poset_from_relation(*REFEREE_POSETS["chains2x4"]))
    # both witnesses lie in row 70 of 81, after 70 rows without one
    got = assert_laws_match_scan(with_cell(frame, "meet", 70, 75, 40))
    assert got == ["meet/join not commutative", "meet not associative",
                   "residuation fails at (70,75,40)", "distributivity fails at (70,1,75)"]


@pytest.mark.parametrize("name, carrier", (("empty", 1), ("point", 2)))
def test_check_laws_on_edge_carriers(name, carrier):
    frame = make_frame(name)
    assert len(frame) == carrier
    assert assert_laws_match_scan(frame) == []


def no_scan(*args):
    raise AssertionError("the witness scan ran on a sound frame")


@pytest.mark.parametrize("name", sorted(REFEREE_POSETS))
def test_frame_laws_hold(monkeypatch, name):
    frame = downset_frame(poset_from_relation(*REFEREE_POSETS[name]))
    # every law is decided without the scan
    monkeypatch.setattr(Frame, "_scan_laws", no_scan)
    assert frame.check_laws() == []


def test_frame_laws_hold_at_carrier_729(monkeypatch):
    frame = downset_frame(poset_from_relation(*chain_union(6, 2)))
    assert len(frame) == 729
    monkeypatch.setattr(Frame, "_scan_laws", no_scan)
    assert frame.check_laws() == []


def scanned_laws(monkeypatch):
    """The list of laws each ``check_laws`` call sends to the witness scan,
    one list per call, filled as the calls are made."""
    sent = []
    scan = Frame._scan_laws

    def record(self, messages, *tables):
        sent.append(messages)
        return scan(self, messages, *tables)

    monkeypatch.setattr(Frame, "_scan_laws", record)
    return sent


def with_tables(frame, leq, meet, join, implies):
    """A frame on the masks of ``frame`` with the given tables."""
    copy = Frame(frame.poset, frame.masks)
    copy.__dict__.update(leq_table=leq, meet_table=meet, join_table=join, implies_table=implies)
    return copy


def lattice_tables(n, covers):
    """The order, meet and join tables of the lattice on range(n) whose
    covering pairs are ``covers``: each bound is the common bound with the
    most elements below it (meet) or above it (join)."""
    leq = np.eye(n, dtype=bool)
    for a, b in covers:
        leq[a, b] = True
    for k in range(n):
        leq |= leq[:, [k]] & leq[k]
    meet = [[max((x for x in range(n) if leq[x, a] and leq[x, b]), key=lambda x: leq[:, x].sum())
             for b in range(n)] for a in range(n)]
    join = [[max((x for x in range(n) if leq[a, x] and leq[b, x]), key=lambda x: leq[x].sum())
             for b in range(n)] for a in range(n)]
    return leq, np.array(meet, dtype=np.int32), np.array(join, dtype=np.int32)


# The poset a < b, a < c has the carrier {}, {a}, {a,b}, {a,c}, {a,b,c}, with
# the candidates down(a), down(b), down(c) at 1, 2 and 3: the join-irreducibles
# of both lattices. None of them is join-prime in M3, and 2 is not in N5.
NON_DISTRIBUTIVE = {
    "M3": ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)),
    "N5": ((0, 1), (1, 2), (2, 4), (0, 3), (3, 4)),
}


@pytest.mark.parametrize("name", sorted(NON_DISTRIBUTIVE))
def test_check_laws_refutes_distributivity_by_a_join_prime(monkeypatch, name):
    vee = downset_frame(poset_from_relation(["a", "b", "c"], [("a", "b"), ("a", "c")]))
    frame = with_tables(vee, *lattice_tables(5, NON_DISTRIBUTIVE[name]), vee.implies_table)
    down = frame._label_down
    assert down.tolist() == [1, 2, 3]
    assert frames._join_dense(frame.leq_table, frame.join_table, down, 0)
    assert not frames._join_prime(frame.leq_table, frame.join_table, down)
    sent = scanned_laws(monkeypatch)
    got = assert_laws_match_scan(frame)
    assert got[-1].startswith("distributivity fails at")
    # the lattice and its associativity are proved without the scan
    assert sent == [["residuation fails", "distributivity fails"]]


def test_check_laws_refutes_residuation_on_the_fast_path(monkeypatch):
    frame = downset_frame(poset_from_relation(*REFEREE_POSETS["chains2x4"]))
    rng = random.Random("laws:implies81")
    sent = scanned_laws(monkeypatch)
    for _ in range(3):
        i, j = rng.randrange(81), rng.randrange(81)
        value = rng.choice([v for v in range(81) if v != frame.implies_table[i, j]])
        got = assert_laws_match_scan(with_cell(frame, "implies", i, j, value))
        assert len(got) == 1 and got[0].startswith("residuation fails at")
    # distributivity is proved, so residuation alone reaches the scan
    assert sent == [["residuation fails"]] * 3


def test_check_laws_tests_the_elements_its_candidates_miss(monkeypatch, o4):
    # meet on the diamond {}, {p}, {q}, {p,q} with meet(p, q) = {p} and
    # meet({}, {}) = {p,q}: the candidates {q}, {p} (the P minus up(x)) and
    # top now reach only themselves and pass Light's test, and bottom, which
    # they miss, fails it: ({p} /\ {}) /\ {} = {} /\ {} = top, while
    # {p} /\ ({} /\ {}) = {p} /\ top = {p}
    broken = o4
    for i, j, value in ((1, 2, 1), (2, 1, 1), (0, 0, 3)):
        broken = with_cell(broken, "meet", i, j, value)
    meet, candidates = broken.meet_table, np.append(broken._label_outside, broken.top_index)
    assert frames._generators(meet, candidates).tolist() == [2, 1, 3, 0]
    assert all((meet[meet[:, g]] == meet[:, meet[g]]).all() for g in candidates)
    sent = scanned_laws(monkeypatch)
    assert "meet not associative" in assert_laws_match_scan(broken)
    # Light's test refutes it, and the scan is sent no associativity law
    assert not any(m.endswith("not associative") for laws in sent for m in laws)


def tables(frame):
    return tuple(getattr(frame, f"{t}_table") for t in LAW_TABLES)


# The 3-chain p < q < r has the carrier chain {} < {p} < {p,q} < {p,q,r} and
# the candidates down(x) at 1, 2 and 3; the 2-antichain has the diamond
# {}, {p}, {q}, {p,q} and the candidates at 1 and 2. Each case below puts the
# tables of one on the masks of the other.

def test_check_laws_scans_when_a_candidate_is_not_join_irreducible(monkeypatch):
    # the diamond's tables on the 3-chain's masks: the candidates are join-
    # dense, but 3, the top, is the join of 1 and 2 and so not join-prime;
    # the tables form a Heyting algebra, and the scan finds nothing
    frame = with_tables(make_frame("chain3"), *tables(make_frame("anti2")))
    leq, join, down = frame.leq_table, frame.join_table, frame._label_down
    assert down.tolist() == [1, 2, 3] and join[1, 2] == 3
    assert frames._join_dense(leq, join, down, 0)
    assert not frames._join_prime(leq, join, down)
    sent = scanned_laws(monkeypatch)
    assert assert_laws_match_scan(frame) == []
    assert sent == [["residuation fails", "distributivity fails"]]


def test_check_laws_scans_when_the_candidates_are_not_join_dense(monkeypatch):
    # the chain's tables on the diamond's masks, with implies[3, 3] = 2: the
    # candidates 1 and 2 are join-prime, and residuation holds for them but
    # fails for 3, which is no join of them
    leq, meet, join, implies = tables(make_frame("chain3"))
    implies = implies.copy()
    implies[3, 3] = 2
    frame = with_tables(make_frame("anti2"), leq, meet, join, implies)
    down = frame._label_down
    assert down.tolist() == [1, 2]
    assert frames._join_prime(leq, join, down)
    assert not frames._join_dense(leq, join, down, 0)
    sent = scanned_laws(monkeypatch)
    assert assert_laws_match_scan(frame) == ["residuation fails at (3,3,3)"]
    assert sent == [["residuation fails", "distributivity fails"]]


def test_check_laws_scans_when_absorption_fails(monkeypatch):
    # the diamond's order and meet with the chain's join, on the chain's
    # masks: every two-index law and both associativities hold, and the
    # candidates are join-dense and join-prime, yet the tables are no lattice
    # (meet(1, join(1, 2)) = meet(1, 2) = 0), and distributivity fails
    leq, meet, _, _ = tables(make_frame("anti2"))
    chain = make_frame("chain3")
    frame = with_tables(chain, leq, meet, chain.join_table, chain.implies_table)
    down = frame._label_down
    assert frames._join_dense(leq, frame.join_table, down, 0)
    assert frames._join_prime(leq, frame.join_table, down)
    sent = scanned_laws(monkeypatch)
    got = assert_laws_match_scan(frame)
    assert got == ["residuation fails at (1,1,2)", "distributivity fails at (1,1,2)"]
    assert sent == [["residuation fails", "distributivity fails"]]


@pytest.mark.parametrize("name", sorted(POSETS))
def test_meet_with_top_is_identity(name):
    f = make_frame(name)
    for x in range(len(f)):
        assert f.meet_table[f.top_index, x] == x


def test_omega3_implies_m_bot_is_bot(o3):
    m = o3.element(["p"])
    assert o3.implies_table[m.index, o3.bot_index] == o3.bot_index


def test_omega4_negation_swaps_atoms(o4):
    a, b = o4.element(["p"]), o4.element(["q"])
    assert o4.implies_table[a.index, o4.bot_index] == b.index
    assert o4.implies_table[b.index, o4.bot_index] == a.index


@pytest.mark.parametrize("name", ["chain2", "anti2", "vee", "chain2_point", "anti3"])
def test_implies_table_matches_residuation_scan(name):
    f = make_frame(name)
    for b in range(len(f)):
        for c in range(len(f)):
            assert int(f.implies_table[b, c]) == residuation_scan(f, b, c)


def test_cross_frame_operations_rejected(o3, o4):
    with pytest.raises(FrameMismatch):
        o3.check_element(o4.top)
    with pytest.raises(FrameMismatch):
        Nucleus(o3, np.arange(len(o3)))(o4.bot)


def test_element_lookup_and_key(o3):
    m = o3.element(["p"])
    assert m.key == "p" and o3.bot.key == ""
    for labels, shown in ((["q"], "['q']"),  # {q} is not downward closed in the 2-chain
                          (["q", "z", "q"], "['q', 'z']")):  # z is no label
        with pytest.raises(UnknownLabel) as err:
            o3.element(labels)
        assert str(err.value) == f"{shown} is not an element of this frame"


def test_masks_across_the_word_boundary():
    # 70 labels, so downset masks pass 64 bits: a chain
    # x00 < ... < x62 < {x63, x64} < x65 < ... < x69, with the incomparable
    # labels 63 and 64 on either side of the 64-bit boundary
    labels = [f"x{i:02d}" for i in range(70)]
    pairs = [(a, b) for a, b in zip(labels, labels[1:]) if (a, b) != ("x63", "x64")]
    pairs += [("x62", "x64"), ("x63", "x65")]
    p = poset_from_relation(labels, pairs)
    assert "x62" in principal_downset(p, "x64") and "x64" in principal_downset(p, "x65") and "x00" in principal_downset(p, "x69")
    assert "x63" not in principal_downset(p, "x64") and "x64" not in principal_downset(p, "x63")
    assert principal_downset(p, "x64") == frozenset(labels[:63] + ["x64"])
    assert principal_downset(p, "x65") == frozenset(labels[:66])
    back = io.poset_from_dict({"elements": labels, "le": [list(q) for q in pairs]})
    assert [principal_downset(back, x) for x in labels] == [principal_downset(p, x) for x in labels]
    assert back.labels == p.labels and back.masks == p.masks
    frame = downset_frame(p)
    assert len(frame) == 64 + 3 + 5
    low = (1 << 63) - 1
    for holds, mask in ((labels[:64], low | 1 << 63),
                        (labels[:63] + ["x64"], low | 1 << 64),
                        (labels[:65], low | 1 << 63 | 1 << 64)):
        e = frame.element(reversed(holds))
        assert frame.masks[e.index] == mask
        assert e.labels == tuple(holds) and e.key == ",".join(holds)
        assert frame.element(e.labels) == e


def test_heyting_dispatcher(o4):
    a, b = o4.element(["p"]).index, o4.element(["q"]).index
    assert o4.meet_table[a, b] == o4.bot_index
    assert o4.join_table[a, b] == o4.top_index
    assert o4.implies_table[a, o4.bot_index] == b


@pytest.mark.parametrize("count", (0, 1, 15, 16, 17, 40))
@pytest.mark.parametrize("cells", (0, 1, 3, 16, 17))
def test_blocks_cover_the_range_in_bounded_slices(monkeypatch, count, cells):
    monkeypatch.setattr(frames, "BLOCK_CELLS", 16)
    slices = frames.blocks(count, cells)
    assert [i for s in slices for i in range(s.start, s.stop)] == list(range(count))
    assert all(s.step is None and s.start < s.stop <= count for s in slices)
    assert all(s.stop - s.start <= max(1, 16 // max(1, cells)) for s in slices)


def test_blocks_clamp_the_last_slice():
    # a narrow pass must not size its other blocks from a nominal width
    assert frames.blocks(3, 81) == [slice(0, 3)]
    assert frames.blocks(5, frames.BLOCK_CELLS // 2) == [
        slice(0, 2), slice(2, 4), slice(4, 5)]


@pytest.mark.parametrize("count", range(1, 10))
def test_fold_equals_the_left_fold(o4, count):
    rng = np.random.default_rng(count)
    rows = rng.integers(0, len(o4), size=(count, 2, len(o4))).astype(np.int32)
    want = rows[0]
    for row in rows[1:]:
        want = o4.join_table[want, row]
    assert (frames.fold(o4.join_table, rows.copy()) == want).all()
