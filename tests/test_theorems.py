import hashlib
import random

import numpy as np
import pytest

from oraclemod import frames, theorems
from oraclemod.containers import (
    IndexedPropContainer,
    container_sum,
    oracle_modality,
)
from oraclemod.errors import InternalInvariantViolation, UnknownLabel
from oraclemod.nuclei import (
    Nucleus,
    enumerate_nuclei,
    j_table,
    sup_nuclei,
)
from oraclemod.theorems import (
    THEOREM_IDS,
    Budget,
    verify_theorems,
)

from catalog import (
    POSETS,
    canonical_nuclei,
    instance_prenuclei,
    make_frame,
    random_container,
    surjective_relabeling,
)
from oracles import (
    bruteforce_nuclei,
    bruteforce_sup,
    closure_system_nuclei,
    element_single_shape_containers,
    element_surjective_relabeling,
    least_above,
)


@pytest.mark.parametrize("name", ("chain2", "anti2"))
def test_full_suite_passes(name):
    frame = make_frame(name)
    reports = verify_theorems(frame, budget=Budget(seed=7, cases=120))
    assert [r.theorem for r in reports] == list(THEOREM_IDS)
    for r in reports:
        assert r.passed, (r.theorem, r.failures[:2])
        assert r.checked > 0


def test_reports_are_deterministic(o3):
    a = verify_theorems(o3, budget=Budget(seed=3, cases=50))
    b = verify_theorems(o3, budget=Budget(seed=3, cases=50))
    assert [(r.theorem, r.checked, r.failures) for r in a] == [
        (r.theorem, r.checked, r.failures) for r in b
    ]


def test_sup_exhaustive_on_omega2(o2):
    # every pair of containers with at most two shapes over the two-element frame
    stages = [(e, p) for e in o2.all_elements() for p in o2.all_elements()
              if o2.leq_table[p.index, e.index]]
    cs = []
    for e1, p1 in stages:
        cs.append(IndexedPropContainer(o2, {"a0": p1}, {"a0": e1}))
        for e2, p2 in stages:
            cs.append(
                IndexedPropContainer(o2, {"a0": p1, "a1": p2}, {"a0": e1, "a1": e2})
            )
    for c1 in cs:
        for c2 in cs:
            js = [oracle_modality(c1), oracle_modality(c2)]
            want = bruteforce_sup(o2, js)
            assert tuple(map(int, oracle_modality(container_sum([c1, c2])).table)) == want
            assert tuple(map(int, sup_nuclei(o2, js).table)) == want


@pytest.mark.parametrize("cells", (None, 1))
@pytest.mark.parametrize("name", sorted(POSETS))
def test_least_above_is_the_least_nucleus_above(monkeypatch, name, cells):
    frame = make_frame(name)
    # anti4 has 2**32 inflationary tables to filter; its nuclei come from the
    # closure-system search instead
    search = closure_system_nuclei if name == "anti4" else bruteforce_nuclei
    naive = np.array(search(frame), dtype=np.int32)
    nuclei = np.array([k.table for k in enumerate_nuclei(frame)])
    rng = random.Random(f"least-above:{name}")
    cs = [random_container(frame, rng) for _ in range(20)]
    js = [nuclei[rng.randrange(len(nuclei))] for _ in range(20)]
    lowers = np.concatenate([
        instance_prenuclei(frame, cs),
        frame.join_table[js[:10], js[10:]],
        nuclei,
        [[rng.randrange(len(frame)) for _ in range(len(frame))] for _ in range(20)],
    ]).astype(np.int32)
    if cells is not None:
        monkeypatch.setattr(frames, "BLOCK_CELLS", cells)  # one row per block
    got = theorems._least_above(frame, nuclei, lowers)
    assert [tuple(map(int, row)) for row in got] == [
        least_above(frame, [t], naive) for t in lowers]


def test_least_above_raises_when_the_meet_is_missing(o4):
    # j_{p} and j_{q} lie above the identity; their meet, the identity, is
    # not listed
    ident = canonical_nuclei(o4, "identity").table
    nuclei = np.array([j_table(o4, np.array(s)) for s in ([True, False], [False, True])])
    with pytest.raises(InternalInvariantViolation, match="meet of dominators"):
        theorems._least_above(o4, nuclei, ident[None, :])


def test_surjective_relabeling_is_surjective(o3):
    import random

    rng = random.Random(11)
    for _ in range(40):
        c = random_container(o3, rng)
        cq = surjective_relabeling(c, rng)
        assert len(cq.shapes) >= len(c.shapes)
        got = {(int(e), int(p)) for e, p in zip(cq.ext, cq.prd)}
        want = {(int(e), int(p)) for e, p in zip(c.ext, c.prd)}
        assert got == want  # same stage/value pairs reached


def test_unknown_theorem_id_rejected(o3):
    with pytest.raises(UnknownLabel):
        verify_theorems(o3, suite=("no-such-theorem",))


def test_injected_broken_nucleus_fails_retraction(o3):
    bad = Nucleus(o3, np.array([1, 2, 2], dtype=np.int32))  # not idempotent
    budget = Budget(seed=0, cases=10, extra_nuclei=(bad,))
    (report,) = verify_theorems(o3, suite=("retraction",), budget=budget)
    assert not report.passed
    assert report.checked == 5


@pytest.mark.parametrize("suite, calls", ((THEOREM_IDS, 1), (("oracle-leq",), 0),
                                          (("surjection",), 0)))
def test_nuclei_enumerated_at_most_once_per_run(monkeypatch, o4, suite, calls):
    seen = []
    real = theorems.nucleus_stack

    def counting(frame):
        seen.append(frame)
        return real(frame)

    monkeypatch.setattr(theorems, "nucleus_stack", counting)
    reports = verify_theorems(o4, suite=suite, budget=Budget(seed=1, cases=20))
    assert all(r.passed for r in reports)
    assert len(seen) == calls


def _not_called(frame):
    raise AssertionError("single-shape containers built although sampling")


@pytest.mark.parametrize("suite", ("forcing-iff", "oracle-leq", "least-above-instance",
                                   "instance-vs-forcing"))
def test_sampling_decided_before_building_pairs(monkeypatch, o4, suite):
    # anti4 has 81 single-shape containers, more than --cases 4
    monkeypatch.setattr(theorems, "_single_shape_batch", _not_called)
    (report,) = verify_theorems(o4, suite=(suite,), budget=Budget(seed=1, cases=4))
    assert report.passed and report.checked == 4
    assert report.coverage == "sampled 4"


def _column_scan_container(frame, rng):
    """``random_container`` as it drew before ``Frame.below``: the list of
    elements below each extent is scanned from the order table per shape."""
    k = rng.randint(1, 3)
    pred, extent = {}, {}
    for i in range(k):
        e = frame.top_index if rng.random() < 0.5 else rng.randrange(len(frame))
        p = int(rng.choice(list(np.flatnonzero(frame.leq_table[:, e]))))
        pred[f"a{i}"], extent[f"a{i}"] = frame.el(p), frame.el(e)
    return IndexedPropContainer(frame, pred, extent)


@pytest.mark.parametrize("name", ("chain2", "diamond", "chain7", "anti4"))
def test_random_container_draws_as_the_column_scan(name):
    frame = make_frame(name)
    a, b = random.Random(name), random.Random(name)
    for _ in range(200):
        c, d = random_container(frame, a), _column_scan_container(frame, b)
        assert (c.shapes, c.ext.tolist(), c.prd.tolist()) == (
            d.shapes, d.ext.tolist(), d.prd.tolist())


@pytest.mark.parametrize("name", ("empty", "chain2", "diamond", "chain7", "anti4"))
def test_below_lists_each_column_of_the_order(name):
    frame = make_frame(name)
    assert frame.below is frame.below
    ptr, idx = frame.below
    assert all(type(x) is int for x in ptr + idx)
    assert (len(ptr), ptr[0], ptr[-1]) == (len(frame) + 1, 0, len(idx))
    assert [idx[ptr[e]:ptr[e + 1]] for e in range(len(frame))] == [
        np.flatnonzero(col).tolist() for col in frame.leq_table.T]


def _arrays(c):
    return c.shapes, c.ext.tolist(), c.prd.tolist()


@pytest.mark.parametrize("name", ("chain2", "diamond", "chain7", "anti4"))
def test_surjective_relabeling_draws_as_the_element_route(name):
    frame = make_frame(name)
    draw, a, b = random.Random(name), random.Random(name), random.Random(name)
    for _ in range(200):
        c = random_container(frame, draw)
        assert _arrays(surjective_relabeling(c, a)) == _arrays(
            element_surjective_relabeling(c, b))


@pytest.mark.parametrize("name", ("chain2", "diamond", "chain7", "anti4"))
def test_single_shape_containers_as_the_element_route(name):
    frame = make_frame(name)
    got = theorems._single_shape_batch(frame)
    assert [_arrays(c) for c in got] == [
        _arrays(c) for c in element_single_shape_containers(frame)]
    assert len(got) == theorems._single_shape_count(frame)


# -- failure paths -------------------------------------------------------
#
# ``oracle_modalities_kleene`` is replaced by one that returns a wrong
# modality for some containers, chosen by the container itself (never by
# its position in a batch), and every report is pinned: which checks fail,
# and with which messages, does not depend on how a referee batches.


def _wrong_table(mode, c):
    """The wrong modality ``mode`` gives container c, or None to keep its own:
    identity or top for every container, or top for the single-shape
    containers and the sums, whose shapes are named ``0:...``/``1:...``."""
    frame = c.frame
    if mode == "identity":
        return np.arange(len(frame))
    if mode == "top" or len(c) == 1 or any(a[:2] in ("0:", "1:") for a in c.shapes):
        return np.full(len(frame), frame.top_index)
    return None


# (mode, poset, cases) -> ((checked, failures) per referee, digest of every
# (theorem, checked, coverage, failures) tuple). At 10 000 cases only the
# referees that are then exhaustive on chain2 run.
_FAULTED_REPORTS = {
    ("identity", "chain2", 5): (((4, 3), (5, 2), (5, 4), (5, 3), (5, 0), (5, 0), (5, 0)), "3181f5ad70d2f906"),
    ("identity", "chain2", 30): (((4, 3), (24, 7), (30, 25), (30, 19), (30, 0), (30, 0), (30, 0)), "08ac87254f02349c"),
    ("identity", "vee", 5): (((8, 7), (5, 2), (5, 4), (5, 3), (5, 0), (5, 0), (5, 0)), "a4a21d1f123ed938"),
    ("identity", "vee", 30): (((8, 7), (30, 17), (30, 25), (30, 22), (30, 0), (30, 0), (30, 0)), "4317277a74444709"),
    ("identity", "diamond", 5): (((16, 15), (5, 4), (5, 4), (5, 4), (5, 0), (5, 0), (5, 0)), "e678d20bb4a597c3"),
    ("identity", "diamond", 30): (((16, 15), (30, 20), (30, 26), (30, 22), (30, 0), (30, 0), (30, 0)), "8ac17e1d8a4a5664"),
    ("identity", "chain7", 5): (((128, 127), (5, 4), (5, 5), (5, 3), (5, 0), (5, 0), (5, 0)), "0569e4cdff65042e"),
    ("identity", "chain7", 30): (((128, 127), (30, 21), (30, 28), (30, 23), (30, 0), (30, 0), (30, 0)), "ba4695cbd02389aa"),
    ("identity", "anti4", 5): (((16, 15), (5, 4), (5, 4), (5, 3), (5, 0), (5, 0), (5, 0)), "5bd46c3f60d36d62"),
    ("identity", "anti4", 30): (((16, 15), (30, 22), (30, 27), (30, 28), (30, 0), (30, 0), (30, 0)), "77e5b4d3845cc993"),
    ("top", "chain2", 5): (((4, 3), (5, 2), (5, 0), (5, 2), (5, 0), (5, 0), (5, 0)), "311237097ed661a6"),
    ("top", "chain2", 30): (((4, 3), (24, 11), (30, 0), (30, 19), (30, 0), (30, 0), (30, 0)), "b9be679217f95bb9"),
    ("top", "vee", 5): (((8, 7), (5, 3), (5, 0), (5, 4), (5, 0), (5, 0), (5, 0)), "a1d10e52323f682b"),
    ("top", "vee", 30): (((8, 7), (30, 11), (30, 0), (30, 25), (30, 0), (30, 0), (30, 0)), "5fc82c71ebc574fd"),
    ("top", "diamond", 5): (((16, 15), (5, 1), (5, 0), (5, 3), (5, 0), (5, 0), (5, 0)), "b475a4eb2085baa6"),
    ("top", "diamond", 30): (((16, 15), (30, 9), (30, 0), (30, 27), (30, 0), (30, 0), (30, 0)), "9593ccbbbe2e9b09"),
    ("top", "chain7", 5): (((128, 127), (5, 1), (5, 0), (5, 5), (5, 0), (5, 0), (5, 0)), "462257c2ea589349"),
    ("top", "chain7", 30): (((128, 127), (30, 9), (30, 0), (30, 27), (30, 0), (30, 0), (30, 0)), "bda8d12512aa433a"),
    ("top", "anti4", 5): (((16, 15), (5, 1), (5, 0), (5, 5), (5, 0), (5, 0), (5, 0)), "0eee5776303d4c2b"),
    ("top", "anti4", 30): (((16, 15), (30, 7), (30, 0), (30, 26), (30, 0), (30, 0), (30, 0)), "92f180ed85dcce2b"),
    ("single-or-sum", "chain2", 5): (((4, 0), (5, 1), (5, 0), (5, 2), (5, 0), (5, 0), (5, 0)), "a3dc68d0c6ab3380"),
    ("single-or-sum", "chain2", 30): (((4, 0), (24, 11), (30, 1), (30, 11), (30, 0), (30, 6), (30, 0)), "4e836ce45b5cf1f5"),
    ("single-or-sum", "vee", 5): (((8, 0), (5, 2), (5, 1), (5, 2), (5, 0), (5, 0), (5, 0)), "fa147f9a3fa61bea"),
    ("single-or-sum", "vee", 30): (((8, 0), (30, 7), (30, 2), (30, 17), (30, 1), (30, 6), (30, 0)), "528cf3ff97deebee"),
    ("single-or-sum", "diamond", 5): (((16, 0), (5, 1), (5, 0), (5, 2), (5, 0), (5, 0), (5, 0)), "e534318d3388f5cf"),
    ("single-or-sum", "diamond", 30): (((16, 0), (30, 3), (30, 1), (30, 22), (30, 3), (30, 5), (30, 0)), "aedc98f48dfd1a0a"),
    ("single-or-sum", "chain7", 5): (((128, 0), (5, 1), (5, 0), (5, 2), (5, 0), (5, 0), (5, 0)), "1efd0afb7e0d28fd"),
    ("single-or-sum", "chain7", 30): (((128, 0), (30, 8), (30, 1), (30, 10), (30, 6), (30, 6), (30, 0)), "d200b6ef83c5841f"),
    ("single-or-sum", "anti4", 5): (((16, 0), (5, 1), (5, 0), (5, 2), (5, 0), (5, 0), (5, 0)), "2c30c245bbce9682"),
    ("single-or-sum", "anti4", 30): (((16, 0), (30, 7), (30, 5), (30, 10), (30, 1), (30, 6), (30, 0)), "4b1023297b2e722d"),
}
_EXHAUSTIVE_ON_CHAIN2 = ("retraction", "forcing-iff", "oracle-leq")


def _faulted_reports(monkeypatch, mode, name, cases, suite=None):
    real = theorems.oracle_modalities_kleene

    def faulty(frame, cs, *args):
        tables = real(frame, cs, *args)
        for i, c in enumerate(cs):
            if (t := _wrong_table(mode, c)) is not None:
                tables[i] = t
        return tables

    monkeypatch.setattr(theorems, "oracle_modalities_kleene", faulty)
    reports = verify_theorems(make_frame(name), suite, Budget(seed=0, cases=cases))
    rows = [(r.theorem, r.checked, r.coverage, r.failures) for r in reports]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
    return tuple((r.checked, len(r.failures)) for r in reports), digest


@pytest.mark.parametrize("mode, name, cases", sorted(_FAULTED_REPORTS))
def test_wrong_modalities_fail_as_pinned(monkeypatch, mode, name, cases):
    got = _faulted_reports(monkeypatch, mode, name, cases)
    assert got == _FAULTED_REPORTS[mode, name, cases]


@pytest.mark.parametrize("mode, want", (
    ("identity", (((4, 3), (24, 7), (36, 18)), "ccb5bfef1643e8a6")),
    ("top", (((4, 3), (24, 11), (36, 0)), "b9e2ad8ff456b32a")),
    ("single-or-sum", (((4, 0), (24, 11), (36, 0)), "fd8d2a52e03d0e50")),
))
def test_wrong_modalities_fail_as_pinned_exhaustively(monkeypatch, mode, want):
    got = _faulted_reports(monkeypatch, mode, "chain2", 10_000, _EXHAUSTIVE_ON_CHAIN2)
    assert got == want
