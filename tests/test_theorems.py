import random

import numpy as np
import pytest

from oraclemod import theorems
from oraclemod.containers import IndexedPropContainer, container_sum, oracle_modality
from oraclemod.nuclei import Nucleus, sup_nuclei
from oraclemod.theorems import (
    THEOREM_IDS,
    Budget,
    surjective_relabeling,
    verify_theorems,
)

from catalog import make_frame
from oracles import bruteforce_sup


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
              if o2.le(p, e)]
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


def test_surjective_relabeling_is_surjective(o3):
    import random

    rng = random.Random(11)
    for _ in range(40):
        from oraclemod.theorems import random_container

        c = random_container(o3, rng)
        cq = surjective_relabeling(c, rng)
        assert len(cq.shapes) >= len(c.shapes)
        got = {(int(e), int(p)) for e, p in zip(cq.ext, cq.prd)}
        want = {(int(e), int(p)) for e, p in zip(c.ext, c.prd)}
        assert got == want  # same stage/value pairs reached


def test_unknown_theorem_id_rejected(o3):
    with pytest.raises(ValueError):
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
    real = theorems.enumerate_nuclei

    def counting(frame):
        seen.append(frame)
        return real(frame)

    monkeypatch.setattr(theorems, "enumerate_nuclei", counting)
    reports = verify_theorems(o4, suite=suite, budget=Budget(seed=1, cases=20))
    assert all(r.passed for r in reports)
    assert len(seen) == calls


def _not_called(frame):
    raise AssertionError("single-shape containers built although sampling")


@pytest.mark.parametrize("suite", ("forcing-iff", "oracle-leq", "least-above-instance",
                                   "instance-vs-forcing"))
def test_sampling_decided_before_building_pairs(monkeypatch, o4, suite):
    # anti4 has 81 single-shape containers, more than --cases 4
    monkeypatch.setattr(theorems, "all_single_shape_containers", _not_called)
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
        c, d = theorems.random_container(frame, a), _column_scan_container(frame, b)
        assert (c.shapes, c.ext.tolist(), c.prd.tolist()) == (
            d.shapes, d.ext.tolist(), d.prd.tolist())
    assert frame.below is frame.below
    assert [x.tolist() for x in frame.below] == [
        np.flatnonzero(col).tolist() for col in frame.leq_table.T]
