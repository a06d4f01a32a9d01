"""The closed form j_S against its referees.

On a downset frame every nucleus is j_S(U) = {y : down(y) & S <= U} for one
label subset S. Each test here checks a route built on that form
(``enumerate_nuclei``, ``oracle_modality``, ``validate_nucleus``,
``sup_nuclei``, ``fixed_points_frame``) against a route that does not use
it: the closure-system search, Kleene iteration, the prefixed-point meet,
the law scan and the brute-force filter of all inflationary tables.
"""

import itertools
import math
import random

import numpy as np
import pytest

from oraclemod.containers import (
    IndexedPropContainer,
    container_sum,
    oracle_modality,
    oracle_modality_bruteforce,
    oracle_modality_kleene,
    pred_of_nucleus,
)
from oraclemod import frames
from oraclemod.frames import downset_frame, poset_from_relation
from oraclemod.nuclei import (
    Nucleus,
    enumerate_nuclei,
    fixed_points_frame,
    j_table,
    law_scan,
    nucleus_rows,
    subset_of,
    sup_nuclei,
    validate_nucleus,
)

from catalog import (
    POSETS,
    all_labeled_posets,
    make_frame,
    pairs_frame,
    principal_downset,
    random_container,
)
from oracles import bruteforce_sup, closure_system_nuclei

LABELED = all_labeled_posets(4)
FRAMES = (
    [(f"catalog-{name}", lambda name=name: make_frame(name)) for name in POSETS]
    + [(f"labeled-{i}", lambda lp=lp: downset_frame(poset_from_relation(*lp)))
       for i, lp in enumerate(LABELED)]
    + [(f"pairs{k}", lambda k=k: pairs_frame(k)) for k in (4, 5)]
)
IDS = [name for name, _ in FRAMES]
# the pairs frames, at carriers 81 and 243, are over the enumeration limit
ENUMERABLE, ENUMERABLE_IDS = FRAMES[:-2], IDS[:-2]


def test_frame_list_covers_every_labeled_poset_of_four_labels():
    assert len(LABELED) == 243


def subsets(frame):
    """Every label subset as a boolean mask, in binary counting order."""
    labels = len(frame.poset)
    return [np.array(bits, dtype=bool)
            for bits in itertools.product([False, True], repeat=labels)]


def minimal_container(frame, subset):
    """One shape per label x outside S, with E = down(x) and P = down(x) - {x}."""
    pred, extent = {}, {}
    for x, kept in zip(frame.poset.labels, subset):
        if not kept:
            down = principal_downset(frame.poset, x)
            extent[x] = frame.element(down)
            pred[x] = frame.element(down - {x})
    return IndexedPropContainer(frame, pred, extent)


@pytest.mark.parametrize("name, build", ENUMERABLE, ids=ENUMERABLE_IDS)
def test_enumeration_matches_closure_system_referee(name, build):
    frame = build()
    got = [tuple(map(int, j.table)) for j in enumerate_nuclei(frame)]
    assert got == closure_system_nuclei(frame)


@pytest.mark.parametrize("name, build", FRAMES, ids=IDS)
def test_subsets_biject_onto_nuclei_and_minimal_containers_give_them(name, build):
    frame = build()
    seen = set()
    for subset in subsets(frame):
        table = j_table(frame, subset)
        assert (subset_of(frame, table) == subset).all()
        seen.add(table.tobytes())
        kle = oracle_modality_kleene(minimal_container(frame, subset))
        assert (kle.table == table).all()
    assert len(seen) == 2 ** len(frame.poset)


@pytest.mark.parametrize("name, build", FRAMES, ids=IDS)
def test_modality_matches_kleene_and_prefixed_points(name, build):
    frame = build()
    rng = random.Random(f"modality:{name}")
    cs = [random_container(frame, rng) for _ in range(12)]
    cs.append(container_sum(cs[:3]))
    cs.append(IndexedPropContainer(frame, {}))
    for c in cs:
        j = oracle_modality(c)
        assert j == oracle_modality_kleene(c) == oracle_modality_bruteforce(c), c


def one_cell_changes(frame, table, rng, count):
    for _ in range(count):
        t = table.copy()
        t[rng.randrange(len(frame))] = rng.randrange(len(frame))
        yield t


@pytest.mark.parametrize("name, build", FRAMES, ids=IDS)
def test_validation_matches_law_scan(monkeypatch, name, build):
    frame = build()
    rng = random.Random(f"validate:{name}")
    n = len(frame)
    tables = [j_table(frame, s) for s in subsets(frame)]
    tables = rng.sample(tables, min(len(tables), 16))
    tables += [t for j in tables[:8] for t in one_cell_changes(frame, j, rng, 4)]
    tables += [np.array([rng.randrange(n) for _ in range(n)], dtype=np.int32)
               for _ in range(8)]
    for t in tables:
        got, want = validate_nucleus(frame, t), law_scan(frame, t)
        assert got.valid == want.valid
        assert got.violations == want.violations
    # the batched accept test, at the default block size and one table a block
    valid = [law_scan(frame, t).valid for t in tables]
    assert nucleus_rows(frame, np.stack(tables)).tolist() == valid
    monkeypatch.setattr(frames, "BLOCK_CELLS", n)
    assert nucleus_rows(frame, np.stack(tables)).tolist() == valid


def _inflationary_table_count(frame):
    return math.prod(map(int, frame.leq_table.sum(axis=1)))


@pytest.mark.parametrize("name, build", FRAMES, ids=IDS)
def test_sup_matches_referees(name, build):
    frame = build()
    rng = random.Random(f"sup:{name}")
    all_subsets = subsets(frame)
    families = [[Nucleus(frame, j_table(frame, s)) for s in rng.sample(all_subsets, k)]
                for k in (0, 1, 2, 2, 3) if k <= len(all_subsets)]
    if _inflationary_table_count(frame) <= 100_000:
        for js in families:
            assert tuple(map(int, sup_nuclei(frame, js).table)) == bruteforce_sup(frame, js)
    elif len(frame) <= 64:
        # the least table among the closure-system nuclei above the family
        nuclei = np.array(closure_system_nuclei(frame), dtype=np.int32)
        for js in families:
            above = [t for t in nuclei
                     if all(frame.leq_table[j.table, t].all() for j in js)]
            least = [t for t in above if all(frame.leq_table[t, u].all() for u in above)]
            assert len(least) == 1
            assert (sup_nuclei(frame, js).table == least[0]).all()
    else:
        # the Kleene modality of the sum of the stable-query containers
        for js in families:
            c = container_sum([pred_of_nucleus(j) for j in js], frame)
            assert sup_nuclei(frame, js) == oracle_modality_kleene(c)


@pytest.mark.parametrize("name, build", FRAMES, ids=IDS)
def test_fixed_points_frame_is_the_subposet_frame(name, build):
    frame = build()
    rng = random.Random(f"fixed:{name}")
    for subset in rng.sample(subsets(frame), min(8, 2 ** len(frame.poset))):
        j = Nucleus(frame, j_table(frame, subset))
        kept = frozenset(x for x, k in zip(frame.poset.labels, subset) if k)
        fixed = np.flatnonzero(j.table == np.arange(len(frame)))
        sub = fixed_points_frame(j)
        # U -> U & S is an order isomorphism from the fixed points onto sub
        image = [sub.element(frozenset(frame.el(int(u)).labels) & kept).index for u in fixed]
        assert sorted(image) == list(range(len(sub)))
        assert (sub.leq_table[np.ix_(image, image)]
                == frame.leq_table[np.ix_(fixed, fixed)]).all()
