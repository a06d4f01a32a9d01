import random

import numpy as np
import pytest

from oraclemod.containers import (
    ContainerBatch,
    IndexedPropContainer,
    container_sum,
    forced_by,
    forces,
    instance_reducible,
    oracle_modality,
    oracle_modality_bruteforce,
    pred_of_nucleus,
    stable_query_batch,
    validate_container,
)
from oraclemod import frames
from oraclemod.errors import FrameMismatch
from oraclemod.nuclei import Nucleus, enumerate_nuclei, validate_nucleus

from catalog import (
    SMALL,
    all_single_shape_containers,
    canonical_nuclei,
    counterexample_container,
    instance_prenuclei,
    lem_container,
    make_frame,
    pairs_frame,
    random_container,
    realized_container,
)
from oracles import dict_pred_of_nucleus, element_instance_reducible, per_shape_query_table


def table(j):
    return tuple(map(int, j.table))


def shape_values(c, a):
    """(extent, pred) of shape a of c, looked up by name."""
    k = c.shapes.index(a)
    return c.frame.el(int(c.ext[k])), c.frame.el(int(c.prd[k]))


def test_repr_lists_each_shape_as_pred_below_extent():
    f = make_frame("chain2")
    p, pq = f.el(1), f.top
    c = IndexedPropContainer(f, {"a": p, "b": f.bot}, {"a": pq, "b": p})
    assert repr(c) == "Container(a: {p}<={p,q}, b: {}<={p})"


def test_validate_empty_container(o3):
    assert validate_container(IndexedPropContainer(o3, {}))


def test_validate_global_extent_always(o3):
    for p in o3.all_elements():
        assert validate_container(IndexedPropContainer(o3, {"a0": p}))


def test_validate_rejects_pred_above_extent(o3):
    c = IndexedPropContainer(o3, {"a0": o3.element(["p"])}, {"a0": o3.bot})
    assert not validate_container(c)


@pytest.mark.parametrize("name", SMALL + ("chain4", "diamond", "anti4"))
def test_validate_container_is_the_order_test(name):
    # the label subset test against P(a) <= E(a) read from the order table,
    # on seeded containers, valid ones and arbitrary index pairs
    f = make_frame(name)
    rng = random.Random(f"validate:{name}")
    verdicts = set()
    for k in range(60):
        if k % 2:
            c = random_container(f, rng)
        else:
            shapes = rng.randint(1, 3)
            c = IndexedPropContainer.of_indices(
                f, [f"a{i}" for i in range(shapes)],
                [rng.randrange(len(f)) for _ in range(shapes)],
                [rng.randrange(len(f)) for _ in range(shapes)])
        verdict = validate_container(c)
        assert verdict == bool(f.leq_table[c.prd, c.ext].all())
        verdicts.add(verdict)
    assert verdicts == ({True} if len(f) == 1 else {True, False})


def test_label_level_paths_build_no_join():
    f = make_frame("anti4")
    tables = {"leq_table", "meet_table", "join_table", "implies_table"}
    c = IndexedPropContainer(f, {"a0": f.element(["p"])}, {"a0": f.element(["p", "q"])})
    assert validate_container(c)
    assert not tables & f.__dict__.keys()
    assert validate_nucleus(f, oracle_modality(c).table).valid
    assert tables & f.__dict__.keys() == {"meet_table"}


def test_foreign_elements_rejected(o3, o4):
    with pytest.raises(FrameMismatch):
        IndexedPropContainer(o3, {"a0": o4.top})


def test_container_sum_nullary_unary_binary(o3):
    assert container_sum([], frame=o3).shapes == ()
    with pytest.raises(FrameMismatch):
        container_sum([])
    c = IndexedPropContainer(o3, {"x": o3.element(["p"])})
    s1 = container_sum([c])
    assert s1.shapes == ("0:x",)
    assert shape_values(s1, "0:x")[1] == o3.element(["p"])
    d = IndexedPropContainer(o3, {"y": o3.top}, {"y": o3.element(["p"])})
    s2 = container_sum([c, d])
    assert s2.shapes == ("0:x", "1:y")
    assert shape_values(s2, "1:y") == (o3.element(["p"]), o3.top)


def test_instance_prenucleus_empty_is_constant_bot(o3):
    pre = instance_prenuclei(o3, [IndexedPropContainer(o3, {})])[0]
    assert all(pre[x.index] == o3.bot_index for x in o3.all_elements())


def test_instance_prenucleus_realized_is_identity(o3):
    pre = instance_prenuclei(o3, [realized_container(o3)])[0]
    assert all(pre[x.index] == x.index for x in o3.all_elements())


def test_instance_prenucleus_on_diamond(o4):
    c = IndexedPropContainer(o4, {"a0": o4.element(["p"])})
    pre = instance_prenuclei(o4, [c])[0]
    assert pre[o4.bot_index] == o4.element(["q"]).index  # top /\ ({p} => bot) = neg {p}


@pytest.mark.parametrize("name", SMALL)
def test_instance_prenucleus_monotone(name):
    f = make_frame(name)
    leq = f.leq_table
    for c in all_single_shape_containers(f):
        t = instance_prenuclei(f, [c])[0]
        assert (~leq | leq[t[:, None], t[None, :]]).all()


def test_counterexample_gives_constant_top(o3):
    assert oracle_modality(counterexample_container(o3)) == canonical_nuclei(o3, "top")
    assert oracle_modality_bruteforce(counterexample_container(o3)) == canonical_nuclei(
        o3, "top"
    )


def test_realized_gives_identity(o3):
    assert oracle_modality(realized_container(o3)) == canonical_nuclei(o3, "identity")


def test_empty_container_gives_identity(o3):
    assert oracle_modality_bruteforce(IndexedPropContainer(o3, {})) == canonical_nuclei(
        o3, "identity"
    )


def test_lem_gives_double_negation_omega3(o3):
    assert table(oracle_modality(lem_container(o3))) == (0, 2, 2)


@pytest.mark.parametrize("name", SMALL + ("chain4", "diamond", "anti4"))
def test_lem_gives_double_negation_everywhere(name):
    f = make_frame(name)
    assert oracle_modality(lem_container(f)) == canonical_nuclei(f, "double_negation")


@pytest.mark.parametrize("name", ("point", "chain2"))
def test_two_routes_agree_exhaustively_one_and_two_shapes(name):
    f = make_frame(name)
    stages = [(e, p) for e in f.all_elements() for p in f.all_elements()
              if f.leq_table[p.index, e.index]]
    for e1, p1 in stages:
        c1 = IndexedPropContainer(f, {"a0": p1}, {"a0": e1})
        assert oracle_modality(c1) == oracle_modality_bruteforce(c1)
        for e2, p2 in stages:
            c2 = IndexedPropContainer(
                f, {"a0": p1, "a1": p2}, {"a0": e1, "a1": e2}
            )
            assert oracle_modality(c2) == oracle_modality_bruteforce(c2)


@pytest.mark.parametrize("name", SMALL)
def test_two_routes_agree_on_random_containers(name):
    f = make_frame(name)
    rng = random.Random(f"routes:{name}")
    for _ in range(60):
        c = random_container(f, rng)
        assert oracle_modality(c) == oracle_modality_bruteforce(c)


@pytest.mark.parametrize("name", SMALL)
def test_modalities_validate_including_meet_preservation(name):
    f = make_frame(name)
    rng = random.Random(f"laws:{name}")
    for _ in range(30):
        j = oracle_modality(random_container(f, rng))
        assert validate_nucleus(f, j.table).valid


def test_forces_examples(o3):
    top_n = canonical_nuclei(o3, "top")
    ident = canonical_nuclei(o3, "identity")
    dn = canonical_nuclei(o3, "double_negation")
    lem = lem_container(o3)
    assert forces(top_n, lem)
    assert forces(dn, lem)
    assert not forces(ident, lem)
    # identity forces exactly the containers with E(a) <= P(a)
    for c in all_single_shape_containers(o3):
        assert forces(ident, c) == bool(o3.leq_table[c.ext, c.prd].all())


def test_pred_of_identity_omega2(o2):
    c = pred_of_nucleus(canonical_nuclei(o2, "identity"))
    for el in o2.all_elements():
        name = f"{{{el.key}}}"
        assert shape_values(c, name) == (el, el)


def test_pred_of_constant_top_omega2(o2):
    c = pred_of_nucleus(canonical_nuclei(o2, "top"))
    for el in o2.all_elements():
        name = f"{{{el.key}}}"
        assert shape_values(c, name) == (o2.top, el)


def test_pred_of_closed_at_m(o3):
    closed = np.array([1, 1, 2], dtype=np.int32)
    assert validate_nucleus(o3, closed).valid
    c = pred_of_nucleus(Nucleus(o3, closed))
    m = o3.element(["p"])
    assert shape_values(c, "{}") == (m, o3.bot)
    assert shape_values(c, "{p}") == (m, m)
    assert shape_values(c, "{p,q}") == (o3.top, o3.top)


@pytest.mark.parametrize("name", SMALL)
def test_retraction_on_all_nuclei(name):
    f = make_frame(name)
    for j in enumerate_nuclei(f):
        assert oracle_modality(pred_of_nucleus(j)) == j


def test_instance_reducible_reflexive(o3):
    for c in all_single_shape_containers(o3):
        assert instance_reducible(c, c)


def test_everything_reduces_to_counterexample(o3):
    cx = counterexample_container(o3)
    for c in all_single_shape_containers(o3):
        assert instance_reducible(c, cx)


def test_empty_reduces_to_everything(o3):
    e = IndexedPropContainer(o3, {})
    for d in all_single_shape_containers(o3):
        assert instance_reducible(e, d)


def test_instance_reducible_as_the_element_route_on_singles():
    f = make_frame("diamond")
    singles = all_single_shape_containers(f)
    for c in singles:
        for d in singles:
            assert instance_reducible(c, d) == element_instance_reducible(c, d)


def test_instance_reducible_as_the_element_route_on_random_pairs():
    f = make_frame("anti4")
    rng = random.Random("reducible:anti4")
    verdicts = set()
    for _ in range(200):
        c, d = random_container(f, rng), random_container(f, rng)
        verdict = instance_reducible(c, d)
        assert verdict == element_instance_reducible(c, d)
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", SMALL)
def test_prenucleus_below_modality(name):
    f = make_frame(name)
    rng = random.Random(f"below:{name}")
    for _ in range(30):
        c = random_container(f, rng)
        pre = instance_prenuclei(f, [c])[0]
        om = oracle_modality(c)
        assert bool(f.leq_table[pre, om.table].all())


@pytest.mark.parametrize("name", SMALL)
def test_modality_below_open_nucleus_of_full_axiom(name):
    # For globally-defined nonempty containers the induced modality sits
    # below the open nucleus at the meet of all predicate values.
    f = make_frame(name)
    rng = random.Random(f"open:{name}")
    for _ in range(30):
        k = rng.randint(1, 3)
        pred = {f"a{i}": f.el(rng.randrange(len(f))) for i in range(k)}
        c = IndexedPropContainer(f, pred)
        p = f.top_index
        for x in pred.values():
            p = f.meet_table[p, x.index]
        om = oracle_modality(c)
        op = canonical_nuclei(f, "open", f.el(int(p)))
        assert bool(f.leq_table[om.table, op.table].all())


def referee_frames():
    yield from (make_frame(name) for name in SMALL + ("anti4", "diamond"))
    yield pairs_frame(4)


@pytest.mark.parametrize("cells", (None, 1))
def test_query_table_matches_per_shape_fold(monkeypatch, cells):
    rng = random.Random("query")
    for f in referee_frames():
        if cells is not None:
            # one shape row per block
            monkeypatch.setattr(frames, "BLOCK_CELLS", cells * len(f))
        cs = [random_container(f, rng) for _ in range(10)]
        cs += [IndexedPropContainer(f, {}), lem_container(f), container_sum(cs)]
        for c in cs:
            got = instance_prenuclei(f, [c])[0]
            want = per_shape_query_table(f, c.ext, c.prd)
            assert got.dtype == want.dtype and (got == want).all()


def assert_container_is(c, pred, extent):
    """Shapes in the order ``pred`` lists them, with ext and prd int32 arrays
    aligned to them."""
    assert c.shapes == tuple(pred)
    assert c.ext.dtype == c.prd.dtype == np.int32
    assert [c.frame.el(int(e)) for e in c.ext] == [extent[a] for a in c.shapes]
    assert [c.frame.el(int(p)) for p in c.prd] == [pred[a] for a in c.shapes]


def test_pred_of_nucleus_matches_dict_referee():
    for f in referee_frames():
        if len(f) <= 16:
            js = list(enumerate_nuclei(f))
        else:
            js = [canonical_nuclei(f, kind, f.el(p))
                  for kind in ("open", "closed") for p in (0, 7, len(f) - 2)]
        for j in js:
            assert_container_is(pred_of_nucleus(j), *dict_pred_of_nucleus(j))


def test_container_sum_keeps_component_order(o3):
    # Component 10 comes after 9, though it sorts between 1 and 2 by name.
    rng = random.Random("sum")
    cs = [random_container(o3, rng) for _ in range(12)]
    pred, extent = {}, {}
    for i, c in enumerate(cs):
        for a in c.shapes:
            extent[f"{i}:{a}"], pred[f"{i}:{a}"] = shape_values(c, a)
    assert_container_is(container_sum(cs), pred, extent)


def _arrays(c):
    return c.shapes, c.ext.tolist(), c.prd.tolist()


def test_batch_judge_matches_forced_by_row_by_row():
    # an empty, a single-shape and a 16-shape stable-query container, drawn
    # containers, and the stable-query rows of every nucleus of anti4
    frame = make_frame("anti4")
    rng = random.Random("batch judge")
    nuclei = enumerate_nuclei(frame)
    cs = [IndexedPropContainer(frame, {}), all_single_shape_containers(frame)[7],
          pred_of_nucleus(nuclei[3])]
    cs += [random_container(frame, rng) for _ in range(20)]
    stack = np.array([j.table for j in nuclei])
    batch = ContainerBatch.concat(frame, [ContainerBatch.of(frame, cs),
                                          stable_query_batch(frame, stack)])
    rows = list(batch)
    assert [len(c) for c in rows[:3]] == [0, 1, 16]
    assert [_arrays(c) for c in rows] == [
        _arrays(c) for c in cs + [pred_of_nucleus(j) for j in nuclei]]
    assert _arrays(batch[-1]) == _arrays(rows[-1])
    pool = list(stack) + [rng.choices(range(len(frame)), k=len(frame)) for _ in range(8)]
    verdicts = set()
    for _ in range(40):
        tables = np.array([pool[rng.randrange(len(pool))] for _ in rows], dtype=np.int32)
        want = [forced_by(c, t) for c, t in zip(rows, tables)]
        assert batch.forced_by(tables).tolist() == want
        verdicts.update(enumerate(want))
    assert all((i, v) in verdicts for i in range(1, 3) for v in (False, True))
    assert (0, False) not in verdicts  # an empty container is always forced
    picks = [2, 0, 2, 5, len(batch) - 1]
    assert [_arrays(c) for c in batch.take(picks)] == [_arrays(rows[i]) for i in picks]
    with pytest.raises(FrameMismatch):
        ContainerBatch.of(make_frame("chain2"), batch)
