import random

import numpy as np
import pytest

from oraclemod import _kernels, frames
from oraclemod.containers import (
    IndexedPropContainer,
    container_sum,
    oracle_modalities_kleene,
    pred_of_nucleus,
)
from oraclemod.errors import FrameMismatch, InternalInvariantViolation
from oraclemod.nuclei import enumerate_nuclei, law_scan

from catalog import (
    POSETS,
    SMALL,
    canonical_nuclei,
    chain_frame,
    instance_prenuclei,
    make_frame,
    pairs_frame,
    random_container,
)
from oracles import per_shape_prefixed_mask


def both_routes(frame, c):
    """The Kleene table and the prefixed-point table of one container."""
    (kle,) = _kernels.kleene_table(
        frame.meet_table, frame.join_table, frame.implies_table,
        c.ext, c.prd, [len(c)], frame.bot_index,
    )
    bru = _kernels.bruteforce_table(
        frame.leq_table, frame.meet_table, frame.implies_table,
        c.ext, c.prd, frame.top_index,
    )
    return kle, bru


@pytest.mark.parametrize("name", SMALL + ("anti4", "diamond"))
def test_both_paths_give_identical_tables(name):
    frame = make_frame(name)
    rng = random.Random(f"kernels:{name}")
    for _ in range(25):
        kle, bru = both_routes(frame, random_container(frame, rng))
        assert (kle == bru).all()


@pytest.mark.parametrize("copies", (4, 5))
def test_stable_queries_of_closed_and_open_nuclei(copies):
    # one shape per carrier element, the retraction's containers
    frame = pairs_frame(copies)
    rng = random.Random(f"stable:{copies}")
    for kind in ("closed", "open"):
        for p in rng.sample(range(len(frame)), 3):
            j = canonical_nuclei(frame, kind, frame.el(p))
            kle, bru = both_routes(frame, pred_of_nucleus(j))
            assert (kle == bru).all() and (kle == j.table).all()


@pytest.mark.parametrize("name", ("empty", "chain2", "anti4"))
def test_empty_container_routes_agree(name):
    frame = make_frame(name)
    kle, bru = both_routes(frame, IndexedPropContainer(frame, {}))
    assert (kle == np.arange(len(frame))).all() and (bru == kle).all()


def test_sum_with_one_shape_row_per_block(monkeypatch):
    frame = pairs_frame(4)
    rng = random.Random("blocks")
    parts = [pred_of_nucleus(canonical_nuclei(frame, "closed", frame.el(5)))]
    parts += [random_container(frame, rng) for _ in range(6)]
    c = container_sum(parts)
    whole, _ = both_routes(frame, c)
    monkeypatch.setattr(frames, "BLOCK_CELLS", len(frame))
    kle, bru = both_routes(frame, c)
    assert (kle == bru).all() and (kle == whole).all()


def prefixed(frame, c):
    return _kernels.prefixed_mask(frame.leq_table, frame.implies_table, c.ext, c.prd)


@pytest.mark.parametrize("name", sorted(POSETS))
def test_prefixed_mask_equals_per_shape_referee(name):
    frame = make_frame(name)
    rng = random.Random(f"prefixed:{name}")
    cs = [random_container(frame, rng) for _ in range(20)]
    if len(POSETS[name][0]) <= 4:
        cs += [pred_of_nucleus(j) for j in enumerate_nuclei(frame)]
    # the empty container, and shapes with E <= P: every point is prefixed
    trivial = [IndexedPropContainer(frame, {})]
    for k in (1, 2, 3):
        ext = [rng.randrange(len(frame)) for _ in range(k)]
        prd = [frame.join_table[e, rng.randrange(len(frame))] for e in ext]
        trivial.append(IndexedPropContainer.of_indices(
            frame, [f"a{i}" for i in range(k)], ext, prd))
    for c in cs + trivial:
        got, want = prefixed(frame, c), per_shape_prefixed_mask(frame, c.ext, c.prd)
        assert got.dtype == want.dtype and (got == want).all(), c
    assert all(prefixed(frame, c).all() for c in trivial)


@pytest.mark.parametrize("cells", (1, 81 * 20))
@pytest.mark.parametrize("frame, point", ((pairs_frame(4), 1), (chain_frame(80), 27)),
                         ids=("pairs", "chain"))
def test_prefixed_kernels_across_block_boundaries(monkeypatch, frame, point, cells):
    # 81 shapes and 54 prefixed points: one per block, or blocks of 20 with
    # a shorter last one. A shape or a point that the others imply changes
    # nothing when its block is skipped. Here only the shape of bot is
    # needed, so it comes first and, reversed, last; on the chain every
    # prefixed point but top is needed.
    c = pred_of_nucleus(canonical_nuclei(frame, "closed", frame.el(point)))
    rev = IndexedPropContainer.of_indices(frame, c.shapes[::-1], c.ext[::-1], c.prd[::-1])
    want = [(prefixed(frame, d), *both_routes(frame, d)) for d in (c, rev)]
    real, taken = frames.blocks, []

    def counted(count, width):
        slices = real(count, width)
        taken.append(len(slices))
        return slices

    monkeypatch.setattr(frames, "BLOCK_CELLS", cells)
    monkeypatch.setattr(frames, "blocks", counted)
    per = max(1, cells // len(frame))
    for d, (mask, kle, bru) in zip((c, rev), want):
        assert (kle == bru).all() and mask.sum() == 54
        taken.clear()
        assert (prefixed(frame, d) == mask).all()
        assert taken == [-(-81 // per)]
        taken.clear()
        got = _kernels.bruteforce_table(frame.leq_table, frame.meet_table,
                                        frame.implies_table, d.ext, d.prd, frame.top_index)
        assert got.dtype == bru.dtype and (got == bru).all() and (got == kle).all()
        assert taken == [-(-81 // per), -(-54 // per)] and min(taken) > 1


def batch_args(frame, cs):
    """The positional arguments of the batch kernels for a list of containers."""
    return (frame.meet_table, frame.join_table, frame.implies_table,
            np.concatenate([c.ext for c in cs] + [np.zeros(0, dtype=np.int32)]),
            np.concatenate([c.prd for c in cs] + [np.zeros(0, dtype=np.int32)]),
            [len(c) for c in cs], frame.bot_index)


def kleene_tables(frame, cs):
    """The batched Kleene tables of a list of containers."""
    return _kernels.kleene_table(*batch_args(frame, cs))


def kleene_rounds(frame, c):
    """Rounds of t := s \\/ q(t) before the table of one container is stable."""
    q, join = instance_prenuclei(frame, [c])[0], frame.join_table
    starts = np.arange(len(frame))
    t, rounds = starts, 0
    while True:
        nxt = join[starts, q[t]]
        if (nxt == t).all():
            return rounds
        t, rounds = nxt, rounds + 1


def container_mix(frame, rng):
    """Random containers, two empty ones and the stable-query containers of
    two nuclei, shuffled."""
    cs = [random_container(frame, rng) for _ in range(10)]
    cs += [IndexedPropContainer(frame, {}), IndexedPropContainer(frame, {})]
    ns = enumerate_nuclei(frame)
    cs += [pred_of_nucleus(ns[0]), pred_of_nucleus(ns[len(ns) // 2])]
    rng.shuffle(cs)
    return cs


@pytest.mark.parametrize("one_row_blocks", (False, True))
@pytest.mark.parametrize("name", ("chain2", "chain7", "diamond", "anti4"))
def test_batched_kleene_equals_batches_of_one(monkeypatch, name, one_row_blocks):
    frame = make_frame(name)
    if one_row_blocks:
        monkeypatch.setattr(frames, "BLOCK_CELLS", len(frame))
    rng = random.Random(f"batched:{name}")
    for _ in range(4):
        cs = container_mix(frame, rng)
        batch = kleene_tables(frame, cs)
        assert batch.shape == (len(cs), len(frame))
        for c, row in zip(cs, batch):
            kle, bru = both_routes(frame, c)
            assert (row == kle).all() and (row == bru).all(), c
    assert kleene_tables(frame, []).shape == (0, len(frame))


def test_container_mix_converges_in_different_rounds():
    frame = make_frame("chain7")
    cs = container_mix(frame, random.Random("batched:chain7"))
    assert len({kleene_rounds(frame, c) for c in cs}) >= 3


def test_batched_query_table_rows(monkeypatch):
    # on each frame, narrow containers beside the stable-query ones, one shape
    # per element, all on one grid as wide as the widest
    default = frames.BLOCK_CELLS
    for name in ("chain7", "anti4"):
        frame = make_frame(name)
        cs = container_mix(frame, random.Random(f"query:{name}"))
        cs += [pred_of_nucleus(j) for j in enumerate_nuclei(frame)[::4]]
        random.Random(name).shuffle(cs)
        args = batch_args(frame, cs)
        want = [instance_prenuclei(frame, [c])[0] for c in cs]
        for cells in (default, len(frame)):
            monkeypatch.setattr(frames, "BLOCK_CELLS", cells)
            # query_table's rows, and the maps kleene_table writes over -1s
            maps = np.full((len(cs), len(frame)), -1, dtype=np.int32)
            _kernels.kleene_table(*args, maps=maps)
            for got in (_kernels.query_table(*args), maps):
                assert all((row == w).all() for row, w in zip(got, want)), name


def test_non_inflationary_kleene_row_raises(monkeypatch):
    frame = make_frame("diamond")
    cs = [random_container(frame, random.Random(i)) for i in range(3)]
    real = _kernels.kleene_table
    broken_rows = []

    def top_to_bottom(*args):
        tables = real(*args)
        tables[1, frame.top_index] = frame.bot_index
        broken_rows.append(tables[1].copy())
        return tables

    monkeypatch.setattr(_kernels, "kleene_table", top_to_bottom)
    with pytest.raises(InternalInvariantViolation) as exc:
        oracle_modalities_kleene(frame, cs)
    names = law_scan(frame, broken_rows[0]).law_names()
    assert "inflationary" in names
    assert str(exc.value) == f"computed modality violates nucleus laws: {names}"


@pytest.mark.parametrize("batched", (instance_prenuclei, oracle_modalities_kleene))
def test_batch_on_another_frame_is_refused(batched):
    frame, other = make_frame("chain2"), make_frame("anti2")
    cs = [IndexedPropContainer(frame, {}), IndexedPropContainer(other, {})]
    with pytest.raises(FrameMismatch):
        batched(frame, cs)
    assert batched(frame, []).shape == (0, len(frame))
