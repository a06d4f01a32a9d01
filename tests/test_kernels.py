import random

import numpy as np
import pytest

from oraclemod import _kernels, frames
from oraclemod.containers import container_sum, empty_container, pred_of_nucleus
from oraclemod.nuclei import canonical_nuclei
from oraclemod.theorems import random_container

from catalog import SMALL, make_frame, pairs_frame


def both_routes(frame, c):
    """The Kleene table and the prefixed-point table of one container."""
    kle = _kernels.kleene_table(
        frame.meet_table, frame.join_table, frame.implies_table,
        c.ext, c.prd, frame.bot_index,
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
    kle, bru = both_routes(frame, empty_container(frame))
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
