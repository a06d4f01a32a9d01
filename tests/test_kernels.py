import random

import pytest

from oraclemod import _kernels
from oraclemod.theorems import random_container

from catalog import SMALL, make_frame


@pytest.mark.parametrize("name", SMALL + ("anti4", "diamond"))
def test_both_paths_give_identical_tables(name):
    frame = make_frame(name)
    rng = random.Random(f"kernels:{name}")
    for _ in range(25):
        c = random_container(frame, rng)
        kle = _kernels.kleene_table(
            frame.meet_table, frame.join_table, frame.implies_table, c.ext, c.prd
        )
        bru = _kernels.bruteforce_table(
            frame.leq_table, frame.meet_table, frame.implies_table,
            c.ext, c.prd, frame.top_index,
        )
        assert (kle == bru).all()
