"""``_draws.randbelow`` against the ``random.Random`` methods it replaces.

The tree suites and the theorem samplers draw through ``randbelow``, and
their reports are pinned by seed, so it has to make the very draws of
``randrange(n)``, ``randint(0, n - 1)`` and ``choice``, and leave the
generator in the same state, on every CPython the package supports.
"""

import random

import pytest

from oraclemod._draws import randbelow

# 1 still draws; powers of two and their neighbours bound the redraw loop
SIZES = (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 81, 243, 1000, 2**31 - 1, 2**31,
         2**32 + 1, 2**40 + 3)


def _stream(seed: str):
    """A seeded sequence of sizes to draw from."""
    rng = random.Random(f"sizes:{seed}")
    return [rng.choice(SIZES) for _ in range(400)]


@pytest.mark.parametrize("method", ("randrange", "randint", "choice"))
@pytest.mark.parametrize("seed", ("0", "1", "tree", "verify"))
def test_randbelow_draws_as_random(method, seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    draw = {
        "randrange": lambda n: theirs.randrange(n),
        "randint": lambda n: theirs.randint(0, n - 1),
        "choice": lambda n: theirs.choice(range(n)),
    }[method]
    for i, n in enumerate(_stream(seed)):
        assert randbelow(ours, n) == draw(n), (i, n)
        if i % 3 == 0:
            assert ours.random() == theirs.random()
    assert ours.getstate() == theirs.getstate()

