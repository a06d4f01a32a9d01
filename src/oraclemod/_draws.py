"""Integer draws that reproduce ``random.Random`` draw for draw.

``Random.choice``, ``randint`` and ``randrange(n)`` all reduce to
``Random._randbelow(n)``: draw ``n.bit_length()`` bits with
``getrandbits`` and draw again while the result is at least n. The
samplers of ``trees`` and ``theorems`` call ``randbelow`` instead, which
makes the same ``getrandbits`` calls through the public method without the
frames of ``choice``, ``randint``, ``randrange`` and ``_randbelow``, so a
seed names the same cases either way.
"""

from __future__ import annotations

import random


def randbelow(rng: random.Random, n: int) -> int:
    """A draw from range(n), n >= 1: ``rng.randrange(n)``, ``rng.randint(0,
    n - 1)`` and the index that ``rng.choice`` takes from a sequence of
    length n. Like them it draws bits even when n is 1."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r
