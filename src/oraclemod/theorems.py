"""Batch referees for the order facts connecting containers and nuclei.

Each referee enumerates instances when the space fits the budget and
otherwise draws a seeded sample, so reports are reproducible from
(frame, suite, seed) alone. Modalities are computed by Kleene iteration,
the paper's construction, and checked against the nuclei that
``nucleus_stack`` lists in closed form, as one (N, n) array, so no referee
checks the closed form against itself. A run has two phases: every
referee draws all its containers, from its own rng, as one
``ContainerBatch``, and then the batches of all referees are concatenated
once and go through one shared call to ``oracle_modalities_kleene``,
which validates every Kleene table and also hands back the single-query
maps; each referee then judges its own slice of the two stacks.
``_least_above`` checks "least nucleus above" for ``least-above-instance``
(above the single-query maps) and ``sup`` (above the join of two
modalities). The referees draw their containers straight into index lists
(``_Draws``), each integer through ``_draws.randbelow`` (the draws of
``random.Random``'s ``choice``, ``randint`` and ``randrange``), never from
frame elements; relabelings and sums are index operations on the drawn
lists, the single-shape containers come from one ``np.nonzero`` of the
order, and ``retraction`` builds the stable-query containers of the whole
stack with ``stable_query_batch``. Forcing is judged for a whole batch at
once (``ContainerBatch.forced_by``), and a row is built as a container
only to be named in a failure; ``instance-vs-forcing`` alone hands every
pair to its elementwise route, ``instance_reducible``, as two containers.
A run enumerates the nuclei at most once; if the enumeration is refused,
each referee that needs it reports "refused" and the others still run.
"""

from __future__ import annotations

import functools
import random
import time
from collections.abc import Generator
from dataclasses import dataclass, field

import numpy as np

from . import frames
from ._draws import randbelow
from .containers import (
    ContainerBatch,
    instance_reducible,
    oracle_modalities_kleene,
    stable_query_batch,
    sum_shapes,
)
from .errors import InternalInvariantViolation, SizeLimitExceeded, UnknownLabel
from .frames import Frame
from .nuclei import Nucleus, nucleus_stack


@dataclass
class Budget:
    seed: int = 0
    cases: int = 500
    # Extra (possibly bogus) nuclei injected into the retraction check.
    extra_nuclei: tuple[Nucleus, ...] = ()


@dataclass
class TheoremReport:
    theorem: str
    checked: int
    failures: list[str] = field(default_factory=list)
    seed: int = 0
    elapsed_ms: float = 0.0
    coverage: str = "exhaustive"
    # The size-limit message when the referee's enumeration was refused; its
    # report then has coverage "refused" and nothing checked.
    refusal: str | None = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self, include_timing: bool = True) -> dict:
        return {
            "theorem": self.theorem,
            "checked": self.checked,
            "failures": list(self.failures),
            "seed": self.seed,
            "elapsed_ms": round(self.elapsed_ms, 3) if include_timing else 0,
            "coverage": self.coverage,
        }


# -- instance generators ------------------------------------------------


def _single_shape_count(frame: Frame) -> int:
    """``len(_single_shape_batch(frame))``, without building it."""
    return int(frame.leq_table.sum())


@functools.cache
def _names(prefix: str, k: int) -> tuple[str, ...]:
    """The shape names prefix0 ... prefix(k - 1), one tuple per (prefix, k)."""
    return tuple(f"{prefix}{i}" for i in range(k))


@functools.cache
def _sum_names(first: tuple[str, ...], second: tuple[str, ...]) -> tuple[str, ...]:
    """``sum_shapes`` of two containers' names, one tuple per pair."""
    return sum_shapes((first, second))


def _single_shape_batch(frame: Frame) -> ContainerBatch:
    """Every single-shape container, one per pair P(a) <= E(a), by extent
    and then predicate."""
    ext, prd = np.nonzero(frame.leq_table.T)
    return ContainerBatch(frame, ext, prd, np.arange(len(ext) + 1), [_names("a", 1)] * len(ext))


class _Draws:
    """The containers of one referee, drawn as index lists from its rng and
    laid out as the rows of one ``ContainerBatch``."""

    def __init__(self, frame: Frame, rng: random.Random):
        self.frame, self.rng = frame, rng
        self.n, self.top = len(frame), frame.top_index
        self.ptr, self.idx = frame.below
        self.ext: list[int] = []
        self.prd: list[int] = []
        self.offsets, self.names = [0], []

    def container(self) -> tuple[list[int], list[int]]:
        """Draw one random container, add it as a row with shapes a0, a1,
        ..., and return its extents and predicates: one to three shapes,
        each existing at top or at a uniform element, with equal odds, and
        asking for a uniform element below that."""
        rng, ptr, idx = self.rng, self.ptr, self.idx
        ext, prd = [], []
        for _ in range(1 + randbelow(rng, 3)):
            e = self.top if rng.random() < 0.5 else randbelow(rng, self.n)
            lo = ptr[e]
            ext.append(e)
            prd.append(idx[lo + randbelow(rng, ptr[e + 1] - lo)])
        self.add(ext, prd, _names("a", len(ext)))
        return ext, prd

    def surjection(self, k: int) -> list[int]:
        """The shape each shape of a random relabeling reads: a shuffled
        surjection onto range(k) from k to k + 2 shapes."""
        rng = self.rng
        targets = list(range(k))
        targets += [randbelow(rng, k) for _ in range(randbelow(rng, 3))]
        rng.shuffle(targets)
        return targets

    def add(self, ext: list[int], prd: list[int], names: tuple[str, ...]) -> None:
        """Append one row."""
        self.ext += ext
        self.prd += prd
        self.offsets.append(len(self.ext))
        self.names.append(names)

    def containers(self, m: int) -> ContainerBatch:
        """Draw m random containers and return the batch."""
        for _ in range(m):
            self.container()
        return self.batch()

    def batch(self) -> ContainerBatch:
        return ContainerBatch(self.frame, self.ext, self.prd, self.offsets, self.names)


def _containers_for(frame: Frame, budget: Budget, rng: random.Random):
    n_singles = _single_shape_count(frame)
    if n_singles <= budget.cases:
        extra = _Draws(frame, rng).containers(budget.cases - n_singles)
        singles = _single_shape_batch(frame)
        return ContainerBatch.concat(frame, [singles, extra]), "exhaustive-singles-plus-sampled"
    return _Draws(frame, rng).containers(budget.cases), f"sampled {budget.cases}"


# -- individual referees --------------------------------------------------
#
# Each referee takes the frame, the budget, its own seeded rng and
# ``enumerated``, a call returning the frame's nuclei as the (N, n) stack of
# ``nucleus_stack``, built on the first call in a run only. Every referee
# is a generator: it draws all its containers and yields them as one
# ``ContainerBatch``, and receives their Kleene tables and their
# single-query maps as two (m, n) stacks, its slice of the run's one shared
# pass. It judges in bulk and builds a row as a container only to name it
# in a failure.


def _check_retraction(frame: Frame, budget: Budget, rng: random.Random, enumerated):
    tables = enumerated()
    if budget.extra_nuclei:
        tables = np.concatenate([tables, [j.table for j in budget.extra_nuclei]])
    modalities, _ = yield stable_query_batch(frame, tables)
    failures = [
        f"nucleus {list(map(int, tables[i]))} came back as {list(map(int, modalities[i]))}"
        for i in np.flatnonzero((modalities != tables).any(axis=1))
    ]
    return len(tables), failures, "exhaustive"


def _check_forcing_iff(frame: Frame, budget: Budget, rng: random.Random, enumerated):
    # pair i checks nucleus js[i] against row ks[i] of cs, the row i of
    # pairs, so each single-shape container is listed once
    nuclei = enumerated()
    if len(nuclei) * _single_shape_count(frame) <= budget.cases:
        cs = _single_shape_batch(frame)
        js = np.repeat(np.arange(len(nuclei)), len(cs))
        ks = np.tile(np.arange(len(cs)), len(nuclei))
        pairs = cs.take(ks)
        coverage = "exhaustive-singles"
    else:
        draws, js = _Draws(frame, rng), []
        for _ in range(budget.cases):
            js.append(randbelow(rng, len(nuclei)))
            draws.container()
        cs = pairs = draws.batch()
        ks = np.arange(budget.cases)
        coverage = f"sampled {budget.cases}"
    modalities, _ = yield cs
    tables = nuclei[js]
    lhs = pairs.forced_by(tables)
    rhs = frame.leq_table[modalities[ks], tables].all(axis=1)
    failures = [
        f"forces={bool(lhs[i])} but order={bool(rhs[i])} "
        f"for j={list(map(int, tables[i]))}, c={cs[ks[i]]!r}"
        for i in np.flatnonzero(lhs != rhs)
    ]
    return len(ks), failures, coverage


def _check_oracle_leq(frame: Frame, budget: Budget, rng: random.Random, enumerated):
    # pair i checks row a[i] of cs against row b[i], so each single-shape
    # container is listed once
    n_singles = _single_shape_count(frame)
    if n_singles ** 2 <= budget.cases:
        cs = _single_shape_batch(frame)
        a = np.repeat(np.arange(n_singles), n_singles)
        b = np.tile(np.arange(n_singles), n_singles)
        coverage = "exhaustive-singles"
    else:
        cs = _Draws(frame, rng).containers(2 * budget.cases)
        a = np.arange(0, 2 * budget.cases, 2)
        b = a + 1
        coverage = f"sampled {budget.cases}"
    modalities, _ = yield cs
    od = modalities[b]
    lhs = frame.leq_table[modalities[a], od].all(axis=1)
    rhs = cs.take(a).forced_by(od)
    failures = [
        f"order={bool(lhs[i])} but forcing={bool(rhs[i])} for c={cs[a[i]]!r}, d={cs[b[i]]!r}"
        for i in np.flatnonzero(lhs != rhs)
    ]
    return len(a), failures, coverage


def _least_above(frame: Frame, nuclei: np.ndarray, lowers: np.ndarray) -> np.ndarray:
    """For each row of ``lowers``, the pointwise meet of the ``nuclei`` rows
    above it, which is the least of them unless it is none of the nuclei:
    then it raises ``InternalInvariantViolation``."""
    least = np.empty_like(lowers)
    for block in frames.blocks(len(lowers), nuclei.size):
        above = frame.leq_table[lowers[block, None, :], nuclei[None, :, :]].all(axis=-1)
        # (nuclei, rows, n): each nucleus above the row, else top, the unit of meet
        stack = np.where(above.T[:, :, None], nuclei[:, None, :], frame.top_index)
        meet = frames.fold(frame.meet_table, stack)
        if not (meet[:, None, :] == nuclei[None, :, :]).all(axis=-1).any(axis=1).all():
            raise InternalInvariantViolation("pointwise meet of dominators is not one")
        least[block] = meet
    return least


def _check_least_above(frame: Frame, budget: Budget, rng: random.Random, enumerated):
    # The Kleene modality is a validated nucleus above its single-query map,
    # so it is the least nucleus above that map iff it equals their meet.
    nuclei = enumerated()
    cs, coverage = _containers_for(frame, budget, rng)
    modalities, pre = yield cs
    above = frame.leq_table[pre, modalities].all(axis=1)
    least = (_least_above(frame, nuclei, pre) == modalities).all(axis=1)
    failures = [
        f"modality not above single-query map for {cs[i]!r}" if not above[i]
        else f"modality not least above single-query map for {cs[i]!r}"
        for i in np.flatnonzero(~(above & least))
    ]
    return len(cs), failures, coverage


def _check_sup(frame: Frame, budget: Budget, rng: random.Random, enumerated):
    # Referee: the sup of two modalities is taken as the least of all
    # enumerated nuclei above both, that is above their pointwise join,
    # independently of the closed form in sup_nuclei. Pair i is rows 3i
    # and 3i + 1, two containers, and 3i + 2, their sum.
    nuclei = enumerated()
    n_pairs = budget.cases
    draws = _Draws(frame, rng)
    for _ in range(n_pairs):
        (e1, p1), (e2, p2) = draws.container(), draws.container()
        draws.add(e1 + e2, p1 + p2, _sum_names(_names("a", len(e1)), _names("a", len(e2))))
    cs = draws.batch()
    modalities, _ = yield cs
    sums = modalities[2::3]
    sups = _least_above(frame, nuclei, frame.join_table[modalities[0::3], modalities[1::3]])
    failures = [
        f"sum modality {list(map(int, sums[i]))} != sup {list(map(int, sups[i]))} "
        f"for {cs[3 * i]!r}, {cs[3 * i + 1]!r}"
        for i in np.flatnonzero((sums != sups).any(axis=1))
    ]
    return n_pairs, failures, f"sampled {n_pairs}"


def _check_surjection(frame: Frame, budget: Budget, rng: random.Random, enumerated):
    # pair i is row 2i, a container, and row 2i + 1, its relabeling
    draws = _Draws(frame, rng)
    for _ in range(budget.cases):
        ext, prd = draws.container()
        targets = draws.surjection(len(ext))
        draws.add([ext[t] for t in targets], [prd[t] for t in targets],
                  _names("b", len(targets)))
    cs = draws.batch()
    modalities, _ = yield cs
    failures = [
        f"relabeling changed the modality for {cs[2 * i]!r} -> {cs[2 * i + 1]!r}"
        for i in np.flatnonzero((modalities[0::2] != modalities[1::2]).any(axis=1))
    ]
    return budget.cases, failures, f"sampled {budget.cases}"


def _check_instance_vs_forcing(frame: Frame, budget: Budget, rng: random.Random,
                               enumerated):
    # Cross-checks instance_reducible, the elementwise route, which takes
    # one pair of containers at a time, against the tabulated single-query
    # map: E_c(a) <= i_d(P_c(a)) for every shape a.
    cs, coverage = _containers_for(frame, budget, rng)
    ds = _Draws(frame, rng).containers(len(cs))
    _, maps = yield ds
    lhs = np.array([instance_reducible(c, d) for c, d in zip(cs, ds)], dtype=bool)
    rhs = cs.forced_by(maps)
    failures = [
        f"reducibility {bool(lhs[i])} != single-query forcing {bool(rhs[i])} "
        f"for c={cs[i]!r}, d={ds[i]!r}"
        for i in np.flatnonzero(lhs != rhs)
    ]
    return len(cs), failures, coverage


_CHECKERS = {
    "retraction": _check_retraction,
    "forcing-iff": _check_forcing_iff,
    "oracle-leq": _check_oracle_leq,
    "least-above-instance": _check_least_above,
    "sup": _check_sup,
    "surjection": _check_surjection,
    "instance-vs-forcing": _check_instance_vs_forcing,
}
THEOREM_IDS = tuple(_CHECKERS)


def _judge(referee: Generator, tables: np.ndarray, maps: np.ndarray):
    """Hand a referee its slice of the shared pass and return its result."""
    try:
        referee.send((tables, maps))
    except StopIteration as done:
        return done.value
    raise InternalInvariantViolation("a referee asked for a second Kleene pass")


def verify_theorems(
    frame: Frame,
    suite: tuple[str, ...] | None = None,
    budget: Budget | None = None,
) -> list[TheoremReport]:
    """Run the requested referees and return one report per theorem id.

    The run has two phases: every referee draws its containers, then all of
    them go through one shared Kleene pass and each referee judges its own
    slice. A referee's ``elapsed_ms`` is its draw and judge time plus its
    share of the shared pass in proportion to its containers.

    A referee whose enumeration of nuclei is refused reports nothing checked
    with coverage "refused"; the enumeration is attempted once per run and
    the other referees still run."""
    budget = budget or Budget()
    ids = THEOREM_IDS if suite is None else tuple(suite)

    @functools.cache
    def attempt():
        # Looked up at call time, so a wrapped nucleus_stack is the one called.
        try:
            return nucleus_stack(frame)
        except SizeLimitExceeded as e:
            return e

    def enumerated():
        nuclei = attempt()
        if isinstance(nuclei, SizeLimitExceeded):
            raise nuclei
        return nuclei

    reports, drawn = [], []  # drawn: (report, referee generator, its batch)
    for name in ids:
        if name not in _CHECKERS:
            raise UnknownLabel(f"unknown theorem id {name!r}")
        rng = random.Random(f"{budget.seed}:{name}")
        report = TheoremReport(theorem=name, checked=0, seed=budget.seed)
        t0 = time.perf_counter()
        try:
            referee = _CHECKERS[name](frame, budget, rng, enumerated)
            drawn.append((report, referee, ContainerBatch.of(frame, next(referee))))
        except SizeLimitExceeded as e:
            report.coverage, report.refusal = "refused", str(e)
        report.elapsed_ms = (time.perf_counter() - t0) * 1000.0
        reports.append(report)

    if drawn:
        # the one Kleene pass of the run, over every referee's containers
        everything = ContainerBatch.concat(frame, [cs for _, _, cs in drawn])
        t0 = time.perf_counter()
        maps = np.empty((len(everything), len(frame)), dtype=np.int32)
        tables = oracle_modalities_kleene(frame, everything, maps)
        per_row = (time.perf_counter() - t0) * 1000.0 / max(1, len(everything))
        lo = 0
        for report, referee, cs in drawn:
            hi = lo + len(cs)
            t0 = time.perf_counter()
            report.checked, report.failures, report.coverage = _judge(
                referee, tables[lo:hi], maps[lo:hi])
            report.elapsed_ms += (time.perf_counter() - t0) * 1000.0 + per_row * len(cs)
            lo = hi
    return reports
