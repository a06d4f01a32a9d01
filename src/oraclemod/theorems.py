"""Batch referees for the order facts connecting containers and nuclei.

Each referee enumerates instances when the space fits the budget and
otherwise draws a seeded sample, so reports are reproducible from
(frame, suite, seed) alone. Modalities are computed by Kleene iteration,
the paper's construction, and checked against the nuclei that
``nucleus_stack`` lists in closed form, as one (N, n) array, so no referee
checks the closed form against itself. A run has two phases: every
referee draws all its containers, from its own rng, and then the
containers of all referees go through one shared call to
``oracle_modalities_kleene``, which validates every Kleene table and also
hands back the single-query maps; each referee then judges its own slice
of the two stacks. ``_least_above`` checks "least nucleus above" for
``least-above-instance`` (above the single-query maps) and ``sup`` (above
the join of two modalities). The referees draw their containers as
carrier indices, each integer through ``_draws.randbelow`` (the draws of
``random.Random``'s ``choice``, ``randint`` and ``randrange``), and build
them with ``IndexedPropContainer.of_indices``, never from frame
elements; ``retraction`` builds the stable-query containers of the whole
stack with ``stable_query_containers``. A run
enumerates the nuclei at most once; if the enumeration is refused, each
referee that needs it reports "refused" and the others still run.
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
    IndexedPropContainer,
    container_sum,
    forced_by,
    instance_reducible,
    oracle_modalities_kleene,
    stable_query_containers,
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
    """``len(all_single_shape_containers(frame))``, without building them."""
    return int(frame.leq_table.sum())


def all_single_shape_containers(frame: Frame) -> list[IndexedPropContainer]:
    """Every single-shape container: one per pair P(a) <= E(a)."""
    return [IndexedPropContainer.of_indices(frame, ["a0"], [e], [p])
            for e, p in zip(*np.nonzero(frame.leq_table.T))]


def random_container(frame: Frame, rng: random.Random) -> IndexedPropContainer:
    k = 1 + randbelow(rng, 3)
    ext, prd = [], []
    for _ in range(k):
        e = frame.top_index if rng.random() < 0.5 else randbelow(rng, len(frame))
        ext.append(e)
        below = frame.below[e]
        prd.append(below[randbelow(rng, len(below))])
    return IndexedPropContainer.of_indices(frame, [f"a{i}" for i in range(k)], ext, prd)


def surjective_relabeling(
    c: IndexedPropContainer, rng: random.Random
) -> IndexedPropContainer:
    """Precompose a container with a random surjection onto its shapes."""
    k = len(c.shapes)
    m = k + randbelow(rng, 3)
    targets = list(range(k)) + [randbelow(rng, k) for _ in range(m - k)]
    rng.shuffle(targets)
    return IndexedPropContainer.of_indices(
        c.frame, [f"b{i}" for i in range(m)], c.ext[targets], c.prd[targets])


def _containers_for(frame: Frame, budget: Budget, rng: random.Random):
    n_singles = _single_shape_count(frame)
    if n_singles <= budget.cases:
        extra = [random_container(frame, rng) for _ in range(budget.cases - n_singles)]
        singles = all_single_shape_containers(frame)
        return singles + extra, "exhaustive-singles-plus-sampled"
    return (
        [random_container(frame, rng) for _ in range(budget.cases)],
        f"sampled {budget.cases}",
    )


# -- individual referees --------------------------------------------------
#
# Each referee takes the frame, the budget, its own seeded rng and
# ``enumerated``, a call returning the frame's nuclei as the (N, n) stack of
# ``nucleus_stack``, built on the first call in a run only. Every referee
# is a generator: it draws all its containers and yields them, and receives
# their Kleene tables and their single-query maps as two (m, n) stacks, its
# slice of the run's one shared pass.


def _check_retraction(frame: Frame, budget: Budget, rng: random.Random, enumerated):
    tables = enumerated()
    if budget.extra_nuclei:
        tables = np.concatenate([tables, [j.table for j in budget.extra_nuclei]])
    modalities, _ = yield stable_query_containers(frame, tables)
    failures = [
        f"nucleus {list(map(int, tables[i]))} came back as {list(map(int, modalities[i]))}"
        for i in np.flatnonzero((modalities != tables).any(axis=1))
    ]
    return len(tables), failures, "exhaustive"


def _check_forcing_iff(frame: Frame, budget: Budget, rng: random.Random, enumerated):
    # pairs index (nuclei, cs), so each single-shape container is listed once
    nuclei = enumerated()
    if len(nuclei) * _single_shape_count(frame) <= budget.cases:
        cs = all_single_shape_containers(frame)
        pairs = [(j, k) for j in range(len(nuclei)) for k in range(len(cs))]
        coverage = "exhaustive-singles"
    else:
        drawn = [(randbelow(rng, len(nuclei)), random_container(frame, rng))
                 for _ in range(budget.cases)]
        cs, pairs = [c for _, c in drawn], [(j, k) for k, (j, _) in enumerate(drawn)]
        coverage = f"sampled {budget.cases}"
    modalities, _ = yield cs
    failures = []
    for j, k in pairs:
        c, table = cs[k], nuclei[j]
        lhs = forced_by(c, table)
        rhs = bool(frame.leq_table[modalities[k], table].all())
        if lhs != rhs:
            failures.append(
                f"forces={lhs} but order={rhs} for j={list(map(int, table))}, c={c!r}"
            )
    return len(pairs), failures, coverage


def _check_oracle_leq(frame: Frame, budget: Budget, rng: random.Random, enumerated):
    # pairs index cs, so each single-shape container is listed once
    if _single_shape_count(frame) ** 2 <= budget.cases:
        cs = all_single_shape_containers(frame)
        pairs = [(a, b) for a in range(len(cs)) for b in range(len(cs))]
        coverage = "exhaustive-singles"
    else:
        cs = [random_container(frame, rng) for _ in range(2 * budget.cases)]
        pairs = [(a, a + 1) for a in range(0, len(cs), 2)]
        coverage = f"sampled {budget.cases}"
    modalities, _ = yield cs
    failures = []
    for a, b in pairs:
        c, d, od = cs[a], cs[b], modalities[b]
        lhs = bool(frame.leq_table[modalities[a], od].all())
        rhs = forced_by(c, od)
        if lhs != rhs:
            failures.append(f"order={lhs} but forcing={rhs} for c={c!r}, d={d!r}")
    return len(pairs), failures, coverage


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
    failures = []
    for c, is_above, is_least in zip(cs, above, least):
        if not is_above:
            failures.append(f"modality not above single-query map for {c!r}")
        elif not is_least:
            failures.append(f"modality not least above single-query map for {c!r}")
    return len(cs), failures, coverage


def _check_sup(frame: Frame, budget: Budget, rng: random.Random, enumerated):
    # Referee: the sup of two modalities is taken as the least of all
    # enumerated nuclei above both, that is above their pointwise join,
    # independently of the closed form in sup_nuclei.
    nuclei = enumerated()
    n_pairs = budget.cases
    pairs = [(random_container(frame, rng), random_container(frame, rng))
             for _ in range(n_pairs)]
    modalities, _ = yield [x for c1, c2 in pairs for x in (container_sum([c1, c2]), c1, c2)]
    sups = _least_above(frame, nuclei, frame.join_table[modalities[1::3], modalities[2::3]])
    failures = [
        f"sum modality {list(map(int, lhs))} != sup {list(map(int, rhs))} for {c1!r}, {c2!r}"
        for (c1, c2), lhs, rhs in zip(pairs, modalities[0::3], sups)
        if (lhs != rhs).any()
    ]
    return n_pairs, failures, f"sampled {n_pairs}"


def _check_surjection(frame: Frame, budget: Budget, rng: random.Random, enumerated):
    pairs = []
    for _ in range(budget.cases):
        c = random_container(frame, rng)
        pairs.append((c, surjective_relabeling(c, rng)))
    modalities, _ = yield [x for pair in pairs for x in pair]
    failures = []
    for (c, cq), mc, mcq in zip(pairs, modalities[0::2], modalities[1::2]):
        if (mcq != mc).any():
            failures.append(f"relabeling changed the modality for {c!r} -> {cq!r}")
    return budget.cases, failures, f"sampled {budget.cases}"


def _check_instance_vs_forcing(frame: Frame, budget: Budget, rng: random.Random,
                               enumerated):
    # Cross-checks instance_reducible, the elementwise route, against the
    # tabulated single-query map: E_c(a) <= i_d(P_c(a)) for every shape a.
    cs, coverage = _containers_for(frame, budget, rng)
    ds = [random_container(frame, rng) for _ in cs]
    _, maps = yield ds
    failures = []
    for c, d, i_d in zip(cs, ds, maps):
        lhs = instance_reducible(c, d)
        rhs = forced_by(c, i_d)
        if lhs != rhs:
            failures.append(f"reducibility {lhs} != single-query forcing {rhs} "
                            f"for c={c!r}, d={d!r}")
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

    reports, drawn = [], []  # drawn: (report, referee generator, its containers)
    for name in ids:
        if name not in _CHECKERS:
            raise UnknownLabel(f"unknown theorem id {name!r}")
        rng = random.Random(f"{budget.seed}:{name}")
        report = TheoremReport(theorem=name, checked=0, seed=budget.seed)
        t0 = time.perf_counter()
        try:
            referee = _CHECKERS[name](frame, budget, rng, enumerated)
            drawn.append((report, referee, next(referee)))
        except SizeLimitExceeded as e:
            report.coverage, report.refusal = "refused", str(e)
        report.elapsed_ms = (time.perf_counter() - t0) * 1000.0
        reports.append(report)

    if drawn:
        # the one Kleene pass of the run, over every referee's containers
        everything = [c for _, _, cs in drawn for c in cs]
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
