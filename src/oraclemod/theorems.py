"""Batch referees for the order facts connecting containers and nuclei.

Each referee enumerates instances when the space fits the budget and
otherwise draws a seeded sample, so reports are reproducible from
(frame, suite, seed) alone. Modalities are computed by Kleene iteration,
the paper's construction, and checked against the nuclei that
``enumerate_nuclei`` lists in closed form, so no referee checks the closed
form against itself. A referee draws all its containers before computing
any modality, and then computes their modalities in one batched call to
``oracle_modalities_kleene``, as a stack of tables compared row by row.
``_least_above`` checks "least nucleus above" for ``least-above-instance``
(above the single-query maps) and ``sup`` (above the join of two
modalities). The referees draw their containers as carrier indices and
build them with ``IndexedPropContainer.of_indices``, never from frame
elements. A run enumerates the nuclei at most once; if the enumeration is
refused, each referee that needs it reports "refused" and the others still
run.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field

import numpy as np

from . import frames
from .containers import (
    IndexedPropContainer,
    container_sum,
    forced_by,
    instance_prenuclei,
    instance_reducible,
    oracle_modalities_kleene,
    pred_of_nucleus,
)
from .errors import InternalInvariantViolation, SizeLimitExceeded, UnknownLabel
from .frames import Frame
from .nuclei import Nucleus, enumerate_nuclei


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
    k = rng.randint(1, 3)
    ext, prd = [], []
    for _ in range(k):
        e = frame.top_index if rng.random() < 0.5 else rng.randrange(len(frame))
        ext.append(e)
        prd.append(rng.choice(frame.below[e]))
    return IndexedPropContainer.of_indices(frame, [f"a{i}" for i in range(k)], ext, prd)


def surjective_relabeling(
    c: IndexedPropContainer, rng: random.Random
) -> IndexedPropContainer:
    """Precompose a container with a random surjection onto its shapes."""
    k = len(c.shapes)
    m = k + rng.randint(0, 2)
    targets = list(range(k)) + [rng.choice(range(k)) for _ in range(m - k)]
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
# ``enumerated``, a call returning the frame's nuclei as an (N, n) stack,
# enumerated on the first call in a run only. A referee draws all its
# containers first and then computes their Kleene modalities in one call.


def _check_retraction(frame: Frame, budget: Budget, rng: random.Random, enumerated):
    nuclei = [Nucleus(frame, t) for t in enumerated()] + list(budget.extra_nuclei)
    modalities = oracle_modalities_kleene(frame, [pred_of_nucleus(j) for j in nuclei])
    failures = [
        f"nucleus {list(map(int, j.table))} came back as {list(map(int, k))}"
        for j, k in zip(nuclei, modalities)
        if (k != j.table).any()
    ]
    return len(nuclei), failures, "exhaustive"


def _check_forcing_iff(frame: Frame, budget: Budget, rng: random.Random, enumerated):
    # pairs index (nuclei, cs), so each single-shape container is listed once
    nuclei = enumerated()
    if len(nuclei) * _single_shape_count(frame) <= budget.cases:
        cs = all_single_shape_containers(frame)
        pairs = [(j, k) for j in range(len(nuclei)) for k in range(len(cs))]
        coverage = "exhaustive-singles"
    else:
        drawn = [(rng.choice(range(len(nuclei))), random_container(frame, rng))
                 for _ in range(budget.cases)]
        cs, pairs = [c for _, c in drawn], [(j, k) for k, (j, _) in enumerate(drawn)]
        coverage = f"sampled {budget.cases}"
    modalities = oracle_modalities_kleene(frame, cs)
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
    modalities = oracle_modalities_kleene(frame, cs)
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
    pre = instance_prenuclei(frame, cs)
    modalities = oracle_modalities_kleene(frame, cs)
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
    modalities = oracle_modalities_kleene(
        frame, [x for c1, c2 in pairs for x in (container_sum([c1, c2]), c1, c2)])
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
    modalities = oracle_modalities_kleene(frame, [x for pair in pairs for x in pair])
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
    failures = []
    for c, d, i_d in zip(cs, ds, instance_prenuclei(frame, ds)):
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


def verify_theorems(
    frame: Frame,
    suite: tuple[str, ...] | None = None,
    budget: Budget | None = None,
) -> list[TheoremReport]:
    """Run the requested referees and return one report per theorem id.

    A referee whose enumeration of nuclei is refused reports nothing checked
    with coverage "refused"; the enumeration is attempted once per run and
    the other referees still run."""
    budget = budget or Budget()
    ids = THEOREM_IDS if suite is None else tuple(suite)

    @functools.cache
    def attempt():
        # Looked up at call time, so a wrapped enumerate_nuclei is the one called.
        try:
            nuclei = enumerate_nuclei(frame)
        except SizeLimitExceeded as e:
            return e
        return np.array([k.table for k in nuclei])

    def enumerated():
        nuclei = attempt()
        if isinstance(nuclei, SizeLimitExceeded):
            raise nuclei
        return nuclei

    reports = []
    for name in ids:
        if name not in _CHECKERS:
            raise UnknownLabel(f"unknown theorem id {name!r}")
        rng = random.Random(f"{budget.seed}:{name}")
        t0 = time.perf_counter()
        refusal = None
        try:
            checked, failures, coverage = _CHECKERS[name](frame, budget, rng, enumerated)
        except SizeLimitExceeded as e:
            checked, failures, coverage, refusal = 0, [], "refused", str(e)
        reports.append(
            TheoremReport(
                theorem=name,
                checked=checked,
                failures=failures,
                seed=budget.seed,
                elapsed_ms=(time.perf_counter() - t0) * 1000.0,
                coverage=coverage,
                refusal=refusal,
            )
        )
    return reports
