"""The seeded workloads: inputs, jobs and the outcome each job must have.

A workload is built in two steps.  ``gen_<workload>`` draws a JSON-ready
description of every input from the seed, using only the standard library
and ``reference.py``, so its digest shows that two commits ran on identical
inputs.  ``mat_<workload>`` turns the description into CLI input files and
package objects and wraps each call in a ``Job``.

Every job is one call into a public entry point: ``cli.run([...])`` or a
library function, looked up through its module at call time so that the
tracer can rebind it.  The check runs after the timed call and returns a
description of the mismatch, or None.
"""

from __future__ import annotations

import hashlib
import io as _io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from oraclemod import cli, containers, frames, nuclei, pca, trees, weihrauch
from reference import (
    DIAMOND,
    PosetModel,
    antichain,
    chain,
    chain_union,
    disjoint_union,
    relabel,
)
from tracer import THEOREM_IDS


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    is_cli: bool = False


@dataclass
class Workload:
    name: str
    inputs: dict
    jobs: list[Job]
    warmup: list[Job]

    @property
    def digest(self) -> str:
        blob = json.dumps(self.inputs, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _write(path: Path, obj) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")
    return str(path)


def cli_job(kind: str, argv: list[str], rc: int,
            check_body: Callable[[dict], str | None]) -> Job:
    """A CLI run with JSON output captured in memory; ``rc`` is the exit
    code the job must return and ``check_body`` inspects the report body."""
    argv = ["--format", "json", *argv]

    def run():
        out, err = _io.StringIO(), _io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
        return code, out.getvalue(), err.getvalue()

    def check(outcome):
        code, out, err = outcome
        if code != rc:
            return f"exit {code}, expected {rc}: {err.strip()[:200]}"
        report = json.loads(out)
        if report.get("status") != rc:
            return f"report status {report.get('status')}, expected {rc}"
        return check_body(report["body"])

    return Job(kind, run, check, is_cli=True)


def _first(*problems: str | None) -> str | None:
    return next((p for p in problems if p), None)


def _build_frame(poset: dict):
    return frames.downset_frame(
        frames.poset_from_relation(poset["elements"], [tuple(x) for x in poset["le"]]))


# -- verify ------------------------------------------------------------------

VERIFY_SHAPES = {
    "chain2": chain(2),       # carrier 3
    "chain3": chain(3),       # 4
    "anti3": antichain(3),    # 8
    "diamond": DIAMOND,       # 6
    "chain2+1": disjoint_union(chain(2), antichain(1)),  # 6
    "chain7": chain(7),       # 8
    "anti4": antichain(4),    # 16
}
VERIFY_SUITES = {
    "retraction": ["retraction"],
    "forcing": ["forcing-iff"],
    "oracle-leq": ["oracle-leq"],
    "sup": ["sup"],
    "least-above": ["least-above-instance"],
    "surjection": ["surjection"],
    "all": list(THEOREM_IDS),
}


def gen_verify(rng: random.Random, tiny: bool) -> dict:
    shapes = ["chain2", "anti3"] if tiny else list(VERIFY_SHAPES)
    suites = ["retraction", "all"] if tiny else list(VERIFY_SUITES)
    posets = {name: relabel(VERIFY_SHAPES[name], rng) for name in shapes}
    bad = {}
    for name, p in posets.items():
        # identity with one non-bottom element sent to bottom: not inflationary
        model = PosetModel(p["elements"], p["le"])
        ds = model.downsets()
        hit = rng.choice(ds[1:])
        bad[name] = {model.key(d): model.labels_of(0 if d == hit else d) for d in ds}
    # two seeds of every shape: 105 jobs, and a pass short enough for eight
    # or more passes in a run
    seeds = [rng.randrange(1 << 30) for _ in range(1 if tiny else 2)]
    jobs = [{"suite": s, "poset": n, "seed": vs}
            for vs in seeds for n in posets for s in suites]
    jobs += [{"suite": "retraction", "poset": n, "seed": seeds[0], "bad": True}
             for n in posets]
    rng.shuffle(jobs)
    return {"posets": posets, "bad_nuclei": bad, "cases": 4,
            "jobs": jobs}


def _verify_body(suite: str):
    want = VERIFY_SUITES[suite]

    def check(body):
        got = [r["theorem"] for r in body["reports"]]
        if got != want:
            return f"reports {got}, expected {want}"
        failed = [r["theorem"] for r in body["reports"] if r["failures"]]
        return f"referees failed: {failed}" if failed else None

    return check


def _bad_nucleus_body(body):
    reports = body["reports"]
    if [r["theorem"] for r in reports] != ["retraction"]:
        return "expected a single retraction report"
    if len(reports[0]["failures"]) != 1:
        return f"{len(reports[0]['failures'])} retraction failures, expected 1"
    return None


def mat_verify(spec: dict, work: Path) -> tuple[list[Job], list[Job]]:
    paths = {n: _write(work / "posets" / f"{n}.json", p) for n, p in spec["posets"].items()}
    bad = {n: _write(work / "bad" / f"{n}.json", {"table": t})
           for n, t in spec["bad_nuclei"].items()}
    jobs = []
    for j in spec["jobs"]:
        argv = ["verify", j["suite"], "--poset", paths[j["poset"]],
                "--seed", str(j["seed"]), "--cases", str(spec["cases"])]
        if j.get("bad"):
            jobs.append(cli_job("verify retraction --nucleus bad",
                                argv + ["--nucleus", bad[j["poset"]]], 1, _bad_nucleus_body))
        else:
            jobs.append(cli_job(f"verify {j['suite']}", argv, 0, _verify_body(j["suite"])))
    warm = [cli_job("warmup", ["verify", "all", "--poset", paths[next(iter(paths))],
                               "--cases", "2"], 0, _verify_body("all"))]
    return jobs, warm


# -- lattice -----------------------------------------------------------------

LATTICE_SHAPES = {
    "anti6": antichain(6),                                      # carrier 64
    "chains3x3": chain_union(3, 3),                             # 64
    "chains3x2+anti2": disjoint_union(chain_union(2, 3), antichain(2)),   # 64
    "diamond+chain2+anti2": disjoint_union(DIAMOND, chain(2), antichain(2)),  # 72
    "chains2x2+anti3": disjoint_union(chain_union(2, 2), antichain(3)),   # 72
    "chains2x4": chain_union(4, 2),                             # 81
    "chains2x5": chain_union(5, 2),                             # 243
}
# Carrier 729 (chain_union(6, 2)) is left out: one CLI job there takes 2.4 s
# at the seed, which leaves room for only three or four repeats of each job
# in a run and let the lattice figures spread by a quarter between runs.
LATTICE_SMALL = ("anti6", "chains3x3", "chains3x2+anti2", "diamond+chain2+anti2",
                 "chains2x2+anti3", "chains2x4")


def _random_container(model: PosetModel, rng: random.Random) -> dict:
    shapes, pred, extent = [], {}, {}
    for i in range(rng.randint(1, 4)):
        e = model.top if rng.random() < 0.5 else model.random_downset(rng)
        p = model.random_downset(rng, within=e)
        shapes.append(f"a{i}")
        extent[f"a{i}"] = model.labels_of(e)
        pred[f"a{i}"] = model.labels_of(p)
    return {"shapes": shapes, "pred": pred, "extent": extent}


def _random_nucleus(model: PosetModel, rng: random.Random, valid: bool) -> dict:
    p = model.random_downset(rng)
    table = model.closed_nucleus(p) if rng.random() < 0.5 else model.open_nucleus(p)
    if not valid:
        # send one element to bottom: no longer inflationary
        table[rng.choice([d for d in table if d])] = 0
    return {model.key(d): model.labels_of(v) for d, v in table.items()}


def gen_lattice(rng: random.Random, tiny: bool) -> dict:
    names = ["anti6", "chains2x4"] if tiny else list(LATTICE_SHAPES)
    posets = {n: relabel(LATTICE_SHAPES[n], rng) for n in names}
    models = {n: PosetModel(p["elements"], p["le"]) for n, p in posets.items()}
    ctrs, nucs, jobs = {}, {}, []
    for n in names:
        # at 243 only the frame build and the law check, the two costs that grow
        reps = 0 if n not in LATTICE_SMALL else 1 if tiny else 5
        ctrs[n] = [_random_container(models[n], rng) for _ in range(reps)]
        nucs[n] = [{"table": _random_nucleus(models[n], rng, valid=i % 5 != 4),
                    "valid": i % 5 != 4} for i in range(reps)]
        jobs.append({"verb": "frame build", "poset": n, "index": 0})
        for i in range(reps):
            jobs += [{"verb": v, "poset": n, "index": i}
                     for v in ("oracle compute", "oracle compare", "nuclei validate")]
        jobs.append({"verb": "check_laws", "poset": n, "index": 0})
    rng.shuffle(jobs)
    return {"posets": posets, "containers": ctrs, "nuclei": nucs, "jobs": jobs}


def mat_lattice(spec: dict, work: Path) -> tuple[list[Job], list[Job]]:
    models = {n: PosetModel(p["elements"], p["le"]) for n, p in spec["posets"].items()}
    cache = {}

    def expected(n, i):
        """The modality table of container i on poset n, by the label-level model."""
        if (n, i) not in cache:
            model, c = models[n], spec["containers"][n][i]
            shapes = [(model.mask(c["extent"][a]), model.mask(c["pred"][a]))
                      for a in c["shapes"]]
            cache[n, i] = {model.key(d): model.labels_of(model.modality(shapes, d))
                           for d in model.downsets()}
        return cache[n, i]

    ppath = {n: _write(work / "posets" / f"{n}.json", p) for n, p in spec["posets"].items()}
    cpath = {n: [_write(work / "containers" / f"{n}-{i}.json", c) for i, c in enumerate(cs)]
             for n, cs in spec["containers"].items()}
    npath = {n: [_write(work / "nuclei" / f"{n}-{i}.json", {"table": x["table"]})
                 for i, x in enumerate(ns)]
             for n, ns in spec["nuclei"].items()}
    built = {n: _build_frame(p) for n, p in spec["posets"].items()}  # for check_laws

    def frame_body(n):
        want = {tuple(models[n].labels_of(d)) for d in models[n].downsets()}

        def check(body):
            got = {tuple(e) for e in body["elements"]}
            return None if body["carrier"] == len(want) and got == want else \
                f"frame of {n} has {body['carrier']} elements, expected {len(want)}"
        return check

    def compute_body(n, i):
        def check(body):
            if body["modality"] != expected(n, i):
                return f"modality of container {i} on {n} differs from the reference"
            return None
        return check

    def compare_body(n, i):
        def check(body):
            want = expected(n, i)
            return _first(
                None if body["agree"] else "kleene and bruteforce disagree",
                None if body["kleene"] == want else "kleene differs from the reference",
                None if body["bruteforce"] == want else "bruteforce differs from the reference",
            )
        return check

    def validate_body(valid):
        def check(body):
            return None if body["valid"] is valid else f"valid={body['valid']}, expected {valid}"
        return check

    def laws_job(frame):
        return Job("check_laws", lambda: frame.check_laws(),
                   lambda bad: f"law violations {bad}" if bad else None)

    def job(j):
        n, i, verb = j["poset"], j["index"], j["verb"]
        if verb == "frame build":
            return cli_job(verb, ["frame", "build", "--poset", ppath[n]], 0, frame_body(n))
        if verb == "oracle compute":
            return cli_job(verb, ["oracle", "compute", "--poset", ppath[n],
                                  "--container", cpath[n][i]], 0, compute_body(n, i))
        if verb == "oracle compare":
            return cli_job(verb, ["oracle", "compare", "--poset", ppath[n],
                                  "--container", cpath[n][i]], 0, compare_body(n, i))
        if verb == "nuclei validate":
            valid = spec["nuclei"][n][i]["valid"]
            return cli_job(verb, ["nuclei", "validate", "--poset", ppath[n],
                                  "--nucleus", npath[n][i]], 0 if valid else 1,
                           validate_body(valid))
        return laws_job(built[n])

    jobs = [job(j) for j in spec["jobs"]]
    smallest = min(spec["posets"], key=lambda n: len(models[n].downsets()))
    warm = [job({"verb": v, "poset": smallest, "index": 0}) for v in
            ("frame build", "oracle compute", "oracle compare", "nuclei validate", "check_laws")]
    return jobs, warm


# -- modality ----------------------------------------------------------------

MODALITY_FRAMES = {"m81": chain_union(4, 2), "m243": chain_union(5, 2)}


def gen_modality(rng: random.Random, tiny: bool) -> dict:
    # 130 jobs: every workload has at least 100, so that ten or more samples
    # lie beyond job_ms.p90
    counts = {"m81": (6, 2)} if tiny else {"m81": (90, 20), "m243": (15, 5)}
    posets, ctrs, nucs = {}, {}, {}
    for n, (k_random, k_nuclei) in counts.items():
        posets[n] = relabel(MODALITY_FRAMES[n], rng)
        model = PosetModel(posets[n]["elements"], posets[n]["le"])
        ctrs[n] = [_random_container(model, rng) for _ in range(k_random)]
        nucs[n] = [_random_nucleus(model, rng, valid=True) for _ in range(k_nuclei)]
    jobs = [{"kind": "container", "frame": n, "index": i}
            for n in ctrs for i in range(len(ctrs[n]))]
    jobs += [{"kind": "nucleus", "frame": n, "index": i}
             for n in nucs for i in range(len(nucs[n]))]
    rng.shuffle(jobs)
    return {"posets": posets, "containers": ctrs, "nuclei": nucs, "jobs": jobs}


def mat_modality(spec: dict, work: Path) -> tuple[list[Job], list[Job]]:
    built = {n: _build_frame(p) for n, p in spec["posets"].items()}

    def container(n, c):
        f = built[n]
        return containers.IndexedPropContainer(
            f, {a: f.element(c["pred"][a]) for a in c["shapes"]},
            {a: f.element(c["extent"][a]) for a in c["shapes"]})

    def nucleus(n, table):
        f = built[n]
        arr = np.zeros(len(f), dtype=np.int32)
        for k, v in table.items():
            arr[f.element([x for x in k.split(",") if x]).index] = f.element(v).index
        return nuclei.Nucleus(f, arr)

    def from_container(c):
        def run():
            j = containers.oracle_modality(c)
            k = containers.oracle_modality_bruteforce(c)
            forced = containers.forces(j, c)
            back = containers.oracle_modality(containers.pred_of_nucleus(j))
            return j, k, forced, back

        def check(out):
            j, k, forced, back = out
            return _first(None if j == k else "kleene and prefixed-point routes disagree",
                          None if forced else "modality does not force its container",
                          None if back == j else "retraction round trip changed the modality")
        return Job("modality container", run, check)

    def from_nucleus(j0):
        def run():
            c = containers.pred_of_nucleus(j0)
            j = containers.oracle_modality(c)
            k = containers.oracle_modality_bruteforce(c)
            return j, k, containers.forces(j, c)

        def check(out):
            j, k, forced = out
            return _first(None if j == k else "kleene and prefixed-point routes disagree",
                          None if j == j0 else "oracle of pred_of_nucleus(j) is not j",
                          None if forced else "modality does not force its container")
        return Job("modality pred_of_nucleus", run, check)

    jobs = []
    for j in spec["jobs"]:
        n, i = j["frame"], j["index"]
        if j["kind"] == "container":
            jobs.append(from_container(container(n, spec["containers"][n][i])))
        else:
            jobs.append(from_nucleus(nucleus(n, spec["nuclei"][n][i])))
    kinds = {}
    for spec_job, job in zip(spec["jobs"], jobs):
        kinds.setdefault((spec_job["frame"], spec_job["kind"]), job)
    return jobs, list(kinds.values())


# -- realize -----------------------------------------------------------------

_I = "(S K K)"
_FST = f"(S {_I} (K K))"
_SND = f"(S {_I} (K (K {_I})))"
_OMEGA = f"(S {_I} {_I} (S {_I} {_I}))"
INSTANCES = ["K", "S", "S K", "S S", "S (S K)", "S (S S)"]
ANSWERS = [f"d{i}" for i in range(8)]
MEMBERS = ["m0", "m1", "m2"]
FUEL = 100_000


def _pair(p: str, q: str) -> str:
    return f"(S (S {_I} (K {p})) (K {q}))"


def _atom_list(atoms: list[str]) -> str:
    """pair(a0, pair(a1, ... pair(a_last, I))), a numeral when every atom is K."""
    t = _I
    for a in reversed(atoms):
        t = _pair(a, t)
    return t


def _projection(rng: random.Random, n: int, j: int | None) -> dict:
    """fst (snd^j L) is atom j of a list L of n atoms, and snd^n L is I.  The
    atoms are drawn from K and S, which cost the same to carry, so the cost
    of a job depends on n and j only."""
    atoms = [rng.choice("KS") for _ in range(n)]
    term = _atom_list(atoms)
    for _ in range(n if j is None else j):
        term = f"({_SND} {term})"
    if j is not None:
        return {"term": f"{_FST} {term}", "normal_form": atoms[j]}
    return {"term": term, "normal_form": "S K K"}


def _predicate(rng: random.Random, instances: int, family_size: int) -> list[dict]:
    """Instances with two disjoint answer families each, so that no family of
    an instance can stand in for the other one."""
    entries = []
    for inst in rng.sample(INSTANCES, instances):
        answers = rng.sample(ANSWERS, 2 * family_size)
        entries.append({"instance": inst,
                        "families": [answers[:family_size], answers[family_size:]]})
    return entries


def _wrap_answers(entries):
    return [{"instance": e["instance"],
             "families": [[f"K {d}" for d in fam] for fam in e["families"]]}
            for e in entries]


def _shift_instances(entries):
    return [{"instance": f"K ({e['instance']})", "families": e["families"]}
            for e in entries]


def _member_tree(rng: random.Random, entries, depth: int) -> dict:
    """A full tree of the given depth, so that its cost does not depend on the seed."""
    if depth == 0:
        return {"leaf": rng.choice(MEMBERS)}
    e = rng.choice(entries)
    fi = rng.randrange(len(e["families"]))
    return {"node": e["instance"],
            "children": [[d, _member_tree(rng, entries, depth - 1)]
                         for d in e["families"][fi]]}


def _mutate_root(t: dict, rng: random.Random) -> dict:
    """Swap the root realizer out of the support, or flip the root's tag."""
    return {**t, "node": "bad"} if rng.random() < 0.5 else {**t, "node_tag_flipped": True}


def _mutate_last_leaf(t: dict, rng: random.Random) -> dict:
    """Change the leaf the checker reaches last: payload, tag, or its branch."""
    d, sub = t["children"][-1]
    if "leaf" in sub:
        kind = rng.randrange(3)
        m = [{"leaf": "bad"}, {"leaf_tag_flipped": sub["leaf"]}, {"cut": True}][kind]
    else:
        m = _mutate_last_leaf(sub, rng)
    return {**t, "children": t["children"][:-1] + [[d, m]]}


def gen_realize(rng: random.Random, tiny: bool) -> dict:
    # job counts chosen so that pca, weihrauch and trees each take about a
    # third of the job time
    scale = 1 if tiny else 6
    jobs = []
    for i in range(5 * scale):
        n = 4 + i % 9
        jobs.append({"kind": "pca", **_projection(rng, n, (i // 2) % n if i % 2 == 0 else None)})
    for fuel in ([2000] if tiny else [2000, 3000, 5000, 8000]):
        extra = " ".join(rng.sample(MEMBERS, rng.randint(0, 2)))
        jobs.append({"kind": "pca-diverge", "term": f"{_OMEGA} {extra}".strip(), "fuel": fuel})
    for _ in range(2 * scale):
        f = _predicate(rng, len(INSTANCES), 3)
        jobs += [
            {"kind": "weihrauch", "f": f, "g": f, "l1": _I, "l2": f"K {_I}",
             "verdict": "accepted"},
            {"kind": "weihrauch", "f": f, "g": _wrap_answers(f), "l1": _I,
             "l2": f"K (S {_I} (K K))", "verdict": "accepted"},
            {"kind": "weihrauch", "f": _wrap_answers(f), "g": f, "l1": _I, "l2": f"K {_I}",
             "verdict": "rejected"},
            {"kind": "weihrauch", "f": f, "g": _shift_instances(f), "l1": _I,
             "l2": f"K {_I}", "verdict": "rejected"},
            {"kind": "weihrauch", "f": f, "g": f, "l1": f"K {_OMEGA}", "l2": f"K {_I}",
             "verdict": "unknown", "fuel": 2000},
        ]
    tree_pred = _predicate(rng, 3, 2)
    for _ in range(7 * scale):
        t = _member_tree(rng, tree_pred, 3)
        jobs += [{"kind": "member", "tree": t, "verdict": "member"},
                 {"kind": "member", "tree": _mutate_root(t, rng), "verdict": "not_member"},
                 {"kind": "member", "tree": _mutate_last_leaf(t, rng),
                  "verdict": "not_member"}]
    # Many shallow cases: the size of a deeper random tree varies so much that
    # at depth 4 the tree suites of one seed took a tenth longer than those
    # of another.  Few batches, so that job_ms.p90 does not fall among them.
    for _ in range(2 if tiny else 13):
        jobs.append({"kind": "tree-suites", "seed": rng.randrange(1 << 30),
                     "cases": 40, "depth": 2})
    rng.shuffle(jobs)
    return {"tree_predicate": tree_pred, "members": MEMBERS, "jobs": jobs}


def mat_realize(spec: dict, work: Path) -> tuple[list[Job], list[Job]]:
    def term(src):
        return pca.parse_term(src, auto_declare=True)

    def predicate(entries):
        return weihrauch.ExtWeihrauchPredicate(
            [(term(e["instance"]), [[term(d) for d in fam] for fam in e["families"]])
             for e in entries])

    fresh = itertools.count()

    def encode(t: dict):
        if "leaf" in t:
            return pca.tag_leaf(term(t["leaf"]))
        if "leaf_tag_flipped" in t:
            return pca.pair(pca.numeral(1), term(t["leaf_tag_flipped"]))
        if "cut" in t:
            return pca.K
        rules = tuple((term(d), encode(sub)) for d, sub in t["children"])
        branches = pca.Const(f"br{next(fresh)}", rules=rules)
        if t.get("node_tag_flipped"):
            return pca.pair(pca.numeral(0), pca.pair(term(t["node"]), branches))
        return pca.tag_node(term(t["node"]), branches)

    tree_pred = predicate(spec["tree_predicate"])
    members = [term(m) for m in spec["members"]]

    def pca_job(j):
        if j["kind"] == "pca":
            want = j["normal_form"]
            return cli_job("pca eval", ["pca", "eval", "--term", j["term"]], 0,
                           lambda b: None if b["normal_form"] == want and not b["diverged"]
                           else f"normal form {b['normal_form']}, expected {want}")
        fuel = j["fuel"]
        return cli_job("pca eval diverging",
                       ["pca", "eval", "--term", j["term"], "--fuel", str(fuel)], 3,
                       lambda b: None if b["diverged"] and b["steps"] == fuel
                       else f"diverged={b['diverged']} after {b['steps']} steps")

    def weihrauch_job(j):
        f, g = predicate(j["f"]), predicate(j["g"])
        l1, l2 = term(j["l1"]), term(j["l2"])
        fuel, want = j.get("fuel", FUEL), j["verdict"]
        return Job(f"weihrauch {want}",
                   lambda: weihrauch.check_weihrauch(f, g, l1, l2, fuel),
                   lambda v: None if v.verdict == want else f"verdict {v.verdict}, expected {want}")

    def member_job(j):
        t, want = encode(j["tree"]), j["verdict"]

        def run():
            v = weihrauch.check_oracle_membership_w(tree_pred, members, t, depth=8, fuel=FUEL)
            ok = v.verdict == "member" and weihrauch.recheck_certificate_w(
                tree_pred, members, t, v.certificate, FUEL)
            return v, ok

        def check(out):
            v, rechecked = out
            if v.verdict != want:
                return f"verdict {v.verdict}, expected {want}"
            return None if want != "member" or rechecked else "certificate failed its recheck"
        return Job(f"oracle-tree {want}", run, check)

    def suites_job(j):
        seed, cases, depth = j["seed"], j["cases"], j["depth"]

        def check(reports):
            failed = [r["suite"] for r in reports if r["failures"]]
            if len(reports) != 5:
                return f"{len(reports)} suites, expected 5"
            return f"tree suites failed: {failed}" if failed else None
        return Job("tree suites", lambda: trees.run_tree_suites(seed, cases, depth=depth), check)

    build = {"pca": pca_job, "pca-diverge": pca_job, "weihrauch": weihrauch_job,
             "member": member_job, "tree-suites": suites_job}
    jobs = [build[j["kind"]](j) for j in spec["jobs"]]
    kinds = {}
    for j in jobs:
        kinds.setdefault(j.kind, j)
    return jobs, list(kinds.values())


# -- workloads ---------------------------------------------------------------

WORKLOADS = {
    "verify": (gen_verify, mat_verify),
    "lattice": (gen_lattice, mat_lattice),
    "modality": (gen_modality, mat_modality),
    "realize": (gen_realize, mat_realize),
}


def build(name: str, seed: int, work: Path, tiny: bool = False) -> Workload:
    gen, mat = WORKLOADS[name]
    inputs = gen(random.Random(f"{name}:{seed}"), tiny)
    jobs, warmup = mat(inputs, work)
    return Workload(name, inputs, jobs, warmup)
