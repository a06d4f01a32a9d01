"""Write the golden CLI inputs and their recorded ``--format json`` output.

    PYTHONPATH=src python tests/golden/record.py

For each poset in ``POSETS`` it writes the poset, three seeded containers,
one valid and one broken nucleus table and two nuclei to take the sup of;
under ``inputs/realize/`` it writes two Weihrauch predicates and a set of
answers for the verbs that build no frame. It then runs the verbs of
``cases()`` through ``cli.run`` and stores their stdout under
``expected/`` and their exit codes in ``cases.json``.
``tests/test_golden.py`` replays the same argv and compares the bytes, so
run this only on a tree whose output is the reference, and commit what it
writes.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from catalog import POSETS, dump_json, make_frame  # noqa: E402
from oraclemod import cli, io  # noqa: E402
from oraclemod.nuclei import enumerate_nuclei  # noqa: E402
from oraclemod.pca import App, Const, K, S, app, pp, tag_leaf, tag_node  # noqa: E402

NAMES = ("chain2", "anti4", "diamond", "chain7")
VERIFY_SUITES = ("retraction", "forcing", "oracle-leq", "least-above", "sup",
                 "surjection", "instance-vs-forcing", "all")
# posets whose `verify all` is also recorded at the CLI's default --cases 200,
# where a run's container batch is largest
CLI_DEFAULT_SCALE = ("anti4", "chain7")


def _container(frame, rng: random.Random) -> dict:
    shapes = [f"a{i}" for i in range(rng.randint(1, 3))]
    pred, extent = {}, {}
    for a in shapes:
        e = rng.randrange(len(frame))
        below = [p for p in range(len(frame)) if frame.leq_table[p, e]]
        extent[a] = list(frame.el(e).labels)
        pred[a] = list(frame.el(rng.choice(below)).labels)
    return {"shapes": shapes, "pred": pred, "extent": extent}


def _nucleus(frame, table) -> dict:
    return {"table": io.nucleus_table_to_dict(frame, table)}


def write_inputs(name: str) -> None:
    """The input files of one poset, under ``inputs/<name>/``."""
    out = HERE / "inputs" / name
    out.mkdir(parents=True, exist_ok=True)
    labels, pairs = POSETS[name]
    dump_json({"elements": labels, "le": [list(p) for p in pairs]}, out / "poset.json")
    frame = make_frame(name)
    rng = random.Random(f"golden:{name}")
    for i in range(3):
        dump_json(_container(frame, rng), out / f"container{i}.json")
    ns = enumerate_nuclei(frame)
    valid = ns[len(ns) // 2]
    dump_json(_nucleus(frame, valid.table), out / "valid.json")
    # bottom sent to bottom and top to bottom: not inflationary at top
    broken = valid.table.copy()
    broken[frame.top_index] = frame.bot_index
    dump_json(_nucleus(frame, broken), out / "broken.json")
    dump_json(_nucleus(frame, ns[1].table), out / "sup0.json")
    dump_json(_nucleus(frame, ns[-2].table), out / "sup1.json")


def write_realize_inputs() -> None:
    """The Weihrauch predicates and answer set under ``inputs/realize/``."""
    out = HERE / "inputs" / "realize"
    out.mkdir(parents=True, exist_ok=True)
    dump_json({"entries": [{"instance": "K", "families": [["S"]]}]}, out / "f.json")
    dump_json({"entries": [{"instance": "K", "families": [["K S"]]}]}, out / "g.json")
    dump_json(["m0", "m1"], out / "s.json")


_I = app(S, K, K)
_W = app(S, _I, _I)  # W x = x x
_OMEGA = App(_W, _W)  # has no normal form


def realize_cases() -> list[tuple[str, list[str]]]:
    """The verbs that build no frame: pca, trees, weihrauch, oracle-tree."""
    d = "inputs/realize"
    # a node at instance K whose branch c answers S with the leaf m0: c = K (leaf m0)
    node = pp(tag_node(K, App(K, tag_leaf(Const("m0")))))
    # a normal branch S (K W) (K W) whose value at S is W W, which diverges
    diverging_node = pp(tag_node(K, app(S, App(K, _W), App(K, _W))))
    weihrauch = ["weihrauch", "check", "--f", f"{d}/f.json", "--g", f"{d}/g.json",
                 "--l1", "S K K"]
    tree = ["oracle-tree", "check", "--pred", f"{d}/f.json", "--s", f"{d}/s.json",
            "--term"]
    return [
        ("pca-eval-normalizes", ["pca", "eval", "--term", "S K K (K S)"]),
        ("pca-eval-diverges", ["pca", "eval", "--fuel", "200", "--term",
                               "S (S K K) (S K K) (S (S K K) (S K K))"]),
        ("pca-eval-spine-400", ["pca", "eval", "--term", " ".join(["x"] * 400)]),
        ("trees-suite-seed1", ["trees", "suite", "--seed", "1", "--cases", "40",
                               "--depth", "3"]),
        # K S is translated back into {S} by applying it to K
        ("weihrauch-check-accepted", [*weihrauch, "--l2", "K (S (S K K) (K K))"]),
        ("weihrauch-check-rejected", [*weihrauch, "--l2", "K (S K K)"]),
        # l2 r s diverges, so no target family can be matched within the fuel
        ("weihrauch-check-unknown", [*weihrauch, "--l2", pp(App(K, App(K, _OMEGA))),
                                     "--fuel", "200"]),
        ("oracle-tree-check-member", [*tree, pp(tag_leaf(Const("m0")))]),
        ("oracle-tree-check-not-member", [*tree, pp(tag_leaf(Const("zz")))]),
        ("oracle-tree-check-node-member", [*tree, node]),
        ("oracle-tree-check-depth-unknown", [*tree, node, "--depth", "0"]),
        ("oracle-tree-check-diverging-unknown", [*tree, diverging_node, "--fuel", "200"]),
    ]


def cases() -> list[tuple[str, list[str]]]:
    """(case id, argv with paths relative to this directory)."""
    out = []
    for name in NAMES:
        d = f"inputs/{name}"
        poset = ["--poset", f"{d}/poset.json"]
        out.append((f"{name}-frame-build", ["frame", "build", *poset]))
        for verb in ("compute", "compare"):
            for i in range(3):
                out.append((f"{name}-oracle-{verb}-{i}",
                            ["oracle", verb, *poset, "--container", f"{d}/container{i}.json"]))
        out.append((f"{name}-nuclei-enumerate", ["nuclei", "enumerate", *poset]))
        for kind in ("valid", "broken"):
            out.append((f"{name}-nuclei-validate-{kind}",
                        ["nuclei", "validate", *poset, "--nucleus", f"{d}/{kind}.json"]))
        out.append((f"{name}-nuclei-sup", ["nuclei", "sup", *poset,
                                           "--nucleus", f"{d}/sup0.json",
                                           "--nucleus", f"{d}/sup1.json"]))
        out.append((f"{name}-verify-all",
                    ["verify", "all", *poset, "--seed", "0", "--cases", "4"]))
        if name in CLI_DEFAULT_SCALE:
            out.append((f"{name}-verify-all-cases200",
                        ["verify", "all", *poset, "--seed", "0", "--cases", "200"]))
        for suite in VERIFY_SUITES:
            out.append((f"{name}-verify-{suite}-seed1",
                        ["verify", suite, *poset, "--seed", "1", "--cases", "30"]))
        out.append((f"{name}-verify-retraction-broken",
                    ["verify", "retraction", *poset, "--nucleus", f"{d}/broken.json"]))
    return out + realize_cases()


def absolute(argv: list[str]) -> list[str]:
    return [str(HERE / a) if a.startswith("inputs/") else a for a in argv]


def run_json(argv: list[str]) -> tuple[str, int]:
    """stdout and exit code of one ``--format json`` run."""
    buf = stdio.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.run(["--format", "json", *absolute(argv)])
    return buf.getvalue(), status


def main() -> None:
    for name in NAMES:
        write_inputs(name)
    write_realize_inputs()
    (HERE / "expected").mkdir(exist_ok=True)
    manifest = []
    for case, argv in cases():
        stdout, status = run_json(argv)
        (HERE / "expected" / f"{case}.json").write_text(stdout, encoding="utf-8")
        manifest.append({"id": case, "argv": argv, "exit": status})
    dump_json(manifest, HERE / "cases.json")


if __name__ == "__main__":
    main()
