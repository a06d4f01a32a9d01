"""Verb-based command line front end.

Every run emits one report, as stable sorted-key JSON (no timings, so equal
inputs and seed give byte-identical output) or as human-readable text.
The JSON is exactly ``json.dumps(report, sort_keys=True, indent=2)`` plus a
newline, written by one encoder of this module (``_to_json``) that keeps
its open containers on an explicit stack, so a report of any depth renders
(the standard encoder recurses once per level under ``indent``), and that
writes a list of strings, the shape of a frame element, with one ``join``,
once per list object and depth in a report.
The text format walks a stack the same way.
Exit codes: 0 all checks passed, 1 check failure, 2 usage or input error,
3 resource exhaustion / unknown verdicts, 4 internal invariant violation or
any other fault of the program, rendering the report included (a bug
report on stderr).
``run`` may be called any number of times in one process; it builds its
parser on the first call and reuses it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import traceback
from itertools import repeat

from . import __version__, io
from .containers import (
    oracle_modality,
    oracle_modality_bruteforce,
    oracle_modality_kleene,
    validate_container,
)
from .errors import InternalInvariantViolation, OracleModError, SizeLimitExceeded
from .nuclei import (
    Nucleus,
    dense_elements,
    enumerate_nuclei,
    sup_nuclei,
    validate_nucleus,
)
from .pca import DEFAULT_FUEL, eval_term, parse_term, pp
from .theorems import THEOREM_IDS, Budget, verify_theorems
from .trees import run_tree_suites
from .weihrauch import check_oracle_membership_w, check_weihrauch, recheck_certificate_w

_VERIFY_SUITES = {
    "retraction": ("retraction",),
    "forcing": ("forcing-iff",),
    "oracle-leq": ("oracle-leq",),
    "sup": ("sup",),
    "least-above": ("least-above-instance",),
    "surjection": ("surjection",),
    "instance-vs-forcing": ("instance-vs-forcing",),
    "all": THEOREM_IDS,
}


def _count(src: str) -> int:
    """The value of a --cases, --depth or --fuel option: an integer >= 0."""
    try:
        n = int(src)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {src!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="oraclemod",
        description="modalities, nuclei and oracle computations on finite frames",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", help="write the report here instead of stdout")
    sub = p.add_subparsers(dest="verb", required=True)

    fr = sub.add_parser("frame").add_subparsers(dest="sub", required=True)
    fb = fr.add_parser("build", help="build the downset frame of a poset")
    fb.add_argument("--poset", required=True)

    nu = sub.add_parser("nuclei").add_subparsers(dest="sub", required=True)
    ne = nu.add_parser("enumerate")
    ne.add_argument("--poset", required=True)
    nv = nu.add_parser("validate")
    nv.add_argument("--poset", required=True)
    nv.add_argument("--nucleus", required=True)
    ns = nu.add_parser("sup")
    ns.add_argument("--poset", required=True)
    ns.add_argument("--nucleus", action="append", required=True)

    orc = sub.add_parser("oracle").add_subparsers(dest="sub", required=True)
    for name in ("compute", "compare"):
        op = orc.add_parser(name)
        op.add_argument("--poset", required=True)
        op.add_argument("--container", required=True)

    ver = sub.add_parser("verify")
    ver.add_argument("suite", choices=sorted(_VERIFY_SUITES))
    ver.add_argument("--poset", required=True)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--cases", type=_count, default=200)
    ver.add_argument("--nucleus", action="append", default=[],
                     help="inject extra nucleus tables into the retraction check")

    tr = sub.add_parser("trees").add_subparsers(dest="sub", required=True)
    ts = tr.add_parser("suite")
    ts.add_argument("--seed", type=int, default=0)
    ts.add_argument("--cases", type=_count, default=200)
    ts.add_argument("--depth", type=_count, default=4)

    pc = sub.add_parser("pca").add_subparsers(dest="sub", required=True)
    pe = pc.add_parser("eval")
    pe.add_argument("--term", required=True)
    pe.add_argument("--fuel", type=_count, default=DEFAULT_FUEL)

    wc = sub.add_parser("weihrauch").add_subparsers(dest="sub", required=True)
    w = wc.add_parser("check")
    w.add_argument("--f", required=True)
    w.add_argument("--g", required=True)
    w.add_argument("--l1", required=True)
    w.add_argument("--l2", required=True)
    w.add_argument("--fuel", type=_count, default=DEFAULT_FUEL)

    ot = sub.add_parser("oracle-tree").add_subparsers(dest="sub", required=True)
    oc = ot.add_parser("check")
    oc.add_argument("--pred", required=True)
    oc.add_argument("--s", required=True)
    oc.add_argument("--term", required=True)
    oc.add_argument("--depth", type=_count, default=8)
    oc.add_argument("--fuel", type=_count, default=DEFAULT_FUEL)

    return p


def _dispatch(args) -> tuple[dict, int]:
    text = args.format == "text"

    if args.verb == "frame":
        frame = io.load_frame(args.poset)
        body = {
            "carrier": len(frame),
            "bot": io.element_to_json(frame.bot),
            "top": io.element_to_json(frame.top),
            "elements": [io.element_to_json(e) for e in frame.all_elements()],
        }
        return body, 0

    if args.verb == "nuclei":
        frame = io.load_frame(args.poset)
        if args.sub == "enumerate":
            ns = enumerate_nuclei(frame)
            body = {
                "count": len(ns),
                "nuclei": [io.nucleus_table_to_dict(frame, j.table) for j in ns],
            }
            return body, 0
        if args.sub == "validate":
            table = io.nucleus_table_from_dict(frame, io.load_json(args.nucleus))
            report = validate_nucleus(frame, table)
            body = {
                "valid": report.valid,
                "violations": [
                    {"law": law, "witnesses": [io.element_to_json(w) for w in ws]}
                    for law, ws in report.violations
                ],
            }
            return body, 0 if report.valid else 1
        # sup
        js = []
        for path in args.nucleus:
            table = io.nucleus_table_from_dict(frame, io.load_json(path))
            report = validate_nucleus(frame, table)
            if not report.valid:
                raise OracleModError(
                    f"{path} is not a nucleus: violates {report.law_names()}"
                )
            js.append(Nucleus(frame, table))
        s = sup_nuclei(frame, js)
        return {"sup": io.nucleus_table_to_dict(frame, s.table)}, 0

    if args.verb == "oracle":
        frame = io.load_frame(args.poset)
        c = io.container_from_dict(frame, io.load_json(args.container))
        if not validate_container(c):
            raise OracleModError("container is invalid: some P(a) is not below E(a)")
        if args.sub == "compute":
            j = oracle_modality(c)
            body = {
                "modality": io.nucleus_table_to_dict(frame, j.table),
                "dense": [io.element_to_json(e) for e in dense_elements(j)],
            }
            return body, 0
        # the closed form and its two referees
        j = oracle_modality(c)
        kle = oracle_modality_kleene(c)
        k = oracle_modality_bruteforce(c)
        agree = j == kle == k
        body = {
            "kleene": io.nucleus_table_to_dict(frame, kle.table),
            "bruteforce": io.nucleus_table_to_dict(frame, k.table),
            "agree": agree,
        }
        return body, 0 if agree else 1

    if args.verb == "verify":
        frame = io.load_frame(args.poset)
        extra = tuple(
            Nucleus(frame, io.nucleus_table_from_dict(frame, io.load_json(path)))
            for path in args.nucleus
        )
        budget = Budget(seed=args.seed, cases=args.cases, extra_nuclei=extra)
        reports = verify_theorems(frame, _VERIFY_SUITES[args.suite], budget)
        body = {"reports": [r.to_dict(include_timing=text) for r in reports]}
        # the one enumeration of a run is refused for all its referees alike
        refusal = next((r.refusal for r in reports if r.refusal), None)
        if refusal:
            sys.stderr.write(f"oraclemod: error: {refusal}\n")
        if not all(r.passed for r in reports):
            return body, 1
        return body, 3 if refusal else 0

    if args.verb == "trees":
        suites = run_tree_suites(args.seed, args.cases, depth=args.depth)
        ok = all(not s["failures"] for s in suites)
        return {"suites": suites}, 0 if ok else 1

    if args.verb == "pca":
        t = parse_term(args.term, auto_declare=True)
        r = eval_term(t, args.fuel)
        body = {
            "term": args.term,
            "normal_form": None if r.diverged else pp(r.term),
            "steps": r.steps,
            "diverged": r.diverged,
        }
        return body, 3 if r.diverged else 0

    if args.verb == "weihrauch":
        f = io.weihrauch_predicate_from_dict(io.load_json(args.f), args.fuel)
        g = io.weihrauch_predicate_from_dict(io.load_json(args.g), args.fuel)
        l1 = parse_term(args.l1)
        l2 = parse_term(args.l2)
        v = check_weihrauch(f, g, l1, l2, args.fuel)
        body = {"verdict": v.verdict, "witness": v.witness, "obligations": v.obligations}
        status = {"accepted": 0, "rejected": 1, "unknown": 3}[v.verdict]
        return body, status

    if args.verb == "oracle-tree":
        f = io.weihrauch_predicate_from_dict(io.load_json(args.pred), args.fuel)
        members = io.terms_from_json(io.load_json(args.s))
        t = parse_term(args.term, auto_declare=True)
        v = check_oracle_membership_w(f, members, t, depth=args.depth, fuel=args.fuel)
        if v.verdict == "member" and not recheck_certificate_w(
                f, members, t, v.certificate, fuel=args.fuel):
            raise InternalInvariantViolation("member certificate failed its recheck")
        body = {
            "verdict": v.verdict,
            "path": list(v.path),
            "certificate": v.certificate,
        }
        status = {"member": 0, "not_member": 1, "unknown": 3}[v.verdict]
        return body, status

    raise OracleModError(f"unhandled verb {args.verb!r}")


_ESCAPE = json.encoder.encode_basestring_ascii
_INFINITIES = {float("inf"): "Infinity", float("-inf"): "-Infinity"}


def _leaf(v) -> str | None:
    """The JSON text of ``v`` when it is a scalar or an empty container,
    else None for a list, tuple or dict."""
    if isinstance(v, str):
        return _ESCAPE(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        return "NaN" if v != v else _INFINITIES.get(v) or float.__repr__(v)
    if isinstance(v, (list, tuple)):
        return None if v else "[]"
    if isinstance(v, dict):
        return None if v else "{}"
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _to_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` for dicts with string
    keys, lists, tuples and scalars, on an explicit stack so that nesting
    costs no recursion. ``todo`` holds, next item last, text to write, a
    (container, newline and indent of its level) pair to write, and the id
    of a container to close; ``opened`` holds the ids of the containers
    being written, so a cycle is refused as ``json`` refuses it.
    ``strings`` holds the text of each list of strings by (id, indent), so a
    list object that recurs, as a nucleus table's label lists do, is
    rendered once per depth."""
    text = _leaf(obj)
    if text is not None:
        return text
    out: list[str] = []
    todo: list = [(obj, "\n")]
    opened: set[int] = set()
    strings: dict[tuple[int, str], str] = {}
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        if isinstance(item, int):
            opened.discard(item)
            continue
        v, nl = item
        if id(v) in opened:
            raise ValueError("Circular reference detected")
        opened.add(id(v))
        inner = nl + "  "
        if isinstance(v, dict):
            keys = sorted(v)
            if not all(map(isinstance, keys, repeat(str))):
                bad = next(k for k in keys if not isinstance(k, str))
                raise TypeError(f"keys must be str, not {type(bad).__name__}")
            heads = [f",{inner}{_ESCAPE(k)}: " for k in keys]
            values, run, close = map(v.__getitem__, keys), ["{"], "}"
        else:
            heads, values, run, close = ["," + inner] * len(v), v, ["["], "]"
        heads[0] = heads[0][1:]  # no comma before the first item
        # the text since the last nested container is joined into one item
        entries: list = []
        for head, x in zip(heads, values):
            if isinstance(x, str):
                run += (head, _ESCAPE(x))
                continue
            if isinstance(x, (list, tuple)) and x:
                key = (id(x), inner)
                text = strings.get(key)
                if text is None and all(map(isinstance, x, repeat(str))):
                    # a list of strings, as a frame element is written: one join
                    deeper = inner + "  "
                    items = f",{deeper}".join(map(_ESCAPE, x))
                    text = strings[key] = f"[{deeper}{items}{inner}]"
                if text is not None:
                    run += (head, text)
                    continue
            text = _leaf(x)
            if text is None:
                run.append(head)
                entries += ("".join(run), (x, inner))
                run = []
            else:
                run += (head, text)
        run.append(nl + close)
        entries += ("".join(run), id(v))
        todo.extend(reversed(entries))
    return "".join(out)


def _text_lines(report) -> list[str]:
    """The lines of the text format, on an explicit stack like ``_to_json``:
    one line per dict key (sorted) or list item ("-"), nested values two
    spaces further in, scalars and empty containers in JSON."""
    lines: list[str] = []
    todo: list = [(report, "")]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        v, pad = item
        if isinstance(v, dict):
            # an empty container under a key is written on the key's line
            heads = [(f"{pad}{k}:", v[k], False) for k in sorted(v)]
        else:
            heads = [(f"{pad}-", x, True) for x in v]
        entries: list = []
        for head, x, in_list in heads:
            if isinstance(x, (dict, list, tuple)) and (x or in_list):
                entries += (head, (x, pad + "  "))
            else:
                entries.append(f"{head} {_to_json(x)}")
        todo.extend(reversed(entries))
    return lines


def emit_report(report: dict, fmt: str, elapsed_ms: float | None = None) -> str:
    """Render a report; json output is stable and timing-free, and equals
    ``json.dumps(report, sort_keys=True, indent=2)`` plus a newline."""
    if fmt == "json":
        return _to_json(report) + "\n"
    lines = _text_lines(report)
    if elapsed_ms is not None:
        lines.append(f"elapsed_ms: {elapsed_ms:.1f}")
    return "\n".join(lines) + "\n"


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` uses, built once per process."""
    return build_parser()


def _bug_report(command: str, fmt: str, error: str, detail: str) -> int:
    """Write the exit-4 report of a fault in the program to stderr."""
    payload = {
        "header": {"command": command, "version": __version__},
        "bug_report": {"error": error, "detail": detail},
        "status": 4,
    }
    sys.stderr.write(emit_report(payload, fmt))
    return 4


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = " ".join(
        [args.verb] + ([args.sub] if getattr(args, "sub", None) else [])
        + ([args.suite] if getattr(args, "suite", None) else [])
    )
    t0 = time.perf_counter()
    try:
        body, status = _dispatch(args)
        report = {
            "header": {
                "command": command,
                "seed": getattr(args, "seed", 0),
                "version": __version__,
            },
            "body": body,
            "status": status,
        }
        elapsed = (time.perf_counter() - t0) * 1000.0
        rendered = emit_report(report, args.format,
                               elapsed if args.format == "text" else None)
    except SizeLimitExceeded as e:
        sys.stderr.write(f"oraclemod: error: {e}\n")
        return 3
    except InternalInvariantViolation as e:
        return _bug_report(command, args.format, "internal invariant violation", str(e))
    except (OracleModError, OSError, json.JSONDecodeError) as e:
        sys.stderr.write(f"oraclemod: error: {e}\n")
        return 2
    except Exception as e:
        # any other exception, rendering included, is a fault of the
        # program, not of its input
        return _bug_report(command, args.format, f"unexpected {type(e).__name__}",
                           traceback.format_exc())
    if not args.output:
        sys.stdout.write(rendered)
        return status
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    except OSError as e:
        sys.stderr.write(f"oraclemod: error: {e}\n")
        return 2
    return status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
