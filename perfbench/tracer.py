"""Spans around calls into the package's modules, recorded from outside.

``Tracer.instrument()`` rebinds each public function at the names its
callers look it up by (``theorems.enumerate_nuclei``, ``cli.verify_theorems``,
``_kernels.kleene_table``, ...) for the duration of a ``with`` block and puts
the originals back afterwards, so untraced passes run unmodified code.  A
span holds its name, start, end, parent span and job id; spans stay in memory
until the run writes them out.  A recursive function gets one span per
outermost call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict


def _frame_built(tracer, args, frame):
    n = len(frame)
    tracer.counts["frames.downset_frame.elements"] += n
    # one bool and three int32 n-by-n tables per frame
    tracer.counts["frames.table_bytes"] += 13 * n * n


def _laws_checked(tracer, args, result):
    n = len(args[0])
    # Frame.check_laws materializes six int32 and six bool n^3 temporaries.
    tracer.counts["frames.check_laws.bytes_computed"] += 30 * n ** 3


def _nuclei_enumerated(tracer, args, result):
    tracer.frames[id(args[0])] = args[0]  # held, so that ids stay distinct


def _kleene_called(tracer, args, result):
    meet, ext = args[0], args[3]
    tracer.counts["kernels.kleene_table.cells"] += int(meet.shape[0]) * int(ext.shape[0])


def _theorems_verified(tracer, args, reports):
    for r in reports:
        tracer.counts[f"theorems.{r.theorem}.checked"] += r.checked


def _term_evaluated(tracer, args, result):
    tracer.counts["pca.eval_term.steps"] += result.steps
    tracer.counts["pca.eval_term.diverged"] += int(result.diverged)


# span name -> (call sites as (module, attribute), result hook)
SITES = {
    "frames.downset_frame": (("frames", "io"), _frame_built),
    "frames.poset_from_relation": (("frames", "io"), None),
    "frames.check_laws": ((("frames", "Frame"),), _laws_checked),
    "nuclei.enumerate_nuclei": (("nuclei", "theorems", "cli"), _nuclei_enumerated),
    "nuclei.sup_nuclei": (("nuclei", "theorems", "cli"), None),
    "nuclei.validate_nucleus": (("nuclei", "containers", "cli"), None),
    "containers.oracle_modality": (("containers", "theorems", "cli"), None),
    "containers.oracle_modality_bruteforce": (("containers", "cli"), None),
    "containers.pred_of_nucleus": (("containers", "theorems"), None),
    "containers.container_sum": (("containers", "theorems"), None),
    "kernels.kleene_table": (("_kernels",), _kleene_called),
    "kernels.bruteforce_table": (("_kernels",), None),
    "theorems.verify_theorems": (("theorems", "cli"), _theorems_verified),
    "trees.run_tree_suites": (("trees", "cli"), None),
    "trees.equifoliate": (("trees",), None),
    "trees.tree_bind": (("trees",), None),
    "trees.membership": (("trees",), None),
    "pca.eval_term": (("pca", "weihrauch", "cli"), _term_evaluated),
    "pca.parse_term": (("pca", "io", "cli"), None),
    "weihrauch.check_weihrauch": (("weihrauch", "cli"), None),
    "weihrauch.check_oracle_membership_w": (("weihrauch", "cli"), None),
    "weihrauch.recheck_certificate_w": (("weihrauch",), None),
    "io.load_frame": (("io",), None),
    "io.load_json": (("io",), None),
    "cli.run": (("cli",), None),
    "cli.emit_report": (("cli",), None),
}

THEOREM_IDS = (
    "retraction",
    "forcing-iff",
    "oracle-leq",
    "least-above-instance",
    "sup",
    "surjection",
    "instance-vs-forcing",
)

_MODALITY = ("containers.oracle_modality", "containers.oracle_modality_bruteforce")
_CHECKS = ("weihrauch.check_weihrauch", "weihrauch.check_oracle_membership_w",
           "weihrauch.recheck_certificate_w")


def _module(name: str):
    try:
        return importlib.import_module(f"oraclemod.{name}")
    except ImportError:
        return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.counts: Counter = Counter()
        self.job = -1
        self.frames: dict[int, object] = {}  # frames passed to enumerate_nuclei
        self._open: list[int] = []

    def reset(self) -> None:
        self.spans, self.counts, self.frames, self._open = [], Counter(), {}, []

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._open
            if stack and tracer.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def _targets(self):
        """(owner, attribute, span name, hook) for every call site present."""
        out = []
        for name, (sites, hook) in SITES.items():
            attr = name.split(".")[1]
            for site in sites:
                if isinstance(site, tuple):
                    mod = _module(site[0])
                    owner = getattr(mod, site[1], None) if mod else None
                else:
                    owner = _module(site)
                if owner is not None and callable(getattr(owner, attr, None)):
                    out.append((owner, attr, name, hook))
        return out

    @contextlib.contextmanager
    def instrument(self):
        saved = []
        try:
            for owner, attr, name, hook in self._targets():
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, hook))
            theorems = _module("theorems")
            checkers = getattr(theorems, "_CHECKERS", {})
            for tid, fn in list(checkers.items()):
                saved.append((checkers, tid, fn))
                checkers[tid] = self._wrap(f"theorems.{tid}", fn, None)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                if isinstance(owner, dict):
                    owner[attr] = fn
                else:
                    setattr(owner, attr, fn)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times of the spans recorded so far."""
        covered = [0.0] * len(self.spans)
        in_check = [False] * len(self.spans)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                covered[parent] += end - start
                in_check[i] = in_check[parent]
            if name in _CHECKS:
                in_check[i] = True
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        total_s: defaultdict = defaultdict(float)
        evals_in_checks = 0
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - covered[i]
            total_s[name] += end - start
            if name == "pca.eval_term" and in_check[i]:
                evals_in_checks += 1

        m: dict[str, float] = {}
        for name in list(SITES) + [f"theorems.{t}" for t in THEOREM_IDS]:
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = self_s[name]
        for t in THEOREM_IDS:
            m[f"theorems.{t}.checked"] = self.counts[f"theorems.{t}.checked"]
        for key in ("frames.downset_frame.elements", "frames.table_bytes",
                    "frames.check_laws.bytes_computed", "kernels.kleene_table.cells",
                    "pca.eval_term.steps"):
            m[key] = self.counts[key]

        def ratio(a, b):
            return a / b if b else 0.0

        m["nuclei.enumerate_nuclei.per_frame"] = ratio(
            calls["nuclei.enumerate_nuclei"], len(self.frames))
        m["nuclei.validate_per_modality"] = ratio(
            calls["nuclei.validate_nucleus"], sum(calls[n] for n in _MODALITY))
        m["pca.eval_term.diverged_ratio"] = ratio(
            self.counts["pca.eval_term.diverged"], calls["pca.eval_term"])
        m["pca.steps_per_s"] = ratio(
            self.counts["pca.eval_term.steps"], total_s["pca.eval_term"])
        m["weihrauch.eval_per_check"] = ratio(
            evals_in_checks, sum(calls[n] for n in _CHECKS))
        return m

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[ids[n], round(s - t0, 7), round(e - t0, 7), p, j]
                for n, s, e, p, j in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent", "job"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))
