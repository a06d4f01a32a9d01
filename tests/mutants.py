#!/usr/bin/env python3
"""Mutation harness: each fast route's referees must notice it broken.

    python tests/mutants.py [NAME ...]

Each mutant names a file under ``src/oraclemod``, an exact snippet of it,
the snippet's replacement and the test files that must kill it. For each
mutant (or only the named ones) the harness copies ``src``, ``tests`` and
``pyproject.toml`` to a temporary directory, applies the replacement there
and runs the mutant's test files with ``pytest -x -q``. A mutant is killed
when that run reports a failed test (pytest exit code 1); an error before
any test runs, such as a collection error, does not count. An equivalent
mutant carries a one-line reason, and its run must pass. A snippet that
does not occur exactly once fails the harness before any run, so the list
has to follow the code.

It prints one line per mutant and exits 1 if any mutant survives, if an
equivalent one is killed or if a snippet does not match. pytest does not
collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI = "src/oraclemod/cli.py"
CONTAINERS = "src/oraclemod/containers.py"
FRAMES = "src/oraclemod/frames.py"
KERNELS = "src/oraclemod/_kernels.py"
NUCLEI = "src/oraclemod/nuclei.py"
PCA = "src/oraclemod/pca.py"
THEOREMS = "src/oraclemod/theorems.py"
TREES = "src/oraclemod/trees.py"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]
    # why the mutant computes the same results; None for a mutant to kill
    equivalent: str | None = None


MUTANTS = (
    Mutant(
        "query padding not bottom", KERNELS,
        "e_slots = np.full((m, width), bot, dtype=np.int32)",
        "e_slots = np.full((m, width), n - 1, dtype=np.int32)",
        ("tests/test_kernels.py",),
    ),
    Mutant(
        "query ext and prd swapped", KERNELS,
        "e_slots[filled], p_slots[filled] = ext, prd",
        "e_slots[filled], p_slots[filled] = prd, ext",
        ("tests/test_kernels.py",),
    ),
    Mutant(
        "query cross-block join dropped", KERNELS,
        "q[rows] = part if cols.start == 0 else join_flat.take(q[rows] * n + part)",
        "q[rows] = part",
        ("tests/test_kernels.py",),
    ),
    Mutant(
        "one Kleene round", KERNELS,
        "            if (nxt == t).all():\n                break\n            t = nxt\n",
        "            t = nxt\n            break\n",
        ("tests/test_kernels.py",),
    ),
    Mutant(
        "Kleene maps never written", KERNELS,
        "        maps[:] = q\n",
        "        pass\n",
        ("tests/test_kernels.py",),
    ),
    Mutant(
        "Kleene chunks of the whole batch", KERNELS,
        "for block in frames.blocks(q.shape[0], n):",
        "for block in frames.blocks(q.shape[0], 1):",
        ("tests/test_kernels.py",),
        equivalent="each row iterates on its own, so the chunk size changes only memory",
    ),
    Mutant(
        "prefixed_mask adjunction sides swapped", KERNELS,
        "leq_flat = leq.ravel()",
        "leq_flat = leq.T.ravel()",
        ("tests/test_kernels.py",),
    ),
    Mutant(
        "prefixed_mask first block skipped", KERNELS,
        "for rows in frames.blocks(ext.shape[0], n):",
        "for rows in frames.blocks(ext.shape[0], n)[1:]:",
        ("tests/test_kernels.py",),
    ),
    Mutant(
        "meet keeps the parent's row where b holds x", FRAMES,
        "np.where(self.label_members.T, np.arange(0, n * labels, n)[:, None], n * labels)",
        "np.where(self.label_members.T, n * labels, np.arange(0, n * labels, n)[:, None])",
        ("tests/test_frames.py",),
    ),
    Mutant(
        "join drops add[x]", FRAMES,
        "offsets = np.arange(0, n * labels, n).repeat(n).reshape(labels, n)",
        "offsets = np.full((labels, n), n * labels)",
        ("tests/test_frames.py",),
    ),
    Mutant(
        "implies folds by join", FRAMES,
        "self._level_pass(self.top_index, self.meet_table,",
        "self._level_pass(self.top_index, self.join_table,",
        ("tests/test_frames.py",),
    ),
    Mutant(
        "level pass unblocked", FRAMES,
        "cuts.union(b.stop for b in blocks(n, n))",
        "cuts.union(b.stop for b in blocks(1, n))",
        ("tests/test_frames.py",),
    ),
    Mutant(
        "build cost unchecked before enumerating", FRAMES,
        "    _check_build_cost(labels, labels + 1)\n",
        "",
        ("tests/test_frames.py",),
    ),
    Mutant(
        "build cost unchecked after each label", FRAMES,
        "        _check_build_cost(labels, len(downsets))\n",
        "",
        ("tests/test_frames.py",),
    ),
    Mutant(
        "nucleus_rows accepts all", NUCLEI,
        "ok[rows] = _is_own_j(frame, tables[rows])",
        "ok[rows] = True",
        ("tests/test_kernels.py", "tests/test_nuclei.py"),
    ),
    Mutant(
        "batch judge reads the next shape's row", CONTAINERS,
        "ok = self.frame.leq_table[self.ext, tables[row, self.prd]]",
        "ok = self.frame.leq_table[self.ext, tables[np.append(row[1:], row[-1:]), self.prd]]",
        ("tests/test_containers.py",),
    ),
    Mutant(
        "batch judge finds an empty row unforced", CONTAINERS,
        "return np.bincount(row[~ok], minlength=m) == 0",
        "return (np.bincount(row[~ok], minlength=m) == 0) & (self.counts > 0)",
        ("tests/test_containers.py",),
    ),
    Mutant(
        "encoder memo keyed without the indent", CLI,
        "key = (id(x), inner)",
        "key = id(x)",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "shared-pass slice off by one", THEOREMS,
        "referee, tables[lo:hi], maps[lo:hi])",
        "referee, tables[lo + 1:hi + 1], maps[lo + 1:hi + 1])",
        ("tests/test_theorems.py",),
    ),
    Mutant(
        "oracle-leq pairs a container with itself", THEOREMS,
        "b = a + 1",
        "b = a",
        ("tests/test_theorems.py",),
    ),
    Mutant(
        "sup checked against a summand", THEOREMS,
        "sums = modalities[2::3]",
        "sums = modalities[1::3]",
        ("tests/test_theorems.py",),
    ),
    Mutant(
        "subset read-back not negated", NUCLEI,
        "return ~members[table.take(frame.label_strict, axis=-1), np.arange(members.shape[1])]",
        "return members[table.take(frame.label_strict, axis=-1), np.arange(members.shape[1])]",
        ("tests/test_subsets.py",),
    ),
    Mutant(
        "bad set keeps P(a) in place of dropping it", CONTAINERS,
        "bad = (members[c.ext] & ~members[c.prd]).any(axis=0)",
        "bad = (members[c.ext] & members[c.prd]).any(axis=0)",
        ("tests/test_containers.py",),
    ),
    Mutant(
        "cycle error names the last pair", FRAMES,
        "return min(found)",
        "return max(found)",
        ("tests/test_frames.py",),
    ),
    Mutant(
        "randbelow bit count of n - 1", "src/oraclemod/_draws.py",
        "k = n.bit_length()",
        "k = (n - 1).bit_length()",
        ("tests/test_draws.py",),
    ),
    Mutant(
        "membership decided by the first child", TREES,
        "        if not membership(c, x, sub):\n            return False\n",
        "        return membership(c, x, sub)\n",
        ("tests/test_trees.py",),
    ),
    Mutant(
        "monad-law memo binds f for g", TREES,
        "fg = {v: tree_bind(g, f(v)) for v in values}",
        "fg = {v: tree_bind(f, f(v)) for v in values}",
        ("tests/test_trees.py",),
    ),
    Mutant(
        "suite containers drawn from one position fewer", TREES,
        "_POSITIONS[randbelow(rng, MAX_POSITIONS + 1)]",
        "_POSITIONS[randbelow(rng, MAX_POSITIONS)]",
        ("tests/test_trees.py",),
    ),
    Mutant(
        "S K y z charged one step", PCA,
        "fuel -= 2",
        "fuel -= 1",
        ("tests/test_pca.py",),
    ),
    Mutant(
        "S K y z contracted with one step of fuel left", PCA,
        "if x is K and fuel >= 2:",
        "if x is K and fuel >= 1:",
        ("tests/test_pca.py",),
    ),
    Mutant(
        "tokenizer skips a stray character", PCA,
        "stray = _STRAY.search(src)",
        "stray = None",
        ("tests/test_pca.py",),
    ),
)


def check_snippets(mutants) -> list[str]:
    """The problems of snippets that do not occur exactly once."""
    problems = []
    for m in mutants:
        found = (ROOT / m.path).read_text(encoding="utf-8").count(m.snippet)
        if found != 1:
            problems.append(f"{m.name}: snippet occurs {found} times in {m.path}")
    return problems


def run_mutant(m: Mutant) -> tuple[bool, str]:
    """(whether the mutant met its expectation, a one-line outcome)."""
    with tempfile.TemporaryDirectory(prefix="oraclemod-mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "src", work / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        target = work / m.path
        text = target.read_text(encoding="utf-8")
        target.write_text(text.replace(m.snippet, m.replacement), encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", *m.tests],
                              cwd=work, env={**os.environ, "PYTHONPATH": str(work / "src")},
                              capture_output=True, text=True, timeout=600)
    last = (proc.stdout.strip().splitlines() or ["no output"])[-1]
    if m.equivalent is not None:
        return proc.returncode == 0, f"equivalent ({m.equivalent}): {last}"
    if proc.returncode == 1:
        return True, f"killed: {last}"
    return False, f"survived (pytest exit {proc.returncode}): {last}"


def main(argv: list[str]) -> int:
    mutants = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"mutants: unknown names {sorted(unknown)}")
        return 1
    problems = check_snippets(mutants)
    for p in problems:
        print(f"mutants: FAIL {p}")
    if problems:
        return 1
    failed = 0
    for m in mutants:
        ok, outcome = run_mutant(m)
        failed += not ok
        print(f"mutants: {'ok  ' if ok else 'FAIL'} {m.name}: {outcome}", flush=True)
    print(f"mutants: {len(mutants) - failed} of {len(mutants)} as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
