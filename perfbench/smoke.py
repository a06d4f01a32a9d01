#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny sizes (under a minute).

    python3 perfbench/smoke.py

It checks that
* every workload runs with ``--tiny``, untraced and traced, and that its last
  line carries exactly the metrics BENCHMARK.json names, each with its unit,
  and that each metric is also printed on a line of its own with its unit;
* two traced runs with one seed give identical counts;
* a job with a deliberately wrong expectation is counted as failed and
  lowers ``pass_rate``;
* in a directory that holds only BENCHMARK.json and perfbench/, run.py exits
  with a non-zero code and prints no result.
It exits with code 1 on the first problem.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "lattice", "modality", "realize")


def fail(msg: str) -> None:
    print(f"smoke: FAIL {msg}")
    sys.exit(1)


def bench(cwd: Path, workload: str, trace: int, seed: int = 7):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_output(workload: str, trace: int, spec: dict) -> dict:
    proc = bench(ROOT, workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-400:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload} trace={trace} is not correct: {lines[-25:]}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if list(result["metrics"]) != [m["name"] for m in wanted]:
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            fail(f"{workload}: metric {m['name']} is {got}")
        if not any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1]):
            fail(f"{workload}: metric {m['name']} is not printed with its unit")
    return result["metrics"]


def check_wrong_expectation() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    import worker
    import workloads

    work = ROOT / ".perfbench_work" / f"smoke-{os.getpid()}"
    try:
        wl = workloads.build("realize", 0, work, tiny=True)
        # "K S K" reduces to S and exits 0; expecting exit 3 is wrong on purpose
        wrong = workloads.cli_job("pca eval", ["pca", "eval", "--term", "K S K"], 3,
                                  lambda body: None)
        measured = worker.measure(wl.jobs + [wrong], until=0.0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = measured["failures"]
    if len(failures) != measured["passes"] or not all("expected 3" in f for f in failures):
        fail(f"wrong expectation not counted once per pass: {failures}")
    metrics = run.end_to_end(measured, [0.0], len(failures))
    want = 1.0 - 1.0 / (len(wl.jobs) + 1)
    if abs(metrics["pass_rate"] - want) > 1e-12:
        fail(f"pass_rate {metrics['pass_rate']}, expected {want}")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "realize", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("run.py printed a result without the package source")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in WORKLOADS:
        check_output(workload, 0, spec)
        first = check_output(workload, 1, spec)
        second = check_output(workload, 1, spec)
        for m in spec["per_layer"]:
            if m["unit"] != "s" and m["name"] not in ("pca.steps_per_s", "trace.overhead_ratio"):
                if first[m["name"]] != second[m["name"]]:
                    fail(f"{workload}: count {m['name']} differs between two traced runs")
        print(f"smoke: {workload} ok")
    check_wrong_expectation()
    print("smoke: wrong expectation counted in pass_rate")
    check_bare_directory()
    print("smoke: bare directory refused")
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
