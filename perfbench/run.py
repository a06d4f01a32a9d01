#!/usr/bin/env python3
"""oraclemod benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` it prints every end-to-end metric of
``BENCHMARK.json``, with ``--trace 1`` every per-layer metric.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Generated inputs live under
``.perfbench_work/`` while the run lasts; the run record and the spans of a
traced run are kept in ``.perfbench_out/``.

An end-to-end run lasts about ``--seconds`` in all.  It starts
SETUP_SAMPLES - 1 fresh processes that only set the workload up, then one
that sets up and runs the job list in passes until the time is up.
``setup_s`` is the median set-up time of all of them; a job's latency is the
median of its runs over the passes.  Times are CPU times scaled by a
calibration run next to them, which takes out the changing speed of a
shared host (see ``worker.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verify", "lattice", "modality", "realize")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0


def run_worker(args, work: Path, deadline: float, *extra: str) -> dict:
    out = work.with_suffix(".json")
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--workdir", str(work), "--out", str(out), *extra]
    if args.tiny:
        cmd.append("--tiny")
    # The package makes no BLAS calls; one BLAS thread keeps numpy's import
    # from adding the CPU time of idle pool threads to set-up.
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def end_to_end(run: dict, setup_cpu: list[float], failed: int) -> dict:
    """End-to-end metrics over the latency of each job in the list."""
    lat_ms = [x * 1000.0 for x in run["latencies"]]
    return {
        "setup_s": statistics.median(setup_cpu) * run["speed_factor"],
        "jobs_per_s": len(lat_ms) / (sum(lat_ms) / 1000.0),
        "job_ms.p50": statistics.median(lat_ms),
        "job_ms.p90": statistics.quantiles(lat_ms, n=10)[-1],
        "peak_rss_mb": run["peak_rss_mb"],
        "pass_rate": 1.0 - min(failed, run["attempted"]) / run["attempted"],
    }


def by_kind(run: dict) -> dict:
    """Job count, median latency and share of the total, per job kind."""
    groups: dict[str, list[float]] = {}
    for kind, lat in zip(run["kinds"], run["latencies"]):
        groups.setdefault(kind, []).append(lat * 1000.0)
    total = sum(run["latencies"]) * 1000.0
    return {k: {"jobs": len(v), "p50_ms": statistics.median(v), "share": sum(v) / total}
            for k, v in sorted(groups.items())}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="a few jobs per workload, for the smoke check")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not (ROOT / "src" / "oraclemod" / "__init__.py").is_file():
        sys.stderr.write(f"no package source under {ROOT / 'src'}; run from a checkout\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + TIME_LIMIT_S
    until = str(time.monotonic() + args.seconds)
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    work = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            run = run_worker(args, work / "traced", deadline, "--until", until,
                             "--spans", str(outdir / f"{tag}-spans.json"))
            workers = [run]
        else:
            workers = [run_worker(args, work / f"setup{i}", deadline)
                       for i in range(SETUP_SAMPLES - 1)]
            run = run_worker(args, work / "measured", deadline, "--until", until)
            workers.append(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failures = list(run["failures"])
    for w in workers:
        failures += [f"warm-up {f}" for f in w["warmup_failures"]]
    if len({w["inputs_sha256"] for w in workers}) != 1:
        failures.append("workers generated different inputs from one seed")
    attempted = run["attempted"]
    setup_cpu = [w["setup_cpu_s"] for w in workers]
    computed = run["layers"] if args.trace else end_to_end(run, setup_cpu, len(failures))
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}
    env = workers[0]["env"]
    reports_repeatable = (all(r == run["reports"][0] for r in run["reports"])
                          if "reports" in run else None)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "inputs_sha256": workers[0]["inputs_sha256"],
        "workers": len(workers), "passes": run["passes"],
        "jobs_per_pass": workers[0]["jobs_per_pass"],
        "pass_cpu_s": run.get("pass_cpu_s"),
        "setup_cpu_samples_s": setup_cpu,
        "speed_factor": run.get("speed_factor"),
        "cpu_job_ms": None if args.trace else [x * 1000.0 for x in run["cpu_latencies"]],
        "setup_wall_samples_s": [w["setup_wall_s"] for w in workers],
        "metrics": metrics, "failures": failures,
        "report_sha256": run["reports"][0] if "reports" in run else None,
        "reports_repeatable": reports_repeatable,
        "by_kind": None if args.trace else by_kind(run),
    }
    (outdir / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}: {len(workers)} workers, "
          f"{run['passes']} passes of {record['jobs_per_pass']} jobs")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"inputs_sha256 {record['inputs_sha256']}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_rate {len(failures) / attempted:.6g} ratio ({len(failures)} of {attempted} jobs)")
    if not args.trace:
        cpu_ms = record["cpu_job_ms"]
        print(f"job_ms samples {len(cpu_ms)}, each the median of {run['passes']} runs; "
              f"reports byte-identical across runs: {reports_repeatable}")
        print(f"unscaled CPU time: setup {statistics.median(record['setup_cpu_samples_s']):.4g} s, "
              f"job p50 {statistics.median(cpu_ms):.4g} ms, "
              f"p90 {statistics.quantiles(cpu_ms, n=10)[-1]:.4g} ms")
        for kind, row in record["by_kind"].items():
            print(f"  {kind}: {row['jobs']} jobs, p50 {row['p50_ms']:.3g} ms, "
                  f"{100 * row['share']:.1f}% of job time")
    for f in failures[:20]:
        print(f"FAILED {f}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
