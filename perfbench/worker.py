#!/usr/bin/env python3
"""One measured process: set up a workload, then run its job list in passes.

``run.py`` starts this script in fresh processes, so that set-up time covers
importing the package and peak RSS belongs to a single workload run.  The
result goes to the JSON file named by ``--out``.

Set-up and jobs are timed in CPU time of this process (``time.process_time``,
user plus system).  The jobs are single-threaded and do not wait, so this is
their wall time less the time the process was not running at all.  A shared
host also runs the process slower at times, by up to half, and the speed
changes within tens of milliseconds.  So right after each timed job the
worker times a fixed calibration computation (``calibrate``, code of this
file only) for about a tenth of the job's time, and reports the job's time
scaled by ``CAL_REF_S`` ÷ the calibration's mean chunk time: the job's CPU
time on a host where one calibration chunk takes ``CAL_REF_S``.  Set-up
CPU time is scaled by ``speed_factor``, the same ratio over the whole run:
calibration right around a half-second set-up tracked it worse than no
scaling at all.  Wall time (``time.monotonic``) only decides when the passes stop.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# Mean CPU time of one calibration chunk on the 2-core shared VM the
# benchmark was tuned on (Python 3.11, numpy 2.4): scaled times read close to
# plain CPU times there.
CAL_REF_S = 0.0005
# Calibration after a job lasts at least this share of the job's time.
CAL_SHARE = 0.1
_CAL_RNG = np.random.default_rng(12345)
_CAL_TABLE = _CAL_RNG.integers(0, 243, size=(243, 243)).astype(np.int32)
_CAL_INDEX = _CAL_RNG.integers(0, 243, size=(4, 243)).astype(np.int32)

# Layer metrics that are times; every other layer metric is a count or a
# ratio of counts and must repeat exactly from one traced pass to the next.
TIMED_SUFFIXES = ("self_s", "steps_per_s")


def git_commit(root: Path) -> str | None:
    """The checked-out commit, or None outside a git work tree."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy

    src = ROOT / "src" / "oraclemod"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "ORACLEMOD_NO_NUMBA": os.environ.get("ORACLEMOD_NO_NUMBA"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(ROOT),
        "source_sha256": digest.hexdigest(),
    }


def calibrate() -> int:
    """A fixed mix like the work the package does: dict, set and int
    operations in the interpreter, and numpy lookups in a 243 x 243 table."""
    d: dict[int, int] = {}
    for i in range(600):
        d[i % 97] = d.get(i % 97, 0) + (i * 31) % 7
    s = frozenset(range(0, 60, 3))
    for i in range(60):
        d[i] = len(s | {i})
    t = _CAL_INDEX[0]
    for k in range(40):
        t = _CAL_TABLE[t, _CAL_INDEX[k % 4]]
    return int(t[0]) + len(d)


def calibration(at_least: float) -> tuple[float, int]:
    """CPU time and count of calibration chunks run for ``at_least`` seconds
    of CPU time, and for one chunk at least."""
    spent, chunks = 0.0, 0
    while not chunks or spent < at_least:
        t0 = time.process_time()
        calibrate()
        spent += time.process_time() - t0
        chunks += 1
    return spent, chunks


def run_pass(jobs, tracer=None, calibrated: bool = False) -> dict:
    """Run every job once, closed loop; only the call itself is timed.  With
    ``calibrated`` the calibration runs right after each job (see the module
    docstring) and its mean chunk time goes into ``cal``."""
    latencies, cal, failures, reports = [], [], [], []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        t0 = time.process_time()
        try:
            outcome, error = job.run(), None
        except Exception as e:  # a job that raises is a failed job, not a crash
            outcome, error = None, e
        latencies.append(time.process_time() - t0)
        if calibrated:
            spent, chunks = calibration(CAL_SHARE * latencies[-1])
            cal.append(spent / chunks)
        if error is not None:
            failures.append(f"job {i} ({job.kind}) raised {error!r}")
            continue
        try:
            problem = job.check(outcome)
        except Exception as e:
            problem = f"check raised {e!r}"
        if problem:
            failures.append(f"job {i} ({job.kind}): {problem}")
        if job.is_cli:
            reports.append(hashlib.sha256(outcome[1].encode()).hexdigest())
    return {"latencies": latencies, "cal": cal, "failures": failures, "reports": reports}


def measure(jobs, until: float) -> dict:
    """Repeat the job list in passes, at least one, while the next pass is
    expected to end before ``until`` (a ``time.monotonic()`` reading).  A
    job's latency is the median over the passes of its scaled time.

    On a shared host each CPU has slow spells of its own, and a process tends
    to stay on one CPU, so the passes take turns on the CPUs this process may
    use."""
    cpus = sorted(os.sched_getaffinity(0))
    passes = []
    try:
        while True:
            os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
            t0 = time.monotonic()
            passes.append(run_pass(jobs, calibrated=True))
            now = time.monotonic()
            if now + (now - t0) > until:
                break
    finally:
        os.sched_setaffinity(0, cpus)
    return {
        "passes": len(passes),
        "latencies": [statistics.median(p["latencies"][i] / p["cal"][i] * CAL_REF_S
                                        for p in passes) for i in range(len(jobs))],
        "cpu_latencies": [statistics.median(p["latencies"][i] for p in passes)
                          for i in range(len(jobs))],
        "speed_factor": CAL_REF_S / statistics.fmean(c for p in passes for c in p["cal"]),
        "kinds": [job.kind for job in jobs],
        "failures": [f for p in passes for f in p["failures"]],
        "attempted": len(passes) * len(jobs),
        "reports": [p["reports"] for p in passes],
        "pass_cpu_s": [sum(p["latencies"]) for p in passes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(jobs, until: float, spans_path: Path) -> dict:
    """Alternate untraced and traced passes until ``until`` (at least one
    pair).  Counts must repeat exactly from one traced pass to the next;
    times come from the fastest traced pass, and the tracing overhead is the
    median over the pairs of traced over untraced time, both scaled."""
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced, layers, failures = [], [], [], []
    t0 = now = time.monotonic()
    while not layers or now + (now - t0) <= until:
        t0 = time.monotonic()
        plain = run_pass(jobs, calibrated=True)
        tracer.reset()
        with tracer.instrument():
            seen = run_pass(jobs, tracer, calibrated=True)
        if not layers:
            tracer.dump(spans_path)
        layers.append(tracer.layer_metrics())
        untraced.append(sum(t / c for t, c in zip(plain["latencies"], plain["cal"])))
        traced.append(sum(t / c for t, c in zip(seen["latencies"], seen["cal"])))
        failures += plain["failures"] + seen["failures"]
        now = time.monotonic()
    out = dict(layers[traced.index(min(traced))])
    for key, value in layers[0].items():
        if not key.endswith(TIMED_SUFFIXES) and any(m[key] != value for m in layers):
            failures.append(f"trace count {key} differs between passes")
    out["trace.overhead_ratio"] = statistics.median(t / u for t, u in zip(traced, untraced))
    return {
        "passes": 2 * len(layers),
        "attempted": 2 * len(layers) * len(jobs),
        "failures": failures,
        "layers": out,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--until", type=float,
                    help="time.monotonic() reading after which no pass starts; "
                         "without it the worker only sets up")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import oraclemod

    if Path(oraclemod.__file__).resolve().parent != (ROOT / "src" / "oraclemod").resolve():
        raise SystemExit(f"imported oraclemod from {oraclemod.__file__}, not this checkout")
    import workloads

    wl = workloads.build(args.workload, args.seed, Path(args.workdir), tiny=args.tiny)
    warm = run_pass(wl.warmup)
    setup_cpu_s = time.process_time()  # CPU time since the process started
    result = {"setup_cpu_s": setup_cpu_s, "setup_wall_s": time.perf_counter() - T0,
              "inputs_sha256": wl.digest, "jobs_per_pass": len(wl.jobs),
              "warmup_failures": warm["failures"], "env": environment()}
    if args.trace:
        result.update(measure_traced(wl.jobs, args.until, Path(args.spans)))
    elif args.until is not None:
        result.update(measure(wl.jobs, args.until))
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
