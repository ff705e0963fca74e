"""The repo benchmark: end-to-end and per-layer numbers of the optimizer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rot-cold --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table each

Each workload is a fixed list of jobs (see ``workloads.py``).  A run sets
up, then starts measured passes, one fresh worker process per pass, until
the next pass would end after ``--seconds`` (at least one pass).  Every
pass optimizes, equivalence-checks and maps every job, and every output is
checked.  The run prints one table per workload — every end-to-end metric
by name with its unit, then one row per circuit — and an environment
stamp, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

The end-to-end times are speed-normalised (``speed.py``): the run pins
itself and its workers to one CPU, samples that CPU's speed while a
worker runs, and reports each measured interval in seconds of a
reference machine, because on a small shared host one vCPU's speed
drifts by tens of percent within minutes.  The tables also show the
plain wall times (``wall``), which are not metrics.  The per-layer
times of a traced pass are wall times from its spans.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced one (``tracing.py``), plus
``trace.overhead_s``: traced minus untraced optimize time, both
speed-normalised.  That is one pass against one pass, so it may come
out negative.  The traced pass also writes its spans as Chrome trace-event JSON to
``perfbench/out/<workload>-seed<N>.trace.json``.

``--out FILE`` also writes the full result with its environment stamp;
``compare.py`` compares two such files and refuses to compare results
from different CPU models, CPU counts or Python versions.

The rows of ``BENCH_speed.json`` are single-shot timings from
``benchmarks/bench_speed.py`` and are not comparable with this benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import speed
import tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

SETUPS = 9
"""Set-ups per run; ``setup_s`` is their median."""

RUN_LIMIT_S = 170.0
"""Wall-clock budget of one run, workers included."""

UNITS = {
    "optimize_s": "s",
    "check_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "levels": "count",
    "ands": "count",
    "delay_ps": "ps_sta",
    "power_uw": "uW",
}
"""End-to-end metrics.  ``delay_ps`` is the static-timing delay of the
mapped netlist: a deterministic QoR figure, not a measured wall time."""

QOR = ("levels", "ands", "delay_ps", "power_uw")


class WorkerFailed(RuntimeError):
    """A worker process crashed or ran past the run's time budget."""


def _worker(args: List[str], deadline: float) -> Dict[str, Any]:
    """Run one worker process to completion; its parsed JSON result.

    Every ``*_wall_s`` time the worker reports gets a speed-normalised
    ``*_s`` twin (``speed.py``), and the intervals behind it are dropped.
    """
    timeout = max(1.0, deadline - time.monotonic())
    out_path = os.path.join(wl.OUT_DIR, "worker.out")
    err_path = os.path.join(wl.OUT_DIR, "worker.err")
    try:
        with open(out_path, "w") as out, open(err_path, "w") as err:
            code, samples = speed.run_sampled(
                [sys.executable, WORKER, *args], wl.ROOT, timeout, out, err,
            )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {args} ran past the run's time budget")
    with open(err_path) as fh:
        stderr = fh.read()
    if code != 0:
        raise WorkerFailed(f"worker {args} exited {code}:\n{stderr[-4000:]}")
    sys.stderr.write(stderr)
    with open(out_path) as fh:
        result = json.loads(fh.read().strip().splitlines()[-1])
    for record in [result, *result.get("jobs", ())]:
        for key in ("setup", "optimize", "check"):
            intervals = record.pop(key + "_intervals", None)
            if intervals is not None:
                record[key + "_s"] = (
                    record[key + "_wall_s"] * samples.factor(intervals)
                )
    return result


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- environment stamp ---------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha() -> Optional[str]:
    """HEAD of the checkout, or None when the checkout is not a git tree."""
    if not os.path.exists(os.path.join(wl.ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=wl.ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha() -> str:
    """Content hash of the program source (the checkout may not be git)."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(wl.SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, wl.SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def environment_stamp() -> Dict[str, Any]:
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": _nproc(),
        "loadavg_before": list(os.getloadavg()),
    }


# -- one workload ----------------------------------------------------------------


def _job_errors(passes: List[Dict[str, Any]]) -> List[List[List[str]]]:
    """Per pass, per job: the reasons the job failed (empty = passed).

    Beyond the worker's own checks, every pass must reproduce the first
    pass's output text.  That check needs two passes: a traced run always
    makes two (untraced, then traced); an untraced run makes a second
    only when it fits into ``--seconds``.
    """
    first = [row.get("digest") for row in passes[0]["jobs"]]
    errors = []
    for p in passes:
        per_job = []
        for i, row in enumerate(p["jobs"]):
            reasons = list(row["errors"])
            if "digest" in row and row["digest"] != first[i]:
                reasons.append("output differs from the first pass")
            per_job.append(reasons)
        errors.append(per_job)
    return errors


def run_workload(
    name: str, seed: int, seconds: float, trace: bool,
) -> Dict[str, Any]:
    jobs = wl.workloads()[name]
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", name, "--seed", str(seed)]
    setups: List[float] = []

    def one_pass(extra: List[str]) -> Dict[str, Any]:
        return _worker(common + ["--role", "pass"] + extra, deadline)

    passes: List[Dict[str, Any]] = []
    layers = counters = None
    if trace:
        untraced = one_pass([])
        trace_file = os.path.join(wl.OUT_DIR, f"{name}-seed{seed}.trace.json")
        traced = one_pass(["--trace", "1", "--trace-file", trace_file])
        passes = [untraced, traced]
        layers = dict(traced["layers"])
        counters = traced["counters"]
        layers["trace.overhead_s"] = sum(
            r.get("optimize_s", 0.0) for r in traced["jobs"]
        ) - sum(r.get("optimize_s", 0.0) for r in untraced["jobs"])
    else:
        start = time.monotonic()
        while True:
            pass_start = time.monotonic()
            passes.append(one_pass([]))
            now = time.monotonic()
            if now + (now - pass_start) > start + seconds:
                break
        setup_runs = passes[:SETUPS]
        while len(setup_runs) < SETUPS:
            setup_runs.append(_worker(common + ["--role", "setup"], deadline))
        setups = [r["setup_s"] for r in setup_runs]
        setup_walls = [r["setup_wall_s"] for r in setup_runs]

    errors = _job_errors(passes)
    attempted = sum(len(e) for e in errors)
    failed = sum(1 for per_job in errors for reasons in per_job if reasons)

    def pass_total(p, key):
        return sum(row.get(key, 0.0) for row in p["jobs"])

    rows = []
    for i in range(len(jobs)):
        measured = [p["jobs"][i] for p in passes if "levels" in p["jobs"][i]]
        row = dict(measured[0] if measured else passes[0]["jobs"][i])
        for key in ("optimize_s", "optimize_wall_s"):
            row[key] = statistics.median(
                p["jobs"][i].get(key, 0.0) for p in passes)
        row["errors"] = sorted({r for e in errors for r in e[i]})
        rows.append(row)
    metrics: Dict[str, float] = {}
    walls: Dict[str, float] = {}
    if not trace:
        metrics = {
            "optimize_s": statistics.median(
                pass_total(p, "optimize_s") for p in passes),
            "check_s": statistics.median(
                pass_total(p, "check_s") for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(
                p["peak_rss_mb"] for p in passes),
        }
        walls = {
            "optimize_s": statistics.median(
                pass_total(p, "optimize_wall_s") for p in passes),
            "check_s": statistics.median(
                pass_total(p, "check_wall_s") for p in passes),
            "setup_s": statistics.median(setup_walls),
        }
        for key in QOR:
            values = [row[key] for row in rows if key in row]
            metrics[key] = _geomean(values) if values else None
    return {
        "workload": name,
        "seed": seed,
        "passes": len(passes),
        "setups": len(setups),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "wall": walls,
        "layers": layers,
        "counters": counters,
        "rows": rows,
    }


def print_table(result: Dict[str, Any]) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"passes {result['passes']}  set-ups {result['setups']}  "
          f"failed {result['failed']}/{result['attempted']}")
    if result["layers"] is not None:
        for key, value in result["layers"].items():
            print(f"  {key:<26s} {value:>16.6f} {tracing.UNITS[key]}")
    for key, value in result["metrics"].items():
        shown = "missing" if value is None else f"{value:>16.6f}"
        wall = result["wall"].get(key)
        wall = "" if wall is None else f"  (wall {wall:.6f} s)"
        print(f"  {key:<26s} {shown} {UNITS[key]}{wall}")
    print(f"  {'circuit':<10s} {'levels':>6s} {'ands':>6s} {'delay_ps':>9s} "
          f"{'power_uw':>9s} {'optimize_s':>10s} {'wall':>8s} "
          f"{'check_s':>8s}  status")
    for row in result["rows"]:
        if "levels" in row:
            print(f"  {row['circuit']:<10s} {row['levels']:>6d} "
                  f"{row['ands']:>6d} {row['delay_ps']:>9.1f} "
                  f"{row['power_uw']:>9.2f} {row['optimize_s']:>10.3f} "
                  f"{row['optimize_wall_s']:>8.3f} {row['check_s']:>8.3f}  "
                  f"{'ok' if not row['errors'] else 'FAILED'}")
        else:
            print(f"  {row['circuit']:<10s} {'-':>6s} {'-':>6s} {'-':>9s} "
                  f"{'-':>9s} {'-':>10s} {'-':>8s} {'-':>8s}  FAILED")
        for reason in row["errors"]:
            print(f"      {reason.splitlines()[0]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=wl.WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result as JSON")
    args = parser.parse_args(argv)

    wl.require_source()
    stamp = environment_stamp()
    names = wl.WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    os.makedirs(wl.OUT_DIR, exist_ok=True)
    speed.pin_to_one_cpu()
    results = [
        run_workload(name, args.seed, args.seconds, bool(args.trace))
        for name in names
    ]
    stamp["loadavg_after"] = list(os.getloadavg())
    for result in results:
        print_table(result)
    print("env " + json.dumps(stamp, sort_keys=True))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"stamp": stamp, "results": results}, fh, indent=1)

    metrics: Dict[str, Dict[str, Any]] = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        values = result["layers"] if args.trace else result["metrics"]
        for key, value in values.items():
            if value is None:
                print(f"error: {result['workload']}: no value for {key}",
                      file=sys.stderr)
                return 1
            unit = UNITS.get(key) or tracing.UNITS[key]
            metrics[prefix + key] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except wl.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
