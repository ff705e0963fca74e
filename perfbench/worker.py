"""One benchmark process: a set-up or a measured pass.

``run.py`` starts one of these per pass so that every pass begins with
cold process state, as a fresh ``repro optimize`` invocation does.  The
worker prints one JSON object as the last line of its standard output.

Roles:

* ``setup``: import the program and generate the workload's circuits;
* ``pass``: set-up, then optimize and check every job.

The worker reports wall times, with the ``time.monotonic()`` intervals
they were measured in; ``run.py`` normalises them by the CPU speed it
sampled meanwhile (``speed.py``).

Untraced, a job's check runs ``Job.check_reps`` times and its
``check_s`` is the mean.  Traced, it runs once, so the span counts
stay deterministic.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List

import workloads as wl


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"


@contextmanager
def _timed(intervals: List[List[float]]) -> Iterator[None]:
    """Append the enclosed interval to ``intervals``."""
    start = time.monotonic()
    try:
        yield
    finally:
        intervals.append([start, time.monotonic()])


def _wall(intervals: List[List[float]]) -> float:
    return sum(end - start for start, end in intervals)


def run(args: argparse.Namespace) -> Dict[str, Any]:
    setup: List[List[float]] = []
    with _timed(setup):
        wl.require_source()
        import repro.adders  # noqa: F401  (the set-up cost users pay)
        import repro.bench  # noqa: F401
        import repro.cec  # noqa: F401
        import repro.core.flow  # noqa: F401
        import repro.mapping  # noqa: F401

        jobs = wl.workloads()[args.workload]
        inputs = wl.make_inputs(jobs, args.seed)
    result: Dict[str, Any] = {
        "setup_wall_s": _wall(setup), "setup_intervals": setup,
    }
    if args.role == "setup":
        return result

    from repro import perf

    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder()
        recorder.install()
    rows = []
    for job, aig in zip(jobs, inputs):
        row: Dict[str, Any] = {"circuit": job.circuit, "errors": []}
        rows.append(row)
        if recorder is not None:
            recorder.job = job.circuit
        optimize: List[List[float]] = []
        try:
            with _timed(optimize):
                out = wl.optimize(job, aig)
        except Exception as exc:  # a failed job keeps its input
            row["errors"].append(_failure(exc))
            out = aig
        row["optimize_wall_s"] = _wall(optimize)
        row["optimize_intervals"] = optimize

        check: List[List[float]] = []
        reps = 1 if recorder is not None else job.check_reps
        try:
            for _ in range(reps):
                with _timed(check):
                    qor = wl.check(
                        job, aig, out,
                        recorder.span if recorder is not None else None,
                    )
            row["check_wall_s"] = _wall(check) / reps
            row["check_intervals"] = check
            row["errors"] += qor.pop("errors")
            row.update(qor)
            row["digest"] = wl.text_digest(out)
        except Exception as exc:  # one failed job, not a failed run
            row["errors"].append(_failure(exc))
    result["jobs"] = rows
    result["peak_rss_mb"] = _peak_rss_mb()
    if recorder is not None:
        recorder.remove()
        counters = perf.snapshot()["counters"]
        result["layers"] = tracing.layer_metrics(recorder, counters)
        result["counters"] = counters
        if args.trace_file:
            with open(args.trace_file, "w") as fh:
                json.dump({
                    "traceEvents": recorder.chrome_trace(),
                    "displayTimeUnit": "ms",
                    "otherData": {
                        "workload": args.workload, "seed": args.seed,
                    },
                }, fh)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=("setup", "pass"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)

    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except wl.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
