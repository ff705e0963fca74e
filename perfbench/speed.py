"""Speed-normalised timing for a shared host.

On a small shared machine the speed of one vCPU drifts: a fixed loop of
pure-Python work takes anywhere from 0.55 to 0.87 s within a minute, and
a whole optimize pass may run up to twice as long in one window of
minutes as in another.  The two vCPUs drift independently (over one
minute, the per-second speeds of two loops on the two vCPUs correlated
at 0.02), so the drift has to be measured on the vCPU the program runs
on, while it runs.

:func:`run_sampled` does that.  The benchmark pins itself to one CPU
(:func:`pin_to_one_cpu`) and starts the worker there; while the worker
runs, it wakes every :data:`TICK_S` seconds to time one fixed chunk of
pure-Python work (:func:`_probe`) on the same CPU.  Each sample is the
CPU's speed at that moment.  The worker itself is left alone: a sampler
inside it, run from a ``SIGALRM`` handler, made the adders' peak RSS
jump between 66, 80 and 99 MB from run to run.  The probes take about
2% of the CPU (about 0.1 ms every 5 ms), the same on every commit.

A measured interval of ``wall`` seconds whose samples took ``c_i``
seconds each is reported as::

    wall * REFERENCE_PROBE_S * mean(1 / c_i)

that is, the integral of the sampled speed over the interval, in seconds
of a machine on which one probe takes :data:`REFERENCE_PROBE_S`.  A slow
sample (a probe interrupted by the host) weighs little in ``1 / c``, so
single outliers do not move the result.
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import time
from typing import IO, List, Sequence, Tuple

TICK_S = 0.005
"""Sleep between two speed probes."""

REFERENCE_PROBE_S = 110e-6
"""Probe time of the reference machine the results are expressed in."""

Interval = Sequence[float]
"""``(start, end)`` on the ``time.monotonic()`` clock, which every process
of the machine shares."""


class _Slot:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _mix(slot: _Slot, x: int) -> int:
    return slot.a ^ (x + slot.b)


def _probe() -> int:
    """A fixed chunk of the kind of work the program does: dict updates,
    small objects, calls and a list sort."""
    table = {}
    for i in range(300):
        table[i & 63] = table.get(i & 63, 0) + (i * 7) % 13
    acc = 0
    values = []
    for i in range(120):
        acc = _mix(_Slot(i, i >> 1), acc) & 0xFFFF
        values.append(acc)
    values.sort()
    return acc + len(table)


def pin_to_one_cpu() -> None:
    """Pin this process, and the workers it starts, to one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Samples:
    """Speed samples of one worker: probe start times and ``1 / c``."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.speeds: List[float] = []

    def add(self, start: float, duration: float) -> None:
        self.times.append(start)
        self.speeds.append(1.0 / duration)

    def factor(self, intervals: List[Interval]) -> float:
        """Reference seconds per wall second over ``intervals``.

        Intervals too short to hold a probe take the speed of the whole
        worker.
        """
        if not self.speeds:
            raise RuntimeError("no speed probe ran while the worker ran")
        inside: List[float] = []
        for start, end in intervals:
            inside += self.speeds[
                bisect.bisect_left(self.times, start):
                bisect.bisect_left(self.times, end)
            ]
        return REFERENCE_PROBE_S * statistics.fmean(inside or self.speeds)


def run_sampled(
    cmd: List[str], cwd: str, timeout: float, stdout: IO, stderr: IO,
) -> Tuple[int, Samples]:
    """Run ``cmd`` to completion, probing the CPU's speed meanwhile.

    Returns the exit code and the samples.  Raises
    ``subprocess.TimeoutExpired`` after killing ``cmd`` if it runs
    longer than ``timeout`` seconds.
    """
    samples = Samples()
    deadline = time.monotonic() + timeout
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=stdout, stderr=stderr)
    try:
        while proc.poll() is None:
            if time.monotonic() > deadline:
                raise subprocess.TimeoutExpired(cmd, timeout)
            time.sleep(TICK_S)
            start = time.monotonic()
            _probe()
            samples.add(start, time.monotonic() - start)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    return proc.returncode, samples
