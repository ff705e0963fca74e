"""Workloads of the repo benchmark and the code that runs one pass of them.

A workload is a fixed list of jobs.  A job optimizes one circuit through a
public entry point of the program (``LookaheadOptimizer.optimize`` or
``repro.core.flow.execute_optimize_job`` with ``workers=1``), then checks
the result with ``check_equivalence`` and measures it with ``map_aig``,
``mapped_delay`` and ``dynamic_power_uw``.  Everything runs serially, one
process at a time, so on a small shared machine the numbers measure the
program and not the scheduler.

The workload seed is the benchmark's own, not the optimizer's ``seed``.
Seed 0 runs the circuits as generated; any other seed renames every
primary input and output with a seeded tag, so each seed is a distinct
input file holding the same structure, and a change that makes the
program depend on signal names shows up as spread between seeds.
Seeds do not permute the primary-output order: the optimizer's path
depends on that order (on a 2-vCPU Intel Xeon host, the Table 2 flow on
C432 took 5.6-10.0 s and gave 251-268 ANDs over four permutations), far
wider than any bound a timing metric can carry across seeds.
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
GOLDEN_QOR = os.path.join(ROOT, "tests", "bench", "golden_qor.json")
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


class MissingSource(RuntimeError):
    """The checkout holds no program source to benchmark."""


def require_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or raise.

    The benchmark measures the program of the checkout it sits in; an
    installed ``repro`` elsewhere must never stand in for it.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingSource(f"no program source under {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


@dataclass(frozen=True)
class Job:
    """One circuit of a workload.

    ``entry`` is ``"optimizer"`` (``options`` are ``LookaheadOptimizer``
    keyword arguments) or ``"flow"`` (``options`` are job options for
    ``normalize_job_config``; ``None`` means the Table 2 effort tier of
    the circuit's size).  ``golden`` is ``(levels, ands)`` at HEAD of
    the benchmark's introduction, for every seed.  An untraced pass
    checks the output ``check_reps`` times and reports the mean; the
    count is fixed per job (about a second of checking for the small
    adders, one check of rot's four seconds to keep a run within the
    benchmark's time budget), because a count that followed the clock
    changed the process's peak memory.
    """

    circuit: str
    entry: str
    options: Optional[Dict[str, Any]]
    golden: Tuple[int, int]
    check_reps: int = 3


def _golden(circuit: str) -> Tuple[int, int]:
    """(depth, ands) of a golden QoR record, read-only."""
    with open(GOLDEN_QOR) as fh:
        record = json.load(fh)[circuit]
    return record["depth"], record["ands"]


def _golden_w1() -> Dict[str, Any]:
    from repro.bench.table2 import GOLDEN_W1

    return dict(GOLDEN_W1)


def workloads() -> Dict[str, Tuple[Job, ...]]:
    """Every workload's jobs by name (needs the program importable)."""
    w1 = _golden_w1()
    return {
        "rot-cold": (Job("rot", "optimizer", w1, _golden("rot"), 1),),
        "table2-flow": (Job("C432", "flow", None, (11, 268), 8),),
        "adders-exact": (
            Job("adder2", "flow", {}, (5, 17), 100),
            Job("adder4", "flow", {}, (7, 50), 20),
            Job("adder8", "flow", {}, (10, 131), 8),
        ),
    }


WORKLOAD_NAMES = ("rot-cold", "table2-flow", "adders-exact")
"""The keys of :func:`workloads`, known before the program is imported."""


def generate(circuit: str):
    """Generate a circuit by its row label (``adder<N>`` or a Table 2 name)."""
    if circuit.startswith("adder"):
        from repro.adders import ripple_carry_adder

        return ripple_carry_adder(int(circuit[len("adder"):]))
    from repro.bench import BENCHMARKS

    return BENCHMARKS[circuit]()


def variant(aig, seed: int, circuit: str):
    """The workload-seed variant of ``aig`` (see the module docstring).

    Seed 0 returns ``aig`` itself; renaming keeps every node as it is.
    """
    if seed == 0:
        return aig
    rng = random.Random(f"{seed}/{circuit}")
    dest = copy.deepcopy(aig)
    tag = f"_{rng.getrandbits(24):06x}"
    dest.pi_names = [name + tag for name in dest.pi_names]
    dest.po_names = [name + tag for name in dest.po_names]
    return dest


def make_inputs(jobs: Tuple[Job, ...], seed: int) -> List:
    return [variant(generate(job.circuit), seed, job.circuit) for job in jobs]


def optimize(job: Job, aig):
    """Run one job's optimization through the program's public entry."""
    if job.entry == "optimizer":
        from repro.core import LookaheadOptimizer

        with LookaheadOptimizer(workers=1, **job.options) as opt:
            return opt.optimize(aig)
    from repro.bench.table2 import effort_options
    from repro.core.flow import execute_optimize_job, normalize_job_config

    options = job.options
    if options is None:
        options = effort_options(aig.num_ands())
    config = normalize_job_config({"flow": "lookahead", **options})
    return execute_optimize_job(aig, config, workers=1)


def aag_text(aig) -> str:
    from repro.aig import write_aag

    buf = io.StringIO()
    write_aag(aig, buf)
    return buf.getvalue()


def check(job: Job, aig, out, span=None) -> Dict[str, Any]:
    """Check one job's output and measure its QoR.

    A job fails if its output is not equivalent to its input, is deeper
    than its input, or misses its golden ``(levels, ands)``.
    ``span(name, layer)`` wraps each call into the program (tracing).
    """
    from contextlib import nullcontext

    from repro.aig import depth
    from repro.cec import check_equivalence
    from repro.mapping import dynamic_power_uw, map_aig, mapped_delay

    if span is None:
        span = lambda name, layer: nullcontext()  # noqa: E731
    with span("check_equivalence", "cec"):
        equivalent = bool(check_equivalence(aig, out))
    with span("map_aig", "mapping"):
        netlist = map_aig(out)
    with span("mapped_delay", "mapping"):
        delay = mapped_delay(netlist)
    with span("dynamic_power_uw", "mapping"):
        power = dynamic_power_uw(netlist)
    levels, ands = depth(out), out.num_ands()
    errors = []
    if not equivalent:
        errors.append("not equivalent to its input")
    if levels > depth(aig):
        errors.append(f"deeper than its input ({levels} > {depth(aig)})")
    if (levels, ands) != job.golden:
        errors.append(
            f"QoR {levels}/{ands} differs from golden "
            f"{job.golden[0]}/{job.golden[1]}"
        )
    return {
        "levels": levels,
        "ands": ands,
        "delay_ps": delay,
        "power_uw": power,
        "errors": errors,
    }


def text_digest(aig) -> str:
    return hashlib.sha256(aag_text(aig).encode()).hexdigest()

