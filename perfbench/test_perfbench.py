"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

import speed
import tracing
import workloads as wl

wl.require_source()

from repro.adders import ripple_carry_adder  # noqa: E402


def test_workload_names_match_the_definitions():
    assert tuple(wl.workloads()) == wl.WORKLOAD_NAMES


def test_seed_zero_is_the_generated_circuit():
    aig = ripple_carry_adder(4)
    assert wl.variant(aig, 0, "adder4") is aig


def test_seed_renames_without_touching_structure():
    aig = ripple_carry_adder(4)
    other = wl.variant(aig, 3, "adder4")
    assert wl.aag_text(other) != wl.aag_text(aig)
    assert other.pos == aig.pos and other.pis == aig.pis
    assert [other.fanins(v) for v in other.and_vars()] == [
        aig.fanins(v) for v in aig.and_vars()
    ]
    assert other.pi_names != aig.pi_names
    assert wl.aag_text(wl.variant(aig, 3, "adder4")) == wl.aag_text(other)


def test_speed_factor_weighs_only_samples_inside_the_intervals():
    samples = speed.Samples()
    for start, duration in ((1.0, 1e-4), (2.0, 2e-4), (3.0, 4e-4)):
        samples.add(start, duration)
    ref = speed.REFERENCE_PROBE_S
    assert samples.factor([(0.5, 1.5)]) == pytest.approx(ref * 1e4)
    assert samples.factor([(0.5, 1.5), (2.5, 3.5)]) == pytest.approx(
        ref * (1e4 + 2.5e3) / 2
    )
    # No sample inside: the speed of the whole worker.
    assert samples.factor([(5.0, 6.0)]) == pytest.approx(
        ref * (1e4 + 5e3 + 2.5e3) / 3
    )


def test_run_sampled_probes_while_the_child_runs_and_kills_on_timeout(
    tmp_path,
):
    sleep = [sys.executable, "-c", "import time; time.sleep(0.3)"]
    with open(tmp_path / "out", "w") as out:
        code, samples = speed.run_sampled(sleep, str(tmp_path), 30, out, out)
        assert code == 0 and samples.speeds
        start = time.monotonic()
        with pytest.raises(subprocess.TimeoutExpired):
            speed.run_sampled(
                sleep[:2] + ["import time; time.sleep(30)"],
                str(tmp_path), 0.2, out, out,
            )
    assert time.monotonic() - start < 10


def _recorder_with(spans):
    rec = tracing.Recorder()
    for name, layer, start, end, parent in spans:
        rec.spans.append([name, layer, start, end, parent, "job", None])
    return rec


def test_self_time_subtracts_children_and_black_boxes_absorb():
    rec = _recorder_with([
        ("LookaheadOptimizer.optimize", "lookahead", 0.0, 10.0, -1),
        ("secondary_simplify", "secondary", 1.0, 7.0, 0),
        ("Solver.solve", "sat", 2.0, 6.0, 1),
        ("check_equivalence", "cec", 11.0, 14.0, -1),
        ("Solver.solve", "sat", 12.0, 13.0, 3),
    ])
    assert rec.self_times() == [4.0, 2.0, 4.0, 2.0, 1.0]
    assert rec.attributed_layers() == [
        "lookahead", "secondary", "sat", "cec", "cec",
    ]


def _traced_pass(tmp_path, name):
    out = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__), "worker.py"),
         "--workload", "adders-exact", "--seed", "0", "--role", "pass",
         "--trace", "1", "--trace-file", str(tmp_path / name)],
        capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_two_traced_runs_give_identical_counts(tmp_path):
    first = _traced_pass(tmp_path, "a.json")
    second = _traced_pass(tmp_path, "b.json")
    counts = [k for k, unit in tracing.UNITS.items()
              if unit in ("count", "ratio") and k in first["layers"]]
    assert counts
    assert {k: first["layers"][k] for k in counts} == {
        k: second["layers"][k] for k in counts
    }
    assert first["counters"] == second["counters"]
    assert [r["digest"] for r in first["jobs"]] == [
        r["digest"] for r in second["jobs"]
    ]
    events = json.loads((tmp_path / "a.json").read_text())["traceEvents"]
    assert {e["cat"] for e in events} >= {"lookahead", "spcf", "cec"}
