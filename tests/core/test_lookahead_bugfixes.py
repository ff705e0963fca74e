"""Regression tests for the candidate-selection loop bugfix sweep.

Three historical bugs: the per-round budget was applied *before* the
known-rejected filter (warm rounds burned their whole window on cones
the cache had already rejected), the iteration loops re-evaluated the
incumbent's quality every round, and bad ``walk_modes`` values failed
deep inside a round instead of at construction.
"""

from __future__ import annotations

import pytest

from repro import perf
from repro.adders import ripple_carry_adder
from repro.core import (
    WALK_MODES,
    LookaheadOptimizer,
    lookahead_flow,
    normalize_job_config,
    validate_walk_modes,
)
from repro.core.lookahead import BUDGET_WINDOWS


def _sim_optimizer(**kwargs):
    opts = dict(seed=1, max_rounds=2, mode="sim", sim_width=256, workers=1)
    opts.update(kwargs)
    return LookaheadOptimizer(**opts)


# -- satellite 1: budget after the rejected filter ---------------------------


class TestWindowSelection:
    def test_rejected_candidates_never_occupy_budget_slots(self):
        aig = ripple_carry_adder(8)
        with _sim_optimizer(max_outputs_per_round=2) as opt:
            mode = opt._resolve_mode(aig)
            critical = list(range(len(aig.pos)))
            keys = [
                opt._candidate_keys(aig, po, mode, "target")
                for po in critical
            ]
            # Mark the first two candidates as already rejected in this
            # call: the budget window must hold the *next* two instead.
            opt._call_rejected.add(keys[0][2])
            opt._call_rejected.add(keys[1][2])
            window, tail = opt._select_window(aig, critical, mode, "target")
        assert [entry[0] for entry in window] == [critical[2], critical[3]]
        assert tail == critical[4:]

    def test_unlimited_budget_keeps_everything_unrejected(self):
        aig = ripple_carry_adder(6)
        with _sim_optimizer(max_outputs_per_round=None) as opt:
            mode = opt._resolve_mode(aig)
            critical = list(range(len(aig.pos)))
            window, tail = opt._select_window(aig, critical, mode, "target")
        assert [entry[0] for entry in window] == critical
        assert tail == []

    def test_zero_accept_window_slides_once(self, monkeypatch):
        aig = ripple_carry_adder(8)
        seen = []
        with _sim_optimizer(max_outputs_per_round=3) as opt:
            monkeypatch.setattr(
                opt, "_run_window",
                lambda a, net, window, *rest: seen.append(window) or None,
            )
            from repro.netlist import renode
            from repro.timing import AigTimingEngine

            engine = AigTimingEngine(aig, opt._delay_model())
            critical = list(range(len(aig.pos)))  # every PO eligible
            net = renode(aig, opt.config.k)
            perf.reset()
            rebuilt = opt._windowed_round(
                aig, lambda: net, critical,
                engine.arrivals(), opt._resolve_mode(aig), "target",
            )
        assert rebuilt is None
        assert len(seen) == BUDGET_WINDOWS
        assert perf.counter("rounds.window_slides") == BUDGET_WINDOWS - 1
        # The slid window continues down the critical queue.
        first = [entry[0] for entry in seen[0]]
        second = [entry[0] for entry in seen[1]]
        assert first == critical[:3] and second == critical[3:6]

    def test_unbounded_round_never_slides(self, monkeypatch):
        aig = ripple_carry_adder(6)
        seen = []
        with _sim_optimizer(max_outputs_per_round=None) as opt:
            monkeypatch.setattr(
                opt, "_run_window",
                lambda a, net, window, *rest: seen.append(window) or None,
            )
            from repro.netlist import renode
            from repro.timing import AigTimingEngine

            engine = AigTimingEngine(aig, opt._delay_model())
            net = renode(aig, opt.config.k)
            rebuilt = opt._windowed_round(
                aig, lambda: net, list(range(len(aig.pos))),
                engine.arrivals(), opt._resolve_mode(aig), "target",
            )
        assert rebuilt is None
        assert len(seen) == 1  # a budgetless window is already everything

    def test_warm_second_call_identical_and_cheaper(self):
        """Same-optimizer rerun replays verdicts without re-burning SPCF."""
        import io

        from repro.aig import write_aag

        def dump(a):
            buf = io.StringIO()
            write_aag(a, buf)
            return buf.getvalue()

        aig = ripple_carry_adder(8)
        with _sim_optimizer(max_outputs_per_round=4) as opt:
            first = opt.optimize(aig)
            perf.reset()
            second = opt.optimize(aig)
            warm_spcf = perf.counter("cache.spcf.miss")
        assert dump(first) == dump(second)
        assert warm_spcf == 0  # every cone verdict replayed from cache


# -- satellite 2: incumbent quality cached across rounds ---------------------


class TestQualityCaching:
    def test_optimizer_evaluates_incumbent_once_per_walk(self):
        aig = ripple_carry_adder(6)
        with _sim_optimizer(
            max_rounds=8, walk_modes=("target", "full")
        ) as opt:
            perf.reset()
            opt.optimize(aig)
            evals = perf.counter("quality.evals")
            rounds = perf.counter("rounds")
        # One incumbent evaluation per walk strategy plus at most one per
        # round that produced a candidate — never two per round.
        assert evals <= 2 + rounds

    def test_fixed_point_exits_before_budget(self):
        aig = ripple_carry_adder(6)
        with _sim_optimizer(max_rounds=1, walk_modes=("target",)) as opt:
            optimized = opt.optimize(aig)
        with _sim_optimizer(max_rounds=50, walk_modes=("target",)) as opt:
            perf.reset()
            again = opt.optimize(optimized)
            rounds = perf.counter("rounds")
        # Progress stalls long before the round budget: the loop must
        # stop at the first non-improving round, not burn all 50.
        assert rounds < 50
        assert again.num_ands() <= optimized.num_ands() * 2


# -- satellite 3: walk_modes validated at construction -----------------------


class TestWalkModeValidation:
    # An unknown mode, and a repeat (which would run one walk twice and
    # give one behaviour two config keys).
    BAD = (("bogus",), ("target", "target"))

    def expected_message(self, bad):
        try:
            validate_walk_modes(bad)
        except ValueError as exc:
            return str(exc)
        raise AssertionError("validator accepted a bad walk mode")

    def test_validator_accepts_all_good_subsets(self):
        assert validate_walk_modes(["target"]) == ("target",)
        assert validate_walk_modes(("full", "target")) == ("full", "target")
        assert validate_walk_modes(list(WALK_MODES)) == WALK_MODES

    def test_validator_rejects_bad_shapes(self):
        for bad in ("target", [], (), None, 42, ["target", "bogus"],
                    ["full", "full"]):
            with pytest.raises(ValueError):
                validate_walk_modes(bad)

    def test_constructor_flow_and_jobs_reject_identically(self):
        for bad in self.BAD:
            message = self.expected_message(bad)
            with pytest.raises(ValueError) as from_ctor:
                LookaheadOptimizer(walk_modes=bad)
            with pytest.raises(ValueError) as from_flow:
                lookahead_flow(ripple_carry_adder(2), walk_modes=bad)
            with pytest.raises(ValueError) as from_jobs:
                normalize_job_config({"walk_modes": list(bad)})
            assert str(from_ctor.value) == message
            assert str(from_flow.value) == message
            assert str(from_jobs.value) == message

    def test_cli_rejects_identically(self, tmp_path):
        from repro.aig import write_aag
        from repro.cli import main

        circuit = tmp_path / "rca2.aag"
        with open(circuit, "w") as fh:
            write_aag(ripple_carry_adder(2), fh)
        for bad in self.BAD:
            with pytest.raises(ValueError) as from_cli:
                main([
                    "optimize", str(circuit), "--flow", "lookahead-only",
                    "--walk-modes", ",".join(bad),
                ])
            assert str(from_cli.value) == self.expected_message(bad)

    def test_constructor_rejects_before_any_work(self):
        # The error must come from construction, not the first round.
        with pytest.raises(ValueError):
            LookaheadOptimizer(walk_modes=("target", "sideways"))
