"""Job-shaped flow entry points behind `repro serve` (core/flow.py)."""

from __future__ import annotations

import pytest

from repro.adders import ripple_carry_adder
from repro.cec import check_equivalence
from repro.core import (
    execute_optimize_job,
    normalize_job_config,
)
from repro.store import runtime as store_runtime


@pytest.fixture(autouse=True)
def _isolated_runtime():
    store_runtime.reset()
    yield
    store_runtime.reset()


class TestNormalize:
    def test_defaults(self):
        config = normalize_job_config(None)
        assert config.flow == "lookahead"
        assert config.arrival_times is None
        assert config.verify is False

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            normalize_job_config({"flwo": "lookahead"})

    def test_unknown_flow_rejected(self):
        with pytest.raises(ValueError):
            normalize_job_config({"flow": "abc"})  # baselines not served

    def test_arrival_validation(self):
        config = normalize_job_config({"arrivals": {"a0": 3}})
        assert config.arrival_times == {"a0": 3}
        for bad in ({}, {"a0": "3"}, {"a0": True}, {3: 1}, [("a0", 3)]):
            with pytest.raises(ValueError):
                normalize_job_config({"arrivals": bad})

    def test_effort_knobs_default_to_flow_presets(self):
        flow = normalize_job_config(None)
        assert (flow.max_rounds, flow.max_outputs_per_round) == (16, 8)
        only = normalize_job_config({"flow": "lookahead-only"})
        assert (only.max_rounds, only.max_outputs_per_round) == (12, None)
        for config in (flow, only):
            assert config.sim_width == 1024
            assert config.walk_modes == ("target", "full")
            assert config.max_iterations == 4

    def test_effort_knob_validation(self):
        config = normalize_job_config({
            "max_rounds": 3,
            "max_outputs_per_round": 4,
            "sim_width": 512,
            "walk_modes": ("target",),
            "max_iterations": 2,
        })
        assert config.max_rounds == 3
        assert config.walk_modes == ("target",)
        for bad in (
            {"max_rounds": 0},
            {"max_rounds": True},
            {"sim_width": -1},
            {"sim_width": "512"},
            {"max_iterations": 0},
            {"walk_modes": []},
            {"walk_modes": "target"},
            {"walk_modes": ["sideways"]},
        ):
            with pytest.raises(ValueError):
                normalize_job_config(bad)

    def test_effort_knobs_distinguish_configs(self):
        base = normalize_job_config(None)
        bounded = normalize_job_config({"max_rounds": 4, "sim_width": 512})
        assert base.key() != bounded.key()
        # walk-mode order is part of the identity (candidate order
        # matters to the optimizer).
        modes_a = normalize_job_config({"walk_modes": ["target", "full"]})
        modes_b = normalize_job_config({"walk_modes": ["full", "target"]})
        assert modes_a.key() != modes_b.key()

    def test_make_job_optimizer_applies_knobs(self):
        from repro.core.flow import make_job_optimizer

        config = normalize_job_config({
            "max_rounds": 4,
            "max_outputs_per_round": 6,
            "sim_width": 512,
            "walk_modes": ["target"],
        })
        opt = make_job_optimizer(config, workers=1)
        try:
            assert opt.config.max_rounds == 4
            assert opt.config.max_outputs_per_round == 6
            assert opt.config.sim_width == 512
            assert opt.config.walk_modes == ("target",)
        finally:
            opt.close()

    def test_key_ignores_verify_and_arrival_order(self):
        base = normalize_job_config({"arrivals": {"a": 1, "b": 2}})
        reordered = normalize_job_config({"arrivals": {"b": 2, "a": 1}})
        verified = normalize_job_config(
            {"arrivals": {"a": 1, "b": 2}, "verify": True}
        )
        assert base.key() == reordered.key()
        assert base.key() == verified.key()
        other = normalize_job_config({"arrivals": {"a": 1, "b": 3}})
        assert base.key() != other.key()


class TestExecute:
    def test_one_shot_job_matches_local_flow(self):
        aig = ripple_carry_adder(4)
        config = normalize_job_config({"flow": "lookahead-only"})
        out = execute_optimize_job(aig, config, workers=1)
        assert check_equivalence(aig, out)
