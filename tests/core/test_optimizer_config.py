"""OptimizerConfig: one declaration, one validation, one identity.

Every option is declared once (``repro.core.config``); these tests hold
each entry point to it: a bad value is rejected up front with the same
``ValueError`` text by the constructor, ``lookahead_flow``, the job
payload codec and ``repro optimize``, and the CLI flags and the README
option list cannot drift from the declaration.
"""

from __future__ import annotations

import os
from dataclasses import fields

import pytest

from repro.adders import ripple_carry_adder
from repro.aig import write_aag
from repro.core import (
    LookaheadOptimizer,
    OptimizerConfig,
    lookahead_flow,
    normalize_job_config,
)
from repro.core.config import CLI_FIELDS, FLOW_PRESETS, JOB_FLOWS
from repro.rank import passthrough_model

README = os.path.join(os.path.dirname(__file__), "..", "..", "README.md")

# (field, bad value, the same value as `repro optimize` flag arguments or
# None when the CLI cannot express it).  Every field has a row.
BAD_VALUES = [
    ("flow", "abc", None),
    ("max_iterations", 0, None),
    ("max_rounds", 0, None),
    ("max_outputs_per_round", 0, None),
    ("k", 0, None),
    ("mode", "garbage", None),
    ("sim_width", -5, None),
    ("seed", "7", None),
    ("use_rules", "yes", None),
    ("walk_modes", ("target", "target"), ["--walk-modes", "target,target"]),
    ("walk_modes", ("sideways",), ["--walk-modes", "sideways"]),
    ("spcf_tier", "exact", ["--spcf-tier", "exact"]),
    ("spcf_prefilter", "no", None),
    ("area_recovery", 1, None),
    ("area_effort", "extreme", ["--area-effort", "extreme"]),
    ("sat_portfolio", "race", ["--sat-portfolio", "race"]),
    ("arrival_times", {"a0": "3"}, None),
    ("rank", "garbage", ["--rank", "garbage"]),
    ("rank_model", passthrough_model().payload(),
     ["--rank-model", "model.json"]),
    ("verify", "yes", None),
]


def _message(call) -> str:
    with pytest.raises(ValueError) as caught:
        call()
    return str(caught.value)


def test_every_field_has_a_bad_value_row():
    assert {row[0] for row in BAD_VALUES} == {f.name for f in fields(
        OptimizerConfig
    )}


@pytest.mark.parametrize(
    "name,value,argv", BAD_VALUES,
    ids=[f"{row[0]}={row[1]!r}"[:40] for row in BAD_VALUES],
)
def test_every_entry_point_rejects_up_front_alike(name, value, argv,
                                                  tmp_path, monkeypatch):
    expected = _message(lambda: OptimizerConfig(**{name: value}))
    assert _message(
        lambda: LookaheadOptimizer(**{name: value})
    ) == expected
    # The flow must fail before its first conventional pass.
    monkeypatch.setattr(
        "repro.opt.dc_map_effort_high",
        lambda aig: pytest.fail("lookahead_flow ran before validating"),
    )
    assert _message(
        lambda: lookahead_flow(ripple_carry_adder(2), **{name: value})
    ) == expected
    payload_key = "arrivals" if name == "arrival_times" else name
    payload_value = list(value) if isinstance(value, tuple) else value
    assert _message(
        lambda: normalize_job_config({payload_key: payload_value})
    ) == expected
    if argv is None:
        return
    from repro.cli import main

    circuit = tmp_path / "rca2.aag"
    with open(circuit, "w") as fh:
        write_aag(ripple_carry_adder(2), fh)
    monkeypatch.setattr(
        "repro.cli.execute_optimize_job",
        lambda *a, **k: pytest.fail("repro optimize ran before validating"),
    )
    assert _message(lambda: main(
        ["optimize", str(circuit), "--flow", "lookahead-only"] + argv
    )) == expected


class TestNormalization:
    def test_signature_tier_and_sim_mode_are_one_setting(self):
        by_tier = OptimizerConfig(spcf_tier="signature")
        by_mode = OptimizerConfig(mode="sim")
        assert by_tier.key() == by_mode.key()
        assert (by_tier.mode, by_tier.spcf_tier) == ("sim", "signature")
        assert normalize_job_config({"mode": "sim"}).key() == (
            normalize_job_config({"spcf_tier": "signature"}).key()
        )

    def test_key_ignores_verify_only(self):
        base = OptimizerConfig()
        assert base.key() == OptimizerConfig(verify=True).key()
        for name, value in (
            ("seed", 1),
            ("max_rounds", 2),
            ("walk_modes", ("full",)),
            ("flow", "lookahead-only"),
        ):
            assert base.key() != OptimizerConfig(**{name: value}).key()

    def test_empty_arrival_map_is_unit_delay(self):
        assert OptimizerConfig(arrival_times={}).arrival_times is None
        with pytest.raises(ValueError, match="non-empty"):
            normalize_job_config({"arrivals": {}})

    def test_flow_presets_apply_under_explicit_values(self):
        for flow in JOB_FLOWS:
            config = OptimizerConfig.for_flow(flow)
            for name, value in FLOW_PRESETS[flow].items():
                assert getattr(config, name) == value
        explicit = OptimizerConfig.for_flow("lookahead", max_rounds=3)
        assert explicit.max_rounds == 3
        # An absent payload key takes the preset; null is the value None.
        assert normalize_job_config({}).max_outputs_per_round == 8
        assert normalize_job_config(
            {"max_outputs_per_round": None}
        ).max_outputs_per_round is None

    def test_payload_decodes_to_the_keyword_config(self):
        model = passthrough_model()
        kwargs = dict(
            arrival_times={"a0": 2}, walk_modes=("full",), rank="prune",
            rank_model=model.payload(), sim_width=256,
        )
        payload = dict(kwargs, flow="lookahead-only", walk_modes=["full"])
        payload["arrivals"] = payload.pop("arrival_times")
        assert OptimizerConfig.from_payload(payload).key() == (
            OptimizerConfig.for_flow("lookahead-only", **kwargs).key()
        )

    def test_constructor_options_override_a_config(self):
        base = OptimizerConfig(max_rounds=2, sim_width=256)
        with LookaheadOptimizer(base, sim_width=128, workers=1) as opt:
            expected = OptimizerConfig(max_rounds=2, sim_width=128)
            assert opt.config.key() == expected.key()


class TestNoDrift:
    def test_cli_flags_mirror_the_declaration(self):
        from repro.cli import FLOWS, build_parser

        sub = next(
            action for action in build_parser()._actions
            if action.dest == "command"
        )
        actions = {
            flag: action
            for action in sub.choices["optimize"]._actions
            for flag in action.option_strings
        }
        assert set(JOB_FLOWS) <= set(actions["--flow"].choices) == set(FLOWS)
        assert actions["--flow"].default == OptimizerConfig.flow
        assert CLI_FIELDS, "the CLI exposes no config field"
        for f in CLI_FIELDS:
            action = actions[f.metadata["cli"]]
            assert action.dest == f.name
            assert action.default == f.default, f.name
            choices = f.metadata["choices"]
            if choices is not None:
                assert action.choices is None  # the config validates
                assert action.metavar == "{" + ",".join(choices) + "}"
            if isinstance(f.default, bool):
                assert action.const is (not f.default)

    def test_readme_lists_every_option(self):
        with open(README) as fh:
            text = fh.read()
        start = text.index("<!-- optimizer-options -->")
        end = text.index("<!-- /optimizer-options -->")
        table = text[start:end]
        listed = {
            line.split("|")[1].strip().strip("`")
            for line in table.splitlines()
            if line.startswith("| `")
        }
        assert listed == {f.name for f in fields(OptimizerConfig)}
