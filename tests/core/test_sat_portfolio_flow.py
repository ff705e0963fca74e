"""Flow-level contracts of the --sat-portfolio knob.

``off`` is the default flow bit-for-bit; ``sprint`` may settle
budget-limited queries differently but must stay CEC-equivalent and
never-worse in depth (DESIGN 3.19).
"""

import io

import pytest

from repro.adders import ripple_carry_adder
from repro.aig import depth, write_aag
from repro.cec import check_equivalence
from repro.core import LookaheadOptimizer, lookahead_flow, recover_area
from repro.sat.portfolio import GLOBAL_UNSAT_CACHE


def _dump(aig):
    buf = io.StringIO()
    write_aag(aig, buf)
    return buf.getvalue()


def _optimize(aig, **kwargs):
    with LookaheadOptimizer(
        max_rounds=2, max_outputs_per_round=4, sim_width=256, workers=1,
        **kwargs,
    ) as opt:
        return opt.optimize(aig)


class TestOffIsIdentity:
    def test_off_matches_the_default_flow_on_rca8(self):
        aig = ripple_carry_adder(8)
        default = _optimize(aig)
        off = _optimize(aig, sat_portfolio="off")
        assert _dump(off) == _dump(default)

    def test_off_matches_the_default_flow_on_c432(self):
        from repro.bench import BENCHMARKS

        aig = BENCHMARKS["C432"]()
        default = _optimize(aig)
        off = _optimize(aig, sat_portfolio="off")
        assert _dump(off) == _dump(default)


class TestRacingModes:
    @pytest.mark.parametrize("mode", ["sprint"])
    def test_racing_upholds_the_optimizer_contract(self, mode):
        from repro.bench import BENCHMARKS

        aig = BENCHMARKS["C432"]()
        GLOBAL_UNSAT_CACHE.clear()
        out = _optimize(aig, sat_portfolio=mode)
        GLOBAL_UNSAT_CACHE.clear()
        assert check_equivalence(aig, out)
        assert depth(out) <= depth(aig)

    def test_sprint_is_deterministic_from_a_cold_cache(self):
        aig = ripple_carry_adder(8)
        dumps = []
        for _ in range(2):
            GLOBAL_UNSAT_CACHE.clear()
            dumps.append(_dump(_optimize(aig, sat_portfolio="sprint")))
        GLOBAL_UNSAT_CACHE.clear()
        assert dumps[0] == dumps[1]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            LookaheadOptimizer(sat_portfolio="warp")


class TestThreading:
    def test_flow_accepts_the_knob(self):
        aig = ripple_carry_adder(8)
        GLOBAL_UNSAT_CACHE.clear()
        out = lookahead_flow(aig, max_iterations=1, sat_portfolio="sprint")
        GLOBAL_UNSAT_CACHE.clear()
        assert check_equivalence(aig, out)

    def test_area_recovery_accepts_the_knob(self):
        aig = ripple_carry_adder(8)
        GLOBAL_UNSAT_CACHE.clear()
        out = recover_area(aig, effort="medium", sat_portfolio="sprint")
        GLOBAL_UNSAT_CACHE.clear()
        assert check_equivalence(aig, out)
        assert out.num_ands() <= aig.num_ands()

    def test_cli_exposes_the_choices(self, tmp_path):
        from repro.cli import build_parser, main

        args = build_parser().parse_args(
            ["optimize", "x.aag", "--sat-portfolio", "sprint"]
        )
        assert args.sat_portfolio == "sprint"
        # The config validates the flag, with the same error as every
        # other entry point.
        circuit = tmp_path / "rca2.aag"
        with open(circuit, "w") as fh:
            write_aag(ripple_carry_adder(2), fh)
        for bad in ("warp", "race"):
            with pytest.raises(ValueError, match="unknown SAT portfolio"):
                main(["optimize", str(circuit), "--sat-portfolio", bad])
