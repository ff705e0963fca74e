"""SAT-backed secondary simplification: exactness and budget visibility.

``SatCareChecker`` answers every query on a Σ1-cone-restricted, lazily
grown encoding.  Its verdicts must equal exact counting over global truth
tables whenever the solver settles the query within its budget, and the
queries it cannot settle must be visible as ``secondary.sat.unknown``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.adders import ripple_carry_adder
from repro.aig import random_patterns
from repro.core import ExactCareChecker, LookaheadOptimizer, SatCareChecker
from repro.core.model import ExactModel, SignatureModel
from repro.netlist import Network
from repro.sat.portfolio import GLOBAL_UNSAT_CACHE
from repro.sop import Cube
from repro.tt import TruthTable


def _random_network(rng: random.Random, npis: int, nnodes: int) -> Network:
    net = Network()
    ids = [net.add_pi() for _ in range(npis)]
    for _ in range(nnodes):
        arity = rng.randint(1, min(3, len(ids)))
        fanins = rng.sample(ids, arity)
        bits = rng.getrandbits(1 << arity)
        ids.append(net.add_node(fanins, TruthTable(bits, arity)))
    net.add_po(ids[-1])
    return net


def _checkers(seed: int, exact_care_sig: bool):
    """A random Σ1 network, a random secondary network, both checkers."""
    rng = random.Random(seed)
    npis = rng.randint(2, 10)
    primary = _random_network(rng, npis, rng.randint(3, 14))
    secondary = _random_network(rng, npis, rng.randint(3, 14))
    internal = [n for n in primary.topo_order() if primary.nodes[n].fanins]
    sigma_nid = rng.choice(internal) if internal else primary.topo_order()[0]
    sigma = primary.global_tts()[sigma_nid]
    care_fn = ~sigma
    width = 32
    pi_words = random_patterns(npis, width, seed)
    care_sig = 0
    if exact_care_sig:
        # The simulation pre-filter only ever sees true care patterns.
        for p in range(width):
            m = sum(1 << i for i, w in enumerate(pi_words) if (w >> p) & 1)
            if care_fn.value(m):
                care_sig |= 1 << p
    sat = SatCareChecker(
        SignatureModel(secondary, pi_words, width),
        care_sig,
        primary,
        sigma_nid,
        secondary,
    )
    exact = ExactCareChecker(ExactModel(secondary), care_fn)
    return secondary, sat, exact


class TestExactnessOracle:
    @given(st.integers(0, 10_000), st.booleans())
    @settings(deadline=None, max_examples=60)
    def test_off_verdicts_equal_exact_counting(self, seed, exact_care_sig):
        perf.reset()
        secondary, sat, exact = _checkers(seed, exact_care_sig)
        for nid in secondary.topo_order():
            nvars = len(secondary.nodes[nid].fanins)
            for m in range(1 << nvars):
                cube = Cube.from_minterm(m, nvars)
                assert sat.cube_unreachable(nid, cube) == (
                    exact.cube_unreachable(nid, cube)
                ), (seed, nid, m)
        # Tiny instances always settle within the budget; an unknown
        # would have been answered "reachable" and could mask a bug.
        assert perf.counter("secondary.sat.unknown") == 0

    def test_off_never_touches_the_unsat_cache(self):
        GLOBAL_UNSAT_CACHE.clear()
        perf.reset()
        unsat = 0
        for seed in range(30):
            secondary, sat, _exact = _checkers(seed, exact_care_sig=False)
            for nid in secondary.topo_order():
                nvars = len(secondary.nodes[nid].fanins)
                for m in range(1 << nvars):
                    unsat += sat.cube_unreachable(
                        nid, Cube.from_minterm(m, nvars)
                    )
        assert unsat > 0 and perf.counter("secondary.sat.calls") > 0
        assert len(GLOBAL_UNSAT_CACHE) == 0
        assert perf.counter("sat.portfolio.unsat_cache.hit") == 0
        assert perf.counter("sat.portfolio.unsat_cache.miss") == 0


class TestUnknownCounter:
    @pytest.mark.parametrize("portfolio", ["off", "sprint"])
    def test_zero_when_every_query_settles(self, portfolio):
        GLOBAL_UNSAT_CACHE.clear()
        perf.reset()
        with LookaheadOptimizer(
            max_rounds=1, max_outputs_per_round=4, sim_width=128,
            workers=1, mode="sim", sat_portfolio=portfolio,
        ) as opt:
            opt.optimize(ripple_carry_adder(6))
        assert perf.counter("secondary.sat.calls") > 0
        assert perf.counter("secondary.sat.unknown") == 0

    def test_counts_budget_exhausted_queries(self):
        # A zero-conflict budget cannot settle a query that needs search;
        # such queries must be counted, and their cubes kept (reachable).
        perf.reset()
        hits = 0
        for seed in range(40):
            secondary, sat, exact = _checkers(seed, exact_care_sig=False)
            sat.max_conflicts = 0
            for nid in secondary.topo_order():
                nvars = len(secondary.nodes[nid].fanins)
                for m in range(1 << nvars):
                    cube = Cube.from_minterm(m, nvars)
                    before = perf.counter("secondary.sat.unknown")
                    verdict = sat.cube_unreachable(nid, cube)
                    if perf.counter("secondary.sat.unknown") > before:
                        hits += 1
                        assert verdict is False
                    elif verdict:
                        assert exact.cube_unreachable(nid, cube)
        assert hits > 0
