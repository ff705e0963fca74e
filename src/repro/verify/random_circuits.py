"""Seeded generators: random AIGs, arrival maps, and optimizer configs.

Everything here is a pure function of the :class:`random.Random` instance
passed in, so a fuzz case is reproducible from ``(seed, case_index)``
alone.  Circuits are kept small (a few dozen AND nodes) — the differential
checks run full optimization flows per case, and decades of fuzzing
practice says small inputs find the same bugs faster.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..aig import AIG, lit_not

#: Gate "opcodes" the generator draws from; weights favour AND/OR so the
#: circuits look like real decomposed logic rather than XOR soup.
_OPS = ("and", "and", "or", "or", "xor", "mux", "nand")


def random_aig(
    rng: random.Random,
    num_pis: Optional[int] = None,
    num_gates: Optional[int] = None,
    num_pos: Optional[int] = None,
) -> AIG:
    """A random connected AIG with named PIs and POs.

    Operand choice is biased toward recent literals, which yields deep
    sensitizable chains (the regime the lookahead optimizer targets)
    instead of shallow balanced trees.
    """
    num_pis = num_pis if num_pis is not None else rng.randint(3, 8)
    num_gates = num_gates if num_gates is not None else rng.randint(6, 36)
    aig = AIG()
    pool: List[int] = [aig.add_pi(f"x{i}") for i in range(num_pis)]

    def pick() -> int:
        # Bias toward the tail of the pool: depth grows, cones overlap.
        if rng.random() < 0.6:
            lo = max(0, len(pool) - 6)
            lit = pool[rng.randrange(lo, len(pool))]
        else:
            lit = pool[rng.randrange(len(pool))]
        return lit_not(lit) if rng.random() < 0.3 else lit

    for _ in range(num_gates):
        op = rng.choice(_OPS)
        a, b = pick(), pick()
        if op == "and":
            lit = aig.and_(a, b)
        elif op == "or":
            lit = aig.or_(a, b)
        elif op == "xor":
            lit = aig.xor_(a, b)
        elif op == "nand":
            lit = aig.nand_(a, b)
        else:
            lit = aig.mux_(pick(), a, b)
        pool.append(lit)

    num_pos = num_pos if num_pos is not None else rng.randint(1, 4)
    for i in range(num_pos):
        # Deep literals first so at least one PO exercises the critical
        # machinery; constant-folded picks are fine (edge coverage).
        lo = max(0, len(pool) - 8)
        lit = pool[rng.randrange(lo, len(pool))]
        aig.add_po(lit_not(lit) if rng.random() < 0.3 else lit, f"y{i}")
    return aig


def random_arrival_map(
    rng: random.Random, aig: AIG
) -> Optional[Dict[str, int]]:
    """Random prescribed PI arrivals; ``None`` (unit delay) half the time."""
    if rng.random() < 0.5:
        return None
    names = [n for n in aig.pi_names if rng.random() < 0.7]
    if not names:
        return None
    return {name: rng.randint(0, 6) for name in names}


def random_config(rng: random.Random) -> Dict:
    """Random :class:`~repro.core.OptimizerConfig` fields, as a kwargs dict.

    Bounded to keep a single fuzz case sub-second: few rounds, narrow
    simulation, and the BDD mode is reached through ``auto`` only (its
    PI limits make it rare at fuzz sizes, exactly like production).
    """
    walk_modes = rng.choice((("target",), ("full",), ("target", "full")))
    return {
        "max_rounds": rng.randint(1, 3),
        "mode": rng.choice(("auto", "tt", "sim")),
        "spcf_tier": rng.choice(("auto", "overapprox")),
        "sim_width": rng.choice((128, 256)),
        "seed": rng.randint(0, 3),
        "use_rules": rng.random() < 0.8,
        "max_outputs_per_round": rng.choice((None, 1, 2)),
        "area_recovery": rng.random() < 0.7,
        "area_effort": rng.choice(("low", "medium", "high")),
        "walk_modes": walk_modes,
    }
