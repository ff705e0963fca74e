"""Speed-path characteristic functions (SPCF).

The SPCF of an output ``y`` at threshold ``delta`` is the set of input
minterms that sensitize paths of length >= ``delta`` logic levels in the
decomposed circuit (Sec. 3 of the paper).  Three computations are provided:

* :func:`spcf_exact_tt` — exact static-sensitization SPCF as a truth table,
  via a dynamic program over (node, required-length) pairs (the path-based
  exact algorithms of [7, 19] reformulated as a node recurrence);
* :func:`spcf_overapprox_tt` — the node-based over-approximation in the
  spirit of telescopic units [20, 21]: a side input may be either
  non-controlling *or itself critical*, which is a superset of the exact
  condition but far cheaper to reason about;
* :func:`spcf_signature` — a floating-mode timed-simulation estimate over a
  random pattern set, used on circuits too large for global functions.

The SPCF is *only a guide metric* (the paper, Sec. 3.1): approximate SPCFs
never compromise correctness of the synthesized lookahead circuit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import perf
from ..aig import AIG, levels, lit_neg, lit_var, node_tts, random_patterns
from ..tt import TruthTable
from .signatures import (
    DEFAULT_SIGNATURE_WIDTH,
    EXHAUSTIVE_PI_LIMIT,
    SpcfPrefilter,
    pack_signature,
    timed_value_simulation,
    unpack_patterns,
)

#: Back-compat alias: the floating-mode simulation moved to
#: :mod:`repro.core.signatures` with the tiered-kernel refactor.
timed_simulation = timed_value_simulation

SpcfMemo = Dict[Tuple[int, int], TruthTable]
"""DP table of one cone: ``(var, required-length) -> SPCF truth table``.

Entries depend only on the cone structure, the node truth tables, and the
arrival profile — *not* on the queried Δ — so one memo serves the entire
Δ-relaxation loop, every output sharing the cone, and later rounds (see
:func:`repro.core.cache.dp_memo_cached`)."""


def _sensitization_dp(
    aig: AIG,
    po_lit: int,
    delta: int,
    relaxed: bool,
    tts: Optional[List[TruthTable]] = None,
    arrivals: Optional[Sequence[int]] = None,
    memo: Optional[SpcfMemo] = None,
    prefilter: Optional[SpcfPrefilter] = None,
) -> TruthTable:
    """Shared DP for the exact and over-approximate SPCF truth tables.

    ``tts`` lets callers pass precomputed node truth tables so the
    Δ-relaxation loop (and the cross-round cone cache) tabulates the
    circuit once instead of once per Δ.

    ``arrivals`` are engine-reported arrival times (integer unit-gate
    model): Δ is interpreted relative to them, so with prescribed PI
    arrivals a path is Δ-critical when it *completes* at time >= Δ —
    a late PI absorbs the residual budget up to its own arrival time.

    ``memo`` is a shared :data:`SpcfMemo`; passing the same dict across
    calls reuses every previously tabulated ``(var, t)`` entry, which is
    valid whenever ``(aig, tts, arrivals, relaxed)`` are unchanged.

    ``prefilter`` short-circuits entries whose floating-mode arrival bound
    proves them empty (see :class:`repro.core.signatures.SpcfPrefilter`);
    with an exhaustive prefilter the result is bit-identical to the
    unfiltered DP.
    """
    n = aig.num_pis
    if tts is None:
        tts = node_tts(aig)
    lvl = arrivals if arrivals is not None else levels(aig)
    const0 = TruthTable.const(False, n)
    const1 = TruthTable.const(True, n)
    if memo is None:
        memo = {}

    def lit_tt(lit: int) -> TruthTable:
        t = tts[lit_var(lit)]
        return ~t if lit_neg(lit) else t

    target = (lit_var(po_lit), delta)
    stack = [target]
    while stack:
        var, t = stack[-1]
        if (var, t) in memo:
            stack.pop()
            continue
        if t <= 0:
            memo[(var, t)] = const1
            stack.pop()
            continue
        if not aig.is_and(var):
            # A PI absorbs any residual budget within its arrival time
            # (always 0 under unit delay); the constant starts nothing.
            memo[(var, t)] = const1 if t <= lvl[var] else const0
            stack.pop()
            continue
        if lvl[var] < t:
            # A node arriving before t cannot terminate a t-path.
            memo[(var, t)] = const0
            stack.pop()
            continue
        if prefilter is not None and prefilter.prunes(var, t):
            # No simulated pattern drives the floating-mode arrival of
            # this node to t; with an exhaustive pattern set that is a
            # proof the entry is empty — memoized without materializing
            # a truth table, and the whole sub-DP below it is skipped.
            memo[(var, t)] = const0
            perf.incr("spcf.prefilter_hits")
            stack.pop()
            continue
        f0, f1 = aig.fanins(var)
        v0, v1 = lit_var(f0), lit_var(f1)
        pending = [
            key for key in ((v0, t - 1), (v1, t - 1)) if key not in memo
        ]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        crit0 = memo[(v0, t - 1)]
        crit1 = memo[(v1, t - 1)]
        side0 = lit_tt(f0)  # non-controlling value of input 0 (AND: 1)
        side1 = lit_tt(f1)
        if relaxed:
            through0 = crit0 & (side1 | crit1)
            through1 = crit1 & (side0 | crit0)
        else:
            through0 = crit0 & side1
            through1 = crit1 & side0
        memo[(var, t)] = through0 | through1
    return memo[target]


def spcf_exact_tt(
    aig: AIG,
    po_index: int,
    delta: int,
    tts: Optional[List[TruthTable]] = None,
    arrivals: Optional[Sequence[int]] = None,
    memo: Optional[SpcfMemo] = None,
    prefilter: Optional[SpcfPrefilter] = None,
) -> TruthTable:
    """Exact static-sensitization SPCF of a PO as a PI-space truth table."""
    return _sensitization_dp(
        aig, aig.pos[po_index], delta, relaxed=False, tts=tts,
        arrivals=arrivals, memo=memo, prefilter=prefilter,
    )


def spcf_overapprox_tt(
    aig: AIG,
    po_index: int,
    delta: int,
    tts: Optional[List[TruthTable]] = None,
    arrivals: Optional[Sequence[int]] = None,
    memo: Optional[SpcfMemo] = None,
    prefilter: Optional[SpcfPrefilter] = None,
) -> TruthTable:
    """Node-based over-approximate SPCF (superset of the exact SPCF)."""
    return _sensitization_dp(
        aig, aig.pos[po_index], delta, relaxed=True, tts=tts,
        arrivals=arrivals, memo=memo, prefilter=prefilter,
    )


# -- simulation-based SPCF ------------------------------------------------------


def spcf_signature(
    aig: AIG,
    po_index: int,
    delta: int,
    pi_bits: np.ndarray,
    timed: Optional[Tuple[List[np.ndarray], List[np.ndarray]]] = None,
) -> int:
    """Packed signature of patterns whose floating-mode delay is >= delta."""
    if timed is None:
        timed = timed_simulation(aig, pi_bits)
    _values, arrivals = timed
    po_var = lit_var(aig.pos[po_index])
    return pack_signature(arrivals[po_var] >= delta)


def spcf_exact_bdd(
    aig: AIG,
    po_index: int,
    delta: int,
    bdd,
    size_limit: int = 500_000,
    arrivals: Optional[Sequence[int]] = None,
) -> Optional[int]:
    """Exact static-sensitization SPCF of a PO as a BDD reference.

    Same (node, required-length) dynamic program as the truth-table
    version, run on BDDs so circuits beyond the exhaustive-table limit get
    exact SPCFs too.  Returns None on manager blowup (caller falls back to
    the simulation estimate).
    """
    from ..bdd import FALSE, TRUE, aig_to_bdd, ref_not

    po_lit = aig.pos[po_index]
    lvl = arrivals if arrivals is not None else levels(aig)
    roots = [make_var_lit(v) for v in _cone_and_vars(aig, po_lit)]
    node_refs_list = aig_to_bdd(bdd, aig, roots, size_limit=size_limit)
    if node_refs_list is None:
        return None
    node_refs: Dict[int, int] = {0: FALSE}
    for i, pi in enumerate(aig.pis):
        node_refs[pi] = bdd.var(i)
    for lit, ref in zip(roots, node_refs_list):
        node_refs[lit_var(lit)] = ref

    def lit_ref(lit: int) -> int:
        r = node_refs[lit_var(lit)]
        return ref_not(r) if lit_neg(lit) else r

    memo: Dict[Tuple[int, int], int] = {}
    target = (lit_var(po_lit), delta)
    stack = [target]
    while stack:
        var, t = stack[-1]
        if (var, t) in memo:
            stack.pop()
            continue
        if t <= 0:
            memo[(var, t)] = TRUE
            stack.pop()
            continue
        if not aig.is_and(var):
            memo[(var, t)] = TRUE if t <= lvl[var] else FALSE
            stack.pop()
            continue
        if lvl[var] < t:
            memo[(var, t)] = FALSE
            stack.pop()
            continue
        f0, f1 = aig.fanins(var)
        v0, v1 = lit_var(f0), lit_var(f1)
        pending = [
            key for key in ((v0, t - 1), (v1, t - 1)) if key not in memo
        ]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        through0 = bdd.and_(memo[(v0, t - 1)], lit_ref(f1))
        through1 = bdd.and_(memo[(v1, t - 1)], lit_ref(f0))
        memo[(var, t)] = bdd.or_(through0, through1)
        if bdd.size() > size_limit:
            return None
    return memo[target]


def _cone_and_vars(aig: AIG, po_lit: int):
    seen = set()
    stack = [lit_var(po_lit)]
    order = []
    while stack:
        v = stack.pop()
        if v in seen or not aig.is_and(v):
            continue
        seen.add(v)
        order.append(v)
        f0, f1 = aig.fanins(v)
        stack.append(lit_var(f0))
        stack.append(lit_var(f1))
    return order


def make_var_lit(var: int) -> int:
    """Positive literal of a variable (local helper)."""
    return var << 1


class SpcfTierConfig:
    """Per-cone support-size budgets for tiered SPCF evaluation.

    Cones up to ``exact_limit`` PIs get the requested exact (or relaxed)
    truth-table DP; up to ``overapprox_limit`` they degrade to the
    over-approximate DP; anything wider falls back to the timed-simulation
    signature estimate.  ``force`` pins every cone to one tier regardless
    of size (the CLI's ``--spcf-tier`` knob).  ``prefilter`` attaches the
    floating-mode arrival bound to the DP; it is only ever *applied* when
    the cone is small enough (``exhaustive_limit``) for the bound to be a
    proof, so truth-table tiers stay bit-identical to the unfiltered DP.
    """

    __slots__ = (
        "exact_limit",
        "overapprox_limit",
        "sim_width",
        "seed",
        "prefilter",
        "exhaustive_limit",
        "force",
    )

    def __init__(
        self,
        exact_limit: int = 12,
        overapprox_limit: int = 14,
        sim_width: int = 1024,
        seed: int = 0,
        prefilter: bool = True,
        exhaustive_limit: int = EXHAUSTIVE_PI_LIMIT,
        force: Optional[str] = None,
    ):
        if force not in (None, "exact", "overapprox", "signature"):
            raise ValueError(f"unknown SPCF tier {force!r}")
        self.exact_limit = exact_limit
        self.overapprox_limit = overapprox_limit
        self.sim_width = sim_width
        self.seed = seed
        self.prefilter = prefilter
        self.exhaustive_limit = exhaustive_limit
        self.force = force

    def key(self) -> Tuple:
        """Hashable identity for cache keys (anything result-affecting)."""
        return (
            self.exact_limit,
            self.overapprox_limit,
            self.sim_width,
            self.seed,
            self.prefilter,
            self.exhaustive_limit,
            self.force,
        )

    def __repr__(self) -> str:
        return (
            f"SpcfTierConfig(exact<={self.exact_limit}, "
            f"overapprox<={self.overapprox_limit}, force={self.force})"
        )


def resolve_spcf_tier(
    num_pis: int, kind: str, config: SpcfTierConfig
) -> str:
    """Effective tier for a cone: the requested kind, or a degradation.

    ``force`` pins the tier outright; otherwise the cone's support size is
    measured against the config's budgets — exact (or the requested
    relaxed) DP up to ``exact_limit`` PIs, over-approximate DP up to
    ``overapprox_limit``, timed-simulation signatures beyond.
    """
    if config.force is not None:
        return config.force
    if num_pis <= config.exact_limit:
        return kind
    if num_pis <= config.overapprox_limit:
        return "overapprox"
    return "signature"


class SpcfKernel:
    """Tiered SPCF evaluation of one cone with shared memo/signature pools.

    One kernel serves every Δ of the relaxation loop (and, through the
    injected ``memo`` dicts, later rounds revisiting the same cone): node
    truth tables are tabulated once, the ``(node, budget)`` DP table is
    shared across Δ queries, the floating-mode prefilter is simulated
    once, and the signature tier reuses a single timed simulation.

    ``kind`` is the requested DP flavour (``'exact'`` / ``'overapprox'``);
    the effective tier may degrade by support size per ``config`` and is
    recorded in the ``spcf.tier.*`` perf counters.  The SPCF is a guide
    metric (paper Sec. 3.1), so degraded tiers never compromise
    correctness of the synthesized circuit; the exact tier is bit-identical
    to the direct DP because the shared memo is Δ-independent and the
    prefilter is only applied when exhaustive (a proof).
    """

    def __init__(
        self,
        aig: AIG,
        kind: str = "exact",
        config: Optional[SpcfTierConfig] = None,
        arrivals: Optional[Sequence[int]] = None,
        pi_arrivals: Optional[Sequence[int]] = None,
        tts: Optional[List[TruthTable]] = None,
        memo: Optional[SpcfMemo] = None,
        relaxed_memo: Optional[SpcfMemo] = None,
    ):
        if kind not in ("exact", "overapprox"):
            raise ValueError(f"unknown SPCF kind {kind!r}")
        self.aig = aig
        self.kind = kind
        self.config = config if config is not None else SpcfTierConfig()
        self.arrivals = arrivals
        self.pi_arrivals = pi_arrivals
        self.tier = resolve_spcf_tier(aig.num_pis, kind, self.config)
        self._tts = tts
        self._memo: SpcfMemo = memo if memo is not None else {}
        self._relaxed_memo: SpcfMemo = (
            relaxed_memo if relaxed_memo is not None else {}
        )
        self._prefilter: Optional[SpcfPrefilter] = None
        self._prefilter_built = False
        self._timed = None
        self._counted = False

    # -- lazily built shared state ----------------------------------------

    def _node_tts(self) -> List[TruthTable]:
        if self._tts is None:
            self._tts = node_tts(self.aig)
        return self._tts

    def _dp_prefilter(self) -> Optional[SpcfPrefilter]:
        """The arrival bound, or None when it would not be a proof."""
        if not self._prefilter_built:
            self._prefilter_built = True
            cfg = self.config
            if cfg.prefilter and self.aig.num_pis <= cfg.exhaustive_limit:
                self._prefilter = SpcfPrefilter.for_cone(
                    self.aig,
                    pi_arrivals=self.pi_arrivals,
                    seed=cfg.seed,
                    exhaustive_limit=cfg.exhaustive_limit,
                )
        return self._prefilter

    def _timed_sim(self):
        if self._timed is None:
            cfg = self.config
            pi_bits = unpack_patterns(
                random_patterns(self.aig.num_pis, cfg.sim_width, cfg.seed),
                cfg.sim_width,
            )
            self._timed = timed_value_simulation(
                self.aig, pi_bits, pi_arrivals=self.pi_arrivals
            )
        return self._timed

    # -- evaluation --------------------------------------------------------

    def spcf(self, po_index: int, delta: int) -> Spcf:
        """SPCF of a PO at threshold Δ, in the resolved tier's domain."""
        if not self._counted:
            self._counted = True
            perf.incr(f"spcf.tier.{self.tier}")
        if self.tier == "signature":
            sig = spcf_signature(
                self.aig, po_index, delta, None, timed=self._timed_sim()
            )
            return Spcf("sim", signature=sig)
        relaxed = self.tier == "overapprox"
        tt = _sensitization_dp(
            self.aig,
            self.aig.pos[po_index],
            delta,
            relaxed=relaxed,
            tts=self._node_tts(),
            arrivals=self.arrivals,
            memo=self._relaxed_memo if relaxed else self._memo,
            prefilter=self._dp_prefilter(),
        )
        return Spcf("tt", tt=tt)


class Spcf:
    """An SPCF in the truth-table, BDD, or signature domain."""

    __slots__ = ("mode", "tt", "signature", "bdd", "ref", "count")

    def __init__(
        self,
        mode: str,
        tt: Optional[TruthTable] = None,
        signature: Optional[int] = None,
        bdd=None,
        ref: Optional[int] = None,
        num_pis: Optional[int] = None,
    ):
        self.mode = mode
        self.tt = tt
        self.signature = signature
        self.bdd = bdd
        self.ref = ref
        if mode == "tt":
            if tt is None:
                raise ValueError("tt mode requires a truth table")
            self.count = tt.count_ones()
        elif mode == "sim":
            if signature is None:
                raise ValueError("sim mode requires a signature")
            self.count = bin(signature).count("1")
        elif mode == "bdd":
            if bdd is None or ref is None or num_pis is None:
                raise ValueError("bdd mode requires bdd, ref, and num_pis")
            self.count = bdd.sat_count(ref, num_pis)
        else:
            raise ValueError(f"unknown SPCF mode {mode!r}")

    def is_empty(self) -> bool:
        return self.count == 0

    def __repr__(self) -> str:
        return f"Spcf(mode={self.mode}, count={self.count})"
