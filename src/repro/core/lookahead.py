"""The lookahead synthesis flow (Sec. 3.1 of the paper).

Each round performs one level of the timing-driven decomposition of Eqn. 2:

1. cluster the AIG into a technology-independent network ``T`` (renode);
2. compute the SPCF of every critical output of the decomposed circuit;
3. *primary simplification*: the Reduce/Simplify walk yields the simplified
   cone ``y_pos`` and the window function Σ1;
4. *secondary simplification*: the original cone is re-minimized under the
   care set !Σ1, yielding ``y_neg``;
5. *reconstruction*: ``y = ITE(Σ1, y_pos, y_neg)``, simplified through the
   implication-rule engine, is synthesized arrival-aware into a fresh AIG
   together with all untouched outputs;
6. area recovery (SAT sweeping) cleans the result.

Rounds repeat while the AIG depth improves, which realizes the iterated
window sequence Σ1, Σ2, ..., Σl of the carry-lookahead analogy.

Steps 2–4 are *per-output cone computations*: each critical output is
processed on a standalone copy of its fan-in cone, with no shared mutable
state.  The round therefore fans the per-output pipeline out over a
``ProcessPoolExecutor`` (``workers`` / ``REPRO_WORKERS``; see
:mod:`repro.perf`): each worker receives one extracted cone, returns the
serialized replacement networks, and the main process applies accepted
replacements in fixed output order — so the result is bit-identical to the
serial path.  A cross-round :class:`~repro.core.cache.ConeCache` memoizes
SPCFs and rejected-cone fingerprints by structural hash, skipping cones
that did not change between rounds (or between ``optimize()`` calls).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .. import perf
from ..aig import (
    AIG,
    CONST0,
    aig_fingerprint,
    cone_fingerprint,
    lit_not,
    lit_var,
    random_patterns,
)
from ..rank import RankLogger, RoundFeatureExtractor, resolve_model
from ..netlist import (
    ArrivalAwareBuilder,
    Network,
    renode,
    synthesize_into,
)
from ..sat.portfolio import MODES as PORTFOLIO_MODES
from ..store import MISSING, StoreSpec
from ..store import runtime as store_runtime
from .area_recovery import AREA_EFFORTS, recover_area
from .cache import ConeCache, dp_memo_cached, node_tts_cached
from .model import BddBlowup, BddModel, ExactModel, SignatureModel
from .reconstruct import reconstruct
from .reduce import primary_reduce
from .secondary import ExactCareChecker, SatCareChecker, secondary_simplify
from ..timing import AigTimingEngine, resolve_arrivals
from .spcf import (
    Spcf,
    SpcfKernel,
    SpcfTierConfig,
    resolve_spcf_tier,
    spcf_exact_bdd,
    spcf_exact_tt,
    spcf_overapprox_tt,
    spcf_signature,
    timed_simulation,
    unpack_patterns,
)

TT_MODE_PI_LIMIT = 12
"""Exhaustive truth-table global functions are used up to this many PIs."""

BDD_MODE_PI_LIMIT = 26
"""BDD-domain exact functions are attempted up to this many PIs."""

WALK_MODES = ("target", "full")
"""Admissible critical-walk strategies for ``walk_modes``."""

RANK_MODES = ("off", "log", "prune")
"""Candidate-ranking modes: 'off' is the unranked flow bit-for-bit,
'log' records per-candidate features and outcomes to a dataset, 'prune'
gates candidates on a fitted model's accept probability."""

BUDGET_WINDOWS = 2
"""Budget windows a round may try before giving up: when every
replacement in the first window is rejected, the round slides once to
the next ``max_outputs_per_round`` eligible candidates instead of
ending — bounded, so a terminal round costs at most twice the old
budget."""


def validate_walk_modes(walk_modes) -> Tuple[str, ...]:
    """Validate a walk-mode sequence; returns it as a tuple.

    Shared by the optimizer constructor, the CLI, and the serve job
    validator so all entry points reject bad values identically.
    """
    if isinstance(walk_modes, str) or not isinstance(
        walk_modes, (list, tuple)
    ) or not walk_modes:
        raise ValueError(
            "walk_modes must be a non-empty list of mode names"
        )
    unknown_modes = [m for m in walk_modes if m not in WALK_MODES]
    if unknown_modes:
        raise ValueError(
            f"unknown walk modes {unknown_modes!r}; "
            f"expected a subset of {WALK_MODES}"
        )
    return tuple(walk_modes)


# -- per-output cone pipeline (runs in worker processes) ---------------------
#
# A cone task is a plain picklable tuple:
#
#   (po_index, cone_aig | None, cone_net, mode, spcf_kind, sim_width, seed,
#    walk_mode, spcf_payload | None, arrival_map | None, spcf_tier,
#    spcf_prefilter, sat_portfolio, store_spec)
#
# ``arrival_map`` is the raw PI-name -> arrival-time dict (delay-model
# objects stay out of the tuple so pickling never depends on model state);
# workers rebuild the cone-local timing engine from it.
#
# ``cone_aig`` is the output's critical cone extracted over the full PI
# space (``AIG.extract``), needed only when the SPCF is not already cached;
# ``cone_net`` is the renoded cone (``Network.extract_po_cone``).  The
# result is (po_index, ok, pos_net, sigma_nid, neg_net, spcf_payload,
# phase_seconds, perf_delta) — everything a worker touches is a private
# copy, so the pipeline is deterministic regardless of scheduling.  The
# perf delta carries the worker-registry counters this task bumped
# (spcf.tier.*, prefilter hits, cache pools) back to the parent; the
# serial path discards it, since those bumps already hit the parent
# registry directly.


def _serialize_spcf(spcf: Spcf) -> Optional[Tuple]:
    """SPCF -> process-independent payload (tt/sim modes only)."""
    if spcf.mode == "tt":
        return ("tt", spcf.tt.bits, spcf.tt.nvars)
    if spcf.mode == "sim":
        return ("sim", spcf.signature)
    return None  # BDD refs are manager-bound; never cached or shipped


def _deserialize_spcf(payload: Tuple) -> Spcf:
    if payload[0] == "tt":
        from ..tt import TruthTable

        return Spcf("tt", tt=TruthTable(payload[1], payload[2]))
    return Spcf("sim", signature=payload[1])


# -- whole-result replay ------------------------------------------------------
#
# A cone task is a pure function of its tuple (that is exactly what the
# serial==parallel fuzz invariant enforces), so on a persistent store the
# *entire* task result can be memoized and replayed bit-identically.  The
# key is built after the SPCF stage so the "SPCF cached" and "SPCF
# computed" code paths agree on it: given the serialized SPCF payload,
# the downstream pipeline depends only on (cone_net, mode, sim_width,
# seed, walk_mode, payload, arrivals, sat_portfolio).  This is what makes
# a disk-warm run skip the dominant primary/secondary (SAT) work instead
# of merely skipping SPCF recomputation.


def _cone_result_key(
    cone_net: Network,
    mode: str,
    sim_width: int,
    seed: int,
    walk_mode: str,
    payload: Tuple,
    arrival_map: Optional[Dict[str, int]],
    sat_portfolio: str,
) -> Tuple:
    root, _neg = cone_net.pos[0]
    arrivals = tuple(sorted(arrival_map.items())) if arrival_map else None
    return (
        cone_net.node_fingerprints()[root],
        cone_net.to_payload(),
        mode,
        sim_width,
        seed,
        walk_mode,
        payload,
        arrivals,
        sat_portfolio,
    )


def _encode_cone_result(value: Tuple) -> Tuple:
    ok, pos_net, sigma_nid, neg_net, payload = value
    return (
        bool(ok),
        None if pos_net is None else pos_net.to_payload(),
        sigma_nid,
        None if neg_net is None else neg_net.to_payload(),
        payload,
    )


def _decode_cone_result(value: Tuple) -> Tuple:
    ok, pos, sigma_nid, neg, payload = value
    return (
        bool(ok),
        None if pos is None else Network.from_payload(pos),
        sigma_nid,
        None if neg is None else Network.from_payload(neg),
        payload,
    )


def _pi_arrival_ints(model, pi_names: Sequence[str]) -> Optional[List[int]]:
    """Per-position integer PI arrivals of a delay model (None if uniform)."""
    if model is None:
        return None
    return [
        int(model.pi_arrival(i, name)) for i, name in enumerate(pi_names)
    ]


def _cone_spcf(
    cone_aig: AIG,
    mode: str,
    spcf_kind: str,
    sim_width: int,
    seed: int,
    arrival_map: Optional[Dict[str, int]] = None,
    spcf_tier: str = "auto",
    spcf_prefilter: bool = True,
    sat_portfolio: str = "off",
) -> Optional[Spcf]:
    """SPCF of a single-PO critical cone (PO index 0).

    Identical to the whole-circuit computation: the cone keeps the full PI
    space and the PO's fan-in logic, and the SPCF of an output depends on
    nothing else.  Starts at the full output depth and relaxes Δ: longest
    paths may be statically unsensitizable, and a near-empty SPCF makes a
    useless weight metric — the paper's Δ is a free threshold.

    ``arrival_map`` (PI name -> integer arrival) shifts the whole analysis
    into the non-uniform arrival regime: arrivals come from a cone-local
    timing engine and Δ is interpreted against completion times, so a late
    PI's short structural path can be the critical one.

    Evaluation goes through a :class:`SpcfKernel`: one kernel serves the
    whole Δ-relaxation loop, and its DP memo / node truth tables come from
    the process-local pools in :mod:`repro.core.cache`, so later rounds
    revisiting the same cone resume a warm table.  ``spcf_tier`` /
    ``spcf_prefilter`` carry the optimizer's tier ceiling and prefilter
    switch into the worker process.
    """
    model = resolve_arrivals(arrival_map)
    engine = AigTimingEngine(cone_aig, model)
    lvl = engine.arrivals()
    po_depth = int(lvl[lit_var(cone_aig.pos[0])])
    if po_depth == 0:
        return None
    config = SpcfTierConfig(
        exact_limit=TT_MODE_PI_LIMIT,
        sim_width=sim_width,
        seed=seed,
        prefilter=spcf_prefilter,
        force=(
            "signature"
            if (mode == "sim" or spcf_tier == "signature")
            else None
        ),
        sat_portfolio=sat_portfolio,
    )
    tier = resolve_spcf_tier(cone_aig.num_pis, spcf_kind, config)
    if mode == "tt" and tier == "signature":
        # The reduce/simplify model of a tt-mode cone consumes truth
        # tables, so degradation is capped at the over-approximate DP.
        tier = "overapprox"
        config.force = "overapprox"
    tts = None
    memo = relaxed_memo = None
    if tier in ("exact", "overapprox"):
        fp = cone_fingerprint(cone_aig, cone_aig.pos)
        model_key = model.key() if model is not None else ("unit",)
        tts = node_tts_cached(cone_aig, fp)
        memo = dp_memo_cached(fp, False, cone_aig.num_pis, model_key)
        relaxed_memo = dp_memo_cached(fp, True, cone_aig.num_pis, model_key)
    kernel = SpcfKernel(
        cone_aig,
        kind=spcf_kind,
        config=config,
        arrivals=lvl,
        pi_arrivals=_pi_arrival_ints(model, cone_aig.pi_names),
        tts=tts,
        memo=memo,
        relaxed_memo=relaxed_memo,
    )
    min_count = 1 if tier != "signature" else max(8, sim_width // 128)
    min_delta = max(1, po_depth // 2)
    fallback = None
    for delta in range(po_depth, min_delta - 1, -1):
        spcf = kernel.spcf(0, delta)
        if spcf.count >= min_count:
            return spcf
        if fallback is None and not spcf.is_empty():
            fallback = spcf
    return fallback


def _process_cone(
    cone_net: Network,
    spcf: Spcf,
    mode: str,
    sim_width: int,
    seed: int,
    walk_mode: str,
    phases: Dict[str, float],
    arrival_map: Optional[Dict[str, int]] = None,
    sat_portfolio: str = "off",
) -> Optional[Tuple[Network, int, Network]]:
    """Primary reduce + secondary simplify on a standalone cone network."""
    pos_net = cone_net
    neg_net = cone_net.clone()
    pi_words: List[int] = []
    if mode == "sim":
        pi_words = random_patterns(len(pos_net.pis), sim_width, seed)
        model = SignatureModel(pos_net, pi_words, sim_width)
    else:
        model = ExactModel(pos_net)
    spcf_fn = model.spcf_fn(spcf)
    t0 = time.perf_counter()
    primary = primary_reduce(
        pos_net, 0, model, spcf_fn, walk_mode=walk_mode,
        delay_model=resolve_arrivals(arrival_map),
    )
    phases["reduce"] = phases.get("reduce", 0.0) + time.perf_counter() - t0
    if not primary.success or primary.sigma_nid is None:
        return None
    model.recompute()  # include the freshly added window/Σ nodes
    sigma_fn = model.fn(primary.sigma_nid)
    care_fn = model.complement(sigma_fn)
    if mode == "sim":
        checker = SatCareChecker(
            SignatureModel(neg_net, pi_words, sim_width),
            care_fn,
            pos_net,
            primary.sigma_nid,
            neg_net,
            sat_portfolio=sat_portfolio,
        )
    else:
        checker = ExactCareChecker(ExactModel(neg_net), care_fn)
    t0 = time.perf_counter()
    secondary_simplify(neg_net, 0, checker, max_nodes=24)
    phases["secondary"] = (
        phases.get("secondary", 0.0) + time.perf_counter() - t0
    )
    return pos_net, primary.sigma_nid, neg_net


def _run_cone_task(task: Tuple) -> Tuple:
    """Run the full per-output pipeline on one extracted cone.

    Top-level so ``ProcessPoolExecutor`` can pickle it by reference; also
    called in-process on the serial (workers=1) path, which makes the two
    paths identical by construction.
    """
    (
        po_index,
        cone_aig,
        cone_net,
        mode,
        spcf_kind,
        sim_width,
        seed,
        walk_mode,
        payload,
        arrival_map,
        spcf_tier,
        spcf_prefilter,
        sat_portfolio,
        store_spec,
    ) = task
    # Workers rebuild their runtime store from the shipped spec (no-op
    # when it is already active); a persistent backend is then shared
    # with the parent through SQLite's WAL, never through a forked
    # connection.
    store_runtime.adopt(store_spec)
    start = time.perf_counter()
    before = perf.snapshot()
    phases: Dict[str, float] = {}
    if payload is None:
        t0 = time.perf_counter()
        spcf = _cone_spcf(
            cone_aig, mode, spcf_kind, sim_width, seed, arrival_map,
            spcf_tier, spcf_prefilter, sat_portfolio,
        )
        phases["spcf"] = time.perf_counter() - t0
        if spcf is not None and not spcf.is_empty():
            payload = _serialize_spcf(spcf)
    else:
        spcf = _deserialize_spcf(payload)
    if spcf is None or spcf.is_empty():
        phases["total"] = time.perf_counter() - start
        counters = perf.delta(before, perf.snapshot())
        return (po_index, False, None, None, None, None, phases, counters)
    cone_ns = key = None
    if payload is not None and store_runtime.is_persistent():
        cone_ns = store_runtime.get_store().namespace(
            "cone", encode=_encode_cone_result, decode=_decode_cone_result
        )
        key = _cone_result_key(
            cone_net, mode, sim_width, seed, walk_mode, payload,
            arrival_map, sat_portfolio,
        )
        stored = cone_ns.get(key, MISSING)
        if stored is not MISSING:
            ok, pos_net, sigma_nid, neg_net, payload = stored
            phases["total"] = time.perf_counter() - start
            counters = perf.delta(before, perf.snapshot())
            return (
                po_index, ok, pos_net, sigma_nid, neg_net, payload,
                phases, counters,
            )
    result = _process_cone(
        cone_net, spcf, mode, sim_width, seed, walk_mode, phases,
        arrival_map, sat_portfolio,
    )
    phases["total"] = time.perf_counter() - start
    counters = perf.delta(before, perf.snapshot())
    if result is None:
        if cone_ns is not None:
            cone_ns.put(key, (False, None, None, None, payload))
        return (
            po_index, False, None, None, None, payload, phases, counters
        )
    pos_net, sigma_nid, neg_net = result
    if cone_ns is not None:
        # Encoding snapshots the nets before the parent splices/mutates
        # anything downstream.
        cone_ns.put(key, (True, pos_net, sigma_nid, neg_net, payload))
    return (
        po_index, True, pos_net, sigma_nid, neg_net, payload, phases,
        counters,
    )


class LookaheadOptimizer:
    """Timing-driven optimizer producing lookahead logic circuits."""

    def __init__(
        self,
        max_rounds: int = 4,
        k: int = 6,
        mode: str = "auto",
        spcf_kind: str = "exact",
        sim_width: int = 1024,
        seed: int = 0,
        use_rules: bool = True,
        max_outputs_per_round: Optional[int] = None,
        verify: bool = False,
        area_recovery: bool = True,
        area_effort: str = "medium",
        walk_modes: Tuple[str, ...] = ("target", "full"),
        workers: Optional[int] = None,
        cache: Optional[ConeCache] = None,
        arrival_times: Optional[Dict[str, int]] = None,
        spcf_tier: str = "auto",
        spcf_prefilter: bool = True,
        sat_portfolio: str = "off",
        store: StoreSpec = None,
        rank: str = "off",
        rank_model=None,
        rank_data=None,
    ):
        """Configure the optimizer.

        ``mode``: 'tt' (exact global functions), 'sim' (signatures), or
        'auto' (by PI count).  ``spcf_kind``: 'exact' or 'overapprox'
        (truth-table modes only; simulation mode always estimates).
        ``spcf_tier``: ceiling for the tiered SPCF kernels — 'auto'
        (degrade by support size), 'exact'/'overapprox' (pin the DP
        flavour where truth tables are feasible), or 'signature' (force
        the timed-simulation estimate everywhere, which also selects sim
        mode).  ``spcf_prefilter`` toggles the floating-mode arrival
        bound that prunes provably-empty DP entries (sound, so results
        are bit-identical either way; see ``repro.core.signatures``).
        ``verify``: equivalence-check every accepted round (slow; tests).
        ``workers``: worker processes for the per-output fan-out; ``None``
        defers to ``REPRO_WORKERS`` / ``os.cpu_count()`` and ``1`` forces
        the serial path (see :func:`repro.perf.get_workers`).  ``cache``:
        a :class:`ConeCache` to share across optimizers; by default each
        optimizer owns one, which persists across its ``optimize()`` calls.
        ``arrival_times`` maps PI names to integer prescribed arrival
        times (non-uniform regime): criticality, SPCFs, reconstruction
        trees, and the acceptance metric all follow completion times
        instead of raw logic depth.  ``None`` is the unit-delay model and
        reproduces the uniform-arrival flow bit-for-bit.
        ``area_recovery`` toggles the post-round area-recovery pipeline
        entirely; ``area_effort`` ('low'/'medium'/'high') selects how
        hard :func:`repro.core.recover_area` works when it is on.
        ``sat_portfolio`` schedules the solver-bound queries (secondary
        simplification, redundancy removal): 'off' is the historical
        single-config path bit-for-bit, 'sprint' adds budgeted first
        passes with prefix reuse, 'race' additionally races diversified
        solver configurations on queries the sprint cannot settle (see
        :mod:`repro.sat.portfolio`).
        ``store`` plugs a :mod:`repro.store` result store under every
        memo layer: a database path (or :class:`repro.store.StoreConfig`
        / ready store) installs it as the process runtime store, backs
        the optimizer's :class:`ConeCache` with it, and ships the spec to
        pool workers, so SPCF payloads, rejected-cone verdicts, UNSAT
        cubes, witnesses, and redundancy proofs survive across
        invocations.  ``None`` (default) keeps every memo process-local —
        bit-identical to the historical behaviour; disk-warm runs are
        bit-identical in QoR to cold ones, just faster (DESIGN 3.20).
        ``rank`` selects the learned candidate ranker (DESIGN 3.23):
        'off' (default) is the unranked flow bit-for-bit, 'log' records
        per-candidate features and outcomes through ``rank_data`` (a
        JSONL path or :class:`repro.rank.RankLogger`; ``None`` keeps
        rows in memory), 'prune' skips candidates scoring under the
        threshold of ``rank_model`` (a path, payload dict, or
        :class:`repro.rank.RankModel`) before any SPCF/reconstruction
        work — with a zero-accept-window fallback that re-runs pruned
        candidates ungated, so a misprediction costs latency, never QoR.
        """
        if spcf_tier not in ("auto", "exact", "overapprox", "signature"):
            raise ValueError(f"unknown SPCF tier {spcf_tier!r}")
        if rank not in RANK_MODES:
            raise ValueError(
                f"unknown rank mode {rank!r}; expected one of {RANK_MODES}"
            )
        if rank == "prune" and rank_model is None:
            raise ValueError(
                "rank='prune' requires a rank_model "
                "(a model path, payload dict, or RankModel)"
            )
        if rank_data is not None and rank != "log":
            raise ValueError("rank_data is only meaningful with rank='log'")
        if sat_portfolio not in PORTFOLIO_MODES:
            raise ValueError(
                f"unknown SAT portfolio mode {sat_portfolio!r}; "
                f"expected one of {PORTFOLIO_MODES}"
            )
        if area_effort not in AREA_EFFORTS:
            raise ValueError(
                f"unknown area effort {area_effort!r}; "
                f"expected one of {AREA_EFFORTS}"
            )
        self.max_rounds = max_rounds
        self.k = k
        self.mode = mode
        self.spcf_kind = spcf_kind
        if spcf_tier in ("exact", "overapprox"):
            # A pinned DP flavour rides on the existing kind machinery.
            self.spcf_kind = spcf_tier
        self.spcf_tier = spcf_tier
        self.spcf_prefilter = spcf_prefilter
        self.sat_portfolio = sat_portfolio
        self.sim_width = sim_width
        self.seed = seed
        self.use_rules = use_rules
        self.max_outputs_per_round = max_outputs_per_round
        self.verify = verify
        self.area_recovery = area_recovery
        self.area_effort = area_effort
        self.walk_modes = validate_walk_modes(walk_modes)
        self.workers = workers
        self.rank = rank
        self._rank_model = (
            resolve_model(rank_model) if rank == "prune" else None
        )
        if rank == "log":
            self.rank_logger = (
                rank_data
                if isinstance(rank_data, RankLogger)
                else RankLogger(rank_data)
            )
        else:
            self.rank_logger = None
        # Per-optimize-call ranking state: config keys whose rejection
        # this call has (re)confirmed or predicted, per-cone consecutive
        # reject streaks, and the round counter stamped into log rows.
        self._call_rejected: Set[Tuple] = set()
        self._rank_streaks: Dict[int, int] = {}
        self._rank_round = 0
        self._round_rows: List[dict] = []
        self._call_rows: List[dict] = []
        self.store_spec = store
        if store is not None:
            store_runtime.configure(store)
        if cache is not None:
            self.cache = cache
        elif store is not None:
            self.cache = ConeCache(store=store_runtime.get_store())
        else:
            self.cache = ConeCache()
        self.arrival_times = dict(arrival_times) if arrival_times else None
        self._executor: Optional[ProcessPoolExecutor] = None
        self._executor_workers = 0

    # -- delay model ------------------------------------------------------------

    def _delay_model(self):
        """Fresh delay model for the configured arrivals (None = unit)."""
        return resolve_arrivals(self.arrival_times)

    def _model_key(self) -> tuple:
        model = self._delay_model()
        return model.key() if model is not None else ("unit",)

    # -- public API -------------------------------------------------------------

    def _quality(self, aig: AIG) -> Tuple[int, int, int]:
        """Lexicographic quality: worst PO arrival, total arrival, size."""
        perf.incr("quality.evals")
        engine = AigTimingEngine(aig, self._delay_model())
        pol = engine.po_arrivals()
        return (max(pol) if pol else 0, sum(pol), aig.num_ands())

    def optimize(self, aig: AIG) -> AIG:
        """Optimize the AIG; returns an equivalent circuit, never worse in depth.

        Each walk strategy is run as its own full round sequence (greedy
        per-round mixing of strategies traps the search in local optima);
        the best final result wins.

        The worker pool (like the cone cache) persists across ``optimize``
        calls so repeated invocations — e.g. the ``lookahead_flow``
        iteration loop — reuse warm worker processes.  Call :meth:`close`
        (or use the optimizer as a context manager) when done.
        """
        # Ranking state is per call: verdict replay from earlier calls
        # flows through the cone cache, never through these.
        self._call_rejected = set()
        self._rank_streaks = {}
        self._rank_round = 0
        self._round_rows = []
        self._call_rows = []
        with perf.timer("optimize"):
            results = [
                self._optimize_with(aig, walk_mode)
                for walk_mode in self.walk_modes
            ]
        winner = min(range(len(results)), key=lambda i: results[i][1])
        self._log_call_rows(self.walk_modes[winner])
        return results[winner][0]

    def _log_call_rows(self, winning_walk: str) -> None:
        """Write the call's staged rows, demoting the losing walks.

        The final labelling level: a candidate only stays ``accept=1``
        when the walk strategy it ran under is the one whose result
        this call actually returned.  A quality-kept round inside a
        losing walk re-derived a result the winning walk already had —
        on one-critical-output circuits that duplicated secondary SAT
        pass is most of the wall-clock, and it is exactly the work a
        recall-1.0 prune model may skip without touching the returned
        circuit (DESIGN 3.23).
        """
        rows, self._call_rows = self._call_rows, []
        if self.rank_logger is None:
            return
        for row in rows:
            if row["walk"] != winning_walk:
                row["accept"] = 0
            perf.incr("rank.logged")
            self.rank_logger.log(row)

    def _optimize_with(self, aig: AIG, walk_mode: str) -> Tuple[AIG, Tuple]:
        """Run the round sequence for one walk; returns (AIG, quality).

        The incumbent's quality is computed once and cached across
        rounds (and handed to ``optimize``'s final comparison), so a
        sequence of rejected rounds costs one timing analysis per fresh
        candidate instead of two.

        The reject-streak counters are walk-local.  They feed the rank
        features, and a prune run's streak evolution must replay its
        training run's exactly for the recall-1.0 calibration to hold;
        a streak that leaked across walks would let one walk's pruned
        (but training-accepted) candidates shift a later walk's feature
        vectors — and with them, scores — off the logged trajectory
        (found by repro.verify fuzzing, seed 4 case 1112).  Config-key
        verdicts need no such scoping: ``cfg_key`` embeds the walk mode.
        """
        self._rank_streaks = {}
        current = aig.extract()
        current_q = self._quality(current)
        for _round in range(self.max_rounds):
            candidate = self._one_round(current, walk_mode)
            if candidate is None:
                self._flush_rank_rows(kept=False)
                break
            candidate_q = self._quality(candidate)
            kept = candidate_q < current_q
            self._flush_rank_rows(kept=kept)
            if not kept:
                break
            if self.verify:
                from ..cec import assert_equivalent

                assert_equivalent(current, candidate, "lookahead round")
            current, current_q = candidate, candidate_q
        return current, current_q

    def _flush_rank_rows(self, kept: bool) -> None:
        """Promote the round's staged rows to the call buffer.

        A candidate only keeps ``accept=1`` when its replacement was
        spliced in by ``_rebuild`` *and* the round's aggregate survived
        the quality gate: a rebuild-accepted cone in a quality-rejected
        round contributed nothing (the paper's metric discarded the
        whole candidate circuit), and labelling it positive would teach
        the prune gate to spend SPCF and SAT time on provably dead
        rounds.  The rows reach the logger in :meth:`_log_call_rows`,
        which applies the final walk-level demotion (DESIGN 3.23).
        """
        rows, self._round_rows = self._round_rows, []
        if self.rank_logger is None:
            return
        for row in rows:
            row["accept"] = int(row["accept"] and kept)
            self._call_rows.append(row)

    # -- worker pool ------------------------------------------------------------

    def _ensure_executor(self, nworkers: int) -> ProcessPoolExecutor:
        if self._executor is None or self._executor_workers != nworkers:
            self._shutdown_executor()
            self._executor = ProcessPoolExecutor(max_workers=nworkers)
            self._executor_workers = nworkers
        return self._executor

    def _shutdown_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
            self._executor_workers = 0

    def close(self) -> None:
        """Shut down the worker pool (idempotent; optimizer stays usable).

        Without this, a lazily created ``ProcessPoolExecutor`` keeps its
        worker processes alive until interpreter exit.  ``lookahead_flow``
        and the CLI close the optimizers they create; long-lived callers
        should do the same (or use ``with LookaheadOptimizer(...) as opt``).
        """
        self._shutdown_executor()
        if self.rank_logger is not None:
            self.rank_logger.close()

    def __enter__(self) -> "LookaheadOptimizer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:
        # Safety net for callers that forget close(); best-effort because
        # interpreter shutdown may have torn the pool machinery down.
        try:
            self.close()
        except Exception:
            pass

    # -- one decomposition level ---------------------------------------------------

    def _resolve_mode(self, aig: AIG) -> str:
        if self.spcf_tier == "signature":
            # Forcing the signature tier implies the simulation domain
            # end-to-end (SPCF, reduce model, and secondary checker).
            return "sim"
        if self.mode != "auto":
            return self.mode
        if aig.num_pis <= TT_MODE_PI_LIMIT:
            return "tt"
        if aig.num_pis <= BDD_MODE_PI_LIMIT:
            return "bdd"
        return "sim"

    def _one_round(self, aig: AIG, walk_mode: str = "target") -> Optional[AIG]:
        engine = AigTimingEngine(aig, self._delay_model())
        d = engine.depth()
        if d <= 1:
            return None
        mode = self._resolve_mode(aig)
        perf.incr("rounds")
        self._rank_round += 1
        self._round_rows = []
        aig_levels = engine.arrivals()
        # Criticality is judged on the decomposed circuit (the AIG), where
        # the SPCF and the paper's quality metric live; under prescribed
        # arrivals the engine's zero-slack POs replace the deepest ones.
        critical = engine.critical_pos()

        # Renoding is only needed once a cone actually dispatches, so the
        # windowed path takes it lazily: a round whose whole window the
        # rank gate prunes (or the cache replays) never pays for it.
        net_box: List[Network] = []

        def net_thunk() -> Network:
            if not net_box:
                with perf.timer("phase.renode"):
                    net_box.append(renode(aig, self.k))
            return net_box[0]

        if mode == "bdd":
            # BDD refs live inside one shared (unpicklable) manager, so the
            # BDD round stays in-process; cones that blow up fall back to
            # the signature domain per output, as before.  The BDD path
            # has no rejection cache, so the raw budget truncation stands.
            if self.max_outputs_per_round is not None:
                critical = critical[: self.max_outputs_per_round]
            processed = self._bdd_round(aig, net_thunk(), critical,
                                        aig_levels, walk_mode)
            if not processed:
                return None
            with perf.timer("phase.rebuild"):
                rebuilt, accepted = self._rebuild(aig, processed)
            if not accepted:
                # Nothing won: stop here rather than returning the
                # restrashed/swept copy.  A sweep-only "improvement" from
                # an all-rejected round would make the result depend on
                # whether rejected cones were skipped through the negative
                # cache — i.e. warm-cache runs would diverge from cold
                # ones (found by repro.verify fuzzing, seed 0 case 30).
                return None
        else:
            rebuilt = self._windowed_round(
                aig, net_thunk, critical, aig_levels, mode, walk_mode
            )
            if rebuilt is None:
                return None
        if self.area_recovery:
            with perf.timer("phase.area"):
                rebuilt = recover_area(
                    rebuilt, effort=self.area_effort, seed=self.seed,
                    delay_model=self._delay_model(),
                    sat_portfolio=self.sat_portfolio,
                )
        return rebuilt

    def _candidate_keys(
        self, aig: AIG, po_index: int, mode: str, walk_mode: str
    ) -> Tuple[int, Tuple, Tuple]:
        """(fingerprint, spcf_key, cfg_key) of one candidate output."""
        po_lit = aig.pos[po_index]
        fp = cone_fingerprint(aig, [po_lit])
        # The model key keeps unit and prescribed-arrival runs
        # from colliding in the shared cone cache.
        spcf_key = (fp, mode, self.spcf_kind, self.sim_width,
                    self.seed, self._model_key(),
                    self.spcf_tier)
        cfg_key = spcf_key + (
            walk_mode, self.k, self.use_rules, self.sat_portfolio,
        )
        return fp, spcf_key, cfg_key

    def _note_reject(self, fp: int) -> None:
        self._rank_streaks[fp] = self._rank_streaks.get(fp, 0) + 1

    def _unnote_reject(self, fp: int) -> None:
        streak = self._rank_streaks.get(fp, 0) - 1
        if streak > 0:
            self._rank_streaks[fp] = streak
        else:
            self._rank_streaks.pop(fp, None)

    def _select_window(
        self, aig: AIG, queue: List[int], mode: str, walk_mode: str
    ) -> Tuple[List[Tuple[int, int, Tuple, Tuple]], List[int]]:
        """Next budget window of candidates, plus the untouched tail.

        Walks the critical queue in order, drops candidates whose config
        key was rejected *during this optimize call*, and stops at the
        per-round budget.  Selection deliberately never consults bare
        cross-call cache state: a warm run replays inherited verdicts
        into ``_call_rejected`` at dispatch, exactly where a cold run
        records the same verdicts after evaluating — so warm and cold
        runs build identical windows (the cached_cold_identical /
        store_warm_equals_cold invariants).
        """
        budget = self.max_outputs_per_round
        window: List[Tuple[int, int, Tuple, Tuple]] = []
        tail: List[int] = []
        for pos, po_index in enumerate(queue):
            if budget is not None and len(window) >= budget:
                tail = queue[pos:]
                break
            fp, spcf_key, cfg_key = self._candidate_keys(
                aig, po_index, mode, walk_mode
            )
            if cfg_key in self._call_rejected:
                continue
            window.append((po_index, fp, spcf_key, cfg_key))
        return window, tail

    def _windowed_round(
        self,
        aig: AIG,
        net_thunk: Callable[[], Network],
        critical: List[int],
        aig_levels: List[int],
        mode: str,
        walk_mode: str,
    ) -> Optional[AIG]:
        """The cone path of one round, over up to BUDGET_WINDOWS windows.

        Candidates rejected earlier in this ``optimize`` call never
        occupy a budget slot again, and a window whose replacements were
        all rejected slides once to the next eligible window instead of
        ending the round — together the fix for warm rounds burning
        their whole budget on known-rejected cones.
        """
        queue = list(critical)
        extractor = None
        if self.rank != "off":
            extractor = RoundFeatureExtractor(
                aig,
                aig_levels,
                _pi_arrival_ints(self._delay_model(), aig.pi_names),
                self.seed,
            )
        max_windows = (
            1 if self.max_outputs_per_round is None else BUDGET_WINDOWS
        )
        for window_index in range(max_windows):
            if window_index:
                perf.incr("rounds.window_slides")
            window, queue = self._select_window(aig, queue, mode, walk_mode)
            if not window:
                return None
            rebuilt = self._run_window(
                aig, net_thunk, window, aig_levels, mode, walk_mode, extractor
            )
            if rebuilt is not None:
                return rebuilt
            if not queue:
                return None
        return None

    def _run_window(
        self,
        aig: AIG,
        net_thunk: Callable[[], Network],
        window: List[Tuple[int, int, Tuple, Tuple]],
        aig_levels: List[int],
        mode: str,
        walk_mode: str,
        extractor,
    ) -> Optional[AIG]:
        """One window: dispatch, judge, bookkeep; AIG if anything won.

        In prune mode, a *partially* pruned window re-runs the pruned
        candidates ungated before the rebuild judgment — once the gate
        has let anything through, the round is going to pay for a
        dispatch and a rebuild anyway, and evaluating the pruned
        candidates alongside keeps the round's accepted set identical
        to the unranked flow's (a pruned candidate that would have been
        accepted must cost extra latency, never QoR).  The predicted
        verdicts are rolled back first, so the fallback behaves exactly
        like an ungated window over those candidates.  A *wholly*
        pruned window (nothing dispatched at all) is instead trusted as
        the round verdict: the model was calibrated so that every
        winning-walk quality-kept training row scores above threshold,
        and re-running everything it prunes would make the gate's best
        case cost-neutral (DESIGN 3.23).
        """
        processed, reject_keys, pruned, features, dispatched = (
            self._cone_round(
                aig, net_thunk, window, aig_levels, mode, walk_mode,
                extractor, gate=True,
            )
        )
        fallback_pos: Set[int] = set()
        if pruned and dispatched:
            perf.incr("rank.fallback.windows")
            for _po, fp, _spcf_key, cfg_key in pruned:
                self._call_rejected.discard(cfg_key)
                self._unnote_reject(fp)
            f_processed, f_reject_keys, _pruned, _feats, _disp = (
                self._cone_round(
                    aig, net_thunk, pruned, aig_levels, mode, walk_mode,
                    extractor, gate=False,
                )
            )
            processed = processed + f_processed
            reject_keys.update(f_reject_keys)
            fallback_pos = {entry[0] for entry in f_processed}
        accepted: Set[int] = set()
        rebuilt: Optional[AIG] = None
        if processed:
            with perf.timer("phase.rebuild"):
                rebuilt, accepted = self._rebuild(aig, processed)
        rescued = accepted & fallback_pos
        if rescued:
            perf.incr("rank.false_prune_detected", len(rescued))
        fp_by_po = {entry[0]: entry[1] for entry in window}
        for po_index, key in reject_keys.items():
            if po_index in accepted:
                perf.incr("replacements.accepted")
                self._rank_streaks.pop(fp_by_po[po_index], None)
            else:
                perf.incr("replacements.rejected")
                self.cache.mark_rejected(key)
                self._call_rejected.add(key)
                self._note_reject(fp_by_po[po_index])
        if self.rank_logger is not None:
            # Rows are staged, not written: the label a candidate earns
            # here (did _rebuild splice it in?) is only half the story —
            # the round's aggregate must also survive the quality gate
            # in _optimize_with, which ANDs the verdict in at flush time.
            circuit_fp = format(aig_fingerprint(aig), "016x")
            for po_index, fp, _spcf_key, _cfg_key in window:
                feats = features.get(po_index)
                if feats is None:
                    continue
                self._round_rows.append({
                    "features": feats,
                    "accept": int(po_index in accepted),
                    "po": po_index,
                    "round": self._rank_round,
                    "walk": walk_mode,
                    "fp": format(fp, "016x"),
                    "circuit": circuit_fp,
                })
        if not accepted:
            return None
        return rebuilt

    def _cone_round(
        self,
        aig: AIG,
        net_thunk: Callable[[], Network],
        window: List[Tuple[int, int, Tuple, Tuple]],
        aig_levels: List[int],
        mode: str,
        walk_mode: str,
        extractor=None,
        gate: bool = True,
    ) -> Tuple[
        List[Tuple[int, Network, int, Network]],
        Dict[int, Tuple],
        List[Tuple[int, int, Tuple, Tuple]],
        Dict[int, List[float]],
        int,
    ]:
        """Fan the per-output pipeline out over extracted cones (tt/sim).

        ``window`` holds ``(po_index, fingerprint, spcf_key, cfg_key)``
        candidates from :meth:`_select_window`.  Builds one
        self-contained task per candidate, runs them in worker processes
        (or in-process when workers=1), and collects the results in
        fixed output order.  Cones whose fingerprint was already
        rejected under this configuration are skipped entirely; fresh
        SPCFs are cached for later rounds and flow iterations.
        ``net_thunk`` materialises the renoded network on first use, so
        a window that dispatches nothing never pays for renoding.

        Returns ``(processed, reject_keys, pruned, features,
        dispatched)``: ``pruned`` are candidates the rank gate skipped
        (``gate=True`` and a prune model is active); ``features`` maps
        po_index to the feature vector computed for logging/scoring;
        ``dispatched`` counts the tasks that actually ran (the caller's
        fallback heuristic needs to distinguish a wholly pruned window
        from a partially evaluated one).  Every candidate whose verdict
        is determined here — replayed, SPCF-empty, pruned, or
        walk-failed — lands in ``_call_rejected`` under its *config*
        key, so later window selections skip it regardless of which
        underlying verdict it was; that uniformity is what keeps a
        prune run's window composition bit-identical to its training
        run's (DESIGN 3.23).
        """
        nworkers = perf.get_workers(self.workers)
        gating = gate and self._rank_model is not None
        want_features = self.rank == "log" or gating

        # On the serial path, sim-mode SPCFs come from one shared timed
        # simulation of the whole circuit (cone-local simulation yields
        # bit-identical arrivals, but would redo the work per output —
        # that duplication only pays off when workers absorb it).
        shared_sim: List = []

        def shared_spcf(po_index: int) -> Optional[Spcf]:
            if not shared_sim:
                pi_words = random_patterns(
                    aig.num_pis, self.sim_width, self.seed
                )
                timed = timed_simulation(
                    aig,
                    unpack_patterns(pi_words, self.sim_width),
                    pi_arrivals=_pi_arrival_ints(
                        self._delay_model(), aig.pi_names
                    ),
                )
                shared_sim.append((pi_words, timed))
            pi_words, timed = shared_sim[0]
            return self._compute_spcf(
                aig, po_index, aig_levels, "sim", timed, pi_words
            )

        tasks: List[Tuple] = []
        spcf_keys: Dict[int, Tuple] = {}
        reject_keys: Dict[int, Tuple] = {}
        fp_by_po: Dict[int, int] = {}
        cached_payload: Set[int] = set()
        pruned: List[Tuple[int, int, Tuple, Tuple]] = []
        features: Dict[int, List[float]] = {}
        # The first dispatched cone triggers the lazy renode, and serial
        # sim rounds compute SPCFs here; both have timers of their own.
        with perf.timer(
            "phase.dispatch", exclude=("phase.renode", "phase.spcf")
        ):
            for po_index, fp, spcf_key, cfg_key in window:
                po_lit = aig.pos[po_index]
                fp_by_po[po_index] = fp
                score = None
                if want_features:
                    t0 = time.perf_counter()
                    feats = extractor.features(
                        po_index, self._rank_streaks.get(fp, 0), walk_mode
                    )
                    if gating:
                        score = self._rank_model.score(feats)
                        perf.observe(
                            "rank.score", time.perf_counter() - t0
                        )
                        perf.incr("rank.scored")
                    features[po_index] = feats
                if self.cache.is_rejected(cfg_key) or self.cache.is_rejected(
                    spcf_key
                ):
                    # Replay an inherited (cross-call) verdict into the
                    # in-call set so later windows skip it at selection.
                    self._call_rejected.add(cfg_key)
                    self._note_reject(fp)
                    continue
                if gating and score < self._rank_model.threshold:
                    perf.incr("rank.pruned")
                    self._call_rejected.add(cfg_key)
                    self._note_reject(fp)
                    pruned.append((po_index, fp, spcf_key, cfg_key))
                    continue
                payload = self.cache.get_spcf(spcf_key)
                cone_aig = None
                if payload is not None:
                    cached_payload.add(po_index)
                elif mode == "sim" and nworkers == 1:
                    with perf.timer("phase.spcf"):
                        spcf = shared_spcf(po_index)
                    if spcf is None or spcf.is_empty():
                        self.cache.mark_rejected(spcf_key)
                        self._call_rejected.add(cfg_key)
                        self._note_reject(fp)
                        continue
                    payload = _serialize_spcf(spcf)
                else:
                    cone_aig = aig.extract([po_lit])
                cone_net = net_thunk().extract_po_cone(po_index)
                spcf_keys[po_index] = spcf_key
                reject_keys[po_index] = cfg_key
                tasks.append(
                    (
                        po_index,
                        cone_aig,
                        cone_net,
                        mode,
                        self.spcf_kind,
                        self.sim_width,
                        self.seed,
                        walk_mode,
                        payload,
                        self.arrival_times,
                        self.spcf_tier,
                        self.spcf_prefilter,
                        self.sat_portfolio,
                        store_runtime.current_spec(),
                    )
                )

        start = time.perf_counter()
        parallel = nworkers > 1 and len(tasks) > 1
        if parallel:
            executor = self._ensure_executor(nworkers)
            results = list(executor.map(_run_cone_task, tasks))
            perf.incr("rounds.parallel")
        else:
            results = [_run_cone_task(task) for task in tasks]
            perf.incr("rounds.serial")
        if parallel:
            perf.add_time(
                "workers.capacity",
                (time.perf_counter() - start) * min(nworkers, len(tasks)),
            )

        processed: List[Tuple[int, Network, int, Network]] = []
        for (
            po_index, ok, pos_net, sigma_nid, neg_net, payload, phases,
            counters,
        ) in results:
            for name, seconds in phases.items():
                if name != "total":
                    perf.add_time(f"phase.{name}", seconds)
                elif parallel:
                    perf.add_time("workers.busy", seconds)
            if parallel:
                # Worker-registry counters (tiers, prefilter, cache pools)
                # only exist in the worker process; fold the task's delta
                # in.  Serial tasks bumped this registry directly.
                perf.merge({"counters": counters.get("counters", {})})
            if payload is not None and po_index not in cached_payload:
                self.cache.put_spcf(spcf_keys[po_index], payload)
            if not ok:
                if payload is None:
                    # No sensitizable critical path: walk-independent, so
                    # reject the SPCF key itself.
                    self.cache.mark_rejected(spcf_keys[po_index])
                else:
                    self.cache.mark_rejected(reject_keys[po_index])
                self._call_rejected.add(reject_keys[po_index])
                self._note_reject(fp_by_po[po_index])
                del reject_keys[po_index]
                continue
            processed.append((po_index, pos_net, sigma_nid, neg_net))
        return processed, reject_keys, pruned, features, len(tasks)

    def _bdd_round(
        self,
        aig: AIG,
        net: Network,
        critical: List[int],
        aig_levels: List[int],
        walk_mode: str,
    ) -> List[Tuple[int, Network, int, Network]]:
        """Serial per-output loop for the BDD mode (shared manager)."""
        from ..bdd import BDD

        bdd_manager = BDD()
        pi_words: List[int] = []
        timed = None

        def ensure_sim():
            nonlocal pi_words, timed
            if timed is None:
                pi_words = random_patterns(
                    aig.num_pis, self.sim_width, self.seed
                )
                pi_bits = unpack_patterns(pi_words, self.sim_width)
                timed = timed_simulation(
                    aig,
                    pi_bits,
                    pi_arrivals=_pi_arrival_ints(
                        self._delay_model(), aig.pi_names
                    ),
                )

        processed: List[Tuple[int, Network, int, Network]] = []
        for po_index in critical:
            po_mode = "bdd"
            spcf = self._compute_spcf(
                aig, po_index, aig_levels, po_mode, timed, pi_words,
                bdd_manager,
            )
            if spcf is None:
                # BDD blowup: retry this output in the signature domain.
                po_mode = "sim"
                ensure_sim()
                spcf = self._compute_spcf(
                    aig, po_index, aig_levels, po_mode, timed, pi_words, None
                )
            if spcf is None or spcf.is_empty():
                continue  # output has no (sensitizable) critical path
            try:
                result = self._process_output(
                    net, po_index, spcf, po_mode, pi_words, walk_mode,
                    bdd_manager,
                )
            except BddBlowup:
                ensure_sim()
                spcf = self._compute_spcf(
                    aig, po_index, aig_levels, "sim", timed, pi_words, None
                )
                if spcf is None or spcf.is_empty():
                    continue
                result = self._process_output(
                    net, po_index, spcf, "sim", pi_words, walk_mode, None
                )
            if result is not None:
                processed.append(result)
        return processed

    def _compute_spcf(
        self,
        aig: AIG,
        po_index: int,
        aig_levels: List[int],
        mode: str,
        timed,
        pi_words: List[int],
        bdd_manager=None,
    ) -> Optional[Spcf]:
        po_depth = int(aig_levels[lit_var(aig.pos[po_index])])
        if po_depth == 0:
            return None
        if mode == "tt":
            perf.incr(f"spcf.tier.{self.spcf_kind}")
        elif mode == "bdd":
            perf.incr("spcf.tier.bdd")
        else:
            perf.incr("spcf.tier.signature")
        # Start at the full output depth and relax: longest paths may be
        # false (statically unsensitizable), and a near-empty SPCF makes a
        # useless weight metric — the paper's Delta is a free threshold.
        min_count = 1 if mode == "tt" else max(8, self.sim_width // 128)
        min_delta = max(1, po_depth // 2)
        fallback = None
        for delta in range(po_depth, min_delta - 1, -1):
            if mode == "tt":
                if self.spcf_kind == "overapprox":
                    tt = spcf_overapprox_tt(
                        aig, po_index, delta, arrivals=aig_levels
                    )
                else:
                    tt = spcf_exact_tt(
                        aig, po_index, delta, arrivals=aig_levels
                    )
                spcf = Spcf("tt", tt=tt)
            elif mode == "bdd":
                ref = spcf_exact_bdd(
                    aig, po_index, delta, bdd_manager, arrivals=aig_levels
                )
                if ref is None:
                    return None  # manager blowup: caller falls back
                spcf = Spcf(
                    "bdd", bdd=bdd_manager, ref=ref, num_pis=aig.num_pis
                )
            else:
                sig = spcf_signature(
                    aig, po_index, delta, None, timed=timed
                )
                spcf = Spcf("sim", signature=sig)
            if spcf.count >= min_count:
                return spcf
            if fallback is None and not spcf.is_empty():
                fallback = spcf
        return fallback

    def _process_output(
        self,
        net: Network,
        po_index: int,
        spcf: Spcf,
        mode: str,
        pi_words: List[int],
        walk_mode: str = "target",
        bdd_manager=None,
    ) -> Optional[Tuple[int, Network, int, Network]]:
        pos_net = net.extract_po_cone(po_index)
        neg_net = net.extract_po_cone(po_index)
        if mode == "tt":
            model = ExactModel(pos_net)
        elif mode == "bdd":
            model = BddModel(pos_net, bdd=bdd_manager)
        else:
            model = SignatureModel(pos_net, pi_words, self.sim_width)
        spcf_fn = model.spcf_fn(spcf)
        primary = primary_reduce(
            pos_net, 0, model, spcf_fn, walk_mode=walk_mode,
            delay_model=self._delay_model(),
        )
        if not primary.success or primary.sigma_nid is None:
            return None
        model.recompute()  # include the freshly added window/Σ nodes
        sigma_fn = model.fn(primary.sigma_nid)
        care_fn = model.complement(sigma_fn)
        if mode == "tt":
            checker = ExactCareChecker(ExactModel(neg_net), care_fn)
        elif mode == "bdd":
            checker = ExactCareChecker(
                BddModel(neg_net, bdd=bdd_manager), care_fn
            )
        else:
            checker = SatCareChecker(
                SignatureModel(neg_net, pi_words, self.sim_width),
                care_fn,
                pos_net,
                primary.sigma_nid,
                neg_net,
                sat_portfolio=self.sat_portfolio,
            )
        secondary_simplify(neg_net, 0, checker, max_nodes=24)
        return po_index, pos_net, primary.sigma_nid, neg_net

    def _rebuild(
        self,
        aig: AIG,
        processed: List[Tuple[int, Network, int, Network]],
    ) -> Tuple[AIG, Set[int]]:
        """Apply replacements in fixed PO order; returns (AIG, accepted set).

        Iterating ``aig.pos`` (not completion order) keeps the rebuild
        deterministic under any worker scheduling.  Each reconstruction is
        synthesized and judged in its own scratch AIG, and only the winners
        are copied into the result: a rejected candidate must leave no
        trace, or the output would depend on whether the cone was processed
        at all — cache-warm runs skip known-rejected cones entirely, and
        their results have to stay bit-identical to cold ones (found by
        repro.verify fuzzing, seed 1 case 104).
        """
        by_po = {entry[0]: entry for entry in processed}

        # Phase 1: judge each reconstruction cone-locally in a scratch AIG.
        winners: Dict[int, Tuple[AIG, int]] = {}
        for i, po_lit in enumerate(aig.pos):
            entry = by_po.get(i)
            if entry is None:
                continue
            _idx, pos_net, sigma_nid, neg_net = entry
            scratch = AIG()
            builder = ArrivalAwareBuilder(scratch, self._delay_model())
            smap: Dict[int, int] = {0: CONST0}
            spi_lits = []
            for var, name in zip(aig.pis, aig.pi_names):
                lit = scratch.add_pi(name)
                smap[var] = lit
                spi_lits.append(lit)
            pos_lits = synthesize_into(builder, pos_net, spi_lits)
            neg_lits = synthesize_into(builder, neg_net, spi_lits)
            root_p, neg_p = pos_net.pos[0]
            y_pos = pos_lits[root_p]
            if neg_p:
                y_pos = lit_not(y_pos)
            sigma = pos_lits[sigma_nid]
            root_n, neg_n = neg_net.pos[0]
            y_neg = neg_lits[root_n]
            if neg_n:
                y_neg = lit_not(y_neg)
            recon = reconstruct(builder, sigma, y_pos, y_neg, self.use_rules)
            original = aig.copy_cone(scratch, smap, [po_lit])[0]
            # Keep the original cone when the reconstruction did not win.
            if builder.level(recon) < builder.level(original):
                winners[i] = (scratch, recon)

        # Phase 2: emit — accepted reconstructions and untouched cones only.
        dest = AIG()
        mapping: Dict[int, int] = {0: CONST0}
        pi_lits = []
        for var, name in zip(aig.pis, aig.pi_names):
            lit = dest.add_pi(name)
            mapping[var] = lit
            pi_lits.append(lit)
        new_pos: List[int] = []
        accepted: Set[int] = set()
        for i, po_lit in enumerate(aig.pos):
            winner = winners.get(i)
            if winner is None:
                new_pos.append(aig.copy_cone(dest, mapping, [po_lit])[0])
                continue
            scratch, recon = winner
            wmap: Dict[int, int] = {0: CONST0}
            for svar, lit in zip(scratch.pis, pi_lits):
                wmap[svar] = lit
            new_pos.append(scratch.copy_cone(dest, wmap, [recon])[0])
            accepted.add(i)
        for lit, name in zip(new_pos, aig.po_names):
            dest.add_po(lit, name)
        return dest.extract(), accepted


def optimize_lookahead(aig: AIG, **kwargs) -> AIG:
    """One-call convenience wrapper around :class:`LookaheadOptimizer`."""
    with LookaheadOptimizer(**kwargs) as opt:
        return opt.optimize(aig)


def make_runtime_optimizer(**kwargs) -> LookaheadOptimizer:
    """An optimizer wired to the *already configured* runtime store.

    ``LookaheadOptimizer(store=spec)`` calls ``store_runtime.configure``,
    which tears the previous process store down and builds a fresh one —
    correct for the one-shot CLI, fatal for a daemon whose handler and
    runner threads all share the runtime store (a job arriving mid-flight
    would close the store out from under every other job).  This factory
    instead backs the optimizer's :class:`ConeCache` with the current
    runtime store as-is; worker task tuples still ship
    ``store_runtime.current_spec()``, so pool workers adopt the same
    backend exactly as on the CLI path.
    """
    assert "store" not in kwargs, (
        "make_runtime_optimizer wires the runtime store itself; "
        "configure it once via store_runtime.configure"
    )
    kwargs.setdefault("cache", ConeCache(store=store_runtime.get_store()))
    return LookaheadOptimizer(**kwargs)
