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
from dataclasses import replace
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
from ..rank import RankLogger, RoundFeatureExtractor
from ..netlist import (
    ArrivalAwareBuilder,
    Network,
    renode,
    synthesize_into,
)
from ..store import MISSING, StoreSpec
from ..store import runtime as store_runtime
from .area_recovery import recover_area
from .cache import ConeCache, dp_memo_cached, node_tts_cached
from .config import OptimizerConfig
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

BUDGET_WINDOWS = 2
"""Budget windows a round may try before giving up: when every
replacement in the first window is rejected, the round slides once to
the next ``max_outputs_per_round`` eligible candidates instead of
ending — bounded, so a terminal round costs at most twice the old
budget."""


# -- per-output cone pipeline (runs in worker processes) ---------------------
#
# A cone task is a plain picklable tuple:
#
#   (po_index, cone_aig | None, cone_net, mode, walk_mode,
#    spcf_payload | None, config, store_spec)
#
# ``mode`` is the round's resolved domain and ``config`` the optimizer's
# :class:`OptimizerConfig`; its ``arrival_times`` is the raw PI-name ->
# arrival-time dict (delay-model objects stay out of the tuple so pickling
# never depends on model state), from which workers rebuild the cone-local
# timing engine.
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
    walk_mode: str,
    payload: Tuple,
    config: OptimizerConfig,
) -> Tuple:
    root, _neg = cone_net.pos[0]
    arrival_map = config.arrival_times
    arrivals = tuple(sorted(arrival_map.items())) if arrival_map else None
    return (
        cone_net.node_fingerprints()[root],
        cone_net.to_payload(),
        mode,
        config.sim_width,
        config.seed,
        walk_mode,
        payload,
        arrivals,
        config.sat_portfolio,
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
    cone_aig: AIG, mode: str, config: OptimizerConfig
) -> Optional[Spcf]:
    """SPCF of a single-PO critical cone (PO index 0).

    Identical to the whole-circuit computation: the cone keeps the full PI
    space and the PO's fan-in logic, and the SPCF of an output depends on
    nothing else.  Starts at the full output depth and relaxes Δ: longest
    paths may be statically unsensitizable, and a near-empty SPCF makes a
    useless weight metric — the paper's Δ is a free threshold.

    ``config.arrival_times`` (PI name -> integer arrival) shifts the
    whole analysis into the non-uniform arrival regime: arrivals come from
    a cone-local timing engine and Δ is interpreted against completion
    times, so a late PI's short structural path can be the critical one.

    Evaluation goes through a :class:`SpcfKernel`: one kernel serves the
    whole Δ-relaxation loop, and its DP memo / node truth tables come from
    the process-local pools in :mod:`repro.core.cache`, so later rounds
    revisiting the same cone resume a warm table.  The config's
    ``spcf_tier`` / ``spcf_prefilter`` carry the optimizer's tier ceiling
    and prefilter switch into the worker process.
    """
    sim_width = config.sim_width
    model = resolve_arrivals(config.arrival_times)
    engine = AigTimingEngine(cone_aig, model)
    lvl = engine.arrivals()
    po_depth = int(lvl[lit_var(cone_aig.pos[0])])
    if po_depth == 0:
        return None
    # ``spcf_tier='signature'`` implies sim mode (OptimizerConfig).
    tier_config = SpcfTierConfig(
        exact_limit=TT_MODE_PI_LIMIT,
        sim_width=sim_width,
        seed=config.seed,
        prefilter=config.spcf_prefilter,
        force="signature" if mode == "sim" else None,
    )
    tier = resolve_spcf_tier(cone_aig.num_pis, config.spcf_dp, tier_config)
    if mode == "tt" and tier == "signature":
        # The reduce/simplify model of a tt-mode cone consumes truth
        # tables, so degradation is capped at the over-approximate DP.
        tier = "overapprox"
        tier_config.force = "overapprox"
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
        kind=config.spcf_dp,
        config=tier_config,
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
    walk_mode: str,
    phases: Dict[str, float],
    config: OptimizerConfig,
) -> Optional[Tuple[Network, int, Network]]:
    """Primary reduce + secondary simplify on a standalone cone network."""
    sim_width = config.sim_width
    pos_net = cone_net
    neg_net = cone_net.clone()
    pi_words: List[int] = []
    if mode == "sim":
        pi_words = random_patterns(len(pos_net.pis), sim_width, config.seed)
        model = SignatureModel(pos_net, pi_words, sim_width)
    else:
        model = ExactModel(pos_net)
    spcf_fn = model.spcf_fn(spcf)
    t0 = time.perf_counter()
    primary = primary_reduce(
        pos_net, 0, model, spcf_fn, walk_mode=walk_mode,
        delay_model=resolve_arrivals(config.arrival_times),
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
            sat_portfolio=config.sat_portfolio,
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
        po_index, cone_aig, cone_net, mode, walk_mode, payload, config,
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
        spcf = _cone_spcf(cone_aig, mode, config)
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
        key = _cone_result_key(cone_net, mode, walk_mode, payload, config)
        stored = cone_ns.get(key, MISSING)
        if stored is not MISSING:
            ok, pos_net, sigma_nid, neg_net, payload = stored
            phases["total"] = time.perf_counter() - start
            counters = perf.delta(before, perf.snapshot())
            return (
                po_index, ok, pos_net, sigma_nid, neg_net, payload,
                phases, counters,
            )
    result = _process_cone(cone_net, spcf, mode, walk_mode, phases, config)
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
        config: Optional[OptimizerConfig] = None,
        *,
        workers: Optional[int] = None,
        cache: Optional[ConeCache] = None,
        store: StoreSpec = None,
        rank_data=None,
        **options,
    ):
        """Configure the optimizer.

        ``config`` is an :class:`OptimizerConfig`, which declares,
        documents and validates every option; keyword ``options`` build
        one or override fields of ``config``, so
        ``LookaheadOptimizer(max_rounds=2)`` and
        ``LookaheadOptimizer(OptimizerConfig(max_rounds=2))`` are the
        same optimizer.  The other arguments are resources, which never
        change a result:

        ``workers``: worker processes for the per-output fan-out; ``None``
        defers to ``REPRO_WORKERS`` / ``os.cpu_count()`` and ``1`` forces
        the serial path (see :func:`repro.perf.get_workers`).  ``cache``:
        a :class:`ConeCache` to share across optimizers; by default each
        optimizer owns one, which persists across its ``optimize()`` calls.
        ``store`` plugs a :mod:`repro.store` result store under every
        memo layer: a database path (or :class:`repro.store.StoreConfig`
        / ready store) installs it as the process runtime store, backs
        the optimizer's :class:`ConeCache` with it, and ships the spec to
        pool workers, so SPCF payloads, rejected-cone verdicts, UNSAT
        cubes, witnesses, and redundancy proofs survive across
        invocations.  ``None`` (default) keeps every memo process-local;
        disk-warm runs are bit-identical in QoR to cold ones, just faster
        (DESIGN 3.20).  ``rank_data`` is the ``rank='log'`` sink (a JSONL
        path or :class:`repro.rank.RankLogger`; ``None`` keeps rows in
        memory).  Under ``rank='prune'``, candidates scoring under the
        model's threshold are skipped before any SPCF/reconstruction
        work, with a zero-accept-window fallback that re-runs pruned
        candidates ungated, so a misprediction costs latency, never QoR
        (DESIGN 3.23).
        """
        self.config = config = (
            OptimizerConfig(**options)
            if config is None
            else replace(config, **options)
        )
        if rank_data is not None and config.rank != "log":
            raise ValueError("rank_data is only meaningful with rank='log'")
        self.workers = workers
        # Resolved by the config (a RankModel under 'prune', else None).
        self._rank_model = config.rank_model
        if config.rank == "log":
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
        self._executor: Optional[ProcessPoolExecutor] = None
        self._executor_workers = 0

    # -- delay model ------------------------------------------------------------

    def _delay_model(self):
        """Fresh delay model for the configured arrivals (None = unit)."""
        return resolve_arrivals(self.config.arrival_times)

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
                for walk_mode in self.config.walk_modes
            ]
        winner = min(range(len(results)), key=lambda i: results[i][1])
        self._log_call_rows(self.config.walk_modes[winner])
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
        for _round in range(self.config.max_rounds):
            candidate = self._one_round(current, walk_mode)
            if candidate is None:
                self._flush_rank_rows(kept=False)
                break
            candidate_q = self._quality(candidate)
            kept = candidate_q < current_q
            self._flush_rank_rows(kept=kept)
            if not kept:
                break
            if self.config.verify:
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
        # ``spcf_tier='signature'`` arrives here as mode 'sim': the config
        # normalizes the two spellings to one setting.
        if self.config.mode != "auto":
            return self.config.mode
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
                    net_box.append(renode(aig, self.config.k))
            return net_box[0]

        if mode == "bdd":
            # BDD refs live inside one shared (unpicklable) manager, so the
            # BDD round stays in-process; cones that blow up fall back to
            # the signature domain per output, as before.  The BDD path
            # has no rejection cache, so the raw budget truncation stands.
            if self.config.max_outputs_per_round is not None:
                critical = critical[: self.config.max_outputs_per_round]
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
        cfg = self.config
        if cfg.area_recovery:
            with perf.timer("phase.area"):
                rebuilt = recover_area(
                    rebuilt, effort=cfg.area_effort, seed=cfg.seed,
                    delay_model=self._delay_model(),
                    sat_portfolio=cfg.sat_portfolio,
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
        cfg = self.config
        spcf_key = (fp, mode, cfg.spcf_tier, cfg.sim_width, cfg.seed,
                    self._model_key())
        cfg_key = spcf_key + (
            walk_mode, cfg.k, cfg.use_rules, cfg.sat_portfolio,
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
        budget = self.config.max_outputs_per_round
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
        if self.config.rank != "off":
            extractor = RoundFeatureExtractor(
                aig,
                aig_levels,
                _pi_arrival_ints(self._delay_model(), aig.pi_names),
                self.config.seed,
            )
        max_windows = (
            1
            if self.config.max_outputs_per_round is None
            else BUDGET_WINDOWS
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
        want_features = self.config.rank == "log" or gating

        # On the serial path, sim-mode SPCFs come from one shared timed
        # simulation of the whole circuit (cone-local simulation yields
        # bit-identical arrivals, but would redo the work per output —
        # that duplication only pays off when workers absorb it).
        shared_sim: List = []

        def shared_spcf(po_index: int) -> Optional[Spcf]:
            if not shared_sim:
                pi_words = random_patterns(
                    aig.num_pis, self.config.sim_width, self.config.seed
                )
                timed = timed_simulation(
                    aig,
                    unpack_patterns(pi_words, self.config.sim_width),
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
                        walk_mode,
                        payload,
                        self.config,
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
                    aig.num_pis, self.config.sim_width, self.config.seed
                )
                pi_bits = unpack_patterns(pi_words, self.config.sim_width)
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
            perf.incr(f"spcf.tier.{self.config.spcf_dp}")
        elif mode == "bdd":
            perf.incr("spcf.tier.bdd")
        else:
            perf.incr("spcf.tier.signature")
        # Start at the full output depth and relax: longest paths may be
        # false (statically unsensitizable), and a near-empty SPCF makes a
        # useless weight metric — the paper's Delta is a free threshold.
        sim_width = self.config.sim_width
        min_count = 1 if mode == "tt" else max(8, sim_width // 128)
        min_delta = max(1, po_depth // 2)
        fallback = None
        for delta in range(po_depth, min_delta - 1, -1):
            if mode == "tt":
                if self.config.spcf_dp == "overapprox":
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
            model = SignatureModel(pos_net, pi_words, self.config.sim_width)
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
                SignatureModel(neg_net, pi_words, self.config.sim_width),
                care_fn,
                pos_net,
                primary.sigma_nid,
                neg_net,
                sat_portfolio=self.config.sat_portfolio,
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
            recon = reconstruct(
                builder, sigma, y_pos, y_neg, self.config.use_rules
            )
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


def make_runtime_optimizer(
    config: Optional[OptimizerConfig] = None, **kwargs
) -> LookaheadOptimizer:
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
    return LookaheadOptimizer(config, **kwargs)
