"""The complete lookahead synthesis flow used in the paper's evaluation.

The paper implements the technique within ABC and stresses that it
"complements existing logic optimization algorithms": lookahead
decomposition runs on top of conventional optimization.  This module wires
the two together — the result is never worse than the conventional flow
run on the extracted input (the circuit the flow starts from), and
improves on it wherever timing-driven decomposition finds sensitizable
critical structure.  It can trail the conventional flow run on the raw
input: extraction changes what the baseline sees (ROADMAP item (a)).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Optional

from ..aig import AIG
from .config import OptimizerConfig
from .lookahead import LookaheadOptimizer, make_runtime_optimizer


def _make_quality(arrival_times: Optional[Dict[str, int]]):
    """Quality metric: worst PO completion time under the flow's delay
    model, then size.  With no prescribed arrivals this is exactly the
    legacy (depth, num_ands) ordering."""
    from ..timing import AigTimingEngine, resolve_arrivals

    # One delay model per flow: models are stateless, so resolving inside
    # the closure would only rebuild the same object per candidate
    # evaluation.
    model = resolve_arrivals(arrival_times)
    checked = False

    def _quality(aig: AIG):
        nonlocal checked
        q = (AigTimingEngine(aig, model).depth(), aig.num_ands())
        if __debug__ and not checked:
            checked = True
            fresh = AigTimingEngine(aig, resolve_arrivals(arrival_times))
            assert q[0] == fresh.depth(), (
                "hoisted delay model changed the quality ordering"
            )
        return q

    return _quality


def lookahead_flow(
    aig: AIG,
    optimizer: Optional[LookaheadOptimizer] = None,
    config: Optional[OptimizerConfig] = None,
    *,
    store=None,
    rank_data=None,
    **options,
) -> AIG:
    """Conventional high-effort optimization alternated with decomposition.

    Each iteration takes the better of the conventional flow (which cleans
    up and rebalances the mux/window structures the decomposition
    introduced) and another batch of lookahead rounds; iteration stops at
    a fixpoint.  The result is never worse than the conventional flow
    run on the extracted input, which is where the flow starts (it can
    trail the conventional flow on the raw input; ROADMAP item (a)), and
    the decomposition gets a first shot at the raw circuit, where long
    sensitizable chains are still visible.

    ``config`` (default: the ``lookahead`` flow's
    :meth:`OptimizerConfig.for_flow`) with keyword ``options`` overriding
    its fields supplies ``max_iterations`` and ``verify``, and configures
    the optimizer the flow creates, together with the ``store`` and
    ``rank_data`` resources (see :class:`LookaheadOptimizer`).  An
    explicit ``optimizer`` keeps its own config, and its
    ``arrival_times`` set the flow's quality gate.

    ``verify=True`` equivalence-checks every accepted candidate against
    the circuit it replaces (and therefore, transitively, against the
    input), raising ``AssertionError`` on any miscompile — the
    belt-and-braces guard for production runs where a wrong circuit is
    much worse than a slow one.
    """
    from .. import perf
    from ..cec import assert_equivalent
    from ..opt import dc_map_effort_high

    if config is None:
        config = OptimizerConfig.for_flow(
            options.pop("flow", "lookahead"), **options
        )
    else:
        config = replace(config, **options)
    opt = optimizer or LookaheadOptimizer(
        config, store=store, rank_data=rank_data
    )
    _quality = _make_quality(opt.config.arrival_times)
    current = aig.extract()
    current_q = _quality(current)
    # The conventional candidate is recomputed only when `current` actually
    # changed under it.  When the conventional flow itself wins an
    # iteration, its output doubles as the next iteration's conventional
    # candidate: dc_map_effort_high keeps its input among its internal
    # candidates, so rerunning it on its own output cannot do better than
    # what the quality-gate below would accept anyway.
    conventional = None
    try:
        for _ in range(config.max_iterations):
            perf.incr("flow.iterations")
            if conventional is None:
                with perf.timer("phase.conventional"):
                    conventional = dc_map_effort_high(current)
            else:
                perf.incr("flow.conventional.reused")
            candidates = [conventional, opt.optimize(current)]
            # One quality evaluation per fresh candidate: the incumbent's
            # is cached across iterations, never recomputed per round.
            qualities = [_quality(c) for c in candidates]
            best = min(range(len(candidates)), key=qualities.__getitem__)
            candidate, candidate_q = candidates[best], qualities[best]
            if candidate_q >= current_q:
                break
            if config.verify:
                with perf.timer("phase.verify"):
                    assert_equivalent(current, candidate, "flow iteration")
            conventional = candidate if candidate is conventional else None
            current, current_q = candidate, candidate_q
    finally:
        if optimizer is None:
            opt.close()  # the flow owns optimizers it created
    return current


# -- job-shaped entry points (the `repro serve` surface) ----------------------
#
# A daemon absorbing a stream of optimize jobs needs the flow in a
# different shape than the CLI: a job arrives as (circuit, options dict),
# its options must be validated *before* it is queued (a bad job should
# be rejected at submit, not crash a runner mid-drain), and jobs with
# identical options should share one warm optimizer (persistent worker
# pool, hot in-memory store tier).  The options dict is the JSON payload
# of an :class:`OptimizerConfig`; these helpers name the job-side steps.


def normalize_job_config(options: Optional[Dict[str, Any]]) -> OptimizerConfig:
    """Validate a job's options dict into its config.

    Raises ``ValueError`` on anything malformed so the daemon can reject
    the job at submit time (see :meth:`OptimizerConfig.from_payload`).
    """
    return OptimizerConfig.from_payload(options)


def make_job_optimizer(
    config: OptimizerConfig, workers: Optional[int] = None
) -> LookaheadOptimizer:
    """A reusable optimizer for every job sharing ``config.key()``.

    Wires the cone cache to the *already configured* process runtime
    store — never reconfiguring it, because the daemon shares one store
    across every handler and runner thread.  ``verify`` is outside the
    key, so the shared optimizer never checks rounds; a job's flow
    iterations and its answer are checked instead.
    """
    return make_runtime_optimizer(
        replace(config, verify=False), workers=workers
    )


def execute_optimize_job(
    aig: AIG,
    config: OptimizerConfig,
    optimizer: Optional[LookaheadOptimizer] = None,
    workers: Optional[int] = None,
) -> AIG:
    """Run ``config.flow`` on a circuit.

    ``optimizer`` is the daemon's warm per-config instance (or the CLI's,
    which owns the store); when ``None`` an ephemeral one is created and
    closed (the one-shot path used by tests and programmatic callers).
    """
    owned = optimizer is None
    if owned:
        optimizer = make_job_optimizer(config, workers=workers)
    try:
        if config.flow == "lookahead-only":
            return optimizer.optimize(aig)
        return lookahead_flow(aig, optimizer=optimizer, config=config)
    finally:
        if owned:
            optimizer.close()
