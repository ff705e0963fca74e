"""SAT sprint scheduling and the shared UNSAT cache.

Solver-bound queries in the lookahead flow (cube reachability in
secondary simplification, redundancy proofs in area recovery) have
heavy-tailed runtimes: most resolve in a handful of conflicts, a few eat
the whole budget.  ``sprint`` mode answers each query with a cheap
**sprint** pass first — a small conflict budget that settles the easy
majority outright — and **escalates** the same solver up to the
caller's full budget only when the sprint cannot settle it.  Repeat
queries across rounds, Δ values, and outputs short-circuit through
**sharing**: UNSAT verdicts are memoized in a process-global
:class:`UnsatCache` keyed by structural fingerprints, and SAT witnesses
flow into the caller's witness pool.

``off`` builds no runner and never touches the UNSAT cache: callers
answer each query with one solver on the same (restricted, lazily grown)
encoding, so ``off`` is deterministic and independent of cache and store
state.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

from .. import perf
from ..store import MemoryStore, Namespace
from ..store import runtime as store_runtime
from .solver import DEFAULT_CONFIG, Solver, SolverConfig

MODES = ("off", "sprint")
"""Portfolio modes, in increasing order of machinery per query."""


class PortfolioConfig:
    """How solver-bound queries are scheduled."""

    __slots__ = ("mode", "sprint_conflicts")

    def __init__(self, mode: str = "off", sprint_conflicts: int = 64) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if sprint_conflicts < 1:
            raise ValueError("sprint_conflicts must be >= 1")
        self.mode = mode
        self.sprint_conflicts = sprint_conflicts

    def key(self) -> Tuple:
        """Hashable identity (for result caches keyed on configuration)."""
        return (self.mode, self.sprint_conflicts)

    def __repr__(self) -> str:
        return f"PortfolioConfig({self.mode!r})"


PortfolioSpec = Union[None, str, PortfolioConfig]


def resolve_portfolio(spec: PortfolioSpec = None) -> PortfolioConfig:
    """Normalize a user-facing spec (None / mode string / config object)."""
    if spec is None:
        return PortfolioConfig()
    if isinstance(spec, PortfolioConfig):
        return spec
    if isinstance(spec, str):
        return PortfolioConfig(mode=spec)
    raise TypeError(f"expected portfolio mode or PortfolioConfig, got {spec!r}")


class UnsatCache:
    """Memo of proved-unreachable query cubes, backed by the result store.

    Keys are structural fingerprints of everything the verdict depends on
    (see ``SatCareChecker._query_key``), so a hit is sound across rounds,
    Δ values, outputs, and even separate optimizer runs — and, when the
    process has a persistent runtime store, across invocations: entries
    live in the store's ``unsat`` namespace, so UNSAT verdicts survive to
    warm the next run.  A hit may upgrade what a budget-limited solver
    call would have left UNKNOWN, so portfolio modes that consult the
    cache are deterministic for a fixed store state but not across
    arbitrary cache states; ``off`` never consults it (the determinism
    story is in DESIGN 3.19).

    A standalone instance (``UnsatCache(limit=...)``) owns a private
    bounded in-memory store; ``use_runtime=True`` — how
    :data:`GLOBAL_UNSAT_CACHE` is built — re-resolves the process runtime
    store on every access, so ``--store`` configuration and post-fork
    reopening are picked up transparently.
    """

    __slots__ = ("limit", "_private", "_use_runtime")

    def __init__(self, limit: int = 1 << 16, use_runtime: bool = False) -> None:
        self.limit = limit
        self._use_runtime = use_runtime
        self._private = (
            None
            if use_runtime
            else MemoryStore(default_limit=limit, limits={"unsat": limit})
        )

    def _ns(self) -> Namespace:
        store = (
            store_runtime.get_store() if self._use_runtime else self._private
        )
        return store.namespace("unsat")

    def hit(self, key: Tuple) -> bool:
        if self._ns().contains(key):
            perf.incr("sat.portfolio.unsat_cache.hit")
            return True
        perf.incr("sat.portfolio.unsat_cache.miss")
        return False

    def add(self, key: Tuple) -> None:
        self._ns().put(key, True)

    def clear(self) -> None:
        self._ns().clear()

    def __len__(self) -> int:
        return self._ns().entries()


GLOBAL_UNSAT_CACHE = UnsatCache(use_runtime=True)
"""Shared by every checker in the process; with ``--store`` the verdicts
live in the persistent store and survive across invocations."""


class PortfolioRunner:
    """Schedules one query stream on a lazily built sprint solver.

    ``build`` encodes the caller's formula into a fresh :class:`Solver`
    for a given configuration; it runs on first use, so a stream the
    caller settles without SAT never pays for an encoding.
    """

    def __init__(
        self,
        config: PortfolioConfig,
        build: Callable[[SolverConfig], Solver],
    ) -> None:
        if config.mode == "off":
            raise ValueError("PortfolioRunner requires a sprint mode")
        self.config = config
        self._build = build
        self._solver: Optional[Solver] = None
        self.winner: Optional[Solver] = None

    def solver(self) -> Solver:
        """The sprint solver, built on first use."""
        if self._solver is None:
            self._solver = self._build(DEFAULT_CONFIG)
        return self._solver

    def model_value(self, ext: int) -> Optional[bool]:
        """Model literal value of the last answer (None if unsettled)."""
        return self.winner.model_value(ext) if self.winner is not None else None

    def solve(
        self,
        assumptions: Sequence[int],
        baseline_conflicts: Optional[int] = None,
        keep_prefix: int = 0,
    ) -> Optional[bool]:
        """Answer one query; True = SAT (model on :attr:`winner`).

        ``baseline_conflicts`` is the budget the caller would have given a
        single solver; the sprint spends at most ``sprint_conflicts`` of
        it and escalation continues up to exactly the remainder (None:
        unbounded), so an UNKNOWN means an unassisted baseline query would
        (modulo restart phasing) have been UNKNOWN too.  ``keep_prefix``
        is forwarded to the solver.
        """
        cfg = self.config
        perf.incr("sat.portfolio.queries")
        self.winner = None
        sprint_budget = cfg.sprint_conflicts
        if baseline_conflicts is not None:
            sprint_budget = min(sprint_budget, baseline_conflicts)
        solver = self.solver()
        before = solver.num_conflicts
        result = solver.solve(
            assumptions, max_conflicts=sprint_budget, keep_prefix=keep_prefix
        )
        spent = solver.num_conflicts - before
        if result is not None:
            self.winner = solver
            perf.incr("sat.portfolio.sprint_wins")
            if baseline_conflicts is not None and baseline_conflicts > spent:
                perf.incr(
                    "sat.portfolio.conflicts_saved",
                    baseline_conflicts - spent,
                )
            return result
        perf.incr("sat.portfolio.escalations")
        remaining = None
        if baseline_conflicts is not None:
            remaining = baseline_conflicts - spent
            if remaining <= 0:
                return None
        result = solver.solve(
            assumptions, max_conflicts=remaining, keep_prefix=keep_prefix
        )
        if result is not None:
            self.winner = solver
        return result
