"""SAT portfolio racing: sprint passes, escalation, and config races.

Solver-bound queries in the lookahead flow (cube reachability in
secondary simplification, redundancy proofs in area recovery) have
heavy-tailed runtimes: most resolve in a handful of conflicts, a few eat
the whole budget.  The classic remedy is a portfolio — run several solver
configurations with genuinely different search trajectories and take the
first answer.  This module implements a deterministic variant:

* a cheap **sprint** pass first: the baseline configuration with a small
  conflict budget settles the easy majority of queries outright;
* **escalation** only for queries the sprint cannot settle — in ``sprint``
  mode the same solver simply continues up to the caller's full budget,
  in ``race`` mode every configuration gets round-robin slices with
  doubling conflict budgets until one answers or all hit the cap;
* **sharing**: SAT witnesses harvested from whichever racer wins flow
  into the caller's witness pool, and UNSAT verdicts are memoized in a
  process-global :class:`UnsatCache` keyed by structural fingerprints so
  repeat queries across rounds, Δ values, and outputs short-circuit.

Determinism: the schedule is a fixed rotation with fixed budgets — no
wall-clock, no threads — so a given mode is reproducible run-to-run.
``off`` builds no runner and never touches the UNSAT cache: callers
answer each query with one baseline solver on the same (restricted,
lazily grown) encoding the racers use, so ``off`` is deterministic and
independent of cache and store state, but not SAT-call-identical to
flows that encoded the full formula.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

from .. import perf
from ..store import MemoryStore, Namespace
from ..store import runtime as store_runtime
from .solver import Solver, SolverConfig

MODES = ("off", "sprint", "race")
"""Portfolio modes, in increasing order of machinery per query."""

DEFAULT_CONFIGS: Tuple[SolverConfig, ...] = (
    SolverConfig(name="base"),
    SolverConfig(name="jitter", seed=11, polarity="random"),
    SolverConfig(
        name="geo-neg",
        restart="geometric",
        restart_base=100,
        polarity="false",
        phase_saving=False,
    ),
    SolverConfig(
        name="geo-db",
        seed=23,
        restart="geometric",
        restart_base=150,
        learned_limit=4096,
    ),
)
"""The stock racer set: the baseline plus three diversified strategies."""


class PortfolioConfig:
    """How solver-bound queries are scheduled across configurations."""

    __slots__ = ("mode", "configs", "sprint_conflicts", "race_start", "race_limit")

    def __init__(
        self,
        mode: str = "off",
        configs: Sequence[SolverConfig] = DEFAULT_CONFIGS,
        sprint_conflicts: int = 64,
        race_start: int = 128,
        race_limit: int = 4096,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        configs = tuple(configs)
        if not configs:
            raise ValueError("at least one solver configuration required")
        names = [c.name for c in configs]
        if len(set(names)) != len(names):
            raise ValueError(f"config names must be unique, got {names}")
        if sprint_conflicts < 1:
            raise ValueError("sprint_conflicts must be >= 1")
        if race_start < 1 or race_limit < race_start:
            raise ValueError("need 1 <= race_start <= race_limit")
        self.mode = mode
        self.configs = configs
        self.sprint_conflicts = sprint_conflicts
        self.race_start = race_start
        self.race_limit = race_limit

    def key(self) -> Tuple:
        """Hashable identity (for result caches keyed on configuration)."""
        return (
            self.mode,
            tuple(c.key() for c in self.configs),
            self.sprint_conflicts,
            self.race_start,
            self.race_limit,
        )

    def __repr__(self) -> str:
        return f"PortfolioConfig({self.mode!r}, {len(self.configs)} configs)"


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
    """Schedules one query stream across lazily built racer solvers.

    ``build`` encodes the caller's formula into a fresh :class:`Solver`
    for a given configuration.  Racers beyond the baseline are only built
    on first escalation, so workloads the sprint fully settles never pay
    for extra encodings.  All racers see identical clause streams, hence
    identical variable numbering — callers may reuse one variable map.
    """

    def __init__(
        self,
        config: PortfolioConfig,
        build: Callable[[SolverConfig], Solver],
    ) -> None:
        if config.mode == "off":
            raise ValueError("PortfolioRunner requires a racing mode")
        self.config = config
        self._build = build
        self._solvers: List[Optional[Solver]] = [None] * len(config.configs)
        self.winner: Optional[Solver] = None

    def solver(self, index: int = 0) -> Solver:
        """The racer for config ``index``, built on first use."""
        s = self._solvers[index]
        if s is None:
            s = self._build(self.config.configs[index])
            self._solvers[index] = s
        return s

    def built(self) -> List[Tuple[int, Solver]]:
        """The racers that exist right now, as (config index, solver).

        Callers that extend the shared formula incrementally (lazy cone
        encoding) must feed the new clauses to every *built* racer;
        racers built later replay the extended clause stream via
        ``build``, so the streams stay identical either way.
        """
        return [
            (i, s) for i, s in enumerate(self._solvers) if s is not None
        ]

    def model_value(self, ext: int) -> Optional[bool]:
        """Model literal value from the winning racer (None if no winner)."""
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
        it and ``sprint`` mode escalates up to exactly the remainder, so
        an UNKNOWN means an unassisted baseline query would (modulo
        restart phasing) have been UNKNOWN too.  ``keep_prefix`` is
        forwarded to every racer (each retains its own assumption trail).
        """
        cfg = self.config
        perf.incr("sat.portfolio.queries")
        self.winner = None
        sprint_budget = cfg.sprint_conflicts
        if baseline_conflicts is not None:
            sprint_budget = min(sprint_budget, baseline_conflicts)
        primary = self.solver(0)
        before = primary.num_conflicts
        result = primary.solve(
            assumptions, max_conflicts=sprint_budget, keep_prefix=keep_prefix
        )
        spent = primary.num_conflicts - before
        if result is not None:
            self.winner = primary
            perf.incr("sat.portfolio.sprint_wins")
            perf.incr(f"sat.portfolio.win.{cfg.configs[0].name}")
            if baseline_conflicts is not None and baseline_conflicts > spent:
                perf.incr(
                    "sat.portfolio.conflicts_saved",
                    baseline_conflicts - spent,
                )
            return result
        perf.incr("sat.portfolio.escalations")
        if cfg.mode == "sprint":
            full = (
                baseline_conflicts
                if baseline_conflicts is not None
                else cfg.race_limit
            )
            remaining = full - spent
            if remaining <= 0:
                return None
            result = primary.solve(
                assumptions, max_conflicts=remaining, keep_prefix=keep_prefix
            )
            if result is not None:
                self.winner = primary
                perf.incr(f"sat.portfolio.win.{cfg.configs[0].name}")
            return result
        perf.incr("sat.portfolio.races")
        budget = cfg.race_start
        spent_per = [spent] + [0] * (len(cfg.configs) - 1)
        while True:
            progressed = False
            for i in range(len(cfg.configs)):
                if spent_per[i] >= cfg.race_limit:
                    continue
                progressed = True
                racer = self.solver(i)
                before = racer.num_conflicts
                result = racer.solve(
                    assumptions, max_conflicts=budget, keep_prefix=keep_prefix
                )
                spent_per[i] += racer.num_conflicts - before
                if result is not None:
                    self.winner = racer
                    perf.incr(f"sat.portfolio.win.{cfg.configs[i].name}")
                    return result
            if not progressed:
                return None
            budget *= 2
