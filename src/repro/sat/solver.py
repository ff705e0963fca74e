"""A CDCL SAT solver (MiniSat-style).

Features: two-literal watching, first-UIP conflict analysis with clause
learning, VSIDS decision heuristic with an indexed heap, phase saving, Luby
restarts, and incremental solving under assumptions.

The search strategy is parameterized by :class:`SolverConfig` so a
portfolio can race configurations with genuinely different trajectories
(seeded activity jitter, polarity modes, Luby vs. geometric restarts,
clause-DB limits).  The default configuration reproduces the historical
single-config behavior bit-for-bit.

External literals use the DIMACS convention: variable ``v`` (1-based) is the
positive literal ``v`` and the negative literal ``-v``.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

_UNDEF = -1


def _ilit(ext: int) -> int:
    """DIMACS literal -> internal literal (2*var + sign)."""
    var = abs(ext) - 1
    return var * 2 + (1 if ext < 0 else 0)


def _elit(ilit: int) -> int:
    """Internal literal -> DIMACS literal."""
    var = (ilit >> 1) + 1
    return -var if ilit & 1 else var


def luby(i: int) -> int:
    """The Luby restart sequence (1,1,2,1,1,2,4,...), 0-indexed."""
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        seq -= 1
        i %= size
    return 1 << seq


class SolverConfig:
    """Search-strategy parameters of one :class:`Solver` instance.

    Every field is a lever the portfolio layer uses to make racers explore
    different trajectories on the same formula:

    * ``seed`` — when set, a per-solver RNG jitters initial variable
      activities (diversifying VSIDS tie-breaking) and drives the
      ``random`` polarity mode.
    * ``polarity`` — decision polarity: ``saved`` (phase saving),
      ``false`` / ``true`` (fixed), or ``random`` (requires ``seed``).
    * ``phase_saving`` — when off, ``saved`` polarity degrades to the
      initial phase (``false``); decisions ignore remembered phases.
    * ``restart`` — ``luby`` (``restart_base * luby(n)``) or ``geometric``
      (``restart_base * restart_growth ** n``) conflict budgets.
    * ``learned_limit`` — clause-DB cap: once the learned-clause count
      exceeds it, the lower-activity half is dropped at the next restart
      (reason clauses and binaries are kept).
    * ``var_decay`` — VSIDS activity decay factor.

    The default configuration reproduces the solver's historical behavior
    bit-for-bit.
    """

    POLARITIES = ("saved", "false", "true", "random")
    RESTARTS = ("luby", "geometric")

    __slots__ = (
        "name",
        "seed",
        "polarity",
        "phase_saving",
        "restart",
        "restart_base",
        "restart_growth",
        "learned_limit",
        "var_decay",
    )

    def __init__(
        self,
        name: str = "default",
        seed: Optional[int] = None,
        polarity: str = "saved",
        phase_saving: bool = True,
        restart: str = "luby",
        restart_base: int = 64,
        restart_growth: float = 1.5,
        learned_limit: Optional[int] = None,
        var_decay: float = 0.95,
    ) -> None:
        if polarity not in self.POLARITIES:
            raise ValueError(f"polarity must be one of {self.POLARITIES}")
        if restart not in self.RESTARTS:
            raise ValueError(f"restart must be one of {self.RESTARTS}")
        if polarity == "random" and seed is None:
            raise ValueError("random polarity requires a seed")
        if restart_base < 1:
            raise ValueError("restart_base must be >= 1")
        if restart_growth <= 1.0:
            raise ValueError("restart_growth must be > 1")
        if learned_limit is not None and learned_limit < 16:
            raise ValueError("learned_limit must be >= 16")
        if not 0.0 < var_decay <= 1.0:
            raise ValueError("var_decay must be in (0, 1]")
        self.name = name
        self.seed = seed
        self.polarity = polarity
        self.phase_saving = phase_saving
        self.restart = restart
        self.restart_base = restart_base
        self.restart_growth = restart_growth
        self.learned_limit = learned_limit
        self.var_decay = var_decay

    def key(self) -> Tuple:
        """Hashable identity of the configuration (``name`` excluded)."""
        return (
            self.seed,
            self.polarity,
            self.phase_saving,
            self.restart,
            self.restart_base,
            self.restart_growth,
            self.learned_limit,
            self.var_decay,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SolverConfig):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"SolverConfig({self.name!r})"


DEFAULT_CONFIG = SolverConfig()
"""The historical single-config behavior (phase saving, Luby-64)."""


class _VarHeap:
    """Indexed max-heap on variable activity.

    ``pos[var]`` is the variable's heap index, or -1 when it is not in
    the heap; the list grows on demand as variables are pushed.
    """

    def __init__(self) -> None:
        self.heap: List[int] = []
        self.pos: List[int] = []

    def __contains__(self, var: int) -> bool:
        return var < len(self.pos) and self.pos[var] >= 0

    def push(self, var: int, activity: List[float]) -> None:
        pos = self.pos
        if var >= len(pos):
            pos.extend([-1] * (var + 1 - len(pos)))
        elif pos[var] >= 0:
            return
        heap = self.heap
        heap.append(var)
        pos[var] = len(heap) - 1
        self._up(len(heap) - 1, activity)

    def pop(self, activity: List[float]) -> int:
        heap = self.heap
        top = heap[0]
        last = heap.pop()
        self.pos[top] = -1
        if heap:
            heap[0] = last
            self.pos[last] = 0
            self._down(0, activity)
        return top

    def update(self, var: int, activity: List[float]) -> None:
        if var in self:
            self._up(self.pos[var], activity)

    def _up(self, i: int, act: List[float]) -> None:
        heap, pos = self.heap, self.pos
        var = heap[i]
        while i > 0:
            parent = (i - 1) >> 1
            if act[heap[parent]] >= act[var]:
                break
            heap[i] = heap[parent]
            pos[heap[i]] = i
            i = parent
        heap[i] = var
        pos[var] = i

    def _down(self, i: int, act: List[float]) -> None:
        heap, pos = self.heap, self.pos
        n = len(heap)
        var = heap[i]
        while True:
            left = 2 * i + 1
            if left >= n:
                break
            best = left
            right = left + 1
            if right < n and act[heap[right]] > act[heap[left]]:
                best = right
            if act[heap[best]] <= act[var]:
                break
            heap[i] = heap[best]
            pos[heap[i]] = i
            i = best
        heap[i] = var
        pos[var] = i


class Solver:
    """Incremental CDCL SAT solver."""

    def __init__(self, config: Optional[SolverConfig] = None) -> None:
        self.config = config if config is not None else DEFAULT_CONFIG
        self.clauses: List[Optional[List[int]]] = []  # internal-literal clauses
        self.watches: List[List[int]] = []  # per internal literal
        self.assign: List[int] = []  # per var: _UNDEF / 0 (false) / 1 (true)
        self.level: List[int] = []
        self.reason: List[int] = []  # clause index or _UNDEF
        self.trail: List[int] = []  # assigned internal literals
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.activity: List[float] = []
        self.var_inc = 1.0
        self.phase: List[int] = []
        self.heap = _VarHeap()
        self._seen: List[bool] = []  # _analyze buffer, all False between calls
        self.ok = True
        self.num_conflicts = 0
        self.num_decisions = 0
        self.num_propagations = 0
        # Assumption literals (DIMACS) of the currently retained decision
        # levels 1..len(_assumption_levels); maintained by solve() and
        # _backtrack() so keep_prefix can reuse the propagated prefix.
        self._assumption_levels: List[int] = []
        # Learned-clause bookkeeping (only populated under a learned_limit).
        self._learned: Dict[int, float] = {}  # clause index -> activity
        self.cla_inc = 1.0
        cfg = self.config
        self._rng = random.Random(cfg.seed) if cfg.seed is not None else None
        # Phase saving only affects decisions: with it off, 'saved'
        # polarity degrades to the initial phase ('false').
        if cfg.polarity == "saved" and not cfg.phase_saving:
            self._polarity = "false"
        else:
            self._polarity = cfg.polarity

    # -- variables and clauses ------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable; returns its 1-based DIMACS index."""
        self.assign.append(_UNDEF)
        self.level.append(0)
        self.reason.append(_UNDEF)
        if self._rng is None:
            self.activity.append(0.0)
        else:
            # Sub-unit jitter: diversifies VSIDS tie-breaking across racers
            # without outweighing a single real activity bump.
            self.activity.append(self._rng.random() * 1e-3)
        self.phase.append(0)
        self._seen.append(False)
        self.watches.append([])
        self.watches.append([])
        var = len(self.assign) - 1
        self.heap.push(var, self.activity)
        return var + 1

    @property
    def num_vars(self) -> int:
        return len(self.assign)

    def _ensure_var(self, ext: int) -> None:
        while abs(ext) > self.num_vars:
            self.new_var()

    def add_clause(self, ext_lits: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became trivially UNSAT."""
        if not self.ok:
            return False
        if self.trail_lim:
            raise RuntimeError("clauses may only be added at decision level 0")
        lits: List[int] = []
        seen = set()
        for ext in ext_lits:
            if ext == 0:
                raise ValueError("literal 0 is invalid")
            self._ensure_var(ext)
            il = _ilit(ext)
            if il ^ 1 in seen:
                return True  # tautology
            if il in seen:
                continue
            value = self._value(il)
            if value == 1 and self.level[il >> 1] == 0:
                return True  # satisfied at root
            if value == 0 and self.level[il >> 1] == 0:
                continue  # falsified at root: drop literal
            seen.add(il)
            lits.append(il)
        if not lits:
            self.ok = False
            return False
        if len(lits) == 1:
            if not self._enqueue(lits[0], _UNDEF):
                self.ok = False
                return False
            self.ok = self._propagate() == _UNDEF
            return self.ok
        idx = len(self.clauses)
        self.clauses.append(lits)
        self.watches[lits[0] ^ 1].append(idx)
        self.watches[lits[1] ^ 1].append(idx)
        return True

    # -- assignment helpers ----------------------------------------------------

    def _value(self, ilit: int) -> int:
        """0/1 value of an internal literal, or _UNDEF."""
        v = self.assign[ilit >> 1]
        if v == _UNDEF:
            return _UNDEF
        return v ^ (ilit & 1)

    def _enqueue(self, ilit: int, reason: int) -> bool:
        value = self._value(ilit)
        if value == 0:
            return False
        if value == 1:
            return True
        var = ilit >> 1
        self.assign[var] = 1 ^ (ilit & 1)
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.phase[var] = self.assign[var]
        self.trail.append(ilit)
        return True

    def _decision_level(self) -> int:
        return len(self.trail_lim)

    # -- propagation ----------------------------------------------------------

    def _propagate(self) -> int:
        """Unit propagation; returns conflicting clause index or _UNDEF.

        The hot loop of the solver: attribute lookups are hoisted into
        locals and ``_value``/``_enqueue`` are inlined.  The watch-list
        order and every clause-literal swap are exactly those of the
        straightforward formulation, so the search trajectory (and thus
        every counter and model) does not depend on this tuning.
        """
        trail = self.trail
        watches = self.watches
        clauses = self.clauses
        assign = self.assign
        level = self.level
        reason = self.reason
        phase = self.phase
        dl = len(self.trail_lim)
        qhead = self.qhead
        start = qhead
        conflict = _UNDEF
        while qhead < len(trail):
            ilit = trail[qhead]
            qhead += 1
            watch_list = watches[ilit]
            new_list: List[int] = []
            # Normalize: watched literal being falsified is ilit^1.
            falsified = ilit ^ 1
            i = 0
            n = len(watch_list)
            while i < n:
                ci = watch_list[i]
                i += 1
                clause = clauses[ci]
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                fval = assign[first >> 1]
                if fval != _UNDEF and fval ^ (first & 1) == 1:
                    new_list.append(ci)
                    continue
                # Search for a replacement watch (any non-false literal).
                for j in range(2, len(clause)):
                    lit = clause[j]
                    val = assign[lit >> 1]
                    if val == _UNDEF or val ^ (lit & 1) == 1:
                        clause[1], clause[j] = lit, clause[1]
                        watches[lit ^ 1].append(ci)
                        break
                else:
                    # Clause is unit or conflicting.
                    new_list.append(ci)
                    if fval != _UNDEF:  # first is false: conflict
                        conflict = ci
                        new_list.extend(watch_list[i:])
                        break
                    var = first >> 1
                    value = 1 ^ (first & 1)
                    assign[var] = value
                    level[var] = dl
                    reason[var] = ci
                    phase[var] = value
                    trail.append(first)
            watches[ilit] = new_list
            if conflict != _UNDEF:
                self.num_propagations += qhead - start
                self.qhead = len(trail)
                return conflict
        self.num_propagations += qhead - start
        self.qhead = qhead
        return _UNDEF

    # -- conflict analysis ------------------------------------------------------

    def _rescale_activity(self) -> None:
        for v in range(self.num_vars):
            self.activity[v] *= 1e-100
        self.var_inc *= 1e-100

    def _analyze(self, conflict: int) -> (List[int], int):  # type: ignore[syntax]
        """First-UIP learning; returns (learned clause, backtrack level).

        ``self._seen`` is a reused work buffer: every flag is False on
        entry and is cleared again before returning.
        """
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = self._seen
        level = self.level
        trail = self.trail
        clauses = self.clauses
        learned_act = self._learned
        activity = self.activity
        heap_pos = self.heap.pos
        heap_up = self.heap._up
        dl = len(self.trail_lim)
        counter = 0
        ilit = _UNDEF
        index = len(trail) - 1
        clause_idx = conflict
        while True:
            if clause_idx in learned_act:
                learned_act[clause_idx] += self.cla_inc
            clause = clauses[clause_idx]
            start = 0 if ilit == _UNDEF else 1
            for q in clause[start:]:
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    # VSIDS bump; the rare rescale stays a call.
                    activity[var] += self.var_inc
                    if activity[var] > 1e100:
                        self._rescale_activity()
                    if heap_pos[var] >= 0:
                        heap_up(heap_pos[var], activity)
                    if level[var] >= dl:
                        counter += 1
                    else:
                        learned.append(q)
            # Find the next trail literal to resolve on.
            while not seen[trail[index] >> 1]:
                index -= 1
            ilit = trail[index]
            index -= 1
            var = ilit >> 1
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            clause_idx = self.reason[var]
            # Put the resolved literal first so it is skipped above.
            clause = clauses[clause_idx]
            if clause[0] != ilit:
                pos = clause.index(ilit)
                clause[0], clause[pos] = clause[pos], clause[0]
        learned[0] = ilit ^ 1
        for q in learned[1:]:
            seen[q >> 1] = False
        if len(learned) == 1:
            bt_level = 0
        else:
            # Second-highest decision level among learned literals.
            max_i = 1
            for i in range(2, len(learned)):
                if level[learned[i] >> 1] > level[learned[max_i] >> 1]:
                    max_i = i
            learned[1], learned[max_i] = learned[max_i], learned[1]
            bt_level = level[learned[1] >> 1]
        return learned, bt_level

    def _backtrack(self, target_level: int) -> None:
        trail_lim = self.trail_lim
        if len(trail_lim) <= target_level:
            return
        limit = trail_lim[target_level]
        trail = self.trail
        assign = self.assign
        reason = self.reason
        heap = self.heap
        order = heap.heap
        pos = heap.pos
        activity = self.activity
        up = heap._up
        # Unassign in reverse trail order, re-inserting into the decision
        # heap only the variables that are not already in it.
        for i in range(len(trail) - 1, limit - 1, -1):
            var = trail[i] >> 1
            assign[var] = _UNDEF
            reason[var] = _UNDEF
            if pos[var] < 0:
                order.append(var)
                pos[var] = len(order) - 1
                up(len(order) - 1, activity)
        del trail[limit:]
        del trail_lim[target_level:]
        del self._assumption_levels[target_level:]
        self.qhead = len(trail)

    def _learn(self, learned: List[int]) -> None:
        if len(learned) == 1:
            self._enqueue(learned[0], _UNDEF)
            return
        idx = len(self.clauses)
        self.clauses.append(learned)
        self.watches[learned[0] ^ 1].append(idx)
        self.watches[learned[1] ^ 1].append(idx)
        self._enqueue(learned[0], idx)
        if self.config.learned_limit is not None and len(learned) > 2:
            self._learned[idx] = self.cla_inc

    def _reduce_db(self) -> None:
        """Drop the lower-activity half of the learned clauses.

        Called at a restart point (propagation quiescent), so each live
        clause is watched exactly once on each of its first two literals
        and the watches can be removed eagerly — the propagation hot path
        never has to skip tombstones.  Reason clauses of trail literals
        are locked; binaries were never tracked.
        """
        locked = {self.reason[ilit >> 1] for ilit in self.trail}
        by_activity = sorted(self._learned.items(), key=lambda kv: kv[1])
        target = len(by_activity) // 2
        removed = 0
        for idx, _act in by_activity:
            if removed >= target:
                break
            if idx in locked:
                continue
            clause = self.clauses[idx]
            self.watches[clause[0] ^ 1].remove(idx)
            self.watches[clause[1] ^ 1].remove(idx)
            self.clauses[idx] = None
            del self._learned[idx]
            removed += 1

    # -- decisions ---------------------------------------------------------------

    def _decide(self) -> int:
        polarity = self._polarity
        heap = self.heap
        order = heap.heap
        pop = heap.pop
        assign = self.assign
        activity = self.activity
        while order:
            var = pop(activity)
            if assign[var] == _UNDEF:
                if polarity == "saved":
                    neg = self.phase[var] == 0
                elif polarity == "false":
                    neg = True
                elif polarity == "true":
                    neg = False
                else:  # random
                    neg = self._rng.random() < 0.5
                return var * 2 + (1 if neg else 0)
        return _UNDEF

    # -- main solve loop -----------------------------------------------------------

    def _restart_limit(self, restart_num: int) -> int:
        cfg = self.config
        if cfg.restart == "luby":
            return cfg.restart_base * luby(restart_num)
        return int(cfg.restart_base * cfg.restart_growth ** restart_num)

    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
        max_propagations: Optional[int] = None,
        keep_prefix: int = 0,
    ) -> Optional[bool]:
        """Solve under assumptions; True = SAT (model available).

        With ``max_conflicts`` or ``max_propagations`` set, returns None
        (unknown) once either budget is exhausted — callers treat unknown
        conservatively.  Budgets are per-call: a repeated call continues
        the search incrementally (learned clauses persist).

        ``keep_prefix`` opts into assumption-trail reuse: up to that many
        leading assumptions shared with the previous call keep their
        decision levels (and propagations) instead of being backtracked
        and replayed.  After a prefix-retaining call the solver may sit at
        a non-zero decision level, so interleaving ``add_clause`` requires
        an explicit :meth:`reset`.  With ``keep_prefix=0`` (the default)
        the behavior is identical to the historical solver.
        """
        if not self.ok:
            return False
        keep = 0
        if keep_prefix:
            limit = min(
                keep_prefix, len(assumptions), len(self._assumption_levels)
            )
            while keep < limit and self._assumption_levels[keep] == assumptions[keep]:
                keep += 1
        self._backtrack(keep)
        if self._propagate() != _UNDEF:
            if self._decision_level() == 0:
                self.ok = False
                return False
            # A retained assumption prefix (a subset of the current
            # assumptions) already contradicts the formula.
            self._backtrack(self._decision_level() - 1)
            return False
        for ext in assumptions:
            self._ensure_var(ext)
        restart_num = 0
        conflict_budget = self._restart_limit(restart_num)
        conflicts_here = 0
        total_conflicts = 0
        prop_limit = (
            None
            if max_propagations is None
            else self.num_propagations + max_propagations
        )
        learned_limit = self.config.learned_limit
        while True:
            if (max_conflicts is not None and total_conflicts > max_conflicts) or (
                prop_limit is not None and self.num_propagations >= prop_limit
            ):
                self._backtrack(
                    min(keep_prefix, len(self._assumption_levels))
                    if keep_prefix
                    else 0
                )
                return None
            conflict = self._propagate()
            if conflict != _UNDEF:
                self.num_conflicts += 1
                conflicts_here += 1
                total_conflicts += 1
                if self._decision_level() == 0:
                    self.ok = False
                    return False
                if self._decision_level() <= len(assumptions):
                    # Conflict forced by assumptions alone.
                    self._backtrack(
                        min(keep_prefix, self._decision_level() - 1)
                        if keep_prefix
                        else 0
                    )
                    return False
                learned, bt_level = self._analyze(conflict)
                self._backtrack(max(bt_level, 0))
                if self._decision_level() < len(assumptions):
                    # Learned unit (or backjump) jumped into the assumption
                    # prefix; replay assumptions from scratch.
                    self._learn(learned)
                    self._backtrack(0)
                    continue
                self._learn(learned)
                self.var_inc /= self.config.var_decay
                if learned_limit is not None:
                    self.cla_inc /= 0.999
                    if self.cla_inc > 1e20:
                        for idx in self._learned:
                            self._learned[idx] *= 1e-20
                        self.cla_inc *= 1e-20
                continue
            if conflicts_here >= conflict_budget:
                restart_num += 1
                conflict_budget = self._restart_limit(restart_num)
                conflicts_here = 0
                self._backtrack(
                    len(self._assumption_levels) if keep_prefix else 0
                )
                if (
                    learned_limit is not None
                    and len(self._learned) > learned_limit
                ):
                    self._reduce_db()
                continue
            if self._decision_level() < len(assumptions):
                ext = assumptions[self._decision_level()]
                ilit = _ilit(ext)
                value = self._value(ilit)
                if value == 0:
                    if keep_prefix:
                        self._backtrack(
                            min(keep_prefix, self._decision_level())
                        )
                    return False
                self.trail_lim.append(len(self.trail))
                self._assumption_levels.append(ext)
                if value == _UNDEF:
                    self._enqueue(ilit, _UNDEF)
                continue
            decision = self._decide()
            if decision == _UNDEF:
                return True
            self.num_decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(decision, _UNDEF)

    def reset(self) -> None:
        """Backtrack to the root level (allows adding clauses after solve)."""
        self._backtrack(0)

    # -- model access ------------------------------------------------------------

    def model_value(self, ext: int) -> Optional[bool]:
        """Value of a DIMACS literal in the current model (None if free)."""
        var = abs(ext) - 1
        if var >= self.num_vars or self.assign[var] == _UNDEF:
            return None
        val = bool(self.assign[var])
        return val if ext > 0 else not val

    def model(self) -> List[bool]:
        """Full model as a list indexed by variable-1 (free vars -> False)."""
        return [self.assign[v] == 1 for v in range(self.num_vars)]
