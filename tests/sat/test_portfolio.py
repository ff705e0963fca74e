"""Tests for solver configurations and the SAT portfolio layer."""

import random

import pytest

from repro.sat import (
    PortfolioConfig,
    PortfolioRunner,
    Solver,
    SolverConfig,
    UnsatCache,
    resolve_portfolio,
)

from .test_solver_trajectory import LEVER_CONFIGS


def _random_cnf(rng, n_vars, n_clauses, width=3):
    return [
        [
            rng.choice([1, -1]) * rng.randint(1, n_vars)
            for _ in range(width)
        ]
        for _ in range(n_clauses)
    ]


def _brute_force_sat(clauses, n_vars):
    for bits in range(1 << n_vars):
        assignment = [(bits >> i) & 1 for i in range(n_vars)]
        if all(
            any(
                assignment[abs(l) - 1] == (l > 0)
                for l in clause
            )
            for clause in clauses
        ):
            return True
    return False


def _pigeonhole(solver, holes=5, pigeons=6):
    def var(p, h):
        return p * holes + h + 1

    for p in range(pigeons):
        solver.add_clause([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                solver.add_clause([-var(p1, h), -var(p2, h)])


class TestSolverConfig:
    def test_defaults_compare_equal(self):
        assert SolverConfig() == SolverConfig(name="renamed")
        assert hash(SolverConfig()) == hash(SolverConfig(name="renamed"))

    def test_key_excludes_name_only(self):
        assert SolverConfig(seed=1) != SolverConfig(seed=2)
        assert SolverConfig(restart="geometric") != SolverConfig()

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(polarity="sideways")
        with pytest.raises(ValueError):
            SolverConfig(polarity="random")  # requires a seed
        with pytest.raises(ValueError):
            SolverConfig(restart="fixed")
        with pytest.raises(ValueError):
            SolverConfig(restart_base=0)
        with pytest.raises(ValueError):
            SolverConfig(restart_growth=1.0)
        with pytest.raises(ValueError):
            SolverConfig(learned_limit=4)
        with pytest.raises(ValueError):
            SolverConfig(var_decay=0.0)

    def test_all_configs_agree_on_random_cnfs(self):
        """Every lever configuration is a complete, correct solver."""
        rng = random.Random(7)
        for trial in range(60):
            n = rng.randint(3, 8)
            clauses = _random_cnf(rng, n, rng.randint(4, 24))
            expected = _brute_force_sat(clauses, n)
            for config in LEVER_CONFIGS:
                s = Solver(config)
                live = True
                for clause in clauses:
                    live = s.add_clause(clause) and live
                got = s.solve() if live else False
                assert got is expected, (config.name, trial, clauses)

    def test_clause_db_reduction_preserves_verdicts(self):
        """An aggressive learned-clause limit never changes answers."""
        rng = random.Random(11)
        config = SolverConfig(learned_limit=16)
        for trial in range(20):
            n = rng.randint(6, 10)
            clauses = _random_cnf(rng, n, 4 * n)
            ref, tst = Solver(), Solver(config)
            live = True
            for clause in clauses:
                live = ref.add_clause(list(clause)) and live
                tst.add_clause(list(clause))
            expected = ref.solve() if live else False
            got = tst.solve() if live else False
            assert got is expected, (trial, clauses)


class TestBudgets:
    def test_propagation_budget_returns_unknown(self):
        s = Solver()
        _pigeonhole(s)
        assert s.solve(max_propagations=10) is None
        # The solver stays usable: an unbudgeted call settles the query.
        assert s.solve() is False

    def test_propagation_budget_ignores_easy_instances(self):
        s = Solver()
        s.add_clause([1, 2])
        s.add_clause([-1])
        assert s.solve(max_propagations=100000) is True

    def test_conflict_budget_interleaves_with_prefix_reuse(self):
        """Budgeted UNKNOWN exits leave the retained prefix consistent."""
        s = Solver()
        _pigeonhole(s, holes=4, pigeons=5)
        assumptions = [1]
        while s.solve(assumptions, max_conflicts=3, keep_prefix=1) is None:
            pass
        fresh = Solver()
        _pigeonhole(fresh, holes=4, pigeons=5)
        assert fresh.solve(assumptions) is False


class TestPrefixReuse:
    def test_keep_prefix_matches_fresh_solves(self):
        """Shared-prefix reuse is invisible in verdicts and models."""
        rng = random.Random(3)
        for trial in range(40):
            n = rng.randint(4, 9)
            clauses = _random_cnf(rng, n, rng.randint(4, 30))
            reuse = Solver()
            live = True
            for clause in clauses:
                live = reuse.add_clause(list(clause)) and live
            if not live:
                continue
            prefix = rng.choice([1, -1])
            for _ in range(6):
                rest = [
                    rng.choice([1, -1]) * rng.randint(2, n)
                    for _ in range(rng.randint(0, 2))
                ]
                assumptions = [prefix] + rest
                fresh = Solver()
                for clause in clauses:
                    fresh.add_clause(list(clause))
                expected = fresh.solve(assumptions)
                got = reuse.solve(assumptions, keep_prefix=1)
                assert got is expected, (trial, assumptions)
                if expected:
                    model = [reuse.model_value(v + 1) for v in range(n)]
                    assert all(
                        any(
                            model[abs(l) - 1] == (l > 0)
                            for l in clause
                        )
                        for clause in clauses
                    )


class TestPortfolioConfig:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            PortfolioConfig(mode="warp")
        with pytest.raises(ValueError):
            PortfolioConfig(mode="race")  # removed: never won a query
        with pytest.raises(ValueError):
            PortfolioConfig(sprint_conflicts=0)

    def test_resolve(self):
        assert resolve_portfolio().mode == "off"
        assert resolve_portfolio("sprint").mode == "sprint"
        cfg = PortfolioConfig(mode="sprint")
        assert resolve_portfolio(cfg) is cfg
        with pytest.raises(TypeError):
            resolve_portfolio(42)

    def test_key_distinguishes_schedules(self):
        assert (
            PortfolioConfig(mode="off").key()
            != PortfolioConfig(mode="sprint").key()
        )
        assert (
            PortfolioConfig(sprint_conflicts=8).key()
            != PortfolioConfig(sprint_conflicts=64).key()
        )


class TestUnsatCache:
    def test_hit_after_add(self):
        cache = UnsatCache()
        assert not cache.hit(("a",))
        cache.add(("a",))
        assert cache.hit(("a",))

    def test_fifo_eviction(self):
        cache = UnsatCache(limit=2)
        cache.add((1,))
        cache.add((2,))
        cache.add((3,))  # evicts (1,)
        assert len(cache) == 2
        assert not cache.hit((1,))
        assert cache.hit((2,)) and cache.hit((3,))

    def test_clear(self):
        cache = UnsatCache()
        cache.add((1,))
        cache.clear()
        assert len(cache) == 0


def _runner(clauses, **kwargs):
    builds = []

    def build(config):
        solver = Solver(config)
        for clause in clauses:
            solver.add_clause(list(clause))
        builds.append(config)
        return solver

    config = PortfolioConfig(mode="sprint", **kwargs)
    return PortfolioRunner(config, build), builds


def _pigeonhole_clauses(holes, pigeons):
    def var(p, h):
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


class TestPortfolioRunner:
    def test_off_mode_rejected(self):
        with pytest.raises(ValueError):
            PortfolioRunner(PortfolioConfig(mode="off"), lambda c: Solver())

    def test_sprint_win_builds_only_the_baseline(self):
        runner, builds = _runner([[1, 2], [-1]])
        assert builds == []  # the solver is lazy
        assert runner.solve([]) is True
        assert builds == [SolverConfig()]  # one baseline build, ever
        assert runner.winner is runner.solver()
        assert runner.model_value(2) is True

    def test_sprint_mode_escalates_on_same_solver(self):
        clauses = _pigeonhole_clauses(4, 5)
        runner, builds = _runner(clauses, sprint_conflicts=1)
        assert runner.solve([], baseline_conflicts=100000) is False
        assert len(builds) == 1  # escalation reuses the sprint solver

    def test_runner_is_deterministic(self):
        rng = random.Random(5)
        clauses = _random_cnf(rng, 9, 38)
        results = []
        for _ in range(2):
            runner, _ = _runner(clauses, sprint_conflicts=2)
            verdict = runner.solve([])
            model = None
            if verdict:
                model = [runner.model_value(v + 1) for v in range(9)]
            results.append((verdict, model))
        assert results[0] == results[1]

    def test_verdicts_match_single_solver(self):
        rng = random.Random(13)
        for trial in range(30):
            n = rng.randint(4, 9)
            clauses = _random_cnf(rng, n, rng.randint(6, 30))
            ref = Solver()
            live = True
            for clause in clauses:
                live = ref.add_clause(list(clause)) and live
            if not live:
                continue
            expected = ref.solve()
            runner, _ = _runner(clauses, sprint_conflicts=2)
            assert runner.solve([]) is expected, trial
