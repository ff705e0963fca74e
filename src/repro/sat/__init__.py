"""CDCL SAT solving, CNF encodings of AIGs, and sprint scheduling."""

from .solver import DEFAULT_CONFIG, Solver, SolverConfig, luby
from .cnf import AigCnf, implies, is_satisfiable
from .portfolio import (
    GLOBAL_UNSAT_CACHE,
    MODES as PORTFOLIO_MODES,
    PortfolioConfig,
    PortfolioRunner,
    UnsatCache,
    resolve_portfolio,
)

__all__ = [
    "Solver",
    "SolverConfig",
    "DEFAULT_CONFIG",
    "luby",
    "AigCnf",
    "implies",
    "is_satisfiable",
    "PORTFOLIO_MODES",
    "PortfolioConfig",
    "PortfolioRunner",
    "UnsatCache",
    "GLOBAL_UNSAT_CACHE",
    "resolve_portfolio",
]
