"""The paper's contribution: lookahead logic circuit synthesis."""

from .spcf import (
    Spcf,
    spcf_exact_bdd,
    pack_signature,
    spcf_exact_tt,
    spcf_overapprox_tt,
    spcf_signature,
    timed_simulation,
    unpack_patterns,
)
from .cache import ConeCache, node_tts_cached
from .model import BddBlowup, BddModel, ExactModel, SignatureModel
from .simplify import SimplifyOutcome, simplify_node
from .reduce import PrimaryResult, build_sigma, primary_reduce
from .secondary import ExactCareChecker, SatCareChecker, secondary_simplify
from .reconstruct import TEMPLATES, applicable_rules, build_ite, reconstruct
from .area_recovery import (
    AREA_EFFORTS,
    RedundancyEngine,
    recover_area,
    remove_redundant_edges,
    sat_sweep,
)
from .sdc import sdc_minimize
from .analysis import OutputReport, RoundReport, analyze_round, print_round_report
from .config import (
    JOB_FLOWS,
    RANK_MODES,
    WALK_MODES,
    OptimizerConfig,
    validate_walk_modes,
)
from .flow import (
    execute_optimize_job,
    lookahead_flow,
    make_job_optimizer,
    normalize_job_config,
)
from .lookahead import (
    TT_MODE_PI_LIMIT,
    LookaheadOptimizer,
    make_runtime_optimizer,
    optimize_lookahead,
)

__all__ = [
    "Spcf",
    "spcf_exact_bdd",
    "pack_signature",
    "spcf_exact_tt",
    "spcf_overapprox_tt",
    "spcf_signature",
    "timed_simulation",
    "unpack_patterns",
    "ConeCache",
    "node_tts_cached",
    "BddBlowup",
    "BddModel",
    "ExactModel",
    "SignatureModel",
    "SimplifyOutcome",
    "simplify_node",
    "PrimaryResult",
    "build_sigma",
    "primary_reduce",
    "ExactCareChecker",
    "SatCareChecker",
    "secondary_simplify",
    "TEMPLATES",
    "applicable_rules",
    "build_ite",
    "reconstruct",
    "AREA_EFFORTS",
    "RedundancyEngine",
    "recover_area",
    "remove_redundant_edges",
    "sat_sweep",
    "RANK_MODES",
    "TT_MODE_PI_LIMIT",
    "WALK_MODES",
    "JOB_FLOWS",
    "LookaheadOptimizer",
    "OptimizerConfig",
    "validate_walk_modes",
    "execute_optimize_job",
    "lookahead_flow",
    "make_job_optimizer",
    "make_runtime_optimizer",
    "normalize_job_config",
    "sdc_minimize",
    "OutputReport",
    "RoundReport",
    "analyze_round",
    "print_round_report",
    "optimize_lookahead",
]
