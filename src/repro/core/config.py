"""Every optimizer and flow option, declared once.

:class:`OptimizerConfig` is the single declaration of what a lookahead
run can be asked to do: each field carries its default, its allowed
values and a one-line doc, and the class owns validation, the identity
:meth:`~OptimizerConfig.key` (daemon batching, optimizer reuse) and the
decoding of JSON job payloads (:meth:`~OptimizerConfig.from_payload`).
``LookaheadOptimizer``, ``lookahead_flow``, the job entry points, the
daemon, the fuzzer and the ``repro optimize`` flags all take or build
one, so a bad value is rejected up front, with the same message,
whichever entry point it came through.

Runtime resources that never change a result — the worker count, a
shared cone cache, the result store, the ``--rank log`` sink — are not
options and stay constructor arguments of the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Tuple

from ..sat.portfolio import MODES as PORTFOLIO_MODES
from .area_recovery import AREA_EFFORTS

MODES = ("auto", "tt", "bdd", "sim")
"""Round domains: exact truth tables, BDDs, signatures, or by PI count."""

SPCF_TIERS = ("auto", "overapprox", "signature")
"""SPCF kernel ceilings (see :class:`repro.core.spcf.SpcfKernel`)."""

WALK_MODES = ("target", "full")
"""Admissible critical-walk strategies for ``walk_modes``."""

RANK_MODES = ("off", "log", "prune")
"""Candidate-ranking modes: 'off' is the unranked flow bit-for-bit,
'log' records per-candidate features and outcomes to a dataset, 'prune'
gates candidates on a fitted model's accept probability."""

JOB_FLOWS = ("lookahead", "lookahead-only")
"""Flows a config can run.  Conventional baselines (sis/abc/dc) take no
options and never touch the store, so they are not served either."""

FLOW_PRESETS: Dict[str, Dict[str, Any]] = {
    "lookahead": {"max_rounds": 16, "max_outputs_per_round": 8},
    "lookahead-only": {"max_rounds": 12},
}
"""Per-flow defaults that differ from the bare optimizer's
(:meth:`OptimizerConfig.for_flow` applies them under explicit values)."""


def validate_walk_modes(walk_modes) -> Tuple[str, ...]:
    """Validate a walk-mode sequence; returns it as a tuple.

    A repeat would run the same walk twice and split one behaviour over
    two config keys, so repeats are rejected like unknown modes.
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
    if len(set(walk_modes)) != len(walk_modes):
        raise ValueError(f"walk_modes repeats a mode: {list(walk_modes)!r}")
    return tuple(walk_modes)


def _option(default, doc: str, choices=None, label=None, minimum=None,
            optional=False, cli=None, payload=None):
    """A config field with its domain and doc in ``metadata``.

    ``choices`` enumerates the allowed values (``label`` names them in
    errors); ``minimum`` bounds an integer; ``optional`` admits None.
    ``cli`` is the ``repro optimize`` flag exposing the field, and
    ``payload`` its job payload key when that differs from the name.
    """
    return field(default=default, metadata={
        "doc": doc, "choices": choices, "label": label,
        "minimum": minimum, "optional": optional, "cli": cli,
        "payload": payload,
    })


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True, eq=False)
class OptimizerConfig:
    """One lookahead run's options; validated and normalized on creation.

    ``mode='sim'`` and ``spcf_tier='signature'`` are one setting (the
    signature tier implies the simulation domain end to end, and the
    simulation domain only has signature SPCFs), so either spelling is
    normalized to both and they share one :meth:`key`.
    """

    flow: str = _option(
        "lookahead", "flow a job or `repro optimize` runs",
        choices=JOB_FLOWS, label="flow",
    )
    max_iterations: int = _option(
        4, "lookahead_flow iterations of conventional + lookahead",
        minimum=1,
    )
    max_rounds: int = _option(
        4, "decomposition rounds per walk", minimum=1,
    )
    max_outputs_per_round: Optional[int] = _option(
        None, "critical outputs per budget window (None = all)",
        minimum=1, optional=True,
    )
    k: int = _option(6, "cut size of the renoded network", minimum=2)
    mode: str = _option(
        "auto", "round domain; auto picks tt/bdd/sim by PI count",
        choices=MODES, label="mode",
    )
    sim_width: int = _option(
        1024, "random simulation patterns (sim mode)", minimum=1,
    )
    seed: int = _option(0, "simulation seed")
    use_rules: bool = _option(
        True, "simplify reconstructions with the implication rules",
    )
    walk_modes: Tuple[str, ...] = _option(
        WALK_MODES, "critical-walk strategies, each its own round sequence",
        cli="--walk-modes",
    )
    spcf_tier: str = _option(
        "auto", "SPCF kernel ceiling: auto degrades exact -> overapprox "
        "-> signature by cone support; overapprox pins the relaxed DP; "
        "signature forces timed simulation (and sim mode)",
        choices=SPCF_TIERS, label="SPCF tier", cli="--spcf-tier",
    )
    spcf_prefilter: bool = _option(
        True, "prune provably-empty SPCF DP entries (results identical)",
        cli="--no-spcf-prefilter",
    )
    area_recovery: bool = _option(
        True, "run area recovery after every round",
        cli="--no-area-recovery",
    )
    area_effort: str = _option(
        "medium", "area recovery effort: low = SAT sweeping, medium adds "
        "one redundancy-removal pass, high iterates both",
        choices=AREA_EFFORTS, label="area effort", cli="--area-effort",
    )
    sat_portfolio: str = _option(
        "off", "secondary/redundancy SAT schedule: sprint spends a small "
        "conflict budget first and consults the UNSAT cache; off never "
        "does, so it is deterministic under any cache or store state",
        choices=PORTFOLIO_MODES, label="SAT portfolio mode",
        cli="--sat-portfolio",
    )
    arrival_times: Optional[Mapping[str, int]] = _option(
        None, "prescribed PI arrival times (None = unit delay)",
        optional=True, payload="arrivals",
    )
    rank: str = _option(
        "off", "learned candidate ranking: log records rows, prune "
        "skips candidates scoring under rank_model's threshold",
        choices=RANK_MODES, label="rank mode", cli="--rank",
    )
    rank_model: Any = _option(
        None, "prune model: a path, payload dict, or RankModel",
        optional=True, cli="--rank-model",
    )
    verify: bool = _option(
        False, "equivalence-check every accepted round and iteration "
        "(slow); a served job also checks its answer",
    )

    def __post_init__(self) -> None:
        for f in fields(self):
            self._check(f, getattr(self, f.name))
        set_ = object.__setattr__
        set_(self, "walk_modes", validate_walk_modes(self.walk_modes))
        if self.mode == "sim" or self.spcf_tier == "signature":
            set_(self, "mode", "sim")
            set_(self, "spcf_tier", "signature")
        if self.arrival_times is not None:
            if not isinstance(self.arrival_times, Mapping):
                raise ValueError(
                    "arrival_times must be a {name: int} map"
                )
            for name, t in self.arrival_times.items():
                if not isinstance(name, str):
                    raise ValueError(f"arrival name {name!r} is not a string")
                if not _is_int(t):
                    raise ValueError(
                        f"arrival time for {name!r} must be an integer, "
                        f"got {t!r}"
                    )
            set_(self, "arrival_times", dict(self.arrival_times) or None)
        if self.rank == "prune":
            if self.rank_model is None:
                raise ValueError(
                    "rank='prune' requires a rank_model "
                    "(a model path, payload dict, or RankModel)"
                )
            from ..rank import resolve_model

            try:
                set_(self, "rank_model", resolve_model(self.rank_model))
            except (KeyError, TypeError) as exc:
                raise ValueError(f"malformed rank_model payload: {exc}")
        elif self.rank_model is not None:
            raise ValueError("rank_model is only meaningful with rank='prune'")

    @staticmethod
    def _check(f, value) -> None:
        meta = f.metadata
        if value is None and meta["optional"]:
            return
        if meta["choices"] is not None:
            if value not in meta["choices"]:
                raise ValueError(
                    f"unknown {meta['label']} {value!r}; "
                    f"expected one of {meta['choices']}"
                )
        elif isinstance(f.default, bool):
            if not isinstance(value, bool):
                raise ValueError(f"{f.name} must be a boolean, got {value!r}")
        elif isinstance(f.default, int) or meta["minimum"] is not None:
            low = meta["minimum"]
            if not _is_int(value) or (low is not None and value < low):
                bound = "" if low is None else f" >= {low}"
                raise ValueError(
                    f"{f.name} must be an integer{bound}, got {value!r}"
                )

    # -- derived settings -----------------------------------------------------

    @property
    def spcf_dp(self) -> str:
        """The truth-table DP flavour the SPCF tier selects."""
        return "overapprox" if self.spcf_tier == "overapprox" else "exact"

    # -- construction ---------------------------------------------------------

    @classmethod
    def for_flow(cls, flow: str = "lookahead", **options) -> "OptimizerConfig":
        """``flow``'s config: its :data:`FLOW_PRESETS` under ``options``."""
        return cls(flow=flow, **{**FLOW_PRESETS.get(flow, {}), **options})

    # -- identity -------------------------------------------------------------

    def key(self) -> Tuple:
        """Hashable identity: equal keys mean interchangeable optimizers.

        ``verify`` is excluded — it adds checks, never changes a result.
        """
        items = []
        for f in fields(self):
            if f.name == "verify":
                continue
            value = getattr(self, f.name)
            if f.name == "arrival_times" and value is not None:
                value = tuple(sorted(value.items()))
            elif f.name == "rank_model" and value is not None:
                value = value.fingerprint()
            items.append((f.name, value))
        return tuple(items)

    # -- JSON job payload codec -----------------------------------------------

    @classmethod
    def from_payload(
        cls, options: Optional[Dict[str, Any]]
    ) -> "OptimizerConfig":
        """Decode and validate a job's JSON options.

        An absent key takes the default (the flow's preset where it has
        one); ``null`` is the value None.  Unknown keys are errors — a
        typo'd option silently doing nothing is how a client ends up
        benchmarking the wrong flow.  Jobs may not log rank datasets
        (a local concern), and a prune job embeds its model payload, so
        the daemon's answer depends only on the job.
        """
        options = dict(options or {})
        names = {f.metadata["payload"] or f.name: f.name for f in fields(cls)}
        unknown = sorted(set(options) - set(names))
        if unknown:
            raise ValueError(f"unknown job options: {', '.join(unknown)}")
        rank = options.get("rank", "off")
        if rank == "log":
            raise ValueError(
                f"unservable rank mode {rank!r}; jobs may use 'off' or 'prune'"
            )
        if rank == "prune" and not isinstance(options.get("rank_model"), dict):
            raise ValueError(
                "rank='prune' jobs must embed the model payload as rank_model"
            )
        arrivals = options.get("arrivals")
        if arrivals is not None and (
            not isinstance(arrivals, dict) or not arrivals
        ):
            raise ValueError("arrivals must be a non-empty {name: int} map")
        kwargs = {names[key]: value for key, value in options.items()}
        return cls.for_flow(**kwargs)


CLI_FIELDS = tuple(f for f in fields(OptimizerConfig) if f.metadata["cli"])
"""The fields ``repro optimize`` exposes as flags, in declaration order."""
