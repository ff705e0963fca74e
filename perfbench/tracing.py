"""Outside-in tracing for the benchmark's traced run.

Spans are recorded by wrappers this module installs around public
functions of each layer of the program; the program itself is not edited.
A span is ``(name, layer, start, end, parent, job)``; spans are kept in
memory and written out at the end as Chrome trace-event JSON.

A span's self time is its duration minus the part its child spans cover.
Layers whose internals are not broken down here — conventional
optimization (``opt``), equivalence checking (``cec``) and mapping — are
black boxes: every span beneath one counts toward it, so SAT calls under
CEC count toward ``cec``, not ``sat``.

Never add up ``repro.perf`` timers here: ``phase.dispatch`` double-counts
``phase.renode`` and ``workers.*`` timers are emitted on the serial path.
``perf.snapshot()`` counters are copied, as counts only.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

BLACK_BOX = frozenset({"opt", "cec", "mapping"})

# (module, attribute path, span name, layer).  The module is the one the
# caller looks the name up in, so the wrapper sits at the call boundary.
PATCHES: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.core.lookahead", "LookaheadOptimizer.optimize",
     "LookaheadOptimizer.optimize", "lookahead"),
    ("repro.opt", "dc_map_effort_high", "dc_map_effort_high", "opt"),
    ("repro.core.lookahead", "renode", "renode", "netlist"),
    ("repro.core.lookahead", "primary_reduce", "primary_reduce", "reduce"),
    ("repro.core.lookahead", "secondary_simplify", "secondary_simplify",
     "secondary"),
    ("repro.core.lookahead", "reconstruct", "reconstruct", "reconstruct"),
    ("repro.core.lookahead", "recover_area", "recover_area", "area"),
    ("repro.core.spcf", "SpcfKernel.spcf", "SpcfKernel.spcf", "spcf"),
    ("repro.core.lookahead", "spcf_exact_tt", "spcf_exact_tt", "spcf"),
    ("repro.core.lookahead", "spcf_overapprox_tt", "spcf_overapprox_tt",
     "spcf"),
    ("repro.core.lookahead", "spcf_exact_bdd", "spcf_exact_bdd", "spcf"),
    ("repro.core.lookahead", "spcf_signature", "spcf_signature", "spcf"),
    ("repro.core.lookahead", "timed_simulation", "timed_simulation", "spcf"),
    ("repro.sat.solver", "Solver.solve", "Solver.solve", "sat"),
    ("repro.store.base", "Namespace.get", "Namespace.get", "store"),
    ("repro.store.base", "Namespace.put", "Namespace.put", "store"),
)

_SOLVER_COUNTS = ("num_propagations", "num_conflicts", "num_decisions")


class Recorder:
    """In-memory span log of one process."""

    def __init__(self) -> None:
        # [name, layer, start, end, parent index or -1, job, extra dict]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.job: Optional[str] = None
        self._installed: List[Tuple[Any, str, Any]] = []

    def begin(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, layer, time.perf_counter(), None, parent, self.job, None]
        )
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int, extra: Optional[Dict[str, Any]] = None) -> None:
        self.spans[index][3] = time.perf_counter()
        self.spans[index][6] = extra
        popped = self._stack.pop()
        assert popped == index, "spans must nest"

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        index = self.begin(name, layer)
        try:
            yield
        finally:
            self.end(index)

    # -- installing wrappers ----------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        recorder = self

        if name == "Solver.solve":
            @functools.wraps(fn)
            def solve(solver, *args, **kwargs):
                before = [getattr(solver, c) for c in _SOLVER_COUNTS]
                index = recorder.begin(name, layer)
                result = None
                try:
                    result = fn(solver, *args, **kwargs)
                    return result
                finally:
                    extra = {
                        c: getattr(solver, c) - b
                        for c, b in zip(_SOLVER_COUNTS, before)
                    }
                    extra["unknown"] = result is None
                    recorder.end(index, extra)

            return solve

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = recorder.begin(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.end(index)

        return wrapper

    def install(self) -> None:
        """Wrap every entry of :data:`PATCHES` (undo with :meth:`remove`)."""
        for module_name, path, name, layer in PATCHES:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else (
                getattr(owner, attr)
            )
            setattr(owner, attr, self._wrap(original, name, layer))
            self._installed.append((owner, attr, original))

    def remove(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per span: duration minus the time its children cover."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                own[s[4]] -= s[3] - s[2]
        return own

    def attributed_layers(self) -> List[str]:
        """Per span: its layer, or the black-box layer it runs under."""
        layers: List[str] = []
        for s in self.spans:
            parent = s[4]
            if parent >= 0 and layers[parent] in BLACK_BOX:
                layers.append(layers[parent])
            else:
                layers.append(s[1])
        return layers

    def chrome_trace(self) -> List[Dict[str, Any]]:
        """The spans as Chrome trace events ('X' events, microseconds)."""
        if not self.spans:
            return []
        t0 = self.spans[0][2]
        events = []
        for i, (name, layer, start, end, parent, job, extra) in enumerate(
            self.spans
        ):
            args: Dict[str, Any] = {"id": i, "parent": parent, "job": job}
            if extra:
                args.update(extra)
            events.append({
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - t0) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": args,
            })
        return events


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def layer_metrics(rec: Recorder, counters: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``counters`` is a copy of ``perf.snapshot()["counters"]`` taken after
    the pass; only counts are read from it.
    """
    own = rec.self_times()
    layers = rec.attributed_layers()
    spans = rec.spans
    by_layer: Dict[str, float] = {}
    for t, layer in zip(own, layers):
        by_layer[layer] = by_layer.get(layer, 0.0) + t

    def self_of(name: str) -> float:
        return sum(t for s, t, l in zip(spans, own, layers)
                   if s[0] == name and l == s[1])

    def count(name: str) -> int:
        return sum(1 for s, l in zip(spans, layers)
                   if s[0] == name and l == s[1])

    optimize_spans = [s for s in spans if s[0] == "LookaheadOptimizer.optimize"]
    solves = [
        s for s, l in zip(spans, layers) if s[0] == "Solver.solve" and l == "sat"
    ]
    under_secondary = 0
    for s in solves:
        parent = s[4]
        while parent >= 0 and spans[parent][0] != "secondary_simplify":
            parent = spans[parent][4]
        under_secondary += parent >= 0
    solve_ms = [(s[3] - s[2]) * 1e3 for s in solves]
    spcf_calls = sum(
        1 for s, l in zip(spans, layers)
        if l == "spcf" and (s[4] < 0 or layers[s[4]] != "spcf")
    )
    c = counters.get
    spcf_hits = c("cache.spcf.hit", 0) + c("cache.dp.hit", 0)
    spcf_misses = c("cache.spcf.miss", 0) + c("cache.dp.miss", 0)
    accepted = c("replacements.accepted", 0)
    rejected = c("replacements.rejected", 0)
    return {
        "lookahead.optimize_s": sum(s[3] - s[2] for s in optimize_spans),
        "lookahead.unaccounted_s": self_of("LookaheadOptimizer.optimize"),
        "lookahead.rounds": c("rounds", 0),
        "lookahead.accept_ratio": _ratio(accepted, accepted + rejected),
        "flow.iterations": c("flow.iterations", 0),
        "opt.conventional_s": by_layer.get("opt", 0.0),
        "opt.conventional_calls": count("dc_map_effort_high"),
        "netlist.renode_s": by_layer.get("netlist", 0.0),
        "netlist.renode_calls": count("renode"),
        "spcf.s": by_layer.get("spcf", 0.0),
        "spcf.calls": spcf_calls,
        "spcf.cache_hit_ratio": _ratio(spcf_hits, spcf_hits + spcf_misses),
        "reduce.s": by_layer.get("reduce", 0.0),
        "reduce.simplified_ratio": _ratio(
            c("reduce.simplified", 0), c("reduce.steps", 0)
        ),
        "secondary.self_s": by_layer.get("secondary", 0.0),
        "secondary.sat_calls": under_secondary,
        "sat.solve_s": by_layer.get("sat", 0.0),
        "sat.solve_calls": len(solves),
        "sat.solve_p50_ms": _quantile(solve_ms, 0.50),
        "sat.solve_p99_ms": _quantile(solve_ms, 0.99),
        "sat.propagations": sum(s[6]["num_propagations"] for s in solves),
        "sat.conflicts": sum(s[6]["num_conflicts"] for s in solves),
        "sat.decisions": sum(s[6]["num_decisions"] for s in solves),
        "sat.unknown_ratio": _ratio(
            sum(1 for s in solves if s[6]["unknown"]), len(solves)
        ),
        "reconstruct.s": by_layer.get("reconstruct", 0.0),
        "area.s": by_layer.get("area", 0.0),
        "area.sweep_merge_ratio": _ratio(
            c("area.sweep.merges", 0), c("area.sweep.queries", 0)
        ),
        "timing.nodes_recomputed": c("timing.nodes.recomputed", 0),
        "store.get_s": self_of("Namespace.get"),
        "store.put_s": self_of("Namespace.put"),
        "store.gets": count("Namespace.get"),
        "store.puts": count("Namespace.put"),
        "store.hit_ratio": _ratio(
            c("store.hit", 0), c("store.hit", 0) + c("store.miss", 0)
        ),
        "cec.s": by_layer.get("cec", 0.0),
        "cec.calls": count("check_equivalence"),
        "mapping.s": by_layer.get("mapping", 0.0),
    }


UNITS: Dict[str, str] = {
    name: (
        "s" if name.endswith("_s") or name.endswith(".s")
        else "ms" if name.endswith("_ms")
        else "ratio" if name.endswith("_ratio")
        else "count"
    )
    for name in layer_metrics(Recorder(), {})
}
UNITS["trace.overhead_s"] = "s"
