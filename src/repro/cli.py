"""Command-line interface: optimize and map circuits from files.

Usage (also via ``python -m repro``):

    python -m repro stats   circuit.aag --arrival a3=5,b3=5
    python -m repro optimize circuit.aag -o out.aag --flow lookahead
    python -m repro optimize circuit.aag --arrival-file arrivals.json
    python -m repro map     circuit.aag -o out.v
    python -m repro bench   --circuit C432
    python -m repro bench plan  -o manifest.json --quick
    python -m repro bench run   --manifest manifest.json --shard 1/2
    python -m repro bench merge --manifest manifest.json -o BENCH_table2.json
    python -m repro bench report --experiments EXPERIMENTS.md
    python -m repro fuzz    --seed 0 --budget 60
    python -m repro serve   --store results.db --workers 4
    python -m repro submit  circuit.aag -o out.aag --flow lookahead

Input formats: ASCII AIGER (.aag) and BLIF (.blif); outputs AIGER, BLIF,
or gate-level Verilog (by extension).  ``--arrival name=t,...`` and
``--arrival-file file.json`` prescribe non-uniform PI arrival times (in
logic levels); the lookahead flows then optimize completion time instead
of raw depth, and reports show arrival-aware timing.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from typing import Dict, Optional

from . import perf
from .aig import AIG, depth, read_aag, read_blif, write_aag, write_blif
from .cec import check_equivalence
from .core import LookaheadOptimizer, OptimizerConfig, execute_optimize_job
from .core.config import CLI_FIELDS, JOB_FLOWS
from .mapping import dynamic_power_uw, map_aig, mapped_delay
from .mapping.verilog import write_verilog
from .opt import BASELINE_FLOWS
from .store import SqliteStore
from .store.runtime import default_store_path
from .timing import (
    AigTimingEngine,
    load_arrival_file,
    parse_arrival_spec,
    resolve_arrivals,
)

ArrivalMap = Optional[Dict[str, int]]


FLOWS = tuple(sorted(JOB_FLOWS + tuple(BASELINE_FLOWS)))
"""``repro optimize --flow`` choices: the configurable lookahead flows
(:class:`OptimizerConfig`) and the option-free conventional baselines."""


def _parse_arrivals(args: argparse.Namespace, aig: AIG) -> ArrivalMap:
    """Merge --arrival-file and --arrival (the flag wins per name)."""
    arrivals: Dict[str, int] = {}
    if getattr(args, "arrival_file", None):
        arrivals.update(load_arrival_file(args.arrival_file))
    if getattr(args, "arrival", None):
        arrivals.update(parse_arrival_spec(args.arrival))
    if not arrivals:
        return None
    unknown = sorted(set(arrivals) - set(aig.pi_names))
    if unknown:
        print(
            "warning: arrival times for unknown inputs: "
            + ", ".join(unknown),
            file=sys.stderr,
        )
    return arrivals


def _add_arrival_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--arrival", metavar="NAME=T,...",
        help="prescribed PI arrival times (comma-separated name=time "
             "pairs, in logic levels)",
    )
    parser.add_argument(
        "--arrival-file", metavar="FILE",
        help="JSON file mapping PI names to arrival times "
             '(e.g. {"a3": 5, "b3": 5})',
    )


def _read_circuit(path: str) -> AIG:
    with open(path) as fh:
        if path.endswith(".blif"):
            return read_blif(fh)
        return read_aag(fh)


def _write_circuit(aig: AIG, path: str) -> None:
    with open(path, "w") as fh:
        if path.endswith(".blif"):
            write_blif(aig, fh)
        else:
            write_aag(aig, fh)


def cmd_stats(args: argparse.Namespace) -> int:
    aig = _read_circuit(args.input)
    arrivals = _parse_arrivals(args, aig)
    print(f"inputs : {aig.num_pis}")
    print(f"outputs: {aig.num_pos}")
    print(f"ands   : {aig.num_ands()}")
    print(f"levels : {depth(aig)}")
    if arrivals:
        engine = AigTimingEngine(aig, resolve_arrivals(arrivals))
        crit = engine.critical_pos()
        names = [aig.po_names[i] or f"po{i}" for i in crit]
        print(f"completion (prescribed arrivals): {engine.depth()}")
        print(f"critical outputs: {', '.join(names)}")
    return 0


def _store_spec(args: argparse.Namespace) -> Optional[str]:
    """Resolve --store/--no-store/$REPRO_STORE to a database path or None.

    Precedence: ``--no-store`` wins outright; an explicit ``--store``
    (with or without a path) comes next; the ``REPRO_STORE`` environment
    variable enables the store without flags; otherwise no store — the
    default CLI run stays fully process-local.
    """
    if args.no_store:
        return None
    if args.store is not None:
        return args.store if args.store != "" else default_store_path()
    if os.environ.get("REPRO_STORE"):
        return default_store_path()
    return None


def cmd_optimize(args: argparse.Namespace) -> int:
    if args.workers is not None:
        os.environ[perf.WORKERS_ENV] = str(args.workers)
    aig = _read_circuit(args.input)
    arrivals = _parse_arrivals(args, aig)
    store = _store_spec(args)
    if args.rank == "prune" and not args.rank_model:
        print("error: --rank prune requires --rank-model PATH",
              file=sys.stderr)
        return 2
    options = {f.name: getattr(args, f.name) for f in CLI_FIELDS}
    perf.reset()
    start = time.time()
    if args.flow in BASELINE_FLOWS:
        ignored = [
            f.metadata["cli"] for f in CLI_FIELDS
            if options[f.name] != f.default
        ]
        if store is not None:
            ignored.append("--store")
        if arrivals:
            ignored.append("--arrival")
        if ignored:
            print(
                f"warning: flow {args.flow!r} ignores {'/'.join(ignored)}",
                file=sys.stderr,
            )
        optimized = BASELINE_FLOWS[args.flow](aig)
    else:
        config = OptimizerConfig.for_flow(
            args.flow, arrival_times=arrivals, **options
        )
        with LookaheadOptimizer(
            config, store=store, rank_data=args.rank_data
        ) as opt:
            optimized = execute_optimize_job(aig, config, optimizer=opt)
    elapsed = time.time() - start
    if args.profile:
        print(perf.report(), file=sys.stderr)
    if not args.no_verify:
        if not check_equivalence(aig, optimized):
            print("ERROR: optimized circuit is not equivalent", file=sys.stderr)
            return 1
    print(
        f"{args.flow}: ands {aig.num_ands()} -> {optimized.num_ands()}, "
        f"levels {depth(aig)} -> {depth(optimized)} ({elapsed:.1f}s)"
    )
    if arrivals:
        model = resolve_arrivals(arrivals)
        before = AigTimingEngine(aig, model).depth()
        after = AigTimingEngine(optimized, model).depth()
        print(f"completion (prescribed arrivals): {before} -> {after}")
    if args.output:
        _write_circuit(optimized, args.output)
        print(f"wrote {args.output}")
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    aig = _read_circuit(args.input)
    netlist = map_aig(aig)
    print(
        f"mapped: {netlist.num_gates} gates, area {netlist.area:.1f}, "
        f"delay {mapped_delay(netlist):.0f} ps, "
        f"power {dynamic_power_uw(netlist):.1f} uW @1GHz"
    )
    if args.output:
        with open(args.output, "w") as fh:
            write_verilog(netlist, fh)
        print(f"wrote {args.output}")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .verify import INVARIANTS, fuzz

    if args.list_checks:
        for name in sorted(INVARIANTS):
            print(name)
        return 0
    perf.reset()
    report = fuzz(
        seed=args.seed,
        budget_s=args.budget,
        max_cases=args.max_cases,
        checks=args.check or None,
        artifact_dir=args.artifact_dir,
        shrink=not args.no_shrink,
        keep_going=args.keep_going,
    )
    if args.profile:
        print(perf.report(), file=sys.stderr)
    print(report.summary())
    if not report.ok:
        for failure in report.failures:
            if failure.artifact_path:
                print(
                    f"regression artifact: {failure.artifact_path}",
                    file=sys.stderr,
                )
        return 1
    return 0


def cmd_rank_fit(args: argparse.Namespace) -> int:
    """Fit a candidate-ranking model from --rank log datasets."""
    from .rank import fit_model, load_dataset

    rows = load_dataset(args.data)
    if not rows:
        print("error: no dataset rows in " + ", ".join(args.data),
              file=sys.stderr)
        return 1
    model = fit_model(
        rows,
        target_recall=args.target_recall,
        meta={"datasets": list(args.data)},
    )
    model.save(args.output)
    accepts = sum(int(r["accept"]) for r in rows)
    kind = "pass-through" if model.meta.get("degenerate") else model.kind
    print(
        f"fitted {kind} model on {len(rows)} rows ({accepts} accepts); "
        f"threshold {model.threshold:.6g}"
    )
    print(f"wrote {args.output} (fingerprint {model.fingerprint()[:16]})")
    if args.store is not None:
        path = args.store if args.store else default_store_path()
        store = SqliteStore(path)
        try:
            store.namespace("rank_model").put(
                model.fingerprint(), model.payload()
            )
        finally:
            store.close()
        print(f"stored rank_model {model.fingerprint()[:16]} in {path}")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect and reset the persistent result store."""
    path = args.store if args.store else default_store_path()
    if args.action == "path":
        print(path)
        return 0
    if not os.path.exists(path):
        print(f"no result store at {path}")
        return 0 if args.action == "stats" else 1
    store = SqliteStore(path)
    try:
        if args.action == "stats":
            stats = store.stats()
            total = sum(info["entries"] for info in stats.values())
            print(f"store : {path}")
            print(f"size  : {store.file_size()} bytes")
            print(f"total : {total} entries")
            for ns in sorted(stats):
                print(f"  {ns:12s} {stats[ns]['entries']} entries")
            return 0
        # clear
        removed = store.invalidate(args.namespace or None)
        scope = args.namespace or "all namespaces"
        print(f"cleared {removed} entries ({scope}) from {path}")
        return 0
    finally:
        store.close()


def _serve_store(args: argparse.Namespace) -> Optional[str]:
    """Resolve the daemon's store path.

    Unlike ``optimize`` (process-local by default), ``serve`` persists by
    default — a daemon exists to keep answers warm across jobs and
    restarts — so only ``--no-store`` opts out.
    """
    if args.no_store:
        return None
    if args.store:
        return args.store
    return default_store_path()


def cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ReproDaemon, ServeClient, ServeError

    store = _serve_store(args)
    if args.status or args.stop:
        try:
            client = ServeClient.resolve(
                endpoint=args.endpoint,
                store=store,
                endpoint_file=args.endpoint_file,
            )
            if args.stop:
                client.shutdown()
                print(f"daemon at {client.host}:{client.port} draining")
            else:
                status = client.status()
                print(json.dumps(status, indent=2, sort_keys=True))
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0
    daemon = ReproDaemon(
        store=store,
        workers=args.workers,
        host=args.host,
        port=args.port,
        job_timeout=args.job_timeout,
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        runners=args.runners,
        endpoint_file=args.endpoint_file,
    )

    def announce(d: ReproDaemon) -> None:
        print(
            f"repro serve: listening on {d.host}:{d.port} "
            f"(store {store or '(memory only)'}, pid {os.getpid()})",
            flush=True,
        )

    daemon.serve_forever(on_ready=announce)
    print("repro serve: drained, exiting")
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from .serve import ServeClient, ServeError

    with open(args.input) as fh:
        text = fh.read()
    fmt = "blif" if args.input.endswith(".blif") else "aag"
    arrivals: Dict[str, int] = {}
    if args.arrival_file:
        arrivals.update(load_arrival_file(args.arrival_file))
    if args.arrival:
        arrivals.update(parse_arrival_spec(args.arrival))
    options: Dict[str, object] = {"flow": args.flow}
    if arrivals:
        options["arrivals"] = arrivals
    if args.verify:
        options["verify"] = True
    try:
        client = ServeClient.resolve(
            endpoint=args.endpoint,
            store=args.store or None,
            endpoint_file=args.endpoint_file,
        )
        result = client.submit(
            text,
            options=options,
            timeout=args.timeout,
            fmt=fmt,
            return_circuit=bool(args.output),
        )
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    inp = result["input"]
    store_info = result.get("store", {})
    print(
        f"serve[{args.flow}]: ands {inp['ands']} -> {result['ands']}, "
        f"levels {inp['depth']} -> {result['depth']} "
        f"({result['elapsed_s']:.1f}s, "
        f"store hit rate {store_info.get('hit_rate', 0.0):.1%})"
    )
    if args.output:
        optimized = read_aag(io.StringIO(result["circuit"]))
        _write_circuit(optimized, args.output)
        print(f"wrote {args.output}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .bench import BENCHMARKS

    names = [args.circuit] if args.circuit else list(BENCHMARKS)
    for name in names:
        if name not in BENCHMARKS:
            print(f"unknown circuit {name!r}; available: "
                  + ", ".join(BENCHMARKS), file=sys.stderr)
            return 1
        aig = BENCHMARKS[name]()
        print(
            f"{name:24s} {aig.num_pis:4d}/{aig.num_pos:4d} "
            f"ands {aig.num_ands():5d} levels {depth(aig):3d}"
        )
        if args.output_dir:
            path = f"{args.output_dir}/{name}.aag"
            _write_circuit(aig, path)
    return 0


def _split_csv(value: Optional[str]):
    if not value:
        return None
    return [item for item in (p.strip() for p in value.split(",")) if item]


def cmd_bench_plan(args: argparse.Namespace) -> int:
    from .bench import orchestrator, table2

    circuits = _split_csv(args.circuits)
    if args.quick:
        if circuits:
            print("error: --quick and --circuits are exclusive",
                  file=sys.stderr)
            return 1
        circuits = list(table2.QUICK_SET)
    try:
        manifest = orchestrator.plan_manifest(
            circuits=circuits, flows=_split_csv(args.flows)
        )
    except orchestrator.OrchestratorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    orchestrator.write_manifest(manifest, args.output)
    print(
        f"planned {len(manifest['jobs'])} jobs "
        f"({len(manifest['circuits'])} circuits x "
        f"{len(manifest['flows'])} flows) -> {args.output}\n"
        f"fingerprint {manifest['fingerprint'][:16]}"
    )
    return 0


def cmd_bench_run(args: argparse.Namespace) -> int:
    from .bench import orchestrator
    from .serve import ServeClient, ServeError

    if args.workers is not None:
        os.environ[perf.WORKERS_ENV] = str(args.workers)
    try:
        manifest = orchestrator.load_manifest(args.manifest)
        shard = orchestrator.parse_shard(args.shard)
    except orchestrator.OrchestratorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    clients = []
    try:
        for endpoint in args.endpoint or ():
            clients.append(
                ServeClient.resolve(endpoint=endpoint,
                                    timeout=args.serve_timeout)
            )
        for endpoint_file in args.endpoint_file or ():
            clients.append(
                ServeClient.resolve(endpoint_file=endpoint_file,
                                    timeout=args.serve_timeout)
            )
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def log(message: str) -> None:
        print(f"[shard {args.shard}] {message}", flush=True)

    try:
        summary = orchestrator.run_shard(
            manifest,
            args.jobs_dir,
            shard=shard,
            clients=clients or None,
            max_jobs=args.max_jobs,
            log=log,
        )
    except (orchestrator.OrchestratorError, ServeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"shard {args.shard}: ran {summary['run']}, "
        f"skipped {summary['skipped']} already-done, "
        f"recomputed {summary['stale']} stale"
    )
    return 0


def cmd_bench_merge(args: argparse.Namespace) -> int:
    from .bench import orchestrator

    try:
        manifest = orchestrator.load_manifest(args.manifest)
        merged = orchestrator.merge_results(
            manifest, args.jobs_dir, allow_partial=args.allow_partial
        )
    except orchestrator.OrchestratorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    orchestrator.write_merged(merged, args.output)
    done = sum(len(flows) for flows in merged["rows"].values())
    print(
        f"merged {done}/{len(manifest['jobs'])} jobs -> {args.output}"
    )
    return 0


def cmd_bench_report(args: argparse.Namespace) -> int:
    from .bench import orchestrator

    merged = orchestrator.load_merged(args.input)
    if args.experiments:
        try:
            orchestrator.update_experiments(args.experiments, merged)
        except orchestrator.OrchestratorError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"updated Table 2 section of {args.experiments}")
    else:
        print(orchestrator.render_report(merged), end="")
    return 0


def _walk_modes_arg(value: str):
    return [m.strip() for m in value.split(",") if m.strip()]


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    """One flag per CLI-exposed :class:`OptimizerConfig` field.

    Defaults, allowed values and help come from the field, and values
    are validated by the config itself, so a bad value fails with the
    same ``ValueError`` as through the Python and job entry points.
    """
    for f in CLI_FIELDS:
        flag, meta = f.metadata["cli"], f.metadata
        help_text = meta["doc"] + " (lookahead flows only)"
        if isinstance(f.default, bool):
            parser.add_argument(
                flag, dest=f.name, action="store_false",
                help="do not " + help_text,
            )
            continue
        kwargs = {"dest": f.name, "default": f.default}
        if meta["choices"] is not None:
            kwargs["metavar"] = "{" + ",".join(meta["choices"]) + "}"
        elif f.name == "walk_modes":
            kwargs["type"] = _walk_modes_arg
            kwargs["metavar"] = "MODE,..."
            help_text += f"; comma-separated, default {','.join(f.default)}"
        else:
            kwargs["metavar"] = "PATH"
        parser.add_argument(flag, help=help_text, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Lookahead logic synthesis (DAC 2009 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="print circuit statistics")
    p_stats.add_argument("input")
    _add_arrival_args(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_opt = sub.add_parser("optimize", help="run an optimization flow")
    p_opt.add_argument("input")
    p_opt.add_argument("-o", "--output")
    p_opt.add_argument("--flow", choices=FLOWS, default=OptimizerConfig.flow)
    p_opt.add_argument(
        "--no-verify", action="store_true",
        help="skip the post-optimization equivalence check",
    )
    p_opt.add_argument(
        "--profile", action="store_true",
        help="print perf telemetry (rounds, cache hit rates, worker "
             "utilization, per-phase wall time) after the run",
    )
    p_opt.add_argument(
        "--workers", type=int, metavar="N",
        help=f"worker processes for parallel lookahead rounds "
             f"(overrides ${perf.WORKERS_ENV}; 1 = serial)",
    )
    p_opt.add_argument(
        "--store", nargs="?", const="", default=None, metavar="PATH",
        help="persist memo-layer results (SPCFs, rejected cones, UNSAT "
             "verdicts, witnesses, redundancy proofs) in an on-disk "
             "store so later runs start warm; with no PATH uses "
             "$REPRO_STORE or ~/.cache/repro/results.db (lookahead "
             "flows only; warm runs are bit-identical in QoR)",
    )
    p_opt.add_argument(
        "--no-store", action="store_true",
        help="force a fully process-local run even when $REPRO_STORE "
             "is set",
    )
    _add_config_args(p_opt)
    p_opt.add_argument(
        "--rank-data", metavar="PATH",
        help="JSONL file appended with one feature/outcome row per "
             "candidate under --rank log",
    )
    _add_arrival_args(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_rank = sub.add_parser(
        "rank", help="fit candidate-ranking models from --rank log data"
    )
    rank_sub = p_rank.add_subparsers(dest="rank_command", required=True)
    pr_fit = rank_sub.add_parser(
        "fit", help="fit a ranking model from logged datasets"
    )
    pr_fit.add_argument(
        "--data", action="append", required=True, metavar="PATH",
        help="JSONL dataset from `repro optimize --rank log --rank-data` "
             "(repeatable; rows are concatenated)",
    )
    pr_fit.add_argument(
        "-o", "--output", required=True, metavar="PATH",
        help="model artifact to write (versioned JSON)",
    )
    pr_fit.add_argument(
        "--target-recall", type=float, default=1.0, metavar="R",
        help="fraction of training accepts the threshold must keep "
             "(default 1.0: never prune anything the log run accepted)",
    )
    pr_fit.add_argument(
        "--store", nargs="?", const="", default=None, metavar="PATH",
        help="also record the artifact in the result store's rank_model "
             "namespace, keyed by fingerprint (no PATH: $REPRO_STORE or "
             "~/.cache/repro/results.db)",
    )
    pr_fit.set_defaults(func=cmd_rank_fit)

    p_cache = sub.add_parser(
        "cache", help="inspect or reset the persistent result store"
    )
    p_cache.add_argument(
        "action", choices=("stats", "clear", "path"),
        help="stats: per-namespace entry counts; clear: drop entries; "
             "path: print the store location",
    )
    p_cache.add_argument(
        "--store", metavar="PATH",
        help="store database ($REPRO_STORE or ~/.cache/repro/results.db "
             "by default)",
    )
    p_cache.add_argument(
        "--namespace", metavar="NS",
        help="restrict 'clear' to one namespace (e.g. spcf, unsat)",
    )
    p_cache.set_defaults(func=cmd_cache)

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived optimization daemon on the result store",
    )
    p_serve.add_argument(
        "--store", metavar="PATH",
        help="store database backing the daemon ($REPRO_STORE or "
             "~/.cache/repro/results.db by default); the endpoint file "
             "<store>.serve.json advertises the daemon to `repro submit`",
    )
    p_serve.add_argument(
        "--no-store", action="store_true",
        help="serve from memory only (answers are not persisted)",
    )
    p_serve.add_argument(
        "--workers", type=int, metavar="N",
        help=f"worker processes per optimizer (overrides "
             f"${perf.WORKERS_ENV}; 1 = serial)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="listening port (default 0 = ephemeral, advertised via the "
             "endpoint file)",
    )
    p_serve.add_argument(
        "--job-timeout", type=float, default=600.0, metavar="SECONDS",
        help="per-job watchdog budget (default 600)",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=8, metavar="N",
        help="max queued same-config jobs drained onto one warm "
             "optimizer (default 8)",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=256, metavar="N",
        help="queued-job bound before submits are rejected (default 256)",
    )
    p_serve.add_argument(
        "--runners", type=int, default=1, metavar="N",
        help="concurrent job-runner threads (default 1; per-job store "
             "hit-rates are approximate above 1)",
    )
    p_serve.add_argument(
        "--endpoint-file", metavar="FILE",
        help="override where the daemon advertises HOST:PORT",
    )
    p_serve.add_argument(
        "--status", action="store_true",
        help="probe the running daemon and print its status as JSON",
    )
    p_serve.add_argument(
        "--stop", action="store_true",
        help="ask the running daemon to drain and exit",
    )
    p_serve.add_argument(
        "--endpoint", metavar="HOST:PORT",
        help="daemon address for --status/--stop (default: the "
             "endpoint file)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit",
        help="submit a circuit to a running optimize daemon",
    )
    p_submit.add_argument("input")
    p_submit.add_argument("-o", "--output")
    p_submit.add_argument(
        "--flow", choices=JOB_FLOWS, default=OptimizerConfig.flow,
        help="served flow (daemon-side defaults mirror `repro optimize`)",
    )
    _add_arrival_args(p_submit)
    p_submit.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="per-job budget enforced by the daemon watchdog "
             "(daemon default when omitted)",
    )
    p_submit.add_argument(
        "--verify", action="store_true",
        help="ask the daemon to equivalence-check the answer before "
             "returning it",
    )
    p_submit.add_argument(
        "--store", metavar="PATH",
        help="store whose endpoint file locates the daemon "
             "($REPRO_STORE or ~/.cache/repro/results.db by default)",
    )
    p_submit.add_argument(
        "--endpoint", metavar="HOST:PORT",
        help="daemon address (overrides endpoint-file discovery)",
    )
    p_submit.add_argument(
        "--endpoint-file", metavar="FILE",
        help="explicit endpoint file written by `repro serve`",
    )
    p_submit.set_defaults(func=cmd_submit)

    p_map = sub.add_parser("map", help="technology-map to the 70nm library")
    p_map.add_argument("input")
    p_map.add_argument("-o", "--output", help="gate-level Verilog output")
    p_map.set_defaults(func=cmd_map)

    p_bench = sub.add_parser(
        "bench",
        help="benchmark circuits and the sharded Table 2 orchestrator",
        description="With no subcommand: list/emit the benchmark "
                    "circuits.  The plan/run/merge/report subcommands "
                    "drive the sharded Table 2 benchmark lifecycle.",
    )
    p_bench.add_argument("--circuit")
    p_bench.add_argument("--output-dir")
    p_bench.set_defaults(func=cmd_bench)
    bench_sub = p_bench.add_subparsers(dest="bench_command")

    pb_plan = bench_sub.add_parser(
        "plan", help="expand the per-circuit x per-flow job manifest"
    )
    pb_plan.add_argument(
        "-o", "--output", default="table2_manifest.json", metavar="FILE",
        help="manifest path (default table2_manifest.json)",
    )
    pb_plan.add_argument(
        "--circuits", metavar="NAME,...",
        help="restrict to these circuits (default: all 15)",
    )
    pb_plan.add_argument(
        "--flows", metavar="FLOW,...",
        help="restrict to these flows (default: SIS,ABC,DC,Lookahead)",
    )
    pb_plan.add_argument(
        "--quick", action="store_true",
        help="plan only the small QUICK_SET circuits",
    )
    pb_plan.set_defaults(func=cmd_bench_plan)

    pb_run = bench_sub.add_parser(
        "run", help="execute one shard of a planned manifest (resumable)"
    )
    pb_run.add_argument(
        "--manifest", default="table2_manifest.json", metavar="FILE"
    )
    pb_run.add_argument(
        "--jobs-dir", default="table2_jobs", metavar="DIR",
        help="per-job result artifacts (default table2_jobs/)",
    )
    pb_run.add_argument(
        "--shard", default="1/1", metavar="K/N",
        help="run shard K of N (1-based; default 1/1 = everything)",
    )
    pb_run.add_argument(
        "--endpoint", action="append", metavar="HOST:PORT",
        help="dispatch Lookahead jobs to this `repro serve` daemon "
             "(repeatable; round-robin across daemons)",
    )
    pb_run.add_argument(
        "--endpoint-file", action="append", metavar="FILE",
        help="like --endpoint, via an endpoint file written by "
             "`repro serve`",
    )
    pb_run.add_argument(
        "--serve-timeout", type=float, default=3600.0, metavar="SECONDS",
        help="per-job budget for served jobs (default 3600)",
    )
    pb_run.add_argument(
        "--workers", type=int, metavar="N",
        help=f"worker processes for local jobs (overrides "
             f"${perf.WORKERS_ENV}; 1 = serial)",
    )
    pb_run.add_argument(
        "--max-jobs", type=int, metavar="N",
        help="stop after executing N jobs (skips not counted)",
    )
    pb_run.set_defaults(func=cmd_bench_run)

    pb_merge = bench_sub.add_parser(
        "merge", help="fold per-job artifacts into BENCH_table2.json"
    )
    pb_merge.add_argument(
        "--manifest", default="table2_manifest.json", metavar="FILE"
    )
    pb_merge.add_argument(
        "--jobs-dir", default="table2_jobs", metavar="DIR"
    )
    pb_merge.add_argument(
        "-o", "--output", default="BENCH_table2.json", metavar="FILE"
    )
    pb_merge.add_argument(
        "--allow-partial", action="store_true",
        help="merge even when jobs are missing or stale",
    )
    pb_merge.set_defaults(func=cmd_bench_merge)

    pb_report = bench_sub.add_parser(
        "report", help="render the merged table (stdout or EXPERIMENTS.md)"
    )
    pb_report.add_argument(
        "-i", "--input", default="BENCH_table2.json", metavar="FILE"
    )
    pb_report.add_argument(
        "--experiments", metavar="FILE",
        help="splice the table between the TABLE2 markers of this file "
             "instead of printing it",
    )
    pb_report.set_defaults(func=cmd_bench_report)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing of the whole flow (repro.verify)",
    )
    p_fuzz.add_argument(
        "--seed", type=int, default=0,
        help="base seed; every case is reproducible from (seed, index)",
    )
    p_fuzz.add_argument(
        "--budget", type=float, default=60.0, metavar="SECONDS",
        help="wall-clock budget for the run (default 60)",
    )
    p_fuzz.add_argument(
        "--max-cases", type=int, metavar="N",
        help="stop after N cases even if budget remains",
    )
    p_fuzz.add_argument(
        "--check", action="append", metavar="NAME",
        help="restrict to this invariant (repeatable; see --list-checks)",
    )
    p_fuzz.add_argument(
        "--list-checks", action="store_true",
        help="print the registered invariant names and exit",
    )
    p_fuzz.add_argument(
        "--artifact-dir", default="tests/regressions", metavar="DIR",
        help="where shrunk failure artifacts are written "
             "(default tests/regressions)",
    )
    p_fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="record the raw failing circuit without ddmin shrinking",
    )
    p_fuzz.add_argument(
        "--keep-going", action="store_true",
        help="record every failure instead of stopping at the first",
    )
    p_fuzz.add_argument(
        "--profile", action="store_true",
        help="print perf telemetry (verify.* counters) after the run",
    )
    p_fuzz.set_defaults(func=cmd_fuzz)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
