"""Command-line interface: ``drr-gossip <command>`` (or ``python -m repro``).

The CLI is a thin veneer over :mod:`repro.harness.experiments` and the
orchestration subsystem (:mod:`repro.orchestration`); it exists so a
downstream user can regenerate any table of EXPERIMENTS.md — or run a
paper-scale parameter sweep — without writing Python.  The package does not
need to be installed: ``python -m repro <command>`` behaves identically to
the ``drr-gossip`` entry point.

Examples
--------
Run a quick average computation over synthetic values::

    drr-gossip run --n 4096 --aggregate average

Run any protocol from a declarative spec file, and inspect/validate specs::

    drr-gossip run --spec examples/specs/average.toml
    drr-gossip spec show examples/specs/average.toml
    drr-gossip spec validate examples/specs/*.toml examples/sweeps/*.toml

Regenerate the Table 1 measurement at small scale::

    drr-gossip table1 --ns 256 512 1024 --reps 2

Run every experiment and write a markdown report::

    drr-gossip report --output results/

Run a parameter sweep in parallel, persisting every cell to SQLite (an
immediate re-run skips all completed cells)::

    drr-gossip sweep --experiments table1 forest --ns 256 512 --reps 3 --jobs 4
    drr-gossip sweep --config sweeps/quick.toml --jobs 4

Record where the wall clock goes (phase/primitive telemetry), with a
live heartbeat line and a JSONL event export::

    drr-gossip run --n 100000 --telemetry events.jsonl --heartbeat 5

Inspect and export what the store holds::

    drr-gossip results --markdown results/report.md
    drr-gossip results --failed
    drr-gossip results --telemetry
    drr-gossip results --bench --plot

Render figures purely from stored rows (no recomputation; needs matplotlib)::

    drr-gossip plot --store results/results.sqlite --output results/figures
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from ..api import SpecValidationError, load_specs, parse_spec_document, read_spec_document
from ..api import run as run_spec_fn
from ..core import Aggregate, DRRGossipConfig, drr_gossip
from ..observability import (
    NULL_TELEMETRY,
    Heartbeat,
    Telemetry,
    configure_logging,
    format_telemetry,
    use_telemetry,
    write_events_jsonl,
)
from ..substrate import available_backends, normalize_backend
from ..orchestration import (
    QueueWorker,
    ResultStore,
    SweepDefinition,
    SweepRunner,
    cells_from_run_specs,
    expand_cells,
    load_builtin_experiments,
    load_sweep,
    print_progress,
    print_worker_progress,
    signal_shutdown,
)
from ..orchestration.worker import DEFAULT_LEASE_S, DEFAULT_MAX_ATTEMPTS
from ..simulator import FailureModel
from ..simulator.errors import ConfigurationError
from . import experiments  # noqa: F401  (import registers the drivers)
from .report import write_json, write_markdown_report, write_markdown_report_from_store
from .workloads import make_values, workload_names

__all__ = ["main", "build_parser", "EXPERIMENTS"]

#: Default location of the sweep result store.
DEFAULT_STORE = "results/results.sqlite"

#: experiment name -> driver callable, backed by the orchestration registry.
#: Kept as a plain mapping for backwards compatibility with callers that did
#: ``from repro.harness.cli import EXPERIMENTS``.
EXPERIMENTS = {spec.name: spec.driver for spec in load_builtin_experiments()}


def _backend_arg(value: str) -> str:
    """``--backend`` parser: a retired or uninstalled backend gets the
    registry's reason (what to use instead), not a bare invalid choice."""
    try:
        return normalize_backend(value)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drr-gossip",
        description="Reproduction harness for 'Optimal Gossip-Based Aggregate Computation' (SPAA 2010)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="increase log verbosity (-v: INFO, -vv: DEBUG) on the `repro` logger hierarchy",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="count",
        default=0,
        help="decrease log verbosity (errors only)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one DRR-gossip aggregate computation on synthetic values")
    run.add_argument(
        "--spec",
        type=str,
        default=None,
        metavar="FILE",
        help="run from a declarative RunSpec file (.toml/.json); overrides every other run flag",
    )
    run.add_argument("--n", type=int, default=1024, help="number of nodes")
    run.add_argument("--aggregate", choices=[a.value for a in Aggregate], default="average")
    run.add_argument("--workload", choices=workload_names(), default="uniform")
    run.add_argument("--delta", type=float, default=0.0, help="per-message loss probability")
    run.add_argument("--crash", type=float, default=0.0, help="initial crash fraction")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--query", type=float, default=None, help="query value for the rank aggregate")
    run.add_argument(
        "--backend",
        type=_backend_arg,
        choices=list(available_backends()),
        default="vectorized",
        help="execution substrate: columnar batches (vectorized), numba-jitted "
        "primitives (compiled; needs the numba extra), or message-level "
        "simulation (engine)",
    )
    run.add_argument(
        "--telemetry",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help="record phase/primitive telemetry and print a summary; with "
        "FILE, also export the events as JSONL (one event per line)",
    )
    run.add_argument(
        "--heartbeat",
        type=float,
        default=None,
        metavar="SECS",
        help="print a live [heartbeat] progress line to stderr every SECS seconds",
    )

    for spec in load_builtin_experiments():
        exp = sub.add_parser(spec.name, help=spec.description)
        exp.add_argument("--seed", type=int, default=None)
        exp.add_argument("--reps", type=int, default=None, help="repetitions per configuration")
        exp.add_argument("--ns", type=int, nargs="+", default=None, help="network sizes to sweep")
        exp.add_argument("--json", type=str, default=None, help="write the result to this JSON path")
        if "backend" in spec.param_names:
            exp.add_argument(
                "--backend",
                type=_backend_arg,
                choices=list(available_backends()),
                default=None,
                help="execution substrate for this experiment (recorded in the result parameters)",
            )

    report = sub.add_parser("report", help="run every experiment and write a markdown report")
    report.add_argument("--output", type=str, default="results", help="output directory")
    report.add_argument("--quick", action="store_true", help="use small sweeps (CI-sized)")
    report.add_argument("--seed", type=int, default=1)

    sweep = sub.add_parser(
        "sweep",
        help="run a parameter sweep in parallel, persisting every cell to the result store",
    )
    sweep.add_argument("--config", type=str, default=None, help="TOML/JSON sweep definition file")
    sweep.add_argument(
        "--spec",
        type=str,
        default=None,
        metavar="FILE",
        help="TOML/JSON file of protocol RunSpecs; every run becomes one sweep cell "
        "(workers receive the serialised spec, results land in the store under run:<protocol>)",
    )
    sweep.add_argument(
        "--experiments",
        nargs="+",
        default=None,
        metavar="NAME",
        help="experiments to sweep when no --config is given (default: all registered)",
    )
    sweep.add_argument("--ns", type=int, nargs="+", default=None, help="network-size vector for experiments that take one")
    sweep.add_argument("--reps", type=int, default=None, help="repetitions (seeds) per grid point")
    sweep.add_argument("--seed", type=int, default=None, help="master seed (per-cell seeds derive from it)")
    sweep.add_argument("--jobs", type=int, default=1, help="worker processes (1 = run in-process)")
    sweep.add_argument("--store", type=str, default=DEFAULT_STORE, help="SQLite result store path")
    sweep.add_argument(
        "--backend",
        type=_backend_arg,
        choices=list(available_backends()),
        default=None,
        help="execution substrate for every backend-aware experiment in the sweep "
        "(recorded per row in the result store; default: each driver's default)",
    )
    sweep.add_argument(
        "--no-skip",
        action="store_true",
        help="re-execute cells even when the store already has their results",
    )
    sweep.add_argument(
        "--enqueue-only",
        action="store_true",
        help="enqueue the cells in the store's work queue and exit without draining "
        "(start `drr-gossip worker` processes to execute them)",
    )
    sweep.add_argument(
        "--lease",
        type=float,
        default=DEFAULT_LEASE_S,
        metavar="SECS",
        help="seconds without a lease renewal after which a claim is reclaimed",
    )
    sweep.add_argument(
        "--max-attempts",
        type=int,
        default=DEFAULT_MAX_ATTEMPTS,
        metavar="N",
        help="claims per cell before it is marked failed",
    )

    worker = sub.add_parser(
        "worker",
        help="claim and execute queued sweep cells from a shared store until it drains",
    )
    worker.add_argument("--store", type=str, default=DEFAULT_STORE, help="SQLite result store path")
    worker.add_argument(
        "--worker-id",
        type=str,
        default=None,
        help="claim owner label recorded in the queue (default: host:pid)",
    )
    worker.add_argument(
        "--lease",
        type=float,
        default=DEFAULT_LEASE_S,
        metavar="SECS",
        help="seconds without a lease renewal after which another worker's claim is reclaimed",
    )
    worker.add_argument(
        "--max-attempts",
        type=int,
        default=DEFAULT_MAX_ATTEMPTS,
        metavar="N",
        help="claims per cell before it is marked failed instead of reclaimed",
    )
    worker.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="SECS",
        help="idle sleep between claim attempts while other workers hold cells",
    )
    worker.add_argument(
        "--heartbeat",
        type=float,
        default=15.0,
        metavar="SECS",
        help="how often an executing cell renews its claim's lease",
    )
    worker.add_argument(
        "--linger",
        type=float,
        default=0.0,
        metavar="SECS",
        help="keep polling an empty queue this long before exiting (start workers "
        "before submitting work)",
    )
    worker.add_argument(
        "--max-cells",
        type=int,
        default=None,
        metavar="N",
        help="exit after handling N cells (default: drain the queue)",
    )
    worker.add_argument(
        "--no-skip",
        action="store_true",
        help="execute claims even when the store already has their results "
        "(disables the content-addressed cache check)",
    )
    worker.add_argument(
        "--telemetry",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help="record per-claim/execute/write spans and queue-depth gauges; with "
        "FILE, also export the events as JSONL",
    )

    serve = sub.add_parser(
        "serve",
        help="serve the simulation job API over HTTP: submit specs, poll status, "
        "fetch cached results (see repro.service)",
    )
    serve.add_argument("--store", type=str, default=DEFAULT_STORE, help="SQLite result store path")
    serve.add_argument("--host", type=str, default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8642, help="bind port (0 = ephemeral)")
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="also spawn N queue-worker subprocesses draining the served store "
        "(0 = serve only; point `drr-gossip worker --store` at the same path instead)",
    )
    serve.add_argument(
        "--lease",
        type=float,
        default=DEFAULT_LEASE_S,
        metavar="SECS",
        help="worker pool: seconds without a lease renewal after which a claim is reclaimed",
    )
    serve.add_argument(
        "--max-attempts",
        type=int,
        default=DEFAULT_MAX_ATTEMPTS,
        metavar="N",
        help="worker pool: claims per cell before it is marked failed",
    )
    serve.add_argument(
        "--poll",
        type=float,
        default=0.2,
        metavar="SECS",
        help="worker pool: idle sleep between claim attempts",
    )
    serve.add_argument(
        "--heartbeat",
        type=float,
        default=15.0,
        metavar="SECS",
        help="worker pool: how often an executing cell renews its claim's lease",
    )
    serve.add_argument(
        "--telemetry",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help="record request counts and per-route latency spans, printed at "
        "shutdown; with FILE, also export the events as JSONL",
    )

    plot = sub.add_parser(
        "plot",
        help="render figures from stored sweep rows (no recomputation; needs matplotlib)",
    )
    plot.add_argument("--store", type=str, default=DEFAULT_STORE, help="SQLite result store path")
    plot.add_argument("--experiment", type=str, default=None, help="restrict to one experiment")
    plot.add_argument("--output", type=str, default="results/figures", help="output directory")
    plot.add_argument("--format", dest="fmt", choices=["png", "svg", "pdf"], default="png")

    spec = sub.add_parser("spec", help="inspect and validate declarative spec/sweep files")
    spec_sub = spec.add_subparsers(dest="spec_command", required=True)
    spec_show = spec_sub.add_parser("show", help="print a spec file's canonical JSON and hashes")
    spec_show.add_argument("files", nargs="+", metavar="FILE", help="RunSpec .toml/.json files")
    spec_validate = spec_sub.add_parser(
        "validate",
        help="validate RunSpec files and sweep definition files against their schemas",
    )
    spec_validate.add_argument("files", nargs="+", metavar="FILE", help="spec or sweep files")

    results = sub.add_parser("results", help="summarise/export the sweep result store")
    results.add_argument("--store", type=str, default=DEFAULT_STORE, help="SQLite result store path")
    results.add_argument("--experiment", type=str, default=None, help="restrict to one experiment")
    results.add_argument("--failed", action="store_true", help="show failed cells with their tracebacks")
    results.add_argument("--json", type=str, default=None, help="export stored runs to this JSON path")
    results.add_argument("--markdown", type=str, default=None, help="write a markdown report from the store")
    results.add_argument(
        "--bench",
        action="store_true",
        help="print the persisted benchmark trajectory (BENCH_substrate.json) instead of the store summary",
    )
    results.add_argument(
        "--bench-file",
        type=str,
        default=None,
        metavar="PATH",
        help="trajectory file for --bench (default: BENCH_substrate.json in the current directory)",
    )
    results.add_argument(
        "--bench-name",
        type=str,
        default=None,
        metavar="NAME",
        help="with --bench: restrict to rows of one bench (e.g. drr_gossip_scale)",
    )
    results.add_argument(
        "--since",
        type=str,
        default=None,
        metavar="SHA",
        help="with --bench: drop rows recorded before the first row stamped with "
        "this commit (short or full SHA)",
    )
    results.add_argument(
        "--telemetry",
        action="store_true",
        help="show stored per-run telemetry summaries and the in-flight claims",
    )
    results.add_argument(
        "--plot",
        action="store_true",
        help="with --bench: render the perf trajectory (wall_s vs commit, one "
        "figure per bench/protocol; needs matplotlib)",
    )
    results.add_argument(
        "--plot-output",
        type=str,
        default="results/figures",
        metavar="DIR",
        help="output directory for --plot figures",
    )
    results.add_argument(
        "--queue",
        action="store_true",
        help="show the work queue: per-experiment state counts and "
        "claims whose leases have gone stale",
    )
    results.add_argument(
        "--stale-after",
        type=float,
        default=DEFAULT_LEASE_S,
        metavar="SECS",
        help="with --queue: flag claims with no lease renewal for this long as stale",
    )
    return parser


def _heartbeat_for(args: argparse.Namespace, telemetry, label: str):
    """A started :class:`Heartbeat` for ``--heartbeat``, or a null context."""
    import contextlib

    if args.heartbeat is None:
        return contextlib.nullcontext()
    try:
        return Heartbeat(telemetry, interval_s=args.heartbeat, label=label)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _export_events(telemetry_doc: dict, target: str, append: bool) -> None:
    if target:  # `--telemetry FILE` (bare `--telemetry` is const="")
        path = write_events_jsonl(telemetry_doc, target, append=append)
        verb = "appended" if append else "wrote"
        print(f"{verb} telemetry events: {path}")


def _run_single(args: argparse.Namespace) -> int:
    want_telemetry = args.telemetry is not None
    if args.spec is not None:
        try:
            specs = load_specs(args.spec)
        except (SpecValidationError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for index, spec in enumerate(specs):
            if index:
                print()
            if want_telemetry:
                spec = spec.with_telemetry()
            print(f"spec             : {spec.describe()}")
            tel = Telemetry() if want_telemetry else None
            with _heartbeat_for(args, tel if tel is not None else NULL_TELEMETRY, spec.protocol):
                envelope = run_spec_fn(spec, telemetry=tel)
            print(envelope.describe())
            if want_telemetry and envelope.telemetry is not None:
                _export_events(envelope.telemetry, args.telemetry, append=index > 0)
        return 0
    rng = np.random.default_rng(args.seed)
    values = make_values(args.workload, args.n, rng)
    config = DRRGossipConfig(
        failure_model=FailureModel(loss_probability=args.delta, crash_fraction=args.crash),
        backend=args.backend,
    )
    tel = Telemetry() if want_telemetry else NULL_TELEMETRY
    with _heartbeat_for(args, tel, args.aggregate):
        with use_telemetry(tel):
            result = drr_gossip(
                values, args.aggregate, rng=args.seed, config=config, query=args.query
            )
    print(f"aggregate        : {result.aggregate.value}")
    print(f"backend          : {config.backend}")
    print(f"n                : {result.n}")
    print(f"exact value      : {result.exact:.6g}")
    print(f"max rel. error   : {result.max_relative_error:.3g}")
    print(f"coverage         : {result.coverage:.3f}")
    print(f"rounds           : {result.rounds}")
    print(f"messages         : {result.messages} ({result.messages / result.n:.2f} per node)")
    print("messages by phase:")
    for phase, count in result.messages_by_phase().items():
        if count:
            print(f"  {phase:<18} {count}")
    if want_telemetry:
        doc = tel.as_dict()
        print(format_telemetry(doc))
        _export_events(doc, args.telemetry, append=False)
    return 0


def _run_experiment(name: str, args: argparse.Namespace) -> int:
    fn = EXPERIMENTS[name]
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.reps is not None:
        kwargs["repetitions"] = args.reps
    if getattr(args, "backend", None) is not None:
        kwargs["backend"] = args.backend
    if args.ns is not None:
        if name == "ablation":
            kwargs["n"] = args.ns[0]
        else:
            kwargs["ns"] = tuple(args.ns)
    result = fn(**kwargs)
    print(result.table())
    for note in result.notes:
        print(f"note: {note}")
    if args.json:
        path = write_json(result, args.json)
        print(f"wrote {path}")
    return 0


def _run_report(args: argparse.Namespace) -> int:
    output = Path(args.output)
    quick = args.quick
    results = []
    plans = {
        "table1": {"ns": (256, 512, 1024), "repetitions": 2} if quick else {},
        "forest": {"ns": (256, 512, 1024, 2048), "repetitions": 3} if quick else {},
        "gossip-max": {"ns": (256, 1024), "repetitions": 3} if quick else {},
        "gossip-ave": {"ns": (256, 1024), "repetitions": 2} if quick else {},
        "end-to-end": {"ns": (256,), "repetitions": 2} if quick else {},
        "local-drr": {"ns": (256, 1024), "repetitions": 2} if quick else {},
        "chord": {"ns": (128, 256), "repetitions": 2} if quick else {},
        "lower-bound": {"ns": (128, 256, 512), "repetitions": 2} if quick else {},
        "phase-breakdown": {"ns": (256, 1024), "repetitions": 2} if quick else {},
        "ablation": {"n": 1024, "repetitions": 2} if quick else {},
    }
    for name, kwargs in plans.items():
        print(f"running {name} ...", flush=True)
        result = EXPERIMENTS[name](seed=args.seed, **kwargs)
        write_json(result, output / f"{result.experiment}.json")
        results.append(result)
    path = write_markdown_report(results, output / "report.md")
    print(f"wrote {path}")
    return 0


def _apply_backend(definition: SweepDefinition, backend: str) -> SweepDefinition:
    """Pin the substrate backend on every backend-aware plan of a sweep."""
    registry = load_builtin_experiments()
    plans = []
    for plan in definition.plans:
        spec = registry.get(plan.experiment)
        if "backend" in spec.param_names:
            plan = dataclasses.replace(plan, grid={**plan.grid, "backend": backend})
        plans.append(plan)
    return dataclasses.replace(definition, plans=tuple(plans))


def _run_sweep(args: argparse.Namespace) -> int:
    try:
        if args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        cells, name = _sweep_cells(args)
    except (KeyError, ValueError, TypeError, OSError) as exc:
        message = exc.args[0] if exc.args and isinstance(exc.args[0], str) else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    with ResultStore(args.store) as store:
        runner = SweepRunner(
            store,
            jobs=args.jobs,
            skip_completed=not args.no_skip,
            lease_s=args.lease,
            max_attempts=args.max_attempts,
            progress=print_progress,
        )
        if args.enqueue_only:
            skipped, queued, enqueued = runner.enqueue(cells)
            depth = store.queue_depth()
        else:
            report = runner.run_cells(cells, name=name)
    if args.enqueue_only:
        duplicates = len(cells) - len(skipped) - len(queued)
        print(
            f"sweep {name!r}: enqueued {enqueued} of {len(cells)} cell(s) "
            f"({len(skipped)} already completed, {duplicates} duplicate specs)"
        )
        print(
            f"queue: {depth['pending']} pending, {depth['claimed']} claimed, "
            f"{depth['done']} done, {depth['failed']} failed"
        )
        print(f"drain with: drr-gossip worker --store {args.store}")
        return 0
    print(report.summary())
    print(f"store: {args.store}")
    return 0 if report.failed == 0 else 1


def _sweep_cells(args: argparse.Namespace) -> tuple[list, str]:
    """The sweep's cells and name, from ``--spec``, ``--config`` or the flags."""
    if args.spec:
        if args.config or args.experiments or args.ns or args.seed is not None:
            raise ValueError(
                "--spec cannot be combined with --config/--experiments/--ns/--seed; "
                "each run spec carries its own seed (--reps derives extra seeds from it)"
            )
        specs = load_specs(args.spec)
        if args.backend is not None:
            specs = [spec.with_backend(args.backend) for spec in specs]
        cells = cells_from_run_specs(specs, repetitions=args.reps if args.reps is not None else 1)
        return cells, Path(args.spec).stem
    if args.config:
        if args.experiments or args.ns:
            raise ValueError(
                "--config cannot be combined with --experiments/--ns; "
                "put the grid in the sweep file (--seed/--reps do override it)"
            )
        definition = load_sweep(args.config)
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.reps is not None:
            # --reps wins over BOTH the sweep-level default and any
            # per-experiment repetitions in the file.
            overrides["repetitions"] = args.reps
            overrides["plans"] = tuple(
                dataclasses.replace(plan, repetitions=None) for plan in definition.plans
            )
        if overrides:
            definition = dataclasses.replace(definition, **overrides)
    else:
        names = args.experiments or [spec.name for spec in load_builtin_experiments()]
        grid = {"ns": tuple(args.ns)} if args.ns else {}
        definition = SweepDefinition.from_experiments(
            names,
            grid=grid,
            seed=args.seed if args.seed is not None else 1,
            repetitions=args.reps if args.reps is not None else 1,
        )
    if args.backend is not None:
        definition = _apply_backend(definition, args.backend)
    return expand_cells(definition), definition.name  # validates names and grids up front


def _run_worker(args: argparse.Namespace) -> int:
    if args.store != ":memory:" and not Path(args.store).exists():
        print(
            f"no result store at {args.store} "
            "(enqueue cells with `drr-gossip sweep --enqueue-only` first)",
            file=sys.stderr,
        )
        return 1
    want_telemetry = args.telemetry is not None
    tel = Telemetry() if want_telemetry else None
    try:
        with ResultStore(args.store) as store:
            worker = QueueWorker(
                store,
                worker_id=args.worker_id,
                lease_s=args.lease,
                max_attempts=args.max_attempts,
                poll_interval_s=args.poll,
                heartbeat_interval_s=args.heartbeat,
                linger_s=args.linger,
                max_cells=args.max_cells,
                skip_completed=not args.no_skip,
                telemetry=tel,
                progress=print_worker_progress,
            )
            # SIGTERM/SIGINT mid-cell releases the claim (back to pending,
            # lease cleared) and ends the drain with report.stopped set.
            with signal_shutdown():
                report = worker.drain()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    if report.stopped:
        print(f"stopped by {report.stopped}: in-flight claim released back to pending")
    if want_telemetry and tel is not None:
        doc = tel.as_dict()
        print(format_telemetry(doc))
        _export_events(doc, args.telemetry, append=False)
    return 0 if report.failed == 0 and report.exhausted == 0 else 1


def _run_serve(args: argparse.Namespace) -> int:
    from ..service import ServiceServer, WorkerPool

    if args.workers < 0:
        print(f"error: --workers must be >= 0, got {args.workers}", file=sys.stderr)
        return 2
    want_telemetry = args.telemetry is not None
    tel = Telemetry() if want_telemetry else None
    try:
        server = ServiceServer(args.store, host=args.host, port=args.port, telemetry=tel)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    pool = None
    if args.workers:
        pool = WorkerPool(
            args.store,
            args.workers,
            lease_s=args.lease,
            max_attempts=args.max_attempts,
            poll_s=args.poll,
            heartbeat_s=args.heartbeat,
        )
    print(f"serving {args.store} at {server.url}", flush=True)
    print(
        f"workers: {args.workers} local"
        + ("" if args.workers else f" (add some: drr-gossip worker --store {args.store} --linger inf)"),
        flush=True,
    )
    stopped = ""
    try:
        if pool is not None:
            pool.start()
        # The same SIGTERM/SIGINT-to-exception bridge the workers use; here
        # it just breaks serve_forever so shutdown runs.
        with signal_shutdown():
            server.serve_forever()
    except BaseException as exc:  # WorkerShutdown / KeyboardInterrupt
        if isinstance(exc, (SystemExit,)):
            raise
        stopped = getattr(exc, "signal_name", type(exc).__name__)
    finally:
        if pool is not None:
            pool.stop()
        server.shutdown()
    print(f"service stopped ({stopped or 'shutdown'})")
    if want_telemetry and tel is not None:
        doc = tel.as_dict()
        print(format_telemetry(doc))
        _export_events(doc, args.telemetry, append=False)
    return 0


def _print_queue_view(store: ResultStore, experiment: str | None, stale_after: float) -> None:
    counts = store.queue_counts(experiment)
    if not counts:
        print("queue: empty (enqueue cells with `drr-gossip sweep --enqueue-only`)")
        return
    print(f"{'experiment':<20} {'pending':>8} {'claimed':>8} {'done':>6} {'failed':>6}")
    for row in counts:
        print(
            f"{row['experiment']:<20} {row['pending']:>8} {row['claimed']:>8} "
            f"{row['done']:>6} {row['failed']:>6}"
        )
    stale = store.claims(experiment, older_than_s=stale_after)
    if stale:
        print(f"\nstale claims (no lease renewal for > {stale_after:.0f}s; workers reclaim these):")
        print(f"{'experiment':<20} {'param_hash':<14} {'seed':>5} {'attempt':>7} {'age':>8}  owner")
        for row in stale:
            print(
                f"{row['experiment']:<20} {row['param_hash'][:12]:<14} {row['seed']:>5} "
                f"{row['attempt']:>7} {row['age_s']:>7.1f}s  {row['owner'] or '-'}"
            )


def _validate_one_spec_file(path: Path) -> str:
    """Validate one file (parsed once); returns a human summary line or raises.

    A document with sweep-shaped top-level keys validates as a sweep
    definition (grids expanded against the experiment registry); anything
    else must be a RunSpec document.
    """
    data = read_spec_document(path)
    if isinstance(data, dict) and ({"sweep", "experiment", "experiments"} & set(data)):
        definition = SweepDefinition.from_dict(data, name=path.stem)
        cells = expand_cells(definition)
        return f"{path}: ok (sweep {definition.name!r}, {len(cells)} cells)"
    specs = parse_spec_document(data, str(path))
    protocols = ", ".join(sorted({spec.protocol for spec in specs}))
    return f"{path}: ok ({len(specs)} run spec(s): {protocols})"


def _run_spec_tools(args: argparse.Namespace) -> int:
    failures = 0
    for name in args.files:
        path = Path(name)
        try:
            if args.spec_command == "validate":
                print(_validate_one_spec_file(path))
                continue
            # show: print each spec's canonical JSON + identity hashes
            for spec in load_specs(path):
                print(f"# {path} — {spec.describe()}")
                print(f"# spec_hash={spec.spec_hash()} param_hash={spec.param_hash()}")
                print(spec.to_json(indent=2))
        except (SpecValidationError, KeyError, ValueError, TypeError, OSError) as exc:
            message = exc.args[0] if exc.args and isinstance(exc.args[0], str) else str(exc)
            prefix = "" if message.startswith(str(path)) else f"{path}: "
            print(f"error: {prefix}{message}", file=sys.stderr)
            failures += 1
    if failures:
        print(f"{failures} of {len(args.files)} file(s) failed validation", file=sys.stderr)
    return 0 if failures == 0 else 1


def _run_plot(args: argparse.Namespace) -> int:
    from .plotting import PlottingUnavailableError, render_plots

    if not Path(args.store).exists():
        print(f"no result store at {args.store} (run `drr-gossip sweep` first)", file=sys.stderr)
        return 1
    with ResultStore(args.store) as store:
        try:
            written = render_plots(store, args.output, experiment=args.experiment, fmt=args.fmt)
        except PlottingUnavailableError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if not written:
        print("no completed rows to plot (check --experiment / run a sweep first)", file=sys.stderr)
        return 1
    for path in written:
        print(f"wrote {path}")
    return 0


def _run_results(args: argparse.Namespace) -> int:
    if args.bench:
        from .benchlog import (
            DEFAULT_BENCH_FILE,
            filter_bench_rows,
            format_bench_table,
            load_bench_rows,
        )

        bench_path = Path(args.bench_file) if args.bench_file else Path(DEFAULT_BENCH_FILE)
        try:
            rows = load_bench_rows(bench_path)
            if rows:
                rows = filter_bench_rows(
                    rows, bench_name=args.bench_name, since_sha=args.since
                )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if not rows:
            print(
                f"no benchmark rows at {bench_path} "
                "(run `python benchmarks/bench_substrate.py` to record some; "
                "--bench-name/--since narrow the table)",
            )
            return 0
        print(format_bench_table(rows))
        if args.plot:
            from .plotting import PlottingUnavailableError, render_bench_plots

            try:
                written = render_bench_plots(rows, args.plot_output)
            except PlottingUnavailableError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            if not written:
                print("no plottable bench rows (need wall_s values)", file=sys.stderr)
                return 1
            for path in written:
                print(f"wrote {path}")
        return 0
    if args.plot:
        print("error: --plot requires --bench (the store path is `drr-gossip plot`)", file=sys.stderr)
        return 2
    if args.bench_name is not None or args.since is not None:
        print("error: --bench-name/--since require --bench", file=sys.stderr)
        return 2
    if not Path(args.store).exists():
        print(f"no result store at {args.store} (run `drr-gossip sweep` first)", file=sys.stderr)
        return 1
    if args.queue:
        with ResultStore(args.store) as store:
            _print_queue_view(store, args.experiment, args.stale_after)
        return 0
    with ResultStore(args.store) as store:
        summary = store.summary()
        if args.experiment is not None:
            summary = [row for row in summary if row["experiment"] == args.experiment]
        print(f"{'experiment':<20} {'backend':<11} {'completed':>9} {'failed':>6} {'runtime':>9}")
        for row in summary:
            print(
                f"{row['experiment']:<20} {row.get('backend') or '-':<11} "
                f"{row['completed'] or 0:>9} "
                f"{row['failed'] or 0:>6} {row['total_duration_s'] or 0.0:>8.1f}s"
            )
        if args.failed:
            for run in store.query(experiment=args.experiment, status="failed"):
                print(f"\nFAILED {run.experiment} params={run.params} seed={run.seed}")
                print(run.error)
        if args.telemetry:
            shown = 0
            for run in store.query(experiment=args.experiment, status="ok"):
                if run.telemetry is None:
                    continue
                shown += 1
                print(f"\n{run.experiment} params={run.params} seed={run.seed}")
                print(format_telemetry(run.telemetry))
            if not shown:
                print("\n(no stored rows carry telemetry; sweep specs with telemetry=true record it)")
            claims = store.claims(args.experiment)
            if claims:
                print(f"\n{'experiment':<20} {'param_hash':<14} {'seed':>5} {'age':>8}  worker")
                for claim in claims:
                    print(
                        f"{claim['experiment']:<20} {claim['param_hash'][:12]:<14} "
                        f"{claim['seed']:>5} {claim['age_s']:>7.1f}s  {claim['owner'] or '-'}"
                    )
        if args.json:
            path = store.export_json(args.json, args.experiment)
            print(f"wrote {path}")
        if args.markdown:
            path = write_markdown_report_from_store(store, args.markdown, experiment=args.experiment)
            print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.verbose - args.quiet)
    if args.command == "run":
        return _run_single(args)
    if args.command == "report":
        return _run_report(args)
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "worker":
        return _run_worker(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "spec":
        return _run_spec_tools(args)
    if args.command == "plot":
        return _run_plot(args)
    if args.command == "results":
        return _run_results(args)
    if args.command in EXPERIMENTS:
        return _run_experiment(args.command, args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
