"""Sweep execution: expand a sweep into cells, queue them, drain the queue.

The runner expands a :class:`~repro.orchestration.config.SweepDefinition`
into independent cells — one ``(experiment, params, seed)`` triple per grid
point and repetition — enqueues them in the result store's work queue and
drains it with the queue worker (:mod:`~repro.orchestration.worker`), in
this process or in ``jobs`` child processes.  Design invariants:

* **Determinism.** Every cell's seed is derived in the parent from the
  sweep's master seed via the existing :class:`~repro.simulator.rng.RngStream`
  (``derive_seed`` under the hood), keyed on the experiment name, the
  canonical parameter hash, and the repetition index.  A cell's output is a
  pure function of its seed and parameters, so ``--jobs 1`` and ``--jobs 4``
  produce bit-identical stores.
* **Isolation.** A crashed cell records a ``failed`` row (with traceback)
  in the store instead of killing the sweep; failed cells are retried on
  the next invocation.  A cell that kills its worker process is handed
  back and retried, up to ``max_attempts`` claims.
* **Resume.** With ``skip_completed`` (the default), cells whose key
  already has a successful row in the store are skipped without executing,
  so re-running a finished sweep executes zero cells.

Workers receive every cell as one *serialised spec string* — either an
experiment cell (``{"experiment", "params", "seed"}``) resolved by name
through the default registry, or a protocol :class:`~repro.api.RunSpec`
document executed through :func:`repro.run`.  Nothing but that string
crosses the queue, so ``drr-gossip worker`` processes on any host sharing
the store can drain a sweep's cells alongside the runner's own.

Identical cells are *content-addressed*: cells whose spec hashes are
equal collapse onto one queue row and execution, and the duplicates are
reported as ``cached``; a claim additionally checks the store for an
already-recorded result before executing, so re-submitted specs are
served from cache across sweeps too.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Mapping, Sequence

from ..observability.logs import get_logger
from ..simulator.rng import RngStream, derive_seed
from .config import SweepDefinition
from .registry import ExperimentRegistry, load_builtin_experiments
from .store import ResultStore, cell_spec_hash, cell_spec_json, param_hash
from .worker import (
    DEFAULT_LEASE_S,
    DEFAULT_MAX_ATTEMPTS,
    QueueWorker,
    WorkerReport,
    default_worker_id,
)

_logger = get_logger("orchestration.runner")

__all__ = [
    "SweepCell",
    "CellOutcome",
    "SweepReport",
    "SweepRunner",
    "expand_cells",
    "cells_from_run_specs",
]


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of sweep work."""

    experiment: str
    params: Mapping[str, Any]
    param_hash: str
    seed: int
    rep: int
    #: canonical serialised RunSpec when this cell is a protocol-spec cell
    #: (``drr-gossip sweep --spec``); None for registered-experiment cells.
    run_spec: str | None = None

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.experiment, self.param_hash, self.seed)

    def spec_json(self) -> str:
        """The cell's transport form: one self-contained serialised spec."""
        if self.run_spec is not None:
            return self.run_spec
        return cell_spec_json(self.experiment, self.params, self.seed)

    def describe(self) -> str:
        binding = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.experiment}({binding}) seed={self.seed}"


@dataclass(frozen=True)
class CellOutcome:
    """What happened to one cell.

    ``cached`` marks a duplicate of an executed cell (identical
    serialised spec) whose result was fanned out instead of recomputed;
    ``skipped`` marks a cell whose result predates this invocation.
    """

    cell: SweepCell
    status: str  # 'ok' | 'failed' | 'skipped' | 'cached'
    duration_s: float = 0.0
    error: str | None = None


@dataclass
class SweepReport:
    """Aggregate outcome of one :meth:`SweepRunner.run` invocation."""

    sweep: str
    outcomes: list[CellOutcome] = field(default_factory=list)

    def count(self, status: str) -> int:
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def executed(self) -> int:
        return self.count("ok")

    @property
    def failed(self) -> int:
        return self.count("failed")

    @property
    def skipped(self) -> int:
        return self.count("skipped")

    @property
    def cached(self) -> int:
        return self.count("cached")

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def wall_time_s(self) -> float:
        return sum(o.duration_s for o in self.outcomes)

    def summary(self) -> str:
        extra = f", {self.cached} cached" if self.cached else ""
        return (
            f"sweep {self.sweep!r}: {self.total} cells — "
            f"{self.executed} executed, {self.skipped} skipped, {self.failed} failed{extra} "
            f"({self.wall_time_s:.1f}s cell time)"
        )


def expand_cells(
    definition: SweepDefinition,
    registry: ExperimentRegistry | None = None,
) -> list[SweepCell]:
    """Expand a sweep definition into its full, deterministic cell list.

    Cell seeds depend only on (master seed, experiment, param hash, rep), so
    adding an experiment to a sweep file never changes the seeds — and hence
    the stored results — of the existing ones.
    """
    registry = registry if registry is not None else load_builtin_experiments()
    stream = RngStream(definition.seed)
    cells: list[SweepCell] = []
    for plan in definition.plans:
        spec = registry.get(plan.experiment)
        reps = definition.repetitions_for(plan)
        for params in spec.expand_grid(plan.grid):
            # Pin the execution backend into every cell of a backend-aware
            # experiment so stored rows are never ambiguous about which
            # substrate kernel produced them (even when the sweep relied on
            # the default).
            if "backend" in spec.param_names and "backend" not in params:
                params = {**params, "backend": spec.param("backend").default}
            digest = param_hash(params)
            seeds = stream.seeds(reps, plan.experiment, digest)
            for rep, seed in enumerate(seeds):
                cells.append(
                    SweepCell(
                        experiment=plan.experiment,
                        params=params,
                        param_hash=digest,
                        seed=int(seed),
                        rep=rep,
                    )
                )
    return cells


def cells_from_run_specs(specs: Sequence, repetitions: int = 1) -> list[SweepCell]:
    """Expand protocol :class:`~repro.api.RunSpec` values into sweep cells.

    Each spec is one cell under the experiment name ``run:<protocol>``; with
    ``repetitions > 1`` the extra cells get deterministic seeds derived from
    the spec's own seed, so a spec file plus a repetition count expands the
    same way on every host.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    cells: list[SweepCell] = []
    for spec in specs:
        for rep in range(repetitions):
            cell_spec = spec if rep == 0 else spec.with_seed(derive_seed(spec.seed, "spec-rep", rep))
            # The telemetry toggle is excluded alongside the seed: the cell's
            # param_hash pops it, and the store re-digests these params as the
            # row identity — keeping them aligned is what makes a telemetry
            # re-run resume (skip) instead of duplicating every cell.
            params = {
                k: v for k, v in cell_spec.to_dict().items() if k not in ("seed", "telemetry")
            }
            cells.append(
                SweepCell(
                    experiment=f"run:{spec.protocol}",
                    params=params,
                    param_hash=cell_spec.param_hash(),
                    seed=cell_spec.seed,
                    rep=rep,
                    run_spec=cell_spec.canonical_json(),
                )
            )
    return cells


def _drain_pending(
    store_path: str, worker_id: str, options: dict[str, Any], events: Connection
) -> None:
    """Child-process body of a ``jobs > 1`` sweep.

    Runs the queue worker's claim → execute → write-back step until no
    cell is pending, sending the spec hash of every cell it finishes to
    the parent over ``events``.
    """
    with ResultStore(store_path) as store:
        worker = QueueWorker(
            store,
            worker_id=worker_id,
            progress=lambda cell, status, duration_s: events.send(cell.spec_hash),
            **options,
        )
        report = WorkerReport(worker=worker_id)
        while worker.step(report) is None:
            pass
    events.close()


class SweepRunner:
    """Queue a sweep's cells in the store, drain the queue, report every outcome.

    ``jobs == 1`` drains the queue in this process; ``jobs > 1`` runs that
    many child processes, each repeating the queue worker's claim →
    execute → write-back step until nothing is pending.  The parent
    supervises them: a child that dies mid-cell has its claim handed back
    at once (keeping the attempt count, so a cell that keeps killing its
    worker ends as a failure row after ``max_attempts`` claims) and fresh
    children start while cells are pending.  Any *additional* workers
    pointed at the same store (``drr-gossip worker`` on hosts sharing the
    filesystem) claim cells right alongside; their claims are waited out,
    and reclaimed once their lease goes stale.
    """

    def __init__(
        self,
        store: ResultStore,
        *,
        jobs: int = 1,
        skip_completed: bool = True,
        registry: ExperimentRegistry | None = None,
        progress: Callable[[CellOutcome, int, int], None] | None = None,
        heartbeat_interval_s: float = 15.0,
        lease_s: float = DEFAULT_LEASE_S,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if heartbeat_interval_s <= 0:
            raise ValueError(f"heartbeat_interval_s must be positive, got {heartbeat_interval_s}")
        if lease_s <= 0:
            raise ValueError(f"lease_s must be positive, got {lease_s}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.store = store
        self.jobs = jobs
        self.skip_completed = skip_completed
        self.registry = registry
        self.progress = progress
        #: how often an executing cell renews its claim's lease
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        #: seconds without a lease renewal before a claim is stale
        self.lease_s = float(lease_s)
        #: claims per cell before it is marked failed
        self.max_attempts = int(max_attempts)
        #: queued cells not yet reported, by spec hash; the first of each
        #: list was enqueued, the rest are content-identical twins
        self._waiting: dict[str, list[SweepCell]] = {}

    def run(self, definition: SweepDefinition) -> SweepReport:
        return self.run_cells(expand_cells(definition, self.registry), name=definition.name)

    def enqueue(self, cells: Sequence[SweepCell]) -> tuple[list[SweepCell], list[SweepCell], int]:
        """Queue the cells that still need a run; returns ``(skipped, queued, newly_pending)``.

        With ``skip_completed``, cells whose key already has a successful
        row are skipped.  Content-identical cells (equal spec hashes)
        collapse onto one queue row: ``queued`` holds one cell per row, and
        the twins are remembered for :meth:`run_cells` to report.
        """
        done_keys = self.store.completed_cells() if self.skip_completed else set()
        skipped: list[SweepCell] = []
        self._waiting = {}
        for cell in cells:
            if cell.key in done_keys:
                skipped.append(cell)
            else:
                self._waiting.setdefault(cell_spec_hash(cell.spec_json()), []).append(cell)
        queued = [group[0] for group in self._waiting.values()]
        pending = self.store.enqueue_cells(
            (cell.experiment, cell.param_hash, cell.seed, cell.spec_json()) for cell in queued
        ) if queued else 0
        return skipped, queued, pending

    def run_cells(self, cells: Sequence[SweepCell], name: str = "cells") -> SweepReport:
        """Execute an explicit cell list (sweep definitions and spec files both land here)."""
        if self.jobs > 1 and str(self.store.path) == ":memory:":
            raise ValueError(
                "jobs > 1 runs worker processes and needs a file-backed store, not ':memory:'"
            )
        report = SweepReport(sweep=name)
        total = len(cells)
        skipped, queued, _ = self.enqueue(cells)
        for cell in skipped:
            report.outcomes.append(CellOutcome(cell=cell, status="skipped"))
            self._emit(report.outcomes[-1], len(report.outcomes), total)
        if queued:
            if self.jobs > 1:
                self._drain_children(report, total)
            # Waits out claims other hosts hold (reclaiming stale ones) and
            # runs whatever is still pending in this process.
            QueueWorker(
                self.store,
                progress=lambda cell, status, duration_s: self._land(report, cell.spec_hash, total),
                **self._worker_options(),
            ).drain()
        # Cells some other worker ran, or that never ran at all.
        for spec_hash in list(self._waiting):
            self._land(report, spec_hash, total)
        return report

    def _worker_options(self) -> dict[str, Any]:
        return {
            "lease_s": self.lease_s,
            "max_attempts": self.max_attempts,
            "heartbeat_interval_s": self.heartbeat_interval_s,
            "skip_completed": self.skip_completed,
        }

    def _drain_children(self, report: SweepReport, total: int) -> None:
        """Run up to ``jobs`` child workers until none is left and nothing is pending."""
        # Load driver registrations before forking so children inherit them.
        load_builtin_experiments()
        children: dict[str, tuple[multiprocessing.Process, Connection]] = {}
        prefix = default_worker_id()
        started = 0
        spawn = True
        try:
            while True:
                pending = self.store.queue_depth()["pending"] if spawn else 0
                for _ in range(min(self.jobs - len(children), pending)):
                    owner = f"{prefix}:c{started}"
                    started += 1
                    reader, writer = multiprocessing.Pipe(duplex=False)
                    child = multiprocessing.Process(
                        target=_drain_pending,
                        args=(str(self.store.path), owner, self._worker_options(), writer),
                        name=owner,
                    )
                    child.start()
                    writer.close()
                    children[owner] = (child, reader)
                if not children:
                    return
                wait([child.sentinel for child, _ in children.values()]
                     + [reader for _, reader in children.values()])
                for owner, (child, reader) in list(children.items()):
                    try:
                        while reader.poll():
                            self._land(report, reader.recv(), total)
                    except EOFError:
                        child.join()  # its end of the pipe closed: it is exiting
                    if child.exitcode is None:
                        continue
                    reader.close()
                    del children[owner]
                    released = self._release_claims(owner)
                    if child.exitcode != 0:
                        _logger.warning(
                            "sweep worker %s exited with code %d; %d claim(s) handed back",
                            owner, child.exitcode, released,
                        )
                        if not released:
                            # It died without a cell to blame: starting more
                            # children could loop forever, so let this
                            # process run what is left.
                            spawn = False
        finally:
            for owner, (child, reader) in children.items():
                child.terminate()
                child.join()
                reader.close()
                self._release_claims(owner)

    def _release_claims(self, owner: str) -> int:
        """Hand a finished child's claims back to pending; returns how many."""
        held = [cell for cell in self.store.queue_cells("claimed") if cell.owner == owner]
        for cell in held:
            self.store.requeue_cell(cell.key)
        return len(held)

    def _land(self, report: SweepReport, spec_hash: str | None, total: int) -> None:
        """Report one queued cell (and its twins) from what the store recorded for it."""
        group = self._waiting.pop(spec_hash, None) if spec_hash is not None else None
        if group is None:
            return  # a cell of another sweep sharing the queue
        run = self.store.get_by_spec_hash(spec_hash)
        if run is None:
            error: str | None = (
                "cell never executed: the queue drain ended without a stored "
                "result (all workers died?); re-run the sweep to retry it"
            )
            duration = 0.0
        else:
            error = None if run.ok else (run.error or "unknown failure")
            duration = run.duration_s or 0.0
        status = "ok" if error is None else "failed"
        cell, twins = group[0], group[1:]
        report.outcomes.append(CellOutcome(cell=cell, status=status, duration_s=duration, error=error))
        self._emit(report.outcomes[-1], len(report.outcomes), total)
        # Content-identical twins share the row: same outcome, nothing re-run.
        for twin in twins:
            twin_status = "cached" if error is None else "failed"
            report.outcomes.append(CellOutcome(cell=twin, status=twin_status, error=error))
            self._emit(report.outcomes[-1], len(report.outcomes), total)

    def _emit(self, outcome: CellOutcome, index: int, total: int) -> None:
        if self.progress is not None:
            self.progress(outcome, index, total)


def print_progress(outcome: CellOutcome, index: int, total: int) -> None:
    """Default progress reporter: one line per finished/skipped cell."""
    suffixes = {"skipped": "already in store", "cached": "deduplicated"}
    suffix = suffixes.get(outcome.status, f"{outcome.duration_s:.2f}s")
    print(f"[{index}/{total}] {outcome.status:<7} {outcome.cell.describe()} ({suffix})", flush=True)
