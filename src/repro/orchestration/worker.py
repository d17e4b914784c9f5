"""Pull-based queue worker: claim cells from a shared store, run, write back.

Every sweep drains the store's queue table through this loop: the sweep
runner works it in-process (``--jobs 1``) or from child processes
(``--jobs N``), and ``drr-gossip worker --store PATH`` runs it on any host
that shares the store (fed by ``drr-gossip sweep --enqueue-only``).  One
:meth:`QueueWorker.step` is:

1. **reclaim** stale claims (a dead worker's lease expired) back to
   pending, and mark cells that exhausted their attempt budget as failed;
2. **claim** the oldest pending cell atomically (exactly one worker wins);
3. **cache check**: if the cell's result is already in the store
   (a re-submitted identical spec), finish it without executing;
4. **execute** the cell's serialised spec with :func:`_execute_cell`,
   renewing the claim's lease (``queue.heartbeat_at``) from a side thread
   so long cells keep it;
5. **write back** the result/failure row and move the queue row to its
   terminal state.

:meth:`QueueWorker.drain` repeats the step until the queue is drained — no
pending *and* no claimed rows — or, with ``linger_s``, until it has stayed
drained that long (so operators can start workers before submitting work).
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import signal
import socket
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

from ..observability.logs import get_logger
from ..observability.telemetry import NULL_TELEMETRY, NullTelemetry
from .registry import load_builtin_experiments
from .store import QueuedCell, ResultStore, cell_spec_hash

_logger = get_logger("orchestration.worker")

__all__ = [
    "BACKOFF_CAP_FACTOR",
    "DEFAULT_LEASE_S",
    "DEFAULT_MAX_ATTEMPTS",
    "QueueWorker",
    "WorkerReport",
    "WorkerShutdown",
    "default_worker_id",
    "print_worker_progress",
    "row_identity",
    "signal_shutdown",
]

#: seconds without a lease renewal after which a claim counts as stale
DEFAULT_LEASE_S = 60.0

#: claims per cell before it is marked failed instead of reclaimed again
DEFAULT_MAX_ATTEMPTS = 3

#: idle backoff ceiling as a multiple of ``poll_interval_s``
BACKOFF_CAP_FACTOR = 8.0

#: largest estimate vector persisted inside a stored RunResult envelope;
#: beyond this the vector is dropped (marked ``estimates_omitted``) so a
#: single n=10^8 cell cannot bloat the store or the service's responses
MAX_ENVELOPE_ESTIMATES = 65536


def _execute_cell(spec_json: str) -> dict[str, Any]:
    """Run one serialised cell; never raises (crashes become a failure payload).

    The single string argument is the whole contract between the queue
    and a worker: a ``{"protocol": ...}`` document dispatches through
    :func:`repro.run`, a ``{"experiment": ...}`` document resolves the
    registered driver by name (parameters re-validated through the
    registry schema, which restores tuples/enums the JSON transport
    flattened).
    """
    start = time.perf_counter()
    try:
        payload = json.loads(spec_json)
        telemetry_doc = None
        envelope_doc = None
        if "protocol" in payload:
            from ..api import RunSpec
            from ..api import run as run_spec_fn

            envelope = run_spec_fn(RunSpec.from_dict(payload))
            result = envelope.to_experiment_result()
            telemetry_doc = envelope.telemetry
            # The full RunResult document is carried back alongside the
            # store-row projection so it can be persisted verbatim — the
            # content-addressed cache the simulation service serves from.
            envelope_doc = envelope.to_dict()
            estimates = envelope_doc.get("estimates")
            if estimates is not None and len(estimates) > MAX_ENVELOPE_ESTIMATES:
                envelope_doc["estimates"] = None
                envelope_doc["estimates_omitted"] = len(estimates)
        else:
            spec = load_builtin_experiments().get(payload["experiment"])
            params = spec.validate_params(payload.get("params", {}))
            result = spec.driver(seed=int(payload["seed"]), **params)
        out = {"ok": True, "result": result, "duration_s": time.perf_counter() - start}
        if telemetry_doc is not None:
            out["telemetry"] = telemetry_doc
        if envelope_doc is not None:
            out["envelope"] = envelope_doc
        return out
    except Exception:  # KeyboardInterrupt/SystemExit propagate: a sweep must stay interruptible
        return {
            "ok": False,
            "error": traceback.format_exc(),
            "duration_s": time.perf_counter() - start,
        }


def default_worker_id() -> str:
    """``host:pid`` — unique across the hosts sharing a store."""
    return f"{socket.gethostname()}:{os.getpid()}"


class WorkerShutdown(BaseException):
    """Raised inside the drain loop when the process is told to stop.

    Deliberately a ``BaseException`` (like ``KeyboardInterrupt``) so it
    sails through the worker's per-cell ``except Exception`` error
    handling and lands in the claim-requeue path: the in-flight cell goes
    back to ``pending`` with its lease cleared, and another worker can
    pick it up immediately instead of waiting out the lease.
    """

    def __init__(self, signum: int) -> None:
        super().__init__(signum)
        self.signum = int(signum)

    @property
    def signal_name(self) -> str:
        try:
            return signal.Signals(self.signum).name
        except ValueError:  # pragma: no cover - unknown signal number
            return f"signal {self.signum}"


@contextlib.contextmanager
def signal_shutdown(signals: tuple[int, ...] = (signal.SIGTERM, signal.SIGINT)) -> Iterator[None]:
    """Convert SIGTERM/SIGINT into :class:`WorkerShutdown` while active.

    Installed by the ``drr-gossip worker`` CLI (and the serve-spawned
    pool) around :meth:`QueueWorker.drain` so a terminated worker
    releases its claim instead of dying mid-cell.  Only the main thread
    of a process may install signal handlers, so library callers that
    embed :class:`QueueWorker` elsewhere simply don't use this.
    """

    def raise_shutdown(signum: int, frame: object) -> None:
        raise WorkerShutdown(signum)

    previous = {s: signal.signal(s, raise_shutdown) for s in signals}
    try:
        yield
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)


def row_identity(spec_json: str) -> tuple[str, dict[str, Any], int]:
    """Decode a cell's transport form into its store-row identity.

    Returns ``(experiment, params, seed)`` such that
    ``param_hash(params)`` reproduces the hash the cell was queued under
    — the exact inverse of how ``SweepCell``/``cells_from_run_specs``
    built the spec string, so every worker's result rows for one cell
    collide (upsert) rather than duplicate.
    """
    payload = json.loads(spec_json)
    if "protocol" in payload:
        params = {k: v for k, v in payload.items() if k not in ("seed", "telemetry")}
        return f"run:{payload['protocol']}", params, int(payload["seed"])
    return str(payload["experiment"]), dict(payload.get("params", {})), int(payload["seed"])


@dataclass
class WorkerReport:
    """What one drain loop did: cells executed/failed/served from cache."""

    worker: str
    executed: int = 0
    failed: int = 0
    #: claims finished from an already-stored result without executing
    cached: int = 0
    #: stale claims returned to pending by this worker's reclaim passes
    reclaimed: int = 0
    #: cells marked failed because their attempt budget ran out
    exhausted: int = 0
    wall_s: float = 0.0
    #: name of the signal that stopped the drain early (graceful
    #: shutdown); None when the loop ran to a natural drain
    stopped: str | None = None

    @property
    def cells(self) -> int:
        return self.executed + self.failed + self.cached

    def summary(self) -> str:
        extra = f", {self.exhausted} gave up" if self.exhausted else ""
        if self.stopped:
            extra += f", stopped by {self.stopped}"
        return (
            f"worker {self.worker}: {self.executed} executed, {self.failed} failed, "
            f"{self.cached} cached{extra} ({self.wall_s:.1f}s)"
        )


class _LeaseHeartbeat:
    """Daemon thread renewing one claim's lease on its own connection.

    The worker executes cells in its own thread, so lease renewal must
    come from another; SQLite connections are not shared across threads,
    so the thread opens its own, at the first renewal (a cell shorter than
    the interval never opens one).  It stops renewing once the claim is no
    longer this worker's.  In-memory stores get no thread — a second
    connection would see a different database — which is fine: they
    cannot be shared across processes anyway.
    """

    def __init__(self, store_path: str, key: tuple[str, str, int], worker: str, interval_s: float) -> None:
        self._path = store_path
        self._key = key
        self._worker = worker
        self._interval = float(interval_s)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _run(self) -> None:
        store: ResultStore | None = None
        try:
            while not self._stop.wait(self._interval):
                if store is None:
                    store = ResultStore(self._path)
                if not store.renew_lease(self._key, self._worker):
                    _logger.warning(
                        "worker %s lost its claim on %s; lease no longer renewed",
                        self._worker, self._key,
                    )
                    return
        finally:
            if store is not None:
                store.close()

    def __enter__(self) -> "_LeaseHeartbeat":
        if self._path != ":memory:":
            self._thread = threading.Thread(
                target=self._run, name="repro-lease-heartbeat", daemon=True
            )
            self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self._interval + 5.0)
            self._thread = None


class QueueWorker:
    """Drain a store's work queue: claim, execute, write back, repeat."""

    def __init__(
        self,
        store: ResultStore,
        *,
        worker_id: str | None = None,
        lease_s: float = DEFAULT_LEASE_S,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        poll_interval_s: float = 0.5,
        heartbeat_interval_s: float = 15.0,
        linger_s: float = 0.0,
        max_cells: int | None = None,
        skip_completed: bool = True,
        telemetry: NullTelemetry | None = None,
        progress: Callable[[QueuedCell, str, float], None] | None = None,
    ) -> None:
        if lease_s <= 0:
            raise ValueError(f"lease_s must be positive, got {lease_s}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if poll_interval_s <= 0:
            raise ValueError(f"poll_interval_s must be positive, got {poll_interval_s}")
        if heartbeat_interval_s <= 0:
            raise ValueError(f"heartbeat_interval_s must be positive, got {heartbeat_interval_s}")
        if linger_s < 0:
            raise ValueError(f"linger_s must be >= 0, got {linger_s}")
        if max_cells is not None and max_cells < 1:
            raise ValueError(f"max_cells must be >= 1, got {max_cells}")
        self.store = store
        self.worker_id = worker_id if worker_id is not None else default_worker_id()
        self.lease_s = float(lease_s)
        self.max_attempts = int(max_attempts)
        self.poll_interval_s = float(poll_interval_s)
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.linger_s = float(linger_s)
        self.max_cells = max_cells
        self.skip_completed = skip_completed
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.progress = progress
        # Idle-poll jitter only — never touches run reproducibility, which
        # is carried entirely by the specs' own seeds.
        self._jitter = random.Random()

    def idle_backoff_s(self, empty_polls: int) -> float:
        """Sleep duration after the ``empty_polls``-th consecutive empty poll.

        Exponential with full jitter: the target doubles from
        ``poll_interval_s`` up to ``BACKOFF_CAP_FACTOR`` times it, and the
        actual sleep is drawn uniformly from ``[target / 2, target]`` so a
        fleet of idle workers sharing one store spreads its polls out
        instead of hammering the SQLite file in lockstep.  A successful
        claim resets the ladder to the base interval.
        """
        cap = self.poll_interval_s * BACKOFF_CAP_FACTOR
        target = min(self.poll_interval_s * (2.0 ** max(0, empty_polls)), cap)
        return target * (0.5 + 0.5 * self._jitter.random())

    def drain(self) -> WorkerReport:
        """Repeat :meth:`step` until the queue drains (plus ``linger_s``); returns the tally.

        A :class:`WorkerShutdown` raised into the loop (SIGTERM/SIGINT
        under :func:`signal_shutdown`) ends it gracefully: the in-flight
        claim — if any — was already requeued by :meth:`step`, and the
        report comes back with ``stopped`` set instead of the exception
        propagating.
        """
        report = WorkerReport(worker=self.worker_id)
        start = time.perf_counter()
        drained_since: float | None = None
        empty_polls = 0
        try:
            while self.max_cells is None or report.cells < self.max_cells:
                depth = self.step(report)
                if depth is None:
                    drained_since = None
                    empty_polls = 0
                    continue
                # Nothing pending.  Claimed rows owned by others may still
                # fail and come back via reclaim, so wait on those; a fully
                # drained queue ends the loop once any linger grace is up.
                if depth["pending"] == 0 and depth["claimed"] == 0:
                    now = time.perf_counter()
                    if drained_since is None:
                        drained_since = now
                    if now - drained_since >= self.linger_s:
                        break
                time.sleep(self.idle_backoff_s(empty_polls))
                empty_polls += 1
        except WorkerShutdown as shutdown:
            report.stopped = shutdown.signal_name
            _logger.info(
                "worker %s: %s received, claim released, stopping",
                self.worker_id, shutdown.signal_name,
            )
        report.wall_s = time.perf_counter() - start
        _logger.info("%s", report.summary())
        return report

    def step(self, report: WorkerReport) -> dict[str, int] | None:
        """One claim → execute → write-back pass over the queue.

        Reclaims stale claims and fails exhausted cells first, then claims
        the oldest pending cell and takes it to its recorded row.  Returns
        None when a cell was handled, or the queue depth when none was
        pending, so callers can tell a drained queue from one whose
        remaining cells other workers hold.  An interruption
        (``BaseException``) after the claim hands the claim back to
        pending before it propagates.
        """
        telemetry = self.telemetry
        report.reclaimed += len(self.store.reclaim_stale(self.lease_s))
        for cell in self.store.fail_exhausted(self.max_attempts):
            self._record_exhausted(cell, report)
        with telemetry.span("worker.claim"):
            claim = self.store.claim_cell(self.worker_id)
        try:
            depth = self.store.queue_depth()
            telemetry.gauge_max("queue.pending", depth["pending"])
            telemetry.gauge_max("queue.claimed", depth["claimed"])
            if claim is None:
                return depth
            self._run_claim(claim, report)
        except BaseException:
            if claim is not None:
                self.store.requeue_cell(claim.key)
            raise
        return None

    def _record_exhausted(self, cell: QueuedCell, report: WorkerReport) -> None:
        experiment, params, seed = row_identity(cell.spec_json)
        error = (
            f"gave up after {cell.attempt} claim(s) without a recorded result "
            f"(max_attempts={self.max_attempts}; the cell likely kills its worker)"
        )
        self.store.record_failure(experiment, params, seed, error, spec_json=cell.spec_json)
        report.exhausted += 1
        self._emit(cell, "exhausted", 0.0)

    def _run_claim(self, claim: QueuedCell, report: WorkerReport) -> None:
        telemetry = self.telemetry
        if self.skip_completed:
            spec_hash = claim.spec_hash or cell_spec_hash(claim.spec_json)
            cached = self.store.get_by_spec_hash(spec_hash)
            if cached is not None and cached.ok:
                # Content-addressed dedup: an identical spec was already
                # computed (this sweep or an earlier one) — serve the cached
                # result instead of burning the cycles again.
                self.store.finish_cell(claim.key, "done")
                telemetry.count("worker.cached")
                report.cached += 1
                self._emit(claim, "cached", 0.0)
                return
        with _LeaseHeartbeat(
            str(self.store.path), claim.key, self.worker_id, self.heartbeat_interval_s
        ):
            with telemetry.span("worker.execute"):
                payload = _execute_cell(claim.spec_json)
        self._write_back(claim, payload, report)

    def _write_back(self, claim: QueuedCell, payload: Mapping[str, Any], report: WorkerReport) -> None:
        experiment, params, seed = row_identity(claim.spec_json)
        duration = float(payload.get("duration_s", 0.0))
        with self.telemetry.span("worker.write"):
            if payload["ok"]:
                doc = payload.get("telemetry")
                envelope = payload.get("envelope")
                self.store.record_result(
                    experiment, params, seed, payload["result"], duration,
                    spec_json=claim.spec_json,
                    telemetry_json=json.dumps(doc, sort_keys=True) if doc is not None else None,
                    result_json=json.dumps(envelope, sort_keys=True) if envelope is not None else None,
                )
                self.store.finish_cell(claim.key, "done")
            else:
                _logger.warning(
                    "cell %s (hash=%s seed=%d) failed:\n%s",
                    experiment, claim.param_hash[:12], seed, payload["error"],
                )
                self.store.record_failure(
                    experiment, params, seed, payload["error"], duration,
                    spec_json=claim.spec_json,
                )
                self.store.finish_cell(claim.key, "failed")
        self.telemetry.count("worker.cells")
        if payload["ok"]:
            report.executed += 1
            self._emit(claim, "ok", duration)
        else:
            report.failed += 1
            self._emit(claim, "failed", duration)

    def _emit(self, cell: QueuedCell, status: str, duration_s: float) -> None:
        if self.progress is not None:
            self.progress(cell, status, duration_s)


def print_worker_progress(cell: QueuedCell, status: str, duration_s: float) -> None:
    """Default per-claim progress line for the ``drr-gossip worker`` CLI."""
    suffix = "cached" if status == "cached" else f"{duration_s:.2f}s"
    print(
        f"{status:<9} {cell.experiment} hash={cell.param_hash[:12]} "
        f"seed={cell.seed} attempt={cell.attempt} ({suffix})",
        flush=True,
    )
