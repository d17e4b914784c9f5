"""SQLite-backed persistence for experiment results and the sweep work queue.

Every sweep cell — one ``(experiment, canonical parameter hash, seed)``
triple — maps to exactly one row.  Rows, headers, and metadata of the
:class:`~repro.harness.experiments.ExperimentResult` are stored as JSON so
the store needs no schema migration when a driver adds a column; the
UNIQUE key gives the sweep runner its skip-completed resume semantics and
makes re-running a crashed cell an upsert rather than a duplicate.

The store is written concurrently: the sweep parent, its child workers,
any number of ``drr-gossip worker`` processes on hosts sharing the
filesystem, and the lease threads they run all hold their own
connections.  WAL mode plus a configurable ``busy_timeout`` make
concurrent writers queue instead of crash, every write retries on
``SQLITE_BUSY``, and the work-queue claim (:meth:`ResultStore.claim_cell`)
takes the write lock up front with ``BEGIN IMMEDIATE`` so a pending row is
handed to exactly one claimant.

Queue lifecycle
---------------
Every sweep runs through the ``queue`` table.  A queued cell is one row
keyed by the same identity the result rows use and moves through::

    pending --claim--> claimed --finish--> done | failed
       ^                  |
       +--reclaim/requeue-+          (attempt += 1 on every claim)

* **claim** is atomic: exactly one worker wins a pending row, and the row
  records ``owner``, ``claim_time`` and its lease stamp ``heartbeat_at``.
* **claimed** rows stay alive while their owner renews ``heartbeat_at``
  (:meth:`ResultStore.renew_lease`); a claim whose stamp is older than the
  lease is *stale* and goes back to pending (its worker died).
* **fail_exhausted** stops a poison cell that keeps killing its workers:
  once a pending row has been claimed ``max_attempts`` times without a
  recorded result, it is marked failed instead of looping forever.
"""

from __future__ import annotations

import json
import sqlite3
import time
import warnings
from dataclasses import dataclass, replace as dataclass_replace
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from ..observability.logs import get_logger
from ..serialization import canonical_json, canonical_value, stable_digest
from ..substrate import DEFAULT_BACKEND

__all__ = [
    "QUEUE_STATES",
    "QueuedCell",
    "ResultStore",
    "StoredRun",
    "canonical_params",
    "param_hash",
    "cell_spec_json",
    "cell_spec_hash",
]

#: default time a writer waits for a competing writer's transaction
DEFAULT_BUSY_TIMEOUT_S = 30.0

#: write retries layered on top of the busy timeout (each full wait)
_BUSY_RETRIES = 5

_logger = get_logger("orchestration.store")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    id             INTEGER PRIMARY KEY AUTOINCREMENT,
    experiment     TEXT NOT NULL,
    param_hash     TEXT NOT NULL,
    seed           INTEGER NOT NULL,
    status         TEXT NOT NULL CHECK (status IN ('ok', 'failed')),
    params         TEXT NOT NULL,
    backend        TEXT,
    spec_json      TEXT,
    spec_hash      TEXT,
    description    TEXT NOT NULL DEFAULT '',
    headers        TEXT NOT NULL DEFAULT '[]',
    rows           TEXT NOT NULL DEFAULT '[]',
    notes          TEXT NOT NULL DEFAULT '[]',
    error          TEXT,
    duration_s     REAL,
    telemetry_json TEXT,
    result_json    TEXT,
    heartbeat_at   TEXT,
    created_at     TEXT NOT NULL DEFAULT (datetime('now')),
    UNIQUE (experiment, param_hash, seed)
);
CREATE INDEX IF NOT EXISTS idx_runs_experiment ON runs (experiment, status);
CREATE TABLE IF NOT EXISTS queue (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    experiment  TEXT NOT NULL,
    param_hash  TEXT NOT NULL,
    seed        INTEGER NOT NULL,
    spec_json   TEXT NOT NULL,
    spec_hash   TEXT,
    state       TEXT NOT NULL DEFAULT 'pending'
                CHECK (state IN ('pending', 'claimed', 'done', 'failed')),
    owner       TEXT,
    claim_time  TEXT,
    heartbeat_at TEXT,
    attempt     INTEGER NOT NULL DEFAULT 0,
    enqueued_at TEXT NOT NULL DEFAULT (datetime('now')),
    UNIQUE (experiment, param_hash, seed)
);
CREATE INDEX IF NOT EXISTS idx_queue_state ON queue (state, id);
"""

#: created after the column migrations run: on a pre-service store the
#: spec_hash columns do not exist until the ALTERs in ``__init__`` add them
_SPEC_HASH_INDEXES = """
CREATE INDEX IF NOT EXISTS idx_runs_spec_hash ON runs (spec_hash);
CREATE INDEX IF NOT EXISTS idx_queue_spec_hash ON queue (spec_hash);
"""

#: SQL age (seconds) of a claimed queue row's lease: the time since its
#: claim or its owner's last renewal
_CLAIM_AGE_SQL = "(julianday('now') - julianday(heartbeat_at)) * 86400.0"

#: the four states a queue row moves through
QUEUE_STATES = ("pending", "claimed", "done", "failed")


def _json_default(value: Any) -> Any:
    """Make NumPy scalars/arrays JSON-serialisable without float-ifying ints."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)


def canonical_params(params: Mapping[str, Any]) -> dict[str, Any]:
    """Normalise a parameter dict so equal bindings canonicalise identically.

    Delegates to the shared canonicaliser (:mod:`repro.serialization`) that
    the run API's :class:`~repro.api.RunSpec` hashes through as well, so a
    parameter binding has exactly one identity no matter which layer
    computes it: tuples and lists are interchangeable, NumPy scalars become
    native numbers, enums serialise as their values, and nested mappings
    are normalised recursively (key order never matters — serialisation
    sorts keys at every depth).
    """
    return {str(k): canonical_value(v) for k, v in params.items()}


def _backend_of(canon: Mapping[str, Any]) -> str | None:
    """Extract the substrate backend recorded in a canonical param binding."""
    backend = canon.get("backend")
    return str(backend) if backend is not None else None


def param_hash(params: Mapping[str, Any]) -> str:
    """Stable hex digest of a parameter binding, independent of dict order."""
    return stable_digest(canonical_params(params))


def cell_spec_json(experiment: str, params: Mapping[str, Any], seed: int) -> str:
    """Canonical serialised form of one sweep cell.

    This string is the *transport* format of a cell: the sweep runner ships
    it to workers (local today, remote hosts tomorrow) and the store
    persists it alongside the row, so a stored run can be replayed from
    its row alone.
    """
    return canonical_json(
        {"experiment": str(experiment), "params": canonical_params(params), "seed": int(seed)}
    )


def cell_spec_hash(spec_json: str) -> str:
    """Content address of one serialised cell (16 hex chars).

    This is the digest the ``spec_hash`` columns, the content-addressed
    cache checks, and the simulation service's run ids all share.  For a
    protocol :class:`~repro.api.RunSpec` document the non-identity
    ``telemetry`` toggle is popped first, so the digest equals
    ``RunSpec.spec_hash()`` exactly; experiment-cell documents digest
    as-is (their canonical form already is the identity).
    """
    doc = json.loads(spec_json)
    if isinstance(doc, Mapping) and "protocol" in doc:
        doc = dict(doc)
        doc.pop("telemetry", None)
    return stable_digest(doc)


@dataclass(frozen=True)
class QueuedCell:
    """One row of the work queue."""

    experiment: str
    param_hash: str
    seed: int
    #: the cell's whole transport form (``SweepCell.spec_json()``) — a
    #: worker needs nothing else to execute it
    spec_json: str
    state: str
    owner: str | None = None
    claim_time: str | None = None
    #: how many times this cell has been claimed (capped by the worker's
    #: ``max_attempts``)
    attempt: int = 0
    #: content address of ``spec_json`` (``cell_spec_hash``) — the id the
    #: simulation service hands out; None on rows from pre-service stores
    spec_hash: str | None = None

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.experiment, self.param_hash, int(self.seed))


@dataclass(frozen=True)
class StoredRun:
    """One persisted sweep cell, decoded from its database row."""

    id: int
    experiment: str
    param_hash: str
    seed: int
    status: str
    params: dict[str, Any]
    #: substrate backend that produced the row (from the cell's params);
    #: None for experiments that do not take a backend (historic NULLs are
    #: backfilled to the default backend on store open).
    backend: str | None
    #: canonical serialised cell spec (replayable transport form); None for
    #: rows written before the unified run API.
    spec_json: str | None
    description: str
    headers: list[str]
    rows: list[dict[str, Any]]
    notes: list[str]
    error: str | None
    duration_s: float | None
    #: the run's telemetry document (decoded from ``telemetry_json``); None
    #: when telemetry was off or the row predates the column.
    telemetry: dict[str, Any] | None
    #: last liveness stamp for the cell (set when the row was recorded);
    #: None for rows that predate the column.
    heartbeat_at: str | None
    created_at: str
    #: content address of ``spec_json`` (:func:`cell_spec_hash`) — the
    #: service's run id; None only for pre-run-API rows without a spec.
    spec_hash: str | None = None
    #: the full serialised :class:`~repro.api.RunResult` envelope for
    #: protocol cells (what ``GET /v1/runs/{id}/result`` serves); None for
    #: experiment cells and rows written before the service existed.
    result_json: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def as_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "param_hash": self.param_hash,
            "seed": self.seed,
            "status": self.status,
            "params": self.params,
            "backend": self.backend,
            "spec_json": self.spec_json,
            "spec_hash": self.spec_hash,
            "description": self.description,
            "headers": self.headers,
            "rows": self.rows,
            "notes": self.notes,
            "error": self.error,
            "duration_s": self.duration_s,
            "telemetry": self.telemetry,
            "heartbeat_at": self.heartbeat_at,
            "created_at": self.created_at,
        }

    def to_result(self):
        """Rebuild the driver-level ExperimentResult for rendering/analysis."""
        from ..harness.experiments import ExperimentResult  # lazy: avoid import cycle

        return ExperimentResult(
            experiment=self.experiment,
            description=self.description,
            headers=list(self.headers),
            rows=[dict(row) for row in self.rows],
            seed=self.seed,
            parameters=dict(self.params),
            notes=list(self.notes),
        )


class ResultStore:
    """SQLite store keyed by ``(experiment, param_hash, seed)``.

    ``busy_timeout_s`` is how long any single statement waits for a
    competing writer before raising ``SQLITE_BUSY``; on top of that every
    write transaction retries a few times, so independent worker
    processes hammering one shared store queue behind each other instead
    of crashing a sweep.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        busy_timeout_s: float = DEFAULT_BUSY_TIMEOUT_S,
        check_same_thread: bool = True,
    ) -> None:
        if busy_timeout_s < 0:
            raise ValueError(f"busy_timeout_s must be >= 0, got {busy_timeout_s}")
        self.path = Path(path)
        self.busy_timeout_s = float(busy_timeout_s)
        if str(path) != ":memory:":
            self.path.parent.mkdir(parents=True, exist_ok=True)
        # check_same_thread=False is the service manager's mode: one store
        # shared by HTTP handler threads behind the manager's own lock.
        self._conn = sqlite3.connect(
            str(path), timeout=self.busy_timeout_s, check_same_thread=check_same_thread
        )
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute(f"PRAGMA busy_timeout={int(self.busy_timeout_s * 1000)}")
        self._conn.executescript(_SCHEMA)
        # Stores created before the substrate / run-API refactors lack the
        # backend and spec_json columns; add them in place.
        columns = {row["name"] for row in self._conn.execute("PRAGMA table_info(runs)")}
        if "backend" not in columns:
            self._conn.execute("ALTER TABLE runs ADD COLUMN backend TEXT")
        legacy_store = "spec_json" not in columns
        if legacy_store:
            self._conn.execute("ALTER TABLE runs ADD COLUMN spec_json TEXT")
        # Rows written before the substrate refactor carry no backend; they
        # were produced by the then-only (default) kernel, so pin them to it
        # rather than letting summaries/plots silently mis-group them.  The
        # rewrite runs only on the one open that migrates a legacy store
        # (pre-spec_json schema): NULL backends written afterwards belong to
        # experiments that genuinely take no backend and must stay NULL.
        if legacy_store:
            backfilled = self._conn.execute(
                "UPDATE runs SET backend = ? WHERE backend IS NULL", (DEFAULT_BACKEND,)
            ).rowcount
            if backfilled:
                warnings.warn(
                    f"result store {path}: backfilled {backfilled} pre-substrate row(s) "
                    f"with backend={DEFAULT_BACKEND!r}",
                    stacklevel=2,
                )
        # Observability columns (telemetry documents + liveness stamps) came
        # later still; NULL is the correct value for pre-existing rows, so
        # this migration only adds the columns (logged, not warned — it is
        # routine, unlike the backend backfill above which rewrites rows).
        for column, decl in (("telemetry_json", "TEXT"), ("heartbeat_at", "TEXT")):
            if column not in columns:
                self._conn.execute(f"ALTER TABLE runs ADD COLUMN {column} {decl}")
                _logger.info("result store %s: added %s column", path, column)
        # Content-addressing columns (the simulation service's run-id /
        # result-cache surface).  Rows written before the columns existed
        # are backfilled from their stored spec_json so the service can
        # serve pre-existing results from cache too.
        if "result_json" not in columns:
            self._conn.execute("ALTER TABLE runs ADD COLUMN result_json TEXT")
            _logger.info("result store %s: added result_json column", path)
        if "spec_hash" not in columns:
            self._conn.execute("ALTER TABLE runs ADD COLUMN spec_hash TEXT")
            self._backfill_spec_hashes("runs")
        queue_columns = {row["name"] for row in self._conn.execute("PRAGMA table_info(queue)")}
        if "spec_hash" not in queue_columns:
            self._conn.execute("ALTER TABLE queue ADD COLUMN spec_hash TEXT")
            self._backfill_spec_hashes("queue")
        if "heartbeat_at" not in queue_columns:
            self._conn.execute("ALTER TABLE queue ADD COLUMN heartbeat_at TEXT")
        self._conn.executescript(_SPEC_HASH_INDEXES)
        if self._conn.execute(
            "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = 'heartbeats'"
        ).fetchone():
            self._migrate_heartbeats()
        self._conn.commit()

    def _migrate_heartbeats(self) -> None:
        """Move the lease stamps of a pre-``queue.heartbeat_at`` store onto its queue rows.

        Older stores kept liveness in a separate ``heartbeats`` table.  Each
        claimed row takes its cell's heartbeat there (or its claim time when
        the worker never wrote one), so a live claim is not reclaimed as
        stale by the first worker that opens the migrated store; then the
        table is dropped.
        """
        moved = self._conn.execute(
            """
            UPDATE queue SET heartbeat_at = COALESCE(
                (SELECT h.heartbeat_at FROM heartbeats h
                 WHERE h.experiment = queue.experiment AND h.param_hash = queue.param_hash
                   AND h.seed = queue.seed),
                heartbeat_at, claim_time)
            WHERE state = 'claimed'
            """
        ).rowcount
        self._conn.execute("DROP TABLE heartbeats")
        _logger.info(
            "result store %s: moved %d claim lease(s) onto queue.heartbeat_at, "
            "dropped the heartbeats table",
            self.path, moved,
        )

    def _backfill_spec_hashes(self, table: str) -> None:
        """Fill the just-added ``spec_hash`` column from stored spec strings.

        Runs exactly once per store (at the migration that adds the
        column); pre-run-API rows without a spec_json stay NULL, which the
        content-addressed lookups treat as "not addressable".
        """
        assert table in ("runs", "queue")
        rows = self._conn.execute(
            f"SELECT id, spec_json FROM {table} WHERE spec_json IS NOT NULL"
        ).fetchall()
        for row in rows:
            self._conn.execute(
                f"UPDATE {table} SET spec_hash = ? WHERE id = ?",
                (cell_spec_hash(row["spec_json"]), row["id"]),
            )
        _logger.info(
            "result store %s: added %s.spec_hash column (%d row(s) backfilled)",
            self.path, table, len(rows),
        )

    # ------------------------------------------------------------------ #
    # write plumbing: SQLITE_BUSY retries on top of the busy timeout
    # ------------------------------------------------------------------ #
    def _write_retry(self, what: str, txn: Callable[[], Any]) -> Any:
        """Run one complete write transaction, retrying on SQLITE_BUSY.

        ``txn`` must be a full transaction (its own commit): a busy error
        can surface mid-transaction (lock upgrade at commit), so the
        retry rolls back whatever partial state is open and replays the
        whole thing.  Non-lock errors propagate immediately.
        """
        delay = 0.05
        for attempt in range(_BUSY_RETRIES + 1):
            try:
                return txn()
            except sqlite3.OperationalError as exc:
                message = str(exc).lower()
                if "locked" not in message and "busy" not in message:
                    raise
                try:
                    self._conn.rollback()
                except sqlite3.Error:  # pragma: no cover - rollback best-effort
                    pass
                if attempt == _BUSY_RETRIES:
                    raise
                _logger.debug(
                    "store %s: %s hit SQLITE_BUSY (attempt %d/%d), retrying",
                    self.path, what, attempt + 1, _BUSY_RETRIES,
                )
                time.sleep(delay)
                delay = min(delay * 2, 1.0)

    def _begin_immediate(self) -> None:
        """Open an immediate (write-locked) transaction.

        All write methods commit before returning, so no transaction is
        open here; taking the write lock up front is what makes the
        guarded claim UPDATE race-free across processes.
        """
        self._conn.execute("BEGIN IMMEDIATE")

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    def record_result(
        self,
        experiment: str,
        params: Mapping[str, Any],
        seed: int,
        result,
        duration_s: float | None = None,
        spec_json: str | None = None,
        telemetry_json: str | None = None,
        result_json: str | None = None,
    ) -> str:
        """Upsert a successful cell; returns the canonical parameter hash.

        ``spec_json`` is the cell's serialised replay form; when the caller
        does not provide one (direct store writes), the canonical cell spec
        is derived from the arguments.  ``telemetry_json`` is the run's
        serialised telemetry document (None when telemetry was off).
        ``result_json`` is the full serialised RunResult envelope for
        protocol cells (what the simulation service's result endpoint
        returns).  The row's ``spec_hash`` is the content address derived
        from ``spec_json`` and its ``heartbeat_at`` is stamped: recording a
        result is the cell's final liveness signal.
        """
        canon = canonical_params(params)
        digest = param_hash(canon)
        if spec_json is None:
            spec_json = cell_spec_json(experiment, canon, seed)
        spec_digest = cell_spec_hash(spec_json)

        def txn() -> None:
            self._conn.execute(
                """
            INSERT INTO runs (experiment, param_hash, seed, status, params, backend, spec_json,
                              spec_hash, description, headers, rows, notes, error, duration_s,
                              telemetry_json, result_json, heartbeat_at)
            VALUES (?, ?, ?, 'ok', ?, ?, ?, ?, ?, ?, ?, ?, NULL, ?, ?, ?, datetime('now'))
            ON CONFLICT (experiment, param_hash, seed) DO UPDATE SET
                status = 'ok', params = excluded.params, backend = excluded.backend,
                spec_json = excluded.spec_json, spec_hash = excluded.spec_hash,
                description = excluded.description,
                headers = excluded.headers, rows = excluded.rows, notes = excluded.notes,
                error = NULL, duration_s = excluded.duration_s,
                telemetry_json = excluded.telemetry_json,
                result_json = excluded.result_json,
                heartbeat_at = datetime('now'),
                created_at = datetime('now')
            """,
                (
                    experiment,
                    digest,
                    int(seed),
                    json.dumps(canon, sort_keys=True, default=_json_default),
                    _backend_of(canon),
                    spec_json,
                    spec_digest,
                    result.description,
                    json.dumps(list(result.headers), default=_json_default),
                    json.dumps(list(result.rows), default=_json_default),
                    json.dumps(list(result.notes), default=_json_default),
                    duration_s,
                    telemetry_json,
                    result_json,
                ),
            )
            self._conn.commit()

        self._write_retry("record_result", txn)
        return digest

    def record_failure(
        self,
        experiment: str,
        params: Mapping[str, Any],
        seed: int,
        error: str,
        duration_s: float | None = None,
        spec_json: str | None = None,
    ) -> str:
        """Upsert a failed cell (crash traceback in ``error``)."""
        canon = canonical_params(params)
        digest = param_hash(canon)
        if spec_json is None:
            spec_json = cell_spec_json(experiment, canon, seed)
        spec_digest = cell_spec_hash(spec_json)

        def txn() -> None:
            self._conn.execute(
                """
            INSERT INTO runs (experiment, param_hash, seed, status, params, backend, spec_json,
                              spec_hash, error, duration_s, heartbeat_at)
            VALUES (?, ?, ?, 'failed', ?, ?, ?, ?, ?, ?, datetime('now'))
            ON CONFLICT (experiment, param_hash, seed) DO UPDATE SET
                status = 'failed', params = excluded.params, backend = excluded.backend,
                spec_json = excluded.spec_json, spec_hash = excluded.spec_hash,
                error = excluded.error,
                headers = '[]', rows = '[]', notes = '[]', telemetry_json = NULL,
                result_json = NULL,
                duration_s = excluded.duration_s, heartbeat_at = datetime('now'),
                created_at = datetime('now')
            """,
                (
                    experiment,
                    digest,
                    int(seed),
                    json.dumps(canon, sort_keys=True, default=_json_default),
                    _backend_of(canon),
                    spec_json,
                    spec_digest,
                    error,
                    duration_s,
                ),
            )
            self._conn.commit()

        self._write_retry("record_failure", txn)
        return digest

    # ------------------------------------------------------------------ #
    # work queue (what every sweep drains)
    # ------------------------------------------------------------------ #
    def _decode_queue_row(self, row: sqlite3.Row) -> QueuedCell:
        return QueuedCell(
            experiment=row["experiment"],
            param_hash=row["param_hash"],
            seed=int(row["seed"]),
            spec_json=row["spec_json"],
            state=row["state"],
            owner=row["owner"],
            claim_time=row["claim_time"],
            attempt=int(row["attempt"]),
            spec_hash=row["spec_hash"],
        )

    def enqueue_cells(self, entries: Iterable[tuple[str, str, int, str]]) -> int:
        """Insert ``(experiment, param_hash, seed, spec_json)`` rows as pending.

        Rows already queued stay untouched while in flight (pending or
        claimed — another submitter got there first); ``done``/``failed``
        rows are reset to pending with a fresh attempt budget, so failures
        retry on the next invocation.  Returns how many rows became pending.
        """
        entries = list(entries)

        def txn() -> int:
            self._begin_immediate()
            pending = 0
            for experiment, digest, seed, spec_json in entries:
                pending += self._conn.execute(
                    """
                    INSERT INTO queue (experiment, param_hash, seed, spec_json, spec_hash)
                    VALUES (?, ?, ?, ?, ?)
                    ON CONFLICT (experiment, param_hash, seed) DO UPDATE SET
                        spec_json = excluded.spec_json, spec_hash = excluded.spec_hash,
                        state = 'pending', owner = NULL, claim_time = NULL,
                        heartbeat_at = NULL, attempt = 0
                    WHERE queue.state IN ('done', 'failed')
                    """,
                    (experiment, digest, int(seed), str(spec_json), cell_spec_hash(spec_json)),
                ).rowcount
            self._conn.commit()
            return pending

        return self._write_retry("enqueue_cells", txn)

    def claim_cell(self, owner: str = "") -> QueuedCell | None:
        """Atomically claim the oldest pending row, or None when none is pending.

        The winning row moves to ``claimed`` with ``owner``, ``claim_time``
        and its lease stamp ``heartbeat_at`` set and ``attempt`` incremented.
        """

        def txn() -> QueuedCell | None:
            # BEGIN IMMEDIATE holds the write lock for the whole
            # select-then-update, so the guarded `WHERE state = 'pending'`
            # can never lose a race: one claimant per row, full stop.
            self._begin_immediate()
            row = self._conn.execute(
                "SELECT id FROM queue WHERE state = 'pending' ORDER BY id LIMIT 1"
            ).fetchone()
            if row is None:
                self._conn.commit()
                return None
            updated = self._conn.execute(
                "UPDATE queue SET state = 'claimed', owner = ?, claim_time = datetime('now'), "
                "heartbeat_at = datetime('now'), attempt = attempt + 1 "
                "WHERE id = ? AND state = 'pending'",
                (owner, row["id"]),
            ).rowcount
            claimed = self._conn.execute(
                "SELECT * FROM queue WHERE id = ?", (row["id"],)
            ).fetchone()
            self._conn.commit()
            if updated != 1:  # pragma: no cover - unreachable under the write lock
                return None
            return self._decode_queue_row(claimed)

        return self._write_retry("claim_cell", txn)

    def renew_lease(self, key: tuple[str, str, int], owner: str) -> bool:
        """Refresh a claim's ``heartbeat_at``; False once ``owner`` no longer holds it.

        The owner guard keeps a worker whose stale claim was reclaimed (and
        perhaps re-claimed by another worker) from renewing a lease that is
        no longer its own.
        """
        experiment, digest, seed = key

        def txn() -> bool:
            renewed = self._conn.execute(
                "UPDATE queue SET heartbeat_at = datetime('now') "
                "WHERE experiment = ? AND param_hash = ? AND seed = ? "
                "AND owner = ? AND state = 'claimed'",
                (experiment, digest, int(seed), owner),
            ).rowcount
            self._conn.commit()
            return renewed == 1

        return self._write_retry("renew_lease", txn)

    def finish_cell(self, key: tuple[str, str, int], state: str) -> None:
        """Move a claimed row to its terminal state (``done`` or ``failed``)."""
        if state not in ("done", "failed"):
            raise ValueError(f"terminal queue state must be 'done' or 'failed', got {state!r}")
        experiment, digest, seed = key

        def txn() -> None:
            self._conn.execute(
                "UPDATE queue SET state = ? WHERE experiment = ? AND param_hash = ? AND seed = ?",
                (state, experiment, digest, int(seed)),
            )
            self._conn.commit()

        self._write_retry("finish_cell", txn)

    def requeue_cell(self, key: tuple[str, str, int]) -> None:
        """Hand a claim back to pending at once, keeping its attempt count.

        Used when the claimant stops mid-cell (graceful shutdown) or dies
        under a supervisor that saw it go, so nobody waits out the lease.
        """
        experiment, digest, seed = key

        def txn() -> None:
            self._conn.execute(
                "UPDATE queue SET state = 'pending', owner = NULL, claim_time = NULL, "
                "heartbeat_at = NULL "
                "WHERE experiment = ? AND param_hash = ? AND seed = ? AND state = 'claimed'",
                (experiment, digest, int(seed)),
            )
            self._conn.commit()

        self._write_retry("requeue_cell", txn)

    def reclaim_stale(self, lease_s: float) -> list[tuple[str, str, int]]:
        """Return claims whose lease is older than ``lease_s`` seconds to pending.

        Returns the reclaimed keys.
        """
        if lease_s < 0:
            raise ValueError(f"lease_s must be >= 0, got {lease_s}")

        def txn() -> list[tuple[str, str, int]]:
            self._begin_immediate()
            rows = self._conn.execute(
                "SELECT id, experiment, param_hash, seed FROM queue "
                f"WHERE state = 'claimed' AND {_CLAIM_AGE_SQL} > ?",
                (float(lease_s),),
            ).fetchall()
            for row in rows:
                self._conn.execute(
                    "UPDATE queue SET state = 'pending', owner = NULL, claim_time = NULL, "
                    "heartbeat_at = NULL WHERE id = ?",
                    (row["id"],),
                )
            self._conn.commit()
            return [(r["experiment"], r["param_hash"], int(r["seed"])) for r in rows]

        reclaimed = self._write_retry("reclaim_stale", txn)
        if reclaimed:
            _logger.info(
                "store %s: reclaimed %d stale claim(s) older than %.1fs",
                self.path, len(reclaimed), lease_s,
            )
        return reclaimed

    def fail_exhausted(self, max_attempts: int) -> list[QueuedCell]:
        """Mark pending rows already claimed ``max_attempts`` times as failed.

        Returns the rows so the caller can record a failure row per cell;
        this is the cap that turns a worker-killing poison cell into a
        recorded failure instead of an endless requeue loop.
        """
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")

        def txn() -> list[QueuedCell]:
            self._begin_immediate()
            rows = self._conn.execute(
                "SELECT * FROM queue WHERE state = 'pending' AND attempt >= ? ORDER BY id",
                (int(max_attempts),),
            ).fetchall()
            for row in rows:
                self._conn.execute(
                    "UPDATE queue SET state = 'failed' WHERE id = ?", (row["id"],)
                )
            self._conn.commit()
            return [self._decode_queue_row(row) for row in rows]

        failed = self._write_retry("fail_exhausted", txn)
        return [dataclass_replace(cell, state="failed") for cell in failed]

    def retry_cell(self, spec_hash: str) -> QueuedCell | None:
        """Reset a *failed* queue row back to pending, clearing its attempts.

        Content-addressed like the service's run ids: the row is found by
        its spec digest.  Only a ``failed`` row is touched — pending,
        claimed, and done rows come back ``None`` so callers can report
        the conflict (the service maps that to 409).  The attempt counter
        restarts from zero, giving a poison cell that exhausted its
        budget a full fresh allowance.
        """

        def txn() -> QueuedCell | None:
            self._begin_immediate()
            row = self._conn.execute(
                "SELECT id FROM queue WHERE spec_hash = ? AND state = 'failed' "
                "ORDER BY id LIMIT 1",
                (str(spec_hash),),
            ).fetchone()
            if row is None:
                self._conn.commit()
                return None
            self._conn.execute(
                "UPDATE queue SET state = 'pending', owner = NULL, claim_time = NULL, "
                "heartbeat_at = NULL, attempt = 0 WHERE id = ?",
                (row["id"],),
            )
            updated = self._conn.execute(
                "SELECT * FROM queue WHERE id = ?", (row["id"],)
            ).fetchone()
            self._conn.commit()
            return self._decode_queue_row(updated)

        return self._write_retry("retry_cell", txn)

    def queue_counts(self, experiment: str | None = None) -> list[dict[str, Any]]:
        """Per-experiment ``{experiment, pending, claimed, done, failed}`` rows."""
        sql = (
            "SELECT experiment, "
            "SUM(state = 'pending') AS pending, SUM(state = 'claimed') AS claimed, "
            "SUM(state = 'done') AS done, SUM(state = 'failed') AS failed "
            "FROM queue"
        )
        args: tuple = ()
        if experiment is not None:
            sql += " WHERE experiment = ?"
            args = (experiment,)
        rows = self._conn.execute(sql + " GROUP BY experiment ORDER BY experiment", args).fetchall()
        return [dict(row) for row in rows]

    def queue_depth(self) -> dict[str, int]:
        """Whole-queue state counts ``{pending, claimed, done, failed}``."""
        row = self._conn.execute(
            "SELECT SUM(state = 'pending') AS pending, SUM(state = 'claimed') AS claimed, "
            "SUM(state = 'done') AS done, SUM(state = 'failed') AS failed FROM queue"
        ).fetchone()
        return {state: int(row[state] or 0) for state in QUEUE_STATES}

    def queue_cells(self, state: str | None = None) -> list[QueuedCell]:
        """Queue rows (optionally one state), oldest first."""
        sql = "SELECT * FROM queue"
        args: tuple = ()
        if state is not None:
            sql += " WHERE state = ?"
            args = (state,)
        rows = self._conn.execute(sql + " ORDER BY id", args).fetchall()
        return [self._decode_queue_row(row) for row in rows]

    def claims(
        self, experiment: str | None = None, older_than_s: float | None = None
    ) -> list[dict[str, Any]]:
        """In-flight claims with their lease age ``age_s`` in seconds, oldest first.

        ``older_than_s`` keeps only claims whose lease is older than that
        (the stale ones, for a lease of that length).
        """
        sql = (
            "SELECT experiment, param_hash, seed, owner, attempt, claim_time, "
            f"CAST({_CLAIM_AGE_SQL} AS REAL) AS age_s FROM queue WHERE state = 'claimed'"
        )
        args: list[Any] = []
        if experiment is not None:
            sql += " AND experiment = ?"
            args.append(experiment)
        if older_than_s is not None:
            sql += f" AND {_CLAIM_AGE_SQL} > ?"
            args.append(float(older_than_s))
        rows = self._conn.execute(sql + " ORDER BY id", args).fetchall()
        return [dict(row) for row in rows]

    # ------------------------------------------------------------------ #
    # querying
    # ------------------------------------------------------------------ #
    def is_completed(self, experiment: str, params: Mapping[str, Any], seed: int) -> bool:
        """True when the cell already has a successful row (failures retry)."""
        row = self._conn.execute(
            "SELECT 1 FROM runs WHERE experiment = ? AND param_hash = ? AND seed = ? AND status = 'ok'",
            (experiment, param_hash(params), int(seed)),
        ).fetchone()
        return row is not None

    def get_by_spec_hash(self, spec_hash: str) -> StoredRun | None:
        """Content-addressed lookup: the stored run for one spec digest.

        This is the shared cache check: queue workers consult it before
        executing a claim, the sweep runner synthesises cell outcomes
        from it, and the simulation service resolves run ids
        through it.  Returns the row whatever its status — callers decide
        whether a ``failed`` row counts as a hit.
        """
        row = self._conn.execute(
            "SELECT * FROM runs WHERE spec_hash = ? ORDER BY id LIMIT 1", (str(spec_hash),)
        ).fetchone()
        return self._decode(row) if row is not None else None

    def queue_cell_by_spec_hash(self, spec_hash: str) -> QueuedCell | None:
        """The queue row for one spec digest (None when never enqueued)."""
        row = self._conn.execute(
            "SELECT * FROM queue WHERE spec_hash = ? ORDER BY id LIMIT 1", (str(spec_hash),)
        ).fetchone()
        return self._decode_queue_row(row) if row is not None else None

    def claim_age_s(self, key: tuple[str, str, int]) -> float | None:
        """Seconds since the claimed cell's lease was stamped (claim or renewal).

        None when the cell is not currently claimed.  This is the
        "heartbeat age" the service status endpoint reports so clients
        can tell a live claim from one waiting out its lease.
        """
        experiment, digest, seed = key
        row = self._conn.execute(
            f"SELECT CAST({_CLAIM_AGE_SQL} AS REAL) AS age_s FROM queue "
            "WHERE state = 'claimed' AND experiment = ? AND param_hash = ? AND seed = ?",
            (experiment, digest, int(seed)),
        ).fetchone()
        if row is None or row["age_s"] is None:
            return None
        return float(row["age_s"])

    def completed_cells(self) -> set[tuple[str, str, int]]:
        """All ``(experiment, param_hash, seed)`` keys with a successful row."""
        rows = self._conn.execute(
            "SELECT experiment, param_hash, seed FROM runs WHERE status = 'ok'"
        ).fetchall()
        return {(r["experiment"], r["param_hash"], int(r["seed"])) for r in rows}

    def query(self, experiment: str | None = None, status: str | None = None) -> list[StoredRun]:
        """Fetch stored runs, optionally filtered, in insertion order."""
        clauses, args = [], []
        if experiment is not None:
            clauses.append("experiment = ?")
            args.append(experiment)
        if status is not None:
            clauses.append("status = ?")
            args.append(status)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._conn.execute(
            f"SELECT * FROM runs {where} ORDER BY experiment, param_hash, seed", args
        ).fetchall()
        return [self._decode(row) for row in rows]

    def get(self, experiment: str, params: Mapping[str, Any], seed: int) -> StoredRun | None:
        row = self._conn.execute(
            "SELECT * FROM runs WHERE experiment = ? AND param_hash = ? AND seed = ?",
            (experiment, param_hash(params), int(seed)),
        ).fetchone()
        return self._decode(row) if row is not None else None

    def results(self, experiment: str | None = None) -> list:
        """Successful runs rebuilt as ExperimentResult objects."""
        return [run.to_result() for run in self.query(experiment=experiment, status="ok")]

    def summary(self) -> list[dict[str, Any]]:
        """Per-(experiment, backend) counts of completed/failed cells and runtime."""
        rows = self._conn.execute(
            """
            SELECT experiment,
                   backend,
                   SUM(status = 'ok') AS completed,
                   SUM(status = 'failed') AS failed,
                   SUM(COALESCE(duration_s, 0)) AS total_duration_s
            FROM runs GROUP BY experiment, backend ORDER BY experiment, backend
            """
        ).fetchall()
        return [dict(row) for row in rows]

    def export_json(self, path: str | Path, experiment: str | None = None) -> Path:
        """Dump stored runs (all statuses) to one JSON document."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = [run.as_dict() for run in self.query(experiment=experiment)]
        path.write_text(json.dumps(payload, indent=2, default=_json_default) + "\n")
        return path

    def __len__(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0])

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def _decode(self, row: sqlite3.Row) -> StoredRun:
        telemetry_json = row["telemetry_json"]
        return StoredRun(
            id=int(row["id"]),
            experiment=row["experiment"],
            param_hash=row["param_hash"],
            seed=int(row["seed"]),
            status=row["status"],
            params=json.loads(row["params"]),
            backend=row["backend"],
            spec_json=row["spec_json"],
            description=row["description"],
            headers=json.loads(row["headers"]),
            rows=json.loads(row["rows"]),
            notes=json.loads(row["notes"]),
            error=row["error"],
            duration_s=row["duration_s"],
            telemetry=json.loads(telemetry_json) if telemetry_json else None,
            heartbeat_at=row["heartbeat_at"],
            created_at=row["created_at"],
            spec_hash=row["spec_hash"],
            result_json=row["result_json"],
        )

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore({str(self.path)!r}, runs={len(self)})"
