"""The store work queue every sweep drains: claims, leases, dedup, worker parity.

Covers the pull-based work-stealing layer end to end:

* the store's queue table (enqueue/claim/finish/requeue/reclaim semantics,
  the lease on the queue row and its migration from old stores),
* :class:`~repro.orchestration.worker.QueueWorker` drain loops,
* ``SweepRunner`` draining in-process (``jobs=1``) and from supervised
  child processes (``jobs=2``): parity, a SIGKILLed child, a cell that
  kills its worker,
* two *real* worker processes sharing one store — zero duplicate
  executions, and recovery from a SIGKILL mid-cell via lease reclaim.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import RunSpec
from repro.orchestration import (
    ExperimentPlan,
    QueuedCell,
    QueueWorker,
    ResultStore,
    SweepDefinition,
    SweepRunner,
    cells_from_run_specs,
    expand_cells,
    row_identity,
)
from repro.orchestration.worker import WorkerReport

REPO_ROOT = Path(__file__).resolve().parents[1]


#: the queue and lease tables as stores kept them before the lease moved
#: onto the queue row
_LEGACY_QUEUE_SCHEMA = """
CREATE TABLE heartbeats (
    experiment   TEXT NOT NULL,
    param_hash   TEXT NOT NULL,
    seed         INTEGER NOT NULL,
    worker       TEXT NOT NULL DEFAULT '',
    started_at   TEXT NOT NULL DEFAULT (datetime('now')),
    heartbeat_at TEXT NOT NULL DEFAULT (datetime('now')),
    UNIQUE (experiment, param_hash, seed)
);
CREATE TABLE queue (
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
    attempt     INTEGER NOT NULL DEFAULT 0,
    enqueued_at TEXT NOT NULL DEFAULT (datetime('now')),
    UNIQUE (experiment, param_hash, seed)
);
"""


def _tiny_definition(reps: int = 2, seed: int = 5) -> SweepDefinition:
    return SweepDefinition(
        name="tiny",
        seed=seed,
        repetitions=reps,
        plans=(
            ExperimentPlan(experiment="table1", grid={"ns": [64, 128], "repetitions": 1}),
            ExperimentPlan(experiment="ablation", grid={"n": 64, "repetitions": 1}),
        ),
    )


def _enqueue(store: ResultStore, cells) -> int:
    return store.enqueue_cells(
        (c.experiment, c.param_hash, c.seed, c.spec_json()) for c in cells
    )


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def _worker_command(store: str, worker_id: str, *extra: str) -> list[str]:
    return [
        sys.executable, "-m", "repro", "worker",
        "--store", store, "--worker-id", worker_id, "--poll", "0.05", *extra,
    ]


# --------------------------------------------------------------------------- #
# queue table semantics
# --------------------------------------------------------------------------- #
class TestQueueStore:
    def test_enqueue_claim_finish_lifecycle(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))
        with ResultStore(tmp_path / "r.sqlite") as store:
            assert _enqueue(store, cells) == len(cells)
            assert store.queue_depth()["pending"] == len(cells)
            claim = store.claim_cell("w1")
            assert isinstance(claim, QueuedCell)
            assert claim.state == "claimed"
            assert claim.owner == "w1"
            assert claim.attempt == 1
            assert claim.key == cells[0].key  # oldest pending first
            store.finish_cell(claim.key, "done")
            depth = store.queue_depth()
            assert depth == {
                "pending": len(cells) - 1, "claimed": 0, "done": 1, "failed": 0,
            }

    def test_claim_returns_none_on_empty_queue(self, tmp_path):
        with ResultStore(tmp_path / "r.sqlite") as store:
            assert store.claim_cell("w1") is None

    def test_finish_rejects_non_terminal_state(self, tmp_path):
        with ResultStore(tmp_path / "r.sqlite") as store:
            with pytest.raises(ValueError, match="terminal"):
                store.finish_cell(("e", "h", 1), "pending")

    def test_reenqueue_resets_only_terminal_rows(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))[:2]
        with ResultStore(tmp_path / "r.sqlite") as store:
            _enqueue(store, cells)
            first = store.claim_cell("w1")
            store.finish_cell(first.key, "done")
            second = store.claim_cell("w1")  # stays claimed
            # re-submitting the sweep resets the done row to pending but
            # must not steal the claim another worker is executing
            assert _enqueue(store, cells) == 1
            states = {c.key: c for c in store.queue_cells()}
            assert states[first.key].state == "pending"
            assert states[first.key].attempt == 0
            assert states[second.key].state == "claimed"
            assert states[second.key].attempt == 1

    def test_requeue_preserves_attempt_count(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))[:1]
        with ResultStore(tmp_path / "r.sqlite") as store:
            _enqueue(store, cells)
            claim = store.claim_cell("w1")
            store.requeue_cell(claim.key)
            (row,) = store.queue_cells()
            assert row.state == "pending"
            assert row.owner is None
            assert row.attempt == 1  # requeue hands back the claim, not the budget
            again = store.claim_cell("w2")
            assert again.attempt == 2

    def test_reclaim_stale_returns_expired_claims(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))[:1]
        with ResultStore(tmp_path / "r.sqlite") as store:
            _enqueue(store, cells)
            claim = store.claim_cell("dead-worker")
            time.sleep(1.1)  # julianday() has 1s resolution via datetime('now')
            assert store.reclaim_stale(lease_s=3600.0) == []  # fresh lease: untouched
            reclaimed = store.reclaim_stale(lease_s=0.5)
            assert reclaimed == [claim.key]
            (row,) = store.queue_cells()
            assert row.state == "pending"
            assert row.attempt == 1

    def test_fresh_heartbeat_blocks_reclaim(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))[:1]
        with ResultStore(tmp_path / "r.sqlite") as store:
            _enqueue(store, cells)
            claim = store.claim_cell("w1")
            time.sleep(1.6)
            # a renewal keeps the lease alive even when claim_time is old;
            # lease 1.4 splits the two ages even with datetime('now')'s
            # 1-second truncation (claim age >= 1.6, renewal age <= 1.0)
            assert store.renew_lease(claim.key, "w1")
            assert store.reclaim_stale(lease_s=1.4) == []
            assert store.queue_cells()[0].state == "claimed"

    def test_renew_lease_is_owner_guarded(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))[:1]
        with ResultStore(tmp_path / "r.sqlite") as store:
            _enqueue(store, cells)
            claim = store.claim_cell("w1")
            time.sleep(1.1)
            # another worker cannot keep w1's claim alive...
            assert not store.renew_lease(claim.key, "w2")
            (stale,) = store.claims(older_than_s=0.5)
            assert stale["owner"] == "w1"
            # ...and once the claim was reclaimed, w1 cannot either
            assert store.reclaim_stale(lease_s=0.5) == [claim.key]
            assert not store.renew_lease(claim.key, "w1")
            assert store.claims() == []

    def test_legacy_heartbeats_table_moves_onto_queue_rows(self, tmp_path):
        """Old stores kept leases in a heartbeats table; opening one carries them over."""
        path = tmp_path / "legacy.sqlite"
        live, silent = expand_cells(_tiny_definition(reps=1))[:2]
        conn = sqlite3.connect(str(path))
        conn.executescript(_LEGACY_QUEUE_SCHEMA)
        for cell, owner in ((live, "w-live"), (silent, "w-silent")):
            # both claimed two minutes ago; only w-live has written a heartbeat since
            conn.execute(
                "INSERT INTO queue (experiment, param_hash, seed, spec_json, spec_hash, state,"
                " owner, claim_time, attempt) VALUES (?, ?, ?, ?, NULL, 'claimed', ?,"
                " datetime('now', '-120 seconds'), 1)",
                (*cell.key, cell.spec_json(), owner),
            )
        conn.execute(
            "INSERT INTO heartbeats (experiment, param_hash, seed, worker) VALUES (?, ?, ?, 'w-live')",
            live.key,
        )
        conn.commit()
        conn.close()
        with ResultStore(path) as store:
            ages = {c["owner"]: c["age_s"] for c in store.claims()}
            assert ages["w-live"] < 60.0 <= ages["w-silent"]  # no heartbeat: claim_time
            assert store.reclaim_stale(lease_s=60.0) == [silent.key]
            tables = {r[0] for r in store._conn.execute("SELECT name FROM sqlite_master")}
            assert "heartbeats" not in tables
        with ResultStore(path) as store:  # a second open changes nothing
            assert store.reclaim_stale(lease_s=60.0) == []
            states = {row.owner: row.state for row in store.queue_cells()}
            assert states == {"w-live": "claimed", None: "pending"}
            assert store.renew_lease(live.key, "w-live")

    def test_fail_exhausted_respects_attempt_budget(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))[:1]
        with ResultStore(tmp_path / "r.sqlite") as store:
            _enqueue(store, cells)
            for _ in range(2):  # burn two claims
                claim = store.claim_cell("w1")
                store.requeue_cell(claim.key)
            assert store.fail_exhausted(max_attempts=3) == []  # budget not spent yet
            (cell,) = store.fail_exhausted(max_attempts=2)
            assert cell.state == "failed"
            assert cell.attempt == 2
            assert store.queue_cells()[0].state == "failed"

    def test_queue_counts_and_stale_claims_views(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))
        with ResultStore(tmp_path / "r.sqlite") as store:
            _enqueue(store, cells)
            store.claim_cell("w1")
            time.sleep(1.1)
            counts = {row["experiment"]: row for row in store.queue_counts()}
            assert set(counts) == {c.experiment for c in cells}
            assert sum(r["pending"] + r["claimed"] for r in counts.values()) == len(cells)
            (stale,) = store.claims(older_than_s=0.5)
            assert stale["owner"] == "w1"
            assert stale["age_s"] > 0.5
            assert store.claims(older_than_s=3600.0) == []

    def test_concurrent_claims_cover_queue_exactly_once(self, tmp_path):
        """Racing claimants on separate connections never claim the same cell."""
        path = tmp_path / "r.sqlite"
        cells = expand_cells(_tiny_definition())
        with ResultStore(path) as store:
            _enqueue(store, cells)
        claimed: list[tuple] = []
        lock = threading.Lock()

        def drain_claims(worker: str) -> None:
            with ResultStore(path) as conn:
                while True:
                    claim = conn.claim_cell(worker)
                    if claim is None:
                        return
                    with lock:
                        claimed.append(claim.key)
                    conn.finish_cell(claim.key, "done")

        threads = [
            threading.Thread(target=drain_claims, args=(f"w{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(claimed) == sorted(c.key for c in cells)
        assert len(set(claimed)) == len(cells)

    def test_record_result_retries_through_held_write_lock(self, tmp_path):
        """A writer blocked by another connection's transaction lands via retry."""
        path = tmp_path / "r.sqlite"
        errors: list[BaseException] = []

        def blocked_writer() -> None:
            # tiny sqlite-level timeout so the application-level retry loop,
            # not the driver, is what carries the write through
            try:
                with ResultStore(path, busy_timeout_s=0.01) as writer:
                    writer.record_failure("other", {"n": 1}, 2, "boom")
            except BaseException as exc:  # surfaced in the main thread below
                errors.append(exc)

        with ResultStore(path) as store:
            store._begin_immediate()
            store._conn.execute(
                "INSERT INTO queue (experiment, param_hash, seed, spec_json) "
                "VALUES ('e', 'h', 1, '{}')"
            )
            writer_thread = threading.Thread(target=blocked_writer)
            writer_thread.start()
            time.sleep(0.3)  # let the writer hit the held lock and start retrying
            store._conn.commit()
            writer_thread.join(timeout=30)
            assert not writer_thread.is_alive()
            assert errors == []
            assert store.query(status="failed")[0].experiment == "other"


# --------------------------------------------------------------------------- #
# worker drain loop (in-process)
# --------------------------------------------------------------------------- #
class TestQueueWorker:
    def test_drain_executes_queue_and_records_results(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))
        with ResultStore(tmp_path / "r.sqlite") as store:
            _enqueue(store, cells)
            report = QueueWorker(store, worker_id="w1", poll_interval_s=0.05).drain()
            assert isinstance(report, WorkerReport)
            assert report.executed == len(cells)
            assert report.failed == 0
            assert store.queue_depth()["done"] == len(cells)
            for cell in cells:
                run = store.get(cell.experiment, cell.params, cell.seed)
                assert run is not None and run.ok

    def test_cached_claim_skips_execution(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))[:1]
        with ResultStore(tmp_path / "r.sqlite") as store:
            SweepRunner(store, jobs=1).run_cells(cells)  # result already stored
            _enqueue(store, cells)
            # enqueue_cells resets done rows, but the runs row survives —
            # the claim is served from cache without re-executing
            report = QueueWorker(store, worker_id="w1", poll_interval_s=0.05).drain()
            assert report.cached == 1
            assert report.executed == 0
            assert store.queue_depth()["done"] == 1

    def test_no_skip_worker_reexecutes_cached_cells(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))[:1]
        with ResultStore(tmp_path / "r.sqlite") as store:
            SweepRunner(store, jobs=1).run_cells(cells)
            _enqueue(store, cells)
            report = QueueWorker(
                store, worker_id="w1", poll_interval_s=0.05, skip_completed=False
            ).drain()
            assert report.executed == 1
            assert report.cached == 0

    def test_exhausted_cell_records_gave_up_failure(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))[:1]
        with ResultStore(tmp_path / "r.sqlite") as store:
            _enqueue(store, cells)
            claim = store.claim_cell("crashy")
            store.requeue_cell(claim.key)  # attempt budget now spent for cap=1
            report = QueueWorker(
                store, worker_id="w1", max_attempts=1, poll_interval_s=0.05
            ).drain()
            assert report.exhausted == 1
            assert report.executed == 0
            assert store.queue_cells()[0].state == "failed"
            (failure,) = store.query(status="failed")
            assert "gave up after 1 claim(s)" in failure.error

    def test_worker_report_summary_mentions_counts(self):
        report = WorkerReport(worker="w1", executed=3, failed=1, cached=2, wall_s=1.0)
        assert "3 executed, 1 failed, 2 cached" in report.summary()
        assert "gave up" not in report.summary()
        assert "1 gave up" in WorkerReport(worker="w", exhausted=1).summary()

    def test_row_identity_round_trips_both_cell_kinds(self):
        exp_cells = expand_cells(_tiny_definition(reps=1))
        spec = RunSpec(protocol="drr", params={"n": 64}, seed=9)
        for cell in exp_cells + cells_from_run_specs([spec]):
            experiment, params, seed = row_identity(cell.spec_json())
            assert experiment == cell.experiment
            assert seed == cell.seed
            # the decoded params must hash to the digest the cell was queued
            # under, or worker result rows would not upsert onto local ones
            from repro.orchestration import param_hash

            assert param_hash(params) == cell.param_hash

    def test_idle_backoff_doubles_with_jitter_and_caps(self, tmp_path):
        from repro.orchestration.worker import BACKOFF_CAP_FACTOR

        with ResultStore(tmp_path / "r.sqlite") as store:
            worker = QueueWorker(store, worker_id="w1", poll_interval_s=0.1)
            for polls, target in ((0, 0.1), (1, 0.2), (2, 0.4), (3, 0.8)):
                for _ in range(20):
                    sleep = worker.idle_backoff_s(polls)
                    assert target / 2 <= sleep <= target
            # the ladder tops out at BACKOFF_CAP_FACTOR x base
            cap = 0.1 * BACKOFF_CAP_FACTOR
            for polls in (3, 10, 1000):
                assert worker.idle_backoff_s(polls) <= cap
            # and jitter actually varies the draw
            draws = {round(worker.idle_backoff_s(5), 6) for _ in range(20)}
            assert len(draws) > 1

    def test_idle_backoff_resets_after_claim(self, tmp_path):
        """A drain over a queue that refills: the post-claim poll is fast again.

        Exercised indirectly: the loop counts consecutive empty polls and
        passes that to idle_backoff_s, so claiming once must restart the
        ladder.  We drive drain() with max_cells to keep it bounded.
        """
        cells = expand_cells(_tiny_definition(reps=1))[:1]
        with ResultStore(tmp_path / "r.sqlite") as store:
            _enqueue(store, cells)
            sleeps: list[float] = []
            worker = QueueWorker(
                store, worker_id="w1", poll_interval_s=0.01, linger_s=0.05
            )
            original = worker.idle_backoff_s
            worker.idle_backoff_s = lambda polls: sleeps.append(polls) or original(polls)
            report = worker.drain()
            assert report.executed == 1
            # every idle sleep the linger produced restarted from zero after
            # the successful claim and then climbed monotonically
            assert sleeps == sorted(sleeps)
            assert sleeps[0] == 0

    def test_invalid_worker_knobs_rejected(self, tmp_path):
        with ResultStore(tmp_path / "r.sqlite") as store:
            for kwargs in (
                {"lease_s": 0}, {"max_attempts": 0}, {"poll_interval_s": 0},
                {"heartbeat_interval_s": 0}, {"linger_s": -1}, {"max_cells": 0},
            ):
                with pytest.raises(ValueError):
                    QueueWorker(store, **kwargs)


# --------------------------------------------------------------------------- #
# SweepRunner: in-process and child-process drains of the store queue
# --------------------------------------------------------------------------- #
def _poison(seed: int = 0, code: int = 3):
    """A driver that takes its worker process down with it."""
    os._exit(code)


def _slow(seed: int = 0, seconds: float = 1.5):
    """A driver that just takes its time."""
    from repro.harness.experiments import ExperimentResult

    time.sleep(seconds)
    return ExperimentResult(
        experiment="test-slow", description="slow", headers=["seconds"],
        rows=[{"seconds": seconds}], seed=seed,
    )


@pytest.fixture
def fork_only_experiments():
    """Register the test drivers; children inherit them only when forked."""
    from repro.orchestration import DEFAULT_REGISTRY, load_builtin_experiments

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("test drivers reach child workers only under the fork start method")
    registry = load_builtin_experiments()
    registry.register("test-poison", _poison)
    registry.register("test-slow", _slow)
    yield registry
    for name in ("test-poison", "test-slow"):
        DEFAULT_REGISTRY._specs.pop(name, None)


class TestSweepRunnerDrain:
    def test_jobs2_children_match_inprocess_store_bit_for_bit(self, tmp_path):
        definition = _tiny_definition()
        with ResultStore(tmp_path / "serial.sqlite") as store:
            serial_report = SweepRunner(store, jobs=1).run(definition)
            serial = {(r.experiment, r.param_hash, r.seed): r for r in store.query()}
        with ResultStore(tmp_path / "children.sqlite") as store:
            report = SweepRunner(store, jobs=2).run(definition)
            children = {(r.experiment, r.param_hash, r.seed): r for r in store.query()}
            assert store.queue_depth()["done"] == report.executed
            # every cell ran once: no child died, no claim was handed back
            assert all(row.attempt == 1 for row in store.queue_cells())
        assert report.failed == 0
        assert report.executed == serial_report.executed
        assert serial.keys() == children.keys()
        for key, run in serial.items():
            other = children[key]
            assert run.rows == other.rows, f"rows differ for {key}"
            assert run.headers == other.headers
            assert run.params == other.params
            assert run.notes == other.notes

    def test_jobs2_resume_report_matches_jobs1(self, tmp_path):
        definition = _tiny_definition()
        with ResultStore(tmp_path / "serial.sqlite") as store:
            SweepRunner(store, jobs=1).run(definition)
            serial_resume = SweepRunner(store, jobs=1).run(definition)
        with ResultStore(tmp_path / "children.sqlite") as store:
            SweepRunner(store, jobs=2).run(definition)
            children_resume = SweepRunner(store, jobs=2).run(definition)
        assert children_resume.skipped == children_resume.total > 0
        assert children_resume.summary() == serial_resume.summary()

    def test_sigkilled_child_cell_is_rerun_well_under_the_lease(self, tmp_path):
        """A child SIGKILLed mid-cell: its claim goes back at once, not after lease_s."""
        spec = RunSpec(protocol="drr-gossip", params={"n": 4096}, backend="engine", seed=7)
        cells = cells_from_run_specs([spec, spec.with_seed(8)])
        path = tmp_path / "r.sqlite"
        victims: list[int] = []

        def kill_one_child() -> None:
            with ResultStore(path) as watcher:
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline and not victims:
                    owners = {c["owner"] for c in watcher.claims()}
                    for child in multiprocessing.active_children():
                        if child.name in owners:
                            victims.append(child.pid)
                            os.kill(child.pid, signal.SIGKILL)
                            return
                    time.sleep(0.02)

        with ResultStore(path) as store:
            killer = threading.Thread(target=kill_one_child)
            killer.start()
            start = time.monotonic()
            report = SweepRunner(store, jobs=2, lease_s=60.0).run_cells(cells)
            wall = time.monotonic() - start
            killer.join()
            assert victims, "no child was caught mid-cell"
            assert report.executed == 2 and report.failed == 0
            assert wall < 30.0  # far below the 60 s lease a reclaim would need
            attempts = sorted(row.attempt for row in store.queue_cells())
            assert attempts == [1, 2]  # the killed claim was re-run once
            assert all(row.state == "done" for row in store.queue_cells())
            assert all(run.ok for run in store.query())

    def test_cell_that_kills_its_worker_becomes_one_failure_row(
        self, tmp_path, fork_only_experiments
    ):
        definition = SweepDefinition(
            name="poison",
            seed=2,
            repetitions=1,
            plans=(
                ExperimentPlan(experiment="test-poison", grid={}),
                ExperimentPlan(experiment="ablation", grid={"n": [48, 64], "repetitions": 1}),
            ),
        )
        cells = expand_cells(definition, fork_only_experiments)
        with ResultStore(tmp_path / "r.sqlite") as store:
            report = SweepRunner(
                store, jobs=2, max_attempts=2, registry=fork_only_experiments
            ).run(definition)
            assert report.total == len(cells) == 3
            assert report.executed == 2 and report.failed == 1
            (failure,) = store.query(status="failed")
            assert failure.experiment == "test-poison"
            assert "gave up after 2 claim(s)" in failure.error
            assert {run.experiment for run in store.query(status="ok")} == {"ablation"}
            states = {row.experiment: row.state for row in store.queue_cells()}
            assert states == {"test-poison": "failed", "ablation": "done"}

    def test_claims_of_another_worker_are_awaited(self, tmp_path, fork_only_experiments):
        """The sweep waits for a cell another worker holds instead of re-running it."""
        definition = SweepDefinition(
            name="slow", seed=1, repetitions=1,
            plans=(ExperimentPlan(experiment="test-slow", grid={"seconds": [1.0]}),),
        )
        (cell,) = expand_cells(definition, fork_only_experiments)
        path = tmp_path / "r.sqlite"
        with ResultStore(path) as store:
            _enqueue(store, [cell])
            other = threading.Thread(
                target=lambda: QueueWorker(
                    ResultStore(path, check_same_thread=False), worker_id="other-host",
                    poll_interval_s=0.05,
                ).drain()
            )
            other.start()
            deadline = time.monotonic() + 30
            while not store.claims() and time.monotonic() < deadline:
                time.sleep(0.01)
            report = SweepRunner(store, jobs=2, registry=fork_only_experiments).run(definition)
            other.join()
            assert report.executed == 1 and report.failed == 0
            (row,) = store.queue_cells()
            assert row.state == "done" and row.attempt == 1 and row.owner == "other-host"

    def test_duplicate_specs_collapse_to_one_execution(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))
        doubled = cells + [cells[0]]
        with ResultStore(tmp_path / "r.sqlite") as store:
            report = SweepRunner(store, jobs=1).run_cells(doubled)
            assert report.executed == len(cells)
            assert report.cached == 1
            assert report.total == len(doubled)
            assert len(store) == len(cells)  # the twin produced no extra row
            assert ", 1 cached" in report.summary()

    def test_dedup_fans_failures_out_to_twins(self, tmp_path):
        definition = SweepDefinition(
            name="crashy",
            seed=3,
            repetitions=1,
            plans=(
                ExperimentPlan(
                    experiment="table1",
                    grid={"ns": [64], "repetitions": 1, "workload": ["nope"]},
                ),
            ),
        )
        cells = expand_cells(definition)
        with ResultStore(tmp_path / "r.sqlite") as store:
            report = SweepRunner(store, jobs=1).run_cells(cells + [cells[0]])
            assert report.failed == 2  # the representative and its twin
            assert report.cached == 0
            twin = report.outcomes[-1]
            assert twin.error is not None and "ValueError" in twin.error

    def test_queue_backend_dedups_before_enqueueing(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))[:1]
        with ResultStore(tmp_path / "r.sqlite") as store:
            report = SweepRunner(store, jobs=1).run_cells(cells + [cells[0]])
            assert report.executed == 1
            assert report.cached == 1
            assert store.queue_depth()["done"] == 1

    def test_memory_store_rejected_for_child_workers(self):
        with ResultStore(":memory:") as store:
            runner = SweepRunner(store, jobs=2)
            with pytest.raises(ValueError, match="file-backed"):
                runner.run(_tiny_definition(reps=1))

    def test_memory_store_fine_for_inprocess_drain(self):
        with ResultStore(":memory:") as store:
            report = SweepRunner(store, jobs=1).run(_tiny_definition(reps=1))
            assert report.executed == report.total > 0

    def test_invalid_queue_knobs_rejected(self, tmp_path):
        with ResultStore(tmp_path / "r.sqlite") as store:
            with pytest.raises(ValueError):
                SweepRunner(store, lease_s=0)
            with pytest.raises(ValueError):
                SweepRunner(store, max_attempts=0)


# --------------------------------------------------------------------------- #
# real worker processes sharing one store
# --------------------------------------------------------------------------- #
class TestDistributedWorkers:
    def test_two_workers_drain_with_zero_duplicate_executions(self, tmp_path):
        path = tmp_path / "r.sqlite"
        cells = expand_cells(_tiny_definition())
        with ResultStore(path) as store:
            _enqueue(store, cells)
        workers = [
            subprocess.Popen(
                _worker_command(str(path), f"proc{i}", "--linger", "2"),
                env=_worker_env(), cwd=str(REPO_ROOT),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for i in range(2)
        ]
        for proc in workers:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, f"worker failed:\n{out}\n{err}"
        with ResultStore(path) as store:
            rows = store.queue_cells()
            assert len(rows) == len(cells)
            # every cell executed exactly once: terminal state reached on
            # the first (and only) claim, by whichever worker won it
            assert all(row.state == "done" for row in rows)
            assert all(row.attempt == 1 for row in rows)
            for cell in cells:
                run = store.get(cell.experiment, cell.params, cell.seed)
                assert run is not None and run.ok

    def test_sigterm_mid_cell_releases_claim_and_exits_zero(self, tmp_path):
        """Graceful shutdown: a SIGTERMed worker hands its claim back.

        Unlike the SIGKILL case below, no lease has to expire — the
        worker's signal handler requeues the in-flight cell (pending,
        no owner, lease cleared) and the process exits 0.
        """
        path = tmp_path / "r.sqlite"
        # ~1.4s of engine simulation: a window wide enough to SIGTERM into
        spec = RunSpec(protocol="drr-gossip", params={"n": 4096}, backend="engine", seed=7)
        cells = cells_from_run_specs([spec])
        with ResultStore(path) as store:
            _enqueue(store, cells)
        victim = subprocess.Popen(
            _worker_command(str(path), "polite", "--heartbeat", "300"),
            env=_worker_env(), cwd=str(REPO_ROOT),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            with ResultStore(path) as store:
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    if store.queue_depth()["claimed"] == 1:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("worker never claimed the cell")
                os.kill(victim.pid, signal.SIGTERM)
                out, err = victim.communicate(timeout=30)
                assert victim.returncode == 0, f"worker failed:\n{out}\n{err}"
                assert "stopped by SIGTERM" in out
                (row,) = store.queue_cells()
                assert row.state == "pending"
                assert row.owner is None
                assert row.attempt == 1  # the claim is spent, not the budget
                assert store.claims() == []  # the lease went with the claim
                assert store.query() == []  # nothing half-recorded
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait()

    def test_sigkilled_worker_claim_is_reclaimed_and_rerun(self, tmp_path):
        path = tmp_path / "r.sqlite"
        # ~1.4s of engine simulation: a window wide enough to SIGKILL into
        spec = RunSpec(protocol="drr-gossip", params={"n": 4096}, backend="engine", seed=7)
        cells = cells_from_run_specs([spec])
        with ResultStore(path) as store:
            _enqueue(store, cells)
        victim = subprocess.Popen(
            # heartbeat interval longer than the test: the claim's lease
            # cannot renew behind our back once the process dies
            _worker_command(str(path), "victim", "--heartbeat", "300"),
            env=_worker_env(), cwd=str(REPO_ROOT),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            with ResultStore(path) as store:
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    if store.queue_depth()["claimed"] == 1:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("worker never claimed the cell")
                os.kill(victim.pid, signal.SIGKILL)
                victim.wait(timeout=30)
                time.sleep(1.2)  # let the orphaned lease age past lease_s below
                report = QueueWorker(
                    store, worker_id="rescuer", lease_s=1.0, poll_interval_s=0.05
                ).drain()
                assert report.reclaimed == 1
                assert report.executed == 1
                (row,) = store.queue_cells()
                assert row.state == "done"
                assert row.attempt == 2  # the victim's claim plus the rescue
                run = store.get(cells[0].experiment, cells[0].params, cells[0].seed)
                assert run is not None and run.ok
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait()


    def test_sigkilled_worker_mid_churn_sweep_reclaims_and_matches_local(self, tmp_path):
        """Fault injection meets fault tolerance: a churn cell survives its worker.

        A worker is SIGKILLed while executing a run whose *spec* injects
        mid-run node churn; the lease reclaim path reruns the cell, and —
        because churn fates are identity-keyed, not stream-keyed — the
        rescued result is bit-identical to a local execution of the spec.
        """
        from repro.api import RunResult, run

        path = tmp_path / "r.sqlite"
        spec = RunSpec(
            protocol="drr-gossip",
            params={"n": 4096},
            backend="engine",
            seed=7,
            failures={
                "loss_probability": 0.05,
                "churn_rate": 0.001,
                "churn_schedule": [[3, [2, 7, 11], "crash"]],
            },
        )
        cells = cells_from_run_specs([spec])
        with ResultStore(path) as store:
            _enqueue(store, cells)
        victim = subprocess.Popen(
            _worker_command(str(path), "victim", "--heartbeat", "300"),
            env=_worker_env(), cwd=str(REPO_ROOT),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            with ResultStore(path) as store:
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    if store.queue_depth()["claimed"] == 1:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("worker never claimed the cell")
                os.kill(victim.pid, signal.SIGKILL)
                victim.wait(timeout=30)
                time.sleep(1.2)  # let the orphaned lease age past lease_s below
                report = QueueWorker(
                    store, worker_id="rescuer", lease_s=1.0, poll_interval_s=0.05
                ).drain()
                assert report.reclaimed == 1
                assert report.executed == 1
                (row,) = store.queue_cells()
                assert row.state == "done"
                assert row.attempt == 2
                stored = store.get_by_spec_hash(spec.spec_hash())
                assert stored is not None and stored.ok
                rescued = RunResult.from_dict(json.loads(stored.result_json))
            local = run(spec)
            assert rescued.same_outcome(local)
            assert rescued.degradation == local.degradation
            assert rescued.degradation is not None  # churn section survived the queue
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait()


# --------------------------------------------------------------------------- #
# CLI integration
# --------------------------------------------------------------------------- #
class TestQueueCLI:
    def test_enqueue_only_then_worker_then_results_queue(self, tmp_path, capsys):
        from repro.harness.cli import main

        store = str(tmp_path / "r.sqlite")
        sweep_argv = [
            "sweep", "--experiments", "ablation", "--ns", "64", "--reps", "2",
            "--seed", "11", "--store", store, "--enqueue-only",
        ]
        assert main(sweep_argv) == 0
        out = capsys.readouterr().out
        assert "enqueued 2 of 2 cell(s)" in out
        assert "2 pending" in out
        assert main(["worker", "--store", store, "--poll", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "2 executed, 0 failed" in out
        assert main(["results", "--store", store, "--queue"]) == 0
        out = capsys.readouterr().out
        assert "ablation" in out
        assert "stale" not in out  # nothing claimed, nothing stale
        # a re-submitted sweep skips everything without touching the queue
        assert main(sweep_argv[:-1]) == 0  # drop --enqueue-only: full run
        out = capsys.readouterr().out
        assert "0 executed, 2 skipped, 0 failed" in out

    def test_enqueue_only_skips_completed_and_duplicate_cells(self, tmp_path, capsys):
        from repro.harness.cli import main

        store = str(tmp_path / "r.sqlite")
        sweep_argv = [
            "sweep", "--experiments", "ablation", "--ns", "64", "--reps", "2",
            "--seed", "11", "--store", store,
        ]
        assert main(sweep_argv + ["--reps", "1"]) == 0  # completes the first seed
        capsys.readouterr()
        assert main(sweep_argv + ["--enqueue-only"]) == 0
        out = capsys.readouterr().out
        assert "enqueued 1 of 2 cell(s) (1 already completed, 0 duplicate specs)" in out
        assert "1 pending" in out

    def test_worker_without_store_errors(self, tmp_path, capsys):
        from repro.harness.cli import main

        assert main(["worker", "--store", str(tmp_path / "missing.sqlite")]) == 1
        assert "no result store" in capsys.readouterr().err

    def test_results_queue_flags_stale_claims(self, tmp_path, capsys):
        from repro.harness.cli import main

        path = tmp_path / "r.sqlite"
        cells = expand_cells(_tiny_definition(reps=1))
        with ResultStore(path) as store:
            _enqueue(store, cells)
            store.claim_cell("dead-worker")
        time.sleep(1.1)
        assert main(["results", "--store", str(path), "--queue", "--stale-after", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "stale claims" in out
        assert "dead-worker" in out

    def test_sweep_jobs2_drains_with_child_workers(self, tmp_path, capsys):
        from repro.harness.cli import main

        store = str(tmp_path / "r.sqlite")
        assert main([
            "sweep", "--experiments", "ablation", "--ns", "64", "--reps", "2",
            "--seed", "11", "--store", store, "--jobs", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 executed, 0 skipped, 0 failed" in out
        with ResultStore(store) as s:
            assert s.queue_depth()["done"] == 2
            assert all(row.attempt == 1 for row in s.queue_cells())

    def test_worker_telemetry_export(self, tmp_path, capsys):
        from repro.harness.cli import main

        store = str(tmp_path / "r.sqlite")
        events = tmp_path / "events.jsonl"
        assert main([
            "sweep", "--experiments", "ablation", "--ns", "64", "--reps", "1",
            "--seed", "3", "--store", store, "--enqueue-only",
        ]) == 0
        capsys.readouterr()
        assert main([
            "worker", "--store", store, "--poll", "0.05", "--telemetry", str(events),
        ]) == 0
        out = capsys.readouterr().out
        assert "worker.execute" in out
        lines = [json.loads(line) for line in events.read_text().splitlines()]
        assert any(e.get("name") == "worker.claim" for e in lines)
