"""Tests for the observability layer: telemetry, logging, heartbeats.

The headline guarantee under test: telemetry *observes* execution without
influencing it.  Same-seed runs are bit-identical with telemetry on or off
for every registered protocol on all three backends, on reliable and lossy
networks; spec/param hashes ignore the toggle (so store resume is
untouched); and ``RunResult.same_outcome`` never looks at the telemetry
section.
"""

from __future__ import annotations

import io
import json
import logging
import sqlite3
import time

import pytest

import repro
from repro import RunSpec
from repro.api import RunResult
from repro.core import run_drr
from repro.observability import (
    NULL_TELEMETRY,
    Heartbeat,
    NullTelemetry,
    RoundSampler,
    Telemetry,
    configure_logging,
    current_telemetry,
    events_from_telemetry,
    format_telemetry,
    get_logger,
    instrumented,
    use_telemetry,
    write_events_jsonl,
)
from repro.orchestration import ResultStore, SweepRunner, cells_from_run_specs
from repro.simulator import FailureModel
from repro.simulator.errors import ConfigurationError
from repro.simulator.trace import Tracer
from repro.substrate.compiled import python_fallback

from test_api import FAILURE_MODELS, PROTOCOL_SPECS


def _spec_for(
    protocol: str,
    backend: str,
    failures: FailureModel,
    seed: int = 5,
    telemetry: bool = False,
) -> RunSpec:
    base = PROTOCOL_SPECS[protocol]
    return RunSpec(
        protocol=protocol,
        params=base.get("params", {}),
        topology=base.get("topology"),
        failures=failures,
        backend=backend,
        seed=seed,
        telemetry=telemetry,
    )


# --------------------------------------------------------------------------- #
# RoundSampler
# --------------------------------------------------------------------------- #
class TestRoundSampler:
    def test_small_runs_keep_every_sample(self):
        sampler = RoundSampler(cap=16)
        for value in (0.5, 0.25, 1.5):
            sampler.add(value)
        assert sampler.samples == [0.5, 0.25, 1.5]
        assert sampler.stride == 1

    def test_decimation_bounds_memory_and_keeps_exact_stats(self):
        sampler = RoundSampler(cap=16)
        values = [float(i) for i in range(10_000)]
        for value in values:
            sampler.add(value)
        assert len(sampler.samples) <= 16
        assert sampler.count == 10_000
        assert sampler.total == pytest.approx(sum(values))
        assert sampler.min == 0.0
        assert sampler.max == 9_999.0
        # stride doubles on every decimation
        assert sampler.stride & (sampler.stride - 1) == 0
        assert sampler.stride > 1
        # retained samples are an evenly strided subsample, in order
        assert sampler.samples == sorted(sampler.samples)

    def test_as_dict_shapes(self):
        empty = RoundSampler()
        assert empty.as_dict() == {"count": 0}
        sampler = RoundSampler()
        sampler.add(2.0)
        doc = sampler.as_dict()
        assert doc["count"] == 1
        assert doc["mean_s"] == 2.0
        assert doc["samples_s"] == [2.0]

    def test_tiny_cap_rejected(self):
        with pytest.raises(ValueError, match="cap"):
            RoundSampler(cap=1)


# --------------------------------------------------------------------------- #
# Telemetry object
# --------------------------------------------------------------------------- #
class TestTelemetry:
    def test_null_telemetry_is_free_and_shared(self):
        assert NULL_TELEMETRY.enabled is False
        assert NULL_TELEMETRY.as_dict() == {}
        # the null span context is one shared object, not a fresh allocation
        assert NULL_TELEMETRY.span("a") is NULL_TELEMETRY.span("b")
        with NULL_TELEMETRY.span("anything"):
            pass
        NULL_TELEMETRY.count("x")
        NULL_TELEMETRY.round_tick()
        NULL_TELEMETRY.finish()

    def test_phases_rounds_spans_counters_gauges(self):
        tel = Telemetry()
        tel.phase_begin("alpha")
        tel.round_tick()
        tel.round_tick()
        tel.round_tick()
        tel.phase_begin("beta")
        with tel.span("prim"):
            pass
        tel.add_span("prim", 0.5)
        tel.count("widgets")
        tel.count("widgets", 2)
        tel.gauge_max("arena", 10)
        tel.gauge_max("arena", 5)  # lower value must not win
        doc = tel.as_dict()
        assert list(doc["phases"]) == ["alpha", "beta"]
        # 3 ticks in a phase = 2 measured inter-tick durations
        assert doc["phases"]["alpha"]["rounds"]["count"] == 2
        assert doc["phases"]["beta"]["rounds"] == {"count": 0}
        assert doc["spans"]["prim"]["count"] == 2
        assert doc["spans"]["prim"]["max_s"] >= 0.5
        assert doc["counters"] == {"widgets": 3}
        assert doc["gauges"] == {"arena": 10}
        assert doc["wall_s"] > 0.0
        assert doc.get("peak_rss_bytes", 1) > 0

    def test_round_ticks_before_any_phase_open_a_default_phase(self):
        tel = Telemetry()
        tel.round_tick()
        tel.round_tick()
        doc = tel.as_dict()
        assert doc["phases"]["default"]["rounds"]["count"] == 1

    def test_finish_is_idempotent(self):
        tel = Telemetry()
        tel.phase_begin("p")
        tel.finish()
        wall = tel.as_dict()["wall_s"]
        time.sleep(0.01)
        tel.finish()
        assert tel.as_dict()["wall_s"] == wall

    def test_snapshot_is_live(self):
        tel = Telemetry()
        tel.phase_begin("gossip")
        tel.round_tick()
        tel.round_tick()
        snap = tel.snapshot()
        assert snap["phase"] == "gossip"
        assert snap["rounds"] == 1
        assert snap["elapsed_s"] >= 0.0

    def test_use_telemetry_installs_and_restores(self):
        assert current_telemetry() is NULL_TELEMETRY
        tel = Telemetry()
        with use_telemetry(tel):
            assert current_telemetry() is tel
            with use_telemetry(None):
                assert current_telemetry() is NULL_TELEMETRY
            assert current_telemetry() is tel
        assert current_telemetry() is NULL_TELEMETRY

    def test_instrumented_decorator(self):
        calls = []

        @instrumented("unit.op")
        def op(x):
            calls.append(x)
            return x * 2

        assert op.__wrapped__(3) == 6  # undecorated original stays reachable
        assert op(1) == 2  # disabled: no recording
        tel = Telemetry()
        with use_telemetry(tel):
            assert op(2) == 4
        spans = tel.as_dict().get("spans", {})
        assert spans["unit.op"]["count"] == 1
        assert calls == [3, 1, 2]

    def test_format_telemetry_summary(self):
        tel = Telemetry()
        tel.phase_begin("drr")
        tel.count("unit.events", 4)
        text = format_telemetry(tel.as_dict())
        assert "telemetry" in text
        assert "phase drr" in text
        assert "unit.events" in text
        assert format_telemetry({}) == "(no telemetry recorded)"


# --------------------------------------------------------------------------- #
# neutrality: telemetry never changes outcomes or identities
# --------------------------------------------------------------------------- #
class TestTelemetryNeutrality:
    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_SPECS))
    @pytest.mark.parametrize("backend", ["vectorized", "compiled", "engine"])
    @pytest.mark.parametrize("failures", FAILURE_MODELS, ids=["reliable", "lossy"])
    def test_same_seed_outcome_identical_with_telemetry_on(self, protocol, backend, failures):
        with python_fallback():  # registers compiled where numba is absent
            plain = repro.run(_spec_for(protocol, backend, failures))
            traced = repro.run(_spec_for(protocol, backend, failures, telemetry=True))
        assert traced.same_outcome(plain)
        assert plain.telemetry is None
        assert traced.telemetry is not None
        assert traced.telemetry["wall_s"] > 0.0
        assert traced.telemetry["phases"]

    def test_spec_hashes_ignore_the_toggle(self):
        spec = RunSpec(protocol="drr", params={"n": 64}, seed=9)
        traced = spec.with_telemetry()
        assert traced.telemetry is True
        assert traced.spec_hash() == spec.spec_hash()
        assert traced.param_hash() == spec.param_hash()
        assert spec.to_dict().get("telemetry") is None  # omitted when off
        assert traced.to_dict()["telemetry"] is True  # transport keeps it
        assert RunSpec.from_dict(traced.to_dict()) == traced
        assert traced.describe().endswith("+telemetry")

    def test_result_envelope_round_trips_and_ignores_telemetry(self):
        spec = RunSpec(protocol="drr", params={"n": 64}, seed=9, telemetry=True)
        result = repro.run(spec)
        decoded = RunResult.from_json(result.to_json())
        assert decoded.telemetry == result.telemetry
        assert decoded.same_outcome(result)
        # same_outcome must not look at the telemetry section at all
        plain = repro.run(spec.with_telemetry(False))
        assert plain.to_dict().get("telemetry") is None
        assert plain.same_outcome(result)
        assert "telemetry" in result.describe()

    def test_explicit_recorder_wins_over_the_spec_toggle(self):
        tel = Telemetry()
        result = repro.run(RunSpec(protocol="drr", params={"n": 64}, seed=9), telemetry=tel)
        assert result.telemetry is not None
        assert result.telemetry == tel.as_dict()


# --------------------------------------------------------------------------- #
# tracing stays engine-only
# --------------------------------------------------------------------------- #
class TestTracerEngineOnly:
    @pytest.mark.parametrize("backend", ["vectorized", "compiled"])
    def test_columnar_backends_reject_an_enabled_tracer(self, backend):
        with python_fallback():
            with pytest.raises(ConfigurationError, match="tracing is engine-only") as excinfo:
                run_drr(64, rng=1, backend=backend, tracer=Tracer())
        # the error points at telemetry as the columnar alternative
        assert "telemetry" in str(excinfo.value)

    def test_disabled_tracer_is_accepted_everywhere(self):
        from repro.simulator.trace import NullTracer

        result = run_drr(64, rng=1, backend="vectorized", tracer=NullTracer())
        assert result.rounds > 0

    def test_engine_backend_still_traces(self):
        tracer = Tracer()
        run_drr(64, rng=1, backend="engine", tracer=tracer)
        assert len(list(tracer.events())) > 0


# --------------------------------------------------------------------------- #
# compiled overrides report under their own span names
# --------------------------------------------------------------------------- #
class TestCompiledTelemetry:
    COMPILED_SPANS = {
        "compiled.deliver", "compiled.probe_exchange", "compiled.relay", "compiled.fold_pushes",
    }

    @pytest.mark.parametrize("failures", FAILURE_MODELS, ids=["reliable", "lossy"])
    def test_compiled_run_records_override_spans(self, failures):
        with python_fallback():
            result = repro.run(_spec_for("drr-gossip", "compiled", failures, telemetry=True))
        spans = result.telemetry["spans"]
        for name in self.COMPILED_SPANS:
            assert spans[name]["count"] > 0, name
            assert spans[name]["total_s"] >= 0.0

    def test_vectorized_run_records_no_compiled_spans(self):
        result = repro.run(_spec_for("drr-gossip", "vectorized", FAILURE_MODELS[1], telemetry=True))
        spans = result.telemetry["spans"]
        assert spans["substrate.deliver"]["count"] > 0
        assert not self.COMPILED_SPANS & set(spans)


# --------------------------------------------------------------------------- #
# the forest plan is built once and shared by the three tree phases
# --------------------------------------------------------------------------- #
class TestForestPlanSpan:
    @pytest.mark.parametrize("aggregate", ["average", "max"])
    @pytest.mark.parametrize("failures", FAILURE_MODELS, ids=["reliable", "lossy"])
    def test_one_plan_span_per_run(self, aggregate, failures):
        spec = RunSpec(
            protocol="drr-gossip",
            params={"n": 512, "aggregate": aggregate},
            failures=failures,
            seed=4,
            telemetry=True,
        )
        result = repro.run(spec)
        spans = result.telemetry["spans"]
        assert spans["core.forest_plan"]["count"] == 1
        # it is built inside convergecast, the first tree phase
        phases = result.telemetry["phases"]
        assert spans["core.forest_plan"]["total_s"] <= phases["convergecast"]["wall_s"]
        # the forest is validated once, at the end of the drr phase
        assert spans["core.forest_validate"]["count"] == 1
        assert spans["core.forest_validate"]["total_s"] <= phases["drr"]["wall_s"]
        assert spans["substrate.broadcast_layers"]["count"] == 2

    @pytest.mark.parametrize("backend", ["vectorized", "engine"])
    def test_forest_validate_span_on_both_drr_paths(self, backend):
        spec = RunSpec(protocol="drr", params={"n": 256}, backend=backend, seed=4, telemetry=True)
        spans = repro.run(spec).telemetry["spans"]
        assert spans["core.forest_validate"]["count"] == 1


# --------------------------------------------------------------------------- #
# JSONL event export
# --------------------------------------------------------------------------- #
EVENT_REQUIRED_KEYS = {
    "run": {"wall_s"},
    "phase": {"name", "wall_s", "rounds"},
    "round_samples": {"phase", "count", "mean_s", "min_s", "max_s", "samples_s"},
    "span": {"name", "count", "total_s"},
    "counter": {"name", "value"},
    "gauge": {"name", "value"},
}


class TestJsonlExport:
    def _doc(self):
        tel = Telemetry()
        result = repro.run(
            RunSpec(protocol="drr-gossip", params={"n": 64, "aggregate": "average"}, seed=2),
            telemetry=tel,
        )
        assert result.telemetry is not None
        return result.telemetry

    def test_events_cover_the_schema(self):
        doc = self._doc()
        events = list(events_from_telemetry(doc))
        kinds = {event["event"] for event in events}
        assert {"run", "phase", "round_samples", "span"} <= kinds
        for event in events:
            assert event["event"] in EVENT_REQUIRED_KEYS
            missing = EVENT_REQUIRED_KEYS[event["event"]] - event.keys()
            assert not missing, f"{event['event']} event missing {missing}"

    def test_write_and_append_jsonl(self, tmp_path):
        doc = self._doc()
        path = tmp_path / "events.jsonl"
        write_events_jsonl(doc, path)
        first = [json.loads(line) for line in path.read_text().splitlines()]
        assert first[0]["event"] == "run"
        write_events_jsonl(doc, path, append=True)
        combined = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(combined) == 2 * len(first)
        write_events_jsonl(doc, path)  # overwrite mode truncates
        assert len(path.read_text().splitlines()) == len(first)


# --------------------------------------------------------------------------- #
# heartbeat thread
# --------------------------------------------------------------------------- #
class TestHeartbeat:
    def test_ticks_and_line_format(self):
        stream = io.StringIO()
        tel = Telemetry()
        tel.phase_begin("gossip")
        with Heartbeat(tel, interval_s=0.02, stream=stream, label="avg"):
            time.sleep(0.1)
        output = stream.getvalue()
        assert "[heartbeat] avg: elapsed=" in output
        assert "phase=gossip" in output

    def test_null_telemetry_still_reports_elapsed(self):
        stream = io.StringIO()
        beat = Heartbeat(NullTelemetry(), interval_s=0.02, stream=stream).start()
        time.sleep(0.06)
        beat.stop()
        beat.stop()  # idempotent
        assert beat.ticks >= 1
        assert "elapsed=" in stream.getvalue()
        assert "phase=" not in stream.getvalue()

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            Heartbeat(NullTelemetry(), interval_s=0.0)


# --------------------------------------------------------------------------- #
# logging hierarchy
# --------------------------------------------------------------------------- #
class TestLogging:
    def test_get_logger_hierarchy(self):
        assert get_logger().name == "repro"
        assert get_logger("orchestration.store").name == "repro.orchestration.store"

    def test_configure_is_idempotent(self):
        root = configure_logging(0)
        before = [h for h in root.handlers if getattr(h, "_repro_cli_handler", False)]
        configure_logging(1)
        configure_logging(2)
        after = [h for h in root.handlers if getattr(h, "_repro_cli_handler", False)]
        assert len(before) == len(after) == 1
        assert root.level == logging.DEBUG
        assert root.propagate is False

    def test_verbosity_levels(self):
        assert configure_logging(-1).level == logging.ERROR
        assert configure_logging(0).level == logging.WARNING
        assert configure_logging(1).level == logging.INFO
        assert configure_logging(3).level == logging.DEBUG
        configure_logging(0)  # leave the default behind for other tests

    def test_store_migration_logs_instead_of_printing(self, tmp_path, caplog):
        path = tmp_path / "legacy.sqlite"
        conn = sqlite3.connect(str(path))
        conn.executescript(_LEGACY_PR5_SCHEMA)
        conn.commit()
        conn.close()
        # configure_logging sets propagate=False on the repro root (its
        # handler is the sink of record); let records through to caplog here.
        root = get_logger()
        previous = root.propagate
        root.propagate = True
        try:
            with caplog.at_level(logging.INFO, logger="repro.orchestration.store"):
                with ResultStore(path):
                    pass
        finally:
            root.propagate = previous
        added = [r.getMessage() for r in caplog.records if "added" in r.getMessage()]
        assert any("telemetry_json" in m for m in added)
        assert any("heartbeat_at" in m for m in added)


# --------------------------------------------------------------------------- #
# result store: telemetry column + claim leases
# --------------------------------------------------------------------------- #
#: the runs schema as PR 5 shipped it (no telemetry/heartbeat columns)
_LEGACY_PR5_SCHEMA = """
CREATE TABLE runs (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    experiment  TEXT NOT NULL,
    param_hash  TEXT NOT NULL,
    seed        INTEGER NOT NULL,
    status      TEXT NOT NULL CHECK (status IN ('ok', 'failed')),
    params      TEXT NOT NULL,
    backend     TEXT,
    spec_json   TEXT,
    description TEXT NOT NULL DEFAULT '',
    headers     TEXT NOT NULL DEFAULT '[]',
    rows        TEXT NOT NULL DEFAULT '[]',
    notes       TEXT NOT NULL DEFAULT '[]',
    error       TEXT,
    duration_s  REAL,
    created_at  TEXT NOT NULL DEFAULT (datetime('now')),
    UNIQUE (experiment, param_hash, seed)
);
"""


class _FakeResult:
    description = "fake"
    headers = ("a",)
    rows = ({"a": 1},)
    notes = ()


def _claim(store: ResultStore, experiment: str, params: dict, seed: int, owner: str):
    """Queue one cell and claim it as ``owner``."""
    from repro.orchestration import cell_spec_json, param_hash

    spec = cell_spec_json(experiment, params, seed)
    store.enqueue_cells([(experiment, param_hash(params), seed, spec)])
    return store.claim_cell(owner)


class TestStoreTelemetry:
    def test_round_trip_and_heartbeat_stamp(self, tmp_path):
        doc = {"wall_s": 1.25, "phases": {"drr": {"wall_s": 1.0, "rounds": {"count": 3}}}}
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.record_result(
                "exp", {"n": 8}, 1, _FakeResult(), telemetry_json=json.dumps(doc)
            )
            store.record_result("exp", {"n": 16}, 1, _FakeResult())
            runs = {run.params["n"]: run for run in store.query()}
        assert runs[8].telemetry == doc
        assert runs[8].heartbeat_at is not None
        assert runs[8].as_dict()["telemetry"] == doc
        assert runs[16].telemetry is None
        assert runs[16].heartbeat_at is not None

    def test_failure_clears_telemetry(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.record_result(
                "exp", {"n": 8}, 1, _FakeResult(), telemetry_json=json.dumps({"wall_s": 1.0})
            )
            store.record_failure("exp", {"n": 8}, 1, "boom")
            run = store.query()[0]
        assert run.status == "failed"
        assert run.telemetry is None

    def test_legacy_store_migrates_in_place(self, tmp_path):
        path = tmp_path / "legacy.sqlite"
        conn = sqlite3.connect(str(path))
        conn.executescript(_LEGACY_PR5_SCHEMA)
        conn.execute(
            "INSERT INTO runs (experiment, param_hash, seed, status, params, backend)"
            " VALUES ('old', 'abc', 1, 'ok', '{}', 'vectorized')"
        )
        conn.commit()
        conn.close()
        with ResultStore(path) as store:
            run = store.query()[0]
            assert run.telemetry is None
            assert run.heartbeat_at is None
            # the migrated store accepts telemetry writes and claim leases
            store.record_result(
                "old", {}, 1, _FakeResult(), telemetry_json=json.dumps({"wall_s": 2.0})
            )
            _claim(store, "old", {"n": 1}, 7, owner="w1")
            assert store.query()[0].telemetry == {"wall_s": 2.0}
            assert store.claims()[0]["owner"] == "w1"

    def test_claim_lease_renew_and_release(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            claim = _claim(store, "exp", {"n": 8}, 1, owner="w0")
            (lease,) = store.claims()
            assert lease["param_hash"] == claim.param_hash
            assert lease["age_s"] >= 0.0
            assert store.renew_lease(claim.key, "w0")  # refresh, not duplicate
            assert len(store.claims()) == 1
            assert store.claims(experiment="other") == []
            # finishing the cell ends the claim
            store.record_result("exp", {"n": 8}, 1, _FakeResult())
            store.finish_cell(claim.key, "done")
            assert store.claims() == []
            # requeue_cell releases without recording
            again = _claim(store, "exp", {"n": 8}, 2, owner="w0")
            store.requeue_cell(again.key)
            assert store.claims() == []
            assert not store.renew_lease(again.key, "w0")


# --------------------------------------------------------------------------- #
# sweeps: per-cell telemetry + liveness stamps
# --------------------------------------------------------------------------- #
class TestSweepTelemetry:
    def test_sweep_rows_carry_telemetry_and_heartbeat(self, tmp_path):
        spec = RunSpec(protocol="drr", params={"n": 48}, seed=3, telemetry=True)
        cells = cells_from_run_specs([spec])
        with ResultStore(tmp_path / "s.sqlite") as store:
            report = SweepRunner(store, jobs=1).run_cells(cells, name="tel")
            assert report.executed == 1 and report.failed == 0
            run = store.query()[0]
            assert run.telemetry is not None
            assert run.telemetry["wall_s"] > 0.0
            assert run.heartbeat_at is not None
            assert store.claims() == []  # no claim outlives the sweep

            # resume is untouched by the toggle: the same spec without
            # telemetry hashes to the same cell and is skipped
            plain_cells = cells_from_run_specs([spec.with_telemetry(False)])
            assert plain_cells[0].param_hash == cells[0].param_hash
            resume = SweepRunner(store, jobs=1).run_cells(plain_cells, name="tel")
            assert resume.skipped == 1 and resume.executed == 0

    def test_sweep_without_telemetry_stores_none(self, tmp_path):
        spec = RunSpec(protocol="drr", params={"n": 48}, seed=3)
        with ResultStore(tmp_path / "s.sqlite") as store:
            SweepRunner(store, jobs=1).run_cells(cells_from_run_specs([spec]))
            assert store.query()[0].telemetry is None


# --------------------------------------------------------------------------- #
# CLI surfaces
# --------------------------------------------------------------------------- #
class TestCli:
    def test_run_telemetry_prints_summary_and_writes_jsonl(self, tmp_path, capsys):
        from repro.harness.cli import main

        events = tmp_path / "events.jsonl"
        rc = main(["run", "--n", "500", "--telemetry", str(events)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry        : wall" in out
        assert "phase drr" in out
        lines = [json.loads(line) for line in events.read_text().splitlines()]
        assert lines[0]["event"] == "run"

    def test_run_spec_with_telemetry(self, tmp_path, capsys):
        from repro.harness.cli import main

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps({"protocol": "drr", "params": {"n": 64}, "seed": 4})
        )
        rc = main(["run", "--spec", str(spec_file), "--telemetry"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "+telemetry" in out
        assert "telemetry        : wall" in out

    def test_results_telemetry_lists_rows_and_claims(self, tmp_path, capsys):
        from repro.harness.cli import main

        store_path = tmp_path / "s.sqlite"
        with ResultStore(store_path) as store:
            store.record_result(
                "exp", {"n": 8}, 1, _FakeResult(),
                telemetry_json=json.dumps({"wall_s": 0.5, "phases": {}}),
            )
            _claim(store, "exp", {"n": 9}, 2, owner="w0")
        rc = main(["results", "--store", str(store_path), "--telemetry"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry        : wall 0.500s" in out
        assert "w0" in out

    def test_results_plot_requires_bench(self, tmp_path, capsys):
        from repro.harness.cli import main

        store_path = tmp_path / "s.sqlite"
        with ResultStore(store_path):
            pass
        rc = main(["results", "--store", str(store_path), "--plot"])
        assert rc == 2
        assert "--bench" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# bench trajectory figures (pure planning; rendering needs matplotlib)
# --------------------------------------------------------------------------- #
class TestBenchFigures:
    ROWS = [
        {"bench": "smoke", "protocol": "p", "backend": "vectorized", "n": 100,
         "wall_s": 1.0, "git_sha": "aaa"},
        {"bench": "smoke", "protocol": "p", "backend": "vectorized", "n": 100,
         "wall_s": 3.0, "git_sha": "aaa"},
        {"bench": "smoke", "protocol": "p", "backend": "sharded", "shards": 2,
         "n": 100, "wall_s": 0.5, "git_sha": "bbb"},
        {"bench": "smoke", "protocol": "q", "backend": "vectorized", "n": 100,
         "wall_s": 2.0, "git_sha": "bbb"},
        {"bench": "smoke", "protocol": "q", "backend": "vectorized", "n": 100,
         "git_sha": "bbb"},  # no wall_s: skipped
    ]

    def test_plan_groups_by_bench_and_protocol(self):
        from repro.harness.plotting import plan_bench_figures

        plans = plan_bench_figures(self.ROWS)
        assert [(p["bench"], p["protocol"]) for p in plans] == [("smoke", "p"), ("smoke", "q")]
        p_plan = plans[0]
        assert p_plan["xticks"] == ["aaa", "bbb"]
        # same-commit repetitions average; sharded series is labelled with P
        assert p_plan["series"]["vectorized n=100"] == ([0.0], [2.0])
        assert p_plan["series"]["sharded[2] n=100"] == ([1.0], [0.5])

    def test_plan_empty_rows(self):
        from repro.harness.plotting import plan_bench_figures

        assert plan_bench_figures([]) == []

    def test_render_requires_matplotlib_or_writes(self, tmp_path):
        from repro.harness.plotting import PlottingUnavailableError, render_bench_plots

        try:
            written = render_bench_plots(self.ROWS, tmp_path)
        except PlottingUnavailableError as exc:
            assert "matplotlib" in str(exc)
        else:
            assert len(written) == 2
            assert all(path.exists() for path in written)
