"""Backend registry round-trips and the retired ``sharded`` backend.

Every registered backend name must survive ``RunSpec`` validation, JSON
serialisation, and ``drr-gossip spec validate``.  The removed ``sharded``
backend and the ``backend_options`` it needed must fail at every entry
point with the removal pointer (never a traceback or "unknown backend"),
while specs and stored rows written before the removal keep their
identities and stay readable.  Also covers the opt-in dtype narrowing
flags of :mod:`repro.substrate.tuning`.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro.api import RunSpec, SpecValidationError
from repro.core import run_drr
from repro.harness.cli import main as cli_main
from repro.orchestration import ResultStore
from repro.serialization import canonical_json
from repro.substrate import BACKENDS, sample_uniform, tuning


def _spec_file(tmp_path, backend: str):
    path = tmp_path / f"{backend}.toml"
    path.write_text(
        "[run]\n"
        'protocol = "drr"\n'
        f'backend = "{backend}"\n'
        "seed = 3\n"
        "[run.params]\n"
        "n = 64\n"
    )
    return path


# --------------------------------------------------------------------------- #
# every registered backend round-trips through spec machinery
# --------------------------------------------------------------------------- #
class TestBackendRoundTrip:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_runspec_accepts_and_serialises_every_backend(self, backend):
        spec = RunSpec(protocol="drr", params={"n": 64}, backend=backend, seed=5)
        assert spec.backend == backend
        rebuilt = RunSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.spec_hash() == spec.spec_hash()

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_spec_validate_cli_accepts_every_backend(self, backend, tmp_path, capsys):
        path = _spec_file(tmp_path, backend)
        assert cli_main(["spec", "validate", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_unknown_backend_fails_spec_validation(self):
        with pytest.raises(SpecValidationError, match="unknown substrate backend"):
            RunSpec(protocol="drr", params={"n": 64}, backend="quantum")


# --------------------------------------------------------------------------- #
# the retired sharded backend and its backend_options
# --------------------------------------------------------------------------- #
_LEGACY_DOC = {"protocol": "drr", "params": {"n": 64}, "seed": 1}


class TestRetiredSharded:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: RunSpec(protocol="drr", params={"n": 64}, backend="sharded"),
            lambda: RunSpec.from_dict({**_LEGACY_DOC, "backend": "sharded"}),
            lambda: RunSpec.from_json(json.dumps({**_LEGACY_DOC, "backend": "sharded"})),
            lambda: RunSpec.from_dict({**_LEGACY_DOC, "backend_options": {"shards": 2}}),
            lambda: RunSpec.from_dict(
                {**_LEGACY_DOC, "backend": "sharded", "backend_options": {"min_batch": 0}}
            ),
        ],
        ids=["constructor", "from_dict", "from_json", "options", "sharded+options"],
    )
    def test_spec_fails_with_removal_pointer(self, build):
        with pytest.raises(SpecValidationError, match="removed") as excinfo:
            build()
        assert "vectorized" in str(excinfo.value)

    @pytest.mark.parametrize("empty", [{}, None])
    def test_empty_backend_options_keep_spec_identity(self, empty):
        plain = RunSpec.from_dict(_LEGACY_DOC)
        legacy = RunSpec.from_dict({**_LEGACY_DOC, "backend_options": empty})
        assert legacy == plain
        assert legacy.spec_hash() == plain.spec_hash()
        assert legacy.param_hash() == plain.param_hash()
        assert "backend_options" not in legacy.to_dict()

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--n", "64", "--backend", "sharded"],
            ["sweep", "--experiments", "table1", "--backend", "sharded"],
        ],
        ids=["run", "sweep"],
    )
    def test_cli_backend_flag_fails_with_removal_pointer(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "removed" in err and "vectorized" in err

    def test_spec_validate_cli_fails_with_removal_pointer(self, tmp_path, capsys):
        assert cli_main(["spec", "validate", str(_spec_file(tmp_path, "sharded"))]) != 0
        captured = capsys.readouterr()
        assert "removed" in captured.out + captured.err

    def test_stored_sharded_rows_stay_readable(self, tmp_path, capsys):
        """A row stored for a sharded spec (as sweeps wrote them) still lists."""
        envelope = repro.run(RunSpec.from_dict(_LEGACY_DOC))
        doc = {**envelope.spec.to_dict(), "backend": "sharded", "backend_options": {"shards": 2}}
        store_path = tmp_path / "legacy.sqlite"
        with ResultStore(store_path) as store:
            store.record_result(
                "run:drr",
                {k: v for k, v in doc.items() if k != "seed"},
                doc["seed"],
                envelope.to_experiment_result(),
                spec_json=canonical_json(doc),
                result_json=json.dumps({**envelope.to_dict(), "spec": doc}),
            )
        assert cli_main(["results", "--store", str(store_path)]) == 0
        listing = capsys.readouterr().out
        assert "run:drr" in listing and "sharded" in listing
        dump = tmp_path / "dump.json"
        report = tmp_path / "report.md"
        assert cli_main(
            ["results", "--store", str(store_path), "--json", str(dump), "--markdown", str(report)]
        ) == 0
        assert "sharded" in dump.read_text()
        assert report.exists()


# --------------------------------------------------------------------------- #
# dtype narrowing (repro.substrate.tuning)
# --------------------------------------------------------------------------- #
class TestTuning:
    def test_default_is_everything_off(self):
        cfg = tuning.get_tuning()
        assert not cfg.narrow_ids
        assert cfg.id_dtype(10**6) == np.int64

    def test_narrow_ids_preserves_the_rng_stream_and_results(self):
        reference = run_drr(512, rng=9)
        with tuning.tuned(narrow_ids=True):
            assert tuning.get_tuning().id_dtype(512) == np.int32
            narrowed = run_drr(512, rng=9)
        assert np.array_equal(reference.forest.parent, narrowed.forest.parent)
        assert reference.metrics.total_messages == narrowed.metrics.total_messages
        # context manager restored the defaults
        assert not tuning.get_tuning().narrow_ids

    def test_sample_uniform_storage_dtype_only(self):
        rng_wide = np.random.default_rng(4)
        rng_narrow = np.random.default_rng(4)
        wide = sample_uniform(rng_wide, 1000, 256, exclude=np.arange(256))
        with tuning.tuned(narrow_ids=True):
            narrow = sample_uniform(rng_narrow, 1000, 256, exclude=np.arange(256))
        assert wide.dtype == np.int64
        assert narrow.dtype == np.int32
        assert np.array_equal(wide, narrow.astype(np.int64))


# --------------------------------------------------------------------------- #
# the persisted benchmark trajectory
# --------------------------------------------------------------------------- #
class TestBenchTrajectory:
    def test_append_and_load_round_trip(self, tmp_path):
        from repro.harness.benchlog import append_bench_rows, format_bench_table, load_bench_rows

        path = tmp_path / "BENCH_substrate.json"
        append_bench_rows(
            [{"bench": "smoke", "protocol": "drr", "n": 10, "backend": "vectorized", "wall_s": 0.5}],
            path,
        )
        append_bench_rows(
            [{"bench": "smoke", "protocol": "drr", "n": 10, "backend": "sharded",
              "shards": 2, "wall_s": 0.25}],
            path,
        )
        rows = load_bench_rows(path)
        assert len(rows) == 2
        assert all("timestamp" in row for row in rows)
        table = format_bench_table(rows)
        assert "vectorized" in table and "sharded" in table

    def test_rows_are_stamped_with_the_host(self, tmp_path):
        from repro.harness.benchlog import append_bench_rows, host_fingerprint, load_bench_rows

        path = tmp_path / "BENCH_substrate.json"
        mine = {"cpu_count": 64, "platform": "elsewhere", "python": "3.0", "numpy": "1.0"}
        append_bench_rows(
            [
                {"bench": "smoke", "n": 10, "wall_s": 0.5},
                {"bench": "smoke", "n": 10, "wall_s": 0.5, "host": mine},
            ],
            path,
        )
        stamped, kept = load_bench_rows(path)
        assert stamped["host"] == host_fingerprint()
        assert set(stamped["host"]) == {"cpu_count", "platform", "python", "numpy"}
        assert kept["host"] == mine

    def test_results_bench_cli(self, tmp_path, capsys):
        from repro.harness.benchlog import append_bench_rows

        path = tmp_path / "BENCH_substrate.json"
        append_bench_rows(
            [{"bench": "smoke", "protocol": "drr", "n": 10, "backend": "vectorized", "wall_s": 0.5}],
            path,
        )
        assert cli_main(["results", "--bench", "--bench-file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "vectorized" in out and "wall_s" in out

    def test_results_bench_cli_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert cli_main(["results", "--bench", "--bench-file", str(missing)]) == 0
        assert "no benchmark rows" in capsys.readouterr().out
