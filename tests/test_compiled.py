"""The ``compiled`` backend: registration, fallbacks, and primitive contracts.

The jitted loops themselves are exercised by the three-way equivalence
matrix in ``tests/test_substrate.py`` wherever numba is installed (the
``bench-compiled`` CI job); this file covers everything that must hold on
*every* machine:

* dynamic registration — ``BACKENDS`` grows/shrinks with numba's
  availability, ``normalize_backend`` explains how to install the extra,
  and specs referencing ``backend="compiled"`` round-trip whenever the
  backend is registered;
* the python-fallback mode (``REPRO_COMPILED_PYTHON`` /
  :func:`python_fallback`), which must be bit-identical to vectorized;
* the lossless dtype-narrowing pass (ids only, never accumulators);
* the single-pass ``occurrence_index`` rewrite against a naive reference;
* the ``compact_frontier`` / ``fold_pushes`` kernel primitives;
* the ``LossOracle`` batch-hasher seam the compiled module installs.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api import RunSpec
from repro.core import DRRGossipConfig, drr_gossip_average, run_drr
from repro.simulator.errors import ConfigurationError
from repro.simulator.failures import FailureModel, LossOracle, kind_salt
from repro.simulator.message import MessageKind
from repro.substrate import (
    BACKENDS,
    NUMBA_AVAILABLE,
    UNAVAILABLE_BACKENDS,
    VectorizedKernel,
    available_backends,
    compact_frontier,
    fold_pushes,
    get_kernel,
    normalize_backend,
    occurrence_index,
)
from repro.substrate import compiled as compiled_mod
from repro.substrate.compiled import (
    NUMBA_REQUIREMENT,
    CompiledKernel,
    python_fallback,
)
from repro.substrate.tuning import get_tuning, tuned


def naive_occurrence_index(keys) -> np.ndarray:
    """Reference: rank of each element among equal keys, in array order."""
    seen: dict = {}
    out = np.empty(len(keys), dtype=np.int64)
    for i, key in enumerate(keys):
        k = key.item() if hasattr(key, "item") else key
        out[i] = seen.get(k, 0)
        seen[k] = out[i] + 1
    return out


# --------------------------------------------------------------------------- #
# registration / deregistration
# --------------------------------------------------------------------------- #
class TestRegistration:
    def test_registry_matches_numba_availability(self):
        if NUMBA_AVAILABLE:
            assert "compiled" in BACKENDS
            assert "compiled" not in UNAVAILABLE_BACKENDS
        else:
            assert "compiled" not in BACKENDS
            assert UNAVAILABLE_BACKENDS["compiled"] == NUMBA_REQUIREMENT

    def test_unavailable_error_names_the_extra_and_the_alternatives(self):
        if NUMBA_AVAILABLE:
            pytest.skip("numba installed; the unavailable error cannot fire")
        with pytest.raises(ConfigurationError) as exc:
            normalize_backend("compiled")
        message = str(exc.value)
        assert "numba" in message
        assert "pip install .[compiled]" in message
        # the dynamic registry contents, so users see what they CAN pick
        assert ", ".join(available_backends()) in message

    def test_import_failure_deregisters(self, monkeypatch):
        """Reloading the module with numba unimportable must deregister."""
        import builtins

        real_import = builtins.__import__

        def blocked(name, *args, **kwargs):
            if name == "numba" or name.startswith("numba."):
                raise ImportError("numba blocked by test")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", blocked)
        monkeypatch.delenv("REPRO_COMPILED_PYTHON", raising=False)
        try:
            reloaded = importlib.reload(compiled_mod)
            assert reloaded.NUMBA_AVAILABLE is False
            assert "compiled" not in BACKENDS
            assert UNAVAILABLE_BACKENDS["compiled"] == reloaded.NUMBA_REQUIREMENT
        finally:
            monkeypatch.undo()
            importlib.reload(compiled_mod)
        # back to the environment's true state
        assert ("compiled" in BACKENDS) == compiled_mod.NUMBA_AVAILABLE

    def test_python_fallback_registers_and_restores(self):
        before = "compiled" in BACKENDS
        with python_fallback() as kernel:
            assert "compiled" in BACKENDS
            assert "compiled" not in UNAVAILABLE_BACKENDS
            assert normalize_backend("compiled") == "compiled"
            assert kernel.name == "compiled"
            assert type(kernel).__name__ == "CompiledKernel"
        assert ("compiled" in BACKENDS) == before
        if not before:
            assert UNAVAILABLE_BACKENDS["compiled"] == NUMBA_REQUIREMENT

    def test_env_variable_forces_registration(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED_PYTHON", "1")
        was_registered = "compiled" in BACKENDS
        try:
            assert compiled_mod.register() is True
            assert "compiled" in BACKENDS
        finally:
            if not was_registered and not NUMBA_AVAILABLE:
                compiled_mod.deregister()

    def test_get_kernel_roundtrip_when_registered(self):
        with python_fallback():
            kernel = get_kernel("compiled")
            assert normalize_backend(kernel) == "compiled"


# --------------------------------------------------------------------------- #
# spec round-trips
# --------------------------------------------------------------------------- #
class TestSpecRoundTrip:
    def test_runspec_roundtrips(self):
        with python_fallback():
            spec = RunSpec(protocol="drr", params={"n": 64}, seed=3, backend="compiled")
            doc = spec.to_dict()
            assert doc["backend"] == "compiled"
            assert RunSpec.from_dict(doc) == spec
            assert RunSpec.from_json(spec.to_json()) == spec

    def test_runspec_rejects_compiled_when_unregistered(self):
        if NUMBA_AVAILABLE:
            pytest.skip("numba installed; compiled is always registered")
        with pytest.raises(Exception, match="not available"):
            RunSpec(protocol="drr", params={"n": 64}, backend="compiled")

    def test_dispatch_runs_compiled_spec(self):
        with python_fallback():
            spec = RunSpec(protocol="drr", params={"n": 128}, seed=5, backend="compiled")
            reference = repro.run(spec.with_backend("vectorized"))
            result = repro.run(spec)
            assert result.rounds == reference.rounds
            assert result.messages == reference.messages


# --------------------------------------------------------------------------- #
# python-fallback equivalence + dtype narrowing
# --------------------------------------------------------------------------- #
class TestFallbackEquivalence:
    @pytest.mark.parametrize("fm", [FailureModel(), FailureModel(0.1, 0.1)],
                             ids=["reliable", "lossy+crash"])
    def test_pipeline_bit_identical_to_vectorized(self, fm):
        values = np.random.default_rng(3).normal(10.0, 2.0, size=2000)
        with python_fallback():
            compiled = drr_gossip_average(
                values, rng=2, config=DRRGossipConfig(failure_model=fm, backend="compiled")
            )
        reference = drr_gossip_average(
            values, rng=2, config=DRRGossipConfig(failure_model=fm, backend="vectorized")
        )
        assert compiled.rounds == reference.rounds
        assert compiled.messages == reference.messages
        assert compiled.metrics.messages_by_phase() == reference.metrics.messages_by_phase()
        assert np.array_equal(compiled.estimates, reference.estimates, equal_nan=True)

    def test_narrowing_is_value_identical(self):
        """Narrowed id draws must be the same numbers the wide path draws."""
        with python_fallback() as kernel:
            assert kernel.auto_narrow_ids is True
            rng = np.random.default_rng(7)
            narrowed = kernel.sample_uniform(rng, 10_000, 4096, exclude=None)
            wide = VectorizedKernel.sample_uniform(
                np.random.default_rng(7), 10_000, 4096, exclude=None
            )
            assert narrowed.dtype == np.int32  # n < 2^31: provably lossless
            assert np.array_equal(narrowed.astype(np.int64), np.asarray(wide, dtype=np.int64))

    def test_narrowing_respects_explicit_tuning(self):
        """An explicit wide tuning is not overridden behind the user's back."""
        with python_fallback() as kernel:
            with tuned(narrow_ids=True):
                assert get_tuning().narrow_ids
                out = kernel.sample_uniform(np.random.default_rng(1), 1000, 64)
            assert out.dtype == np.int32

    def test_narrowed_run_matches_wide_run(self, monkeypatch):
        """End-to-end: auto-narrowing must not change a single bit."""
        values = np.random.default_rng(5).uniform(0.0, 9.0, size=1500)
        fm = FailureModel(loss_probability=0.05)
        with python_fallback():
            narrowed = drr_gossip_average(
                values, rng=4, config=DRRGossipConfig(failure_model=fm, backend="compiled")
            )
            monkeypatch.setattr(CompiledKernel, "auto_narrow_ids", False)
            wide = drr_gossip_average(
                values, rng=4, config=DRRGossipConfig(failure_model=fm, backend="compiled")
            )
        assert narrowed.rounds == wide.rounds
        assert narrowed.messages == wide.messages
        assert np.array_equal(narrowed.estimates, wide.estimates, equal_nan=True)

    def test_drr_identical_to_vectorized(self):
        with python_fallback():
            compiled = run_drr(512, rng=9, backend="compiled")
        reference = run_drr(512, rng=9, backend="vectorized")
        assert np.array_equal(compiled.forest.parent, reference.forest.parent)
        assert compiled.rounds == reference.rounds
        assert compiled.metrics.total_messages == reference.metrics.total_messages


# --------------------------------------------------------------------------- #
# occurrence_index: single-pass rewrite vs naive reference
# --------------------------------------------------------------------------- #
class TestOccurrenceIndex:
    @given(
        keys=st.lists(st.integers(min_value=-50, max_value=50), max_size=400),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_dense_keys(self, keys):
        arr = np.array(keys, dtype=np.int64)
        assert np.array_equal(occurrence_index(arr), naive_occurrence_index(arr))

    @given(
        keys=st.lists(
            st.integers(min_value=-(2**40), max_value=2**40), max_size=200
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_sparse_keys_hit_the_sorted_fallback(self, keys):
        arr = np.array(keys, dtype=np.int64)
        assert np.array_equal(occurrence_index(arr), naive_occurrence_index(arr))

    def test_all_equal_keys(self):
        # Adversarial depth: every element is a duplicate of one key (the
        # peeling path would need `size` levels; must fall back, not crawl).
        arr = np.full(5000, 7, dtype=np.int64)
        assert np.array_equal(occurrence_index(arr), np.arange(5000))

    def test_all_distinct_fast_path(self):
        arr = np.random.default_rng(0).permutation(10_000)
        assert np.array_equal(occurrence_index(arr), np.zeros(10_000, dtype=np.int64))

    def test_empty_and_float_keys(self):
        assert occurrence_index(np.array([], dtype=np.int64)).size == 0
        floats = np.array([1.5, 1.5, 2.0, 1.5])
        assert np.array_equal(occurrence_index(floats), [0, 1, 0, 2])

    def test_relay_shaped_batch(self):
        # balls-in-bins duplicates, the Phase III forwarder distribution
        rng = np.random.default_rng(1)
        arr = rng.integers(0, 4000, size=20_000)
        assert np.array_equal(occurrence_index(arr), naive_occurrence_index(arr))

    def test_compiled_kernel_method_agrees(self):
        with python_fallback() as kernel:
            rng = np.random.default_rng(2)
            arr = rng.integers(0, 500, size=3000)
            assert np.array_equal(kernel.occurrence_index(arr), naive_occurrence_index(arr))


# --------------------------------------------------------------------------- #
# kernel primitives: compact_frontier / fold_pushes
# --------------------------------------------------------------------------- #
class TestNewPrimitives:
    def test_compact_frontier_matches_mask_gather(self):
        rng = np.random.default_rng(3)
        active = rng.permutation(5000)[:3000]
        drop = rng.random(3000) < 0.4
        expected = active[~drop]
        assert np.array_equal(compact_frontier(active, drop), expected)
        with python_fallback() as kernel:
            assert np.array_equal(kernel.compact_frontier(active, drop), expected)

    def test_fold_pushes_matches_bincount_fold(self):
        rng = np.random.default_rng(4)
        m, batch = 257, 4096
        receiver = rng.integers(-1, m, size=batch)
        send_s = rng.random(batch)
        send_g = rng.random(batch)
        s_ref, g_ref = rng.random(m), rng.random(m)
        s_new, g_new = s_ref.copy(), g_ref.copy()
        delivered = receiver >= 0
        s_ref += np.bincount(receiver[delivered], weights=send_s[delivered], minlength=m)
        g_ref += np.bincount(receiver[delivered], weights=send_g[delivered], minlength=m)
        fold_pushes(receiver, send_s, send_g, s_new, g_new)
        assert np.array_equal(s_new, s_ref)
        assert np.array_equal(g_new, g_ref)

    def test_fold_pushes_all_dropped_is_a_noop(self):
        receiver = np.full(100, -1, dtype=np.int64)
        s = np.random.default_rng(5).random(16)
        g = s.copy()
        before_s, before_g = s.copy(), g.copy()
        fold_pushes(receiver, np.ones(100), np.ones(100), s, g)
        assert np.array_equal(s, before_s) and np.array_equal(g, before_g)


# --------------------------------------------------------------------------- #
# the LossOracle batch-hasher seam
# --------------------------------------------------------------------------- #
class TestBatchHasherSeam:
    def test_hook_is_used_for_large_batches_only(self):
        from repro.simulator import failures

        calls = []
        oracle = LossOracle(0.25, key=99)

        def fake_hasher(key, kind_value, round_index, senders, recipients, nonces):
            calls.append(len(recipients))
            # echo what the pure-NumPy chain would produce, so fates match
            with np.errstate(over="ignore"):
                return failures._splitmix64(
                    failures._splitmix64(
                        failures._splitmix64(
                            failures._splitmix64(
                                failures._splitmix64(np.uint64(key) ^ kind_value)
                                ^ failures._as_u64(round_index)
                            )
                            ^ failures._as_u64(senders)
                        )
                        ^ failures._as_u64(recipients)
                    )
                    ^ failures._as_u64(nonces if nonces is not None else 0)
                )

        failures.set_batch_hasher(fake_hasher)
        try:
            small = np.arange(100)
            oracle.sample(1, MessageKind.GOSSIP, 7, small)
            assert calls == []  # below the 4096 threshold: NumPy path
            big = np.arange(10_000)
            hooked = oracle.sample(1, MessageKind.GOSSIP, 7, big)
        finally:
            failures.set_batch_hasher(None)
        native = oracle.sample(1, MessageKind.GOSSIP, 7, big)
        assert calls == [10_000]
        assert np.array_equal(hooked, native)

    def test_kind_salt_is_stable_for_str_and_enum(self):
        assert kind_salt(MessageKind.FORWARD) == kind_salt(str(MessageKind.FORWARD))


# --------------------------------------------------------------------------- #
# CLI integration
# --------------------------------------------------------------------------- #
class TestCli:
    def test_run_accepts_compiled_backend(self, capsys):
        from repro.harness.cli import main

        with python_fallback():
            code = main(["run", "--n", "256", "--backend", "compiled", "--seed", "3"])
        assert code == 0
        assert "aggregate" in capsys.readouterr().out
