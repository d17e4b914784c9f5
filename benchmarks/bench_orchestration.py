"""Orchestration: parallel vs serial sweep throughput, and resume overhead.

Unlike the E1-E12 benchmarks this one measures the *platform*, not the
protocols: the same multi-experiment grid is executed through the sweep
runner with one worker and with several, and the speedup plus the cost of a
skip-completed resume pass are reported.  Cells are deliberately sized so
per-cell work dominates child-worker overhead at ``--full-sweep`` scale
while the default stays CI-friendly.
"""

from __future__ import annotations

import os
import time

from repro.orchestration import (
    ExperimentPlan,
    ResultStore,
    SweepDefinition,
    SweepRunner,
    expand_cells,
)

#: at least 2 so the runner's child workers are always exercised, even on
#: single-core CI runners where the speedup itself degenerates to ~1x.
PARALLEL_JOBS = max(2, min(4, os.cpu_count() or 1))


def _definition(full_sweep: bool) -> SweepDefinition:
    ns = [256, 512, 1024] if full_sweep else [64, 128]
    reps = 3 if full_sweep else 2
    return SweepDefinition(
        name="bench",
        seed=1,
        repetitions=reps,
        plans=(
            ExperimentPlan(experiment="table1", grid={"ns": ns, "repetitions": 1}),
            ExperimentPlan(experiment="forest", grid={"ns": ns, "repetitions": 1}),
            ExperimentPlan(experiment="lower-bound", grid={"ns": ns, "repetitions": 1}),
            ExperimentPlan(experiment="phase-breakdown", grid={"ns": ns, "repetitions": 1}),
        ),
    )


def _run_sweep(definition: SweepDefinition, tmp_path, jobs: int, tag: str):
    with ResultStore(tmp_path / f"{tag}.sqlite") as store:
        report = SweepRunner(store, jobs=jobs).run(definition)
        assert report.failed == 0
        return report


def test_sweep_serial(benchmark, full_sweep, tmp_path):
    definition = _definition(full_sweep)
    report = benchmark.pedantic(
        _run_sweep, args=(definition, tmp_path, 1, "serial"), iterations=1, rounds=1
    )
    assert report.executed == len(expand_cells(definition))


def test_sweep_parallel(benchmark, full_sweep, tmp_path):
    definition = _definition(full_sweep)
    report = benchmark.pedantic(
        _run_sweep,
        args=(definition, tmp_path, PARALLEL_JOBS, "parallel"),
        iterations=1,
        rounds=1,
    )
    assert report.executed == len(expand_cells(definition))


def test_parallel_speedup_and_resume(full_sweep, tmp_path):
    """Direct comparison in one process: speedup ratio + resume cost."""
    definition = _definition(full_sweep)
    cells = len(expand_cells(definition))

    start = time.perf_counter()
    _run_sweep(definition, tmp_path, 1, "cmp-serial")
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    _run_sweep(definition, tmp_path, PARALLEL_JOBS, "cmp-parallel")
    parallel_s = time.perf_counter() - start

    # resume against the already-filled parallel store: zero cells execute
    with ResultStore(tmp_path / "cmp-parallel.sqlite") as store:
        start = time.perf_counter()
        resumed = SweepRunner(store, jobs=1).run(definition)
        resume_s = time.perf_counter() - start
    assert resumed.executed == 0
    assert resumed.skipped == cells

    print()
    print(f"cells: {cells}, workers: {PARALLEL_JOBS}")
    print(f"serial   : {serial_s:.2f}s ({cells / serial_s:.1f} cells/s)")
    print(f"parallel : {parallel_s:.2f}s ({cells / parallel_s:.1f} cells/s, "
          f"{serial_s / parallel_s:.2f}x speedup)")
    print(f"resume   : {resume_s * 1000:.0f}ms for {cells} cached cells")
    # The pool must never be pathologically slower than serial (generous
    # bound: tiny CI cells are dominated by fork overhead).
    assert parallel_s < 5.0 * serial_s + 5.0
    # resume never recomputes, so it must be far cheaper than the sweep
    assert resume_s < max(0.5 * serial_s, 1.0)
