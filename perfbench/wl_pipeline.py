"""The two n=10^6 pipeline workloads: one drr-gossip spec, run over and over.

``avg-reliable-1e6`` is the reference workload: Algorithm 8 (all seven
phases) on a reliable network, so the reliable Phase III relay runs and no
loss hashing does.  ``max-lossy-1e6`` is Algorithm 7 with 5% message loss:
the same forest phases, every delivery hashed through ``LossOracle`` and the
lossy relay, and no gossip-ave or data-spread.  A change to one of those
mechanisms should move one workload and leave the other where it was.
"""

from __future__ import annotations

import hashlib
import random
import time

import numpy as np

from common import Outcome, import_probe, p50, peak_rss_mb
from layers import PHASES, PROGRAM_PHASE, install, layer_metrics
from spans import Patcher, Recorder

N = 10**6
WORKLOADS = {
    "avg-reliable-1e6": {"aggregate": "average", "failures": None},
    "max-lossy-1e6": {"aggregate": "max", "failures": {"loss_probability": 0.05}},
}
#: set-ups measured per run; setup_s is their median
SETUP_SAMPLES = 5
#: fewest timed runs per measurement, however short --seconds is
MIN_RUNS = 3
#: size of the warm-up run that loads lazy imports before timing
WARM_N = 4096


def spec_doc(workload: str, seed: int, n: int = N) -> dict:
    rng = random.Random(f"{workload}/{seed}")
    shape = WORKLOADS[workload]
    doc = {
        "protocol": "drr-gossip",
        "params": {"n": n, "aggregate": shape["aggregate"], "workload": "uniform"},
        "seed": rng.randrange(2**31),
    }
    if shape["failures"] is not None:
        doc["failures"] = dict(shape["failures"])
    return doc


def fingerprint(result) -> tuple:
    """Everything a fixed seed must reproduce exactly."""
    estimates = np.ascontiguousarray(result.estimates, dtype=float)
    return (
        result.rounds,
        result.messages,
        tuple(sorted(result.messages_by_phase.items())),
        tuple(sorted(result.rounds_by_phase.items())),
        hashlib.blake2b(estimates.tobytes(), digest_size=16).hexdigest(),
    )


def _timed_runs(repro, spec, seconds: float, least: int, out: Outcome, reference: list):
    """Run ``spec`` for ``seconds`` (at least ``least`` times); returns wall times.

    ``reference`` holds the first fingerprint seen; every later run must match it.
    """
    walls: list[float] = []
    result = None
    begin = time.perf_counter()
    while len(walls) < least or time.perf_counter() - begin < seconds:
        start = time.perf_counter()
        result = repro.run(spec)
        walls.append(time.perf_counter() - start)
        out.op()
        got = fingerprint(result)
        if not reference:
            reference.append(got)
        else:
            out.check("same outputs for a fixed seed", got == reference[0], f"{got[:2]}")
    return walls, result


def _check_result(workload: str, result, out: Outcome) -> None:
    summary = result.summary
    if workload == "avg-reliable-1e6":
        out.check("coverage 1.0", summary["coverage"] == 1.0, str(summary["coverage"]))
        out.check(
            "max_rel_error <= 1e-6", summary["max_rel_error"] <= 1e-6, str(summary["max_rel_error"])
        )
    else:
        # Gossip-max only ever moves real inputs around: no estimate can
        # exceed the true maximum.
        top = float(np.nanmax(result.estimates))
        out.check("max estimates bounded by the true max", top <= summary["exact"], f"{top}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    import repro

    out = Outcome()
    spec = repro.RunSpec.from_dict(spec_doc(workload, seed))
    warm = repro.RunSpec.from_dict(spec_doc(workload, seed, n=WARM_N))
    if trace:
        repro.run(warm)
        _traced(repro, workload, spec, seconds, out)
        return out

    setups = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        repro.run(warm)
        setups.append(time.perf_counter() - start + import_probe(("numpy", "repro")))
    reference: list = []
    walls, result = _timed_runs(repro, spec, seconds, MIN_RUNS, out, reference)
    _check_result(workload, result, out)

    out.metric("setup_s", p50(setups))
    out.metric("peak_rss_mb", peak_rss_mb())
    out.metric("ok_frac", 1.0 - out.failed / out.attempted)
    out.metric("result_s_p50", p50(walls))
    out.metric("ops_per_s", len(walls) / sum(walls))
    out.metric("messages_per_n", result.messages / N)
    out.metric("rounds", result.rounds)
    out.notes.append(
        f"result_s_p50 over {len(walls)} runs: " + " ".join(f"{w:.3f}" for w in walls)
    )
    out.notes.append(
        f"max_rel_error {result.summary['max_rel_error']:.3e} coverage {result.summary['coverage']}"
    )
    return out


def _traced(repro, workload: str, spec, seconds: float, out: Outcome) -> None:
    reference: list = []
    untraced, _ = _timed_runs(repro, spec, seconds / 2, 2, out, reference)

    rec = Recorder()
    patcher = Patcher(rec)
    install(patcher)
    try:
        traced, result = _timed_runs(repro, spec, seconds / 2, 2, out, reference)
        metrics = layer_metrics(rec.spans, rec.counters, per=len(traced))
        # One more traced run with the program's own telemetry on, to set
        # the benchmark's phase spans beside the program's phase wall.
        before = len(rec.spans)
        tel_result = repro.run(spec.with_telemetry(True))
        tel_spans = layer_metrics(rec.spans[before:], {})
    finally:
        patcher.restore()
    out.op()
    out.check("telemetry leaves outputs unchanged", fingerprint(tel_result) == reference[0])
    _check_result(workload, result, out)

    messages = {PROGRAM_PHASE.get(k, k): v for k, v in result.messages_by_phase.items()}
    rounds = {PROGRAM_PHASE.get(k, k): v for k, v in result.rounds_by_phase.items()}
    glue = metrics.get("api.run.s", 0.0)
    for phase in PHASES:
        if f"core.{phase}.s" not in metrics:
            continue  # the phase does not run in this pipeline
        glue -= metrics[f"core.{phase}.s"]
        metrics[f"core.{phase}.messages"] = messages[phase]
        metrics[f"core.{phase}.rounds"] = rounds[phase]
    metrics["core.glue.s"] = glue
    metrics["core.max_rel_error"] = result.summary["max_rel_error"]
    metrics["core.coverage"] = result.summary["coverage"]
    metrics["api.run.calls"] = len(traced)  # the runs the figures average over
    metrics["trace.overhead_frac"] = p50(traced) / p50(untraced) - 1.0

    program = {
        PROGRAM_PHASE.get(k, k): v["wall_s"] for k, v in tel_result.telemetry["phases"].items()
    }
    for phase in PHASES:
        if phase in program and f"core.{phase}.s" in tel_spans:
            metrics[f"telemetry.{phase}.wall_s"] = program[phase]
            metrics[f"telemetry.{phase}.diff_s"] = tel_spans[f"core.{phase}.s"] - program[phase]

    for name, value in metrics.items():
        out.metric(name, value)
    out.notes.append(f"traced runs {len(traced)}, untraced runs {len(untraced)}")

