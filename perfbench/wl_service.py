"""service-mixed: the job service under one closed-loop client.

The server runs in this process (``ServiceServer``) and one queue worker
runs beside it as a subprocess, with the command line ``serve --workers 1
--poll 0.01`` gives its pool; the server, the client and the worker share
one CPU (see ``common.pin``).  One client on one keep-alive
connection sends a novel drr-gossip spec at n=5000, waits for it with
``wait_for`` and fetches the result (a miss), then re-submits the ten specs
completed last and fetches each result (hits).  result_s_p50 is the miss
latency, ops_per_s counts both kinds (hits carry most of it), and
messages_per_n and rounds are medians over the results the misses served.  Spec validation and hashing, routing, SQLite writes beside indexed
reads, and the worker's poll and backoff loop carry most of the time; the
simulation itself is small.

In the traced run the worker subprocess starts through traced_worker.py,
which installs the same wraps and writes its spans to a file on shutdown;
the worker's figures cover its whole life, set-up job included.  Traced
figures are totals over the measured loop, not per operation.
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import OUT, Outcome, import_probe, p50, p90, peak_rss_mb, pin, subprocess_env
from layers import install, layer_metrics
from spans import Patcher, Recorder

NOVEL_N = 5000
#: cached re-submissions sent after each novel spec: the last REPEATS
#: served specs, one each.  Serving a result costs more for some envelopes
#: than for others (up to 1.5x at n=5000); a uniform random pick over all
#: served specs would give the first few specs of a run most of the hits,
#: and hit latency would then depend on which specs those were.
REPEATS = 10
#: the worker's idle poll (``serve --poll``) and the client's wait_for
#: poll.  At serve's default 0.2 s, the backoff ladder (0.1-1.6 s) is as
#: long as a burst of ten hits, so where in the ladder a novel spec lands,
#: and with it the miss latency, flips with the hit speed.  At 0.01 s the
#: worker has reached its 0.08 s cap long before the burst ends, so a miss
#: always waits out a capped sleep.
POLL_S = 0.01
SETUP_SAMPLES = 5
#: served results (the first ones) re-run in-process to check them
SAMPLED = 3
HERE = Path(__file__).resolve().parent


class Service:
    """One server, one worker subprocess and one client on a fresh store."""

    def __init__(self, root: Path, spans_out: Path | None = None) -> None:
        from repro.service import ServiceClient, ServiceServer, WorkerPool

        root.mkdir(parents=True, exist_ok=True)
        store = str(root / "service.sqlite")
        self.server = ServiceServer(store).start()
        # WorkerPool's command is exactly what `serve --workers 1 --poll
        # POLL_S` launches; it is started here so its output can go to a log.
        command = WorkerPool(store, 1, poll_s=POLL_S)._command + ["--worker-id", "perfbench-w0"]
        if spans_out is not None:
            launcher = [sys.executable, str(HERE / "traced_worker.py"), str(spans_out)]
            command = launcher + command[3:]  # drop "python -m repro"
        self.log_path = root / "worker.log"
        self._log = open(self.log_path, "wb")
        self.worker = subprocess.Popen(
            command, env=subprocess_env(), stdout=self._log, stderr=subprocess.STDOUT
        )
        pin(self.worker.pid)
        # No retries: a 503 (store busy) or a dropped connection raises, and
        # the loop counts it as a failed operation.
        self.client = ServiceClient(self.server.url, timeout_s=30.0, retries=0)
        self._stopped = False

    def miss(self, doc: dict) -> dict:
        run_id = self.client.submit(doc)["run_id"]
        self.client.wait_for(run_id, timeout_s=30.0, poll_s=POLL_S)
        return self.client.result(run_id)

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        self.client.close()
        if self.worker.poll() is None:
            self.worker.send_signal(signal.SIGTERM)
        try:
            self.worker.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.worker.kill()
            self.worker.wait()
        self._log.close()
        self.server.shutdown()


def novel_doc(rng: random.Random, n: int = NOVEL_N) -> dict:
    return {
        "protocol": "drr-gossip",
        "params": {"n": n, "aggregate": "average", "workload": "uniform"},
        "seed": rng.randrange(2**31),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    rng = random.Random(f"{workload}/{seed}")
    root = OUT / f"service-{seed}"
    shutil.rmtree(root, ignore_errors=True)
    spans_out = root / "worker-spans.json" if trace else None
    service = None
    try:
        setups = []
        for index in range(1 if trace else SETUP_SAMPLES):
            if service is not None:
                service.stop()
            probe = 0.0 if trace else import_probe(("numpy", "repro", "repro.service"))
            start = time.perf_counter()
            service = Service(root / f"setup{index}", spans_out)
            service.miss(novel_doc(rng, n=256))  # the worker is up and has run a job
            setups.append(time.perf_counter() - start + probe)

        rec = Recorder()
        patcher = Patcher(rec)
        if trace:
            install(patcher)
        try:
            misses, hits, counts, sample, wall = _loop(service, rng, seconds, out)
        finally:
            patcher.restore()
        service.stop()
        if spans_out is not None and spans_out.exists():
            rec.merge(json.loads(spans_out.read_text()))
        _check_sampled(sample, out)
    except BaseException:
        if service is not None:
            service.stop()
            sys.stderr.write(service.log_path.read_text(errors="replace")[-4000:])
        raise
    shutil.rmtree(root, ignore_errors=True)

    measured = len(misses) >= 2 and len(hits) >= 2  # else a failed check says why
    if trace and measured:
        metrics = layer_metrics(rec.spans, rec.counters)
        routes = ("post_runs", "get_run", "get_result", "other")
        routed = sum(metrics.get(f"service.route.{r}.s", 0.0) for r in routes)
        metrics["service.http.s"] = metrics.get("service.client.s", 0.0) - routed
        polls = metrics.get("service.route.get_run.calls", 0)
        metrics["service.polls_per_miss"] = polls / len(misses)
        metrics["orchestration.cell.exec_s"] = metrics.get("api.run.s", 0.0)
        for name, value in metrics.items():
            out.metric(name, value)
    elif measured:
        out.metric("setup_s", p50(setups))
        out.metric("peak_rss_mb", peak_rss_mb())
        out.metric("ok_frac", 1.0 - out.failed / out.attempted)
        out.metric("result_s_p50", p50(misses))
        out.metric("ops_per_s", (len(misses) + len(hits)) / wall)
        out.metric("messages_per_n", p50([messages / NOVEL_N for messages, _ in counts]))
        out.metric("rounds", p50([rounds for _, rounds in counts]))
    out.notes.append(f"samples: {len(misses)} misses, {len(hits)} hits in {wall:.1f}s")
    if measured:
        out.notes.append(
            f"miss p50 {1e3 * p50(misses):.1f} ms p90 {1e3 * p90(misses):.1f} ms, "
            f"hit p50 {1e3 * p50(hits):.2f} ms p90 {1e3 * p90(hits):.2f} ms"
        )
    return out


def envelope_key(result: dict) -> tuple:
    """Identity of a served envelope: every field, the estimates hashed."""
    rest = {k: v for k, v in result.items() if k != "estimates"}
    estimates = result.get("estimates")
    return repr(rest), None if estimates is None else hash(tuple(estimates))


def _loop(service: Service, rng: random.Random, seconds: float, out: Outcome):
    """The closed loop.

    Returns the miss and hit latencies, (messages, rounds) of each result a
    miss served, the sample and the wall time.

    The loop ends when ``seconds`` have passed, or early if the worker
    process has died.  Every served envelope is kept as its
    :func:`envelope_key`; the first ``SAMPLED`` are kept whole for the check
    against a direct run.
    """
    from repro.service import ServiceError

    misses: list[float] = []
    hits: list[float] = []
    counts: list[tuple[int, int]] = []
    served: list[tuple[dict, tuple]] = []  # (spec document, key of the first result)
    sample: list[tuple[dict, dict]] = []
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds:
        if service.worker.poll() is not None:
            out.check("the worker is running", False, f"exit code {service.worker.returncode}")
            break
        doc = novel_doc(rng)
        start = time.perf_counter()
        try:
            first = service.miss(doc)["result"]
        except (ServiceError, TimeoutError, OSError) as exc:
            out.op(False)
            out.notes.append(f"miss failed: {exc}")
            continue
        misses.append(time.perf_counter() - start)
        out.op()
        counts.append((first["messages"], first["rounds"]))
        served.append((doc, envelope_key(first)))
        if len(sample) < SAMPLED:
            sample.append((doc, first))
        for back in range(REPEATS):
            doc, key = served[-1 - back % len(served)]
            start = time.perf_counter()
            try:
                submitted = service.client.submit(doc)
                again = service.client.result(submitted["run_id"])
            except (ServiceError, OSError) as exc:
                out.op(False)
                out.notes.append(f"hit failed: {exc}")
                continue
            hits.append(time.perf_counter() - start)
            out.op()
            out.check("re-submission is a cache hit", submitted["cached"] is True, str(submitted))
            same = envelope_key(again["result"]) == key
            out.check("cached envelope equals the first served", same)
    out.check("the loop served misses and hits", len(misses) >= 2 and len(hits) >= 2,
              f"{len(misses)} misses, {len(hits)} hits")
    return misses, hits, counts, sample, time.perf_counter() - begin


def _check_sampled(sample: list[tuple[dict, dict]], out: Outcome) -> None:
    """Served results equal a direct ``repro.run`` of the same spec."""
    import numpy as np

    import repro

    for doc, envelope in sample:
        direct = repro.run(repro.RunSpec.from_dict(doc))
        same = (
            envelope["rounds"] == direct.rounds
            and envelope["messages"] == direct.messages
            and envelope["messages_by_phase"] == direct.messages_by_phase
            and envelope["summary"] == {k: float(v) for k, v in direct.summary.items()}
            and np.array_equal(
                np.asarray(envelope["estimates"], dtype=float), direct.estimates, equal_nan=True
            )
        )
        out.check("served result equals a direct repro.run", same, f"seed {doc['seed']}")
