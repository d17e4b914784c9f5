"""The repository benchmark: one command per workload, outputs checked.

Run from the repository root::

    python3 perfbench/run.py --workload avg-reliable-1e6 --seed 1 --seconds 35 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

``avg-reliable-1e6`` / ``max-lossy-1e6``
    ``repro.run`` of one drr-gossip spec at n=10^6, repeated (wl_pipeline.py).
``service-mixed``
    an in-process ``ServiceServer`` plus one queue worker process, driven by
    one closed-loop client: a novel spec, then ten cached ones (wl_service.py).

The benchmark process and the service's worker run on one CPU
(``common.pin``).

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` wraps the layer boundaries listed in layers.py and reports the
per-layer metrics.  Every input is derived from ``--seed``; seed 1009 is
held out from tuning, and a later performance claim must also hold on it.

perfbench/predictions.json names, for each per-layer metric, the end-to-end
metric and workload it should move.

Stdout ends with one JSON line: ``correct``, ``attempted`` (operations plus
output checks), ``failed`` and ``metrics``.  A failed check makes the exit
code 1; a missing source tree makes it 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

WORKLOADS = ("avg-reliable-1e6", "max-lossy-1e6", "service-mixed")


def declared_units(trace: bool) -> dict[str, str]:
    config = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in config["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/repro/__init__.py").is_file():
        print("perfbench: no src/repro here; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))

    from common import host_fingerprint, pin

    if args.workload == "service-mixed":
        import wl_service as module
    else:
        import wl_pipeline as module

    host = host_fingerprint()
    pin(0)
    started = time.perf_counter()
    out = module.run(args.workload, args.seed, args.seconds, bool(args.trace))
    elapsed = time.perf_counter() - started

    units = declared_units(bool(args.trace))
    missing = [name for name in units if name not in out.metrics]
    if args.trace:
        # A layer, phase or primitive this workload never reaches reads 0;
        # the bypass predictions (perfbench/predictions.json) rest on that.
        for name in missing:
            out.metric(name, 0.0)
        out.notes.append(f"{len(missing)} per-layer metrics not reached here read 0")
    elif missing and out.failed == 0:
        out.check("every end-to-end metric measured", False, " ".join(missing))
    print("host", json.dumps(host, sort_keys=True))
    for note in out.notes:
        print(note)
    doc = out.document(units)
    for name, metric in doc["metrics"].items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    print(f"wall {elapsed:.1f}s, {out.attempted} attempted, {out.failed} failed")
    print(json.dumps(doc), flush=True)
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
