"""``python -m repro worker`` with the benchmark's layer wraps installed.

    python3 perfbench/traced_worker.py SPANS.json worker --store PATH ...

Everything after the spans path is the ``repro`` command line.  The spans
and counters are written to SPANS.json when the worker exits (it drains
gracefully on SIGTERM).
"""

from __future__ import annotations

import sys

from layers import install
from spans import Patcher, Recorder


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    # ids far above the parent's, so merged traces keep unique span ids
    recorder = Recorder(id_base=1 << 40)
    install(Patcher(recorder))
    from repro.harness.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
