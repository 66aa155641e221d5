"""Traced launcher for ``repro serve``.

Wraps the serving layers' public calls, then runs the unchanged CLI
(``repro.cli.main(["serve", ...])``, so every daemon setting is the CLI
default), and on exit writes what it recorded as JSON::

    python3 perfbench/daemon.py --spans OUT.json serve --model wm=M.rfbin --port 0

Besides the spans, every ``MicroBatcher.submit`` is matched to the
``ServedModel.serve_batch`` call that answered it (the returned slice
lies inside that call's output array).  That gives each request's
queue wait (batch start minus submit start) and the submit's self time
(its duration minus that batch's).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from collections import deque
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Tracer  # noqa: E402


def install(tracer: Tracer) -> list:
    """Wrap the serving layers; returns the per-request submit records
    ``(start_ns, end_ns, batch_start_ns, batch_end_ns)``."""
    from repro.ensemble.compiled import CompiledEnsemble
    from repro.serve.batching import MicroBatcher
    from repro.serve.registry import ModelRegistry, ServedModel
    from repro.traffic.defenders import OnlineSuppressionDistinguisher

    tracer.patch(ModelRegistry, "load", "serve.load")
    tracer.patch(ServedModel, "serve_batch", "serve.batch")
    tracer.patch(CompiledEnsemble, "predict_all", "serve.engine")
    tracer.patch(OnlineSuppressionDistinguisher, "observe", "serve.fold")

    recent: deque = deque(maxlen=256)  # (lo, hi, start_ns, end_ns) per output
    lock = threading.Lock()
    submits: list = []
    traced_batch = ServedModel.serve_batch
    plain_submit = MicroBatcher.submit

    def serve_batch(self, X):
        start = perf_counter_ns()
        y_all = traced_batch(self, X)
        end = perf_counter_ns()
        lo = y_all.__array_interface__["data"][0]
        with lock:
            recent.append((lo, lo + y_all.nbytes, start, end))
        return y_all

    async def submit(self, X):
        start = perf_counter_ns()
        out = await plain_submit(self, X)
        end = perf_counter_ns()
        pointer = out.__array_interface__["data"][0]
        with lock:
            batch = next(
                ((s, e) for lo, hi, s, e in reversed(recent) if lo <= pointer < hi),
                (None, None),
            )
        submits.append((start, end, *batch))
        return out

    ServedModel.serve_batch = serve_batch
    MicroBatcher.submit = submit
    return submits


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON file written on exit")
    parser.add_argument("cli", nargs=argparse.REMAINDER, help="repro CLI arguments")
    args = parser.parse_args()

    from repro.cli import main as repro_main

    tracer = Tracer()
    submits = install(tracer)
    code = repro_main(args.cli)
    spans = [
        [s.name, s.start, s.end, s.self_ns] for s in tracer.spans
    ]
    with open(args.spans, "w", encoding="utf-8") as handle:
        json.dump({"spans": spans, "submits": submits}, handle, allow_nan=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
