"""The lifecycle benchmark: embed, judge, forge and serve.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dispute-tabular --seed 1 --seconds 35 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (see ``catalog.py``).  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the line
before it stamps the host and the git state.  Exits 2 without a result
when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("dispute-tabular", "dispute-image", "serve-probe")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, **overrides):
    """``(ledger, metrics, notes)`` for one run; ``metrics`` maps every
    name of the selected catalogue to ``(value, unit)``."""
    from catalog import END_TO_END, PER_LAYER

    if workload.startswith("dispute-"):
        import dispute as module
    else:
        import serving as module
    ledger, e2e, layers, notes = module.run(workload, seed, seconds, trace, **overrides)
    if not trace:
        return ledger, {name: e2e[name] for name in END_TO_END}, notes
    metrics = {name: (float(layers.get(name, 0.0)), unit) for name, unit in PER_LAYER.items()}
    notes = {**notes, "end_to_end_of_traced_pass": {k: v[0] for k, v in e2e.items()}}
    return ledger, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from common import emit, host_stamp

    stamp = host_stamp(args.workload, args.seed, bool(args.trace))
    ledger, metrics, notes = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    emit(stamp, ledger, metrics, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
