"""Self-test of the benchmark at tiny sizes (about a minute)::

    python3 perfbench/selftest.py

Checks that every workload prints every catalogued metric with its
unit, untraced and traced, with no failed operation; that the catalogue
matches ``BENCHMARK.json``; and that deliberately corrupted outputs (a
flipped served label, a wrong signature) are counted as failed
operations instead of passing.  Exits 1 on the first broken check.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from catalog import END_TO_END, PER_LAYER  # noqa: E402
from common import result_line  # noqa: E402
from run import WORKLOADS, run_workload  # noqa: E402


def tiny_spec(workload: str):
    if workload.startswith("dispute-"):
        from dispute import SPECS

        return replace(
            SPECS[workload], n_samples=300, bits=4, rows_per_epsilon=5,
            verifies_per_model=2, min_models=1, max_models=2,
        )
    from serving import SPECS

    return replace(
        SPECS[workload], n_samples=300, bits=8, probe_pool=200,
        warmup_requests=10, verifies=3, spawns=1,
    )


def run_tiny(workload: str, trace: bool, corrupt=None):
    ledger, metrics, _ = run_workload(
        workload, seed=7, seconds=1.0, trace=trace, corrupt=corrupt,
        spec=tiny_spec(workload),
    )
    line = json.loads(result_line(ledger, metrics))
    return ledger, line


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main() -> int:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expect(
        {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END,
        "BENCHMARK.json end_to_end matches the catalogue",
    )
    expect(
        {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER,
        "BENCHMARK.json per_layer matches the catalogue",
    )
    expect(
        [w["name"] for w in declared["workloads"]] == list(WORKLOADS),
        "BENCHMARK.json names the workloads",
    )
    for workload in WORKLOADS:
        for trace, catalogue in ((False, END_TO_END), (True, PER_LAYER)):
            ledger, line = run_tiny(workload, trace)
            printed = {name: m["unit"] for name, m in line["metrics"].items()}
            expect(
                printed == catalogue,
                f"{workload} trace={int(trace)}: every metric printed with its unit",
            )
            expect(
                line["correct"] and line["failed"] == 0 and line["attempted"] > 0,
                f"{workload} trace={int(trace)}: all checks pass "
                f"({line['attempted']} attempted; {ledger.failures})",
            )
            if not trace:
                expect(
                    all(m["value"] > 0 for m in line["metrics"].values()),
                    f"{workload}: no end-to-end metric reads 0",
                )
    for workload, corrupt in (
        ("serve-probe", "label"),
        ("serve-probe", "signature"),
        ("dispute-tabular", "signature"),
    ):
        _, line = run_tiny(workload, False, corrupt)
        expect(
            not line["correct"] and line["failed"] >= 1,
            f"{workload}: a corrupted {corrupt} counts as a failed operation "
            f"({line['failed']} failed)",
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
