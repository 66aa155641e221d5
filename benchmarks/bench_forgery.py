"""Engineering benchmark — the shared-encoding, parallel forgery engine.

Not a paper artefact: this benchmark measures the forgery solver sweep
(:func:`repro.attacks.forge_trigger_set` over the Fig. 4 ε grid), which
compiles the forest's encoding once per signature pattern — once for
the whole sweep, not once per ε — and re-solves it per instance with
assumption-style incremental SAT, in two modes:

- **serial** — one process;
- **parallel** — instances fanned out over ``n_jobs=4`` worker
  processes, the compiled encoding shared with every fork worker
  copy-on-write.

Each mode forges against its own copy of the model, so neither finds
encodings the other compiled.  Two contracts are asserted on every run,
in both modes: the two modes return **byte-identical** forged sets,
source indices and status counts, and each compiles exactly two
encodings (one per test label) across its whole ε sweep.  The parallel
speedup is recorded, not asserted: it depends on the core count of the
machine.

Run (full)::

    PYTHONPATH=src python -m pytest benchmarks/bench_forgery.py -s

Run (smoke mode, seconds)::

    PYTHONPATH=src python -m pytest benchmarks/bench_forgery.py -s --quick
"""

from __future__ import annotations

import copy
import os
import time

from conftest import BENCH, emit, is_quick

from repro.attacks import forge_trigger_set
from repro.core import random_signature
from repro.experiments import format_table
from repro.experiments.detection import build_watermarked_model
from repro.parallel import fork_available
from repro.solver import compiled_encoding

FULL_EPSILONS = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9)
QUICK_EPSILONS = (0.1, 0.5)

FULL_INSTANCES = 30
QUICK_INSTANCES = 6

PARALLEL_JOBS = 4

MODES = [
    ("serial", dict()),
    ("parallel", dict(n_jobs=PARALLEL_JOBS)),
]


def _sweep(ensemble, X_test, y_test, fake, epsilons, max_instances, **mode):
    """One timed Fig. 4-style ε sweep; returns (results, seconds)."""
    start = time.perf_counter()
    results = [
        forge_trigger_set(
            ensemble,
            fake,
            X_test,
            y_test,
            epsilon=eps,
            max_instances=max_instances,
            solver_budget=60_000,
            random_state=97,
            **mode,
        )
        for eps in epsilons
    ]
    return results, time.perf_counter() - start


def _fingerprint(results):
    return [
        (
            r.n_attempted,
            r.forged_X.tobytes(),
            tuple(int(i) for i in r.source_index),
            tuple(sorted(r.statuses.items())),
        )
        for r in results
    ]


def test_forgery_engine_speedup(quick_mode, monkeypatch):
    epsilons = QUICK_EPSILONS if quick_mode else FULL_EPSILONS
    max_instances = QUICK_INSTANCES if quick_mode else FULL_INSTANCES

    model, (_X_train, X_test, _y_train, y_test) = build_watermarked_model(
        BENCH, "mnist26"
    )
    fake = random_signature(BENCH.n_estimators, ones_fraction=0.5, random_state=96)

    compiled = []
    compile_pattern_encoding = compiled_encoding.compile_pattern_encoding

    def counting(*args, **kwargs):
        compiled.append(None)
        return compile_pattern_encoding(*args, **kwargs)

    monkeypatch.setattr(compiled_encoding, "compile_pattern_encoding", counting)

    timings: dict[str, float] = {}
    fingerprints: dict[str, list] = {}
    forged_totals: dict[str, int] = {}
    encodings: dict[str, int] = {}
    for name, mode in MODES:
        ensemble = copy.deepcopy(model.ensemble)
        del compiled[:]
        results, seconds = _sweep(
            ensemble, X_test, y_test, fake, epsilons, max_instances, **mode
        )
        timings[name] = seconds
        fingerprints[name] = _fingerprint(results)
        forged_totals[name] = sum(r.n_forged for r in results)
        encodings[name] = len(compiled)

    baseline = timings["serial"]
    rows = [
        [
            name,
            f"{timings[name]:.2f}",
            f"{baseline / timings[name]:.2f}x",
            forged_totals[name],
            encodings[name],
        ]
        for name, _mode in MODES
    ]
    headers = ["mode", "seconds", "speedup", "forged total", "encodings compiled"]
    text = format_table(headers, rows) + (
        f"\nmode: {'quick' if quick_mode else 'full'}"
        f" | {len(epsilons)} eps x {max_instances} instances"
        f" | cpus: {os.cpu_count()}"
    )
    emit("forgery_engine", text, headers=headers, rows=rows)

    # Determinism contract: both modes forge byte-identical sets.
    assert fingerprints["parallel"] == fingerprints["serial"], (
        "parallel mode diverged from the serial baseline"
    )
    assert forged_totals["serial"] > 0, "benchmark forged nothing — not measuring"
    # Encodings are compiled once per (forest, pattern) for the whole
    # sweep, in this process; spawn-only platforms compile the parallel
    # mode's encodings in the workers instead.
    assert encodings["serial"] == 2, encodings
    assert encodings["parallel"] == (2 if fork_available() else 0), encodings
