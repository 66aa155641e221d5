"""Ablation A3 — the forgery solver against the box-DPLL oracle.

Benchmarks the library's forgery solver — ``solve_pattern_smt``, the
one-shot form of the compiled encoding (CDCL over threshold atoms) —
and the box-DPLL reference solver kept with the tests
(``tests/solver/box_dpll_oracle.py``) on identical forgery instances of
growing ensemble size, asserting they agree on every status — the
library's substitute for trusting a single solver implementation (the
paper trusts Z3).  The timings are why the library ships CDCL alone.
"""

import sys
import time
from pathlib import Path

import numpy as np
from conftest import BENCH, emit

from repro.core import random_signature
from repro.experiments import format_table, prepare_split
from repro.ensemble import RandomForestClassifier
from repro.solver import PatternProblem, required_labels, solve_pattern_smt

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests" / "solver"))
from box_dpll_oracle import solve_pattern_boxes  # noqa: E402

SOLVERS = {"smt": solve_pattern_smt, "boxes": solve_pattern_boxes}

SIZES = (4, 8, 16)
TRIALS = 8


def _run():
    X_train, X_test, y_train, y_test = prepare_split(BENCH, "breast-cancer")
    rng = np.random.default_rng(0)
    rows = []
    for m in SIZES:
        forest = RandomForestClassifier(
            n_estimators=m,
            max_depth=8,
            tree_feature_fraction=0.6,
            random_state=int(rng.integers(2**31 - 1)),
        ).fit(X_train, y_train)
        timings = {"smt": 0.0, "boxes": 0.0}
        agreements = 0
        sat_count = 0
        for _ in range(TRIALS):
            signature = random_signature(m, random_state=int(rng.integers(2**31 - 1)))
            row = int(rng.integers(X_test.shape[0]))
            problem = PatternProblem(
                roots=forest.roots(),
                required=required_labels(signature, int(y_test[row])),
                n_features=X_test.shape[1],
                center=X_test[row],
                epsilon=0.4,
            )
            statuses = {}
            for name, solve in SOLVERS.items():
                started = time.perf_counter()
                outcome = solve(problem)
                timings[name] += time.perf_counter() - started
                statuses[name] = outcome.status
            agreements += statuses["smt"] == statuses["boxes"]
            sat_count += statuses["smt"] == "sat"
        rows.append(
            [
                m,
                forest.total_leaves(),
                f"{agreements}/{TRIALS}",
                sat_count,
                timings["smt"] / TRIALS,
                timings["boxes"] / TRIALS,
            ]
        )
    return rows


def test_ablation_solver_engines(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    headers = ["m (trees)", "total leaves", "agree", "#sat", "smt s/query", "box oracle s/query"]
    text = format_table(headers, rows)
    emit("ablation_solvers", text, headers=headers, rows=rows)
    for row in rows:
        agreements, trials = row[2].split("/")
        assert agreements == trials
