"""Ablation A2 — convergence of the re-weighting loop.

Algorithm 1 bumps trigger weights additively (+1) until every tree fits
the trigger set.  This ablation measures rounds-to-converge and final
trigger weight as the trigger set grows, for the paper's additive
schedule and our geometric escalation.
"""

import numpy as np
from conftest import BENCH, emit

from repro.core import random_signature
from repro.experiments import format_table, prepare_split


def _run():
    X_train, _X_test, y_train, _y_test = prepare_split(BENCH, "breast-cancer")
    rows = []
    for escalation, label in ((1.0, "additive (+1)"), (2.0, "geometric (x2)")):
        config = BENCH.with_overrides(escalation_factor=escalation, max_rounds=60)
        for fraction in (0.01, 0.02, 0.04):
            model = config.watermarker(
                random_signature(BENCH.n_estimators, random_state=7),
                fraction,
                random_state=8,
            ).fit(X_train, y_train)
            rows.append(
                [
                    label,
                    fraction,
                    model.trigger.size,
                    model.report.rounds_t0 + model.report.rounds_t1,
                    max(model.report.trigger_weight_t0, model.report.trigger_weight_t1),
                ]
            )
    return rows


def test_ablation_reweighting_schedule(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    headers = ["Schedule", "trigger frac", "k", "total rounds", "max trigger weight"]
    text = format_table(headers, rows)
    emit("ablation_weighting", text, headers=headers, rows=rows)

    # Embedding must converge everywhere within the round budget.
    assert all(row[3] < 60 for row in rows)
    # Geometric escalation never needs more rounds than additive.
    additive = {(row[1]): row[3] for row in rows if row[0].startswith("additive")}
    geometric = {(row[1]): row[3] for row in rows if row[0].startswith("geometric")}
    for fraction in additive:
        assert geometric[fraction] <= additive[fraction] + 1
