"""Engineering benchmark — presorted, weight-only-refresh tree training.

Not a paper artefact: this benchmark measures the split-search engine
behind every ``fit`` in the repo:

- **fit, cold cache** — a full forest fit with the presort cache
  cleared first, so the measurement includes building the per-dataset
  sort tables once (this is what a fresh ``fit`` pays);
- **refit loop, cold vs warm cache** — ``TrainWithTrigger``-style
  weight escalation: the training matrix never changes between rounds,
  so selective refits reuse the cached presort outright; the cold run
  drops the cache before every round.

Acceptance bar (full mode, Table-1-scale data: 10k rows x 22
features): a 5-round weight-escalation refit loop gains >= 1.5x from
presort-cache reuse alone (warm vs cold), and the cold and warm loops
produce **bitwise-identical** forests (serialised trees and
``predict_all``).  Node-local search, the reference the presorted
engine is checked against, lives in the tests
(``tests/trees/node_local_oracle.py``).

Run (full)::

    PYTHONPATH=src python -m pytest benchmarks/bench_tree_fit.py -s

Run (smoke mode, seconds)::

    PYTHONPATH=src python -m pytest benchmarks/bench_tree_fit.py -s --quick
"""

from __future__ import annotations

import time

import numpy as np
from conftest import emit, is_quick

from repro.datasets import correlated_gaussian_classes
from repro.ensemble import RandomForestClassifier
from repro.persistence import forest_to_dict
from repro.trees import clear_presort_cache

MIN_REUSE_SPEEDUP = 1.5

#: Headline scale (full mode): a 100-tree forest on >= 10k rows and
#: >= 20 features, grown to purity like sklearn's defaults.
FULL = dict(
    n_samples=10_000,
    n_features=22,
    n_estimators=100,
    fit_params=dict(max_depth=None, min_samples_leaf=1, tree_feature_fraction=0.7),
    # Escalation-round shape: Adjust-capped shallow trees on per-tree
    # feature subspaces (the paper's trees see a fraction of the
    # features), one stubborn slot refitting per round — the typical
    # late-round state of the incremental embedding loop.
    refit_trees=1,
    refit_rounds=5,
    refit_params=dict(max_depth=3, min_samples_leaf=1, tree_feature_fraction=0.35),
)
QUICK = dict(
    n_samples=600,
    n_features=8,
    n_estimators=8,
    fit_params=dict(max_depth=8, min_samples_leaf=1, tree_feature_fraction=0.7),
    refit_trees=2,
    refit_rounds=2,
    refit_params=dict(max_depth=3, min_samples_leaf=1, tree_feature_fraction=0.7),
)


def _dataset(cfg):
    rng = np.random.default_rng(17)
    X, y = correlated_gaussian_classes(
        cfg["n_samples"], cfg["n_features"], positive_fraction=0.45,
        separation=0.9, rng=rng,
    )
    # Trigger-style weighting: a few rows carry overwhelming mass, the
    # shape TrainWithTrigger produces after a couple of rounds.
    weights = np.ones(cfg["n_samples"])
    trigger = rng.choice(cfg["n_samples"], size=max(4, cfg["n_samples"] // 500),
                         replace=False)
    weights[trigger] = 25.0
    X_test = rng.normal(0.5, 0.25, size=(512, cfg["n_features"]))
    return X, y, weights, trigger, X_test


def _forest(cfg, params, seed=23):
    return RandomForestClassifier(
        n_estimators=cfg["n_estimators"], random_state=seed, **params
    )


def _timed_fit(cfg, X, y, weights):
    """One cold-cache forest fit; returns (forest, wall_s, cpu_s).

    Both clocks are recorded: training is pure single-process compute,
    so CPU seconds measure the engine itself while wall seconds also
    absorb whatever else the machine is doing.  The speedup bar is
    asserted on CPU time for that reason.
    """
    clear_presort_cache()
    forest = _forest(cfg, cfg["fit_params"])
    wall = time.perf_counter()
    cpu = time.process_time()
    forest.fit(X, y, sample_weight=weights)
    return forest, time.perf_counter() - wall, time.process_time() - cpu


def _timed_refit_loop(cfg, X, y, weights, trigger, cold_cache):
    """A TrainWithTrigger-style escalation loop; returns (forest, wall_s, cpu_s).

    Each round escalates the trigger weights and selectively refits a
    fixed slice of tree slots on the unchanged ``X`` — exactly the
    weight-only-refresh shape of Algorithm 1's retraining.  With
    ``cold_cache`` the presort cache is dropped before every round, so
    the difference to the warm run is cache reuse and nothing else.
    """
    clear_presort_cache()
    forest = _forest(cfg, cfg["refit_params"])
    forest.fit(X, y, sample_weight=weights)  # warm-up fit, untimed
    round_weights = weights.copy()
    slots = np.arange(cfg["refit_trees"])
    wall_elapsed = 0.0
    cpu_elapsed = 0.0
    for _ in range(cfg["refit_rounds"]):
        round_weights = round_weights.copy()
        round_weights[trigger] += 10.0
        if cold_cache:
            clear_presort_cache()
        wall = time.perf_counter()
        cpu = time.process_time()
        forest.refit_trees(slots, X, y, sample_weight=round_weights)
        wall_elapsed += time.perf_counter() - wall
        cpu_elapsed += time.process_time() - cpu
    return forest, wall_elapsed, cpu_elapsed


def test_tree_fit_benchmark(request):
    quick = is_quick(request.config)
    cfg = QUICK if quick else FULL
    X, y, weights, trigger, X_test = _dataset(cfg)

    rows = []

    # ------------------------------------------------------------------
    # Full forest fit, cold cache (recorded, no bar).
    # ------------------------------------------------------------------
    _, fit_wall, fit_cpu = _timed_fit(cfg, X, y, weights)
    rows.append(
        {"stage": "fit", "mode": "presorted-cold", "wall_s": round(fit_wall, 3),
         "cpu_s": round(fit_cpu, 3), "speedup": 1.0, "identical": True}
    )

    # ------------------------------------------------------------------
    # Escalation refit loop — cache reuse alone (cold vs warm).
    # ------------------------------------------------------------------
    cold_forest, cold_wall, cold_cpu = _timed_refit_loop(
        cfg, X, y, weights, trigger, cold_cache=True
    )
    warm_forest, warm_wall, warm_cpu = _timed_refit_loop(
        cfg, X, y, weights, trigger, cold_cache=False
    )
    reuse_speedup = cold_cpu / warm_cpu
    assert forest_to_dict(cold_forest) == forest_to_dict(warm_forest), (
        "cache reuse must not change the refitted forest"
    )
    assert np.array_equal(
        cold_forest.predict_all(X_test), warm_forest.predict_all(X_test)
    )
    rows.append(
        {"stage": "refit-loop", "mode": "presorted-cold",
         "wall_s": round(cold_wall, 3), "cpu_s": round(cold_cpu, 3),
         "speedup": 1.0, "identical": True}
    )
    rows.append(
        {"stage": "refit-loop", "mode": "presorted-warm",
         "wall_s": round(warm_wall, 3), "cpu_s": round(warm_cpu, 3),
         "speedup": round(reuse_speedup, 2), "identical": True}
    )

    lines = [
        f"mode: {'quick' if quick else 'full'}  "
        f"({cfg['n_samples']} rows, {cfg['n_features']} features, "
        f"{cfg['n_estimators']} trees; refit loop: {cfg['refit_rounds']} rounds "
        f"x {cfg['refit_trees']} trees; speedups on cpu time)",
        f"{'stage':>11} {'engine':>15} {'wall s':>8} {'cpu s':>8} "
        f"{'speedup':>8} {'identical':>10}",
    ]
    for row in rows:
        lines.append(
            f"{row['stage']:>11} {row['mode']:>15} {row['wall_s']:>8.3f} "
            f"{row['cpu_s']:>8.3f} {row['speedup']:>7.2f}x "
            f"{str(row['identical']):>10}"
        )
    emit(
        "bench_tree_fit",
        "\n".join(lines),
        mode="quick" if quick else "full",
        rows=rows,
        metrics={"refit_reuse_speedup": round(reuse_speedup, 2)},
    )

    if not quick:
        assert reuse_speedup >= MIN_REUSE_SPEEDUP, (
            f"presort-cache reuse must speed the escalation refit loop by "
            f">= {MIN_REUSE_SPEEDUP}x (cold {cold_cpu:.2f}s vs warm "
            f"{warm_cpu:.2f}s cpu), got {reuse_speedup:.1f}x"
        )
