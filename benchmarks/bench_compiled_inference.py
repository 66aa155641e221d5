"""Engineering benchmark — node-graph vs compiled flat-array inference.

Not a paper artefact: this benchmark measures the compiled inference
subsystem (:mod:`repro.trees.compiled` / :mod:`repro.ensemble.compiled`)
against the ``TreeNode`` object-graph traversal (``predict_batch`` over
every root) across ensemble sizes and batch sizes.  The headline configuration — a 100-tree forest
answering a 10k-row batch — is the scale the ROADMAP's serving scenarios
target; the acceptance bar is a ≥ 5× speedup on ``predict_all`` there,
with bitwise-identical outputs.

Run (full)::

    PYTHONPATH=src python -m pytest benchmarks/bench_compiled_inference.py -s

Run (smoke mode, seconds)::

    PYTHONPATH=src python -m pytest benchmarks/bench_compiled_inference.py -s --quick

The trees are randomly generated (inference cost depends only on
structure, not on how the trees were learned), which keeps the full
benchmark about inference rather than waiting on pure-Python CART
training of a 100-tree forest.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import emit, is_quick

from repro.ensemble import RandomForestClassifier
from repro.ensemble.voting import majority_vote
from repro.trees import DecisionTreeClassifier, predict_batch
from repro.trees.node import InternalNode, Leaf

#: (n_trees, node depth, leaf probability, batch size) grid.  The leaf
#: probability controls tree size: 0.15 at depth 8 gives small trees
#: (~200 nodes, a heavily capped model); 0.05 at depth 12 matches a
#: forest trained at the repo's benchmark scale (~4k nodes per tree);
#: 0.05 at depth 14 approximates full-scale lightly-pruned trees (~8k
#: nodes per tree, in line with the paper's leaf-count discussion for
#: ijcnn1).  The last row is the acceptance-criterion configuration.
FULL_SCALES = [
    (10, 8, 0.15, 1_000),
    (10, 8, 0.15, 10_000),
    (100, 8, 0.15, 10_000),
    (100, 12, 0.05, 10_000),
    (100, 14, 0.05, 10_000),
]
QUICK_SCALES = [(8, 6, 0.15, 500)]

N_FEATURES = 20
HEADLINE = (100, 14, 0.05, 10_000)
MIN_SPEEDUP = 5.0


def _random_tree(gen: np.random.Generator, depth: int, leaf_p: float):
    """A random tree: splits on random features/thresholds, ±1 leaves."""
    if depth == 0 or gen.uniform() < leaf_p:
        label = int(gen.choice([-1, 1]))
        return Leaf(prediction=label, class_weights={label: float(gen.uniform(1, 9))})
    return InternalNode(
        feature=int(gen.integers(N_FEATURES)),
        threshold=float(gen.normal()),
        left=_random_tree(gen, depth - 1, leaf_p),
        right=_random_tree(gen, depth - 1, leaf_p),
    )


def _random_forest(gen: np.random.Generator, n_trees: int, depth: int, leaf_p: float):
    forest = RandomForestClassifier(n_estimators=n_trees)
    trees = []
    for _ in range(n_trees):
        tree = DecisionTreeClassifier()
        tree.root_ = _random_tree(gen, depth, leaf_p)
        tree.classes_ = np.array([-1, 1])
        tree.n_features_in_ = N_FEATURES
        trees.append(tree)
    forest.trees_ = trees
    forest.feature_subsets_ = [np.arange(N_FEATURES)] * n_trees
    forest.classes_ = np.array([-1, 1])
    forest.n_features_in_ = N_FEATURES
    return forest


def _object_all(forest, X):
    """Per-tree answers from the object graph, one root at a time."""
    return np.stack([predict_batch(root, X) for root in forest.roots()], axis=0)


def _best_of(fn, repeats: int) -> float:
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_compiled_inference(request):
    quick = is_quick(request.config)
    scales = QUICK_SCALES if quick else FULL_SCALES
    repeats = 2 if quick else 3
    gen = np.random.default_rng(20250729)

    rows = []
    data_rows = []
    speedups = {}
    for n_trees, depth, leaf_p, batch in scales:
        forest = _random_forest(gen, n_trees, depth, leaf_p)
        X = gen.normal(size=(batch, N_FEATURES))

        object_all = _object_all(forest, X)
        t_object_all = _best_of(lambda: _object_all(forest, X), repeats)
        t_object_pred = _best_of(
            lambda: majority_vote(_object_all(forest, X), forest.classes_), repeats
        )

        engine = forest.compile()
        compiled_all = engine.predict_all(X)
        assert np.array_equal(compiled_all, object_all), (
            f"compiled predict_all diverged at {n_trees} trees x {batch} rows"
        )
        t_compiled_all = _best_of(lambda: forest.predict_all(X), repeats)
        t_compiled_pred = _best_of(lambda: forest.predict(X), repeats)

        speedup_all = t_object_all / t_compiled_all
        speedups[(n_trees, depth, leaf_p, batch)] = speedup_all
        nodes_per_tree = engine.n_nodes // n_trees
        rows.append(
            f"{n_trees:>6} {nodes_per_tree:>8} {batch:>8} "
            f"{1e3 * t_object_all:>12.1f} {1e3 * t_compiled_all:>12.1f} "
            f"{speedup_all:>9.1f}x "
            f"{1e3 * t_object_pred:>12.1f} {1e3 * t_compiled_pred:>12.1f} "
            f"{t_object_pred / t_compiled_pred:>9.1f}x"
        )
        data_rows.append(
            {
                "trees": n_trees,
                "nodes_per_tree": nodes_per_tree,
                "batch": batch,
                "object_all_ms": round(1e3 * t_object_all, 2),
                "compiled_all_ms": round(1e3 * t_compiled_all, 2),
                "speedup_all": round(speedup_all, 2),
                "object_pred_ms": round(1e3 * t_object_pred, 2),
                "compiled_pred_ms": round(1e3 * t_compiled_pred, 2),
                "speedup_pred": round(t_object_pred / t_compiled_pred, 2),
            }
        )

    header = (
        f"{'trees':>6} {'nodes/t':>8} {'batch':>8} "
        f"{'all/obj ms':>12} {'all/cmp ms':>12} {'speedup':>10} "
        f"{'pred/obj ms':>12} {'pred/cmp ms':>12} {'speedup':>10}"
    )
    mode = "quick" if quick else "full"
    emit(
        "compiled_inference",
        f"mode: {mode} (best of {repeats})\n" + header + "\n" + "\n".join(rows),
        mode=mode,
        rows=data_rows,
        metrics={"headline_speedup": round(speedups.get(HEADLINE, 0.0), 2)},
    )

    if not quick:
        headline = speedups[HEADLINE]
        assert headline >= MIN_SPEEDUP, (
            f"compiled predict_all is only {headline:.1f}x faster than the "
            f"object graph on {HEADLINE[0]} trees x {HEADLINE[3]} rows "
            f"(acceptance bar: {MIN_SPEEDUP}x)"
        )
