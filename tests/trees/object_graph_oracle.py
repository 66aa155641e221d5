"""Object-graph reference for ``predict_proba``, for tests.

The library answers every prediction through its compiled node table
(see :mod:`repro.ensemble.compiled`).  This module keeps the
straightforward alternative: walk the ``TreeNode`` graph with a stack of
``(node, row indices)`` pairs and write each leaf's class distribution
into the rows that reach it.  It is slow, but simple enough to check by
eye, so the differential tests compare the engine against it bit for
bit.  :func:`repro.trees.node.predict_batch` is the matching reference
for labels.
"""

from __future__ import annotations

import numpy as np


def predict_proba_walk(root, classes, X) -> np.ndarray:
    """Per-row class distributions of the tree at ``root``.

    Columns follow ``classes``.  A leaf with recorded class masses
    yields them normalised by their total; a leaf without (hand-built
    trees) is one-hot on its label.
    """
    X = np.asarray(X, dtype=np.float64)
    class_position = {int(c): i for i, c in enumerate(classes)}
    out = np.zeros((X.shape[0], len(class_position)), dtype=np.float64)
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            total = node.total_weight()
            row = np.zeros(len(class_position))
            if total > 0:
                for label, mass in node.class_weights.items():
                    row[class_position[label]] = mass / total
            else:
                row[class_position[int(node.prediction)]] = 1.0
            out[idx] = row
            continue
        go_left = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[go_left]))
        stack.append((node.right, idx[~go_left]))
    return out


def forest_proba_walk(forest, X) -> np.ndarray:
    """The forest's ``predict_proba`` as the per-tree walks, averaged."""
    total = np.zeros((np.asarray(X).shape[0], forest.classes_.shape[0]))
    for tree in forest.trees_:
        total += predict_proba_walk(tree.root_, forest.classes_, X)
    return total / len(forest.trees_)
