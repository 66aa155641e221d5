"""Tests for cost-complexity pruning."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.trees import (
    DecisionTreeClassifier,
    prune_cost_complexity,
    pruning_path,
    subtree_risk,
)
from repro.trees.node import InternalNode, Leaf


def _fitted_tree(rng, n=150, noise=0.15, max_depth=8):
    X = rng.uniform(size=(n, 3))
    y = np.where(X[:, 0] > 0.5, 1, -1)
    flip = rng.uniform(size=n) < noise
    y[flip] = -y[flip]
    return DecisionTreeClassifier(max_depth=max_depth).fit(X, y), X, y


class TestSubtreeRisk:
    def test_pure_leaf_risk_zero(self):
        assert subtree_risk(Leaf(1, {1: 5.0})) == (0.0, 1)

    def test_mixed_leaf_risk(self):
        risk, leaves = subtree_risk(Leaf(1, {1: 3.0, -1: 2.0}))
        assert risk == pytest.approx(2.0)
        assert leaves == 1

    def test_subtree_aggregation(self):
        tree = InternalNode(0, 0.5, Leaf(1, {1: 3.0, -1: 1.0}), Leaf(-1, {-1: 4.0}))
        risk, leaves = subtree_risk(tree)
        assert risk == pytest.approx(1.0)
        assert leaves == 2

    def test_weightless_leaf_rejected(self):
        with pytest.raises(ValidationError, match="class_weights"):
            subtree_risk(Leaf(1))


class TestPruneCostComplexity:
    def test_alpha_zero_keeps_fit(self, rng):
        tree, X, y = _fitted_tree(rng)
        pruned = prune_cost_complexity(tree.root_, 0.0)
        # Zero-cost collapses never change training predictions.
        from repro.trees.node import predict_batch

        assert np.array_equal(predict_batch(pruned, X), tree.predict(X))

    def test_large_alpha_collapses_to_leaf(self, rng):
        tree, _, _ = _fitted_tree(rng)
        pruned = prune_cost_complexity(tree.root_, 1e9)
        assert pruned.is_leaf

    def test_monotone_in_alpha(self, rng):
        tree, _, _ = _fitted_tree(rng)
        sizes = [
            prune_cost_complexity(tree.root_, alpha).n_leaves()
            for alpha in (0.0, 0.5, 2.0, 10.0)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_original_tree_unmodified(self, rng):
        tree, _, _ = _fitted_tree(rng)
        before = tree.root_.n_leaves()
        prune_cost_complexity(tree.root_, 1e9)
        assert tree.root_.n_leaves() == before

    def test_negative_alpha_rejected(self, rng):
        tree, _, _ = _fitted_tree(rng)
        with pytest.raises(ValidationError):
            prune_cost_complexity(tree.root_, -1.0)
        with pytest.raises(ValidationError):
            prune_cost_complexity(tree.root_, float("nan"))

    def test_training_risk_grows_gracefully(self, rng):
        # Pruning trades leaves for risk; the risk increase per pruning
        # step is bounded by alpha per removed leaf.
        tree, X, y = _fitted_tree(rng)
        base_risk, base_leaves = subtree_risk(tree.root_)
        alpha = 2.0
        pruned = prune_cost_complexity(tree.root_, alpha)
        pruned_risk, pruned_leaves = subtree_risk(pruned)
        assert pruned_risk >= base_risk - 1e-9
        assert pruned_risk - base_risk <= alpha * (base_leaves - pruned_leaves) + 1e-9


class TestPruningPath:
    def test_path_shrinks_to_single_leaf(self, rng):
        tree, _, _ = _fitted_tree(rng)
        path = pruning_path(tree.root_)
        alphas = [alpha for alpha, _ in path]
        leaves = [n for _, n in path]
        assert alphas == sorted(alphas)
        assert leaves == sorted(leaves, reverse=True)
        assert leaves[-1] == 1

    def test_stump_path(self):
        stump = InternalNode(0, 0.5, Leaf(-1, {-1: 5.0}), Leaf(1, {1: 5.0}))
        path = pruning_path(stump)
        assert path[0] == (0.0, 2)
        assert path[-1][1] == 1
