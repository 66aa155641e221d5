"""Tests for model-modification attacks (future-work threat model).

The tree edits live in :mod:`repro.trees.pruning`; the attacks that
apply them to a stolen forest run through the registry.
"""

import numpy as np
import pytest

from repro.api import AttackTarget, make_attack
from repro.exceptions import ValidationError
from repro.trees.export import tree_stats
from repro.trees.node import InternalNode, Leaf, iter_leaves
from repro.trees.pruning import flip_leaves, truncate_tree


def _deep_tree():
    return InternalNode(
        0, 0.5,
        InternalNode(1, 0.3, Leaf(-1, {-1: 3.0}), Leaf(1, {1: 1.0})),
        Leaf(1, {1: 5.0}),
    )


class TestTruncateTree:
    def test_truncation_depth(self):
        truncated = truncate_tree(_deep_tree(), 1)
        assert tree_stats(truncated).depth <= 1

    def test_truncate_to_root_leaf(self):
        truncated = truncate_tree(_deep_tree(), 0)
        assert truncated.is_leaf
        # Majority mass: +1 has 6.0 vs -1 has 3.0.
        assert truncated.prediction == 1

    def test_majority_uses_class_weights(self):
        tree = InternalNode(0, 0.5, Leaf(-1, {-1: 10.0}), Leaf(1, {1: 1.0}))
        truncated = truncate_tree(tree, 0)
        assert truncated.prediction == -1

    def test_no_op_when_deeper_than_tree(self):
        original = _deep_tree()
        truncated = truncate_tree(original, 10)
        assert tree_stats(truncated) == tree_stats(original)

    def test_original_untouched(self):
        original = _deep_tree()
        truncate_tree(original, 0)
        assert not original.is_leaf

    def test_negative_depth_rejected(self):
        with pytest.raises(ValidationError):
            truncate_tree(_deep_tree(), -1)


class TestFlipLeaves:
    def test_probability_zero_is_identity(self, rng):
        tree = _deep_tree()
        flipped = flip_leaves(tree, 0.0, rng)
        assert tree_stats(flipped) == tree_stats(tree)
        assert [l.prediction for l in iter_leaves(flipped)] == [
            l.prediction for l in iter_leaves(tree)
        ]

    def test_probability_one_flips_everything(self, rng):
        tree = _deep_tree()
        flipped = flip_leaves(tree, 1.0, rng)
        assert [l.prediction for l in iter_leaves(flipped)] == [
            -l.prediction for l in iter_leaves(tree)
        ]

    def test_invalid_probability(self, rng):
        with pytest.raises(ValidationError):
            flip_leaves(_deep_tree(), 1.5, rng)

    def test_flip_swaps_class_weight_mass(self, rng):
        # Regression: a flipped leaf must move its recorded class mass
        # with the label, otherwise the label says one class while the
        # distribution still favours the other.
        tree = InternalNode(0, 0.5, Leaf(-1, {-1: 3.0, 1: 1.0}), Leaf(1, {1: 5.0}))
        flipped = flip_leaves(tree, 1.0, rng)
        left, right = flipped.left, flipped.right
        assert left.prediction == 1 and left.class_weights == {1: 3.0, -1: 1.0}
        assert right.prediction == -1 and right.class_weights == {-1: 5.0, 1: 0.0}

    def test_flip_keeps_predict_and_proba_consistent(self, bc_data):
        # Regression: on attacked models, `predict` (leaf labels) and
        # `predict_proba` (leaf distributions) must name the same
        # majority class — in the engine and in the object graph.
        from object_graph_oracle import predict_proba_walk

        from repro.ensemble import RandomForestClassifier
        from repro.trees.node import predict_batch

        X_train, X_test, y_train, _ = bc_data
        # Unconstrained trees reach pure leaves, so argmax is tie-free.
        forest = RandomForestClassifier(
            n_estimators=3, tree_feature_fraction=1.0, random_state=23
        ).fit(X_train, y_train)
        attacked = make_attack("flip", probability=1.0).edit(
            forest, np.random.default_rng(24)
        )
        for tree in attacked.trees_:
            routes = {
                "object": (
                    predict_batch(tree.root_, X_test),
                    predict_proba_walk(tree.root_, tree.classes_, X_test),
                ),
                "compiled": (tree.predict(X_test), tree.predict_proba(X_test)),
            }
            assert np.array_equal(routes["compiled"][1], routes["object"][1])
            for route, (labels, proba) in routes.items():
                assert np.array_equal(labels, predict_batch(tree.root_, X_test)), route
                by_proba = tree.classes_[np.argmax(proba, axis=1)]
                assert np.array_equal(labels, by_proba), route


class TestForestAttacks:
    def test_truncate_forest_structure(self, bc_forest, rng):
        attacked = make_attack("truncate", depth=2).edit(bc_forest, rng)
        assert (attacked.structure()["depth"] <= 2).all()
        # Original untouched.
        assert (bc_forest.structure()["depth"] > 2).any()

    def test_flip_forest_changes_predictions(self, bc_forest, bc_data, rng):
        _, X_test, _, _ = bc_data
        attacked = make_attack("flip", probability=1.0).edit(bc_forest, rng)
        original = bc_forest.predict_all(X_test)
        flipped = attacked.predict_all(X_test)
        assert np.array_equal(flipped, -original)

    def test_attacked_forest_still_predicts(self, bc_forest, bc_data, rng):
        _, X_test, _, _ = bc_data
        attacked = make_attack("truncate", depth=3).edit(bc_forest, rng)
        predictions = attacked.predict(X_test)
        assert set(np.unique(predictions)) <= {-1, 1}


class TestModificationRobustness:
    @pytest.fixture(scope="class")
    def target(self, wm_model, bc_data):
        return AttackTarget.from_split(wm_model, bc_data)

    def test_flip_degrades_watermark(self, target):
        report = make_attack("flip", probability=1.0).run(
            target, np.random.default_rng(1)
        )
        # Flipping every leaf inverts all per-tree behaviour: 0-bit trees
        # now miss every trigger, 1-bit trees hit every trigger.
        assert not report.watermark_accepted
        assert report.watermark_match_rate == 0.0
        assert report.succeeded

    def test_identity_attack_keeps_watermark(self, target):
        report = make_attack("flip", probability=0.0).run(
            target, np.random.default_rng(2)
        )
        assert report.watermark_accepted
        assert report.watermark_match_rate == 1.0

    def test_truncation_tradeoff_recorded(self, target):
        report = make_attack("truncate", depth=1).run(
            target, np.random.default_rng(0)
        )
        assert 0.0 <= report.attacked_accuracy <= 1.0
        assert 0.0 <= report.watermark_match_rate <= 1.0
        assert report.details["n_trees"] == target.model.ensemble.n_trees_

    def test_unknown_attack_rejected(self):
        with pytest.raises(ValidationError, match="unknown attack 'distill'"):
            make_attack("distill")
