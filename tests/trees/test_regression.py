"""Tests for the regression-tree base learner."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError, ValidationError
from repro.trees.regression import RegressionTree


class TestFitPredict:
    def test_constant_target(self):
        X = np.linspace(0, 1, 20).reshape(-1, 1)
        y = np.full(20, 3.5)
        tree = RegressionTree(max_depth=3).fit(X, y)
        assert np.allclose(tree.predict(X), 3.5)

    def test_step_function_recovered(self):
        X = np.linspace(0, 1, 40).reshape(-1, 1)
        y = np.where(X[:, 0] > 0.5, 2.0, -2.0)
        tree = RegressionTree(max_depth=2).fit(X, y)
        assert np.allclose(tree.predict(X), y)

    def test_depth_limits_pieces(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(200, 1))
        y = np.sin(6 * X[:, 0])
        shallow = RegressionTree(max_depth=1).fit(X, y)
        assert len(np.unique(shallow.predict(X))) <= 2

    def test_deeper_fits_better(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(300, 2))
        y = X[:, 0] * 2 + np.sin(5 * X[:, 1])
        def mse(depth):
            tree = RegressionTree(max_depth=depth).fit(X, y)
            return float(np.mean((tree.predict(X) - y) ** 2))
        assert mse(6) < mse(2) < mse(1) + 1e-9

    def test_weighted_mean_leaf_values(self):
        X = np.array([[0.0], [0.0], [0.0]])
        y = np.array([0.0, 0.0, 3.0])
        weights = np.array([1.0, 1.0, 2.0])
        tree = RegressionTree(max_depth=2).fit(X, y, sample_weight=weights)
        # Constant feature: single leaf with weighted mean 6/4 = 1.5.
        assert tree.predict(np.array([[0.0]]))[0] == pytest.approx(1.5)

    def test_custom_leaf_value_fn(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([1.0, -1.0])
        tree = RegressionTree(max_depth=1).fit(
            X, y, leaf_value_fn=lambda index: 42.0
        )
        assert np.allclose(tree.predict(X), 42.0)

    def test_min_samples_leaf(self):
        X = np.linspace(0, 1, 10).reshape(-1, 1)
        y = np.where(X[:, 0] > 0.05, 1.0, -1.0)  # lone outlier at the edge
        tree = RegressionTree(max_depth=5, min_samples_leaf=3).fit(X, y)
        # The outlier cannot be isolated alone.
        assert not np.allclose(tree.predict(X), y)


class TestValidation:
    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            RegressionTree().predict(np.zeros((1, 1)))

    def test_bad_target_shape(self):
        with pytest.raises(ValidationError):
            RegressionTree().fit(np.zeros((3, 1)), np.zeros((3, 2)))

    def test_bad_depth(self):
        with pytest.raises(ValidationError):
            RegressionTree(max_depth=0)

    @pytest.mark.parametrize(
        "params, match",
        [
            ({"min_samples_leaf": -1}, "min_samples_leaf"),
            ({"min_samples_leaf": 0}, "min_samples_leaf"),
            ({"min_samples_split": 0}, "min_samples_split"),
            ({"min_samples_split": 1}, "min_samples_split"),
        ],
    )
    def test_bad_sample_counts_rejected_at_fit(self, params, match):
        # Rejected by fit, like DecisionTreeClassifier; construction
        # stays permissive because loading builds trees without fitting.
        tree = RegressionTree(**params)
        with pytest.raises(ValidationError, match=match):
            tree.fit(np.zeros((4, 1)), np.arange(4.0))

    def test_feature_mismatch_at_predict(self):
        tree = RegressionTree(max_depth=1).fit(np.zeros((4, 2)), np.arange(4.0))
        with pytest.raises(ValidationError, match="features"):
            tree.predict(np.zeros((1, 3)))
