"""Tests for the gradient-boosting substrate."""

import numpy as np
import pytest

from repro.ensemble import GradientBoostingClassifier
from repro.exceptions import NotFittedError, ValidationError


class TestFitPredict:
    def test_learns_separable_data(self, rng):
        X = rng.uniform(size=(200, 3))
        y = np.where(X[:, 0] + X[:, 1] > 1.0, 1, -1)
        model = GradientBoostingClassifier(n_estimators=20, max_depth=2).fit(X, y)
        assert model.score(X, y) > 0.95

    def test_generalises(self, bc_data):
        X_train, X_test, y_train, y_test = bc_data
        model = GradientBoostingClassifier(n_estimators=25, max_depth=3).fit(
            X_train, y_train
        )
        assert model.score(X_test, y_test) > 0.85

    def test_more_stages_fit_train_better(self, rng):
        X = rng.uniform(size=(150, 4))
        y = rng.choice([-1, 1], size=150)
        few = GradientBoostingClassifier(n_estimators=3, max_depth=2).fit(X, y)
        many = GradientBoostingClassifier(n_estimators=40, max_depth=2).fit(X, y)
        assert many.score(X, y) >= few.score(X, y)

    def test_decision_function_additivity(self, bc_data):
        X_train, X_test, y_train, _ = bc_data
        model = GradientBoostingClassifier(n_estimators=6, max_depth=2).fit(
            X_train, y_train
        )
        contributions = model.stage_contributions(X_test)
        assert contributions.shape == (6, X_test.shape[0])
        rebuilt = model.init_score_ + contributions.sum(axis=0)
        assert np.allclose(rebuilt, model.decision_function(X_test))

    def test_predict_proba_valid(self, bc_data):
        X_train, X_test, y_train, _ = bc_data
        model = GradientBoostingClassifier(n_estimators=5).fit(X_train, y_train)
        proba = model.predict_proba(X_test)
        assert np.all(proba >= 0) and np.all(proba <= 1)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_stage_label_overrides_hook(self, rng):
        X = rng.uniform(size=(60, 2))
        y = rng.choice([-1, 1], size=60)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        calls = []

        def overrides(stage, labels):
            calls.append(stage)
            return labels

        GradientBoostingClassifier(n_estimators=4).fit(
            X, y, stage_label_overrides=overrides
        )
        assert calls == [0, 1, 2, 3]


class TestValidation:
    def test_non_binary_labels_rejected(self, rng):
        X = rng.uniform(size=(10, 2))
        with pytest.raises(ValidationError):
            GradientBoostingClassifier().fit(X, np.arange(10))

    def test_bad_learning_rate(self):
        with pytest.raises(ValidationError):
            GradientBoostingClassifier(learning_rate=0.0)

    def test_bad_min_samples_leaf_rejected(self, rng):
        X = rng.uniform(size=(10, 2))
        y = np.where(X[:, 0] > 0.5, 1, -1)
        with pytest.raises(ValidationError, match="min_samples_leaf"):
            GradientBoostingClassifier(n_estimators=2, min_samples_leaf=0).fit(X, y)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            GradientBoostingClassifier().predict(np.zeros((1, 2)))
