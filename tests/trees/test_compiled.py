"""Property tests: compiled flat-array inference ≡ object-graph traversal.

The compiled engine must be *bitwise identical* to the ``TreeNode``
traversal — the watermark lives in exact per-tree predictions, so even
one flipped borderline comparison would corrupt verification.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ensemble import (
    GradientBoostingClassifier,
    RandomForestClassifier,
    compile_forest,
    compile_trees,
)
from repro.ensemble.voting import majority_vote
from repro.exceptions import ValidationError
from repro.trees import DecisionTreeClassifier, compile_tree
from repro.trees.compiled import MIN_COMPILE_ROWS
from repro.trees.node import InternalNode, Leaf, predict_batch

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _object_all(forest, X):
    """Per-tree answers walked through the object graph (the reference)."""
    return np.stack([predict_batch(tree.root_, X) for tree in forest.trees_], axis=0)


def _small_batches(model, method, X):
    """``model.method`` over batches below :data:`MIN_COMPILE_ROWS`.

    On a model that was never compiled these take the object-graph
    route, which is what makes them a reference for the engine.
    """
    assert model._compiled_ is None
    step = MIN_COMPILE_ROWS - 1
    out = np.concatenate(
        [getattr(model, method)(X[i : i + step]) for i in range(0, X.shape[0], step)]
    )
    assert model._compiled_ is None
    return out


def _random_data(gen, n_samples=200, n_features=6):
    X = gen.normal(size=(n_samples, n_features))
    y = np.where(X[:, 0] + X[:, 1] * X[:, 2] > gen.normal() * 0.3, 1, -1)
    if np.unique(y).shape[0] < 2:  # pathological draw: force both classes
        y[0], y[1] = -1, 1
    return X, y


def _random_hand_built_tree(gen, n_features, depth):
    """A hand-built random tree (thresholds independent of any data)."""
    if depth == 0 or gen.uniform() < 0.25:
        label = int(gen.choice([-1, 1]))
        return Leaf(prediction=label, class_weights={label: float(gen.uniform(1, 5))})
    return InternalNode(
        feature=int(gen.integers(n_features)),
        threshold=float(gen.normal()),
        left=_random_hand_built_tree(gen, n_features, depth - 1),
        right=_random_hand_built_tree(gen, n_features, depth - 1),
    )


class TestCompiledTreeEquivalence:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_fitted_tree_bitwise_identical(self, seed):
        gen = np.random.default_rng(seed)
        X, y = _random_data(gen)
        tree = DecisionTreeClassifier(
            max_depth=int(gen.integers(1, 10)),
            min_samples_leaf=int(gen.integers(1, 4)),
        ).fit(X, y)
        X_query = gen.normal(size=(257, X.shape[1]))

        reference = predict_batch(tree.root_, X_query)
        engine = tree.compile()
        compiled = engine.predict(X_query)
        assert compiled.dtype == reference.dtype
        assert np.array_equal(compiled, reference)

        # On-threshold queries: route exactly like the object graph.
        X_edges = X[gen.choice(X.shape[0], size=64), :].copy()
        assert np.array_equal(engine.predict(X_edges), predict_batch(tree.root_, X_edges))

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_hand_built_tree_bitwise_identical(self, seed):
        gen = np.random.default_rng(seed)
        n_features = int(gen.integers(1, 6))
        root = _random_hand_built_tree(gen, n_features, depth=int(gen.integers(0, 7)))
        X_query = gen.normal(size=(100, n_features))
        engine = compile_tree(root)
        assert np.array_equal(engine.predict(X_query), predict_batch(root, X_query))

    def test_single_node_tree(self):
        engine = compile_tree(Leaf(prediction=7), classes=np.array([7]))
        X = np.random.default_rng(0).normal(size=(13, 3))
        assert engine.depth == 0
        assert engine.n_nodes == 1 and engine.n_leaves == 1
        assert np.array_equal(engine.predict(X), np.full(13, 7, dtype=np.int64))
        assert np.array_equal(engine.predict_proba(X), np.ones((13, 1)))

    def test_empty_batch(self):
        gen = np.random.default_rng(3)
        root = _random_hand_built_tree(gen, n_features=4, depth=5)
        engine = compile_tree(root)
        empty = np.empty((0, 4))
        assert engine.apply(empty).shape == (0,)
        assert engine.predict(empty).shape == (0,)
        assert engine.predict(empty).dtype == np.int64
        # ... and the same for a whole compiled ensemble.
        packed = compile_trees([root, root], classes=np.array([-1, 1]))
        assert packed.predict_all(empty).shape == (2, 0)
        assert packed.predict_proba(empty).shape == (0, 2)

    def test_proba_matches_object_path(self):
        gen = np.random.default_rng(11)
        X, y = _random_data(gen, n_samples=300)
        tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
        X_query = gen.normal(size=(128, X.shape[1]))
        reference = _small_batches(tree, "predict_proba", X_query)
        assert np.array_equal(tree.compile().predict_proba(X_query), reference)

    def test_proba_requires_classes(self):
        engine = compile_tree(Leaf(prediction=1))
        with pytest.raises(ValidationError):
            engine.predict_proba(np.zeros((1, 1)))


class TestCompiledForestEquivalence:
    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_forest_bitwise_identical(self, seed):
        gen = np.random.default_rng(seed)
        X, y = _random_data(gen, n_samples=150)
        forest = RandomForestClassifier(
            n_estimators=int(gen.integers(1, 8)),
            max_depth=int(gen.integers(1, 8)),
            tree_feature_fraction=float(gen.uniform(0.4, 1.0)),
            random_state=int(gen.integers(2**31 - 1)),
        ).fit(X, y)
        X_query = gen.normal(size=(200, X.shape[1]))

        reference_all = _object_all(forest, X_query)
        reference_pred = majority_vote(reference_all, forest.classes_)
        reference_proba = _small_batches(forest, "predict_proba", X_query)

        engine = forest.compile()
        assert np.array_equal(engine.predict_all(X_query), reference_all)
        assert engine.predict_all(X_query).dtype == reference_all.dtype
        assert np.array_equal(engine.predict(X_query), reference_pred)
        # Probabilities only differ in summation order across trees.
        np.testing.assert_allclose(
            engine.predict_proba(X_query), reference_proba, rtol=0, atol=1e-12
        )

        # The estimator API itself must agree with the object graph.
        assert np.array_equal(forest.predict_all(X_query), reference_all)
        assert np.array_equal(forest.predict(X_query), reference_pred)

    def test_forest_of_single_leaf_trees(self):
        forest = RandomForestClassifier(n_estimators=3)
        trees = []
        for label in (-1, 1, 1):
            tree = DecisionTreeClassifier()
            tree.root_ = Leaf(prediction=label, class_weights={label: 2.0})
            tree.classes_ = np.array([-1, 1])
            tree.n_features_in_ = 2
            trees.append(tree)
        forest.trees_ = trees
        forest.feature_subsets_ = [np.array([0, 1])] * 3
        forest.classes_ = np.array([-1, 1])
        forest.n_features_in_ = 2

        X = np.zeros((5, 2))
        engine = forest.compile()
        assert engine.depth == 0
        assert np.array_equal(engine.predict_all(X), [[-1] * 5, [1] * 5, [1] * 5])
        assert np.array_equal(engine.predict(X), np.ones(5, dtype=np.int64))

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_boosting_bitwise_identical(self, seed):
        gen = np.random.default_rng(seed)
        X, y = _random_data(gen, n_samples=120)
        model = GradientBoostingClassifier(
            n_estimators=int(gen.integers(1, 6)), max_depth=int(gen.integers(1, 4))
        ).fit(X, y)
        X_query = gen.normal(size=(150, X.shape[1]))

        reference_contrib = np.stack(
            [model.learning_rate * tree.predict(X_query) for tree in model.trees_]
        )
        reference_margin = model.init_score_ + reference_contrib.sum(axis=0)
        reference_pred = np.where(reference_margin >= 0.0, 1, -1)

        model.compile()
        assert np.array_equal(model.stage_contributions(X_query), reference_contrib)
        assert np.array_equal(model.decision_function(X_query), reference_margin)
        assert np.array_equal(model.predict(X_query), reference_pred)


class TestBackendAndCaching:
    """The batch size alone picks the route: the object graph below
    :data:`MIN_COMPILE_ROWS` on a never-compiled model, the compiled
    engine otherwise."""

    def test_backend_switch_and_restore(self):
        gen = np.random.default_rng(4)
        X, y = _random_data(gen)
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        other = DecisionTreeClassifier(max_depth=4).fit(X, y)
        X_query = gen.normal(size=(MIN_COMPILE_ROWS, X.shape[1]))
        reference = predict_batch(tree.root_, X_query)
        assert np.array_equal(tree.predict(X_query[:-1]), reference[:-1])
        assert tree._compiled_ is None  # one row short: object route
        assert np.array_equal(tree.predict(X_query), reference)
        assert tree._compiled_ is not None  # at the threshold: compiled
        # The switch is per model: nothing global changed for another one.
        other.predict(X_query[:-1])
        assert other._compiled_ is None

    def test_object_backend_never_compiles(self):
        gen = np.random.default_rng(5)
        X, y = _random_data(gen)
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        for _ in range(20):
            tree.predict(gen.normal(size=(MIN_COMPILE_ROWS - 1, X.shape[1])))
            tree.predict_proba(gen.normal(size=(1, X.shape[1])))
        assert tree._compiled_ is None

    def test_lazy_compile_skips_tiny_batches(self):
        gen = np.random.default_rng(6)
        X, y = _random_data(gen)
        forest = RandomForestClassifier(n_estimators=3, max_depth=4, random_state=0)
        forest.fit(X, y)
        forest.predict_all(gen.normal(size=(4, X.shape[1])))
        assert forest._compiled_ is None  # below the lazy threshold
        forest.predict_all(gen.normal(size=(256, X.shape[1])))
        assert forest._compiled_ is not None  # large batch compiled
        # ... and once compiled, tiny batches reuse the engine.
        engine = forest._compiled_
        forest.predict_all(gen.normal(size=(4, X.shape[1])))
        assert forest._compiled_ is engine

    def test_cache_invalidated_when_roots_change(self):
        gen = np.random.default_rng(7)
        X, y = _random_data(gen)
        forest = RandomForestClassifier(n_estimators=3, max_depth=6, random_state=0)
        forest.fit(X, y)
        stale = forest.compile()

        from repro.attacks.modification import truncate_forest

        attacked = truncate_forest(forest, max_depth=1)
        X_query = gen.normal(size=(300, X.shape[1]))
        reference = _object_all(attacked, X_query)
        assert np.array_equal(attacked.predict_all(X_query), reference)
        assert attacked._compiled_ is not stale
        # The original forest still answers from its untouched cache.
        assert forest._compiled_ is stale

    def test_wrong_feature_count_rejected_on_compiled_paths(self):
        """The engine's flat gather must never see a misshaped X."""
        gen = np.random.default_rng(12)
        X, y = _random_data(gen)
        forest = RandomForestClassifier(n_estimators=3, max_depth=4, random_state=0)
        forest.fit(X, y)
        forest.compile()
        for n_cols in (X.shape[1] - 2, X.shape[1] + 2):
            with pytest.raises(ValidationError, match="features"):
                forest.predict_all(gen.normal(size=(64, n_cols)))
            with pytest.raises(ValidationError, match="features"):
                forest.predict_proba(gen.normal(size=(64, n_cols)))

        model = GradientBoostingClassifier(n_estimators=2, max_depth=2).fit(X, y)
        model.compile()
        with pytest.raises(ValidationError, match="features"):
            model.stage_contributions(gen.normal(size=(64, X.shape[1] + 1)))

    def test_refit_resets_cache(self):
        gen = np.random.default_rng(8)
        X, y = _random_data(gen)
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        tree.compile()
        tree.fit(X, y)
        assert tree._compiled_ is None


class TestCompiledVerificationPath:
    def test_verification_identical_across_backends(self):
        """The watermark protocol sees the bits the object graph gives."""
        from repro.api import TrainerConfig, TriggerPolicy, Watermarker
        from repro.core import random_signature
        from repro.core.verification import verify_ownership

        gen = np.random.default_rng(9)
        X, y = _random_data(gen, n_samples=260)
        signature = random_signature(m=6, ones_fraction=0.5, random_state=2)
        model = Watermarker(
            signature=signature,
            trigger=TriggerPolicy(size=4),
            trainer=TrainerConfig(base_params={"max_depth": 8}),
            random_state=3,
        ).fit(X, y)
        model.ensemble.compile()
        report = verify_ownership(
            model.ensemble, signature, model.trigger.X, model.trigger.y
        )
        reference = _object_all(model.ensemble, model.trigger.X)
        assert report.accepted
        assert np.array_equal(
            report.per_tree_accuracy, (reference == model.trigger.y).mean(axis=1)
        )
