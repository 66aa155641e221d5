"""Property tests: compiled flat-array inference ≡ object-graph traversal.

The compiled engine must be *bitwise identical* to the ``TreeNode``
traversal — the watermark lives in exact per-tree predictions, so even
one flipped borderline comparison would corrupt verification.  The
references are :func:`repro.trees.node.predict_batch` for labels and
the stack walk in ``object_graph_oracle.py`` for probabilities.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ensemble import (
    GradientBoostingClassifier,
    RandomForestClassifier,
    compile_trees,
)
from repro.ensemble.voting import majority_vote
from repro.exceptions import ValidationError
from repro.persistence import load, save
from repro.trees import DecisionTreeClassifier
from repro.trees.node import InternalNode, Leaf, predict_batch

from object_graph_oracle import forest_proba_walk, predict_proba_walk

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _object_all(forest, X):
    """Per-tree answers walked through the object graph (the reference)."""
    return np.stack([predict_batch(tree.root_, X) for tree in forest.trees_], axis=0)


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
        assert engine.n_trees == 1 and engine.roots.tolist() == [0]
        compiled = engine.predict_all(X_query)[0]
        assert compiled.dtype == reference.dtype
        assert np.array_equal(compiled, reference)
        assert np.array_equal(tree.predict(X_query), reference)

        # On-threshold queries: route exactly like the object graph.
        X_edges = X[gen.choice(X.shape[0], size=64), :].copy()
        assert np.array_equal(tree.predict(X_edges), predict_batch(tree.root_, X_edges))

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_hand_built_tree_bitwise_identical(self, seed):
        gen = np.random.default_rng(seed)
        n_features = int(gen.integers(1, 6))
        root = _random_hand_built_tree(gen, n_features, depth=int(gen.integers(0, 7)))
        X_query = gen.normal(size=(100, n_features))
        engine = compile_trees([root])
        assert np.array_equal(engine.predict_all(X_query)[0], predict_batch(root, X_query))

    def test_single_node_tree(self):
        engine = compile_trees([Leaf(prediction=7)], classes=np.array([7]))
        X = np.random.default_rng(0).normal(size=(13, 3))
        assert engine.depth == 0
        assert engine.n_nodes == 1 and engine.n_leaves == 1
        assert np.array_equal(engine.predict_all(X), np.full((1, 13), 7, dtype=np.int64))
        assert np.array_equal(engine.predict_proba(X), np.ones((13, 1)))

    def test_empty_batch(self):
        gen = np.random.default_rng(3)
        root = _random_hand_built_tree(gen, n_features=4, depth=5)
        engine = compile_trees([root])
        empty = np.empty((0, 4))
        assert engine.apply_all(empty).shape == (1, 0)
        assert engine.predict_all(empty).shape == (1, 0)
        assert engine.predict_all(empty).dtype == np.int64
        # ... and the same for a two-tree table.
        packed = compile_trees([root, root], classes=np.array([-1, 1]))
        assert packed.predict_all(empty).shape == (2, 0)
        assert packed.predict_proba(empty).shape == (0, 2)

    def test_proba_matches_object_path(self):
        gen = np.random.default_rng(11)
        X, y = _random_data(gen, n_samples=300)
        tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
        X_query = gen.normal(size=(128, X.shape[1]))
        reference = predict_proba_walk(tree.root_, tree.classes_, X_query)
        assert np.array_equal(tree.predict_proba(X_query), reference)
        assert np.array_equal(tree.compile().predict_proba(X_query), reference)

    @pytest.mark.parametrize("n_rows", [1, 5, 40])
    def test_every_batch_size_matches_the_object_graph(self, n_rows):
        """A first query of any size on a fresh tree answers like the
        object graph, labels and probabilities alike."""
        gen = np.random.default_rng(13)
        X, y = _random_data(gen)
        tree = DecisionTreeClassifier(max_depth=6).fit(X, y)
        X_query = gen.normal(size=(n_rows, X.shape[1]))
        labels = tree.predict(X_query)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, predict_batch(tree.root_, X_query))
        assert np.array_equal(
            tree.predict_proba(X_query),
            predict_proba_walk(tree.root_, tree.classes_, X_query),
        )

    def test_proba_requires_classes(self):
        engine = compile_trees([Leaf(prediction=1)])
        with pytest.raises(ValidationError):
            engine.predict_proba(np.zeros((1, 1)))

    @pytest.mark.parametrize("n_rows", [1, 5, 40])
    def test_leaf_label_outside_classes_rejected(self, n_rows):
        """A hand-built leaf whose label is not in ``classes_`` fails the
        same way in ``predict`` and ``predict_proba`` at every size."""
        for method in ("predict", "predict_proba"):
            tree = DecisionTreeClassifier()
            tree.root_ = InternalNode(
                feature=0, threshold=0.0, left=Leaf(prediction=-1), right=Leaf(prediction=7)
            )
            tree.classes_ = np.array([-1, 1])
            tree.n_features_in_ = 2
            with pytest.raises(ValidationError, match="leaf label 7 is not in the classes"):
                getattr(tree, method)(np.zeros((n_rows, 2)))


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
        reference_proba = forest_proba_walk(forest, X_query)

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
    """One route: every call compiles the model's table on first use
    and reuses it until a root is replaced."""

    @staticmethod
    def _count_compiles(monkeypatch):
        from repro.ensemble import compiled

        calls = []
        original = compiled.compile_trees

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(compiled, "compile_trees", counting)
        return calls

    def test_one_row_predict_compiles_once(self, monkeypatch):
        gen = np.random.default_rng(4)
        X, y = _random_data(gen)
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        calls = self._count_compiles(monkeypatch)
        row = gen.normal(size=(1, X.shape[1]))
        assert tree._compiled_ is None
        assert np.array_equal(tree.predict(row), predict_batch(tree.root_, row))
        assert len(calls) == 1
        engine = tree._compiled_
        assert engine is not None
        # A second call, of any method and size, reuses the engine.
        tree.predict(row)
        tree.predict_proba(gen.normal(size=(40, X.shape[1])))
        assert len(calls) == 1 and tree._compiled_ is engine

    def test_replacing_a_root_recompiles(self, monkeypatch):
        gen = np.random.default_rng(5)
        X, y = _random_data(gen)
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        calls = self._count_compiles(monkeypatch)
        row = gen.normal(size=(1, X.shape[1]))
        tree.predict(row)
        engine = tree._compiled_
        tree.root_ = Leaf(prediction=int(tree.classes_[0]))
        assert np.array_equal(tree.predict(row), tree.classes_[:1])
        assert len(calls) == 2 and tree._compiled_ is not engine

    def test_forest_compiles_on_first_query_of_any_size(self):
        gen = np.random.default_rng(6)
        X, y = _random_data(gen)
        forest = RandomForestClassifier(n_estimators=3, max_depth=4, random_state=0)
        forest.fit(X, y)
        rows = gen.normal(size=(4, X.shape[1]))
        assert np.array_equal(forest.predict_all(rows), _object_all(forest, rows))
        engine = forest._compiled_
        assert engine is not None
        forest.predict_all(gen.normal(size=(256, X.shape[1])))
        assert forest._compiled_ is engine

    def test_cache_invalidated_when_roots_change(self):
        gen = np.random.default_rng(7)
        X, y = _random_data(gen)
        forest = RandomForestClassifier(n_estimators=3, max_depth=6, random_state=0)
        forest.fit(X, y)
        stale = forest.compile()

        from repro.trees.pruning import truncate_tree

        attacked = forest.with_roots([truncate_tree(root, 1) for root in forest.roots()])
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


class TestTableWidth:
    """The flat gather reads ``row * width + feature``: a table that
    splits on a feature past the input width must refuse the batch
    rather than read the next row."""

    @staticmethod
    def _wide_split_forest():
        gen = np.random.default_rng(14)
        X = gen.normal(size=(60, 30))
        y = np.where(X[:, 0] > 0, 1, -1)
        forest = RandomForestClassifier(n_estimators=1, max_depth=2, random_state=0)
        forest.fit(X, y)
        root = InternalNode(
            feature=31,
            threshold=0.0,
            left=Leaf(prediction=-1, class_weights={-1: 1.0}),
            right=Leaf(prediction=1, class_weights={1: 1.0}),
        )
        return forest.with_roots([root]), gen.normal(size=(40, 30))

    @pytest.mark.parametrize("n_rows", [1, 40])
    def test_in_memory_surgery_rejected(self, n_rows):
        forest, X = self._wide_split_forest()
        for method in ("predict_all", "predict", "predict_proba"):
            with pytest.raises(ValidationError, match="splits on feature 31"):
                getattr(forest, method)(X[:n_rows])

    @pytest.mark.parametrize("mmap_mode", [None, "r"])
    def test_rfbin_artefact_rejected(self, tmp_path, mmap_mode):
        forest, X = self._wide_split_forest()
        path = tmp_path / "wide.rfbin"
        save(forest, path)
        restored = load(path, mmap_mode=mmap_mode)
        with pytest.raises(ValidationError, match="splits on feature 31"):
            restored.predict_all(X)

    def test_wide_enough_input_accepted(self):
        engine = compile_trees(
            [InternalNode(feature=2, threshold=0.0, left=Leaf(-1), right=Leaf(1))]
        )
        assert engine.predict_all(np.ones((3, 3))).tolist() == [[1, 1, 1]]
        with pytest.raises(ValidationError, match="X has 2 features"):
            engine.predict_all(np.ones((3, 2)))
