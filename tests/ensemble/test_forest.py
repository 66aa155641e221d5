"""Tests for the no-bootstrap random forest."""

import numpy as np
import pytest
from legacy_node_dicts import node_to_dict

from repro.ensemble import RandomForestClassifier, compile_forest
from repro.exceptions import NotFittedError, ValidationError
from repro.trees import DecisionTreeClassifier, growth, splitter


def _forest_fingerprint(forest):
    """Bitwise-comparable snapshot of the fitted trees and subspaces."""
    return (
        [node_to_dict(root) for root in forest.roots()],
        [subset.tolist() for subset in forest.feature_subsets_],
    )


class TestFit:
    def test_number_of_trees(self, bc_data):
        X_train, _, y_train, _ = bc_data
        forest = RandomForestClassifier(n_estimators=5, max_depth=4, random_state=0)
        forest.fit(X_train, y_train)
        assert forest.n_trees_ == 5
        assert len(forest.feature_subsets_) == 5

    def test_feature_subspace_sizes(self, bc_data):
        X_train, _, y_train, _ = bc_data
        forest = RandomForestClassifier(
            n_estimators=4, tree_feature_fraction=0.5, max_depth=3, random_state=0
        ).fit(X_train, y_train)
        expected = max(1, round(0.5 * X_train.shape[1]))
        for subset in forest.feature_subsets_:
            assert subset.shape[0] == expected
            assert np.array_equal(subset, np.unique(subset))  # sorted, distinct

    def test_trees_use_only_their_subspace(self, bc_data):
        X_train, _, y_train, _ = bc_data
        forest = RandomForestClassifier(
            n_estimators=4, tree_feature_fraction=0.3, max_depth=5, random_state=1
        ).fit(X_train, y_train)
        for tree, subset in zip(forest.trees_, forest.feature_subsets_):
            assert tree.used_features_() <= set(subset.tolist())

    def test_no_bootstrap_every_tree_sees_all_data(self, rng):
        # Without bootstrap and with the full feature set, all trees of
        # an unconstrained forest fit the training data perfectly.
        X = rng.uniform(size=(60, 4))
        y = rng.choice([-1, 1], size=60)
        forest = RandomForestClassifier(
            n_estimators=3, tree_feature_fraction=1.0, random_state=2
        ).fit(X, y)
        assert (forest.predict_all(X) == y[None, :]).all()

    def test_determinism(self, bc_data):
        X_train, X_test, y_train, _ = bc_data
        a = RandomForestClassifier(n_estimators=4, max_depth=4, random_state=9).fit(
            X_train, y_train
        )
        b = RandomForestClassifier(n_estimators=4, max_depth=4, random_state=9).fit(
            X_train, y_train
        )
        assert np.array_equal(a.predict_all(X_test), b.predict_all(X_test))

    def test_invalid_params(self, bc_data):
        X_train, _, y_train, _ = bc_data
        with pytest.raises(ValidationError):
            RandomForestClassifier(n_estimators=0).fit(X_train, y_train)
        with pytest.raises(ValidationError):
            RandomForestClassifier(tree_feature_fraction=0.0).fit(X_train, y_train)
        with pytest.raises(ValidationError):
            RandomForestClassifier(tree_feature_fraction=1.5).fit(X_train, y_train)


@pytest.mark.parametrize(
    "estimator, params",
    [
        (DecisionTreeClassifier, {"max_depth": True}),
        (DecisionTreeClassifier, {"max_depth": 2.5}),
        (DecisionTreeClassifier, {"max_depth": float("nan")}),
        (DecisionTreeClassifier, {"max_leaf_nodes": 2.5}),
        (DecisionTreeClassifier, {"min_samples_split": 2.5}),
        (DecisionTreeClassifier, {"min_samples_leaf": 1.5}),
        (DecisionTreeClassifier, {"min_impurity_decrease": float("nan")}),
        (DecisionTreeClassifier, {"min_impurity_decrease": float("inf")}),
        (RandomForestClassifier, {"n_estimators": True}),
        (RandomForestClassifier, {"n_estimators": 2.5}),
        (RandomForestClassifier, {"tree_feature_fraction": True}),
        (RandomForestClassifier, {"tree_feature_fraction": float("nan")}),
        (RandomForestClassifier, {"max_depth": 2.5, "n_jobs": 2}),
        (RandomForestClassifier, {"min_samples_leaf": 1.5}),
    ],
    ids=lambda value: getattr(value, "__name__", None) or repr(value),
)
def test_non_integral_or_non_finite_hyperparameters_raise(estimator, params, bc_data):
    """Booleans, fractions and NaN are no counts: each raises
    ``ValidationError`` at ``fit``, before any tree grows."""
    X_train, _, y_train, _ = bc_data
    if estimator is RandomForestClassifier:
        params = {"n_estimators": 2, **params}
    with pytest.raises(ValidationError):
        estimator(**params).fit(X_train, y_train)


class TestPredict:
    def test_predict_all_shape(self, bc_forest, bc_data):
        _, X_test, _, _ = bc_data
        all_predictions = bc_forest.predict_all(X_test)
        assert all_predictions.shape == (9, X_test.shape[0])
        assert set(np.unique(all_predictions)) <= {-1, 1}

    def test_predict_is_majority_of_predict_all(self, bc_forest, bc_data):
        _, X_test, _, _ = bc_data
        all_predictions = bc_forest.predict_all(X_test)
        votes = (all_predictions == 1).sum(axis=0)
        expected = np.where(votes * 2 > 9, 1, -1)  # 9 trees, odd: no ties
        assert np.array_equal(bc_forest.predict(X_test), expected)

    def test_predict_proba_rows_sum_to_one(self, bc_forest, bc_data):
        _, X_test, _, _ = bc_data
        proba = bc_forest.predict_proba(X_test)
        assert proba.shape == (X_test.shape[0], 2)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_score_reasonable(self, bc_forest, bc_data):
        _, X_test, _, y_test = bc_data
        assert bc_forest.score(X_test, y_test) > 0.8

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            RandomForestClassifier().predict(np.zeros((1, 2)))
        with pytest.raises(NotFittedError):
            RandomForestClassifier().predict_all(np.zeros((1, 2)))


class TestStructure:
    def test_structure_arrays(self, bc_forest):
        structure = bc_forest.structure()
        assert structure["depth"].shape == (9,)
        assert structure["n_leaves"].shape == (9,)
        assert (structure["depth"] <= 8).all()

    def test_total_leaves(self, bc_forest):
        assert bc_forest.total_leaves() == int(bc_forest.structure()["n_leaves"].sum())

    def test_roots_are_tree_roots(self, bc_forest):
        roots = bc_forest.roots()
        assert len(roots) == 9
        assert all(root is tree.root_ for root, tree in zip(roots, bc_forest.trees_))


class TestParallelFit:
    def test_n_jobs_bitwise_identical(self, bc_data):
        X_train, _, y_train, _ = bc_data
        serial = RandomForestClassifier(
            n_estimators=5, max_depth=5, random_state=3
        ).fit(X_train, y_train)
        pooled = RandomForestClassifier(
            n_estimators=5, max_depth=5, random_state=3, n_jobs=2
        ).fit(X_train, y_train)
        assert _forest_fingerprint(serial) == _forest_fingerprint(pooled)

    def test_n_jobs_minus_one_runs(self, bc_data):
        X_train, _, y_train, _ = bc_data
        forest = RandomForestClassifier(
            n_estimators=3, max_depth=4, random_state=4, n_jobs=-1
        ).fit(X_train, y_train)
        assert forest.n_trees_ == 3

    def test_invalid_n_jobs_rejected(self, bc_data):
        X_train, _, y_train, _ = bc_data
        for bad in (0, -2, 1.5, True):
            with pytest.raises(ValidationError):
                RandomForestClassifier(
                    n_estimators=2, max_depth=3, n_jobs=bad
                ).fit(X_train, y_train)


def _lockstep_data(n_classes):
    """Weighted data with duplicated values, trigger-style heavy rows and
    some zero weights, in two or three classes."""
    rng = np.random.default_rng(40 + n_classes)
    X = rng.random((160, 7))
    X[:, 3] = np.round(X[:, 3], 1)
    score = X[:, 0] + 0.6 * X[:, 2] + 0.3 * rng.random(160)
    y = np.digitize(score, [0.8] if n_classes == 2 else [0.6, 1.1])
    weights = rng.uniform(0.5, 2.0, 160)
    weights[rng.choice(160, size=12, replace=False)] = 0.0
    weights[rng.choice(160, size=4, replace=False)] = 40.0
    return X, y, weights


class TestLockstepGrowth:
    """A forest grows its slots in lockstep, one batched split search
    per step; no tree may change for it."""

    @staticmethod
    def _assert_slots_fitted_alone(forest, X, y, weights, params):
        for seed, tree, subset in zip(forest._tree_seeds_, forest.trees_, forest.feature_subsets_):
            rng = np.random.default_rng(seed)
            alone_subset = np.sort(rng.choice(X.shape[1], size=subset.shape[0], replace=False))
            alone = DecisionTreeClassifier(
                feature_subset=alone_subset, random_state=rng, **params
            ).fit(X, y, sample_weight=weights)
            assert np.array_equal(alone_subset, subset)
            assert node_to_dict(alone.root_) == node_to_dict(tree.root_)
            # The slot's stream ends where the lone fit leaves it.
            assert tree.random_state.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("n_jobs", [None, 2])
    @pytest.mark.parametrize(
        "shape", [{"max_depth": 6}, {"max_leaf_nodes": 9}], ids=["depth-first", "best-first"]
    )
    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_each_slot_equals_its_tree_fitted_alone(self, criterion, n_classes, shape, n_jobs):
        X, y, weights = _lockstep_data(n_classes)
        params = dict(criterion=criterion, max_features=3, min_samples_leaf=2, **shape)
        forest = RandomForestClassifier(
            n_estimators=5, tree_feature_fraction=0.7, random_state=41, n_jobs=n_jobs, **params
        ).fit(X, y, sample_weight=weights)
        self._assert_slots_fitted_alone(forest, X, y, weights, params)

    @pytest.mark.parametrize("group_cap", [None, 1], ids=["one-group", "tree-per-group"])
    @pytest.mark.parametrize("max_features", [None, 3], ids=["whole-subspace", "sampled"])
    @pytest.mark.parametrize(
        "fraction", [0.5, 1.0], ids=["overlapping-subspaces", "identical-subspaces"]
    )
    @pytest.mark.parametrize(
        "shape", [{"max_depth": 6}, {"max_leaf_nodes": 9}], ids=["depth-first", "best-first"]
    )
    def test_shared_roots_equal_trees_fitted_alone(
        self, shape, fraction, max_features, group_cap, monkeypatch
    ):
        """The roots of one search score each distinct feature once; the
        scores they share must leave every slot as it grows alone."""
        X, y, weights = _lockstep_data(2)
        if group_cap is not None:
            monkeypatch.setattr(growth, "_LOCKSTEP_ELEMENTS", group_cap)
        params = dict(max_features=max_features, **shape)
        forest = RandomForestClassifier(
            n_estimators=6, tree_feature_fraction=fraction, random_state=43, **params
        ).fit(X, y, sample_weight=weights)
        self._assert_slots_fitted_alone(forest, X, y, weights, params)

    def test_roots_retrying_their_whole_subspace_share_it(self, monkeypatch):
        """Roots whose sampled feature is constant find no split and
        retry with their whole subspace on the next step, together."""
        X, y, weights = _lockstep_data(3)
        X[:, [1, 3, 4, 5, 6]] = 0.5
        searches = []
        search = growth.find_best_split

        def recording(presort, codes, weights, nodes, *rest):
            searches.append([(id(node.index), node.lanes is None) for node in nodes])
            return search(presort, codes, weights, nodes, *rest)

        monkeypatch.setattr(growth, "find_best_split", recording)
        params = dict(max_features=1, max_depth=5)
        forest = RandomForestClassifier(
            n_estimators=8, tree_feature_fraction=1.0, random_state=44, **params
        ).fit(X, y, sample_weight=weights)
        monkeypatch.undo()
        # The first search holds the eight roots, each with one sampled
        # feature; the second holds the roots that retry with all seven.
        roots = {key for key, _ in searches[0]}
        assert len(roots) == 1 and len(searches[0]) == 8
        retries = [key for key, whole in searches[1] if whole and key in roots]
        assert len(retries) >= 2
        self._assert_slots_fitted_alone(forest, X, y, weights, params)

    @pytest.mark.parametrize("group_cap", [None, 1], ids=["one-group", "tree-per-group"])
    @pytest.mark.parametrize(
        "shape", [{"max_depth": 7}, {"max_leaf_nodes": 12}], ids=["depth-first", "best-first"]
    )
    def test_tiny_batches_grow_the_same_forest(self, shape, group_cap, monkeypatch):
        X, y, weights = _lockstep_data(3)

        def tables():
            forest = RandomForestClassifier(
                n_estimators=6, max_features=3, random_state=42, **shape
            ).fit(X, y, sample_weight=weights)
            return compile_forest(forest, collect_leaf_weight=True).to_tables()

        expected = tables()
        blocks = []
        score_block = splitter._score_block

        def counting(kernel, parts, nodes, sizes, *rest):
            lanes = sum(stop - first for _, first, stop in parts)
            blocks.append((lanes, int(sizes[parts[-1][0]]), parts[0][1]))
            return score_block(kernel, parts, nodes, sizes, *rest)

        monkeypatch.setattr(splitter, "_score_block", counting)
        monkeypatch.setattr(splitter, "_BATCH_ELEMENTS", 16)
        monkeypatch.setattr(growth, "_BATCH_ELEMENTS", 16)
        if group_cap is not None:
            monkeypatch.setattr(growth, "_LOCKSTEP_ELEMENTS", group_cap)
        chunked = tables()
        assert expected.keys() == chunked.keys()
        for key, value in expected.items():
            assert np.array_equal(value, chunked[key]), key
        # The cap bit: blocks stayed within 16 padded elements (or one
        # lane), so nodes were split across blocks.
        assert all(lanes * width * 3 <= 16 or lanes == 1 for lanes, width, _ in blocks)
        assert any(first_lane > 0 for _, _, first_lane in blocks)


class TestGrownAnswers:
    """Growth's answer on the training rows is what the compiled forest
    predicts for them; rows of zero weight never entered a tree."""

    @pytest.mark.parametrize("n_jobs", [None, 2])
    @pytest.mark.parametrize(
        "shape", [{"max_depth": 5}, {"max_leaf_nodes": 7}], ids=["depth-first", "best-first"]
    )
    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equal_to_predict_all(self, seed, n_classes, shape, n_jobs):
        rng = np.random.default_rng(900 + seed)
        X = rng.random((140, 6))
        X[:, 2] = np.round(X[:, 2], 1)
        y = rng.integers(0, n_classes, 140) * 2 - 1
        weights = rng.exponential(1.0, 140)
        zero = rng.choice(140, size=15, replace=False)
        weights[zero] = 0.0
        forest = RandomForestClassifier(
            n_estimators=5, max_features=4, tree_feature_fraction=0.7,
            random_state=seed, n_jobs=n_jobs, **shape,
        ).fit(X, y, sample_weight=weights)
        held = np.flatnonzero(weights > 0)
        assert np.array_equal(forest._grown_predict_all(held), forest.predict_all(X[held]))
        with pytest.raises(ValidationError, match="zero weight"):
            forest._grown_predict_all(zero[:1])
        # A refit replaces the refitted slots' answers, a kept slot keeps its own.
        weights[held[:10]] += 5.0
        forest.refit_trees([1, 3], X, y, sample_weight=weights)
        assert np.array_equal(forest._grown_predict_all(held), forest.predict_all(X[held]))

    def test_dropped_with_replaced_roots_and_never_persisted(self, bc_data, tmp_path):
        from repro.persistence import load, save

        X_train, _, y_train, _ = bc_data
        forest = RandomForestClassifier(
            n_estimators=3, max_depth=4, random_state=12
        ).fit(X_train, y_train)
        rows = np.arange(5)
        forest._grown_predict_all(rows)
        clone = forest.with_roots(forest.roots())
        with pytest.raises(ValidationError, match="not grown"):
            clone._grown_predict_all(rows)
        save(forest, tmp_path / "forest.rfbin")
        with pytest.raises(ValidationError, match="not grown"):
            load(tmp_path / "forest.rfbin")._grown_predict_all(rows)


class TestRefitTrees:
    def test_only_selected_slots_change(self, bc_data):
        X_train, _, y_train, _ = bc_data
        forest = RandomForestClassifier(
            n_estimators=5, max_depth=5, random_state=6
        ).fit(X_train, y_train)
        before = _forest_fingerprint(forest)
        forest.refit_trees([1, 3], X_train, y_train)
        after = _forest_fingerprint(forest)
        for slot in (0, 2, 4):
            assert after[0][slot] == before[0][slot]
            assert after[1][slot] == before[1][slot]
        # Refitted slots get a fresh draw from their private stream.
        assert after[0][1] != before[0][1] or after[1][1] != before[1][1]

    def test_refit_order_independent(self, bc_data):
        X_train, _, y_train, _ = bc_data

        def fresh():
            return RandomForestClassifier(
                n_estimators=5, max_depth=5, random_state=6
            ).fit(X_train, y_train)

        together = fresh().refit_trees([1, 3], X_train, y_train)
        separately = fresh().refit_trees([3], X_train, y_train).refit_trees(
            [1], X_train, y_train
        )
        assert _forest_fingerprint(together) == _forest_fingerprint(separately)

    def test_refit_with_weights_changes_fit(self, bc_data):
        X_train, _, y_train, _ = bc_data
        forest = RandomForestClassifier(
            n_estimators=3, max_depth=4, tree_feature_fraction=1.0, random_state=7
        ).fit(X_train, y_train)
        weights = np.ones(X_train.shape[0])
        weights[:5] = 100.0
        forest.refit_trees([0], X_train, y_train, sample_weight=weights)
        assert forest.trees_[0].predict(X_train[:5]).tolist() == y_train[:5].tolist()

    def test_refit_invalidates_compiled_cache(self, bc_data):
        X_train, X_test, y_train, _ = bc_data
        forest = RandomForestClassifier(
            n_estimators=3, max_depth=4, random_state=8
        ).fit(X_train, y_train)
        forest.compile()
        forest.refit_trees([2], X_train, y_train)
        assert forest._compiled_ is None
        # Predictions after refit come from the new trees.
        expected = np.stack([t.predict(X_test) for t in forest.trees_])
        assert np.array_equal(forest.predict_all(X_test), expected)

    def test_out_of_range_indices_rejected(self, bc_data):
        X_train, _, y_train, _ = bc_data
        forest = RandomForestClassifier(
            n_estimators=3, max_depth=3, random_state=9
        ).fit(X_train, y_train)
        with pytest.raises(ValidationError):
            forest.refit_trees([3], X_train, y_train)
        with pytest.raises(ValidationError):
            forest.refit_trees([-1], X_train, y_train)

    @pytest.mark.parametrize(
        "indices", [[False, False, False, True], [2.9], [2.0], ["1"]],
        ids=["bool-mask", "float", "integral-float", "string"],
    )
    def test_non_integer_indices_rejected(self, bc_data, indices):
        X_train, _, y_train, _ = bc_data
        forest = RandomForestClassifier(
            n_estimators=4, max_depth=3, random_state=9
        ).fit(X_train, y_train)
        before = _forest_fingerprint(forest)
        with pytest.raises(ValidationError, match="integers"):
            forest.refit_trees(indices, X_train, y_train)
        assert _forest_fingerprint(forest) == before

    def test_empty_indices_noop(self, bc_data):
        X_train, _, y_train, _ = bc_data
        forest = RandomForestClassifier(
            n_estimators=3, max_depth=3, random_state=10
        ).fit(X_train, y_train)
        before = _forest_fingerprint(forest)
        forest.refit_trees([], X_train, y_train)
        assert _forest_fingerprint(forest) == before

    def test_unfitted_raises(self, bc_data):
        X_train, _, y_train, _ = bc_data
        with pytest.raises(NotFittedError):
            RandomForestClassifier().refit_trees([0], X_train, y_train)


class TestWithRoots:
    def test_clone_shares_metadata_not_caches(self, bc_forest, bc_data):
        _, X_test, _, _ = bc_data
        bc_forest.compile()
        clone = bc_forest.with_roots([t.root_ for t in bc_forest.trees_])
        assert clone._compiled_ is None
        assert all(t._compiled_ is None for t in clone.trees_)
        assert all(t._compiled_sources_ is None for t in clone.trees_)
        assert np.array_equal(clone.predict_all(X_test), bc_forest.predict_all(X_test))
        assert clone.classes_ is bc_forest.classes_
        assert clone.n_features_in_ == bc_forest.n_features_in_

    def test_donor_unaffected(self, bc_forest):
        from repro.trees.node import Leaf

        roots_before = bc_forest.roots()
        clone = bc_forest.with_roots([Leaf(1, {1: 1.0})] * bc_forest.n_trees_)
        assert bc_forest.roots() == roots_before
        assert all(root.is_leaf for root in clone.roots())

    def test_wrong_root_count_rejected(self, bc_forest):
        with pytest.raises(ValidationError, match="roots"):
            bc_forest.with_roots([bc_forest.trees_[0].root_])

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            RandomForestClassifier().with_roots([])


class TestCloneWith:
    def test_overrides_apply(self):
        forest = RandomForestClassifier(n_estimators=7, max_depth=3)
        clone = forest.clone_with(n_estimators=2)
        assert clone.n_estimators == 2
        assert clone.max_depth == 3
        assert clone.trees_ is None  # unfitted

    def test_unknown_override_raises(self):
        with pytest.raises(ValidationError, match="unknown"):
            RandomForestClassifier().clone_with(bogus=1)
