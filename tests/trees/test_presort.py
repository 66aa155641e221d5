"""Presorted training engine: cache mechanics + bitwise differential tests.

The presorted search's contract is stronger than "statistically the
same": trees grown through the sort cache must be **bit-for-bit
identical** to what node-local search grows (the reference in
``node_local_oracle.py``) — same thresholds, same tie-breaks, same
serialised form, same predictions.  These tests pin that contract over
seeded random datasets, including the degenerate shapes the
watermarking pipeline produces (constant features, heavily re-weighted
trigger rows, duplicated values), plus the cache's identity keying and
fork-adoption behaviour.
"""

from __future__ import annotations

import numpy as np
import pytest
from legacy_node_dicts import node_to_dict, regression_node_to_dict
from node_local_oracle import node_local_growth

from repro.ensemble import RandomForestClassifier
from repro.exceptions import ValidationError
from repro.persistence import forest_to_dict
from repro.persistence.serialize import _forest_from_params
from repro.trees import (
    DecisionTreeClassifier,
    RegressionTree,
    SortedDataset,
    clear_presort_cache,
    presorted_dataset,
)
from repro.trees.presort import (
    adopt_presort,
    partition_orderings,
    presort_cache_stats,
    root_ordering,
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_presort_cache()
    yield
    clear_presort_cache()


# ----------------------------------------------------------------------
# SortedDataset mechanics
# ----------------------------------------------------------------------


class TestSortedDataset:
    def test_orders_are_stable_argsorts(self, rng):
        X = rng.normal(size=(60, 5))
        X[:, 2] = np.round(X[:, 2], 1)  # duplicated values exercise stability
        ps = SortedDataset(X)
        for f in range(5):
            expected = np.argsort(X[:, f], kind="stable")
            assert np.array_equal(ps.orders[f], expected)
            assert np.array_equal(ps.sorted_values[f], X[expected, f])

    @pytest.mark.parametrize("k", [3, 17, 58])
    def test_node_sorted_matches_subset_argsort(self, rng, k):
        X = rng.normal(size=(60, 4))
        X[:, 1] = np.round(X[:, 1], 1)
        ps = SortedDataset(X)
        index = np.sort(rng.choice(60, size=k, replace=False))
        features = np.arange(4)
        rows, values = ps.node_sorted(index, features)
        for j, f in enumerate(features):
            expected = index[np.argsort(X[index, f], kind="stable")]
            assert np.array_equal(rows[j], expected)
            assert np.array_equal(values[j], X[expected, f])

    def test_node_sorted_handles_unsorted_index(self, rng):
        # Non-ascending index: the filter shortcut would be wrong, the
        # implementation must fall back to a local argsort.
        X = rng.normal(size=(40, 3))
        ps = SortedDataset(X)
        index = rng.permutation(40)[:25]
        rows, values = ps.node_sorted(index, np.arange(3))
        for f in range(3):
            expected = index[np.argsort(X[index, f], kind="stable")]
            assert np.array_equal(rows[f], expected)
            assert np.array_equal(values[f], X[expected, f])

    def test_node_sorted_feature_subsets_and_order(self, rng):
        X = rng.normal(size=(30, 5))
        ps = SortedDataset(X)
        index = np.arange(30)
        for features in ([4, 1], [2], [3, 2, 1, 0]):
            rows, values = ps.node_sorted(index, np.asarray(features))
            for j, f in enumerate(features):
                expected = np.argsort(X[:, f], kind="stable")
                assert np.array_equal(rows[j], expected)
                assert np.array_equal(values[j], X[expected, f])

    def test_partition_ordering_matches_refiltering(self, rng):
        X = rng.normal(size=(50, 4))
        ps = SortedDataset(X)
        index = np.arange(50)
        features = np.arange(4)
        rows = root_ordering(ps, index, features)
        left_index = index[X[:, 0] <= 0.0]
        right_index = index[X[:, 0] > 0.0]
        [(left, right)] = partition_orderings(ps, [(rows, 0, 0.0, left_index.shape[0])])
        for child, child_index in ((left, left_index), (right, right_index)):
            fresh_rows, fresh_values = ps.node_sorted(child_index, features)
            assert np.array_equal(child, fresh_rows)
            assert np.array_equal(ps.XT[features[:, None], child], fresh_values)

    def test_partition_orderings_batches_parents(self, rng):
        # One pass partitions parents of different lane counts and
        # sizes; each child keeps its parent's lanes, in fresh arrays.
        X = rng.normal(size=(20, 3))
        ps = SortedDataset(X)
        index = np.arange(20)
        wide_features, narrow_features = np.arange(3), np.array([2])
        wide = root_ordering(ps, index, wide_features)
        narrow_index = np.flatnonzero(X[:, 2] > -0.5)
        narrow = root_ordering(ps, narrow_index, narrow_features)
        threshold = float(np.sort(X[:, 1])[7])
        narrow_left_size = int((X[narrow_index, 2] <= 0.0).sum())
        (left, right), (narrow_left, narrow_right) = partition_orderings(
            ps, [(wide, 1, threshold, 8), (narrow, 2, 0.0, narrow_left_size)]
        )
        assert left.shape == (3, 8) and right.shape == (3, 12)
        assert narrow_left.shape == (1, narrow_left_size)
        expected_left = ps.node_sorted(index[X[:, 1] <= threshold], wide_features)[0]
        assert np.array_equal(left, expected_left)
        expected_right = ps.node_sorted(narrow_index[X[narrow_index, 2] > 0.0], narrow_features)[0]
        assert np.array_equal(narrow_right, expected_right)
        assert all(child.base is None for child in (left, right, narrow_left, narrow_right))


class TestPresortCache:
    def test_identity_keyed_hit_and_miss(self, rng):
        X = rng.normal(size=(30, 3))
        before = presort_cache_stats()
        first = presorted_dataset(X)
        again = presorted_dataset(X)
        other = presorted_dataset(X.copy())  # equal content, different object
        after = presort_cache_stats()
        assert first is again
        assert other is not first
        assert after["hits"] - before["hits"] == 1
        assert after["misses"] - before["misses"] == 2

    def test_adopt_binds_equal_array(self, rng):
        X = rng.normal(size=(25, 4))
        donor = SortedDataset(X)
        worker_X = X.copy()  # a pickled copy in a real worker
        adopted = adopt_presort(donor, worker_X)
        assert adopted is not None
        assert adopted.X is worker_X
        assert adopted.orders is donor.orders  # tables shared, not rebuilt
        assert presorted_dataset(worker_X) is adopted  # now cached

    def test_adopt_rejects_mismatch_and_junk(self, rng):
        X = rng.normal(size=(25, 4))
        donor = SortedDataset(X)
        different = rng.normal(size=(25, 4))
        assert adopt_presort(donor, different) is None
        assert adopt_presort(None, X) is None
        assert adopt_presort("not a presort", X) is None

    def test_concurrent_threaded_fits_share_one_entry(self, rng):
        # The cached tables are read-only and every scratch buffer is
        # call-local, so threads fitting on the same matrix must neither
        # crash nor diverge from a serial fit.
        import threading

        X = rng.normal(size=(1500, 6))
        y = rng.choice([-1, 1], size=1500)
        expected = node_to_dict(
            DecisionTreeClassifier(max_depth=8, random_state=0).fit(X, y).root_
        )
        failures = []

        def fit_one():
            try:
                tree = DecisionTreeClassifier(max_depth=8, random_state=0).fit(X, y)
                if node_to_dict(tree.root_) != expected:
                    failures.append("tree diverged")
            except Exception as exc:  # pragma: no cover - the failure path
                failures.append(repr(exc))

        threads = [threading.Thread(target=fit_one) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures, failures

    def test_dropped_matrix_evicts_entry(self, rng):
        # The cache must not pin training data beyond its lifetime: once
        # the caller's matrix is collected, the entry (and its tables)
        # evaporates.
        import gc

        from repro.trees.presort import _CACHE

        X = rng.normal(size=(30, 3))
        presorted_dataset(X)
        assert len(_CACHE) == 1
        del X
        gc.collect()
        assert len(_CACHE) == 0


# ----------------------------------------------------------------------
# Differential tests: presorted search ≡ node-local search, bit for bit
# ----------------------------------------------------------------------


def _random_problem(rng, trial):
    """A seeded dataset in the shapes the watermarking pipeline produces."""
    n = int(rng.integers(8, 250))
    f = int(rng.integers(1, 10))
    X = rng.normal(size=(n, f))
    if f >= 3:
        X[:, 0] = 7.5  # constant feature
        X[:, 1] = np.round(X[:, 1], 1)  # heavy duplication
    y = rng.choice([-1, 1], size=n)
    if np.unique(y).size < 2:
        y[0] = -y[0]
    weights = np.ones(n)
    # Trigger-style re-weighting: a few rows with overwhelming weight.
    triggers = rng.choice(n, size=max(1, n // 15), replace=False)
    weights[triggers] = float(rng.integers(10, 200))
    params = dict(
        criterion="entropy" if trial % 5 == 0 else "gini",
        max_depth=int(rng.integers(2, 10)),
        max_leaf_nodes=int(rng.integers(4, 24)) if trial % 3 == 0 else None,
        min_samples_leaf=int(rng.integers(1, 5)),
        max_features="sqrt" if trial % 4 == 0 else None,
        random_state=trial,
    )
    return X, y, weights, params


class TestDifferentialTrees:
    def test_trees_bitwise_identical_across_engines(self, monkeypatch):
        rng = np.random.default_rng(1234)
        for trial in range(25):
            X, y, weights, params = _random_problem(rng, trial)
            presorted = DecisionTreeClassifier(**params).fit(X, y, sample_weight=weights)
            with node_local_growth(monkeypatch):
                local = DecisionTreeClassifier(**params).fit(X, y, sample_weight=weights)
            assert node_to_dict(local.root_) == node_to_dict(presorted.root_), (
                f"trial {trial}: presorted tree differs from the node-local tree"
            )

    def test_multiclass_generic_kernel_identical(self, monkeypatch):
        rng = np.random.default_rng(99)
        for trial in range(8):
            n = int(rng.integers(20, 150))
            X = rng.normal(size=(n, 5))
            y = rng.integers(0, 4, size=n)
            y[:4] = np.arange(4)  # ensure all classes appear
            w = rng.uniform(0.1, 3.0, size=n)
            for criterion in ("gini", "entropy"):
                kw = dict(criterion=criterion, max_depth=6, random_state=trial)
                b = DecisionTreeClassifier(**kw).fit(X, y, sample_weight=w)
                with node_local_growth(monkeypatch):
                    a = DecisionTreeClassifier(**kw).fit(X, y, sample_weight=w)
                assert node_to_dict(a.root_) == node_to_dict(b.root_)

    def test_zero_weight_rows_identical(self, monkeypatch):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(80, 4))
        y = rng.choice([-1, 1], size=80)
        w = np.ones(80)
        w[::3] = 0.0  # zero-weight rows are dropped from the root index
        b = DecisionTreeClassifier(max_depth=5, random_state=0).fit(X, y, sample_weight=w)
        with node_local_growth(monkeypatch):
            a = DecisionTreeClassifier(max_depth=5, random_state=0).fit(
                X, y, sample_weight=w
            )
        assert node_to_dict(a.root_) == node_to_dict(b.root_)


class TestDifferentialForests:
    def test_forests_bitwise_identical_and_predict_all_equal(self, rng, monkeypatch):
        X = rng.normal(size=(200, 8))
        y = np.where(X[:, 0] - X[:, 3] > 0, 1, -1)
        weights = np.ones(200)
        weights[:6] = 80.0  # trigger-style mass
        common = dict(
            n_estimators=6,
            max_depth=7,
            tree_feature_fraction=0.6,
            random_state=42,
        )
        presorted = RandomForestClassifier(**common).fit(X, y, sample_weight=weights)
        with node_local_growth(monkeypatch):
            local = RandomForestClassifier(**common).fit(X, y, sample_weight=weights)
        assert forest_to_dict(local) == forest_to_dict(presorted)
        X_test = rng.normal(size=(64, 8))
        assert np.array_equal(local.predict_all(X_test), presorted.predict_all(X_test))

    def test_refit_rounds_reuse_presort_and_stay_identical(self, rng, monkeypatch):
        """Weight-only refresh: escalation rounds hit the cache, and the
        refitted forests match a node-local replay bit for bit."""
        X = rng.normal(size=(150, 6))
        y = rng.choice([-1, 1], size=150)
        # Escalation-style rounds: weights change, X doesn't.
        rounds = [np.ones(150)]
        for _ in range(3):
            rounds.append(rounds[-1].copy())
            rounds[-1][:5] += 10.0
        common = dict(n_estimators=5, max_depth=6, random_state=3)
        presorted = RandomForestClassifier(**common).fit(X, y, sample_weight=rounds[0])
        before = presort_cache_stats()
        for weights in rounds[1:]:
            presorted.refit_trees([0, 2], X, y, sample_weight=weights)
        after = presort_cache_stats()
        assert after["misses"] == before["misses"], "refit rounds must not re-sort"
        assert after["hits"] - before["hits"] >= 3

        with node_local_growth(monkeypatch):
            local = RandomForestClassifier(**common).fit(X, y, sample_weight=rounds[0])
            for weights in rounds[1:]:
                local.refit_trees([0, 2], X, y, sample_weight=weights)
        assert forest_to_dict(local) == forest_to_dict(presorted)

    def test_parallel_presorted_fit_identical_to_serial(self, rng):
        X = rng.normal(size=(120, 5))
        y = rng.choice([-1, 1], size=120)
        serial = RandomForestClassifier(n_estimators=4, max_depth=5, random_state=11)
        pooled = RandomForestClassifier(
            n_estimators=4, max_depth=5, random_state=11, n_jobs=2
        )
        serial.fit(X, y)
        pooled.fit(X, y)
        a = forest_to_dict(serial)
        b = forest_to_dict(pooled)
        a["params"].pop("n_jobs")
        b["params"].pop("n_jobs")
        assert a == b


class TestDifferentialRegression:
    def test_regression_trees_identical_across_engines(self, monkeypatch):
        rng = np.random.default_rng(2024)
        for trial in range(10):
            n = int(rng.integers(10, 200))
            f = int(rng.integers(1, 7))
            X = rng.normal(size=(n, f))
            if f >= 2:
                X[:, 0] = np.round(X[:, 0], 1)
            y = rng.normal(size=n)
            w = rng.uniform(0.1, 4.0, size=n)
            b = RegressionTree(max_depth=4).fit(X, y, sample_weight=w)
            with node_local_growth(monkeypatch):
                a = RegressionTree(max_depth=4).fit(X, y, sample_weight=w)
            X_test = rng.normal(size=(50, f))
            assert np.array_equal(a.predict(X_test), b.predict(X_test))
            assert regression_node_to_dict(a.root_) == regression_node_to_dict(b.root_)

    def test_boosting_stages_reuse_presort(self, rng):
        X = rng.normal(size=(100, 4))
        y = rng.normal(size=100)
        before = presort_cache_stats()
        for _ in range(4):  # boosting refits on the same X every stage
            RegressionTree(max_depth=3).fit(X, y)
        after = presort_cache_stats()
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == 3


class TestSplitterParam:
    """``splitter`` is retired: constructors reject it, and only the
    artefact loaders drop it from params persisted by older releases."""

    def test_unknown_splitter_rejected(self):
        for make in (DecisionTreeClassifier, RandomForestClassifier, RegressionTree):
            with pytest.raises(TypeError, match="splitter"):
                make(splitter="presorted")
        with pytest.raises(ValidationError, match="unknown parameters"):
            RandomForestClassifier().clone_with(splitter="local")

    def test_forest_get_params_roundtrip(self):
        forest = RandomForestClassifier(max_depth=4, random_state=1)
        params = forest.get_params()
        assert "splitter" not in params
        assert forest.clone_with().get_params() == params
        legacy = _forest_from_params({**params, "splitter": "local"})
        assert legacy.get_params() == params
