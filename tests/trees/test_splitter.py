"""Tests for the exact weighted splitter."""

import numpy as np
import pytest
from node_local_oracle import local_best_split

from repro.trees.criteria import entropy_impurity, gini_impurity, weighted_class_counts
from repro.trees.presort import SortedDataset, root_ordering
from repro.trees.splitter import NodeSearch, find_best_split


def _node(X, y, weights=None, features=None, index=None):
    """Canonical arrays of one node: ``(X, codes, weights, index, features, C)``."""
    X = np.asarray(X, dtype=np.float64)
    classes, codes = np.unique(np.asarray(y), return_inverse=True)
    weights = np.ones(X.shape[0]) if weights is None else np.asarray(weights, dtype=np.float64)
    features = np.arange(X.shape[1]) if features is None else np.asarray(features)
    index = np.arange(X.shape[0]) if index is None else np.asarray(index)
    return X, codes, weights, index, features, classes.shape[0]


def _split(
    X, y, weights=None, features=None, min_leaf=1, min_decrease=0.0,
    criterion=gini_impurity, index=None, lane_positions=None,
):
    """Search one node the way tree growth does: over its presorted lanes.

    The ordering covers ``features`` (the tree's subspace);
    ``lane_positions`` picks the candidate lanes within it.
    """
    X, codes, weights, index, features, n_classes = _node(X, y, weights, features, index)
    presort = SortedDataset(X)
    rows = root_ordering(presort, index, features)
    candidates = features if lane_positions is None else features[lane_positions]
    [split] = find_best_split(
        presort, codes, weights, [NodeSearch(index, rows, candidates, lane_positions)],
        n_classes, criterion, min_leaf, min_decrease,
    )
    return split


def _oracle(
    X, y, weights=None, features=None, min_leaf=1, min_decrease=0.0,
    criterion=gini_impurity, index=None, lane_positions=None,
):
    """The same node searched by the node-local reference."""
    X, codes, weights, index, features, n_classes = _node(X, y, weights, features, index)
    candidates = features if lane_positions is None else features[lane_positions]
    return local_best_split(
        X, codes, weights, index, candidates, n_classes, criterion, min_leaf, min_decrease
    )


def _assert_same_split(a, b):
    assert (a is None) == (b is None)
    if a is None:
        return
    assert (a.feature, a.threshold, a.gain) == (b.feature, b.threshold, b.gain)
    assert np.array_equal(a.left_index, b.left_index)
    assert np.array_equal(a.right_index, b.right_index)


class TestBasicSplits:
    def test_perfect_separation(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([-1, -1, 1, 1])
        split = _split(X, y)
        assert split is not None
        assert split.feature == 0
        assert 1.0 < split.threshold < 2.0
        assert sorted(split.left_index.tolist()) == [0, 1]
        assert sorted(split.right_index.tolist()) == [2, 3]

    def test_pure_node_returns_none(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 1, 1])
        assert _split(X, y) is None

    def test_constant_feature_returns_none(self):
        X = np.array([[2.0], [2.0], [2.0], [2.0]])
        y = np.array([-1, 1, -1, 1])
        assert _split(X, y) is None

    def test_picks_most_informative_feature(self):
        # Feature 1 separates perfectly, feature 0 does not.
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 2.0], [1.0, 3.0]])
        y = np.array([-1, -1, 1, 1])
        split = _split(X, y)
        assert split is not None
        assert split.feature == 1

    def test_respects_candidate_features(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 2.0], [1.0, 3.0]])
        y = np.array([-1, -1, 1, 1])
        split = _split(X, y, features=[0])
        # Feature 0 alone: the four points are -1,+1 at both values; no gain.
        assert split is None or split.feature == 0

    def test_threshold_is_between_values(self):
        X = np.array([[1.0], [1.0], [4.0], [4.0]])
        y = np.array([-1, -1, 1, 1])
        split = _split(X, y)
        assert split is not None
        assert 1.0 <= split.threshold < 4.0
        # Left samples must actually satisfy x <= threshold.
        assert (X[split.left_index, 0] <= split.threshold).all()
        assert (X[split.right_index, 0] > split.threshold).all()


class TestWeights:
    def test_weights_flip_best_split(self):
        # Unweighted best split separates at 1.5; a huge weight on the
        # single sample at x=10 with label -1 pulls the split to protect it.
        X = np.array([[0.0], [1.0], [2.0], [3.0], [10.0]])
        y = np.array([-1, -1, 1, 1, -1])
        unweighted = _split(X, y)
        assert unweighted is not None
        weighted = _split(X, y, weights=[1, 1, 1, 1, 100])
        assert weighted is not None
        # With the heavy -1 at x=10, isolating it yields the largest gain.
        assert weighted.threshold > unweighted.threshold

    def test_zero_total_gain_with_interleaved_labels(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([-1, 1, -1, 1])
        split = _split(X, y)
        # Best split here has tiny but positive gain; either answer must
        # be consistent with the admissibility rules.
        if split is not None:
            assert split.gain > 0


class TestConstraints:
    def test_min_samples_leaf_blocks_extreme_splits(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
        y = np.array([-1, 1, 1, 1, 1, 1])
        split = _split(X, y, min_leaf=2)
        if split is not None:
            assert split.left_index.shape[0] >= 2
            assert split.right_index.shape[0] >= 2

    def test_min_impurity_decrease_blocks_weak_splits(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([-1, 1, -1, 1])
        assert _split(X, y, min_decrease=0.9) is None

    def test_children_partition_the_node(self, rng):
        X = rng.uniform(size=(50, 4))
        y = rng.choice([-1, 1], size=50)
        split = _split(X, y)
        if split is not None:
            merged = np.sort(np.concatenate([split.left_index, split.right_index]))
            assert np.array_equal(merged, np.arange(50))

    def test_gain_matches_manual_computation(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([-1, -1, 1, 1])
        split = _split(X, y)
        assert split is not None
        # Parent: 4 samples, gini 0.5, weighted impurity 2.0; children pure.
        assert split.gain == pytest.approx(2.0)


@pytest.mark.parametrize("engine", ["local", "presorted"])
class TestDeterminismContract:
    """The splitter's tie-break and threshold guarantees, pinned for the
    library's presorted search and for the node-local reference the
    differential tests below compare it with."""

    @staticmethod
    def search(engine, *args, **kwargs):
        return (_oracle if engine == "local" else _split)(*args, **kwargs)

    def test_equal_gain_tie_breaks_to_lowest_feature_id(self, engine):
        # Feature 1 duplicates feature 0, so every candidate threshold
        # has an exactly equal gain on both; the contract picks id 0.
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([-1, -1, 1, 1])
        split = self.search(engine, X, y)
        assert split is not None
        assert split.feature == 0

    def test_tie_break_independent_of_candidate_order(self, engine):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([-1, -1, 1, 1])
        split = self.search(engine, X, y, features=[1, 0])
        assert split is not None
        assert split.feature == 0

    def test_midpoint_collapse_guard_routes_boundary_left(self, engine):
        # At 1e16 the float64 spacing is 2, so the midpoint of a=1e16
        # and b=1e16+2 rounds back onto a.  The guard must pin the
        # threshold to a itself and keep the boundary sample on the
        # left, never letting rounding push it right.
        a, b = 1e16, 1e16 + 2
        assert 0.5 * (a + b) == a  # midpoint collapses onto the left value
        X = np.array([[a], [a], [b], [b]])
        y = np.array([-1, -1, 1, 1])
        split = self.search(engine, X, y)
        assert split is not None
        assert split.threshold == a
        assert sorted(split.left_index.tolist()) == [0, 1]
        assert sorted(split.right_index.tolist()) == [2, 3]
        # Boundary samples (value exactly a) satisfy x <= threshold.
        assert (X[split.left_index, 0] <= split.threshold).all()

    def test_min_samples_leaf_zero_matches_local(self, engine):
        # Tree growth rejects min_samples_leaf=0; called directly, both
        # searches clamp positions to [1, n-1] and agree.
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
        y = np.array([-1, -1, 1, 1, 1])
        split = self.search(engine, X, y, min_leaf=0)
        assert split is not None
        assert split.feature == 0
        assert 1.0 < split.threshold < 2.0
        _assert_same_split(split, _oracle(X, y, min_leaf=0))

    def test_value_gap_below_epsilon_never_split(self, engine):
        # Adjacent values closer than the minimum gap are one plateau:
        # no threshold may separate them.
        X = np.array([[1.0], [1.0 + 1e-13], [1.0 + 2e-13], [1.0 + 3e-14]])
        y = np.array([-1, 1, -1, 1])
        assert self.search(engine, X, y) is None


def _random_node(seed):
    """A seeded node in the shapes tree growth produces."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 160))
    f = int(rng.integers(1, 9))
    X = rng.normal(size=(n, f))
    if f >= 3:
        X[:, 0] = 7.5  # constant feature
        X[:, 1] = np.round(X[:, 1], 1)  # heavy duplication
    if f >= 4:
        X[:, 3] = X[:, 2]  # exact duplicate: equal gains, tie-break by id
    n_classes = 2 if seed % 3 else int(rng.integers(3, 5))
    y = rng.integers(0, n_classes, size=n)
    weights = np.ones(n)
    triggers = rng.choice(n, size=max(1, n // 12), replace=False)
    weights[triggers] = float(rng.integers(10, 200))  # trigger-style mass
    if seed % 4 == 0:
        weights[rng.choice(n, size=max(1, n // 5), replace=False)] = 0.0
    # An ascending subset of the rows, as tree growth partitions them.
    index = np.flatnonzero(rng.random(n) < rng.uniform(0.3, 1.0))
    if index.size < 2:
        index = np.arange(n)
    subspace = np.sort(rng.choice(f, size=int(rng.integers(1, f + 1)), replace=False))
    lanes = None
    if subspace.size > 1 and seed % 2:
        lanes = np.sort(rng.choice(subspace.size, size=subspace.size - 1, replace=False))
    return dict(
        X=X, y=y, weights=weights, features=subspace, index=index,
        lane_positions=lanes,
        criterion=entropy_impurity if seed % 5 == 0 else gini_impurity,
        min_leaf=int(rng.integers(1, 6)),
    )


class TestNodeLocalDifferential:
    """The presorted search returns the node-local reference's split —
    same feature, threshold, gain and children, bit for bit."""

    @pytest.mark.parametrize("seed", range(60))
    def test_random_nodes(self, seed):
        case = _random_node(seed)
        _assert_same_split(_split(**case), _oracle(**case))

    @pytest.mark.parametrize(
        "X, y, weights",
        [
            ([[0.0], [1.0], [2.0], [3.0], [10.0]], [-1, -1, 1, 1, -1], [1, 1, 1, 1, 100]),
            ([[0.0], [1.0], [2.0], [3.0], [4.0]], [-1, 1, -1, 1, 1], [0, 2, 0, 1, 5]),
            ([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], [-1, -1, 1, 1], None),
            ([[1e16], [1e16], [1e16 + 2], [1e16 + 2]], [-1, -1, 1, 1], None),
            ([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]], [0, 1, 2, 0, 1, 2], [1, 2, 3, 1, 2, 3]),
        ],
        ids=["weights", "zero-weight", "tie-break", "midpoint-guard", "multiclass"],
    )
    @pytest.mark.parametrize("criterion", [gini_impurity, entropy_impurity], ids=["gini", "entropy"])
    @pytest.mark.parametrize("min_leaf", [1, 2, 3])
    def test_pinned_nodes(self, X, y, weights, criterion, min_leaf):
        kw = dict(weights=weights, criterion=criterion, min_leaf=min_leaf)
        _assert_same_split(_split(X, y, **kw), _oracle(X, y, **kw))


class TestWeightedClassCounts:
    """The bincount accumulator must match the historical ``np.add.at``
    scatter exactly — both sum float64 weights in element order."""

    def test_matches_add_at_exactly(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 300))
            n_classes = int(rng.integers(2, 6))
            codes = rng.integers(0, n_classes, size=n)
            weights = rng.uniform(0.0, 50.0, size=n)
            # A few enormous weights surface any accumulation-order drift.
            weights[rng.integers(0, n, size=max(1, n // 10))] = 1e12
            expected = np.zeros(n_classes, dtype=np.float64)
            np.add.at(expected, codes, weights)
            result = weighted_class_counts(codes, weights, n_classes)
            assert result.dtype == np.float64
            assert result.shape == (n_classes,)
            assert np.array_equal(result, expected)

    def test_empty_and_missing_classes(self):
        result = weighted_class_counts(
            np.array([], dtype=np.intp), np.array([]), 3
        )
        assert np.array_equal(result, np.zeros(3))
        result = weighted_class_counts(np.array([2]), np.array([1.5]), 4)
        assert np.array_equal(result, np.array([0.0, 0.0, 1.5, 0.0]))
