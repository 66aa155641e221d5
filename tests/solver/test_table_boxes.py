"""The leaf boxes read from a node table equal the oracle's walk.

``compile_pattern_encoding`` reads every candidate leaf's box from the
compiled node table in level-synchronous array passes; the box-DPLL
oracle walks the object trees recursively.  Both must give the same
boxes in the same order, since that order numbers the CNF's variables
and clauses: trees in ensemble order, leaves depth-first and left
first, and within a box each feature's bound where the path first
turns that way on it.
"""

import numpy as np
import pytest
from box_dpll_oracle import boxes_for_label

from repro.ensemble import RandomForestClassifier, compile_trees
from repro.persistence import load, save
from repro.solver.compiled_encoding import _table_boxes
from repro.trees.node import InternalNode, Leaf


def _from_table(engine, required):
    """Per tree, each box as its ``(upper items, lower items)`` lists."""
    screen = _table_boxes(engine, required)
    upper = list(zip(screen.upper_feature.tolist(), screen.upper_value.tolist()))
    lower = list(zip(screen.lower_feature.tolist(), screen.lower_value.tolist()))
    offsets = screen.tree_offsets.tolist()
    return [
        [
            (
                [item for item, b in zip(upper, screen.upper_box) if b == box],
                [item for item, b in zip(lower, screen.lower_box) if b == box],
            )
            for box in range(first, stop)
        ]
        for first, stop in zip(offsets, offsets[1:])
    ]


def _from_walk(roots, required):
    return [
        [
            (list(box.upper.items()), list(box.lower.items()))
            for box in boxes_for_label(root, label)
        ]
        for root, label in zip(roots, required)
    ]


def _patterns(n_trees, rng):
    """Every tree +1, every tree -1 (together: every leaf) and a mix."""
    return [[+1] * n_trees, [-1] * n_trees, rng.choice([-1, 1], n_trees).tolist()]


def _forest(seed, n_features=5, max_depth=None):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(160, n_features))
    y = np.where(X[:, 0] + 0.3 * rng.standard_normal(160) > 0.5, 1, -1)
    return RandomForestClassifier(
        n_estimators=6, max_depth=max_depth, random_state=seed
    ).fit(X, y)


@pytest.mark.parametrize("seed, max_depth", [(0, None), (1, 4), (2, None), (3, 8)])
def test_random_forests_match_the_walk(seed, max_depth):
    forest = _forest(seed, max_depth=max_depth)
    engine = forest.compile()
    for required in _patterns(forest.n_trees_, np.random.default_rng(seed)):
        assert _from_table(engine, required) == _from_walk(forest.roots(), required)
    boxes = sum(len(trees) for trees in _from_table(engine, [+1] * 6))
    boxes += sum(len(trees) for trees in _from_table(engine, [-1] * 6))
    assert boxes == engine.n_leaves


def test_a_feature_split_several_times_along_a_path():
    """Left turns keep the smallest threshold at the first left turn's
    place, right turns the largest at the first right turn's place, and
    an infinite threshold bounds nothing on its open side."""
    root = InternalNode(
        0, 0.5,
        InternalNode(
            0, 0.3,
            InternalNode(1, 0.2, Leaf(+1), InternalNode(0, 0.1, Leaf(-1), Leaf(+1))),
            InternalNode(0, 0.4, InternalNode(2, np.inf, Leaf(+1), Leaf(-1)), Leaf(-1)),
        ),
        InternalNode(
            1, 0.9,
            InternalNode(0, 0.8, InternalNode(0, 0.6, Leaf(+1), Leaf(-1)), Leaf(-1)),
            InternalNode(2, -np.inf, Leaf(+1), Leaf(+1)),
        ),
    )
    engine = compile_trees([root])
    for label in (-1, +1):
        assert _from_table(engine, [label]) == _from_walk([root], [label])
    positive = _from_table(engine, [+1])[0]
    assert positive[:2] == [
        ([(0, 0.3), (1, 0.2)], []),
        ([(0, 0.3)], [(1, 0.2), (0, 0.1)]),
    ]
    # Right of 0.3, left of 0.4 (tightening the root's 0.5 in place),
    # then left of +inf: no bound on feature 2.
    assert positive[2] == ([(0, 0.4)], [(0, 0.3)])
    # Right of -inf is no bound either.
    assert positive[-1] == ([], [(0, 0.5), (1, 0.9)])


def test_single_leaf_trees_and_trees_without_candidates():
    stump = InternalNode(0, 0.5, Leaf(-1), Leaf(+1))
    roots = [Leaf(+1), stump, Leaf(-1)]
    engine = compile_trees(roots)
    required = [+1, +1, +1]
    assert _from_table(engine, required) == _from_walk(roots, required)
    assert _from_table(engine, required) == [[([], [])], [([], [(0, 0.5)])], []]
    assert _from_table(compile_trees([Leaf(-1)]), [-1]) == [[([], [])]]


@pytest.mark.parametrize("mmap_mode", [None, "r"], ids=["buffered", "mmap"])
def test_table_reloaded_from_rfbin(tmp_path, mmap_mode):
    forest = _forest(4, n_features=7)
    path = tmp_path / "forest.rfbin"
    save(forest, path)
    loaded = load(path, mmap_mode=mmap_mode)
    for required in _patterns(forest.n_trees_, np.random.default_rng(4)):
        assert _from_table(loaded.compile(), required) == _from_walk(
            forest.roots(), required
        )
    assert loaded._trees_ is None
