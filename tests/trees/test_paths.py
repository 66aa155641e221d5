"""Tests for leaf boxes, the geometry the box-DPLL oracle searches.

``Box`` and the object-tree walk live in ``box_dpll_oracle.py``; the
library reads the same boxes from node tables
(``tests/solver/test_table_boxes.py`` checks that they agree).
"""

import numpy as np
import pytest
from box_dpll_oracle import Box, boxes_for_label, leaf_boxes
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trees import DecisionTreeClassifier
from repro.trees.node import InternalNode, Leaf, predict_one


class TestBoxAlgebra:
    def test_unconstrained_box_contains_everything(self, rng):
        box = Box()
        assert not box.is_empty()
        assert box.contains(rng.uniform(-100, 100, size=8))

    def test_constrain_keeps_tighter_bounds(self):
        box = Box()
        box.constrain_upper(0, 5.0)
        box.constrain_upper(0, 3.0)
        box.constrain_upper(0, 7.0)
        assert box.upper[0] == 3.0
        box.constrain_lower(0, 1.0)
        box.constrain_lower(0, 2.0)
        box.constrain_lower(0, 0.5)
        assert box.lower[0] == 2.0

    def test_emptiness(self):
        box = Box()
        box.constrain_upper(1, 1.0)
        box.constrain_lower(1, 1.0)  # x > 1 and x <= 1: empty
        assert box.is_empty()

    def test_contains_respects_strictness(self):
        box = Box(lower={0: 1.0}, upper={0: 2.0})
        assert not box.contains(np.array([1.0]))  # boundary is excluded below
        assert box.contains(np.array([2.0]))  # included above
        assert box.contains(np.array([1.5]))

    def test_intersection_commutes(self):
        a = Box(lower={0: 0.0}, upper={0: 2.0, 1: 5.0})
        b = Box(lower={0: 1.0, 2: 0.5}, upper={0: 3.0})
        ab = a.intersect(b)
        ba = b.intersect(a)
        assert ab.lower == ba.lower and ab.upper == ba.upper
        assert ab.interval(0) == (1.0, 2.0)

    def test_intersects_agrees_with_intersect_emptiness(self, rng):
        for _ in range(50):
            a = Box(
                lower={int(f): float(v) for f, v in zip(rng.integers(0, 4, 2), rng.uniform(0, 1, 2))},
                upper={int(f): float(v) for f, v in zip(rng.integers(0, 4, 2), rng.uniform(0, 1, 2))},
            )
            b = Box(
                lower={int(f): float(v) for f, v in zip(rng.integers(0, 4, 2), rng.uniform(0, 1, 2))},
                upper={int(f): float(v) for f, v in zip(rng.integers(0, 4, 2), rng.uniform(0, 1, 2))},
            )
            assert a.intersects(b) == (not a.intersect(b).is_empty())

    def test_clip_to_ball(self):
        box = Box().clip_to_ball(np.array([0.5, 0.5]), 0.1)
        assert box.contains(np.array([0.55, 0.45]))
        assert not box.contains(np.array([0.7, 0.5]))

    def test_sample_point_lands_inside(self, rng):
        box = Box(lower={0: 0.2, 1: 0.4}, upper={0: 0.6, 2: 0.9})
        x = box.sample_point(4, reference=rng.uniform(size=4))
        assert box.contains(x)

    def test_sample_point_prefers_reference(self):
        box = Box(lower={0: 0.0}, upper={0: 1.0})
        reference = np.array([0.37, 0.88])
        x = box.sample_point(2, reference=reference)
        assert x[0] == pytest.approx(0.37)
        assert x[1] == pytest.approx(0.88)

    def test_sample_point_empty_box_raises(self):
        box = Box(lower={0: 2.0}, upper={0: 1.0})
        with pytest.raises(ValueError, match="empty"):
            box.sample_point(1)


class TestLeafBoxes:
    def test_paper_figure1_boxes(self):
        tree = InternalNode(
            feature=0,
            threshold=5.0,
            left=InternalNode(feature=1, threshold=3.0, left=Leaf(+1), right=Leaf(-1)),
            right=InternalNode(feature=2, threshold=7.0, left=Leaf(-1), right=Leaf(+1)),
        )
        pairs = leaf_boxes(tree)
        assert len(pairs) == 4
        positive = boxes_for_label(tree, +1)
        assert len(positive) == 2
        # The +1 box on the left branch: x0 <= 5, x1 <= 3.
        left_pos = [box for box in positive if box.interval(0)[1] == 5.0][0]
        assert left_pos.interval(1) == (float("-inf"), 3.0)

    def test_every_sample_in_exactly_one_box(self, rng):
        X = rng.uniform(size=(80, 4))
        y = rng.choice([-1, 1], size=80)
        tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
        pairs = leaf_boxes(tree.root_)
        for x in X[:30]:
            containing = [leaf for leaf, box in pairs if box.contains(x)]
            assert len(containing) == 1

    def test_box_membership_equals_tree_routing(self, rng):
        X = rng.uniform(size=(60, 3))
        y = rng.choice([-1, 1], size=60)
        tree = DecisionTreeClassifier(max_depth=6).fit(X, y)
        pairs = leaf_boxes(tree.root_)
        for x in rng.uniform(size=(40, 3)):
            prediction = predict_one(tree.root_, x)
            containing = [leaf for leaf, box in pairs if box.contains(x)]
            assert len(containing) == 1
            assert containing[0].prediction == prediction

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_sampled_box_points_route_to_their_leaf(self, seed):
        gen = np.random.default_rng(seed)
        X = gen.uniform(size=(50, 3))
        y = gen.choice([-1, 1], size=50)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        for leaf, box in leaf_boxes(tree.root_):
            x = box.sample_point(3, reference=gen.uniform(size=3))
            assert predict_one(tree.root_, x) == leaf.prediction
