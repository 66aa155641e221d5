"""Tests for the pattern-problem definition (Definition 1)."""

import numpy as np
import pytest
from box_dpll_oracle import candidate_boxes

from repro.core import Signature
from repro.exceptions import ValidationError
from repro.solver import PatternProblem, check_pattern, required_labels
from repro.trees.node import InternalNode, Leaf


def _stump(feature=0, threshold=0.5, left=-1, right=+1):
    return InternalNode(feature, threshold, Leaf(left), Leaf(right))


class TestRequiredLabels:
    def test_bit_semantics(self):
        sig = Signature.from_string("011")
        assert required_labels(sig, +1) == [+1, -1, -1]
        assert required_labels(sig, -1) == [-1, +1, +1]

    def test_invalid_label(self):
        with pytest.raises(ValidationError):
            required_labels(Signature.from_string("0"), 2)


class TestPatternProblem:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            PatternProblem(roots=[_stump()], required=[1, -1], n_features=1)

    def test_ball_requires_both_parts(self):
        with pytest.raises(ValidationError):
            PatternProblem(
                roots=[_stump()], required=[1], n_features=1, center=np.zeros(1)
            )
        with pytest.raises(ValidationError):
            PatternProblem(roots=[_stump()], required=[1], n_features=1, epsilon=0.1)

    def test_center_shape_checked(self):
        with pytest.raises(ValidationError):
            PatternProblem(
                roots=[_stump()],
                required=[1],
                n_features=2,
                center=np.zeros(3),
                epsilon=0.1,
            )

    @pytest.mark.parametrize(
        "center, epsilon, match",
        [
            (np.array([np.nan]), 0.1, "center"),
            (np.array([np.inf]), 0.1, "center"),
            (np.array([0.5]), np.nan, "epsilon"),
        ],
        ids=["center-nan", "center-inf", "epsilon-nan"],
    )
    def test_non_finite_ball_rejected(self, center, epsilon, match):
        """A NaN used to reach the solver and surface as an encoding bug."""
        with pytest.raises(ValidationError, match=match):
            PatternProblem(
                roots=[_stump()], required=[1], n_features=1,
                center=center, epsilon=epsilon,
            )

    def test_feature_bounds_ball_and_domain(self):
        problem = PatternProblem(
            roots=[_stump()],
            required=[1],
            n_features=1,
            center=np.array([0.9]),
            epsilon=0.2,
            domain=(0.0, 1.0),
        )
        lo, hi = problem.feature_bounds()
        assert lo[0] == pytest.approx(0.7)
        assert hi[0] == pytest.approx(1.0)  # clipped by the domain

    def test_candidate_boxes_filters_labels(self):
        problem = PatternProblem(roots=[_stump()], required=[+1], n_features=1)
        candidates = candidate_boxes(problem)
        assert candidates is not None
        assert len(candidates) == 1
        assert len(candidates[0]) == 1  # only the right leaf is +1

    def test_candidate_boxes_none_when_label_missing(self):
        # A tree whose leaves are all -1 cannot output +1.
        all_negative = InternalNode(0, 0.5, Leaf(-1), Leaf(-1))
        problem = PatternProblem(roots=[all_negative], required=[+1], n_features=1)
        assert candidate_boxes(problem) is None

    def test_candidate_boxes_none_when_ball_excludes(self):
        problem = PatternProblem(
            roots=[_stump()],
            required=[+1],  # needs x0 > 0.5
            n_features=1,
            center=np.array([0.1]),
            epsilon=0.2,  # ball is [0, 0.3]
        )
        assert candidate_boxes(problem) is None

    def test_check_solution(self):
        problem = PatternProblem(
            roots=[_stump()],
            required=[+1],
            n_features=1,
            center=np.array([0.8]),
            epsilon=0.2,
        )
        assert problem.check_solution(np.array([0.7]))
        assert not problem.check_solution(np.array([0.4]))  # wrong leaf
        assert not problem.check_solution(np.array([1.5]))  # outside domain

    def test_check_solution_multiple_trees(self):
        roots = [_stump(0), _stump(1)]
        problem = PatternProblem(roots=roots, required=[+1, -1], n_features=2)
        assert problem.check_solution(np.array([0.9, 0.1]))
        assert not problem.check_solution(np.array([0.9, 0.9]))


class TestCheckPattern:
    """``check_pattern`` replays a witness: only a finite vector shaped
    like the ball's center can realise a pattern."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("ball", [False, True], ids=["no-ball", "ball"])
    def test_non_finite_instance_rejected(self, value, ball):
        # NaN used to pass the domain and ball checks and descend right;
        # without a domain, so did ±inf.
        stump = _stump(feature=1)
        x = np.array([0.2, value])
        kwargs = {"center": np.array([0.2, 0.6]), "epsilon": 0.5} if ball else {}
        kwargs["domain"] = None
        assert check_pattern([stump], [+1], np.array([0.2, 0.6]), **kwargs)
        assert not check_pattern([stump], [+1], x, **kwargs)
        assert not check_pattern([stump], [-1], x, **kwargs)

    @pytest.mark.parametrize("width", [1, 3])
    def test_instance_shaped_unlike_center_rejected(self, width):
        # Used to raise a bare numpy broadcast ValueError.
        center = np.array([0.2, 0.6])
        x = np.full(width, 0.6)
        assert not check_pattern([_stump(feature=0)], [+1], x, center, 0.5)
