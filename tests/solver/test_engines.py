"""Tests for the pattern solver against the box-DPLL oracle.

``solve_pattern_smt`` is the one-shot form of the compiled encoding,
the library's one forgery CNF.  The box-DPLL solver
(``box_dpll_oracle.py``) is an independent implementation of the same
decision problem; random cross-checking is the library's substitute
for "trust Z3".
"""

import numpy as np
from box_dpll_oracle import solve_pattern_boxes
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import random_signature
from repro.ensemble import RandomForestClassifier
from repro.solver import PatternProblem, required_labels, solve_pattern_smt
from repro.trees.node import InternalNode, Leaf


def _stump(feature=0, threshold=0.5):
    return InternalNode(feature, threshold, Leaf(-1), Leaf(+1))


class TestSimpleInstances:
    def test_single_stump_sat(self):
        problem = PatternProblem(roots=[_stump()], required=[+1], n_features=1)
        for solve in (solve_pattern_smt, solve_pattern_boxes):
            outcome = solve(problem)
            assert outcome.is_sat
            assert problem.check_solution(outcome.instance)

    def test_conflicting_trees_unsat(self):
        # Same stump required to output both labels: impossible.
        roots = [_stump(), _stump()]
        problem = PatternProblem(roots=roots, required=[+1, -1], n_features=1)
        assert solve_pattern_smt(problem).is_unsat
        assert solve_pattern_boxes(problem).is_unsat

    def test_ball_makes_instance_unsat(self):
        problem = PatternProblem(
            roots=[_stump()],
            required=[+1],
            n_features=1,
            center=np.array([0.1]),
            epsilon=0.1,
        )
        assert solve_pattern_smt(problem).is_unsat
        assert solve_pattern_boxes(problem).is_unsat

    def test_solution_respects_ball(self):
        problem = PatternProblem(
            roots=[_stump()],
            required=[+1],
            n_features=1,
            center=np.array([0.45]),
            epsilon=0.1,
        )
        for solve in (solve_pattern_smt, solve_pattern_boxes):
            outcome = solve(problem)
            assert outcome.is_sat
            assert abs(outcome.instance[0] - 0.45) <= 0.1 + 1e-9
            assert outcome.instance[0] > 0.5

    def test_paper_figure1_example(self):
        """The worked example of §3.3: signature 01, label +1, solution
        x = (4, 3, 5) exists."""
        tree1 = InternalNode(
            0, 5.0,
            InternalNode(1, 3.0, Leaf(+1), Leaf(-1)),
            InternalNode(2, 7.0, Leaf(-1), Leaf(+1)),
        )
        tree2 = InternalNode(
            0, 2.0,
            InternalNode(1, 4.0, Leaf(+1), Leaf(-1)),
            InternalNode(2, 6.0, Leaf(-1), Leaf(+1)),
        )
        sig = random_signature(2, random_state=0)  # placeholder, we set explicitly
        from repro.core import Signature

        sig = Signature.from_string("01")
        problem = PatternProblem(
            roots=[tree1, tree2],
            required=required_labels(sig, +1),
            n_features=3,
            domain=(0.0, 10.0),
        )
        for solve in (solve_pattern_smt, solve_pattern_boxes):
            outcome = solve(problem)
            assert outcome.is_sat
            # The paper's own witness must satisfy the problem too.
            assert problem.check_solution(np.array([4.0, 3.0, 5.0]))


class TestCrossCheck:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_engines_agree_on_random_forest_patterns(self, seed):
        gen = np.random.default_rng(seed)
        X = gen.uniform(size=(60, 4))
        y = gen.choice([-1, 1], size=60)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        forest = RandomForestClassifier(
            n_estimators=4, max_depth=3, tree_feature_fraction=0.8, random_state=seed % 1000
        ).fit(X, y)
        signature = random_signature(4, ones_fraction=0.5, random_state=seed % 997)
        label = int(gen.choice([-1, 1]))
        center = X[int(gen.integers(60))]
        epsilon = float(gen.uniform(0.05, 0.8))
        problem = PatternProblem(
            roots=forest.roots(),
            required=required_labels(signature, label),
            n_features=4,
            center=center,
            epsilon=epsilon,
        )
        smt = solve_pattern_smt(problem)
        boxes = solve_pattern_boxes(problem)
        assert smt.status == boxes.status
        for outcome in (smt, boxes):
            if outcome.is_sat:
                assert problem.check_solution(outcome.instance)

    def test_unbounded_problem_engines_agree(self, forge_problem):
        smt = solve_pattern_smt(forge_problem)
        boxes = solve_pattern_boxes(forge_problem)
        assert smt.status == boxes.status

    def test_budget_exhaustion_reports_unknown(self, forge_problem):
        outcome = solve_pattern_boxes(forge_problem, max_nodes=1)
        assert outcome.status in ("unknown", "unsat", "sat")  # tiny budget
