"""Tests for the 3SAT → forgery reduction (Theorem 1)."""

import numpy as np
import pytest
from box_dpll_oracle import solve_pattern_boxes
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardness import (
    Clause,
    Formula3CNF,
    Literal,
    assignment_to_instance,
    brute_force_3sat,
    clause_to_tree,
    forgery_problem_from_formula,
    formula_to_ensemble,
    instance_to_assignment,
    literal_to_tree,
    random_3cnf,
)
from repro.hardness.reduction import all_zero_signature
from repro.solver import solve_pattern_smt
from repro.trees.node import predict_one
from repro.trees.export import tree_stats


#: The library's solver and the box-DPLL oracle.
SOLVERS = {"smt": solve_pattern_smt, "boxes": solve_pattern_boxes}


def _paper_formula():
    """(x0 ∨ x1) ∧ (x1 ∨ x2 ∨ ¬x3) — converted in the paper's Figure 2."""
    return Formula3CNF(
        n_vars=4,
        clauses=(
            Clause((Literal(0), Literal(1))),
            Clause((Literal(1), Literal(2), Literal(3, negated=True))),
        ),
    )


class TestLiteralConversion:
    def test_positive_literal(self):
        tree = literal_to_tree(Literal(0))
        assert predict_one(tree, np.array([1.0])) == +1  # x true -> +1
        assert predict_one(tree, np.array([-1.0])) == -1

    def test_negative_literal(self):
        tree = literal_to_tree(Literal(0, negated=True))
        assert predict_one(tree, np.array([-1.0])) == +1  # x false -> +1
        assert predict_one(tree, np.array([1.0])) == -1


class TestClauseConversion:
    def test_tree_accepts_exactly_satisfying_assignments(self):
        clause = Clause((Literal(0), Literal(1, negated=True), Literal(2)))
        tree = clause_to_tree(clause)
        for bits in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]:
            assignment = [bool(b) for b in bits]
            x = assignment_to_instance(assignment)
            expected = +1 if clause.evaluate(assignment) else -1
            assert predict_one(tree, x) == expected

    def test_depth_at_most_three(self):
        for _seed in range(5):
            formula = random_3cnf(6, 8, random_state=_seed)
            for clause in formula.clauses:
                assert tree_stats(clause_to_tree(clause)).depth <= 3


class TestFormulaConversion:
    def test_paper_figure2_structure(self):
        roots = formula_to_ensemble(_paper_formula())
        assert len(roots) == 2
        # First tree (x0 ∨ x1): root on x0, right child is +1 leaf.
        assert roots[0].feature == 0
        assert roots[0].right.is_leaf and roots[0].right.prediction == +1

    def test_ensemble_agrees_with_formula(self):
        formula = _paper_formula()
        roots = formula_to_ensemble(formula)
        rng = np.random.default_rng(0)
        for _ in range(32):
            assignment = [bool(b) for b in rng.integers(2, size=4)]
            x = assignment_to_instance(assignment)
            ensemble_says = all(predict_one(root, x) == +1 for root in roots)
            assert ensemble_says == formula.evaluate(assignment)


class TestAssignmentMaps:
    def test_roundtrip(self):
        assignment = [True, False, True]
        assert instance_to_assignment(assignment_to_instance(assignment)) == assignment

    def test_positive_threshold_semantics(self):
        # 0 maps to false (x <= 0 goes left).
        assert instance_to_assignment(np.array([0.0, 0.5])) == [False, True]


class TestEndToEndReduction:
    def test_all_zero_signature_length(self):
        formula = _paper_formula()
        assert len(all_zero_signature(formula)) == 2
        assert all_zero_signature(formula).n_ones == 0

    @pytest.mark.parametrize("engine", ["smt", "boxes"])
    def test_paper_example_solvable(self, engine):
        problem = forgery_problem_from_formula(_paper_formula())
        outcome = SOLVERS[engine](problem)
        assert outcome.is_sat
        assignment = instance_to_assignment(outcome.instance)
        assert _paper_formula().evaluate(assignment)

    @pytest.mark.parametrize("engine", ["smt", "boxes"])
    def test_unsatisfiable_formula_detected(self, engine):
        formula = Formula3CNF(
            n_vars=1,
            clauses=(Clause((Literal(0),)), Clause((Literal(0, negated=True),))),
        )
        outcome = SOLVERS[engine](forgery_problem_from_formula(formula))
        assert outcome.is_unsat

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_reduction_preserves_satisfiability(self, seed):
        gen = np.random.default_rng(seed)
        n_vars = int(gen.integers(2, 7))
        n_clauses = int(gen.integers(1, 4 * n_vars))
        formula = random_3cnf(n_vars, n_clauses, random_state=seed)
        truth = brute_force_3sat(formula)
        outcome = solve_pattern_smt(forgery_problem_from_formula(formula))
        assert outcome.is_sat == (truth is not None)
        if outcome.is_sat:
            assert formula.evaluate(instance_to_assignment(outcome.instance))
