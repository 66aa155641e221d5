"""Tests for minimum-distortion forgery search."""

import numpy as np
import pytest
from box_dpll_oracle import solve_pattern_boxes

from repro.exceptions import ValidationError
from repro.solver import PatternProblem, compiled_encoding
from repro.solver.optimize import minimal_forgery_distortion
from repro.trees.node import InternalNode, Leaf


def _stump(feature=0, threshold=0.5):
    return InternalNode(feature, threshold, Leaf(-1), Leaf(+1))


class TestMinimalDistortion:
    def test_exact_threshold_single_stump(self):
        # Center at 0.3; requiring +1 needs x0 > 0.5, so the minimal
        # L-inf distortion is 0.2.
        result = minimal_forgery_distortion(
            roots=[_stump()],
            required=[+1],
            center=np.array([0.3]),
            n_features=1,
            tolerance=0.002,
        )
        assert result.feasible
        assert result.epsilon == pytest.approx(0.2, abs=0.005)
        assert result.instance[0] > 0.5

    def test_zero_distortion_when_already_matching(self):
        result = minimal_forgery_distortion(
            roots=[_stump()],
            required=[-1],
            center=np.array([0.3]),
            n_features=1,
            tolerance=0.002,
        )
        assert result.feasible
        assert result.epsilon <= 0.01

    def test_infeasible_pattern(self):
        # Same stump required to output both labels simultaneously.
        result = minimal_forgery_distortion(
            roots=[_stump(), _stump()],
            required=[+1, -1],
            center=np.array([0.3]),
            n_features=1,
        )
        assert not result.feasible
        assert result.epsilon is None

    def test_max_over_trees(self):
        # Tree A needs x0 > 0.5 (distance 0.2 from 0.3); tree B needs
        # x1 <= 0.2 (distance 0.3 from 0.5): minimal L-inf is 0.3.
        roots = [_stump(0, 0.5), _stump(1, 0.2)]
        result = minimal_forgery_distortion(
            roots=roots,
            required=[+1, -1],
            center=np.array([0.3, 0.5]),
            n_features=2,
            tolerance=0.002,
        )
        assert result.feasible
        assert result.epsilon == pytest.approx(0.3, abs=0.005)

    def test_witness_verifies_on_real_forest(self, bc_forest, bc_data):
        from repro.core import random_signature
        from repro.solver import PatternProblem, required_labels

        _, X_test, _, y_test = bc_data
        signature = random_signature(bc_forest.n_trees_, random_state=80)
        required = required_labels(signature, int(y_test[0]))
        result = minimal_forgery_distortion(
            roots=bc_forest.roots(),
            required=required,
            center=X_test[0],
            n_features=X_test.shape[1],
            tolerance=0.01,
        )
        if result.feasible:
            problem = PatternProblem(
                roots=bc_forest.roots(),
                required=required,
                n_features=X_test.shape[1],
                center=X_test[0],
                epsilon=result.epsilon + 1e-9,
            )
            assert problem.check_solution(result.instance)

    def test_engines_agree_on_threshold(self):
        """The box-DPLL oracle brackets the threshold the search found:
        forgeable at ``epsilon``, not one tolerance below it."""
        roots = [_stump(0, 0.5), _stump(1, 0.7)]
        kwargs = dict(
            roots=roots,
            required=[+1, +1],
            center=np.array([0.2, 0.2]),
            n_features=2,
        )
        result = minimal_forgery_distortion(tolerance=0.002, **kwargs)
        assert result.feasible

        def oracle(epsilon):
            return solve_pattern_boxes(PatternProblem(epsilon=epsilon, **kwargs))

        assert oracle(result.epsilon).is_sat
        assert oracle(result.epsilon - 0.002).is_unsat

    def test_one_compile_per_search(self, monkeypatch):
        """Every ε probe re-solves one compiled encoding under new bound
        assumptions instead of rebuilding the CNF."""
        compiles = []
        original = compiled_encoding.compile_pattern_encoding

        def counting(*args, **kwargs):
            compiles.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(compiled_encoding, "compile_pattern_encoding", counting)
        result = minimal_forgery_distortion(
            roots=[_stump(0, 0.5), _stump(1, 0.2)],
            required=[+1, -1],
            center=np.array([0.3, 0.5]),
            n_features=2,
            tolerance=0.002,
        )
        assert result.feasible and result.solver_calls > 5
        assert len(compiles) == 1

    @pytest.mark.parametrize("budget", [-1, -100_000])
    def test_negative_budget_rejected(self, budget):
        """A negative budget used to report ``feasible=False`` after one
        call, as if no forgery existed."""
        with pytest.raises(ValidationError, match="budget"):
            minimal_forgery_distortion(
                [_stump()], [+1], np.array([0.3]), 1, solver_budget=budget
            )

    def test_validation(self):
        with pytest.raises(ValidationError):
            minimal_forgery_distortion(
                [_stump()], [+1], np.array([0.3]), 1, epsilon_max=0.0
            )
        with pytest.raises(ValidationError):
            minimal_forgery_distortion(
                [_stump()], [+1], np.array([0.3]), 1, tolerance=0.0
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon_max": float("inf")},
            {"epsilon_max": float("nan")},
            {"tolerance": float("nan")},
            {"tolerance": float("inf")},
            {"center": np.array([float("nan")])},
        ],
        ids=["epsilon_max-inf", "epsilon_max-nan", "tolerance-nan", "tolerance-inf",
             "center-nan"],
    )
    def test_non_finite_inputs_rejected(self, kwargs):
        """inf never terminated the search, a NaN tolerance returned after
        one call, and a NaN epsilon_max or center raised a SolverError
        blaming the encoding."""
        args = {"center": np.array([0.3]), **kwargs}
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            minimal_forgery_distortion([_stump()], [+1], n_features=1, **args)
