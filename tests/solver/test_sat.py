"""Tests for the CDCL SAT solver."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver import CNF, SATSolver


def _brute_force(cnf: CNF) -> bool:
    for bits in itertools.product([False, True], repeat=cnf.n_vars):
        if cnf.evaluate({i + 1: bits[i] for i in range(cnf.n_vars)}):
            return True
    return False


def _pigeonhole(holes: int) -> CNF:
    """PHP(holes+1, holes): classic UNSAT family."""
    pigeons = holes + 1
    cnf = CNF()
    var = {}
    for p in range(pigeons):
        for h in range(holes):
            var[(p, h)] = cnf.new_var()
    for p in range(pigeons):
        cnf.add_clause([var[(p, h)] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var[(p1, h)], -var[(p2, h)]])
    return cnf


class TestBasicCases:
    def test_empty_formula_is_sat(self):
        assert SATSolver(CNF()).solve().is_sat

    def test_single_unit(self):
        cnf = CNF()
        cnf.new_var()
        cnf.add_clause([1])
        result = SATSolver(cnf).solve()
        assert result.is_sat
        assert result.model[1] is True

    def test_contradicting_units(self):
        cnf = CNF()
        cnf.new_var()
        cnf.add_clause([1])
        cnf.add_clause([-1])
        assert SATSolver(cnf).solve().is_unsat

    def test_empty_clause_unsat(self):
        cnf = CNF()
        cnf.new_var()
        cnf.add_clause([])
        assert SATSolver(cnf).solve().is_unsat

    def test_implication_chain(self):
        n = 30
        cnf = CNF()
        cnf.new_vars(n)
        cnf.add_clause([1])
        for i in range(1, n):
            cnf.add_clause([-i, i + 1])
        result = SATSolver(cnf).solve()
        assert result.is_sat
        assert all(result.model[v] for v in range(1, n + 1))

    def test_xor_constraint(self):
        # x XOR y: (x|y) & (-x|-y)
        cnf = CNF()
        cnf.new_vars(2)
        cnf.add_clause([1, 2])
        cnf.add_clause([-1, -2])
        result = SATSolver(cnf).solve()
        assert result.is_sat
        assert result.model[1] != result.model[2]


class TestUnsatFamilies:
    @pytest.mark.parametrize("holes", [2, 3, 4])
    def test_pigeonhole(self, holes):
        assert SATSolver(_pigeonhole(holes)).solve().is_unsat

    def test_conflict_budget_returns_unknown(self):
        result = SATSolver(_pigeonhole(7), max_conflicts=5).solve()
        assert result.status in ("unknown", "unsat")
        # With 5 conflicts PHP(8,7) cannot be refuted by this solver.
        assert result.status == "unknown"


class TestAssumptionsAndReset:
    def _xor_chain(self, n=6):
        """x1 XOR x2, x2 XOR x3, ...: satisfiable with alternating bits."""
        cnf = CNF()
        cnf.new_vars(n)
        for i in range(1, n):
            cnf.add_clause([i, i + 1])
            cnf.add_clause([-i, -(i + 1)])
        return cnf

    def test_assumptions_steer_the_model(self):
        solver = SATSolver(self._xor_chain())
        result = solver.solve(assumptions=[1])
        assert result.is_sat
        assert result.model[1] is True and result.model[2] is False
        solver.reset()
        result = solver.solve(assumptions=[-1])
        assert result.is_sat
        assert result.model[1] is False and result.model[2] is True

    def test_conflicting_assumptions_are_unsat(self):
        solver = SATSolver(self._xor_chain())
        assert solver.solve(assumptions=[1, 2]).is_unsat
        solver.reset()
        assert solver.solve(assumptions=[1, -1]).is_unsat
        # The base formula is still satisfiable after a reset.
        solver.reset()
        assert solver.solve().is_sat

    def test_reset_restores_fresh_solver_behaviour(self):
        """A reset solver must behave bit-for-bit like a fresh one —
        same model, same statistics — even after an intervening search
        that learned clauses and mutated watch order."""
        cnf = _pigeonhole(4)
        solver = SATSolver(cnf)
        first = solver.solve()
        solver.reset()
        second = solver.solve()
        fresh = SATSolver(cnf).solve()
        for result in (second, fresh):
            assert result.status == first.status
            assert result.conflicts == first.conflicts
            assert result.decisions == first.decisions
            assert result.propagations == first.propagations

    def test_reset_discards_assumption_consequences(self):
        cnf = CNF()
        cnf.new_vars(2)
        cnf.add_clause([-1, 2])  # 1 -> 2
        solver = SATSolver(cnf)
        result = solver.solve(assumptions=[1])
        assert result.is_sat and result.model[2] is True
        solver.reset()
        result = solver.solve(assumptions=[-2])
        assert result.is_sat
        assert result.model[1] is False  # 1 would force 2

    def test_assumption_budget_counts_per_call(self):
        solver = SATSolver(_pigeonhole(7), max_conflicts=5)
        assert solver.solve().status == "unknown"
        solver.reset()
        # The second call gets its own budget, not the leftovers.
        assert solver.solve().status == "unknown"

    def test_assumptions_on_unsat_base_formula(self):
        cnf = CNF()
        cnf.new_var()
        cnf.add_clause([])
        solver = SATSolver(cnf)
        assert solver.solve(assumptions=[1]).is_unsat


class TestRandomisedAgainstBruteForce:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_brute_force(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(2, 10))
        m = int(gen.integers(1, 4 * n))
        cnf = CNF()
        cnf.new_vars(n)
        for _ in range(m):
            width = int(gen.integers(1, 4))
            clause = [
                int(gen.choice([-1, 1])) * int(gen.integers(1, n + 1))
                for _ in range(width)
            ]
            cnf.add_clause(clause)
        result = SATSolver(cnf).solve()
        assert result.is_sat == _brute_force(cnf)
        if result.is_sat:
            assert cnf.evaluate(result.model)

    def test_statistics_populated(self):
        result = SATSolver(_pigeonhole(4)).solve()
        assert result.conflicts > 0
        assert result.propagations > 0
