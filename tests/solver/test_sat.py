"""Tests for the CDCL SAT solver."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
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

    @pytest.mark.parametrize("budget", [float("nan"), True, 2.5, -1])
    @pytest.mark.parametrize("route", ["constructor", "attribute"])
    def test_invalid_budget_rejected(self, budget, route):
        """A budget is None or an integer >= 0; a NaN one used to run
        unbounded, since no conflict count is ``>= nan``.  The compiled
        forgery encoding sets the attribute after construction, so
        ``solve`` checks it too."""
        with pytest.raises(ValidationError, match="max_conflicts"):
            if route == "constructor":
                SATSolver(_pigeonhole(3), max_conflicts=budget)
            else:
                solver = SATSolver(_pigeonhole(3))
                solver.max_conflicts = budget
                solver.solve()

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


def _random_cnf(rng) -> CNF:
    """A random CNF of up to 24 variables around the 3-SAT threshold,
    with unit clauses and, rarely, an empty clause."""
    n = int(rng.integers(1, 25))
    cnf = CNF()
    cnf.new_vars(n)
    for _ in range(int(rng.integers(0, 5 * n))):
        width = int(rng.choice([1, 2, 3, 3, 3, 4]))
        cnf.add_clause(
            int(rng.choice([-1, 1])) * int(rng.integers(1, n + 1)) for _ in range(width)
        )
    if rng.random() < 0.03:
        cnf.add_clause([])
    return cnf


def _state(solver: SATSolver) -> dict:
    """Everything a reset must restore, as plain comparable values."""
    return {
        "clauses": solver.clauses,
        "watches": solver.watches,
        "assign": solver.assign,
        "level": solver.level,
        "reason": solver.reason,
        "phase": solver.phase,
        "activity": solver.activity,
        "order": solver._order,
        "zero_floor": solver._zero_floor,
        "trail": solver.trail,
        "trail_lim": solver.trail_lim,
        "scalars": (
            solver.queue_head, solver.var_inc, solver.conflicts, solver.decisions,
            solver.propagations, solver.restarts, solver._contradiction,
        ),
    }


def _outcome(result) -> tuple:
    return (
        result.status, result.model, result.conflicts, result.decisions,
        result.propagations, result.restarts,
    )


class TestResetDifferential:
    """A reset solver equals a freshly built one, structure and search."""

    @pytest.mark.parametrize("seed", range(12))
    def test_reset_equals_fresh_solver(self, seed):
        rng = np.random.default_rng(seed)
        outcomes = set()
        for _ in range(15):
            cnf = _random_cnf(rng)
            solver = SATSolver(cnf)
            for _ in range(10):
                budget = [0, 3, None][int(rng.integers(3))]
                assumptions = [
                    int(rng.choice([-1, 1])) * int(rng.integers(1, cnf.n_vars + 1))
                    for _ in range(int(rng.integers(0, 4)))
                ]
                solver.max_conflicts = budget
                solver.solve(assumptions)
                solver.reset()
                fresh = SATSolver(cnf, max_conflicts=budget)
                assert _state(solver) == _state(fresh)
                again, expected = solver.solve(assumptions), fresh.solve(assumptions)
                assert _outcome(again) == _outcome(expected)
                outcomes.add(again.status)
                solver.reset()
        assert {"sat", "unsat"} <= outcomes

    def test_reset_after_learning_restores_watch_order(self):
        """Learned clauses and watch swaps of a hard search leave no
        trace after a reset."""
        cnf = _pigeonhole(4)
        solver = SATSolver(cnf)
        assert solver.solve().conflicts > 0
        assert len(solver.clauses) > len(SATSolver(cnf).clauses)
        solver.reset()
        assert _state(solver) == _state(SATSolver(cnf))


class _CheckedOrder(SATSolver):
    """Asserts that every decision is the brute-force VSIDS choice: the
    minimum of ``(-activity[v], v)`` over the unassigned variables."""

    checked = 0

    def _decide(self) -> bool:
        candidates = [
            (-self.activity[var], var)
            for var in range(self.n_vars)
            if self.assign[var] == -1
        ]
        decided = super()._decide()
        assert decided == bool(candidates)
        if decided:
            assert self.trail[-1] >> 1 == min(candidates)[1]
            self.checked += 1
        return decided


class TestDecisionOrder:
    """The heap of bumped variables plus the lowest-index pointer pick
    exactly what a linear scan over all variables would."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_cnfs_decide_like_a_scan(self, seed):
        rng = np.random.default_rng(seed)
        checked = 0
        for _ in range(15):
            cnf = _random_cnf(rng)
            solver = _CheckedOrder(cnf)
            for _ in range(4):
                assumptions = [
                    int(rng.choice([-1, 1])) * int(rng.integers(1, cnf.n_vars + 1))
                    for _ in range(int(rng.integers(0, 4)))
                ]
                solver.solve(assumptions)
                solver.reset()
            checked += solver.checked
        assert checked > 0

    @pytest.mark.parametrize("var_inc", [1.0, 1e98])
    def test_pigeonhole_decides_like_a_scan(self, var_inc):
        """From ``var_inc = 1e98`` the search crosses the 1e100 rescale."""
        solver = _CheckedOrder(_pigeonhole(5))
        solver.var_inc = var_inc
        assert solver.solve().is_unsat
        assert solver.checked > 100
        assert (solver.var_inc < var_inc) == (var_inc > 1.0)

    def test_rescale_underflow_returns_variable_to_the_pointer(self):
        """A rescale that flushes an unassigned activity to 0 moves that
        variable from the heap back to the lowest-index pointer."""
        cnf = CNF()
        cnf.new_vars(4)
        solver = _CheckedOrder(cnf)
        solver.var_inc = 1e-250
        solver._bump(0)
        assert solver._decide() and solver._decide()  # x1 (bumped), then x2
        solver._backtrack(0)  # x1 back in the heap, the pointer at x2
        solver.var_inc = 2e100
        solver._bump(3)  # crosses 1e100: x1's 1e-250 underflows to 0
        assert solver.activity[0] == 0.0 and solver.activity[3] > 0.0
        result = solver.solve()
        assert result.is_sat and solver.checked == 6
        assert [code >> 1 for code in solver.trail] == [3, 0, 1, 2]


def _two_vars_not_x2() -> CNF:
    """A satisfiable formula over two variables with ``¬x2`` a base unit."""
    cnf = CNF()
    cnf.new_vars(2)
    cnf.add_clause([1, 2])
    cnf.add_clause([-2])
    return cnf


class TestAssumptionValidation:
    """Assumption literals are checked before anything is enqueued: 0
    used to alias the last variable, a variable past ``n_vars`` raised
    a bare ``IndexError``, and a bool or float was taken as literal 1."""

    @pytest.mark.parametrize(
        "literal, match",
        [
            (0, "names no variable"),
            (3, "names no variable"),
            (-3, "names no variable"),
            (5, "names no variable"),
            (True, "must be integers"),
            (False, "must be integers"),
            (1.7, "must be integers"),
            (1.0, "must be integers"),
            ("1", "must be integers"),
        ],
    )
    @pytest.mark.parametrize("contradiction", [False, True])
    def test_invalid_literal_rejected(self, literal, match, contradiction):
        cnf = _two_vars_not_x2()
        if contradiction:
            cnf.add_clause([])
        solver = SATSolver(cnf)
        trail = list(solver.trail)
        with pytest.raises(ValidationError, match=match):
            solver.solve([1, literal])
        assert solver.trail == trail  # nothing was enqueued
        assert solver.solve().status == ("unsat" if contradiction else "sat")

    def test_zero_no_longer_aliases_the_last_variable(self):
        solver = SATSolver(_two_vars_not_x2())
        with pytest.raises(ValidationError):
            solver.solve([0])
        assert solver.solve().is_sat

    def test_numpy_integers_accepted(self):
        result = SATSolver(_two_vars_not_x2()).solve([np.int64(1), np.int32(-2)])
        assert result.is_sat and result.model == {1: True, 2: False}
