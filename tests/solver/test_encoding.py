"""Encoding-level checks on the compiled pattern encoding's CNF.

These pin what the encoding itself carries — shared atoms, the
always-unsat flag, atoms decided by the ball — by solving its CNF
directly with :class:`SATSolver` as well as through ``solve``.
"""

import numpy as np

from repro.ensemble import compile_trees
from repro.solver import (
    PatternProblem,
    SATSolver,
    compile_pattern_encoding,
    solve_pattern_smt,
)
from repro.trees.node import InternalNode, Leaf


def _stump(feature=0, threshold=0.5):
    return InternalNode(feature, threshold, Leaf(-1), Leaf(+1))


class TestEncoding:
    def test_trivially_unsat_flag(self):
        # No leaf of the tree predicts +1: the tree has no box, and
        # both entry points answer unsat without a search.
        all_negative = InternalNode(0, 0.5, Leaf(-1), Leaf(-1))
        encoding = compile_pattern_encoding(compile_trees([all_negative]), [+1], 1)
        assert encoding.screen.tree_offsets.tolist() == [0, 0]
        assert encoding.solve().stats == {"trivial": True}
        problem = PatternProblem(roots=[all_negative], required=[+1], n_features=1)
        outcome = solve_pattern_smt(problem)
        assert outcome.is_unsat
        assert outcome.stats["trivial"] is True

    def test_atoms_deduplicated_across_trees(self):
        # Two stumps on the same (feature, threshold) share one atom, so
        # the CNF has one atom variable and its model decodes for both.
        encoding = compile_pattern_encoding(
            compile_trees([_stump(), _stump(), _stump(0, 0.7)]), [+1, +1, -1], 1
        )
        assert set(encoding.atom_vars) == {(0, 0.5), (0, 0.7)}
        assert len(set(encoding.atom_vars.values())) == 2
        outcome = encoding.solve()
        assert outcome.is_sat
        assert 0.5 < outcome.instance[0] <= 0.7

    def test_bound_units_forced_when_atom_partially_useful(self):
        # One tree needs x <= 0.3 (left leaf), impossible inside the
        # ball [0.8, 1.0]: the 0.3 atom is forced false by the bounds
        # and, under that assumption, the CNF itself is UNSAT.
        encoding = compile_pattern_encoding(compile_trees([_stump(0, 0.3)]), [-1], 1)
        center, epsilon = np.array([0.9]), 0.1
        lo, hi = encoding.feature_bounds(center, epsilon)
        atom = encoding.atom_vars[(0, 0.3)]
        assumptions = encoding.bound_assumptions(lo, hi)
        assert assumptions == [-atom]
        assert SATSolver(encoding.cnf).solve(assumptions).status == "unsat"
        # Without the ball the same CNF is satisfiable.
        assert SATSolver(encoding.cnf).solve().status == "sat"
        assert encoding.solve(center=center, epsilon=epsilon).is_unsat
