"""The forgery CNF: one encoding, compiled once, re-solved per instance.

The forgery formulas of the paper are Boolean combinations of threshold
predicates ``x_f <= v`` plus per-feature interval bounds.  Over this
fragment the classic *eager* reduction to SAT is sound and complete, so
CDCL over this CNF decides the paper's forgery queries as Z3 does:

1. one Boolean **atom** per distinct predicate ``x_f <= v``;
2. **ordering axioms**: for consecutive thresholds ``v1 < v2`` of the
   same feature, ``(x <= v1) -> (x <= v2)``;
3. **bound assumptions**: atoms entailed (or refuted) by the ``L∞``
   ball and domain bounds, held true for one solve;
4. each tree's requirement "output label l" becomes a disjunction over
   its l-leaves, each leaf a conjunction of its box's atom literals
   (one-directional Tseitin, which preserves satisfiability).

Any propositional model then induces, per feature, a non-empty interval
of real values; :func:`decode_atom_intervals` picks the point closest
to the ball centre.

Across a forgery sweep only the ``L∞`` box around the test point
changes — the forest, the fake signature and hence the required
per-tree labels stay fixed.  :class:`CompiledPatternEncoding` is built
once per ``(forest, required-label pattern)`` and precomputes:

- the threshold **atom table** as flat feature/threshold/variable
  arrays, so the atoms decided by an instance's bounds fall out of two
  vectorised comparisons;
- the **clause skeleton**: items 1, 2 and 4 above — everything except
  the bound assumptions, which are exactly the instance-specific part;
- the box constraints of all trees flattened into one table, for a
  vectorised **prescreen** that detects trivially unsatisfiable
  instances (some tree keeps no box compatible with the bounds) in one
  pass over the ensemble, without touching the solver.

Per instance the engine computes the feature bounds, turns them into
*assumptions* (see :meth:`repro.solver.sat.SATSolver.solve`), and
re-solves the persistent solver after a :meth:`~repro.solver.sat.SATSolver.reset`
— no clause re-encoding, no re-allocation.  :func:`solve_pattern_smt`
is the one-shot form for a single :class:`PatternProblem`.

**Determinism contract.**  A reset solver is bit-for-bit equivalent to
a freshly constructed one (learned clauses and heuristic state are
discarded), so every instance solve is a pure function of the skeleton
and the instance bounds: the outcome — status and witness — equals what
a freshly compiled encoding would return, and the forgery attack can
fan instances out over worker processes without changing results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import SolverError, ValidationError
from ..trees.node import TreeNode
from ..trees.paths import Box, leaf_boxes
from .cnf import CNF
from .problem import (
    PatternOutcome,
    PatternProblem,
    check_pattern,
    check_pattern_inputs,
    compute_feature_bounds,
)
from .sat import SATSolver

__all__ = [
    "CompiledPatternEncoding",
    "compile_pattern_encoding",
    "EncodingCache",
    "decode_atom_intervals",
    "solve_pattern_smt",
]

#: Patterns one :class:`EncodingCache` keeps.  The forgery experiment
#: sweeps ε outside three fake signatures, six patterns per forest.  A
#: warmed encoding of a 64-tree forest with 1,000-1,400 leaves holds
#: 2.2-3.0 MB (tracemalloc), so a full cache of one stays under 25 MB.
_MAX_PATTERNS = 8


@dataclass
class _FlatScreen:
    """Box constraints of every tree, flattened for one vectorised screen.

    Boxes are numbered across the ensemble in tree order; tree ``t``
    owns boxes ``tree_offsets[t]:tree_offsets[t + 1]``.  Each upper
    constraint ``x_f <= v`` and lower constraint ``x_f > v`` names its
    box, feature and threshold.
    """

    tree_offsets: np.ndarray  # n_trees + 1 box offsets
    upper_box: np.ndarray
    upper_feature: np.ndarray
    upper_value: np.ndarray
    lower_box: np.ndarray
    lower_feature: np.ndarray
    lower_value: np.ndarray

    def compatible(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray | None:
        """Flat mask of boxes intersecting the closed bounds ``[lo, hi]``;
        ``None`` when some tree keeps no compatible box."""
        ok = np.ones(self.tree_offsets[-1], dtype=bool)
        ok[self.upper_box[self.upper_value < lo[self.upper_feature]]] = False
        ok[self.lower_box[self.lower_value >= hi[self.lower_feature]]] = False
        # Compatible boxes per tree as differences of a running count
        # at the tree offsets: a tree without boxes counts 0, where
        # ``np.logical_or.reduceat`` would return its neighbour's box.
        running = np.concatenate(([0], np.cumsum(ok)))
        kept = running[self.tree_offsets[1:]] - running[self.tree_offsets[:-1]]
        return ok if kept.all() else None


def _flat_screen(candidates: list[list[Box]]) -> _FlatScreen:
    upper: list[tuple[int, int, float]] = []
    lower: list[tuple[int, int, float]] = []
    offsets = [0]
    for boxes in candidates:
        for index, box in enumerate(boxes, start=offsets[-1]):
            upper.extend((index, f, v) for f, v in box.upper.items())
            lower.extend((index, f, v) for f, v in box.lower.items())
        offsets.append(offsets[-1] + len(boxes))

    def columns(rows):
        box, feature, value = zip(*rows) if rows else ((), (), ())
        return (
            np.asarray(box, dtype=np.int64),
            np.asarray(feature, dtype=np.int64),
            np.asarray(value, dtype=np.float64),
        )

    return _FlatScreen(
        np.asarray(offsets, dtype=np.int64), *columns(upper), *columns(lower)
    )


def decode_atom_intervals(
    atom_features: np.ndarray,
    atom_thresholds: np.ndarray,
    atom_truth: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    n_features: int,
    center: np.ndarray | None,
) -> np.ndarray:
    """Decode a propositional model into the instance nearest ``center``.

    ``atom_features``/``atom_thresholds`` describe every threshold atom
    ``x_f <= v`` and ``atom_truth`` its value in the propositional
    model.  True atoms give per-feature upper bounds (their minimum
    threshold), false atoms strict lower bounds (their maximum); the
    result is the point of the induced interval ∩ ``[lo, hi]`` closest
    to ``center`` (or to the bound midpoint when no ball is involved).
    """
    if center is not None:
        x = center.astype(np.float64).copy()
    else:
        # Bound midpoint where finite; an infinite side falls back to
        # the finite one (or 0) so unbounded features stay NaN-free.
        x = np.zeros(n_features, dtype=np.float64)
        finite_lo = np.isfinite(lo)
        finite_hi = np.isfinite(hi)
        both = finite_lo & finite_hi
        x[both] = 0.5 * (lo[both] + hi[both])
        x[finite_lo & ~finite_hi] = lo[finite_lo & ~finite_hi]
        x[~finite_lo & finite_hi] = hi[~finite_lo & finite_hi]
    # Features without atoms keep their default; clamp into bounds.
    x = np.clip(x, lo, hi)

    upper_bound = hi.astype(np.float64).copy()
    np.minimum.at(upper_bound, atom_features[atom_truth], atom_thresholds[atom_truth])
    strict_lower = np.full(n_features, -np.inf)
    falsity = ~atom_truth
    np.maximum.at(strict_lower, atom_features[falsity], atom_thresholds[falsity])

    low = lo.astype(np.float64).copy()
    bounded = strict_lower > -np.inf
    low[bounded] = np.maximum(low[bounded], np.nextafter(strict_lower[bounded], np.inf))
    broken = low > upper_bound
    if broken.any():
        feature = int(np.argmax(broken))
        raise SolverError(
            f"inconsistent decoded interval for feature {feature}: "
            f"[{low[feature]}, {upper_bound[feature]}] — encoding invariant violated"
        )
    return np.minimum(np.maximum(x, low), upper_bound)


@dataclass
class CompiledPatternEncoding:
    """The instance-independent part of a forgery query, precompiled.

    Use :func:`compile_pattern_encoding` to build one; then call
    :meth:`solve` once per test instance with only the box constraints.
    """

    roots: list[TreeNode]
    required: list[int]
    n_features: int
    domain: tuple[float, float] | None
    cnf: CNF
    atom_vars: dict[tuple[int, float], int]
    # Atom table sorted by (feature, threshold); slices index per feature.
    atom_features: np.ndarray
    atom_thresholds: np.ndarray
    atom_variables: np.ndarray
    screen: _FlatScreen
    always_unsat: bool
    _solver: SATSolver | None = field(default=None, repr=False)
    _solver_dirty: bool = field(default=False, repr=False)

    # -- per-instance pieces --------------------------------------------

    def feature_bounds(
        self, center: np.ndarray | None, epsilon: float | None
    ) -> tuple[np.ndarray, np.ndarray]:
        return compute_feature_bounds(self.n_features, center, epsilon, self.domain)

    def bound_assumptions(self, lo: np.ndarray, hi: np.ndarray) -> list[int]:
        """Atoms decided by the bounds, as assumption literals.

        An atom ``x_f <= v`` is forced true when ``v >= hi_f`` and false
        when ``v < lo_f``; atoms with ``v`` inside ``[lo_f, hi_f)`` stay
        free.
        """
        forced_false = self.atom_thresholds < lo[self.atom_features]
        forced_true = self.atom_thresholds >= hi[self.atom_features]
        return np.concatenate(
            [-self.atom_variables[forced_false], self.atom_variables[forced_true]]
        ).tolist()

    def warm(self) -> "CompiledPatternEncoding":
        """Prebuild the persistent solver (encode clauses, set watches).

        The forgery attack calls this before forking workers so every
        child inherits the encoded clause database copy-on-write
        instead of re-encoding it.
        """
        if self._solver is None:
            self._solver = SATSolver(self.cnf)
            self._solver_dirty = False
        return self

    def solve(
        self,
        center: np.ndarray | None = None,
        epsilon: float | None = None,
        budget: int | None = None,
    ) -> PatternOutcome:
        """Decide one instance via assumption-style CDCL re-solving.

        ``center`` and ``epsilon`` give the ``L∞`` ball (both or
        neither).  ``budget`` caps the solver's conflicts, ``>= 0``;
        ``None`` means unlimited.  An exhausted budget returns
        ``status="unknown"``.
        """
        center = check_pattern_inputs(
            self.roots, self.required, self.n_features, center, epsilon, self.domain
        )
        if budget is not None and budget < 0:
            raise ValidationError(f"budget must be >= 0 or None, got {budget}")
        lo, hi = self.feature_bounds(center, epsilon)
        if self.always_unsat or (lo > hi).any():
            return PatternOutcome(status="unsat", stats={"trivial": True})
        if self.screen.compatible(lo, hi) is None:
            return PatternOutcome(status="unsat", stats={"trivial": True})

        solver = self.warm()._solver
        assert solver is not None
        if self._solver_dirty:
            solver.reset()
        self._solver_dirty = True
        solver.max_conflicts = budget

        result = solver.solve(self.bound_assumptions(lo, hi))
        stats = {
            "conflicts": result.conflicts,
            "decisions": result.decisions,
            "propagations": result.propagations,
            "n_vars": self.cnf.n_vars,
            "n_clauses": len(self.cnf),
        }
        if result.status != "sat":
            return PatternOutcome(status=result.status, stats=stats)

        assert result.model is not None
        model = result.model
        truth = np.fromiter(
            (model[int(var)] for var in self.atom_variables),
            dtype=bool,
            count=self.atom_variables.shape[0],
        )
        instance = decode_atom_intervals(
            self.atom_features, self.atom_thresholds, truth,
            lo, hi, self.n_features, center,
        )
        if not check_pattern(
            self.roots, self.required, instance, center, epsilon, self.domain
        ):
            raise SolverError(
                "decoded instance does not realise the required pattern — "
                "compiled encoding bug"
            )
        return PatternOutcome(status="sat", instance=instance, stats=stats)


def compile_pattern_encoding(
    roots: list[TreeNode],
    required: list[int],
    n_features: int,
    domain: tuple[float, float] | None = (0.0, 1.0),
) -> CompiledPatternEncoding:
    """Build the instance-independent encoding of a signature pattern.

    Variables are numbered in a fixed order (leaf boxes in
    :func:`repro.trees.paths.leaf_boxes` order, trees in ensemble
    order), which is what keeps compiled and fresh solves bit-for-bit
    interchangeable.
    """
    check_pattern_inputs(roots, required, n_features, None, None, domain)

    candidates: list[list[Box]] = []
    always_unsat = False
    for root, label in zip(roots, required):
        boxes = [box for leaf, box in leaf_boxes(root) if leaf.prediction == label]
        if not boxes:
            always_unsat = True
        candidates.append(boxes)

    cnf = CNF()
    atom_vars: dict[tuple[int, float], int] = {}

    def atom(feature: int, threshold: float) -> int:
        key = (feature, float(threshold))
        if key not in atom_vars:
            atom_vars[key] = cnf.new_var()
        return atom_vars[key]

    # Tree constraints: one selector variable per candidate leaf box.
    # No clause is pruned against the bounds — they arrive per instance
    # as assumptions, and unit propagation does the pruning.
    for boxes in candidates:
        selectors = []
        for box in boxes:
            selector = cnf.new_var()
            selectors.append(selector)
            for feature, upper in box.upper.items():
                cnf.add_clause([-selector, atom(feature, upper)])
            for feature, lower in box.lower.items():
                cnf.add_clause([-selector, -atom(feature, lower)])
        cnf.add_clause(selectors)

    # Ordering axioms per feature over all atoms.
    thresholds_by_feature: dict[int, list[float]] = {}
    for feature, threshold in atom_vars:
        thresholds_by_feature.setdefault(feature, []).append(threshold)
    for feature, thresholds in sorted(thresholds_by_feature.items()):
        thresholds.sort()
        for smaller, larger in zip(thresholds, thresholds[1:]):
            cnf.add_clause(
                [-atom_vars[(feature, smaller)], atom_vars[(feature, larger)]]
            )

    # Atom table sorted by (feature, threshold) with per-feature slices.
    items = sorted(atom_vars.items())
    atom_features = np.array([key[0] for key, _ in items], dtype=np.int64)
    atom_thresholds = np.array([key[1] for key, _ in items], dtype=np.float64)
    atom_variables = np.array([var for _, var in items], dtype=np.int64)
    return CompiledPatternEncoding(
        roots=roots,
        required=list(required),
        n_features=n_features,
        domain=domain,
        cnf=cnf,
        atom_vars=atom_vars,
        atom_features=atom_features,
        atom_thresholds=atom_thresholds,
        atom_variables=atom_variables,
        screen=_flat_screen(candidates),
        always_unsat=always_unsat,
    )


class EncodingCache:
    """Compiled encodings for one forest, keyed by required-label pattern.

    The forgery attack needs at most two patterns per fake signature
    (one per test label ±1); this cache builds each lazily and hands
    the same compiled object back for every subsequent instance.  It
    keeps the :data:`_MAX_PATTERNS` most recently used patterns.
    """

    def __init__(
        self,
        roots: list[TreeNode],
        n_features: int,
        domain: tuple[float, float] | None = (0.0, 1.0),
    ) -> None:
        self.roots = roots
        self.n_features = n_features
        self.domain = domain
        # Insertion order is recency order: least recently used first.
        self._by_pattern: dict[tuple[int, ...], CompiledPatternEncoding] = {}

    def for_required(self, required: list[int]) -> CompiledPatternEncoding:
        key = tuple(required)
        encoding = self._by_pattern.pop(key, None)
        if encoding is None:
            encoding = compile_pattern_encoding(
                self.roots, list(required), self.n_features, self.domain
            )
        self._by_pattern[key] = encoding
        if len(self._by_pattern) > _MAX_PATTERNS:
            del self._by_pattern[next(iter(self._by_pattern))]
        return encoding


def solve_pattern_smt(
    problem: PatternProblem, max_conflicts: int | None = 200_000
) -> PatternOutcome:
    """Decide one pattern problem: compile its encoding and solve once.

    Returns a satisfying instance (verified against the actual trees),
    ``unsat``, or ``unknown`` when the conflict budget runs out
    (``None`` = unlimited).
    """
    return compile_pattern_encoding(
        problem.roots, problem.required, problem.n_features, problem.domain
    ).solve(problem.center, problem.epsilon, budget=max_conflicts)
