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
once per ``(forest, required-label pattern)`` from the forest's
compiled node table (:class:`~repro.ensemble.compiled.CompiledEnsemble`)
and precomputes every candidate leaf's box, read from the table's
``feature``/``threshold``/``left``/``right``/``roots`` arrays in
level-synchronous array passes and flattened into one constraint
table, grouped once more per ``(feature, tree)``.  The table drives a
vectorised **prescreen** by bound propagation: a point realising the
pattern lies in one box per tree that meets the bounds, so each round
clips the bounds to every tree's hull of such boxes and screens again.
An instance is refuted — without touching the solver — once some tree
keeps no box or some ``lo_f > hi_f``; otherwise the rounds stop when
the bounds stop moving (hull bounds, as in Chen et al., "Robustness
Verification of Tree-based Models", NeurIPS 2019).

The rest is built lazily, by :meth:`~CompiledPatternEncoding.warm` on
the first attempt the prescreen leaves open, and then kept:

- the threshold **atom table** as flat feature/threshold/variable
  arrays, so the atoms decided by an instance's bounds fall out of two
  vectorised comparisons;
- the **clause skeleton**: items 1, 2 and 4 above — everything except
  the bound assumptions, which are exactly the instance-specific part;
- the persistent solver over that skeleton.

An encoding whose every attempt is refuted — on tall narrow data,
nearly every encoding — thus never numbers a variable.  The skeleton is
built by one loop over the screen's boxes, so its numbering does not
depend on when it is built.  A SAT witness is replayed through the node
table before it is returned.

Instances are decided a stack at a time
(:meth:`~CompiledPatternEncoding.solve_many`; :meth:`~CompiledPatternEncoding.solve`
is the stack of one).  The engine computes the stack's feature bounds
and runs the prescreen over a chunk of instances at once: an early pass
screens the few trees with the fewest boxes, and the rounds then run
over the instances still open, each leaving as soon as it is refuted or
settles — per instance the same compares, minima and counts as alone.
A survivor's bounds (not the tightened ones, so witnesses do not depend
on the prescreen) become *assumptions* (see
:meth:`repro.solver.sat.SATSolver.solve`) for the persistent solver,
re-solved after a :meth:`~repro.solver.sat.SATSolver.reset` — no clause
re-encoding, no re-allocation — when its outcome is pulled, so the
solver meets survivors in input order.  :func:`solve_pattern_smt` is
the one-shot form for a single :class:`PatternProblem`.

**Determinism contract.**  A reset solver is bit-for-bit equivalent to
a freshly constructed one (learned clauses and heuristic state are
discarded), so every instance solve is a pure function of the skeleton
and the instance bounds: the outcome — status and witness — equals what
a freshly compiled encoding would return, and the forgery attack can
fan instances out over worker processes without changing results.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .._validation import check_count
from ..ensemble.compiled import CompiledEnsemble
from ..exceptions import SolverError
from .cnf import CNF
from .problem import (
    PatternOutcome,
    PatternProblem,
    check_pattern_inputs,
    check_pattern_stack,
    compute_feature_bounds,
    pattern_holds,
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
#: sweeps ε outside three fake signatures, six patterns per forest.  On
#: a 64-tree forest with about 1,300 leaves (tracemalloc) an unwarmed
#: encoding — the screen and its hulls — holds 0.17 MB; a warmed one
#: adds the skeleton (0.8-0.9 MB) and the solver (1.6 MB), 2.6 MB in
#: all, so a full cache of one stays under 25 MB.
_MAX_PATTERNS = 8


#: Trees the prescreen's early pass screens: the ones with the fewest
#: required-label boxes.  A tree left without a compatible box refutes
#: the attempt there, before round 1 screens every tree.  On the
#: perfbench dispute models the 8 smallest trees refute 73% of tabular
#: attempts (round 1 as a whole 89%) and 25% of image attempts (35%);
#: forgery ran x1.63 faster with 4 trees, x1.71-1.80 with 8 and x1.72
#: with 16.
_EARLY_TREES = 8

#: Attempts :meth:`CompiledPatternEncoding.solve_many` prescreens
#: together.  A caller that stops early wastes at most one chunk.
_SCREEN_CHUNK = 64


@dataclass
class _Fold:
    """A reduction of stack rows per segment, for many short segments.

    The prescreen's stacks hold one column per attempt and one row per
    constraint (or box, or group); a segment's rows are reduced
    element-wise.  ``ufunc.reduceat`` pays per segment, which is slow
    with hundreds of segments of a few rows each, so the rows are
    folded by *slot* instead: slot ``k`` holds the ``k``-th row of every
    segment longer than ``k``.  Segments are placed longest first, so
    each slot covers a prefix of the output, and a fold is one
    element-wise ufunc call per slot.
    """

    rows: np.ndarray  # the input rows in fold order: slot-major
    widths: list[int]  # segments per slot
    place: np.ndarray  # per segment, its output position

    @classmethod
    def of(cls, segment: np.ndarray, n_segments: int) -> "_Fold":
        size = np.bincount(segment, minlength=n_segments)
        place = np.empty(n_segments, dtype=np.int64)
        place[np.argsort(-size, kind="stable")] = np.arange(n_segments)
        by_segment = np.argsort(segment, kind="stable")
        slot = np.empty(segment.size, dtype=np.int64)
        slot[by_segment] = np.arange(segment.size) - np.repeat(np.cumsum(size) - size, size)
        rows = np.argsort(slot * n_segments + place[segment])
        return cls(rows, np.bincount(slot).tolist(), place)

    def __call__(self, ufunc, stack: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Fold the rows of ``stack``, in fold order, into ``out``, which
        holds the initial value of every segment; return one row per
        segment, in segment order."""
        first = 0
        for width in self.widths:
            ufunc(out[:width], stack[first : first + width], out=out[:width])
            first += width
        return out[self.place]


@dataclass
class _Boxes:
    """The leaf-box constraints of some trees, for screening stacks of
    bounds.

    Boxes are numbered in tree order; tree ``t`` owns boxes
    ``tree_offsets[t]:tree_offsets[t + 1]``.  Each upper constraint
    ``x_f <= v`` and lower constraint ``x_f > v`` names its box,
    feature and threshold; both columns are ordered by box.

    Screens read a **bounds stack** (:meth:`stack`): one column per
    attempt, and for the ``i``-th feature the table constrains,
    :attr:`features` ``[i] = f``, rows ``2i`` and ``2i + 1`` holding
    ``hi_f`` and ``-lo_f`` — every row an upper bound, and no row for a
    feature no constraint reads.  A box meets an attempt's bounds unless one of its
    constraints falls outside them: ``x_f <= v`` when ``v < lo_f``, and
    ``x_f > w`` when ``w >= hi_f``.  Both tests are kept as one compare,
    ``row <= limit``: ``-lo_f <= -nextafter(v)`` and ``hi_f <= w``.
    (No float lies strictly between ``v`` and ``nextafter(v)``, so
    ``v < lo_f`` is ``nextafter(v) <= lo_f`` for every ``v < inf``.)
    """

    tree_offsets: np.ndarray  # n_trees + 1 box offsets
    upper_box: np.ndarray
    upper_feature: np.ndarray
    upper_value: np.ndarray
    lower_box: np.ndarray
    lower_feature: np.ndarray
    lower_value: np.ndarray
    features: np.ndarray = field(init=False, repr=False)  # constrained, ascending
    _rows: np.ndarray = field(init=False, repr=False)  # bounds row per constraint
    _limits: np.ndarray = field(init=False, repr=False)
    _fold: _Fold = field(init=False, repr=False)  # constraints per box
    _filled: np.ndarray = field(init=False, repr=False)  # trees with boxes

    def __post_init__(self) -> None:
        fold = _Fold.of(
            np.concatenate([self.upper_box, self.lower_box]), int(self.tree_offsets[-1])
        )
        self.features, position = np.unique(
            np.concatenate([self.upper_feature, self.lower_feature]), return_inverse=True
        )
        n_upper = self.upper_feature.size
        rows = np.concatenate([2 * position[:n_upper] + 1, 2 * position[n_upper:]])
        limits = np.concatenate(
            [-np.nextafter(self.upper_value, np.inf), self.lower_value]
        )
        self._rows, self._limits = rows[fold.rows], limits[fold.rows, None]
        self._fold = fold
        self._filled = np.flatnonzero(np.diff(self.tree_offsets))

    def stack(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The bounds stack of the rows of ``[lo, hi]``."""
        stack = np.empty((2 * self.features.size, lo.shape[0]))
        stack[0::2], stack[1::2] = hi[:, self.features].T, -lo[:, self.features].T
        return stack

    def screen(self, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per column of the bounds stack, the mask of boxes meeting its
        bounds, one row per box, and their count per tree (0 for a tree
        without boxes)."""
        n_boxes, n_columns = int(self.tree_offsets[-1]), bounds.shape[1]
        outside = np.take(bounds, self._rows, axis=0) <= self._limits
        missed = self._fold(np.logical_or, outside, np.zeros((n_boxes, n_columns), bool))
        ok = ~missed
        kept = np.zeros((self.tree_offsets.size - 1, n_columns), dtype=np.int64)
        if n_boxes:
            kept[self._filled] = np.add.reduceat(
                ok, self.tree_offsets[self._filled], axis=0, dtype=np.int64
            )
        return ok, kept

    def trees(self, chosen: np.ndarray) -> "_Boxes":
        """The sub-table of the ``chosen`` trees (ascending), boxes
        renumbered."""
        sizes = np.diff(self.tree_offsets)
        offsets = np.concatenate(([0], np.cumsum(sizes[chosen])))
        renumber = np.full(int(self.tree_offsets[-1]), -1, dtype=np.int64)
        for tree, first in zip(chosen, offsets):
            start = self.tree_offsets[tree]
            renumber[start : start + sizes[tree]] = np.arange(first, first + sizes[tree])
        upper = renumber[self.upper_box] >= 0
        lower = renumber[self.lower_box] >= 0
        return _Boxes(
            offsets,
            renumber[self.upper_box[upper]],
            self.upper_feature[upper],
            self.upper_value[upper],
            renumber[self.lower_box[lower]],
            self.lower_feature[lower],
            self.lower_value[lower],
        )


@dataclass
class _Hulls:
    """The constraint table grouped per ``(key, tree)``, for the hulls.

    A key is a row of the bounds stack (see :class:`_Boxes`): an upper
    constraint ``x_f <= v`` bounds the ``hi_f`` row by ``v``, a lower
    constraint ``x_f > w``, which is ``x_f >= nextafter(w)``, bounds the
    ``-lo_f`` row by ``-nextafter(w)``.  :meth:`bound` gives, per key, the
    tightest bound that every compatible box of some one tree obeys.

    Values are ranked once, from 1, by key and then value, so the hull
    arithmetic runs on integer ranks: within a key a larger rank is a
    larger (or equal) value, and rank ``n + 1`` (one past the last)
    reads ``inf``.
    """

    keys: np.ndarray  # the distinct keys, ascending
    box: np.ndarray  # constraint boxes, in group-fold order
    rank: np.ndarray  # their value ranks, from 1, in group-fold order
    values: np.ndarray  # values by rank, then inf
    fold: _Fold  # constraints per group
    group_tree: np.ndarray  # groups by key, then tree
    key_groups: np.ndarray  # first group of each key

    @classmethod
    def index(cls, screen: "_FlatScreen") -> "_Hulls":
        box = np.concatenate([screen.upper_box, screen.lower_box])
        n_upper = screen.upper_feature.size
        feature = np.concatenate([screen.upper_feature, screen.lower_feature])
        key = 2 * np.searchsorted(screen.features, feature)
        key[n_upper:] += 1
        value = np.concatenate(
            [screen.upper_value, -np.nextafter(screen.lower_value, np.inf)]
        )
        n_trees = screen.tree_offsets.size - 1
        order = np.lexsort((value, key))
        box, key, value = box[order], key[order], value[order]
        # Groups numbered by key, then tree.
        pairs, group = np.unique(key * n_trees + screen.box_tree[box], return_inverse=True)
        group_key = pairs // n_trees
        key_groups = np.flatnonzero(np.diff(group_key, prepend=-1))
        fold = _Fold.of(group, pairs.size)
        rank = np.arange(1, box.size + 1)
        return cls(
            keys=group_key[key_groups],
            box=box[fold.rows],
            rank=rank[fold.rows, None],
            values=np.append(value, np.inf),
            fold=fold,
            group_tree=pairs % n_trees,
            key_groups=key_groups,
        )

    def bound(self, ok: np.ndarray, kept: np.ndarray) -> np.ndarray:
        """Per key of :attr:`keys` and column of the box masks ``ok``,
        the least over trees of the largest value among a tree's
        compatible boxes; ``inf`` where no tree constrains the key in
        every compatible box.

        A box holds at most one constraint per key, so a group covers
        its tree when it counts as many compatible boxes as the tree
        keeps (``kept``, all non-zero).
        """
        n_columns = ok.shape[1]
        if not self.keys.size:
            return np.empty((0, n_columns))
        active = np.take(ok, self.box, axis=0)
        shape = (self.group_tree.size, n_columns)
        count = self.fold(np.add, active, np.zeros(shape, dtype=np.int64))
        top = self.fold(np.maximum, active * self.rank, np.zeros(shape, dtype=np.int64))
        # A group that does not cover reads rank n + 1, whose value is inf.
        covers = count == np.take(kept, self.group_tree, axis=0)
        top = np.maximum(top, ~covers * (self.box.size + 1))
        least = np.minimum.reduceat(top, self.key_groups, axis=0)
        return self.values[least - 1]


@dataclass
class _FlatScreen(_Boxes):
    """The leaf-box constraints of every tree, for vectorised bound
    propagation over stacks of attempts."""

    box_tree: np.ndarray = field(init=False, repr=False)
    hulls: _Hulls = field(init=False, repr=False)
    early: _Boxes = field(init=False, repr=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        sizes = np.diff(self.tree_offsets)
        self.box_tree = np.repeat(np.arange(sizes.size), sizes)
        self.hulls = _Hulls.index(self)
        smallest = np.argsort(sizes, kind="stable")[:_EARLY_TREES]
        self.early = self.trees(np.sort(smallest))

    def compatible(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray | None:
        """Flat mask of boxes intersecting the closed bounds ``[lo, hi]``;
        ``None`` when some tree keeps no compatible box."""
        ok, kept = self.screen(self.stack(lo[None], hi[None]))
        return ok[:, 0] if kept.all() else None

    def propagate(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Tighten ``[lo, hi]`` by bound propagation over the boxes;
        ``None`` when that proves no point of ``[lo, hi]`` reaches a
        required leaf in every tree.  One row of
        :meth:`propagate_many`."""
        refuted, lo, hi = self.propagate_many(lo[None], hi[None])
        return None if refuted[0] else (lo[0], hi[0])

    def propagate_many(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bound propagation over stacked bounds ``[lo, hi]``, one row per
        attempt: which rows it refutes, and every row's final bounds
        (the fixpoint of a row it leaves open).

        A point realising the pattern lies in one compatible box per
        tree, hence in each tree's hull of compatible boxes.  Each round
        intersects a row's bounds with every hull and screens again,
        until some tree keeps no box or some ``lo_f > hi_f`` (refuted)
        or the bounds stop moving (a fixpoint).  A row leaves the stack
        as soon as either happens, so the rows still open share each
        round's array passes; the arithmetic per row — compares,
        ``min``/``max`` and integer box counts — is that of a single row
        alone.  Before round 1 an early pass screens the
        :data:`_EARLY_TREES` trees with the fewest boxes: a row leaving
        one of them without a box is refuted there, as round 1 would
        refute it.
        """
        refuted = (lo > hi).any(axis=1)
        live = np.flatnonzero(~refuted)
        _, kept = self.early.screen(self.early.stack(lo[live], hi[live]))
        cleared = kept.all(axis=0)
        refuted[live[~cleared]] = True
        live = live[cleared]
        final_lo, final_hi = lo.copy(), hi.copy()
        bounds = self.stack(lo[live], hi[live])
        keys = self.hulls.keys
        while live.size:
            ok, kept = self.screen(bounds)
            cleared = kept.all(axis=0)
            refuted[live[~cleared]] = True
            live, bounds = live[cleared], bounds[:, cleared]
            if not live.size:
                break
            current = bounds[keys]
            tighter = np.minimum(current, self.hulls.bound(ok[:, cleared], kept[:, cleared]))
            moved = (tighter != current).any(axis=0)
            settled = np.ix_(live[~moved], self.features)
            final_hi[settled] = bounds[0::2, ~moved].T
            final_lo[settled] = -bounds[1::2, ~moved].T
            live, bounds = live[moved], bounds[:, moved]
            bounds[keys] = tighter[:, moved]
            crossed = (-bounds[1::2] > bounds[0::2]).any(axis=0)
            refuted[live[crossed]] = True
            live, bounds = live[~crossed], bounds[:, ~crossed]
        return refuted, final_lo, final_hi


def _table_boxes(engine: CompiledEnsemble, required: list[int]) -> _FlatScreen:
    """The boxes of the leaves that carry their tree's required label.

    A level-synchronous descent from the roots: each frontier entry
    carries its tree and its path so far, as the internal rows it
    passed and whether each turn went right.  Following ``x_f <= v``
    left bounds ``x_f`` above by ``v``, following it right bounds it
    strictly below.  Boxes come in depth-first, left-first order per
    tree (the lexicographic order of their paths) and trees in ensemble
    order.  Within a box, a feature's upper bound is the smallest
    threshold of its left turns, placed at the first of them, and its
    lower bound the largest threshold of its right turns, placed at the
    first of those; an infinite or NaN threshold bounds nothing.  These
    rules fix the CNF's variable and clause order.
    """
    feature, threshold, depth = engine.feature, engine.threshold, engine.depth
    wanted = np.asarray(required, dtype=np.int64)
    tree = np.arange(engine.n_trees)
    node = np.asarray(engine.roots, dtype=np.int64)
    # Paths are padded to the full depth: rows -1, turns left.
    passed = np.full((tree.size, depth), -1, dtype=np.int64)
    right = np.zeros((tree.size, depth), dtype=bool)
    found: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for level in range(depth + 1):
        leaf = feature[node] < 0
        keep = leaf & (engine.leaf_value[node] == wanted[tree])
        found.append((tree[keep], passed[keep], right[keep]))
        if level == depth:
            break
        parent = node[~leaf]
        tree = np.repeat(tree[~leaf], 2)
        node = np.column_stack([engine.left[parent], engine.right[parent]]).ravel()
        passed = np.repeat(passed[~leaf], 2, axis=0)
        passed[:, level] = np.repeat(parent, 2)
        right = np.repeat(right[~leaf], 2, axis=0)
        right[1::2, level] = True
    tree, passed, right = (np.concatenate(part) for part in zip(*found))
    # Paths are prefix-free, so padding them with left turns keeps
    # their lexicographic order.
    order = np.lexsort(np.vstack([right.T[::-1], tree]))
    passed, right = passed[order], right[order]
    offsets = np.concatenate(
        ([0], np.cumsum(np.bincount(tree, minlength=engine.n_trees)))
    )
    box, step = np.nonzero(passed >= 0)  # by box, then root to leaf
    row = passed[box, step]
    turned_right = right[box, step]
    columns = box, step, feature[row], threshold[row]
    upper = ~turned_right & (columns[3] < np.inf)
    lower = turned_right & (columns[3] > -np.inf)
    return _FlatScreen(
        offsets,
        *_tightest(*(column[upper] for column in columns), np.minimum),
        *_tightest(*(column[lower] for column in columns), np.maximum),
    )


def _tightest(box, step, feature, value, tighter):
    """One constraint per ``(box, feature)``: the ``tighter`` value, at
    the step where it first appears; ordered by box, then that step."""
    order = np.lexsort((step, feature, box))
    box, step, feature, value = box[order], step[order], feature[order], value[order]
    first = np.ones(box.size, dtype=bool)
    first[1:] = (box[1:] != box[:-1]) | (feature[1:] != feature[:-1])
    starts = np.flatnonzero(first)
    if starts.size:
        value = tighter.reduceat(value, starts)
    box, step, feature = box[starts], step[starts], feature[starts]
    order = np.lexsort((step, box))
    return box[order], feature[order], value[order]


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
class _Skeleton:
    """The clause skeleton of a pattern and its threshold atom table."""

    cnf: CNF
    atom_vars: dict[tuple[int, float], int]
    # Atom table sorted by (feature, threshold); slices index per feature.
    atom_features: np.ndarray
    atom_thresholds: np.ndarray
    atom_variables: np.ndarray


def _encode_skeleton(screen: _FlatScreen) -> _Skeleton:
    """Number the variables and clauses from the screen's boxes:
    trees in ensemble order, leaf boxes depth-first, left first."""
    cnf = CNF()
    atom_vars: dict[tuple[int, float], int] = {}

    def atom(key: tuple[int, float]) -> int:
        if key not in atom_vars:
            atom_vars[key] = cnf.new_var()
        return atom_vars[key]

    # Tree constraints: one selector variable per candidate leaf box.
    # No clause is pruned against the bounds — they arrive per instance
    # as assumptions, and unit propagation does the pruning.
    n_boxes = int(screen.tree_offsets[-1])
    upper = list(zip(screen.upper_feature.tolist(), screen.upper_value.tolist()))
    lower = list(zip(screen.lower_feature.tolist(), screen.lower_value.tolist()))
    upper_at = np.searchsorted(screen.upper_box, np.arange(n_boxes + 1)).tolist()
    lower_at = np.searchsorted(screen.lower_box, np.arange(n_boxes + 1)).tolist()
    offsets = screen.tree_offsets.tolist()
    for first, stop in zip(offsets, offsets[1:]):
        selectors = []
        for box in range(first, stop):
            selector = cnf.new_var()
            selectors.append(selector)
            for key in upper[upper_at[box] : upper_at[box + 1]]:
                cnf.add_clause([-selector, atom(key)])
            for key in lower[lower_at[box] : lower_at[box + 1]]:
                cnf.add_clause([-selector, -atom(key)])
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

    items = sorted(atom_vars.items())
    return _Skeleton(
        cnf,
        atom_vars,
        np.array([key[0] for key, _ in items], dtype=np.int64),
        np.array([key[1] for key, _ in items], dtype=np.float64),
        np.array([var for _, var in items], dtype=np.int64),
    )


@dataclass
class CompiledPatternEncoding:
    """The instance-independent part of a forgery query, precompiled.

    Use :func:`compile_pattern_encoding` to build one; then call
    :meth:`solve_many` with a stack of test instances, or :meth:`solve`
    with one, giving only the box constraints.
    The clause skeleton (:attr:`cnf` and the atom table) is built on
    first use — by :meth:`warm` or by reading one of its attributes —
    and then kept.
    """

    engine: CompiledEnsemble
    required: list[int]
    n_features: int
    domain: tuple[float, float] | None
    screen: _FlatScreen
    _skeleton: _Skeleton | None = field(default=None, repr=False)
    _solver: SATSolver | None = field(default=None, repr=False)
    _solver_dirty: bool = field(default=False, repr=False)

    # -- the lazily built skeleton ----------------------------------------

    def build_skeleton(self) -> _Skeleton:
        """The clause skeleton and atom table, built on the first call
        and then kept.  Builds no solver."""
        if self._skeleton is None:
            self._skeleton = _encode_skeleton(self.screen)
        return self._skeleton

    @property
    def cnf(self) -> CNF:
        return self.build_skeleton().cnf

    @property
    def atom_vars(self) -> dict[tuple[int, float], int]:
        return self.build_skeleton().atom_vars

    @property
    def atom_features(self) -> np.ndarray:
        return self.build_skeleton().atom_features

    @property
    def atom_thresholds(self) -> np.ndarray:
        return self.build_skeleton().atom_thresholds

    @property
    def atom_variables(self) -> np.ndarray:
        return self.build_skeleton().atom_variables

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
        """Build the clause skeleton and the persistent solver (encode
        clauses, set watches).

        :meth:`solve_many` calls this on the first attempt the prescreen
        leaves open, so an encoding whose every attempt is refuted
        builds neither.  Call it directly only to pay that cost up
        front.
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
        """Decide one instance: bound propagation, then CDCL re-solving.

        ``center`` and ``epsilon`` give the ``L∞`` ball (both or
        neither).  An instance the prescreen's bound propagation
        refutes is ``unsat`` with stats ``{"trivial": True}`` whatever
        the budget; the solver is neither built nor run for it.  For
        the rest, ``budget`` caps the solver's conflicts, an integer
        ``>= 0``; ``None`` means unlimited.  An exhausted budget returns
        ``status="unknown"``.  The one-instance form of
        :meth:`solve_many`.
        """
        center = check_pattern_inputs(
            self.engine, self.required, self.n_features, center, epsilon, self.domain
        )
        if budget is not None:
            check_count(budget, "budget", minimum=0)
        lo, hi = self.feature_bounds(center, epsilon)
        centers = None if center is None else center[None]
        return next(self._decide(centers, epsilon, lo[None], hi[None], budget))

    def solve_many(
        self, centers: np.ndarray, epsilon: float, budget: int | None = None
    ) -> Iterator[PatternOutcome]:
        """Decide the instances around each row of ``centers``, lazily
        and in order: the outcome of each, as :meth:`solve` gives it.

        The inputs are checked here, at the call, with the errors of
        :meth:`solve`.  The iterator prescreens the rows in chunks of
        :data:`_SCREEN_CHUNK`, one batched bound propagation per chunk,
        and solves each survivor when its outcome is pulled — so the
        solver runs in row order, and a caller that stops early leaves
        at most the rest of one chunk screened for nothing.
        """
        centers = check_pattern_stack(
            self.engine, self.required, self.n_features, centers, epsilon, self.domain
        )
        if budget is not None:
            check_count(budget, "budget", minimum=0)
        lo, hi = self.feature_bounds(centers, epsilon)
        return self._decide(centers, epsilon, lo, hi, budget)

    def _decide(self, centers, epsilon, lo, hi, budget) -> Iterator[PatternOutcome]:
        """Outcomes of checked instances with stacked bounds ``[lo, hi]``
        (``centers`` is ``None`` for instances without a ball)."""
        for first in range(0, lo.shape[0], _SCREEN_CHUNK):
            rows = slice(first, first + _SCREEN_CHUNK)
            refuted, _, _ = self.screen.propagate_many(lo[rows], hi[rows])
            for row in range(first, first + refuted.size):
                if refuted[row - first]:
                    yield PatternOutcome(status="unsat", stats={"trivial": True})
                else:
                    center = None if centers is None else centers[row]
                    yield self._search(center, epsilon, lo[row], hi[row], budget)

    def _search(self, center, epsilon, lo, hi, budget) -> PatternOutcome:
        """CDCL on the persistent solver for an instance the prescreen
        leaves open; its bounds become the assumptions."""
        solver = self.warm()._solver
        assert solver is not None
        if self._solver_dirty:
            solver.reset()
        self._solver_dirty = True
        solver.max_conflicts = budget

        skeleton = self.build_skeleton()
        result = solver.solve(self.bound_assumptions(lo, hi))
        stats = {
            "conflicts": result.conflicts,
            "decisions": result.decisions,
            "propagations": result.propagations,
            "n_vars": skeleton.cnf.n_vars,
            "n_clauses": len(skeleton.cnf),
        }
        if result.status != "sat":
            return PatternOutcome(status=result.status, stats=stats)

        assign = np.fromiter(solver.assign, np.int8, skeleton.cnf.n_vars)
        truth = assign[skeleton.atom_variables - 1] == 1
        instance = decode_atom_intervals(
            skeleton.atom_features, skeleton.atom_thresholds, truth,
            lo, hi, self.n_features, center,
        )
        if not pattern_holds(
            self.engine, self.required, instance, center, epsilon, self.domain
        ):
            raise SolverError(
                "decoded instance does not realise the required pattern — "
                "compiled encoding bug"
            )
        return PatternOutcome(status="sat", instance=instance, stats=stats)


def compile_pattern_encoding(
    engine: CompiledEnsemble,
    required: list[int],
    n_features: int,
    domain: tuple[float, float] | None = (0.0, 1.0),
) -> CompiledPatternEncoding:
    """Build the instance-independent encoding of a signature pattern.

    ``engine`` is the forest's node table (``forest.compile()``, or
    :func:`~repro.ensemble.compiled.compile_trees` of a root list).
    Only the leaf-box screen is built here; the clause skeleton waits
    for the first attempt the screen leaves open
    (:meth:`CompiledPatternEncoding.warm`).  Its variables are numbered
    in a fixed order (trees in ensemble order, leaf boxes depth-first,
    left first), which is what keeps compiled and fresh solves
    bit-for-bit interchangeable.
    """
    check_pattern_inputs(engine, required, n_features, None, None, domain)
    screen = _table_boxes(engine, required)
    return CompiledPatternEncoding(
        engine=engine,
        required=list(required),
        n_features=n_features,
        domain=domain,
        screen=screen,
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
        engine: CompiledEnsemble,
        n_features: int,
        domain: tuple[float, float] | None = (0.0, 1.0),
    ) -> None:
        self.engine = engine
        self.n_features = n_features
        self.domain = domain
        # Insertion order is recency order: least recently used first.
        self._by_pattern: dict[tuple[int, ...], CompiledPatternEncoding] = {}

    def for_required(self, required: list[int]) -> CompiledPatternEncoding:
        key = tuple(required)
        encoding = self._by_pattern.pop(key, None)
        if encoding is None:
            encoding = compile_pattern_encoding(
                self.engine, list(required), self.n_features, self.domain
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
        problem.engine, problem.required, problem.n_features, problem.domain
    ).solve(problem.center, problem.epsilon, budget=max_conflicts)
