"""DPLL over leaf boxes — a reference forgery solver, for tests.

Forcing tree ``t_i`` to output label ``ℓ_i`` means placing the instance
inside one of ``t_i``'s ``ℓ_i``-labelled leaf boxes; the whole pattern
problem is therefore: *choose one box per tree so that the joint
intersection (further clipped to the ε-ball and domain) is non-empty*.

This solver searches that space directly: depth-first over trees
(smallest candidate list first), maintaining the running intersection
box, with forward-checking against the remaining trees' candidates.
It shares nothing with the library's CNF machinery (the compiled
forgery encoding), so the differential tests, the solver ablation
benchmark and the hardness tests compare the library's verdicts
against it.  It is slower than CDCL once ensembles reach a
dozen trees, which is why the library does not ship it.

The boxes come from a recursive walk over the object trees
(:func:`leaf_boxes`), independent of the node-table passes the library
reads them with:

- :class:`Box` is an axis-aligned region ``{x : lo_f < x_f <= hi_f}``;
- :func:`leaf_boxes` / :func:`boxes_for_label` enumerate a tree's leaf
  boxes, depth-first and left first;
- :func:`candidate_boxes` keeps, per tree, the required-label boxes
  that meet a problem's feature bounds;
- :func:`solve_pattern_boxes` decides a :class:`repro.solver.PatternProblem`;
- :func:`bounds_box` is the closed feature bounds ``[lo, hi]`` as a box.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import SolverError
from repro.solver import PatternOutcome, PatternProblem
from repro.trees.node import Leaf, TreeNode

__all__ = [
    "Box",
    "leaf_boxes",
    "boxes_for_label",
    "candidate_boxes",
    "solve_pattern_boxes",
    "bounds_box",
]

NEG_INF = float("-inf")
POS_INF = float("inf")

# Nudge used when a point must satisfy a strict lower bound x_f > lo.
_STRICT_EPS = 1e-9


@dataclass
class Box:
    """An axis-aligned region ``{x : lo_f < x_f <= hi_f for all f}``.

    Only constrained features are stored (trees touch few features per
    path, while the ambient space may have hundreds of dimensions).
    Features absent from both maps are unconstrained.
    """

    lower: dict[int, float] = field(default_factory=dict)  # strict: x_f > lo
    upper: dict[int, float] = field(default_factory=dict)  # inclusive: x_f <= hi

    def copy(self) -> "Box":
        return Box(lower=dict(self.lower), upper=dict(self.upper))

    def constrain_upper(self, feature: int, value: float) -> None:
        """Add ``x_feature <= value`` (keep the tighter bound)."""
        current = self.upper.get(feature, POS_INF)
        if value < current:
            self.upper[feature] = value

    def constrain_lower(self, feature: int, value: float) -> None:
        """Add ``x_feature > value`` (keep the tighter bound)."""
        current = self.lower.get(feature, NEG_INF)
        if value > current:
            self.lower[feature] = value

    def interval(self, feature: int) -> tuple[float, float]:
        """Return the ``(lo, hi]`` interval of a feature."""
        return self.lower.get(feature, NEG_INF), self.upper.get(feature, POS_INF)

    def is_empty(self) -> bool:
        """True when some feature interval ``(lo, hi]`` contains no point."""
        for feature, lo in self.lower.items():
            if lo >= self.upper.get(feature, POS_INF):
                return True
        return False

    def features(self) -> set[int]:
        """All features constrained by this box."""
        return set(self.lower) | set(self.upper)

    def intersect(self, other: "Box") -> "Box":
        """Return the intersection of two boxes (may be empty)."""
        result = self.copy()
        for feature, lo in other.lower.items():
            result.constrain_lower(feature, lo)
        for feature, hi in other.upper.items():
            result.constrain_upper(feature, hi)
        return result

    def intersects(self, other: "Box") -> bool:
        """Cheap emptiness test of the pairwise intersection."""
        for feature in other.features() | self.features():
            lo = max(self.lower.get(feature, NEG_INF), other.lower.get(feature, NEG_INF))
            hi = min(self.upper.get(feature, POS_INF), other.upper.get(feature, POS_INF))
            if lo >= hi:
                return False
        return True

    def contains(self, x: np.ndarray) -> bool:
        """True when instance ``x`` lies inside the box."""
        for feature, lo in self.lower.items():
            if not x[feature] > lo:
                return False
        for feature, hi in self.upper.items():
            if not x[feature] <= hi:
                return False
        return True

    def clip_to_ball(self, center: np.ndarray, radius: float) -> "Box":
        """Intersect with the closed ``L∞`` ball around ``center``.

        Ball membership ``|x_f - c_f| <= radius`` is encoded as
        ``x_f <= c_f + radius`` and ``x_f > c_f - radius - eps`` (the
        lower side uses a tiny slack so the closed ball boundary stays
        feasible under our strict lower bounds).
        """
        result = self.copy()
        for feature in range(center.shape[0]):
            result.constrain_upper(feature, float(center[feature]) + radius)
            result.constrain_lower(
                feature, float(center[feature]) - radius - _STRICT_EPS
            )
        return result

    def sample_point(
        self, n_features: int, reference: np.ndarray | None = None
    ) -> np.ndarray:
        """Pick a concrete instance inside the box.

        Unconstrained coordinates copy the reference instance (or 0).
        Constrained coordinates take the point of their interval closest
        to the reference, nudged off strict lower boundaries.

        Raises
        ------
        ValueError
            If the box is empty.
        """
        if self.is_empty():
            raise ValueError("cannot sample from an empty box")
        x = (
            reference.astype(np.float64).copy()
            if reference is not None
            else np.zeros(n_features, dtype=np.float64)
        )
        for feature in self.features():
            lo, hi = self.interval(feature)
            target = x[feature]
            if lo == NEG_INF and hi == POS_INF:
                continue
            if lo == NEG_INF:
                value = min(target, hi)
            elif hi == POS_INF:
                value = max(target, lo + _STRICT_EPS)
            else:
                value = min(max(target, lo + _STRICT_EPS), hi)
                if not value > lo:  # interval thinner than the nudge
                    value = 0.5 * (lo + hi)
                    value = np.nextafter(value, hi) if not value > lo else value
            x[feature] = value
        return x


def leaf_boxes(root: TreeNode) -> list[tuple[Leaf, Box]]:
    """All ``(leaf, box)`` pairs of the tree at ``root``, depth-first,
    left first."""
    result: list[tuple[Leaf, Box]] = []
    stack: list[tuple[TreeNode, Box]] = [(root, Box())]
    while stack:
        node, box = stack.pop()
        if node.is_leaf:
            result.append((node, box))  # type: ignore[arg-type]
            continue
        left_box = box.copy()
        left_box.constrain_upper(node.feature, node.threshold)
        right_box = box.copy()
        right_box.constrain_lower(node.feature, node.threshold)
        stack.append((node.right, right_box))
        stack.append((node.left, left_box))
    return result


def boxes_for_label(root: TreeNode, label: int) -> list[Box]:
    """Boxes of the leaves of ``root`` that predict ``label``.

    An instance placed inside any of these boxes is guaranteed to be
    classified as ``label`` by the tree — the building block of the
    forgery encodings.
    """
    return [box for leaf, box in leaf_boxes(root) if leaf.prediction == label]


def candidate_boxes(problem: PatternProblem) -> list[list[Box]] | None:
    """Per tree, the boxes of leaves with the required label that are
    compatible with the feature bounds.

    Returns ``None`` when some tree has no compatible leaf — the
    instance is trivially unsatisfiable.
    """
    lo, hi = problem.feature_bounds()
    if (lo > hi).any():
        return None
    candidates: list[list[Box]] = []
    for root, label in zip(problem.roots, problem.required):
        boxes = [
            box for box in boxes_for_label(root, label)
            if _box_compatible(box, lo, hi)
        ]
        if not boxes:
            return None
        candidates.append(boxes)
    return candidates


def _box_compatible(box: Box, lo: np.ndarray, hi: np.ndarray) -> bool:
    """Does the box intersect the closed per-feature bounds?"""
    for feature, upper in box.upper.items():
        if upper < lo[feature]:
            return False
    for feature, lower in box.lower.items():
        if lower >= hi[feature]:
            return False
    return True



def bounds_box(lo: np.ndarray, hi: np.ndarray) -> Box:
    """The closed per-feature bounds ``[lo, hi]`` as a Box."""
    box = Box()
    for feature in range(lo.shape[0]):
        if np.isfinite(hi[feature]):
            box.constrain_upper(feature, float(hi[feature]))
        if np.isfinite(lo[feature]):
            # Closed lower bound lo encoded as strict bound just below it.
            box.constrain_lower(feature, float(np.nextafter(lo[feature], -np.inf)))
    return box


def solve_pattern_boxes(
    problem: PatternProblem, max_nodes: int | None = 2_000_000
) -> PatternOutcome:
    """Decide a pattern problem by DPLL over per-tree leaf boxes.

    Parameters
    ----------
    max_nodes:
        Budget on search-tree nodes; exhausted ⇒ ``status="unknown"``.
    """
    candidates = candidate_boxes(problem)
    if candidates is None:
        return PatternOutcome(status="unsat", stats={"trivial": True})

    lo, hi = problem.feature_bounds()
    start = bounds_box(lo, hi)
    if start.is_empty():
        return PatternOutcome(status="unsat", stats={"trivial": True})

    # Clip candidates to the bounds up front and drop empties.
    clipped: list[list[Box]] = []
    for boxes in candidates:
        usable = []
        for box in boxes:
            merged = box.intersect(start)
            if not merged.is_empty():
                usable.append(merged)
        if not usable:
            return PatternOutcome(status="unsat", stats={"trivial": True})
        clipped.append(usable)

    # Most-constrained trees first shrinks the branching factor early.
    ordered = sorted(clipped, key=len)
    nodes = 0

    def forward_check(current: Box, depth: int) -> bool:
        """Every remaining tree must keep at least one compatible box."""
        for boxes in ordered[depth:]:
            if not any(current.intersects(box) for box in boxes):
                return False
        return True

    def search(current: Box, depth: int) -> Box | str | None:
        """Returns a feasible Box, None (exhausted), or "budget"."""
        nonlocal nodes
        if depth == len(ordered):
            return current
        for box in ordered[depth]:
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                return "budget"
            if not current.intersects(box):
                continue
            merged = current.intersect(box)
            if merged.is_empty():
                continue
            if not forward_check(merged, depth + 1):
                continue
            result = search(merged, depth + 1)
            if result is not None:
                return result
        return None

    outcome = search(start, 0)
    stats = {"nodes": nodes, "n_trees": len(ordered)}
    if outcome == "budget":
        return PatternOutcome(status="unknown", stats=stats)
    if outcome is None:
        return PatternOutcome(status="unsat", stats=stats)

    assert isinstance(outcome, Box)
    instance = outcome.sample_point(problem.n_features, reference=problem.center)
    if problem.domain is not None:
        instance = np.clip(instance, problem.domain[0], problem.domain[1])
    if not problem.check_solution(instance):
        # Extremely thin intervals can fall foul of float nudging; treat
        # as a solver failure loudly rather than returning a bad witness.
        raise SolverError("box-DPLL produced a non-verifying witness")
    return PatternOutcome(status="sat", instance=instance, stats=stats)
