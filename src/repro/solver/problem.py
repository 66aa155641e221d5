"""The watermark forgery problem (Definition 1 of the paper).

Given a tree ensemble ``T``, a label ``y`` and a signature ``σ``, find
an instance ``x`` such that ``t_i(x) = y ⇔ σ_i = 0`` for every tree.
With binary labels this means tree ``i`` must output ``y`` when
``σ_i = 0`` and ``-y`` when ``σ_i = 1``.

The experimental attack (§4.2.2) additionally constrains ``x`` to lie
within an ``L∞`` ball of radius ``ε`` around a real test instance and
inside the normalised feature domain ``[0, 1]^d`` — both optional here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.signature import Signature
from ..exceptions import ValidationError
from ..trees.node import TreeNode, predict_one
from ..trees.paths import Box, leaf_boxes

__all__ = [
    "PatternProblem",
    "PatternOutcome",
    "required_labels",
    "compute_feature_bounds",
    "check_pattern",
    "check_pattern_inputs",
]


def required_labels(signature: Signature, label: int) -> list[int]:
    """Per-tree output the forger needs: ``y`` on bit 0, ``-y`` on bit 1."""
    if label not in (-1, 1):
        raise ValidationError(f"label must be -1 or +1, got {label}")
    return [label if bit == 0 else -label for bit in signature]


def compute_feature_bounds(
    n_features: int,
    center: np.ndarray | None,
    epsilon: float | None,
    domain: tuple[float, float] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature closed bounds ``[lo_f, hi_f]`` from ball ∩ domain.

    Shared by :meth:`PatternProblem.feature_bounds` and the compiled
    encoding, which specialises a prebuilt skeleton with exactly these
    bounds for every test instance.
    """
    if domain is not None:
        lo = np.full(n_features, float(domain[0]))
        hi = np.full(n_features, float(domain[1]))
    else:
        lo = np.full(n_features, -np.inf)
        hi = np.full(n_features, np.inf)
    if center is not None and epsilon is not None:
        lo = np.maximum(lo, center - epsilon)
        hi = np.minimum(hi, center + epsilon)
    return lo, hi


def check_pattern_inputs(
    roots: list[TreeNode],
    required: list[int],
    n_features: int,
    center,
    epsilon: float | None,
    domain: tuple[float, float] | None,
) -> np.ndarray | None:
    """Validate a forgery query; return ``center`` as a float array.

    The one check behind :class:`PatternProblem` and the compiled
    encoding: a non-empty ensemble with one required label per tree, an
    ``L∞`` ball given whole (a finite center of shape
    ``(n_features,)`` and a positive radius) or not at all, and a
    non-empty domain.
    """
    if len(roots) != len(required):
        raise ValidationError(
            f"{len(roots)} trees but {len(required)} required labels"
        )
    if not roots:
        raise ValidationError("the ensemble must contain at least one tree")
    if (center is None) != (epsilon is None):
        raise ValidationError("center and epsilon must be given together")
    if epsilon is not None and not epsilon > 0:
        raise ValidationError(f"epsilon must be > 0, got {epsilon}")
    if center is not None:
        center = np.asarray(center, dtype=np.float64)
        if center.shape != (n_features,):
            raise ValidationError(
                f"center must have shape ({n_features},), got {center.shape}"
            )
        if not np.isfinite(center).all():
            raise ValidationError("center must be finite")
    if domain is not None and not domain[0] < domain[1]:
        raise ValidationError(f"empty domain {domain}")
    return center


def check_pattern(
    roots: list[TreeNode],
    required: list[int],
    x: np.ndarray,
    center: np.ndarray | None = None,
    epsilon: float | None = None,
    domain: tuple[float, float] | None = (0.0, 1.0),
) -> bool:
    """True when ``x`` realises the required pattern and constraints.

    The function form of :meth:`PatternProblem.check_solution`, usable
    by per-instance solvers without constructing a problem object.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        return False
    if domain is not None:
        if (x < domain[0]).any() or (x > domain[1]).any():
            return False
    if center is not None and epsilon is not None:
        # Tiny slack absorbs float rounding at the ball boundary.
        if np.abs(x - center).max() > epsilon + 1e-9:
            return False
    return all(
        predict_one(root, x) == label for root, label in zip(roots, required)
    )


@dataclass
class PatternProblem:
    """A "force this output pattern" satisfiability instance.

    Parameters
    ----------
    roots:
        The ensemble's tree roots.
    required:
        Required output label per tree (same length as ``roots``).
    n_features:
        Ambient dimensionality ``d``.
    center, epsilon:
        Optional ``L∞`` ball constraint ``‖x − center‖∞ ≤ ε``: a finite
        center and a positive (not NaN) radius.
    domain:
        Feature domain ``[low, high]`` applied to every coordinate
        (``None`` disables it; the paper's data is normalised to [0,1]).
    """

    roots: list[TreeNode]
    required: list[int]
    n_features: int
    center: np.ndarray | None = None
    epsilon: float | None = None
    domain: tuple[float, float] | None = (0.0, 1.0)

    def __post_init__(self) -> None:
        self.center = check_pattern_inputs(
            self.roots, self.required, self.n_features,
            self.center, self.epsilon, self.domain,
        )

    # ------------------------------------------------------------------

    def feature_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-feature closed bounds ``[lo_f, hi_f]`` from ball ∩ domain."""
        return compute_feature_bounds(
            self.n_features, self.center, self.epsilon, self.domain
        )

    def candidate_boxes(self) -> list[list[Box]] | None:
        """Per tree, the boxes of leaves with the required label that are
        compatible with the feature bounds.

        Returns ``None`` when some tree has no compatible leaf — the
        instance is trivially unsatisfiable.
        """
        lo, hi = self.feature_bounds()
        if (lo > hi).any():
            return None
        candidates: list[list[Box]] = []
        for root, label in zip(self.roots, self.required):
            boxes = []
            for leaf, box in leaf_boxes(root):
                if leaf.prediction != label:
                    continue
                if _box_compatible(box, lo, hi):
                    boxes.append(box)
            if not boxes:
                return None
            candidates.append(boxes)
        return candidates

    def check_solution(self, x: np.ndarray) -> bool:
        """True when ``x`` realises the required pattern and constraints."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_features,):
            return False
        return check_pattern(
            self.roots, self.required, x, self.center, self.epsilon, self.domain
        )


def _box_compatible(box: Box, lo: np.ndarray, hi: np.ndarray) -> bool:
    """Does the box intersect the closed per-feature bounds?"""
    for feature, upper in box.upper.items():
        if upper < lo[feature]:
            return False
    for feature, lower in box.lower.items():
        if lower >= hi[feature]:
            return False
    return True


@dataclass
class PatternOutcome:
    """Result of a pattern/forgery solve.

    ``status`` is ``"sat"``, ``"unsat"`` or ``"unknown"`` (budget
    exhausted); ``instance`` is a satisfying feature vector when SAT.
    ``stats`` carries engine-specific counters (conflicts, nodes, ...).
    """

    status: str
    instance: np.ndarray | None = None
    stats: dict = field(default_factory=dict)

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"
