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
from ..ensemble.compiled import CompiledEnsemble, compile_trees
from ..exceptions import ValidationError
from ..trees.node import TreeNode, predict_one

__all__ = [
    "PatternProblem",
    "PatternOutcome",
    "required_labels",
    "compute_feature_bounds",
    "check_pattern",
    "check_pattern_inputs",
    "check_pattern_stack",
    "pattern_holds",
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
    engine: CompiledEnsemble,
    required: list[int],
    n_features: int,
    center,
    epsilon: float | None,
    domain: tuple[float, float] | None,
) -> np.ndarray | None:
    """Validate a forgery query; return ``center`` as a float array.

    The one check behind :class:`PatternProblem` and the compiled
    encoding: one required label per tree of ``engine``, at least as
    many features as its node table splits on, an ``L∞`` ball given
    whole (a finite center of shape ``(n_features,)`` and a positive
    radius) or not at all, and a non-empty domain.
    """
    centers = None if center is None else [center]
    centers = check_pattern_stack(engine, required, n_features, centers, epsilon, domain)
    return None if centers is None else centers[0]


def check_pattern_stack(
    engine: CompiledEnsemble,
    required: list[int],
    n_features: int,
    centers,
    epsilon: float | None,
    domain: tuple[float, float] | None,
) -> np.ndarray | None:
    """:func:`check_pattern_inputs` for a stack of queries that differ
    only in their center: each row of ``centers`` is checked as a
    ``center``, with the same errors.  Returns the stack as a float
    array."""
    if engine.n_trees != len(required):
        raise ValidationError(
            f"{engine.n_trees} trees but {len(required)} required labels"
        )
    if n_features < engine._min_width:
        raise ValidationError(
            f"n_features is {n_features} but the trees split on feature "
            f"{engine._min_width - 1}"
        )
    if (centers is None) != (epsilon is None):
        raise ValidationError("center and epsilon must be given together")
    if epsilon is not None and not epsilon > 0:
        raise ValidationError(f"epsilon must be > 0, got {epsilon}")
    if centers is not None:
        centers = np.asarray(centers, dtype=np.float64)
        if centers.shape[1:] != (n_features,):
            raise ValidationError(
                f"center must have shape ({n_features},), got {centers.shape[1:]}"
            )
        if not np.isfinite(centers).all():
            raise ValidationError("center must be finite")
    if domain is not None and not domain[0] < domain[1]:
        raise ValidationError(f"empty domain {domain}")
    return centers


def _admissible(x, center, epsilon, domain) -> np.ndarray | None:
    """``x`` as a float vector when it is finite, shaped like ``center``
    (given a ball) and inside the domain and the ball; else ``None``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or not np.isfinite(x).all():
        return None
    if domain is not None:
        if (x < domain[0]).any() or (x > domain[1]).any():
            return None
    if center is not None and epsilon is not None:
        if x.shape != np.shape(center):
            return None
        # Tiny slack absorbs float rounding at the ball boundary.
        if np.abs(x - center).max() > epsilon + 1e-9:
            return None
    return x


def pattern_holds(
    engine: CompiledEnsemble,
    required: list[int],
    x: np.ndarray,
    center: np.ndarray | None = None,
    epsilon: float | None = None,
    domain: tuple[float, float] | None = (0.0, 1.0),
) -> bool:
    """True when ``x`` realises the required pattern and constraints.

    ``x`` must be a finite vector, shaped like ``center`` when a ball is
    given, inside the domain and the ball, and routed by every tree of
    ``engine`` to a leaf with its required label.
    """
    x = _admissible(x, center, epsilon, domain)
    return x is not None and bool(
        np.array_equal(engine.predict_all(x[None, :])[:, 0], required)
    )


def check_pattern(
    roots: list[TreeNode],
    required: list[int],
    x: np.ndarray,
    center: np.ndarray | None = None,
    epsilon: float | None = None,
    domain: tuple[float, float] | None = (0.0, 1.0),
) -> bool:
    """:func:`pattern_holds` for a list of tree roots.

    Walks each root to its leaf instead of compiling the trees: callers
    replay forged rows one at a time, and compiling a 64-tree forest
    costs over a hundred times one row's walk.
    """
    x = _admissible(x, center, epsilon, domain)
    return x is not None and all(
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
    #: The trees compiled once into one node table.
    engine: CompiledEnsemble = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.engine = compile_trees(self.roots)
        self.center = check_pattern_inputs(
            self.engine, self.required, self.n_features,
            self.center, self.epsilon, self.domain,
        )

    # ------------------------------------------------------------------

    def feature_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-feature closed bounds ``[lo_f, hi_f]`` from ball ∩ domain."""
        return compute_feature_bounds(
            self.n_features, self.center, self.epsilon, self.domain
        )

    def check_solution(self, x: np.ndarray) -> bool:
        """True when ``x`` realises the required pattern and constraints."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_features,):
            return False
        return pattern_holds(
            self.engine, self.required, x, self.center, self.epsilon, self.domain
        )


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
