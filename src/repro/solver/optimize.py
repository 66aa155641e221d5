"""Minimum-distortion forgery: how far must a forged instance stray?

Fig. 4 of the paper sweeps a fixed grid of ε values; a sharper question
is *the smallest ε at which a given (instance, fake signature) pair
becomes forgeable*.  Since feasibility is monotone in ε (a larger ball
contains the smaller one), binary search over ε with the pattern solver
as the oracle computes this minimal distortion to any precision.  Only
the ``L∞`` ball changes between probes, so the search compiles the
pattern's encoding once and re-solves it per ε under bound assumptions
(incremental SAT, as in MiniSat).

The minimal distortion is exactly the quantity a judge would use to
argue a forged trigger set is illegitimate ("every one of these
instances required at least 0.4 L∞ distortion"), and it powers the
distortion histograms in the forged-instance analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ensemble.compiled import compile_trees
from ..exceptions import ValidationError
from . import compiled_encoding  # by module: name-wrapped compiles count

__all__ = ["MinimalDistortion", "minimal_forgery_distortion"]


@dataclass
class MinimalDistortion:
    """Result of the binary search.

    ``epsilon`` is an upper bound on the minimal feasible distortion,
    within ``tolerance`` of the true threshold; ``instance`` is a
    witness at that distortion.  ``feasible`` is False when even the
    maximal ε admits no forgery (then ``epsilon``/``instance`` are
    ``None``).
    """

    feasible: bool
    epsilon: float | None = None
    instance: np.ndarray | None = None
    solver_calls: int = 0


def minimal_forgery_distortion(
    roots,
    required: list[int],
    center: np.ndarray,
    n_features: int,
    epsilon_max: float = 1.0,
    tolerance: float = 0.01,
    solver_budget: int | None = 100_000,
    domain: tuple[float, float] | None = (0.0, 1.0),
) -> MinimalDistortion:
    """Binary-search the smallest ε admitting the required pattern.

    Parameters
    ----------
    roots, required, center, n_features, domain:
        As in :class:`~repro.solver.PatternProblem` (``center`` must be
        finite).
    epsilon_max:
        Upper end of the search (1.0 covers the whole unit domain);
        finite and positive.
    tolerance:
        Absolute precision of the returned threshold; finite and
        positive.
    solver_budget:
        Conflict budget of each probe, ``>= 0`` (``None`` = unlimited);
        a budget exhaustion ("unknown") is treated conservatively as
        infeasible at that ε, so the result stays an upper bound.
    """
    for name, value in (("epsilon_max", epsilon_max), ("tolerance", tolerance)):
        if not (np.isfinite(value) and value > 0):
            raise ValidationError(f"{name} must be finite and > 0, got {value}")
    encoding = compiled_encoding.compile_pattern_encoding(
        compile_trees(roots), required, n_features, domain
    )
    calls = 0

    def feasible_at(epsilon: float):
        nonlocal calls
        calls += 1
        outcome = encoding.solve(center, float(epsilon), budget=solver_budget)
        return outcome.instance if outcome.is_sat else None

    witness = feasible_at(epsilon_max)
    if witness is None:
        return MinimalDistortion(feasible=False, solver_calls=calls)

    low, high = 0.0, float(epsilon_max)
    best_instance = witness
    while high - low > tolerance:
        middle = 0.5 * (low + high)
        candidate = feasible_at(middle)
        if candidate is not None:
            high = middle
            best_instance = candidate
        else:
            low = middle
    return MinimalDistortion(
        feasible=True, epsilon=high, instance=best_instance, solver_calls=calls
    )
