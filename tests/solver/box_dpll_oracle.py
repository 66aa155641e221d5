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

- :func:`solve_pattern_boxes` decides a :class:`repro.solver.PatternProblem`;
- :func:`bounds_box` is the closed feature bounds ``[lo, hi]`` as a box.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SolverError
from repro.solver import PatternOutcome, PatternProblem
from repro.trees.paths import Box

__all__ = ["solve_pattern_boxes", "bounds_box"]


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
    candidates = problem.candidate_boxes()
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
