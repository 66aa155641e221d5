"""Differential fuzzing of the pattern solvers.

The compiled encoding (:mod:`repro.solver.compiled_encoding`), the
library's one forgery engine, and the box-DPLL oracle
(``box_dpll_oracle.py``) are independent implementations of the same
decision procedure.  They are cross-checked on hundreds of seeded
random :class:`PatternProblem` instances with varying tree counts, depths,
``ε`` budgets and required-label patterns.  On every decided instance
the engines must agree — a disagreement means one of them is buggy and
fails the suite with the offending seed in the assertion message.
Every ``sat`` witness is additionally replayed through the ensemble's
real prediction path (``predict_all``, i.e. the compiled inference
engine) and must realise the required per-tree pattern exactly.

The compiled encoding's persistent (reset) solver must also be
bit-identical to the one-shot form, which compiles the same instance
afresh.  Random forgeries against a real watermarked forest complete
the set.
"""

from __future__ import annotations

import numpy as np
import pytest
from box_dpll_oracle import solve_pattern_boxes

from repro.core import random_signature
from repro.ensemble import RandomForestClassifier, compile_trees
from repro.solver import (
    PatternProblem,
    compile_pattern_encoding,
    required_labels,
    solve_pattern_smt,
)
from repro.trees.node import InternalNode, Leaf

N_CASES = 220
MASTER_SEED = 20250729

#: Thresholds drawn from a coarse grid so distinct trees share atoms —
#: the interesting regime for the ordering axioms and bound units.
THRESHOLD_GRID = np.linspace(0.1, 0.9, 9)


def _random_tree(rng: np.random.Generator, n_features: int, depth: int):
    """A random (possibly unbalanced) decision tree over [0, 1]^d."""
    if depth == 0 or rng.random() < 0.2:
        return Leaf(int(rng.choice([-1, 1])))
    feature = int(rng.integers(n_features))
    threshold = float(rng.choice(THRESHOLD_GRID))
    return InternalNode(
        feature,
        threshold,
        _random_tree(rng, n_features, depth - 1),
        _random_tree(rng, n_features, depth - 1),
    )


def _random_problem(rng: np.random.Generator) -> PatternProblem:
    n_trees = int(rng.integers(1, 6))
    n_features = int(rng.integers(1, 5))
    depth = int(rng.integers(1, 5))
    roots = [_random_tree(rng, n_features, depth) for _ in range(n_trees)]
    required = [int(label) for label in rng.choice([-1, 1], size=n_trees)]
    if rng.random() < 0.75:
        center = rng.uniform(size=n_features)
        epsilon = float(rng.choice([0.05, 0.1, 0.2, 0.4, 0.7, 0.95]))
    else:
        center, epsilon = None, None
    return PatternProblem(
        roots=roots,
        required=required,
        n_features=n_features,
        center=center,
        epsilon=epsilon,
    )


@pytest.fixture(scope="module")
def replay_forests():
    """Fitted forests (per tree count) whose roots get swapped per case.

    ``with_roots`` grafts each fuzz case's hand-built trees onto a real
    fitted forest, so the witness replay exercises the actual
    ``predict_all`` path (compiled inference engine included).
    """
    rng = np.random.default_rng(7)
    X = rng.uniform(size=(40, 5))
    y = np.where(rng.random(40) < 0.5, -1, 1)
    y[0], y[1] = -1, 1  # both classes present
    forests = {}
    for n_trees in range(1, 6):
        forests[n_trees] = RandomForestClassifier(
            n_estimators=n_trees, max_depth=2, random_state=n_trees
        ).fit(X, y)
    return forests


class TestEngineDifferential:
    def test_engines_never_disagree_and_sat_models_replay(self, replay_forests):
        rng = np.random.default_rng(MASTER_SEED)
        case_seeds = rng.integers(2**31 - 1, size=N_CASES)
        decided = 0
        sat_cases = 0
        for seed in case_seeds:
            case_rng = np.random.default_rng(int(seed))
            problem = _random_problem(case_rng)

            boxes = solve_pattern_boxes(problem, max_nodes=None)
            compiled = compile_pattern_encoding(
                problem.engine, problem.required, problem.n_features, problem.domain
            )
            compiled.solve(center=problem.center, epsilon=problem.epsilon)
            # The second solve runs on the reset persistent solver; the
            # one-shot form compiles afresh and must give the same answer.
            reused = compiled.solve(center=problem.center, epsilon=problem.epsilon)
            fresh = solve_pattern_smt(problem, max_conflicts=None)

            assert reused.status == boxes.status, (
                f"engine disagreement on seed {int(seed)}: "
                f"compiled {reused.status}, boxes {boxes.status}"
            )
            decided += 1
            # Solver reuse must not even change the witness bit for bit.
            assert fresh.status == reused.status
            if reused.is_sat:
                assert np.array_equal(reused.instance, fresh.instance), (
                    f"solver reuse changed the witness on seed {int(seed)}"
                )

            if reused.is_sat:
                sat_cases += 1
                forest = replay_forests[len(problem.roots)].with_roots(problem.roots)
                for outcome in (boxes, reused):
                    witness = outcome.instance
                    assert problem.check_solution(witness), (
                        f"non-verifying witness on seed {int(seed)}"
                    )
                    # Pad the witness into the replay forest's feature
                    # space (hand-built trees only read the first
                    # problem.n_features coordinates).
                    padded = np.zeros((1, forest.n_features_in_))
                    padded[0, : problem.n_features] = witness
                    replayed = forest.predict_all(padded)[:, 0]
                    assert np.array_equal(replayed, np.asarray(problem.required)), (
                        f"sat model does not replay through predict_all on "
                        f"seed {int(seed)}"
                    )

        assert decided == N_CASES
        # The generator must exercise both verdicts, not fuzz one branch.
        assert 0 < sat_cases < N_CASES

    def test_agreement_on_random_forgeries(self, wm_model, bc_data):
        _, X_test, _, y_test = bc_data
        roots = wm_model.ensemble.roots()
        rng = np.random.default_rng(2)
        for _ in range(10):
            signature = random_signature(
                wm_model.ensemble.n_trees_, random_state=int(rng.integers(1e9))
            )
            row = int(rng.integers(X_test.shape[0]))
            problem = PatternProblem(
                roots=roots,
                required=required_labels(signature, int(y_test[row])),
                n_features=X_test.shape[1],
                center=X_test[row],
                epsilon=float(rng.uniform(0.1, 0.9)),
            )
            boxes = solve_pattern_boxes(problem)
            compiled = compile_pattern_encoding(
                compile_trees(roots), problem.required, problem.n_features
            ).solve(center=problem.center, epsilon=problem.epsilon)
            one_shot = solve_pattern_smt(problem)
            assert compiled.status == boxes.status == one_shot.status
            assert compiled.status in ("sat", "unsat")
            for outcome in (boxes, compiled):
                if outcome.is_sat:
                    assert problem.check_solution(outcome.instance)
            if compiled.is_sat:
                assert np.array_equal(compiled.instance, one_shot.instance)
