"""Tests for the compiled pattern encoding, the library's one forgery CNF.

Statuses are cross-checked against the independent box-DPLL oracle
(``box_dpll_oracle.py``); structure and model decoding are pinned on
hand-built stumps.
"""

import numpy as np
import pytest
from box_dpll_oracle import boxes_for_label, solve_pattern_boxes

from repro.core import random_signature
from repro.ensemble import compile_trees
from repro.exceptions import ValidationError
from repro.solver import (
    CompiledPatternEncoding,
    EncodingCache,
    PatternProblem,
    compile_pattern_encoding,
    compiled_encoding,
    minimal_forgery_distortion,
    required_labels,
    solve_pattern_smt,
)
from repro.trees.node import InternalNode, Leaf


def _stump(feature=0, threshold=0.5):
    return InternalNode(feature, threshold, Leaf(-1), Leaf(+1))


class TestCompiledStatuses:
    def test_matches_one_shot_engines_across_epsilons(self, bc_forest, bc_data):
        _, X_test, _, _ = bc_data
        signature = random_signature(bc_forest.n_trees_, random_state=21)
        required = required_labels(signature, +1)
        compiled = compile_pattern_encoding(
            bc_forest.compile(), required, bc_forest.n_features_in_
        )
        for i, epsilon in enumerate((0.05, 0.2, 0.5, 0.9)):
            center = X_test[i]
            problem = PatternProblem(
                roots=bc_forest.roots(),
                required=required,
                n_features=bc_forest.n_features_in_,
                center=center,
                epsilon=epsilon,
            )
            outcome = compiled.solve(center=center, epsilon=epsilon)
            assert outcome.status == solve_pattern_boxes(problem).status
            if outcome.is_sat:
                assert problem.check_solution(outcome.instance)

    def test_reuse_and_rebuild_identical_across_a_sweep(self, bc_forest, bc_data):
        _, X_test, _, _ = bc_data
        signature = random_signature(bc_forest.n_trees_, random_state=22)
        required = required_labels(signature, -1)
        compiled = compile_pattern_encoding(
            bc_forest.compile(), required, bc_forest.n_features_in_
        )
        # One persistent solver across the sweep vs a freshly compiled
        # encoding (hence a fresh solver) per instance.
        for i in range(6):
            reused = compiled.solve(center=X_test[i], epsilon=0.4)
            rebuilt = compile_pattern_encoding(
                bc_forest.compile(), required, bc_forest.n_features_in_
            ).solve(center=X_test[i], epsilon=0.4)
            assert reused.status == rebuilt.status
            if reused.is_sat:
                assert np.array_equal(reused.instance, rebuilt.instance)

    def test_budget_caps_conflicts_and_none_is_the_default(self, bc_forest):
        """``budget=None``, the default, is an unlimited search — as in
        :class:`SATSolver` — and ``budget=0`` stops at the first conflict."""
        encoding = compile_pattern_encoding(compile_trees([_stump()]), [+1], 1)
        center = np.array([0.8])
        assert encoding.solve(center=center, epsilon=0.3, budget=7).is_sat
        assert encoding._solver.max_conflicts == 7
        assert encoding.solve(center=center, epsilon=0.3).is_sat
        assert encoding._solver.max_conflicts is None
        # A pattern whose proof needs conflicts (3 on this forest).
        signature = random_signature(bc_forest.n_trees_, random_state=2)
        hard = compile_pattern_encoding(
            bc_forest.compile(),
            required_labels(signature, -1),
            bc_forest.n_features_in_,
        )
        unlimited = hard.solve()
        assert unlimited.is_sat and unlimited.stats["conflicts"] > 0
        assert hard.solve(budget=0).status == "unknown"
        assert np.array_equal(hard.solve(budget=None).instance, unlimited.instance)

    @pytest.mark.parametrize("budget", [-1, -200_000])
    def test_negative_budget_rejected(self, budget):
        encoding = compile_pattern_encoding(compile_trees([_stump()]), [+1], 1)
        with pytest.raises(ValidationError, match="budget"):
            encoding.solve(center=np.array([0.8]), epsilon=0.3, budget=budget)
        problem = PatternProblem(roots=[_stump()], required=[+1], n_features=1)
        with pytest.raises(ValidationError, match="budget"):
            solve_pattern_smt(problem, max_conflicts=budget)


#: Queries ``PatternProblem`` rejects: (build kwargs, solve kwargs, message).
_INVALID_QUERIES = {
    "nan-center": ({}, {"center": [np.nan], "epsilon": 0.3}, "center must be finite"),
    "nan-epsilon": ({}, {"center": [0.8], "epsilon": np.nan}, "epsilon must be > 0"),
    "center-shape": ({}, {"center": [0.8, 0.1], "epsilon": 0.3}, r"shape \(1,\)"),
    "negative-epsilon": ({}, {"center": [0.8], "epsilon": -0.1}, "epsilon must be > 0"),
    "center-only": ({}, {"center": [0.8]}, "given together"),
    "epsilon-only": ({}, {"epsilon": 0.3}, "given together"),
    "empty-domain": ({"domain": (1.0, 0.0)}, {}, "empty domain"),
    "no-trees": ({"roots": [], "required": []}, {}, "at least one tree"),
}


class TestInputValidation:
    @pytest.mark.parametrize(
        "build, query, match", _INVALID_QUERIES.values(), ids=_INVALID_QUERIES.keys()
    )
    def test_rejected_like_pattern_problem(self, build, query, match):
        """The compiled encoding and ``PatternProblem`` share one check:
        before it, a NaN ball raised an "encoding bug" SolverError, a
        negative ε or an empty domain answered ``unsat``, and a center
        without ε or an empty ensemble answered ``sat``."""
        build = {"roots": [_stump()], "required": [+1], "n_features": 1, **build}
        with pytest.raises(ValidationError, match=match):
            PatternProblem(**build, **query)
        with pytest.raises(ValidationError, match=match):
            roots = build.pop("roots")
            compile_pattern_encoding(compile_trees(roots), **build).solve(**query)


_NARROW_ENTRY_POINTS = {
    "compiled": lambda roots: compile_pattern_encoding(
        compile_trees(roots), [+1], n_features=1
    ),
    "cache": lambda roots: EncodingCache(compile_trees(roots), 1).for_required([+1]),
    "one-shot": lambda roots: solve_pattern_smt(
        PatternProblem(roots, [+1], n_features=1)
    ),
    "distortion": lambda roots: minimal_forgery_distortion(
        roots, [+1], np.array([0.5]), n_features=1
    ),
}


@pytest.mark.parametrize(
    "entry", _NARROW_ENTRY_POINTS.values(), ids=_NARROW_ENTRY_POINTS
)
def test_query_narrower_than_its_trees_rejected(entry):
    """A stump on feature 1 cannot be queried with one feature; this
    used to fail with a bare ``IndexError``."""
    with pytest.raises(ValidationError, match="split on feature 1"):
        entry([_stump(feature=1)])


class TestCompiledStructure:
    def test_always_unsat_without_required_leaves(self):
        all_negative = InternalNode(0, 0.5, Leaf(-1), Leaf(-1))
        encoding = compile_pattern_encoding(compile_trees([all_negative]), [+1], 1)
        assert encoding.screen.tree_offsets.tolist() == [0, 0]
        outcome = encoding.solve()
        assert outcome.is_unsat
        assert outcome.stats["trivial"] is True

    def test_prescreen_detects_ball_incompatibility(self):
        encoding = compile_pattern_encoding(compile_trees([_stump()]), [+1], 1)
        # +1 needs x > 0.5; the ball [0.0, 0.2] keeps no compatible box.
        outcome = encoding.solve(center=np.array([0.1]), epsilon=0.1)
        assert outcome.is_unsat
        assert outcome.stats["trivial"] is True

    def test_atoms_shared_across_trees(self):
        encoding = compile_pattern_encoding(
            compile_trees([_stump(), _stump()]), [+1, +1], 1
        )
        assert len(encoding.atom_vars) == 1
        assert encoding.atom_features.shape == (1,)

    def test_bound_assumptions_match_bound_units(self):
        # Atoms at 0.3 and 0.7; bounds [0.4, 0.6] decide both: the 0.3
        # atom is forced false, the 0.7 atom forced true.
        encoding = compile_pattern_encoding(
            compile_trees([_stump(0, 0.3), _stump(0, 0.7)]), [+1, +1], 1
        )
        lo, hi = np.array([0.4]), np.array([0.6])
        literals = encoding.bound_assumptions(lo, hi)
        var_03 = encoding.atom_vars[(0, 0.3)]
        var_07 = encoding.atom_vars[(0, 0.7)]
        assert set(literals) == {-var_03, var_07}

    def test_ordering_axioms_present(self):
        # Two thresholds on one feature: the skeleton holds the chain
        # clause (x <= 0.3) -> (x <= 0.7).
        encoding = compile_pattern_encoding(
            compile_trees([_stump(0, 0.3), _stump(0, 0.7)]), [+1, +1], 1
        )
        small = encoding.atom_vars[(0, 0.3)]
        large = encoding.atom_vars[(0, 0.7)]
        assert [-small, large] in encoding.cnf.clauses

    def test_encoding_size_scales_with_leaves(self, bc_forest, forge_problem):
        encoding = compile_pattern_encoding(
            forge_problem.engine, forge_problem.required, forge_problem.n_features
        )
        assert encoding.cnf.n_vars > bc_forest.n_trees_
        assert len(encoding.cnf) > 0

    def test_mismatched_required_length_rejected(self):
        with pytest.raises(ValidationError, match="required"):
            compile_pattern_encoding(compile_trees([_stump()]), [+1, -1], 1)

    def test_domain_none_supported(self):
        encoding = compile_pattern_encoding(
            compile_trees([_stump()]), [-1], 1, domain=None
        )
        outcome = encoding.solve()
        assert outcome.is_sat
        assert outcome.instance[0] <= 0.5


class TestDecoding:
    """A model decodes to the point of its atom intervals nearest the
    center, inside the ball and strictly above each false atom."""

    def test_decode_produces_consistent_instance(self):
        problem = PatternProblem(
            roots=[_stump(0, 0.5), _stump(1, 0.2)], required=[+1, -1], n_features=2
        )
        outcome = solve_pattern_smt(problem)
        assert outcome.is_sat
        assert problem.check_solution(outcome.instance)

    def test_decode_prefers_center(self):
        encoding = compile_pattern_encoding(compile_trees([_stump(0, 0.5)]), [+1], 2)
        outcome = encoding.solve(center=np.array([0.8, 0.33]), epsilon=0.3)
        # Feature 0 already exceeds 0.5 at the center; feature 1 is
        # unconstrained by the trees: the witness is the center itself.
        assert outcome.instance.tolist() == [0.8, 0.33]

    def test_strict_lower_bound_is_the_next_float(self):
        # +1 needs x0 > 0.5; from the center 0.3 the nearest such point
        # is the float just above 0.5, not 0.5 itself.
        encoding = compile_pattern_encoding(compile_trees([_stump(0, 0.5)]), [+1], 1)
        outcome = encoding.solve(center=np.array([0.3]), epsilon=0.3)
        assert outcome.instance[0] == np.nextafter(0.5, np.inf)

    def test_ball_decides_atoms_and_witness_stays_inside(self):
        # The ball [0.8, 1.0] forces the 0.5 atom false: x0 > 0.5 holds
        # by assumption, and the witness is the center.
        encoding = compile_pattern_encoding(compile_trees([_stump(0, 0.5)]), [+1], 1)
        lo, hi = encoding.feature_bounds(np.array([0.9]), 0.1)
        assert encoding.bound_assumptions(lo, hi) == [-encoding.atom_vars[(0, 0.5)]]
        outcome = encoding.solve(center=np.array([0.9]), epsilon=0.1)
        assert outcome.is_sat and outcome.instance.tolist() == [0.9]


def _candidates(roots, required):
    """Per tree, the oracle walk's leaf boxes carrying the required label."""
    return [boxes_for_label(root, label) for root, label in zip(roots, required)]


def _compatible_masks(encoding, lo, hi):
    """The flat screen's mask split per tree; ``None`` passes through."""
    ok = encoding.screen.compatible(lo, hi)
    return None if ok is None else np.split(ok, encoding.screen.tree_offsets[1:-1])


def _per_tree_masks(roots, required, lo, hi):
    """Reference prescreen: one tree at a time, one box at a time.  A
    box is compatible when every upper threshold is >= lo and every
    lower threshold is < hi; ``None`` once a tree keeps no box."""
    masks = []
    for boxes in _candidates(roots, required):
        mask = np.array(
            [
                all(v >= lo[f] for f, v in box.upper.items())
                and all(v < hi[f] for f, v in box.lower.items())
                for box in boxes
            ],
            dtype=bool,
        )
        if not mask.any():
            return None
        masks.append(mask)
    return masks


def _assert_same_masks(got, expected):
    if expected is None:
        assert got is None
        return
    assert got is not None and len(got) == len(expected)
    for mask, reference in zip(got, expected):
        assert mask.dtype == bool and np.array_equal(mask, reference)


class TestFlatPrescreen:
    """The one-pass screen over all trees equals the per-tree loop."""

    def test_matches_per_tree_loop_on_random_bounds(self, bc_forest):
        rng = np.random.default_rng(31)
        n_features = bc_forest.n_features_in_
        outcomes = {"none": 0, "masks": 0}
        for draw in range(4):
            signature = random_signature(bc_forest.n_trees_, random_state=40 + draw)
            for label in (-1, +1):
                required = required_labels(signature, label)
                encoding = compile_pattern_encoding(
                    bc_forest.compile(), required, n_features
                )
                for width in (0.02, 0.1, 0.3, 0.6, 1.0):
                    for _ in range(10):
                        lo = rng.uniform(0.0, 1.0, n_features)
                        hi = lo + rng.uniform(0.0, width, n_features)
                        expected = _per_tree_masks(bc_forest.roots(), required, lo, hi)
                        _assert_same_masks(_compatible_masks(encoding, lo, hi), expected)
                        outcomes["none" if expected is None else "masks"] += 1
        assert outcomes["none"] and outcomes["masks"]

    def test_single_leaf_tree_keeps_its_unconstrained_box(self):
        roots = [Leaf(+1), _stump(), Leaf(+1)]
        encoding = compile_pattern_encoding(compile_trees(roots), [+1, +1, +1], 1)
        lo, hi = np.array([0.6]), np.array([0.9])
        masks = _compatible_masks(encoding, lo, hi)
        _assert_same_masks(masks, _per_tree_masks(roots, [+1, +1, +1], lo, hi))
        assert [mask.tolist() for mask in masks] == [[True], [True], [True]]
        # The stump's box needs x > 0.5: these bounds rule it out.
        assert _compatible_masks(encoding, np.array([0.1]), np.array([0.4])) is None

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_tree_without_candidates_screens_out(self, position):
        """A tree with no box for its label is an empty segment of the
        flat table, wherever it sits — never its neighbour's box."""
        roots = [Leaf(+1), _stump(), Leaf(+1)]
        roots[position] = InternalNode(0, 0.5, Leaf(-1), Leaf(-1))
        encoding = compile_pattern_encoding(compile_trees(roots), [+1, +1, +1], 1)
        assert _candidates(roots, [+1, +1, +1])[position] == []
        for lo, hi in ((0.0, 1.0), (0.6, 0.9), (0.1, 0.4)):
            bounds = np.array([lo]), np.array([hi])
            assert _per_tree_masks(roots, [+1, +1, +1], *bounds) is None
            assert _compatible_masks(encoding, *bounds) is None


#: Thresholds of the random trees: a coarse grid, so trees share
#: thresholds and ball edges land on them.
_GRID = (0.2, 0.35, 0.5, 0.65, 0.8)


def _random_tree(rng, n_features, depth):
    if depth == 0 or rng.random() < 0.2:
        return Leaf(int(rng.choice([-1, 1])))
    return InternalNode(
        int(rng.integers(n_features)),
        float(rng.choice(_GRID)),
        _random_tree(rng, n_features, depth - 1),
        _random_tree(rng, n_features, depth - 1),
    )


def _random_query(rng):
    """Random trees, pattern, ball and domain, as ``PatternProblem`` kwargs."""
    n_features = int(rng.integers(1, 4))
    roots = [
        _random_tree(rng, n_features, int(rng.integers(0, 5)))
        for _ in range(int(rng.integers(1, 7)))
    ]
    query = {
        "roots": roots,
        "required": [int(rng.choice([-1, 1])) for _ in roots],
        "n_features": n_features,
        "domain": None if rng.random() < 0.2 else (0.0, 1.0),
    }
    if rng.random() < 0.85:
        query["center"] = rng.choice(_GRID + (0.1, 0.9), n_features)
        query["epsilon"] = float(rng.choice([0.05, 0.15, 0.3, 0.45]))
    return query


class TestBoundPropagation:
    """The fixpoint only refutes what is unsatisfiable, and refutes at
    least what the single screen does."""

    def test_refutations_are_oracle_unsat(self):
        rng = np.random.default_rng(2024)
        seen = {"screen": 0, "fixpoint only": 0, "survivor": 0}
        for _ in range(600):
            query = _random_query(rng)
            problem = PatternProblem(**query)
            encoding = compile_pattern_encoding(
                problem.engine, problem.required, problem.n_features, problem.domain
            )
            lo, hi = problem.feature_bounds()
            oracle = solve_pattern_boxes(problem).status
            tightened = encoding.screen.propagate(lo, hi)
            if encoding.screen.compatible(lo, hi) is None:
                assert tightened is None
                seen["screen"] += 1
            elif tightened is None:
                seen["fixpoint only"] += 1
            else:
                seen["survivor"] += 1
                assert (lo <= tightened[0]).all() and (tightened[1] <= hi).all()
            if tightened is None:
                assert oracle == "unsat"
            outcome = encoding.solve(problem.center, problem.epsilon)
            assert outcome.status == oracle
        assert all(seen.values()), seen

    def test_two_trees_only_the_fixpoint_refutes(self):
        # Each tree alone fits the unit box; together they need
        # x0 <= 0.4 and x0 > 0.6.
        roots = [_stump(0, 0.4), InternalNode(0, 0.6, Leaf(+1), Leaf(-1))]
        encoding = compile_pattern_encoding(compile_trees(roots), [-1, -1], 1)
        lo, hi = np.array([0.0]), np.array([1.0])
        assert encoding.screen.compatible(lo, hi) is not None
        assert encoding.screen.propagate(lo, hi) is None
        outcome = encoding.solve()
        assert outcome.is_unsat and outcome.stats == {"trivial": True}

    def test_fixpoint_takes_several_rounds(self):
        # Tree 0 ties x1 to x0: its +1 boxes are x0 <= 0.5, x1 <= 0.2
        # and x0 > 0.5, x1 > 0.8.  Tree 1 needs x0 > 0.5; the first
        # round lifts that into x0's bounds, tree 0 loses its left box,
        # and only the second round bounds x1 from below.
        left = InternalNode(1, 0.2, Leaf(+1), Leaf(-1))
        right = InternalNode(1, 0.8, Leaf(-1), Leaf(+1))
        roots = [InternalNode(0, 0.5, left, right), _stump(0, 0.5)]
        encoding = compile_pattern_encoding(compile_trees(roots), [+1, +1], 2)
        lo, hi = np.zeros(2), np.ones(2)
        tightened = encoding.screen.propagate(lo, hi)
        assert tightened[0].tolist() == [np.nextafter(0.5, 1), np.nextafter(0.8, 1)]
        assert tightened[1].tolist() == [1.0, 1.0]
        # Tree 2 (+1 where x0 <= 0.5 or x1 <= 0.8) bounds x1 above by
        # 0.8 once the first round takes its left box: refuted in the
        # second round, though every tree keeps boxes in the first.
        low_x1 = InternalNode(1, 0.8, Leaf(+1), Leaf(-1))
        roots.append(InternalNode(0, 0.5, Leaf(+1), low_x1))
        encoding = compile_pattern_encoding(compile_trees(roots), [+1] * 3, 2)
        assert encoding.screen.compatible(lo, hi) is not None
        assert encoding.screen.propagate(lo, hi) is None
        assert encoding.solve().is_unsat

    def test_strict_bound_is_the_next_float(self):
        # One tree needs x0 <= 0.5, the other x0 > 0.5: the lower bound
        # becomes nextafter(0.5), which is above 0.5.
        roots = [_stump(0, 0.5), _stump(0, 0.5)]
        encoding = compile_pattern_encoding(compile_trees(roots), [-1, +1], 1)
        assert encoding.screen.propagate(np.array([0.0]), np.array([1.0])) is None
        # The next float itself is reachable: the bound is not tighter.
        above = np.nextafter(0.5, 1)
        single = compile_pattern_encoding(compile_trees([_stump(0, 0.5)]), [+1], 1)
        lo, hi = single.screen.propagate(np.array([0.0]), np.array([above]))
        assert lo.tolist() == [above] and hi.tolist() == [above]
        outcome = single.solve(center=np.array([0.5]), epsilon=above - 0.5)
        assert outcome.is_sat and outcome.instance.tolist() == [above]

    def test_single_leaf_trees_and_a_side_without_constraints(self):
        # Only upper constraints exist, and the single leaves add none.
        roots = [Leaf(+1), _stump(0, 0.5), Leaf(+1)]
        encoding = compile_pattern_encoding(compile_trees(roots), [+1, -1, +1], 2)
        lo, hi = encoding.screen.propagate(np.zeros(2), np.ones(2))
        assert lo.tolist() == [0.0, 0.0] and hi.tolist() == [0.5, 1.0]
        # No constraints on either side: the bounds pass through.
        leaves = compile_pattern_encoding(compile_trees([Leaf(+1)] * 2), [+1, +1], 1)
        lo, hi = leaves.screen.propagate(np.array([0.2]), np.array([0.7]))
        assert lo.tolist() == [0.2] and hi.tolist() == [0.7]

    @pytest.mark.parametrize(
        "root, expected_lo, expected_hi",
        [
            (_stump(0, 0.5), [np.nextafter(0.5, 1), -np.inf], [np.inf, np.inf]),
            (Leaf(+1), [-np.inf, -np.inf], [np.inf, np.inf]),
            # +1 boxes x0 <= 0.3 and x0 > 0.7: neither side is covered.
            (
                InternalNode(0, 0.3, Leaf(+1), _stump(0, 0.7)),
                [-np.inf, -np.inf],
                [np.inf, np.inf],
            ),
        ],
        ids=["lower", "leaf", "uncovered"],
    )
    def test_domain_none_keeps_infinite_bounds(self, root, expected_lo, expected_hi):
        """Without a domain, a side no tree bounds stays infinite rather
        than becoming the finite ``nextafter(-inf)``."""
        encoding = compile_pattern_encoding(
            compile_trees([root]), [+1], 2, domain=None
        )
        lo, hi = encoding.screen.propagate(*encoding.feature_bounds(None, None))
        assert lo.tolist() == expected_lo and hi.tolist() == expected_hi
        assert encoding.solve().is_sat

    def test_domain_none_upper_bound(self):
        encoding = compile_pattern_encoding(
            compile_trees([_stump(0, 0.5)]), [-1], 1, domain=None
        )
        lo, hi = encoding.screen.propagate(*encoding.feature_bounds(None, None))
        assert lo.tolist() == [-np.inf] and hi.tolist() == [0.5]


class TestEncodingCache:
    def test_same_pattern_returns_same_object(self, bc_forest):
        cache = EncodingCache(bc_forest.compile(), bc_forest.n_features_in_)
        signature = random_signature(bc_forest.n_trees_, random_state=23)
        first = cache.for_required(required_labels(signature, +1))
        again = cache.for_required(required_labels(signature, +1))
        other = cache.for_required(required_labels(signature, -1))
        assert first is again
        assert other is not first

    def test_warm_prebuilds_persistent_solver(self):
        encoding = compile_pattern_encoding(compile_trees([_stump()]), [+1], 1)
        assert encoding._solver is None
        encoding.warm()
        solver = encoding._solver
        assert solver is not None
        encoding.warm()
        assert encoding._solver is solver  # idempotent
        assert encoding.solve(center=np.array([0.8]), epsilon=0.3).is_sat


class TestLazySkeleton:
    def test_skeleton_waits_for_the_first_survivor(self):
        encoding = compile_pattern_encoding(compile_trees([_stump()]), [+1], 1)
        assert encoding._skeleton is None
        refuted = encoding.solve(center=np.array([0.2]), epsilon=0.1)
        assert refuted.stats == {"trivial": True}
        assert encoding._skeleton is None and encoding._solver is None
        assert encoding.solve(center=np.array([0.8]), epsilon=0.3).is_sat
        skeleton = encoding._skeleton
        assert skeleton is not None and encoding.cnf is skeleton.cnf
        assert encoding.solve(center=np.array([0.7]), epsilon=0.3).is_sat
        assert encoding._skeleton is skeleton  # kept

    def test_reading_an_attribute_builds_the_skeleton_without_a_solver(self):
        encoding = compile_pattern_encoding(compile_trees([_stump()]), [+1], 1)
        assert encoding.atom_vars == {(0, 0.5): 2}
        assert encoding.cnf.n_vars == 2 and encoding._solver is None

    def test_skeleton_is_built_inside_warm_wrapped_by_name(self, monkeypatch):
        """A profiler that wraps ``CompiledPatternEncoding.warm`` by
        name counts the skeleton build as the warm-up's own time."""
        depth = []
        inside_warm = []
        warm = CompiledPatternEncoding.warm
        encode = compiled_encoding._encode_skeleton

        def wrapped_warm(self):
            depth.append(1)
            try:
                return warm(self)
            finally:
                depth.pop()

        def recording_encode(screen):
            inside_warm.append(bool(depth))
            return encode(screen)

        monkeypatch.setattr(CompiledPatternEncoding, "warm", wrapped_warm)
        monkeypatch.setattr(compiled_encoding, "_encode_skeleton", recording_encode)
        encoding = compile_pattern_encoding(compile_trees([_stump()]), [+1], 1)
        assert encoding.solve(center=np.array([0.2]), epsilon=0.1).status == "unsat"
        assert inside_warm == []
        assert encoding.solve(center=np.array([0.8]), epsilon=0.3).is_sat
        assert encoding.solve(center=np.array([0.7]), epsilon=0.3).is_sat
        assert inside_warm == [True]
