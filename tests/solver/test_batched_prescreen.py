"""The batched prescreen against the single-row oracle, and ``solve_many``.

``_FlatScreen.propagate_many`` decides a whole stack of bounds at once:
rows leave the stack as they are refuted or settle, and an early pass
over the trees with the fewest boxes refutes before round 1.  None of
that may change a row's answer, so every row's refutation and fixpoint
bounds are compared with the one-row propagation of
``prescreen_oracle.py``, on the dispute encodings and on hand-built
edge cases.
"""

import numpy as np
import pytest
from dispute_models import ijcnn1_dispute, mnist26_dispute
from prescreen_oracle import propagate, screen_boxes

from repro.core import random_signature
from repro.ensemble import compile_trees
from repro.exceptions import ValidationError
from repro.solver import compile_pattern_encoding, compiled_encoding, required_labels
from repro.trees.node import InternalNode, Leaf


def _stump(feature=0, threshold=0.5):
    return InternalNode(feature, threshold, Leaf(-1), Leaf(+1))


def _assert_rows_match(screen, lo, hi):
    """Row by row, the batched box masks and counts (of the early pass
    and of round 1), refutations and fixpoint bounds are the oracle's;
    returns the number of rows refuted."""
    for table in (screen.early, screen):
        ok, kept = table.screen(table.stack(lo, hi))
        for row in range(lo.shape[0]):
            expected_ok, expected_kept = screen_boxes(table, lo[row], hi[row])
            assert np.array_equal(ok[:, row], expected_ok), row
            assert np.array_equal(kept[:, row], expected_kept), row
    refuted, tight_lo, tight_hi = screen.propagate_many(lo, hi)
    assert refuted.shape == (lo.shape[0],)
    assert tight_lo.shape == tight_hi.shape == lo.shape
    for row in range(lo.shape[0]):
        expected = propagate(screen, lo[row], hi[row])
        assert refuted[row] == (expected is None), row
        if expected is not None:
            assert np.array_equal(tight_lo[row], expected[0]), row
            assert np.array_equal(tight_hi[row], expected[1]), row
    return int(refuted.sum())


def _on_box_edges(table, rng, n_rows, n_features):
    """Per row, the closed region of a random box of ``table`` in the
    unit cube, pinned to the edge of one side: ``lo_f = hi_f = v`` for
    an upper constraint ``x_f <= v`` and ``lo_f = hi_f = nextafter(w)``
    for a lower one ``x_f > w``.  The box meets these bounds in one
    face, which a strict-for-loose slip in either test would miss."""
    lo, hi = np.zeros((n_rows, n_features)), np.ones((n_rows, n_features))
    for row, box in enumerate(rng.integers(table.tree_offsets[-1], size=n_rows)):
        upper, lower = table.upper_box == box, table.lower_box == box
        hi[row, table.upper_feature[upper]] = table.upper_value[upper]
        lo[row, table.lower_feature[lower]] = np.nextafter(table.lower_value[lower], 1)
        sides = np.concatenate([table.upper_feature[upper], table.lower_feature[lower]])
        if sides.size:
            side = rng.choice(sides)
            if rng.random() < 0.5:
                lo[row, side] = hi[row, side]
            else:
                hi[row, side] = lo[row, side]
    return lo, hi


def _encodings(dispute, fake_seed):
    model, X_test, _y_test = dispute()
    fake = random_signature(16, 0.5, random_state=fake_seed)
    for label in (-1, +1):
        yield compile_pattern_encoding(
            model.ensemble.compile(), required_labels(fake, label), X_test.shape[1]
        ), X_test


@pytest.mark.parametrize(
    "dispute, fake_seed",
    [(ijcnn1_dispute, 401), (mnist26_dispute, 301)],
    ids=["ijcnn1", "mnist26"],
)
def test_matches_single_row_oracle_on_dispute_encodings(dispute, fake_seed):
    rng = np.random.default_rng(fake_seed)
    refuted = total = 0
    for encoding, X_test in _encodings(dispute, fake_seed):
        for epsilon in (0.05, 0.1, 0.2, 0.3, 0.6):
            rows = X_test[rng.permutation(len(X_test))[:40]]
            refuted += _assert_rows_match(
                encoding.screen, *encoding.feature_bounds(rows, epsilon)
            )
            total += len(rows)
        # Random boxes anywhere in the unit cube, some of them thin.
        lo = rng.uniform(0.0, 1.0, (60, X_test.shape[1]))
        hi = lo + rng.uniform(0.0, 1.0, 60)[:, None] * rng.uniform(0.0, 1.0, lo.shape)
        hi = np.minimum(hi, 1.0)
        refuted += _assert_rows_match(encoding.screen, lo, hi)
        # Bounds on box edges, where ``<`` and ``<=`` part, for boxes of
        # the early pass's trees and of all trees.
        for table in (encoding.screen.early, encoding.screen):
            refuted += _assert_rows_match(
                encoding.screen, *_on_box_edges(table, rng, 60, X_test.shape[1])
            )
        total += 3 * len(lo)
    assert 0 < refuted < total


def test_early_pass_screens_the_smallest_trees():
    """The early table holds the trees with the fewest boxes, ties
    broken by tree order, with their boxes and constraints."""
    screen = next(_encodings(ijcnn1_dispute, 401))[0].screen
    sizes = np.diff(screen.tree_offsets)
    early = screen.early
    chosen = np.sort(np.argsort(sizes, kind="stable")[: compiled_encoding._EARLY_TREES])
    assert np.array_equal(np.diff(early.tree_offsets), sizes[chosen])
    assert sizes[chosen].max() <= np.delete(sizes, chosen).min()
    kept_in = np.isin(screen.box_tree[screen.upper_box], chosen)
    assert np.array_equal(early.upper_value, screen.upper_value[kept_in])
    assert np.array_equal(early.upper_feature, screen.upper_feature[kept_in])


def test_row_refuted_only_outside_the_early_set():
    """Eight one-box trees fill the early set; the ninth tree needs
    x0 > 0.5 in both its boxes, so only round 1 refutes [0.1, 0.4]."""
    wide = InternalNode(0, 0.5, Leaf(-1), InternalNode(1, 0.5, Leaf(+1), Leaf(+1)))
    roots = [Leaf(+1)] * 8 + [wide]
    encoding = compile_pattern_encoding(compile_trees(roots), [+1] * 9, 2)
    screen = encoding.screen
    assert screen.early.tree_offsets.tolist() == list(range(9))
    lo = np.array([[0.1, 0.0], [0.6, 0.0]])
    hi = np.array([[0.4, 1.0], [0.9, 1.0]])
    assert screen.early.screen(screen.early.stack(lo, hi))[1].all()
    assert _assert_rows_match(screen, lo, hi) == 1
    assert screen.propagate_many(lo, hi)[0].tolist() == [True, False]


def test_crossed_bounds_are_refuted_row_by_row():
    encoding = compile_pattern_encoding(compile_trees([_stump()]), [+1], 2)
    lo = np.array([[0.6, 0.2], [0.6, 0.5], [0.0, 0.0]])
    hi = np.array([[0.9, 0.4], [0.9, 0.4], [1.0, 1.0]])
    assert _assert_rows_match(encoding.screen, lo, hi) == 1
    assert encoding.screen.propagate_many(lo, hi)[0].tolist() == [False, True, False]


@pytest.mark.parametrize("position", [0, 4, 9])
def test_tree_without_boxes_refutes_every_row(position):
    roots = [_stump()] * 10
    roots[position] = InternalNode(0, 0.5, Leaf(-1), Leaf(-1))
    encoding = compile_pattern_encoding(compile_trees(roots), [+1] * 10, 1)
    assert np.diff(encoding.screen.tree_offsets)[position] == 0
    lo, hi = np.array([[0.0], [0.6]]), np.array([[1.0], [0.9]])
    assert _assert_rows_match(encoding.screen, lo, hi) == 2


def test_screen_without_hull_keys_passes_bounds_through():
    encoding = compile_pattern_encoding(compile_trees([Leaf(+1)] * 3), [+1] * 3, 2)
    assert encoding.screen.hulls.keys.size == 0
    lo = np.array([[0.2, 0.0], [0.5, 0.5]])
    hi = np.array([[0.7, 1.0], [0.5, 0.6]])
    assert _assert_rows_match(encoding.screen, lo, hi) == 0
    refuted, tight_lo, tight_hi = encoding.screen.propagate_many(lo, hi)
    assert np.array_equal(tight_lo, lo) and np.array_equal(tight_hi, hi)


def test_one_row_and_no_rows():
    screen = next(_encodings(mnist26_dispute, 301))[0].screen
    _model, X_test, _y_test = mnist26_dispute()
    lo, hi = np.clip(X_test[:1] - 0.3, 0, 1), np.clip(X_test[:1] + 0.3, 0, 1)
    _assert_rows_match(screen, lo, hi)
    single = screen.propagate(lo[0], hi[0])
    expected = propagate(screen, lo[0], hi[0])
    assert (single is None) == (expected is None)
    if single is not None:
        assert all(np.array_equal(a, b) for a, b in zip(single, expected))
    refuted, tight_lo, tight_hi = screen.propagate_many(lo[:0], hi[:0])
    assert refuted.shape == (0,) and tight_lo.shape == tight_hi.shape == (0, lo.shape[1])


def test_compatible_is_the_oracle_screen():
    screen = next(_encodings(ijcnn1_dispute, 401))[0].screen
    rng = np.random.default_rng(7)
    for _ in range(30):
        lo = rng.uniform(0.0, 1.0, screen.upper_feature.max() + 1)
        hi = lo + rng.uniform(0.0, 0.5, lo.size)
        ok, kept = screen_boxes(screen, lo, hi)
        got = screen.compatible(lo, hi)
        assert (got is None) == (not kept.all())
        if got is not None:
            assert np.array_equal(got, ok)


class TestSolveMany:
    def test_outcomes_equal_one_solve_each(self):
        model, X_test, y_test = mnist26_dispute()
        fake = random_signature(16, 0.5, random_state=301)
        required = required_labels(fake, +1)
        rows = X_test[:70]
        many = compile_pattern_encoding(
            model.ensemble.compile(), required, X_test.shape[1]
        )
        one = compile_pattern_encoding(model.ensemble.compile(), required, X_test.shape[1])
        seen = set()
        for center, outcome in zip(rows, many.solve_many(rows, 0.3, budget=2000)):
            expected = one.solve(center, 0.3, budget=2000)
            assert outcome.status == expected.status
            assert outcome.stats == expected.stats
            if expected.is_sat:
                assert np.array_equal(outcome.instance, expected.instance)
            seen.add(("trivial" in expected.stats, expected.status))
        assert (True, "unsat") in seen and (False, "sat") in seen

    def test_screens_one_chunk_at_a_time(self, monkeypatch):
        screened = []
        batched = compiled_encoding._FlatScreen.propagate_many

        def recording(self, lo, hi):
            screened.append(lo.shape[0])
            return batched(self, lo, hi)

        monkeypatch.setattr(compiled_encoding._FlatScreen, "propagate_many", recording)
        encoding = compile_pattern_encoding(compile_trees([_stump()]), [+1], 1)
        centers = np.linspace(0.0, 1.0, 150)[:, None]
        outcomes = encoding.solve_many(centers, 0.1)
        assert screened == []
        first = next(outcomes)
        assert screened == [compiled_encoding._SCREEN_CHUNK]
        rest = list(outcomes)
        assert screened == [64, 64, 22]
        statuses = [outcome.status for outcome in [first, *rest]]
        singles = [encoding.solve(center, 0.1).status for center in centers]
        assert statuses == singles

    def test_no_rows(self):
        encoding = compile_pattern_encoding(compile_trees([_stump()]), [+1], 1)
        assert list(encoding.solve_many(np.empty((0, 1)), 0.2)) == []

    @pytest.mark.parametrize(
        "centers, epsilon, budget, match",
        [
            ([[np.nan]], 0.3, None, "center must be finite"),
            ([[0.8, 0.1]], 0.3, None, r"shape \(1,\)"),
            ([0.8], 0.3, None, r"shape \(1,\)"),
            ([[0.8]], -0.1, None, "epsilon must be > 0"),
            ([[0.8]], None, None, "given together"),
            ([[0.8]], 0.3, -1, "budget"),
            ([[0.8]], 0.3, 2.5, "budget"),
        ],
    )
    def test_rejected_at_the_call_like_solve(self, centers, epsilon, budget, match):
        encoding = compile_pattern_encoding(compile_trees([_stump()]), [+1], 1)
        with pytest.raises(ValidationError, match=match):
            encoding.solve_many(centers, epsilon, budget)
