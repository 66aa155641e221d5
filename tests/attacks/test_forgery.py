"""Tests for the forgery attack driver."""

import numpy as np
import pytest
from box_dpll_oracle import solve_pattern_boxes

from repro.attacks import forge_trigger_set, forgery_distortion
from repro.core import random_signature
from repro.exceptions import ValidationError
from repro.solver import (
    PatternProblem,
    SATSolver,
    compile_pattern_encoding,
    required_labels,
)

#: Counts that are not integers: (call, keyword arguments).  Before,
#: ``max_instances=2.5`` died with a bare ``TypeError``, ``True`` counted
#: as 1, and a NaN budget meant an unbounded search.
_NON_INTEGER_COUNTS = {
    "max_instances-fraction": ("forge", {"max_instances": 2.5}),
    "max_instances-bool": ("forge", {"max_instances": True}),
    "target_size-fraction": ("forge", {"target_size": 2.5}),
    "target_size-bool": ("forge", {"target_size": True}),
    "solver_budget-bool": ("forge", {"solver_budget": True}),
    "solver_budget-fraction": ("forge", {"solver_budget": 2.5}),
    "solver_budget-nan": ("forge", {"solver_budget": float("nan")}),
    "solve-budget-bool": ("solve", {"budget": True}),
    "solve-budget-fraction": ("solve", {"budget": 2.5}),
    "solve-budget-nan": ("solve", {"budget": float("nan")}),
}


class TestForgeTriggerSet:
    def test_forged_instances_realise_fake_pattern(self, wm_model, bc_data, forged_result):
        _, X_test, _, y_test = bc_data
        fake, result = forged_result
        assert result.n_attempted <= 15
        if result.n_forged:
            predictions = wm_model.ensemble.predict_all(result.forged_X)
            bits = fake.as_array()[:, None]
            labels = y_test[result.source_index][None, :]
            required = np.where(bits == 0, labels, -labels)
            assert np.array_equal(predictions, required)

    def test_forged_instances_respect_epsilon(self, bc_data, forged_result):
        _, X_test, _, _ = bc_data
        _, result = forged_result
        if result.n_forged:
            deltas = np.abs(result.forged_X - X_test[result.source_index])
            assert deltas.max() <= result.epsilon + 1e-6

    def test_small_epsilon_mostly_fails(self, wm_model, bc_data):
        """The paper's claim: forging inside small balls around real
        instances rarely succeeds on tabular data."""
        _, X_test, _, y_test = bc_data
        fake = random_signature(len(wm_model.signature), random_state=54)
        result = forge_trigger_set(
            wm_model.ensemble,
            fake,
            X_test,
            y_test,
            epsilon=0.05,
            max_instances=12,
            random_state=55,
        )
        assert result.n_forged <= result.n_attempted * 0.5

    def test_target_size_stops_early(self, wm_model, bc_data):
        _, X_test, _, y_test = bc_data
        fake = random_signature(len(wm_model.signature), random_state=56)
        result = forge_trigger_set(
            wm_model.ensemble,
            fake,
            X_test,
            y_test,
            epsilon=0.9,
            target_size=1,
            random_state=57,
        )
        if result.n_forged:
            assert result.n_forged == 1
            assert result.n_attempted <= X_test.shape[0]

    def test_engines_agree_on_counts(self, wm_model, bc_data):
        """Every attempt's status equals the box-DPLL oracle's."""
        _, X_test, _, y_test = bc_data
        fake = random_signature(len(wm_model.signature), random_state=58)
        result = forge_trigger_set(
            wm_model.ensemble, fake, X_test, y_test,
            epsilon=0.7, max_instances=8, random_state=59,
        )
        oracle = {"sat": 0, "unsat": 0, "unknown": 0}
        for row in np.random.default_rng(59).permutation(len(y_test))[:8]:
            problem = PatternProblem(
                roots=wm_model.ensemble.roots(),
                required=required_labels(fake, int(y_test[row])),
                n_features=X_test.shape[1],
                center=X_test[row],
                epsilon=0.7,
            )
            oracle[solve_pattern_boxes(problem).status] += 1
        assert result.statuses == oracle
        assert result.n_forged == oracle["sat"]

    def test_statuses_recorded(self, forged_result):
        _, result = forged_result
        assert sum(result.statuses.values()) == result.n_attempted

    def test_validation(self, wm_model, bc_data):
        _, X_test, _, y_test = bc_data
        good = random_signature(len(wm_model.signature), random_state=62)
        with pytest.raises(ValidationError, match="bits"):
            forge_trigger_set(
                wm_model.ensemble,
                random_signature(3, random_state=0),
                X_test,
                y_test,
                epsilon=0.5,
            )
        with pytest.raises(ValidationError, match="epsilon"):
            forge_trigger_set(wm_model.ensemble, good, X_test, y_test, epsilon=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_instances": -1},
            {"max_instances": -150},
            {"target_size": -3},
            {"solver_budget": -5},
        ],
    )
    def test_negative_counts_rejected(self, wm_model, bc_data, kwargs):
        """A negative count used to slice or stop the sweep silently (and
        a negative budget acted as 0, reporting attempts as unknown)."""
        _, X_test, _, y_test = bc_data
        fake = random_signature(len(wm_model.signature), random_state=62)
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            forge_trigger_set(
                wm_model.ensemble, fake, X_test, y_test, epsilon=0.5, **kwargs
            )

    @pytest.mark.parametrize(
        "call, kwargs", _NON_INTEGER_COUNTS.values(), ids=_NON_INTEGER_COUNTS.keys()
    )
    def test_non_integer_counts_rejected(self, wm_model, bc_data, call, kwargs):
        _, X_test, _, y_test = bc_data
        fake = random_signature(len(wm_model.signature), random_state=62)
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            if call == "forge":
                forge_trigger_set(
                    wm_model.ensemble, fake, X_test, y_test, epsilon=0.5, **kwargs
                )
            else:
                compile_pattern_encoding(
                    wm_model.ensemble.compile(),
                    required_labels(fake, +1),
                    X_test.shape[1],
                ).solve(center=X_test[0], epsilon=0.5, **kwargs)

    def test_numpy_integer_counts_accepted(self, wm_model, bc_data):
        _, X_test, _, y_test = bc_data
        fake = random_signature(len(wm_model.signature), random_state=62)
        result = forge_trigger_set(
            wm_model.ensemble, fake, X_test, y_test, epsilon=0.5,
            target_size=np.int32(50), max_instances=np.int64(3),
            solver_budget=np.int64(1000),
        )
        assert result.n_attempted == 3

    def test_none_budget_is_two_hundred_thousand_conflicts(
        self, wm_model, bc_data, monkeypatch
    ):
        """``solver_budget=None`` keeps its documented meaning here, while
        ``CompiledPatternEncoding.solve(budget=None)`` is unlimited:
        every solver search the call runs is capped at 200,000
        conflicts.  The budget is read where the search starts, so an
        attempt the prescreen refutes records none."""
        _, X_test, _, y_test = bc_data
        budgets = []
        original = SATSolver.solve

        def recording(self, assumptions=None):
            budgets.append(self.max_conflicts)
            return original(self, assumptions)

        monkeypatch.setattr(SATSolver, "solve", recording)
        fake = random_signature(len(wm_model.signature), random_state=63)
        result = forge_trigger_set(
            wm_model.ensemble, fake, X_test, y_test, epsilon=0.9,
            max_instances=3, solver_budget=None,
        )
        assert result.n_attempted == 3
        assert 1 <= len(budgets) <= 3
        assert budgets == [200_000] * len(budgets)

    @pytest.mark.parametrize("width", [5, 60])
    def test_wrong_width_rejected(self, wm_model, bc_data, width):
        """Too few columns used to die with an IndexError deep in the
        solver; too many forged rows in a space the forest never saw."""
        _, X_test, _, y_test = bc_data
        fake = random_signature(len(wm_model.signature), random_state=62)
        X = np.resize(X_test, (X_test.shape[0], width))
        with pytest.raises(ValidationError, match="features"):
            forge_trigger_set(wm_model.ensemble, fake, X, y_test, epsilon=0.5)


class TestForgeryDistortion:
    def test_empty_result(self, wm_model, bc_data):
        _, X_test, _, y_test = bc_data
        fake = random_signature(len(wm_model.signature), random_state=63)
        result = forge_trigger_set(
            wm_model.ensemble, fake, X_test, y_test, epsilon=0.011,
            max_instances=2, random_state=64,
        )
        if result.n_forged == 0:
            stats = forgery_distortion(result, X_test)
            assert stats["mean_linf"] == 0.0

    def test_distortion_bounded_by_epsilon(self, bc_data, forged_result):
        _, X_test, _, _ = bc_data
        _, result = forged_result
        if result.n_forged:
            stats = forgery_distortion(result, X_test)
            assert 0.0 <= stats["mean_linf"] <= stats["max_linf"] <= result.epsilon + 1e-6
            assert stats["mean_l2"] >= stats["mean_linf"] - 1e-9  # L2 >= Linf
            assert 0.0 <= stats["moved_fraction"] <= 1.0
