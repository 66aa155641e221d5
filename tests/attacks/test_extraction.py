"""Tests for the model-extraction (surrogate) attack, run through the registry."""

import numpy as np
import pytest

from repro.api import AttackTarget, make_attack
from repro.exceptions import ValidationError
from repro.experiments import run_scenario_matrix
from repro.experiments.config import SMALL


def _target(model, X_pool, X_test, y_test):
    """A target whose attacker pool is ``X_pool``; the pool's labels are
    garbage, since extraction must never read them."""
    return AttackTarget(
        model=model,
        X_train=X_pool,
        y_train=np.zeros(X_pool.shape[0], dtype=np.int64),
        X_test=X_test,
        y_test=y_test,
    )


class TestExtractSurrogate:
    def test_surrogate_mimics_victim(self, wm_model, bc_data):
        X_train, X_test, _, y_test = bc_data
        target = _target(wm_model, X_train, X_test, y_test)
        report = make_attack("extract", query_budget=X_train.shape[0]).run(
            target, np.random.default_rng(0)
        )
        assert report.details["agreement"] > 0.75
        assert report.cost["queries"] == X_train.shape[0]

    def test_surrogate_never_sees_true_labels(self, wm_model):
        # Train the surrogate on victim answers over *random noise*
        # queries: it still fits those answers, demonstrating the
        # attack needs only black-box access.
        victim = wm_model.ensemble
        X_noise = np.random.default_rng(1).uniform(size=(300, victim.n_features_in_))
        labels = victim.predict(X_noise)
        if len(np.unique(labels)) < 2:
            pytest.skip("victim answered noise with a single class")
        # Scoring the surrogate on its own queries, against the victim's
        # answers, measures how well it fits them.
        target = _target(wm_model, X_noise, X_noise, labels)
        report = make_attack("extract", query_budget=300).run(
            target, np.random.default_rng(2)
        )
        assert report.attacked_accuracy > 0.9

    def test_single_class_answers_rejected(self, wm_model, bc_data):
        # Queries taken from deep inside one class region.
        _, X_test, _, y_test = bc_data
        X_one_sided = np.zeros((20, wm_model.ensemble.n_features_in_))
        if len(np.unique(wm_model.ensemble.predict(X_one_sided))) > 1:
            pytest.skip("victim not single-class on this probe")
        target = _target(wm_model, X_one_sided, X_test, y_test)
        with pytest.raises(ValidationError, match="one class"):
            make_attack("extract", query_budget=20).run(
                target, np.random.default_rng(0)
            )


class TestExtractionStudy:
    def test_watermark_does_not_transfer(self, wm_model, bc_data):
        """The key security observation: surrogates break per-tree
        alignment, so the watermark does not survive extraction."""
        target = AttackTarget.from_split(wm_model, bc_data)
        report = make_attack("extract", query_budget=120).run(
            target, np.random.default_rng(3)
        )
        assert not report.watermark_accepted
        assert report.watermark_match_rate < 1.0
        assert report.succeeded

    def test_more_queries_help_fidelity(self, wm_model, bc_data):
        target = AttackTarget.from_split(wm_model, bc_data)
        few, many = (
            make_attack("extract", query_budget=budget).run(
                target, np.random.default_rng(4)
            )
            for budget in (30, 150)
        )
        assert many.details["agreement"] >= few.details["agreement"] - 0.1

    def test_budget_exceeding_pool_rejected(self, wm_model, bc_data):
        X_train = bc_data[0]
        target = AttackTarget.from_split(wm_model, bc_data)
        attack = make_attack("extract", query_budget=X_train.shape[0] + 1)
        with pytest.raises(ValidationError, match="pool"):
            attack.run(target, np.random.default_rng(0))


def _extraction_sweep(budgets) -> dict:
    """Cells of an extract sweep on the SMALL breast-cancer target, keyed by
    budget, with wall-clock timings dropped."""
    cells = run_scenario_matrix(
        SMALL, ["extract"], strengths={"extract": budgets}, datasets=("breast-cancer",)
    )
    swept = {}
    for cell in cells:
        view = cell.to_dict()
        del view["report"]["cost"]["elapsed_seconds"]
        swept[cell.strength] = view
    return swept


class TestSweepCellIndependence:
    """Regression for the shared-RNG-across-cells bug class: one
    generator threaded through a budget sweep made every cell depend on
    which budgets ran before it.  Every strength of a scenario-matrix
    sweep restarts from its cell's seed, so sweeps are order-invariant
    and each cell matches a standalone run."""

    def test_cell_matches_standalone_run(self):
        assert _extraction_sweep((60, 120))[120.0] == _extraction_sweep((120,))[120.0]

    def test_sweep_order_invariance(self):
        assert _extraction_sweep((60, 120)) == _extraction_sweep((120, 60))
