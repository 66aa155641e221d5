"""Shared fixtures.

Expensive artefacts (trained forests, watermarked models, forged
trigger sets, solver problems) are session-scoped so the suite stays
fast; tests must treat them as read-only.  That contract is *enforced*:
the fitted-model fixtures register a serialised snapshot with
``fixture_guard``, and the guard re-serialises them at session teardown
— any test that mutated a shared model fails the whole session loudly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import EmbeddingSchedule, TrainerConfig, TriggerPolicy, Watermarker
from repro.attacks import forge_trigger_set
from repro.core import random_signature
from repro.datasets import breast_cancer_like, ijcnn1_like, mnist26_like
from repro.ensemble import RandomForestClassifier
from repro.model_selection import train_test_split
from repro.persistence import forest_to_dict
from repro.solver import PatternProblem, required_labels

BASE_PARAMS = {"max_depth": 8, "min_samples_leaf": 1}

# The reference implementations kept with the tests — the box-DPLL
# solver (``tests/solver/box_dpll_oracle.py``), the single-row bound
# propagation (``tests/solver/prescreen_oracle.py``), the paper's literal
# embedding loop (``tests/core/full_retrain_oracle.py``), the
# object-graph ``predict_proba`` walk (``tests/trees/object_graph_oracle.py``)
# and the node-dict writers of earlier releases
# (``tests/persistence/legacy_node_dicts.py``) — and the dispute models
# (``tests/core/dispute_models.py``) are imported by module name from
# every test directory.
for _oracle_dir in ("solver", "core", "trees", "persistence"):
    sys.path.insert(0, str(Path(__file__).resolve().parent / _oracle_dir))


@pytest.fixture(scope="session")
def bc_data():
    """Small breast-cancer stand-in split (deterministic)."""
    ds = breast_cancer_like(260, random_state=11)
    return train_test_split(ds.X, ds.y, test_size=0.3, random_state=12)


@pytest.fixture(scope="session")
def ij_data():
    """Small ijcnn1 stand-in split (imbalanced)."""
    ds = ijcnn1_like(500, random_state=13)
    return train_test_split(ds.X, ds.y, test_size=0.3, random_state=14)


@pytest.fixture(scope="session")
def mnist_data():
    """Tiny mnist26 stand-in split (high-dimensional)."""
    ds = mnist26_like(160, random_state=15)
    return train_test_split(ds.X, ds.y, test_size=0.3, random_state=16)


# -- fixture-immutability guard -----------------------------------------


def _forest_state(forest: RandomForestClassifier) -> str:
    """Canonical serialised state of a fitted forest (no compiled cache)."""
    return json.dumps(forest_to_dict(forest), sort_keys=True)


@pytest.fixture(scope="session")
def fixture_guard():
    """Registry asserting shared fixtures come out as they went in.

    Fixtures call ``register(name, obj, snapshot_fn)`` right after
    building their artefact.  Because this fixture is a dependency of
    theirs it tears down *after* them — at session end — and re-runs
    every snapshot function, failing if any test mutated a shared
    model in place.
    """
    registry: list[tuple] = []  # (name, baseline, snapshot_fn, obj)

    def register(name, obj, snapshot_fn):
        registry.append((name, snapshot_fn(obj), snapshot_fn, obj))

    yield register

    mutated = [
        name
        for name, baseline, snapshot_fn, obj in registry
        if snapshot_fn(obj) != baseline
    ]
    assert not mutated, (
        f"session-scoped fixtures mutated by the test run: {mutated} — "
        "tests must treat shared models as read-only (clone via "
        "with_roots or refit instead)"
    )


@pytest.fixture(scope="session")
def bc_forest(bc_data, fixture_guard):
    """A standard (non-watermarked) forest on the bc split."""
    X_train, _X_test, y_train, _y_test = bc_data
    forest = RandomForestClassifier(
        n_estimators=9,
        max_depth=8,
        tree_feature_fraction=0.6,
        random_state=17,
    )
    forest.fit(X_train, y_train)
    fixture_guard("bc_forest", forest, _forest_state)
    return forest


@pytest.fixture(scope="session")
def wm_model(bc_data, fixture_guard):
    """A watermarked model on the bc split (m=10, 50% ones)."""
    X_train, _X_test, y_train, _y_test = bc_data
    signature = random_signature(10, ones_fraction=0.5, random_state=18)
    model = Watermarker(
        signature=signature,
        trigger=TriggerPolicy(size=6),
        schedule=EmbeddingSchedule(escalation_factor=2.0),
        trainer=TrainerConfig(base_params=BASE_PARAMS, tree_feature_fraction=0.6),
        random_state=19,
    ).fit(X_train, y_train)

    def state(m):
        return json.dumps(
            {
                "ensemble": forest_to_dict(m.ensemble),
                "signature": list(m.signature),
                "trigger_X": m.trigger.X.tolist(),
                "trigger_y": m.trigger.y.tolist(),
            },
            sort_keys=True,
        )

    fixture_guard("wm_model", model, state)
    return model


# -- shared solver / attack artefacts ------------------------------------


@pytest.fixture(scope="session")
def forge_problem(bc_forest):
    """A ready-made pattern problem over ``bc_forest`` (read-only).

    Solver test modules share this instead of re-deriving the same
    problem per test; it carries no ball constraint so individual tests
    can clone-and-restrict via ``dataclasses.replace``.
    """
    signature = random_signature(bc_forest.n_trees_, random_state=0)
    return PatternProblem(
        roots=bc_forest.roots(),
        required=required_labels(signature, +1),
        n_features=bc_forest.n_features_in_,
    )


@pytest.fixture(scope="session")
def forged_result(wm_model, bc_data):
    """One completed forgery run against ``wm_model`` (read-only).

    A generous ε so the run actually forges instances; attack tests
    assert properties of this single shared result instead of each
    re-running the solver sweep.
    """
    _, X_test, _, y_test = bc_data
    fake = random_signature(len(wm_model.signature), random_state=50)
    result = forge_trigger_set(
        wm_model.ensemble,
        fake,
        X_test,
        y_test,
        epsilon=0.8,
        max_instances=15,
        random_state=51,
    )
    return fake, result


@pytest.fixture()
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)
