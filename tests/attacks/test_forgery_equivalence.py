"""Determinism contract of the forgery engine.

``forge_trigger_set`` must return bitwise-identical ``forged_X``,
``source_index`` and ``statuses`` for a fixed seed regardless of

- worker count (``n_jobs`` ∈ {None, 2, 4}),
- encoding reuse: the attack's cached encoding and persistent solver
  must agree with a freshly compiled encoding per instance (the
  reference replay below), and
- the ``target_size`` early-stop path (parallel waves must consume
  results in serial attempt order and discard speculative surplus).

These tests are the executable form of the contract documented in
``docs/architecture.md``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import forge_trigger_set
from repro.core import random_signature
from repro.solver import compile_pattern_encoding, required_labels


def _fingerprint(result):
    return (
        result.n_attempted,
        result.forged_X.tobytes(),
        result.forged_X.shape,
        tuple(int(i) for i in result.source_index),
        tuple(sorted(result.statuses.items())),
    )


def _fresh_replay(ensemble, fake, X_test, y_test, epsilon, max_instances,
                  random_state, engine="smt", budget=100_000):
    """The attack's serial loop with a freshly compiled encoding (and so
    a fresh solver) for every instance — the reference for reuse."""
    order = np.random.default_rng(random_state).permutation(X_test.shape[0])
    order = order[:max_instances]
    forged, sources = [], []
    statuses = {"sat": 0, "unsat": 0, "unknown": 0}
    for row in order:
        encoding = compile_pattern_encoding(
            ensemble.roots(), required_labels(fake, int(y_test[row])), X_test.shape[1]
        )
        outcome = encoding.solve(
            center=X_test[row], epsilon=epsilon, engine=engine, budget=budget
        )
        statuses[outcome.status] += 1
        if outcome.is_sat:
            forged.append(outcome.instance)
            sources.append(int(row))
    return (
        len(order),
        np.stack(forged).tobytes() if forged else b"",
        (len(forged), X_test.shape[1]),
        tuple(sources),
        tuple(sorted(statuses.items())),
    )


@pytest.fixture(scope="module")
def forge_setup(wm_model, bc_data):
    _, X_test, _, y_test = bc_data
    fake = random_signature(len(wm_model.signature), random_state=70)
    return wm_model.ensemble, fake, X_test, y_test


class TestForgeDeterminism:
    @pytest.mark.parametrize("n_jobs", [None, 2, 4])
    def test_bitwise_identical_across_jobs_and_reuse(self, forge_setup, n_jobs):
        ensemble, fake, X_test, y_test = forge_setup
        result = forge_trigger_set(
            ensemble, fake, X_test, y_test,
            epsilon=0.6, max_instances=10, random_state=71, n_jobs=n_jobs,
        )
        assert _fingerprint(result) == _fresh_replay(
            ensemble, fake, X_test, y_test, 0.6, 10, 71
        )

    @pytest.mark.parametrize("n_jobs", [None, 2, 4])
    def test_target_size_early_stop_is_deterministic(self, forge_setup, n_jobs):
        ensemble, fake, X_test, y_test = forge_setup
        baseline = forge_trigger_set(
            ensemble, fake, X_test, y_test,
            epsilon=0.8, target_size=2, random_state=72,
        )
        other = forge_trigger_set(
            ensemble, fake, X_test, y_test,
            epsilon=0.8, target_size=2, random_state=72, n_jobs=n_jobs,
        )
        assert _fingerprint(other) == _fingerprint(baseline)
        if baseline.n_forged:
            assert baseline.n_forged <= 2
            # Early stop means the attempt count stops at the decisive
            # instance, not at the end of the test set.
            assert baseline.n_attempted <= X_test.shape[0]

    def test_boxes_engine_parallel_equivalence(self, forge_setup):
        ensemble, fake, X_test, y_test = forge_setup
        serial = forge_trigger_set(
            ensemble, fake, X_test, y_test,
            epsilon=0.6, max_instances=8, engine="boxes", random_state=73,
        )
        parallel = forge_trigger_set(
            ensemble, fake, X_test, y_test,
            epsilon=0.6, max_instances=8, engine="boxes", random_state=73,
            n_jobs=2,
        )
        assert _fingerprint(parallel) == _fingerprint(serial)

    def test_portfolio_engine_reuse_equivalence(self, forge_setup):
        ensemble, fake, X_test, y_test = forge_setup
        compiled = forge_trigger_set(
            ensemble, fake, X_test, y_test,
            epsilon=0.6, max_instances=6, engine="portfolio", random_state=74,
        )
        assert _fingerprint(compiled) == _fresh_replay(
            ensemble, fake, X_test, y_test, 0.6, 6, 74, engine="portfolio"
        )

    def test_forged_instances_still_verify(self, forge_setup):
        ensemble, fake, X_test, y_test = forge_setup
        result = forge_trigger_set(
            ensemble, fake, X_test, y_test,
            epsilon=0.7, max_instances=10, random_state=75, n_jobs=2,
        )
        if result.n_forged:
            predictions = ensemble.predict_all(result.forged_X)
            bits = fake.as_array()[:, None]
            labels = y_test[result.source_index][None, :]
            required = np.where(bits == 0, labels, -labels)
            assert np.array_equal(predictions, required)
