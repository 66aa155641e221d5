"""Determinism contract of the forgery engine.

``forge_trigger_set`` must return bitwise-identical ``forged_X``,
``source_index`` and ``statuses`` for a fixed seed regardless of

- worker count (``n_jobs`` ∈ {None, 2, 4}),
- encoding reuse: the attack's cached encoding and persistent solver
  must agree with a freshly compiled encoding per instance (the
  reference replay below) — within one call and across calls, since
  encodings are kept per forest between calls (ε sweeps, many fake
  signatures with eviction, serial then forked calls, refits, threads),
- the ``target_size`` early-stop path (parallel waves must consume
  results in serial attempt order and discard speculative surplus).

These tests are the executable form of the contract documented in
``docs/architecture.md``.
"""

from __future__ import annotations

import copy
import sys
import threading

import numpy as np
import pytest

from repro.attacks import forge_trigger_set
from repro.core import random_signature
from repro.datasets import ijcnn1_like
from repro.ensemble import RandomForestClassifier, compile_trees
from repro.persistence import load, save
from repro.solver import compile_pattern_encoding, compiled_encoding, required_labels


def _fingerprint(result):
    return (
        result.n_attempted,
        result.forged_X.tobytes(),
        result.forged_X.shape,
        tuple(int(i) for i in result.source_index),
        tuple(sorted(result.statuses.items())),
    )


def _fresh_replay(ensemble, fake, X_test, y_test, epsilon, max_instances,
                  random_state, budget=100_000):
    """The attack's serial loop with a freshly compiled encoding (and so
    a fresh solver) for every instance — the reference for reuse."""
    order = np.random.default_rng(random_state).permutation(X_test.shape[0])
    order = order[:max_instances]
    forged, sources = [], []
    statuses = {"sat": 0, "unsat": 0, "unknown": 0}
    for row in order:
        encoding = compile_pattern_encoding(
            compile_trees(ensemble.roots()),
            required_labels(fake, int(y_test[row])),
            X_test.shape[1],
        )
        outcome = encoding.solve(center=X_test[row], epsilon=epsilon, budget=budget)
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


class TestLoadedForest:
    @pytest.mark.parametrize("mmap_mode", [None, "r"], ids=["buffered", "mmap"])
    def test_loaded_forest_forges_alike_and_stays_lazy(
        self, forge_setup, tmp_path, mmap_mode
    ):
        """Forgery reads the loaded node table; the object trees are
        never rebuilt."""
        ensemble, fake, X_test, y_test = forge_setup
        path = tmp_path / "forest.rfbin"
        save(ensemble, path)
        loaded = load(path, mmap_mode=mmap_mode)
        kwargs = {"epsilon": 0.3, "max_instances": 12, "random_state": 77}
        result = forge_trigger_set(loaded, fake, X_test, y_test, **kwargs)
        expected = forge_trigger_set(ensemble, fake, X_test, y_test, **kwargs)
        assert _fingerprint(result) == _fingerprint(expected)
        assert result.statuses["sat"] and result.statuses["unsat"]
        assert loaded._trees_ is None


def _count_compiles(monkeypatch) -> list:
    """Record every encoding compiled through the module-level name."""
    calls: list = []
    original = compiled_encoding.compile_pattern_encoding

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(compiled_encoding, "compile_pattern_encoding", counting)
    return calls


class TestEncodingReuseAcrossCalls:
    """Encodings outlive a call; every call still equals the replay."""

    def test_epsilon_sweep_equals_fresh_replay(self, forge_setup):
        ensemble, fake, X_test, y_test = forge_setup
        for epsilon in (0.3, 0.6, 0.9):
            result = forge_trigger_set(
                ensemble, fake, X_test, y_test,
                epsilon=epsilon, max_instances=8, random_state=76,
            )
            assert _fingerprint(result) == _fresh_replay(
                ensemble, fake, X_test, y_test, epsilon, 8, 76
            )

    def test_epsilon_sweep_compiles_once_per_label(self, forge_setup, monkeypatch):
        ensemble, fake, X_test, y_test = forge_setup
        ensemble = copy.deepcopy(ensemble)  # no encodings cached yet
        calls = _count_compiles(monkeypatch)
        for epsilon in (0.3, 0.6, 0.9):
            forge_trigger_set(
                ensemble, fake, X_test, y_test,
                epsilon=epsilon, max_instances=12, random_state=77,
            )
        order = np.random.default_rng(77).permutation(len(y_test))[:12]
        labels = np.unique(y_test[order])
        assert len(labels) == 2
        assert sorted(calls) == sorted(required_labels(fake, int(y)) for y in labels)

    def test_driver_order_with_eviction_equals_fresh_replay(
        self, forge_setup, monkeypatch
    ):
        """ε outer, signatures inner, more patterns than one forest keeps."""
        ensemble, _, X_test, y_test = forge_setup
        n_fakes = compiled_encoding._MAX_PATTERNS // 2 + 1
        fakes = [
            random_signature(ensemble.n_trees_, random_state=200 + i)
            for i in range(n_fakes)
        ]
        calls = _count_compiles(monkeypatch)
        for epsilon in (0.5, 0.8):
            for i, fake in enumerate(fakes):
                result = forge_trigger_set(
                    ensemble, fake, X_test, y_test,
                    epsilon=epsilon, max_instances=4, random_state=300 + i,
                )
                assert _fingerprint(result) == _fresh_replay(
                    ensemble, fake, X_test, y_test, epsilon, 4, 300 + i
                )
        patterns = {tuple(required) for required in calls}
        assert len(patterns) > compiled_encoding._MAX_PATTERNS
        assert len(calls) > len(patterns)  # evicted patterns were rebuilt

    def test_forked_call_after_serial_call(self, forge_setup):
        """Forked workers inherit solvers the serial call left dirty."""
        ensemble, fake, X_test, y_test = forge_setup
        for n_jobs in (None, 2):
            result = forge_trigger_set(
                ensemble, fake, X_test, y_test,
                epsilon=0.7, max_instances=10, random_state=78, n_jobs=n_jobs,
            )
            assert _fingerprint(result) == _fresh_replay(
                ensemble, fake, X_test, y_test, 0.7, 10, 78
            )

    def test_refit_trees_recompiles(self, forge_setup, bc_data):
        ensemble, fake, X_test, y_test = forge_setup
        X_train, _, y_train, _ = bc_data
        ensemble = copy.deepcopy(ensemble)
        before = forge_trigger_set(
            ensemble, fake, X_test, y_test,
            epsilon=0.7, max_instances=10, random_state=79,
        )
        ensemble.refit_trees(range(ensemble.n_trees_), X_train, y_train)
        after = forge_trigger_set(
            ensemble, fake, X_test, y_test,
            epsilon=0.7, max_instances=10, random_state=79,
        )
        replay = _fresh_replay(ensemble, fake, X_test, y_test, 0.7, 10, 79)
        assert _fingerprint(after) == replay
        assert _fingerprint(before) != replay

    def test_ensemble_without_weakrefs_compiles_per_call(
        self, forge_setup, monkeypatch
    ):
        ensemble, fake, X_test, y_test = forge_setup

        class Unreferenceable:
            __slots__ = ("n_trees_", "n_features_in_", "compile")

        stolen = Unreferenceable()
        stolen.n_trees_ = ensemble.n_trees_
        stolen.n_features_in_ = ensemble.n_features_in_
        stolen.compile = ensemble.compile
        calls = _count_compiles(monkeypatch)
        for _ in range(2):
            result = forge_trigger_set(
                stolen, fake, X_test, y_test,
                epsilon=0.6, max_instances=12, random_state=77,
            )
            assert _fingerprint(result) == _fresh_replay(
                ensemble, fake, X_test, y_test, 0.6, 12, 77
            )
        assert len(calls) == 4  # two labels, twice: nothing was kept

    def test_concurrent_threads_on_one_forest(self, forge_setup):
        """Each thread gets its own solvers while another holds the
        forest's cache; every result equals its serial one."""
        ensemble, fake, X_test, y_test = forge_setup
        seeds = (80, 81, 82, 83)

        def forge(seed):
            return _fingerprint(forge_trigger_set(
                ensemble, fake, X_test, y_test, epsilon=0.7, random_state=seed,
            ))

        expected = {seed: forge(seed) for seed in seeds}
        results: dict = {}
        errors: list = []
        start = threading.Barrier(len(seeds))

        def work(seed):
            try:
                start.wait(timeout=60)
                results[seed] = forge(seed)
            except Exception as exc:  # reported below, in the test thread
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert results == expected


@pytest.fixture(scope="module")
def tall_narrow():
    """A forest on tall narrow (ijcnn1-like) data.  Its prescreen refutes
    every one of the first 40 attempts at ε = 0.05, and leaves attempts
    of both labels open at ε = 0.5."""
    data = ijcnn1_like(400, random_state=91)
    forest = RandomForestClassifier(
        n_estimators=16, max_depth=8, tree_feature_fraction=0.35, random_state=92
    ).fit(data.X[:300], data.y[:300])
    return forest, random_signature(16, random_state=93), data.X[300:], data.y[300:]


def _count_builds(monkeypatch) -> dict:
    """Count the clause skeletons and SAT solvers this process builds."""
    built = {"skeleton": 0, "solver": 0}
    encode = compiled_encoding._encode_skeleton

    def counting_encode(screen):
        built["skeleton"] += 1
        return encode(screen)

    class CountingSolver(compiled_encoding.SATSolver):
        def __init__(self, *args, **kwargs):
            built["solver"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(compiled_encoding, "_encode_skeleton", counting_encode)
    monkeypatch.setattr(compiled_encoding, "SATSolver", CountingSolver)
    return built


class TestLazySkeleton:
    """The clause skeleton waits for the first attempt the prescreen
    leaves open, and the lazily built one gives the same results."""

    def test_refuted_sweep_builds_no_skeleton_and_no_solver(
        self, tall_narrow, monkeypatch
    ):
        forest, fake, X_test, y_test = tall_narrow
        built = _count_builds(monkeypatch)
        result = forge_trigger_set(
            copy.deepcopy(forest), fake, X_test, y_test, epsilon=0.05,
            max_instances=40, random_state=94,
        )
        assert result.statuses == {"sat": 0, "unsat": 40, "unknown": 0}
        assert built == {"skeleton": 0, "solver": 0}

    def test_first_survivor_builds_skeleton_once_per_pattern(
        self, tall_narrow, monkeypatch
    ):
        forest, fake, X_test, y_test = tall_narrow
        forest = copy.deepcopy(forest)
        built = _count_builds(monkeypatch)
        results = {}
        for epsilon in (0.05, 0.5, 0.3):
            results[epsilon] = forge_trigger_set(
                forest, fake, X_test, y_test, epsilon=epsilon,
                max_instances=40, random_state=94,
            )
            if epsilon == 0.05:
                assert built == {"skeleton": 0, "solver": 0}
        assert built == {"skeleton": 2, "solver": 2}
        for epsilon, result in results.items():
            assert _fingerprint(result) == _fresh_replay(
                forest, fake, X_test, y_test, epsilon, 40, 94
            )


def test_forked_sweep_builds_no_solver_in_the_parent(tall_narrow, monkeypatch):
    """Before forking, the parent compiles encodings and builds their
    skeletons, but no SAT solver: workers build their own on the first
    attempt the prescreen leaves open.  On tall narrow (ijcnn1-like)
    data it refutes nearly every attempt, so a solver built up front
    would mostly serve nobody.  Each wave forks a new pool, so a
    skeleton built in a worker would be rebuilt every wave."""
    forest, fake, X_test, y_test = tall_narrow
    built = _count_builds(monkeypatch)
    forked = forge_trigger_set(
        copy.deepcopy(forest), fake, X_test, y_test, epsilon=0.1,
        max_instances=40, random_state=94, n_jobs=2,
    )
    assert built == {"skeleton": 2, "solver": 0}
    serial = forge_trigger_set(
        copy.deepcopy(forest), fake, X_test, y_test, epsilon=0.1,
        max_instances=40, random_state=94,
    )
    assert _fingerprint(forked) == _fingerprint(serial)
