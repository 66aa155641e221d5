"""Tests for watermark creation (Algorithm 1)."""

import contextlib

import numpy as np
import pytest
from dispute_models import dispute_model
from full_retrain_oracle import literal_loop, misfit_mask, train_with_trigger_full
from legacy_node_dicts import node_to_dict

from repro.api import EmbeddingSchedule, TrainerConfig, TriggerPolicy, Watermarker
from repro.core import Signature, random_signature, train_with_trigger, verify_ownership
from repro.datasets import ijcnn1_like
from repro.ensemble import RandomForestClassifier, compiled
from repro.exceptions import ConvergenceError, ValidationError
from repro.trees import growth, splitter
from repro.trees.presort import presort_cache_stats

BASE_PARAMS = {"max_depth": 8, "min_samples_leaf": 1}
ESCALATING = EmbeddingSchedule(escalation_factor=2.0)


def _watermark(X, y, signature, trigger_size, random_state, **trainer):
    """Embed with the escalating schedule and ``BASE_PARAMS`` by default."""
    trainer.setdefault("base_params", BASE_PARAMS)
    return Watermarker(
        signature=signature,
        trigger=TriggerPolicy(size=trigger_size),
        schedule=ESCALATING,
        trainer=TrainerConfig(**trainer),
        random_state=random_state,
    ).fit(X, y)


class TestTrainWithTrigger:
    def test_all_trees_fit_trigger(self, bc_data):
        X_train, _, y_train, _ = bc_data
        trigger_indices = np.array([0, 5, 10])
        forest, rounds, weight = train_with_trigger(
            X_train,
            y_train,
            trigger_indices,
            n_estimators=4,
            params=BASE_PARAMS,
            random_state=0,
        )
        predictions = forest.predict_all(X_train[trigger_indices])
        assert (predictions == y_train[trigger_indices][None, :]).all()
        assert rounds >= 0
        assert weight >= 1.0

    def test_flipped_labels_fit(self, bc_data):
        X_train, _, y_train, _ = bc_data
        trigger_indices = np.array([1, 7])
        y_flipped = y_train.copy()
        y_flipped[trigger_indices] = -y_flipped[trigger_indices]
        forest, _, _ = train_with_trigger(
            X_train,
            y_flipped,
            trigger_indices,
            n_estimators=3,
            params=BASE_PARAMS,
            schedule=ESCALATING,
            random_state=1,
        )
        predictions = forest.predict_all(X_train[trigger_indices])
        assert (predictions == y_flipped[trigger_indices][None, :]).all()

    @pytest.mark.parametrize("incremental", [True, False])
    def test_convergence_error_when_impossible(self, rng, incremental):
        # Two identical instances with opposite required labels cannot
        # both be fitted by any tree — neither by the library's loop nor
        # by the literal full-retrain oracle.
        X = rng.uniform(size=(40, 3))
        X[1] = X[0]
        y = rng.choice([-1, 1], size=40)
        y[0], y[1] = 1, -1
        train = train_with_trigger if incremental else train_with_trigger_full
        with pytest.raises(ConvergenceError) as excinfo:
            train(
                X,
                y,
                np.array([0, 1]),
                n_estimators=2,
                params=BASE_PARAMS,
                schedule=EmbeddingSchedule(max_rounds=3),
                random_state=2,
            )
        assert excinfo.value.rounds == 3

    def test_escalation_schedule_weights(self, bc_data):
        # The final trigger weight is a pure function of the failed-round
        # count: additive (1 + rounds) by default, geometric (2^rounds)
        # at escalation_factor=2.
        X_train, _, y_train, _ = bc_data
        trigger_indices = np.arange(8)
        y_flipped = y_train.copy()
        y_flipped[trigger_indices] = -y_flipped[trigger_indices]
        # Shallow trees cannot isolate eight flipped triggers in one
        # round, forcing the re-weighting schedule to actually run.
        params = {"max_depth": 3, "min_samples_leaf": 1}

        _, rounds_add, weight_add = train_with_trigger(
            X_train, y_flipped, trigger_indices, n_estimators=3,
            params=params, random_state=1,
        )
        assert weight_add == pytest.approx(1.0 + rounds_add)

        _, rounds_esc, weight_esc = train_with_trigger(
            X_train, y_flipped, trigger_indices, n_estimators=3,
            params=params, schedule=ESCALATING, random_state=1,
        )
        assert weight_esc == pytest.approx(2.0**rounds_esc)
        # The forced-misclassification task needs at least one
        # re-weighting round here, so the schedules actually differ.
        assert rounds_esc >= 1

    def test_full_retrain_equivalent_to_incremental(self, bc_data):
        # Selective retraining must preserve Algorithm 1's postcondition:
        # the library's loop and the literal full-retrain oracle both
        # produce forests whose every tree fits the required trigger
        # labels (the trees themselves may differ).
        X_train, _, y_train, _ = bc_data
        trigger_indices = np.array([0, 5, 10])
        for train in (train_with_trigger, train_with_trigger_full):
            forest, _, _ = train(
                X_train,
                y_train,
                trigger_indices,
                n_estimators=4,
                params=BASE_PARAMS,
                schedule=ESCALATING,
                random_state=3,
            )
            predictions = forest.predict_all(X_train[trigger_indices])
            assert (predictions == y_train[trigger_indices][None, :]).all()

    def test_parallel_matches_serial_bitwise(self, bc_data):
        X_train, _, y_train, _ = bc_data
        trigger_indices = np.array([2, 9])
        forests = []
        for n_jobs in (None, 2):
            forest, rounds, weight = train_with_trigger(
                X_train,
                y_train,
                trigger_indices,
                n_estimators=4,
                params=BASE_PARAMS,
                schedule=ESCALATING,
                n_jobs=n_jobs,
                random_state=4,
            )
            forests.append((forest, rounds, weight))
        (serial, r1, w1), (pooled, r2, w2) = forests
        assert (r1, w1) == (r2, w2)
        assert [node_to_dict(r) for r in serial.roots()] == [
            node_to_dict(r) for r in pooled.roots()
        ]

    def test_invalid_parameters(self, bc_data):
        X_train, _, y_train, _ = bc_data
        for n_estimators in (0, 2.5, True):
            with pytest.raises(ValidationError, match="n_estimators"):
                train_with_trigger(
                    X_train, y_train, np.array([0]), n_estimators, BASE_PARAMS
                )

    @pytest.mark.parametrize(
        "indices",
        [[0, -1], [0.7, 1.2], [0, 10**6], [], [3, 3], [[0, 1]], [True, False]],
        ids=["negative", "float", "out-of-range", "empty", "repeated", "2d", "bool"],
    )
    def test_invalid_trigger_indices(self, bc_data, indices):
        X_train, _, y_train, _ = bc_data
        with pytest.raises(ValidationError, match="trigger_indices"):
            train_with_trigger(X_train, y_train, indices, 2, BASE_PARAMS)

    def test_last_row_is_a_valid_trigger(self, bc_data):
        X_train, _, y_train, _ = bc_data
        last = X_train.shape[0] - 1
        forest, _, _ = train_with_trigger(
            X_train, y_train, [0, last], 2, BASE_PARAMS, random_state=5
        )
        predictions = forest.predict_all(X_train[[0, last]])
        assert (predictions == y_train[[0, last]][None, :]).all()


def _stubborn_trigger(bc_data):
    """Flipped trigger labels that depth-4 trees fit only after two
    re-weighting rounds."""
    X_train, _, y_train, _ = bc_data
    trigger = np.array([2, 9, 20, 33])
    y_flipped = y_train.copy()
    y_flipped[trigger] = -y_flipped[trigger]
    return X_train, y_flipped, trigger


class TestComplianceFromGrowth:
    """``train_with_trigger`` reads each tree's trigger labels from its
    growth, never from a compiled forest."""

    def test_every_round_agrees_with_compiled_prediction(self, bc_data, monkeypatch):
        X_train, y_flipped, trigger = _stubborn_trigger(bc_data)
        read = RandomForestClassifier._grown_predict_all
        masks = []

        def checked(forest, rows):
            answer = read(forest, rows)
            assert np.array_equal(answer, forest.predict_all(X_train[rows]))
            masks.append(misfit_mask(forest, X_train[rows], y_flipped[rows]))
            return answer

        monkeypatch.setattr(RandomForestClassifier, "_grown_predict_all", checked)
        forest, rounds, _ = train_with_trigger(
            X_train, y_flipped, trigger, 6, {"max_depth": 4}, random_state=1
        )
        assert rounds == 2 and len(masks) == 3
        assert masks[0].any() and not masks[-1].any()

    def test_float32_input_is_presorted_once(self, bc_data):
        X_train, y_flipped, trigger = _stubborn_trigger(bc_data)
        expected, rounds, _ = train_with_trigger(
            X_train.astype(np.float32).astype(np.float64), y_flipped, trigger, 6,
            {"max_depth": 4}, random_state=1,
        )
        before = presort_cache_stats()
        forest, _, _ = train_with_trigger(
            X_train.astype(np.float32), y_flipped, trigger, 6, {"max_depth": 4},
            random_state=1,
        )
        after = presort_cache_stats()
        assert rounds == 2
        assert after["misses"] - before["misses"] == 1
        assert [node_to_dict(r) for r in forest.roots()] == [
            node_to_dict(r) for r in expected.roots()
        ]

    def test_list_input_is_validated(self, bc_data):
        X_train, y_flipped, trigger = _stubborn_trigger(bc_data)
        expected, _, _ = train_with_trigger(
            X_train, y_flipped, trigger, 3, {"max_depth": 4}, random_state=2
        )
        forest, _, _ = train_with_trigger(
            X_train.tolist(), y_flipped.tolist(), trigger.tolist(), 3, {"max_depth": 4},
            random_state=2,
        )
        assert [node_to_dict(r) for r in forest.roots()] == [
            node_to_dict(r) for r in expected.roots()
        ]
        with pytest.raises(ValidationError, match="2-dimensional"):
            train_with_trigger(X_train[:, 0].tolist(), y_flipped, trigger, 3, {"max_depth": 4})

    def test_dispute_embed_compiles_nothing_and_scores_roots_once(self, monkeypatch):
        """The guard on both halves of the embedding's saving: a dispute
        fit never compiles, and within one split search the nodes that
        share a root index score each distinct feature once."""
        compiles = []
        compile_trees = compiled.compile_trees

        def counting_compile(*args, **kwargs):
            compiles.append(1)
            return compile_trees(*args, **kwargs)

        lanes: list = []
        shared = {"requested": 0, "scored": 0}
        score_block = splitter._score_block
        search = growth.find_best_split

        def recording_block(kernel, parts, nodes, sizes, parent, features):
            row = 0
            for i, first, stop in parts:
                index = nodes[i].index
                lanes.extend((id(index), int(f)) for f in features[row : row + stop - first])
                row += stop - first
            return score_block(kernel, parts, nodes, sizes, parent, features)

        def recording_search(presort, codes, weights, nodes, *rest):
            lanes.clear()
            result = search(presort, codes, weights, nodes, *rest)
            assert len(set(lanes)) == len(lanes), "a lane was scored twice in one call"
            by_index: dict = {}
            for node in nodes:
                by_index.setdefault(id(node.index), []).append(node)
            for group in by_index.values():
                if len(group) > 1:
                    shared["requested"] += sum(node.features.shape[0] for node in group)
                    shared["scored"] += sum(key == id(group[0].index) for key, _ in lanes)
            return result

        monkeypatch.setattr(compiled, "compile_trees", counting_compile)
        monkeypatch.setattr(splitter, "_score_block", recording_block)
        monkeypatch.setattr(growth, "find_best_split", recording_search)
        dispute_model(ijcnn1_like(700, random_state=101), 110)
        assert compiles == []
        # Roots of one call share most of their lanes: 22 features,
        # each tree's root holds 8 of them.
        assert 0 < shared["scored"] < shared["requested"] / 2


class TestWatermark:
    def test_embedded_pattern_holds(self, wm_model):
        predictions = wm_model.ensemble.predict_all(wm_model.trigger.X)
        for i, bit in enumerate(wm_model.signature):
            correct = predictions[i] == wm_model.trigger.y
            if bit == 0:
                assert correct.all(), f"tree {i} (bit 0) must be perfect on triggers"
            else:
                assert (~correct).all(), f"tree {i} (bit 1) must miss all triggers"

    def test_ensemble_size_matches_signature(self, wm_model):
        assert wm_model.ensemble.n_trees_ == len(wm_model.signature)

    def test_report_contents(self, wm_model):
        report = wm_model.report
        assert report.rounds_t0 >= 0 and report.rounds_t1 >= 0
        assert report.adjusted is not None
        assert report.base_params == {"max_depth": 8, "min_samples_leaf": 1}

    def test_adjust_false_skips_probe(self, bc_data):
        X_train, _, y_train, _ = bc_data
        model = _watermark(
            X_train, y_train, random_signature(6, random_state=0), 4,
            random_state=1, adjust=False,
        )
        assert model.report.adjusted is None

    def test_all_zero_signature(self, bc_data):
        X_train, _, y_train, _ = bc_data
        model = _watermark(
            X_train, y_train, Signature.from_string("000000"), 4, random_state=2
        )
        predictions = model.ensemble.predict_all(model.trigger.X)
        assert (predictions == model.trigger.y[None, :]).all()

    def test_all_one_signature(self, bc_data):
        X_train, _, y_train, _ = bc_data
        model = _watermark(
            X_train, y_train, Signature.from_string("1111"), 3, random_state=3
        )
        predictions = model.ensemble.predict_all(model.trigger.X)
        assert (predictions == -model.trigger.y[None, :]).all()

    def test_oversized_trigger_rejected(self, bc_data):
        X_train, _, y_train, _ = bc_data
        with pytest.raises(ValidationError, match="small"):
            _watermark(
                X_train, y_train, random_signature(4, random_state=0),
                X_train.shape[0], random_state=0,
            )

    def test_accuracy_cost_is_bounded(self, wm_model, bc_data, bc_forest):
        _, X_test, _, y_test = bc_data
        watermarked = wm_model.ensemble.score(X_test, y_test)
        standard = bc_forest.score(X_test, y_test)
        # The paper reports losses of at most a couple points; allow a
        # generous margin at this tiny scale.
        assert watermarked >= standard - 0.12

    def test_determinism(self, bc_data):
        X_train, _, y_train, _ = bc_data
        sig = random_signature(6, random_state=20)
        a = _watermark(X_train, y_train, sig, 4, random_state=21)
        b = _watermark(X_train, y_train, sig, 4, random_state=21)
        assert np.array_equal(a.trigger.indices, b.trigger.indices)
        assert np.array_equal(
            a.ensemble.predict_all(X_train[:20]), b.ensemble.predict_all(X_train[:20])
        )

    def test_incremental_and_full_both_accepted(self, bc_data):
        # The engine-level equivalence contract at the watermark level:
        # the library's loop and the literal full-retrain oracle both
        # yield a model the verification protocol accepts in strict mode
        # on the synthetic dataset.
        X_train, _, y_train, _ = bc_data
        sig = random_signature(6, ones_fraction=0.5, random_state=30)
        for loop in (contextlib.nullcontext, literal_loop):
            with loop():
                model = _watermark(X_train, y_train, sig, 4, random_state=31)
            report = verify_ownership(
                model.ensemble, model.signature, model.trigger.X,
                model.trigger.y, mode="strict",
            )
            assert report.accepted

    def test_watermark_parallel_determinism(self, bc_data):
        X_train, _, y_train, _ = bc_data
        sig = random_signature(4, random_state=40)
        serial = _watermark(X_train, y_train, sig, 3, random_state=41)
        pooled = _watermark(X_train, y_train, sig, 3, random_state=41, n_jobs=2)
        assert [node_to_dict(r) for r in serial.ensemble.roots()] == [
            node_to_dict(r) for r in pooled.ensemble.roots()
        ]

    def test_grid_search_path(self, bc_data):
        # base_params=None exercises line 12 of Algorithm 1.
        X_train, _, y_train, _ = bc_data
        model = _watermark(
            X_train, y_train, random_signature(4, random_state=1), 3,
            random_state=4, base_params=None, param_grid={"max_depth": [6, 10]},
        )
        assert model.report.base_params["max_depth"] in (6, 10)
