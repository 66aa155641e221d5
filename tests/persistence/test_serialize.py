"""Tests for JSON persistence of models and secrets."""

import numpy as np
import pytest
from legacy_node_dicts import legacy_forest_dict, node_to_dict

from repro.core import WatermarkSecret
from repro.exceptions import SerializationError
from repro.persistence import (
    forest_from_dict,
    forest_to_dict,
    load_json,
    node_from_dict,
    save_json,
    secret_from_dict,
    secret_to_dict,
)
from repro.trees.node import InternalNode, Leaf


class TestNodeRoundtrip:
    def test_leaf(self):
        leaf = Leaf(prediction=-1, class_weights={-1: 2.5, 1: 0.5})
        restored = node_from_dict(node_to_dict(leaf))
        assert restored == leaf

    def test_nested_tree(self):
        tree = InternalNode(
            0, 0.5,
            InternalNode(1, 0.25, Leaf(-1), Leaf(1)),
            Leaf(1, {1: 3.0}),
        )
        restored = node_from_dict(node_to_dict(tree))
        assert restored == tree

    def test_malformed_data_raises(self):
        with pytest.raises(SerializationError):
            node_from_dict({"kind": "banana"})
        with pytest.raises(SerializationError):
            node_from_dict({"kind": "node", "feature": 0})  # missing children


class TestForestRoundtrip:
    def test_predictions_preserved(self, bc_forest, bc_data):
        _, X_test, _, _ = bc_data
        restored = forest_from_dict(forest_to_dict(bc_forest))
        assert np.array_equal(
            restored.predict_all(X_test), bc_forest.predict_all(X_test)
        )
        assert np.array_equal(restored.predict(X_test), bc_forest.predict(X_test))

    def test_structure_preserved(self, bc_forest):
        restored = forest_from_dict(forest_to_dict(bc_forest))
        original = bc_forest.structure()
        after = restored.structure()
        assert np.array_equal(original["depth"], after["depth"])
        assert np.array_equal(original["n_leaves"], after["n_leaves"])

    def test_json_safe(self, bc_forest, tmp_path):
        path = tmp_path / "forest.json"
        save_json(forest_to_dict(bc_forest), path)
        restored = forest_from_dict(load_json(path))
        assert restored.n_trees_ == bc_forest.n_trees_

    def test_unfitted_forest_rejected(self):
        from repro.ensemble import RandomForestClassifier

        with pytest.raises(SerializationError, match="unfitted"):
            forest_to_dict(RandomForestClassifier())


class TestCompiledRoundtrip:
    def test_compiled_arrays_roundtrip(self, bc_forest, bc_data):
        import json

        from repro.persistence import compiled_from_dict, compiled_to_dict

        _, X_test, _, _ = bc_data
        engine = bc_forest.compile()
        data = json.loads(json.dumps(compiled_to_dict(engine)))
        restored = compiled_from_dict(data)
        assert restored.depth == engine.depth
        assert np.array_equal(restored.predict_all(X_test), engine.predict_all(X_test))
        np.testing.assert_allclose(
            restored.predict_proba(X_test), engine.predict_proba(X_test), atol=0
        )

    def test_forest_dict_carries_compiled_table(self, bc_forest, bc_data, tmp_path):
        _, X_test, _, _ = bc_data
        path = tmp_path / "forest.json"
        save_json(forest_to_dict(bc_forest), path)
        restored = forest_from_dict(load_json(path))
        # The table was adopted as-is: predictions match without
        # recompiling and without rebuilding the object trees.
        engine = restored._compiled_
        assert engine is not None
        assert np.array_equal(restored.predict_all(X_test), bc_forest.predict_all(X_test))
        assert restored._compiled_ is engine
        assert restored._trees_ is None

    def test_forest_dict_without_compiled_still_loads(self, bc_forest, bc_data):
        """A node-dict forest of an earlier release, with no compiled
        table beside its trees, loads and rebuilds the same trees."""
        _, X_test, _, _ = bc_data
        data = legacy_forest_dict(bc_forest)
        assert "compiled" not in data
        restored = forest_from_dict(data)
        assert np.array_equal(restored.predict_all(X_test), bc_forest.predict_all(X_test))
        assert [node_to_dict(tree.root_) for tree in restored.trees_] == data["trees"]

    def test_malformed_compiled_rejected(self, bc_forest):
        from repro.persistence import compiled_from_dict, compiled_to_dict

        data = compiled_to_dict(bc_forest.compile())
        data["left"] = [10**6] * len(data["left"])
        with pytest.raises(SerializationError, match="outside the node table"):
            compiled_from_dict(data)

    def test_wrong_depth_rejected(self, bc_forest):
        from repro.persistence import compiled_from_dict, compiled_to_dict

        data = compiled_to_dict(bc_forest.compile())
        data["depth"] = 0
        with pytest.raises(SerializationError, match="depth"):
            compiled_from_dict(data)

    def test_misshaped_leaf_proba_rejected(self, bc_forest):
        from repro.persistence import compiled_from_dict, compiled_to_dict

        data = compiled_to_dict(bc_forest.compile())
        data["leaf_proba"] = data["leaf_proba"][:-1]
        with pytest.raises(SerializationError, match="leaf_proba"):
            compiled_from_dict(data)

    @pytest.mark.parametrize(
        "tamper,message",
        [
            pytest.param(
                lambda d: d["threshold"].__setitem__(0, float("nan")),
                "compiled threshold contains NaN",
                id="nan-threshold",
            ),
            pytest.param(
                lambda d: d.__setitem__("roots", []),
                r"compiled roots must be a non-empty 1-D array, got shape \(0,\)",
                id="empty-roots",
            ),
            pytest.param(
                lambda d: d.__setitem__("roots", [[0]]),
                r"compiled roots must be a non-empty 1-D array, got shape \(1, 1\)",
                id="2d-roots",
            ),
            pytest.param(
                lambda d: d.__setitem__("classes", [d["classes"]]),
                r"compiled classes must be a 1-D array, got shape \(1, 2\)",
                id="2d-classes",
            ),
        ],
    )
    def test_malformed_table_rejected_with_stable_message(self, bc_forest, tamper, message):
        from repro.persistence import compiled_from_dict, compiled_to_dict

        data = compiled_to_dict(bc_forest.compile())
        tamper(data)
        with pytest.raises(SerializationError, match=message):
            compiled_from_dict(data)

    def test_adopted_table_without_leaf_proba_answers_per_tree(self, bc_forest, bc_data):
        """``leaf_proba`` is an optional section: a forest whose adopted
        table lacks it still answers ``predict_proba``, tree by tree."""
        _, X_test, _, _ = bc_data
        data = forest_to_dict(bc_forest)
        data["tables"]["leaf_proba"] = None
        restored = forest_from_dict(data)
        assert restored._compiled_.leaf_proba is None
        np.testing.assert_array_equal(
            restored.predict_proba(X_test), bc_forest.predict_proba(X_test)
        )
        np.testing.assert_array_equal(
            restored.predict_proba(X_test[:1]), bc_forest.predict_proba(X_test[:1])
        )

    def test_tampered_compiled_table_not_adopted(self, bc_forest):
        """A compiled table disagreeing with the trees must be refused:
        verification would otherwise serve the tampered predictions."""
        data = legacy_forest_dict(bc_forest, include_compiled=True)
        # Flip every leaf label in the compiled table only.
        data["compiled"]["leaf_value"] = [
            -v for v in data["compiled"]["leaf_value"]
        ]
        with pytest.raises(SerializationError, match="disagrees with the serialized trees"):
            forest_from_dict(data)

    @pytest.mark.parametrize("section", ["threshold", "leaf_proba", "classes"])
    def test_compiled_section_must_equal_the_trees(self, bc_forest, section):
        """The check is exact, section by section: a change no probe row
        would route through is refused too."""
        data = legacy_forest_dict(bc_forest, include_compiled=True)
        compiled = data["compiled"]
        if section == "threshold":
            internal = next(i for i, t in enumerate(compiled["threshold"]) if t is not None)
            compiled["threshold"][internal] = np.nextafter(compiled["threshold"][internal], 9.0)
        elif section == "leaf_proba":
            leaf = compiled["feature"].index(-1)
            compiled["leaf_proba"][leaf] = compiled["leaf_proba"][leaf][::-1]
        else:
            compiled["classes"] = compiled["classes"][::-1]
        with pytest.raises(SerializationError, match=f"section '{section}'"):
            forest_from_dict(data)

    def test_compiled_section_without_optional_sections_loads(self, bc_forest, bc_data):
        _, X_test, _, _ = bc_data
        data = legacy_forest_dict(bc_forest, include_compiled=True)
        data["compiled"]["leaf_proba"] = None
        data["compiled"].pop("leaf_weight", None)
        restored = forest_from_dict(data)
        np.testing.assert_array_equal(
            restored.predict_proba(X_test), bc_forest.predict_proba(X_test)
        )

    def test_bad_version_rejected(self, bc_forest):
        data = forest_to_dict(bc_forest)
        data["format_version"] = 999
        with pytest.raises(SerializationError, match="version"):
            forest_from_dict(data)

    def test_generator_random_state_serialisable(self, bc_data):
        # Forests fitted inside the pipeline hold a shared Generator;
        # serialisation must not choke on it.
        from repro.ensemble import RandomForestClassifier

        X_train, _, y_train, _ = bc_data
        forest = RandomForestClassifier(
            n_estimators=2, max_depth=3, random_state=np.random.default_rng(0)
        ).fit(X_train, y_train)
        data = forest_to_dict(forest)
        assert data["params"]["random_state"] is None
        forest_from_dict(data)  # must not raise


class TestSecretRoundtrip:
    def test_roundtrip(self, wm_model, tmp_path):
        secret = WatermarkSecret(
            signature=wm_model.signature,
            trigger_X=wm_model.trigger.X,
            trigger_y=wm_model.trigger.y,
        )
        path = tmp_path / "secret.json"
        save_json(secret_to_dict(secret), path)
        restored = secret_from_dict(load_json(path))
        assert restored.signature == secret.signature
        assert np.array_equal(restored.trigger_X, secret.trigger_X)
        assert np.array_equal(restored.trigger_y, secret.trigger_y)

    def test_restored_secret_verifies(self, wm_model):
        from repro.core import verify_ownership

        restored = secret_from_dict(
            secret_to_dict(
                WatermarkSecret(
                    signature=wm_model.signature,
                    trigger_X=wm_model.trigger.X,
                    trigger_y=wm_model.trigger.y,
                )
            )
        )
        report = verify_ownership(
            wm_model.ensemble, restored.signature, restored.trigger_X, restored.trigger_y
        )
        assert report.accepted

    def test_malformed_secret_raises(self):
        with pytest.raises(SerializationError):
            secret_from_dict({"signature": "01"})

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError, match="invalid JSON"):
            load_json(path)


class TestDeepTrees:
    """The serializers must be iterative — a pathological chain tree far
    past Python's recursion limit goes through round-trip unharmed."""

    DEPTH = 5000

    @staticmethod
    def _chain(depth):
        node = Leaf(prediction=1)
        for level in reversed(range(depth)):
            node = InternalNode(
                feature=0,
                threshold=float(level),
                left=node,
                right=Leaf(prediction=-1),
            )
        return node

    def test_depth_5000_roundtrip(self):
        import sys

        root = self._chain(self.DEPTH)
        assert self.DEPTH > sys.getrecursionlimit()
        restored = node_from_dict(node_to_dict(root))
        # Verify iteratively: identical structure down the left spine.
        ours, theirs = root, restored
        depth = 0
        while not ours.is_leaf:
            assert not theirs.is_leaf
            assert theirs.feature == ours.feature
            assert theirs.threshold == ours.threshold
            assert theirs.right.prediction == ours.right.prediction
            ours, theirs = ours.left, theirs.left
            depth += 1
        assert theirs.is_leaf
        assert theirs.prediction == ours.prediction
        assert depth == self.DEPTH

    def test_depth_5000_regression_tree(self):
        from legacy_node_dicts import regression_node_to_dict

        from repro.persistence.serialize import regression_node_from_dict
        from repro.trees.regression import _RegLeaf, _RegNode

        node = _RegLeaf(value=0.5)
        for level in reversed(range(self.DEPTH)):
            node = _RegNode(
                feature=0,
                threshold=float(level),
                left=node,
                right=_RegLeaf(value=-0.5),
            )
        restored = regression_node_from_dict(regression_node_to_dict(node))
        depth = 0
        while isinstance(restored, _RegNode):
            assert restored.right.value == -0.5
            restored = restored.left
            depth += 1
        assert restored.value == 0.5
        assert depth == self.DEPTH


class TestVectorisedThresholds:
    """compiled_to_dict's threshold column is vectorised; its output must
    be element-for-element identical to the per-node reference loop."""

    def test_exact_equivalence_with_reference_loop(self, bc_forest):
        from repro.ensemble.compiled import compile_forest
        from repro.persistence.serialize import compiled_to_dict

        engine = compile_forest(bc_forest)
        payload = compiled_to_dict(engine)
        reference = [
            None if not np.isfinite(value) else float(value)
            for value in engine.threshold
        ]
        assert payload["threshold"] == reference
        # Finite entries keep exact float identity (no rounding drift).
        finite = [v for v in payload["threshold"] if v is not None]
        assert all(isinstance(v, float) for v in finite)
