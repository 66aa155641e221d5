"""Tests for the pluggable exporter family (binary / json / sklearn)."""

import json
import pickle

import numpy as np
import pytest
from legacy_node_dicts import legacy_boosted_dict, legacy_forest_dict, node_to_dict

from repro.core import WatermarkedModel
from repro.ensemble import GradientBoostingClassifier, compile_boosted, compile_forest
from repro.exceptions import SerializationError
from repro.persistence import (
    available_formats,
    detect_format,
    forest_to_dict,
    get_exporter,
    load,
    save,
    save_json,
    watermarked_to_dict,
)


@pytest.fixture(scope="module")
def gb_model(bc_data):
    X_train, _, y_train, _ = bc_data
    return GradientBoostingClassifier(
        n_estimators=8, max_depth=3, learning_rate=0.2
    ).fit(X_train, y_train)


class TestRegistry:
    def test_builtin_formats_registered(self):
        assert {"binary", "json", "sklearn"} <= set(available_formats())

    def test_unknown_format_rejected(self):
        with pytest.raises(SerializationError, match="unknown persistence format"):
            get_exporter("carrier-pigeon")

    def test_save_needs_format_or_known_extension(self, bc_forest, tmp_path):
        with pytest.raises(SerializationError, match="cannot infer"):
            save(bc_forest, tmp_path / "model.xyz")

    def test_detection_ignores_extension(self, bc_forest, tmp_path):
        # A binary artefact with a lying .json extension still loads as
        # binary: dispatch is on content, not name.
        path = tmp_path / "model.json"
        save(bc_forest, path, format="binary")
        assert detect_format(path).name == "binary"
        restored = load(path)
        assert restored.n_trees_ == bc_forest.n_trees_

    def test_unrecognised_content_rejected(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"\x00\x01\x02\x03 not a model")
        with pytest.raises(SerializationError, match="format magic"):
            load(path)


class TestForestRoundtrip:
    @pytest.mark.parametrize("fmt,ext", [
        ("binary", "rfbin"), ("json", "json"), ("sklearn", "npz"),
    ])
    def test_predictions_bitwise_identical(self, bc_forest, bc_data, tmp_path, fmt, ext):
        _, X_test, _, _ = bc_data
        path = tmp_path / f"forest.{ext}"
        save(bc_forest, path, format=fmt)
        restored = load(path)
        assert np.array_equal(
            restored.predict_all(X_test), bc_forest.predict_all(X_test)
        )
        assert np.array_equal(restored.predict(X_test), bc_forest.predict(X_test))
        np.testing.assert_array_equal(
            restored.predict_proba(X_test), bc_forest.predict_proba(X_test)
        )

    @pytest.mark.parametrize("mmap_mode", [None, "r"])
    def test_binary_object_graph_identical(self, bc_forest, tmp_path, mmap_mode):
        path = tmp_path / "forest.rfbin"
        save(bc_forest, path)
        restored = load(path, mmap_mode=mmap_mode)
        # Materialising the lazy forest rebuilds the exact object graph.
        assert [node_to_dict(tree.root_) for tree in restored.trees_] == [
            node_to_dict(tree.root_) for tree in bc_forest.trees_
        ]

    def test_binary_load_is_lazy(self, bc_forest, bc_data, tmp_path):
        _, X_test, _, _ = bc_data
        path = tmp_path / "forest.rfbin"
        save(bc_forest, path)
        restored = load(path, mmap_mode="r")
        # Predictions flow through the engine without rebuilding trees.
        assert restored._trees_ is None
        assert np.array_equal(
            restored.predict_all(X_test), bc_forest.predict_all(X_test)
        )
        assert restored._trees_ is None
        assert restored.n_trees_ == bc_forest.n_trees_
        assert restored._trees_ is None
        # Structure inspection materialises.
        assert np.array_equal(
            restored.structure()["depth"], bc_forest.structure()["depth"]
        )
        assert restored._trees_ is not None

    def test_json_exporter_byte_compatible(self, bc_forest, tmp_path):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        save_json(forest_to_dict(bc_forest), old)  # the pre-exporter path
        save(bc_forest, new, format="json")
        assert old.read_bytes() == new.read_bytes()

    def test_pre_exporter_artifact_loads(self, bc_forest, bc_data, tmp_path):
        _, X_test, _, _ = bc_data
        path = tmp_path / "legacy.json"
        save_json(legacy_forest_dict(bc_forest), path)
        restored = load(path)
        assert np.array_equal(
            restored.predict_all(X_test), bc_forest.predict_all(X_test)
        )

    def test_binary_reexport_roundtrip(self, bc_forest, bc_data, tmp_path):
        # binary -> load -> json -> load: the chain preserves everything.
        _, X_test, _, _ = bc_data
        p1, p2 = tmp_path / "a.rfbin", tmp_path / "b.json"
        save(bc_forest, p1)
        save(load(p1, mmap_mode="r"), p2)
        assert np.array_equal(
            load(p2).predict_all(X_test), bc_forest.predict_all(X_test)
        )


FORMATS = [("binary", "rfbin"), ("json", "json"), ("sklearn", "npz")]


class TestOneRestorePath:
    """Every format stores the node table and restores through it."""

    @pytest.fixture(params=["forest", "boosted"])
    def model(self, request, bc_forest, gb_model):
        return bc_forest if request.param == "forest" else gb_model

    @pytest.mark.parametrize("fmt,ext", FORMATS)
    def test_loaded_model_serves_from_its_table(self, model, bc_data, tmp_path, fmt, ext):
        _, X_test, _, _ = bc_data
        path = tmp_path / f"model.{ext}"
        save(model, path, format=fmt)
        restored = load(path)
        assert restored._trees_ is None
        np.testing.assert_array_equal(restored.predict(X_test), model.predict(X_test))
        assert restored._trees_ is None

    @pytest.mark.parametrize("fmt,ext", FORMATS)
    def test_resave_is_byte_identical(self, model, tmp_path, fmt, ext):
        first, second = tmp_path / f"a.{ext}", tmp_path / f"b.{ext}"
        save(model, first, format=fmt)
        restored = load(first)
        save(restored, second, format=fmt)
        assert first.read_bytes() == second.read_bytes()
        # Re-exporting reads the table; no object tree was rebuilt.
        assert restored._trees_ is None

    @pytest.mark.parametrize("fmt,ext", FORMATS)
    def test_materialised_trees_recompile_to_the_table(self, model, tmp_path, fmt, ext):
        path = tmp_path / f"model.{ext}"
        save(model, path, format=fmt)
        restored = load(path)
        loaded = restored.compile().to_tables()
        assert restored.trees_ is not None
        if isinstance(restored, GradientBoostingClassifier):
            recompiled = compile_boosted(restored).to_tables()
        else:
            recompiled = compile_forest(restored, collect_leaf_weight=True).to_tables()
        for key, value in recompiled.items():
            np.testing.assert_array_equal(np.asarray(loaded[key]), np.asarray(value), key)

    def test_legacy_boosted_dict_loads_lazily(self, gb_model, bc_data, tmp_path):
        _, X_test, _, _ = bc_data
        path = tmp_path / "legacy.json"
        save_json(legacy_boosted_dict(gb_model), path)
        restored = load(path)
        assert restored._trees_ is None
        np.testing.assert_array_equal(
            restored.decision_function(X_test), gb_model.decision_function(X_test)
        )

    def test_json_layout_is_metadata_plus_tables(self, bc_forest):
        data = forest_to_dict(bc_forest)
        assert set(data) == {
            "format_version", "kind", "params", "n_features_in", "feature_subsets", "tables"
        }
        assert data["kind"] == "forest" and "trees" not in data


class TestBoostedRoundtrip:
    @pytest.mark.parametrize("fmt,ext", [
        ("binary", "rfbin"), ("json", "json"), ("sklearn", "npz"),
    ])
    def test_margins_bitwise_identical(self, gb_model, bc_data, tmp_path, fmt, ext):
        _, X_test, _, _ = bc_data
        path = tmp_path / f"gb.{ext}"
        save(gb_model, path, format=fmt)
        restored = load(path)
        np.testing.assert_array_equal(
            restored.decision_function(X_test), gb_model.decision_function(X_test)
        )
        assert np.array_equal(restored.predict(X_test), gb_model.predict(X_test))

    def test_binary_mmap_load(self, gb_model, bc_data, tmp_path):
        _, X_test, _, _ = bc_data
        path = tmp_path / "gb.rfbin"
        save(gb_model, path)
        restored = load(path, mmap_mode="r")
        assert restored._trees_ is None
        np.testing.assert_array_equal(
            restored.decision_function(X_test), gb_model.decision_function(X_test)
        )


class TestWatermarkedRoundtrip:
    @pytest.mark.parametrize("fmt,ext", [("binary", "rfbin"), ("json", "json")])
    def test_full_roundtrip(self, wm_model, bc_data, tmp_path, fmt, ext):
        _, X_test, _, _ = bc_data
        path = tmp_path / f"wm.{ext}"
        wm_model.save(path, format=fmt)
        restored = WatermarkedModel.load(path)
        assert np.array_equal(
            restored.ensemble.predict_all(X_test),
            wm_model.ensemble.predict_all(X_test),
        )
        assert restored.signature == wm_model.signature
        assert np.array_equal(restored.trigger.X, wm_model.trigger.X)
        assert np.array_equal(restored.trigger.y, wm_model.trigger.y)
        assert np.array_equal(restored.trigger.indices, wm_model.trigger.indices)
        assert restored.report == wm_model.report
        assert json.dumps(watermarked_to_dict(restored), sort_keys=True) == json.dumps(
            watermarked_to_dict(wm_model), sort_keys=True
        )

    def test_restored_model_verifies(self, wm_model, tmp_path):
        from repro.core import verify_ownership

        path = tmp_path / "wm.rfbin"
        wm_model.save(path)
        restored = WatermarkedModel.load(path, mmap_mode="r")
        report = verify_ownership(
            restored.ensemble,
            restored.signature,
            restored.trigger.X,
            restored.trigger.y,
        )
        assert report.accepted

    def test_load_wrong_kind_rejected(self, bc_forest, tmp_path):
        path = tmp_path / "forest.rfbin"
        save(bc_forest, path)
        with pytest.raises(SerializationError, match="not a WatermarkedModel"):
            WatermarkedModel.load(path)

    def test_sklearn_refuses_watermarked(self, wm_model, tmp_path):
        with pytest.raises(SerializationError, match="secret"):
            save(wm_model, tmp_path / "wm.npz", format="sklearn")

    def test_binary_trailer_is_secrets_free(self, wm_model, tmp_path):
        # The greppable JSON trailer must never leak the signature or
        # trigger labels; they live in binary sections only.
        from repro.persistence.exporters.binary import _HEADER

        path = tmp_path / "wm.rfbin"
        wm_model.save(path)
        blob = path.read_bytes()
        fields = _HEADER.unpack(blob[: _HEADER.size])
        trailer_offset, trailer_nbytes = fields[7], fields[8]
        meta = json.loads(blob[trailer_offset : trailer_offset + trailer_nbytes])
        assert "signature" not in json.dumps(meta)
        assert meta["kind"] == "watermarked"


class TestPickleByPath:
    def test_lazy_mmap_forest_pickles_small(self, bc_forest, bc_data, tmp_path):
        _, X_test, _, _ = bc_data
        path = tmp_path / "forest.rfbin"
        save(bc_forest, path)
        restored = load(path, mmap_mode="r")
        blob = pickle.dumps(restored)
        # The pickle is a file handle, not the node tables.
        assert len(blob) < 1024
        clone = pickle.loads(blob)
        assert np.array_equal(
            clone.predict_all(X_test), bc_forest.predict_all(X_test)
        )

    def test_materialised_forest_still_pickles(self, bc_forest, bc_data, tmp_path):
        _, X_test, _, _ = bc_data
        path = tmp_path / "forest.rfbin"
        save(bc_forest, path)
        restored = load(path, mmap_mode="r")
        restored.structure()  # force materialisation
        clone = pickle.loads(pickle.dumps(restored))
        assert np.array_equal(
            clone.predict_all(X_test), bc_forest.predict_all(X_test)
        )

    def test_worker_pool_shares_artifact(self, bc_forest, bc_data, tmp_path):
        from repro.parallel import fork_available, run_batches

        if not fork_available():
            pytest.skip("fork start method unavailable")
        _, X_test, _, _ = bc_data
        path = tmp_path / "forest.rfbin"
        save(bc_forest, path)
        restored = load(path, mmap_mode="r")
        chunks = np.array_split(X_test, 4)
        results = run_batches(
            _predict_chunk, [(restored, c) for c in chunks], n_workers=2
        )
        assert np.array_equal(
            np.concatenate(results, axis=1), bc_forest.predict_all(X_test)
        )


def _predict_chunk(model, X):
    return model.predict_all(X)


class TestSklearnInterop:
    def test_arrays_follow_sklearn_convention(self, bc_forest, tmp_path):
        path = tmp_path / "forest.npz"
        save(bc_forest, path)
        with np.load(path, allow_pickle=False) as archive:
            left = archive["est0_children_left"]
            right = archive["est0_children_right"]
            feature = archive["est0_feature"]
            threshold = archive["est0_threshold"]
            value = archive["est0_value"]
        leaves = left == -1
        assert np.array_equal(leaves, right == -1)
        assert (feature[leaves] == -2).all()
        assert (threshold[leaves] == -2.0).all()
        assert value.ndim == 3 and value.shape[1] == 1
        assert value.shape[2] == bc_forest.classes_.shape[0]

    def test_feature_subsets_preserved(self, bc_forest, tmp_path):
        path = tmp_path / "forest.npz"
        save(bc_forest, path)
        restored = load(path)
        for ours, theirs in zip(
            bc_forest.feature_subsets_, restored.feature_subsets_
        ):
            assert np.array_equal(ours, theirs)
