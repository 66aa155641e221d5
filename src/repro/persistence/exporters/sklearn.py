"""sklearn-style array interop (``.npz``).

Exports each tree in scikit-learn's ``tree_`` convention —
``children_left``/``children_right`` with ``-1`` at leaves, ``feature``
``-2``, ``threshold`` ``-2.0``, and a ``value`` array of per-node class
masses (classification) or leaf values (regression/boosted) — bundled
as one NumPy ``.npz`` archive.  This is the bridge format for tooling
that already speaks sklearn's flat arrays (SHAP-style explainers,
treelite-like compilers, notebook analysis).

The watermark secret never travels through this format: exporting a
``WatermarkedModel`` is refused, export ``model.ensemble`` explicitly.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from ...ensemble.compiled import CompiledEnsemble
from ...exceptions import SerializationError
from ..atomic import atomic_write
from ..serialize import model_from_tables, model_to_tables
from .base import Exporter, register

__all__ = ["SklearnExporter"]

_LEAF = -1
_UNDEFINED = -2
_TREE_KEYS = ("children_left", "children_right", "feature", "threshold", "value")


def _tree_arrays(tables: dict, start: int, stop: int) -> dict[str, np.ndarray]:
    """One tree's sklearn-style arrays: rows ``start:stop`` of the table."""
    feature = tables["feature"][start:stop]
    is_leaf = feature < 0
    left = tables["left"][start:stop] - start
    right = tables["right"][start:stop] - start
    internal = ~is_leaf
    if ((left[internal] < 0) | (left[internal] >= stop - start)
            | (right[internal] < 0) | (right[internal] >= stop - start)).any():
        raise SerializationError("the node table is not stored tree by tree")
    classes = tables["classes"]
    if classes is not None:
        value = np.array(tables["leaf_weight"][start:stop], dtype=np.float64)
        # Hand-built leaves carry no class masses; fall back to a one-hot
        # row on the leaf label so argmax round-trips the prediction.
        class_position = {int(c): i for i, c in enumerate(classes)}
        for row in np.flatnonzero(is_leaf & (value.sum(axis=1) <= 0)):
            value[row, class_position[int(tables["leaf_value"][start + row])]] = 1.0
        value = value[:, None, :]
    else:
        value = np.asarray(tables["leaf_value"][start:stop], dtype=np.float64)[:, None, None]
    return {
        "children_left": np.where(is_leaf, _LEAF, left).astype(np.int64),
        "children_right": np.where(is_leaf, _LEAF, right).astype(np.int64),
        "feature": np.where(is_leaf, _UNDEFINED, feature).astype(np.int64),
        "threshold": np.where(is_leaf, float(_UNDEFINED), tables["threshold"][start:stop]),
        "value": value,
    }


def _tables_from_arrays(estimators: list[dict], classes) -> dict:
    """One node table from per-tree sklearn arrays.

    ``-1`` leaves become self-loops with a ``+inf`` threshold and
    ``value`` becomes the leaf payload: class masses (``leaf_weight``,
    labelled by their argmax) for a forest, the leaf value for a boosted
    stage.  Child indices are checked against their own tree here; the
    assembled table then goes through
    :meth:`~repro.ensemble.compiled.CompiledEnsemble.from_tables`.
    """
    from ...trees.compiled import table_depth

    parts: dict[str, list] = {key: [] for key in ("feature", "threshold", "left", "right", "value")}
    roots = []
    offset = 0
    for index, est in enumerate(estimators):
        feature = np.asarray(est["feature"], dtype=np.int64)
        threshold = np.asarray(est["threshold"], dtype=np.float64)
        value = np.asarray(est["value"], dtype=np.float64)
        left = np.asarray(est["children_left"], dtype=np.int64)
        right = np.asarray(est["children_right"], dtype=np.int64)
        n_nodes = feature.shape[0]
        if n_nodes == 0 or any(a.shape[0] != n_nodes for a in (threshold, value, left, right)):
            raise SerializationError(f"tree {index}'s arrays are empty or disagree on length")
        is_leaf = left == _LEAF
        self_index = np.arange(n_nodes, dtype=np.int64)
        left = np.where(is_leaf, self_index, left)
        right = np.where(is_leaf, self_index, right)
        if ((left < 0) | (left >= n_nodes) | (right < 0) | (right >= n_nodes)).any():
            raise SerializationError(f"tree {index} has child indices outside its node arrays")
        if (feature[~is_leaf] < 0).any():
            raise SerializationError(f"tree {index} splits on a negative feature index")
        roots.append(offset)
        parts["feature"].append(np.where(is_leaf, -1, feature))
        parts["threshold"].append(np.where(is_leaf, np.inf, threshold))
        parts["left"].append(left + offset)
        parts["right"].append(right + offset)
        parts["value"].append(np.where(is_leaf[:, None, None], value, 0.0))
        offset += n_nodes
    table = {key: np.concatenate(arrays) for key, arrays in parts.items()}
    table["roots"] = np.asarray(roots, dtype=np.int64)
    table["depth"] = table_depth(table["feature"], table["left"], table["right"], table["roots"])
    value = table.pop("value")
    if classes is None:
        table["leaf_value"] = value[:, 0, 0]
        return table
    masses = value[:, 0, :]
    best = np.argmax(masses, axis=1)
    is_leaf = table["feature"] < 0
    total = masses.sum(axis=1, keepdims=True)
    proba = np.divide(masses, total, out=np.zeros_like(masses), where=total > 0)
    massless = np.flatnonzero(is_leaf & (total[:, 0] <= 0))
    proba[massless, best[massless]] = 1.0
    table["leaf_value"] = np.where(is_leaf, classes[best], 0)
    table["classes"] = classes
    table["leaf_proba"] = proba
    table["leaf_weight"] = masses
    return table


def _savez(fh, arrays: dict[str, np.ndarray]) -> None:
    """``np.savez`` with fixed member timestamps: equal models, equal bytes."""
    with zipfile.ZipFile(fh, "w") as archive:
        for key, arr in arrays.items():
            with archive.open(zipfile.ZipInfo(f"{key}.npy"), "w", force_zip64=True) as member:
                np.lib.format.write_array(member, np.asanyarray(arr), allow_pickle=False)


class SklearnExporter(Exporter):
    """sklearn ``tree_``-convention arrays in an ``.npz`` archive."""

    name = "sklearn"
    extensions = (".npz",)
    magic = b"PK\x03\x04"
    supports_mmap = False

    def save(self, model, path) -> None:
        from ...core.embedding import WatermarkedModel

        if isinstance(model, WatermarkedModel):
            raise SerializationError(
                "the sklearn exporter would strip the watermark secret; "
                "export model.ensemble explicitly if that is intended"
            )
        engine, meta = model_to_tables(model)
        tables = engine.to_tables()
        subsets = meta.pop("feature_subsets", None)
        meta["n_estimators"] = engine.n_trees
        if engine.classes is not None:
            meta["classes"] = [int(c) for c in engine.classes]
        bounds = np.append(engine.roots, engine.n_nodes)
        if bounds[0] != 0 or (np.diff(bounds) <= 0).any():
            raise SerializationError("the node table is not stored tree by tree")
        arrays: dict[str, np.ndarray] = {}
        for index in range(engine.n_trees):
            for key, arr in _tree_arrays(tables, bounds[index], bounds[index + 1]).items():
                arrays[f"est{index}_{key}"] = arr
            if subsets is not None:
                arrays[f"est{index}_subset"] = subsets[index]
        arrays["meta_json"] = np.frombuffer(
            json.dumps(meta, sort_keys=True, allow_nan=False).encode("utf-8"),
            dtype=np.uint8,
        )
        # Crash-safe: assembled in a temp sibling, renamed atomically.
        with atomic_write(path, "wb") as fh:
            _savez(fh, arrays)

    def load(self, path, mmap_mode: str | None = None):
        # npz archives are zip containers; mmap_mode is advisory only.
        path = Path(path)
        try:
            with np.load(path, allow_pickle=False) as archive:
                arrays = {key: archive[key] for key in archive.files}
        except (OSError, ValueError, KeyError) as exc:
            raise SerializationError(
                f"{path} is not a readable sklearn-interop archive: {exc}"
            ) from exc
        try:
            meta = json.loads(bytes(arrays["meta_json"]).decode("utf-8"))
            n_estimators = int(meta["n_estimators"])
            estimators = [
                {key: arrays[f"est{index}_{key}"] for key in _TREE_KEYS}
                for index in range(n_estimators)
            ]
            classes = None
            if meta["kind"] == "forest":
                classes = np.asarray(meta["classes"], dtype=np.int64)
                meta["feature_subsets"] = [
                    arrays[f"est{index}_subset"] for index in range(n_estimators)
                ]
            tables = _tables_from_arrays(estimators, classes)
        except SerializationError:
            raise
        except (KeyError, TypeError, ValueError, IndexError, json.JSONDecodeError) as exc:
            raise SerializationError(
                f"malformed sklearn-interop archive {path}: {exc}"
            ) from exc
        return model_from_tables(CompiledEnsemble.from_tables(tables), meta)


register(SklearnExporter())
