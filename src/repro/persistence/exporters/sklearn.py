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
from pathlib import Path

import numpy as np

from ...exceptions import SerializationError
from ..atomic import atomic_write
from .base import Exporter, register

__all__ = ["SklearnExporter"]

_LEAF = -1
_UNDEFINED = -2


def _tree_arrays(root, classes, class_position) -> dict[str, np.ndarray]:
    """One tree's sklearn-style arrays from its object graph."""
    from ...ensemble.compiled import compile_trees

    if classes is not None:
        table = compile_trees([root], classes=classes, collect_leaf_weight=True)
        value = np.array(table.leaf_weight, dtype=np.float64)
        # Hand-built leaves carry no class masses; fall back to a one-hot
        # row on the leaf label so argmax round-trips the prediction.
        leaf_rows = np.flatnonzero(table.feature == _LEAF)
        for row in leaf_rows:
            if value[row].sum() <= 0:
                value[row, class_position[int(table.leaf_value[row])]] = 1.0
        value = value[:, None, :]
    else:
        table = compile_trees([root], classes=None, value_dtype=np.float64)
        value = np.asarray(table.leaf_value, dtype=np.float64)[:, None, None]
    is_leaf = table.feature == _LEAF
    return {
        "children_left": np.where(is_leaf, _LEAF, table.left).astype(np.int64),
        "children_right": np.where(is_leaf, _LEAF, table.right).astype(np.int64),
        "feature": np.where(is_leaf, _UNDEFINED, table.feature).astype(np.int64),
        "threshold": np.where(is_leaf, float(_UNDEFINED), table.threshold),
        "value": value,
    }


def _node_from_arrays(est: dict, classes: np.ndarray | None):
    """Rebuild an object-graph root from one tree's sklearn arrays."""
    from ...trees.compiled import classification_leaf_builder, table_to_node

    children_left = np.asarray(est["children_left"], dtype=np.int64)
    children_right = np.asarray(est["children_right"], dtype=np.int64)
    feature = np.asarray(est["feature"], dtype=np.int64)
    threshold = np.asarray(est["threshold"], dtype=np.float64)
    value = np.asarray(est["value"], dtype=np.float64)
    n_nodes = feature.shape[0]
    is_leaf = children_left == _LEAF
    self_index = np.arange(n_nodes, dtype=np.int64)
    our_feature = np.where(is_leaf, -1, feature)
    our_threshold = np.where(is_leaf, np.inf, threshold)
    our_left = np.where(is_leaf, self_index, children_left)
    our_right = np.where(is_leaf, self_index, children_right)
    if classes is not None:
        masses = value[:, 0, :]
        leaf_value = classes[np.argmax(masses, axis=1)]
        make_leaf = classification_leaf_builder(leaf_value, classes, masses)
        make_internal = None
    else:
        from ...trees.regression import _RegLeaf, _RegNode

        def make_leaf(index: int):
            return _RegLeaf(value=float(value[index, 0, 0]))

        def make_internal(index, left_child, right_child):
            return _RegNode(
                feature=int(our_feature[index]),
                threshold=float(our_threshold[index]),
                left=left_child,
                right=right_child,
            )

    return table_to_node(
        our_feature, our_threshold, our_left, our_right, 0, make_leaf, make_internal
    )


class SklearnExporter(Exporter):
    """sklearn ``tree_``-convention arrays in an ``.npz`` archive."""

    name = "sklearn"
    extensions = (".npz",)
    magic = b"PK\x03\x04"
    supports_mmap = False

    def save(self, model, path) -> None:
        from ...core.embedding import WatermarkedModel
        from ...ensemble.boosting import GradientBoostingClassifier
        from ...ensemble.forest import RandomForestClassifier

        if isinstance(model, WatermarkedModel):
            raise SerializationError(
                "the sklearn exporter would strip the watermark secret; "
                "export model.ensemble explicitly if that is intended"
            )
        arrays: dict[str, np.ndarray] = {}
        if isinstance(model, RandomForestClassifier):
            trees = model._check_fitted()
            classes = model.classes_
            class_position = {int(c): i for i, c in enumerate(classes)}
            meta = {
                "kind": "forest",
                "params": _jsonable_params(model.get_params()),
                "classes": [int(c) for c in classes],
                "n_features_in": int(model.n_features_in_),
                "n_estimators": len(trees),
            }
            for index, tree in enumerate(trees):
                for key, arr in _tree_arrays(
                    tree.root_, classes, class_position
                ).items():
                    arrays[f"est{index}_{key}"] = arr
                arrays[f"est{index}_subset"] = np.asarray(
                    model.feature_subsets_[index], dtype=np.int64
                )
        elif isinstance(model, GradientBoostingClassifier):
            trees = model._check_fitted()
            meta = {
                "kind": "gradient_boosting",
                "params": _jsonable_params(model.get_params()),
                "init_score": float(model.init_score_),
                "n_features_in": int(model.n_features_in_),
                "n_estimators": len(trees),
            }
            for index, tree in enumerate(trees):
                for key, arr in _tree_arrays(tree.root_, None, None).items():
                    arrays[f"est{index}_{key}"] = arr
        else:
            raise SerializationError(
                f"the sklearn exporter cannot serialise {type(model).__name__!r}"
            )
        arrays["meta_json"] = np.frombuffer(
            json.dumps(meta, sort_keys=True, allow_nan=False).encode("utf-8"),
            dtype=np.uint8,
        )
        # Crash-safe: assembled in a temp sibling, renamed atomically.
        with atomic_write(path, "wb") as fh:
            np.savez(fh, **arrays)

    def load(self, path, mmap_mode: str | None = None):
        # npz archives are zip containers; mmap_mode is advisory only.
        from ...ensemble.boosting import GradientBoostingClassifier
        from ...trees.regression import RegressionTree
        from ...trees.tree import DecisionTreeClassifier
        from ..serialize import _forest_from_params

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
            kind = meta["kind"]
            n_estimators = int(meta["n_estimators"])
            estimators = [
                {
                    key: arrays[f"est{index}_{key}"]
                    for key in (
                        "children_left",
                        "children_right",
                        "feature",
                        "threshold",
                        "value",
                    )
                }
                for index in range(n_estimators)
            ]
            if kind == "forest":
                classes = np.asarray(meta["classes"], dtype=np.int64)
                forest = _forest_from_params(meta["params"])
                forest.classes_ = classes
                forest.n_features_in_ = int(meta["n_features_in"])
                forest.feature_subsets_ = [
                    np.asarray(arrays[f"est{index}_subset"], dtype=np.int64)
                    for index in range(n_estimators)
                ]
                trees = []
                for index, est in enumerate(estimators):
                    tree = DecisionTreeClassifier(
                        feature_subset=forest.feature_subsets_[index]
                    )
                    tree.root_ = _node_from_arrays(est, classes)
                    tree.classes_ = classes
                    tree.n_features_in_ = forest.n_features_in_
                    trees.append(tree)
                forest.trees_ = trees
                return forest
            if kind == "gradient_boosting":
                model = GradientBoostingClassifier(**meta["params"])
                model.init_score_ = float(meta["init_score"])
                model.n_features_in_ = int(meta["n_features_in"])
                trees = []
                for est in estimators:
                    tree = RegressionTree(
                        max_depth=model.max_depth,
                        min_samples_leaf=model.min_samples_leaf,
                    )
                    tree.root_ = _node_from_arrays(est, None)
                    tree.n_features_in_ = model.n_features_in_
                    trees.append(tree)
                model.trees_ = trees
                return model
            raise SerializationError(f"unknown artefact kind {kind!r} in {path}")
        except SerializationError:
            raise
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise SerializationError(
                f"malformed sklearn-interop archive {path}: {exc}"
            ) from exc


def _jsonable_params(params: dict) -> dict:
    params = dict(params)
    if isinstance(
        params.get("random_state"), (np.random.Generator, np.random.SeedSequence)
    ):
        params["random_state"] = None
    return params


register(SklearnExporter())
