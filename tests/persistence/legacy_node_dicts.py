"""The node-dict JSON layout that earlier releases wrote.

Forest and boosted artefacts now store node tables; the library only
*reads* the nested node dicts, for old artefacts.  These writers keep
that layout available to the tests: as a structural fingerprint of an
object tree (``node_to_dict(a.root_) == node_to_dict(b.root_)``) and to
build old-layout artefacts for the legacy reader.
"""

from __future__ import annotations

import numpy as np

from repro.persistence import compiled_to_dict


def node_to_dict(node) -> dict:
    """A classification tree as nested node dicts (iterative, deep-tree safe)."""
    root: dict = {}
    stack = [(node, root)]
    while stack:
        current, out = stack.pop()
        if current.is_leaf:
            out["kind"] = "leaf"
            out["prediction"] = int(current.prediction)
            out["class_weights"] = {
                str(k): float(v) for k, v in current.class_weights.items()
            }
        else:
            out["kind"] = "node"
            out["feature"] = int(current.feature)
            out["threshold"] = float(current.threshold)
            out["left"] = {}
            out["right"] = {}
            stack.append((current.right, out["right"]))
            stack.append((current.left, out["left"]))
    return root


def regression_node_to_dict(node) -> dict:
    """A regression tree as nested node dicts (iterative, deep-tree safe)."""
    root: dict = {}
    stack = [(node, root)]
    while stack:
        current, out = stack.pop()
        if current.is_leaf:
            out["kind"] = "leaf"
            out["value"] = float(current.value)
        else:
            out["kind"] = "node"
            out["feature"] = int(current.feature)
            out["threshold"] = float(current.threshold)
            out["left"] = {}
            out["right"] = {}
            stack.append((current.right, out["right"]))
            stack.append((current.left, out["left"]))
    return root


def legacy_forest_dict(forest, include_compiled: bool = False) -> dict:
    """A forest in the node-dict layout, optionally with the ``compiled``
    table that rode along under the retired ``include_compiled=True``."""
    params = forest.get_params()
    if isinstance(params.get("random_state"), (np.random.Generator, np.random.SeedSequence)):
        params["random_state"] = None
    data = {
        "format_version": 1,
        "params": params,
        "classes": [int(c) for c in forest.classes_],
        "n_features_in": int(forest.n_features_in_),
        "feature_subsets": [subset.tolist() for subset in forest.feature_subsets_],
        "trees": [node_to_dict(tree.root_) for tree in forest.trees_],
    }
    if include_compiled:
        data["compiled"] = compiled_to_dict(forest.compile())
    return data


def legacy_boosted_dict(model) -> dict:
    """A gradient-boosted ensemble in the node-dict layout."""
    return {
        "format_version": 1,
        "kind": "gradient_boosting",
        "params": model.get_params(),
        "init_score": float(model.init_score_),
        "n_features_in": int(model.n_features_in_),
        "trees": [regression_node_to_dict(tree.root_) for tree in model.trees_],
    }
