"""The model ↔ node-table codec, and JSON serialisation of models and secrets.

Ownership disputes stretch over time: the owner must be able to persist
the watermarked model and — separately and more carefully — the secret
``(signature, trigger set)``, then reload both bit-for-bit for the
verification protocol.

Every model format stores the same thing: the model's compiled node
table plus a little metadata.  :func:`model_to_tables` and
:func:`model_from_tables` are that one codec; the binary, JSON and
sklearn exporters differ only in the container around it.  A restored
forest or boosted ensemble serves from its validated table and rebuilds
its object trees only when something inspects them.

JSON keeps the artefacts inspectable by a court: a model dict carries
its metadata and, under ``tables``, the :func:`compiled_to_dict` node
table.  Model dicts of earlier releases held nested node dicts under
``trees`` instead; they still load, through the same restore.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..core.protocol import WatermarkSecret
from .atomic import atomic_write
from ..core.signature import Signature
from ..ensemble.boosting import GradientBoostingClassifier
from ..ensemble.compiled import CompiledEnsemble, compile_forest, compile_trees
from ..ensemble.forest import RandomForestClassifier
from ..exceptions import SerializationError, ValidationError
from ..trees.compiled import adopt_compiled
from ..trees.node import InternalNode, Leaf, TreeNode
from ..trees.regression import _RegLeaf, _RegNode

__all__ = [
    "model_to_tables",
    "model_from_tables",
    "node_from_dict",
    "regression_node_from_dict",
    "forest_to_dict",
    "forest_from_dict",
    "boosted_to_dict",
    "boosted_from_dict",
    "watermarked_to_dict",
    "watermarked_from_dict",
    "compiled_to_dict",
    "compiled_from_dict",
    "secret_to_dict",
    "secret_from_dict",
    "save_json",
    "load_json",
]

FORMAT_VERSION = 1

#: Forest constructor keys that artefacts from earlier releases carry
#: but the constructor no longer takes: ``splitter`` chose between two
#: split-search engines that grew identical trees.
_RETIRED_FOREST_PARAMS = frozenset({"splitter"})

#: Metadata keys of each model kind, besides ``kind`` itself.
_METADATA_KEYS = {
    "forest": ("params", "n_features_in", "feature_subsets"),
    "gradient_boosting": ("params", "init_score", "n_features_in"),
}


def _forest_from_params(params: dict) -> RandomForestClassifier:
    """An unfitted forest built from persisted constructor params.

    Every loader goes through here, so artefacts written before a
    parameter was retired keep loading.
    """
    return RandomForestClassifier(
        **{key: value for key, value in params.items() if key not in _RETIRED_FOREST_PARAMS}
    )


def _json_safe_params(params: dict) -> dict:
    """A copy of constructor ``params`` that strict JSON can carry.

    A shared ``Generator`` or ``SeedSequence`` ``random_state`` is not
    JSON-serialisable and not needed for replay; it becomes ``None``.
    """
    params = dict(params)
    if isinstance(
        params.get("random_state"), (np.random.Generator, np.random.SeedSequence)
    ):
        params["random_state"] = None
    return params


# ----------------------------------------------------------------------
# The model <-> node-table codec
# ----------------------------------------------------------------------


def model_to_tables(model) -> tuple[CompiledEnsemble, dict]:
    """Split a fitted forest or boosted ensemble into ``(engine, metadata)``.

    ``engine`` is the model's compiled node table.  A forest's carries
    the ``leaf_weight`` section that rebuilds each leaf's
    ``class_weights`` exactly; engines compiled for inference alone lack
    it, so exporting may recompile once.  A restored forest already has
    it, and its export touches no object tree.

    ``metadata`` holds ``kind``, ``params`` (JSON-safe) and
    ``n_features_in``, plus ``feature_subsets`` (int64 arrays, one per
    tree) for a forest or ``init_score`` for a boosted ensemble.
    """
    if isinstance(model, RandomForestClassifier):
        if model._trees_ is None and model._lazy_key_ is None:
            raise SerializationError("cannot serialise an unfitted forest")
        engine = model.compile()
        if engine.leaf_weight is None:
            engine = adopt_compiled(
                model, model._roots_key(), compile_forest(model, collect_leaf_weight=True)
            )
        return engine, {
            "kind": "forest",
            "params": _json_safe_params(model.get_params()),
            "n_features_in": int(model.n_features_in_),
            "feature_subsets": [
                np.asarray(subset, dtype=np.int64) for subset in model.feature_subsets_
            ],
        }
    if isinstance(model, GradientBoostingClassifier):
        if model._trees_ is None and model._lazy_key_ is None:
            raise SerializationError("cannot serialise an unfitted ensemble")
        return model.compile(), {
            "kind": "gradient_boosting",
            "params": _json_safe_params(model.get_params()),
            "init_score": float(model.init_score_),
            "n_features_in": int(model.n_features_in_),
        }
    raise SerializationError(
        f"cannot serialise {type(model).__name__!r}: it is not a forest or "
        "a boosted ensemble"
    )


def model_from_tables(
    engine: CompiledEnsemble, metadata: dict, mmap_source: tuple | None = None
):
    """Inverse of :func:`model_to_tables`: a model serving from ``engine``.

    ``engine`` must come from :meth:`CompiledEnsemble.from_tables`, the
    gatekeeper for outside tables.  The model adopts it lazily: its
    object trees are rebuilt, and probe-checked against the engine, on
    first ``trees_`` access.  ``mmap_source`` is the
    ``(path, format, mmap_mode)`` triple a memory-mapped model pickles
    as.  Metadata that disagrees with the table raises
    :class:`~repro.exceptions.SerializationError`.
    """
    kind = metadata.get("kind")
    try:
        if kind == "forest":
            if engine.classes is None:
                raise SerializationError("a forest node table needs a classes section")
            subsets = [
                np.asarray(subset, dtype=np.int64) for subset in metadata["feature_subsets"]
            ]
            if len(subsets) != engine.n_trees:
                raise SerializationError(
                    f"{len(subsets)} feature subsets disagree with the "
                    f"{engine.n_trees}-tree node table"
                )
            model = _forest_from_params(metadata["params"])
            model.classes_ = engine.classes
            model.feature_subsets_ = subsets
        elif kind == "gradient_boosting":
            model = GradientBoostingClassifier(**metadata["params"])
            model.init_score_ = float(metadata["init_score"])
        else:
            raise SerializationError(f"unknown artefact kind {kind!r}")
        model.n_features_in_ = int(metadata["n_features_in"])
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise SerializationError(f"malformed {kind} metadata: {exc}") from exc
    model._adopt_lazy(engine, mmap_source=mmap_source)
    return model


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------


def _tree_from_dicts(data: dict, make_leaf, make_internal):
    """An object tree from an earlier release's nested node dicts.

    Iterative, so trees far deeper than the recursion limit load.
    Internal nodes are built childless; the loop attaches children.
    """

    def build_shallow(item: dict):
        kind = item["kind"]
        if kind == "leaf":
            return make_leaf(item)
        if kind == "node":
            item["left"], item["right"]  # noqa: B018 - raise KeyError early
            return make_internal(
                feature=int(item["feature"]),
                threshold=float(item["threshold"]),
                left=None,
                right=None,
            )
        raise SerializationError(f"unknown node kind {item.get('kind')!r}")

    try:
        root = build_shallow(data)
        stack = [(data, root)]
        while stack:
            item, node = stack.pop()
            if node.is_leaf:
                continue
            node.left = build_shallow(item["left"])
            node.right = build_shallow(item["right"])
            stack.append((item["right"], node.right))
            stack.append((item["left"], node.left))
        return root
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SerializationError(f"malformed tree node data: {exc}") from exc


def node_from_dict(data: dict) -> TreeNode:
    """A classification tree from an earlier release's node dicts."""

    def make_leaf(item: dict) -> Leaf:
        weights = item.get("class_weights", {})
        return Leaf(
            prediction=int(item["prediction"]),
            class_weights={int(k): float(v) for k, v in weights.items()},
        )

    return _tree_from_dicts(data, make_leaf, InternalNode)


def regression_node_from_dict(data: dict):
    """A regression tree from an earlier release's node dicts."""
    return _tree_from_dicts(data, lambda item: _RegLeaf(value=float(item["value"])), _RegNode)


def compiled_to_dict(engine: CompiledEnsemble) -> dict:
    """Serialise a compiled ensemble node table.

    Leaf thresholds are ``+inf`` by layout convention, which strict JSON
    cannot carry; they are stored as ``null`` and restored on load.  The
    null substitution is vectorised (one ``astype(object)`` pass plus a
    masked assignment) — on 100k-node tables the old per-element Python
    loop dominated serialisation time.
    """
    threshold = np.asarray(engine.threshold, dtype=np.float64)
    threshold_obj = threshold.astype(object)
    threshold_obj[~np.isfinite(threshold)] = None
    data = {
        "format_version": FORMAT_VERSION,
        "roots": engine.roots.tolist(),
        "feature": engine.feature.tolist(),
        "threshold": threshold_obj.tolist(),
        "left": engine.left.tolist(),
        "right": engine.right.tolist(),
        "leaf_value": engine.leaf_value.tolist(),
        "leaf_value_dtype": str(engine.leaf_value.dtype),
        "depth": int(engine.depth),
        "classes": None if engine.classes is None else [int(c) for c in engine.classes],
        "leaf_proba": None if engine.leaf_proba is None else engine.leaf_proba.tolist(),
    }
    # Boosted and inference-only engines carry no leaf weights; the key
    # is omitted for them.
    if engine.leaf_weight is not None:
        data["leaf_weight"] = engine.leaf_weight.tolist()
    return data


def compiled_from_dict(data: dict) -> CompiledEnsemble:
    """Inverse of :func:`compiled_to_dict` — a ready-to-predict engine.

    Structural validation (lengths, bounds, depth, row shapes) lives in
    :meth:`CompiledEnsemble.from_tables`, the shared gatekeeper for all
    externally-sourced node tables.
    """
    try:
        if data["format_version"] != FORMAT_VERSION:
            raise SerializationError(
                f"unsupported format version {data['format_version']}"
            )
        threshold = np.array(
            [np.inf if t is None else float(t) for t in data["threshold"]],
            dtype=np.float64,
        )
        value_dtype = str(data["leaf_value_dtype"])
        if value_dtype not in ("int64", "float64"):
            raise SerializationError(
                f"compiled leaf_value_dtype must be 'int64' or 'float64', "
                f"got {value_dtype!r}"
            )
        return CompiledEnsemble.from_tables(
            {
                "roots": np.array(data["roots"], dtype=np.int64),
                "feature": np.array(data["feature"], dtype=np.int64),
                "threshold": threshold,
                "left": np.array(data["left"], dtype=np.int64),
                "right": np.array(data["right"], dtype=np.int64),
                "leaf_value": np.array(
                    data["leaf_value"], dtype=np.dtype(value_dtype)
                ),
                "depth": int(data["depth"]),
                "classes": data.get("classes"),
                "leaf_proba": data.get("leaf_proba"),
                "leaf_weight": data.get("leaf_weight"),
            }
        )
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed compiled ensemble data: {exc}") from exc


def _model_to_dict(model) -> dict:
    engine, metadata = model_to_tables(model)
    if "feature_subsets" in metadata:
        metadata["feature_subsets"] = [s.tolist() for s in metadata["feature_subsets"]]
    return {"format_version": FORMAT_VERSION, **metadata, "tables": compiled_to_dict(engine)}


def forest_to_dict(forest: RandomForestClassifier) -> dict:
    """Serialise a fitted forest: metadata plus its node table under ``tables``."""
    return _model_to_dict(forest)


def boosted_to_dict(model: GradientBoostingClassifier) -> dict:
    """Serialise a fitted gradient-boosted ensemble, laid out like a forest.

    The ``kind`` discriminator lets format-agnostic loaders dispatch
    between artefact families without guessing from key shapes.
    """
    return _model_to_dict(model)


def _same_section(ours, theirs) -> bool:
    if ours is None or theirs is None:
        return ours is theirs
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    return ours.dtype == theirs.dtype and np.array_equal(ours, theirs)


def _node_dict_engine(data: dict, kind: str) -> CompiledEnsemble:
    """The validated node table of an earlier release's node-dict artefact.

    Such an artefact may carry a ``compiled`` table beside its trees.
    It must equal, section by section, the table compiled from the
    trees; its optional ``leaf_proba``/``leaf_weight`` sections may be
    absent.
    """
    if kind == "forest":
        engine = compile_trees(
            [node_from_dict(tree) for tree in data["trees"]],
            classes=np.array(data["classes"], dtype=np.int64),
            collect_leaf_weight=True,
        )
    else:
        engine = compile_trees(
            [regression_node_from_dict(tree) for tree in data["trees"]],
            value_dtype=np.float64,
        )
    engine = CompiledEnsemble.from_tables(engine.to_tables())
    if data.get("compiled") is not None:
        stored = compiled_from_dict(data["compiled"]).to_tables()
        for key, ours in engine.to_tables().items():
            theirs = stored[key]
            if theirs is None and key in ("leaf_proba", "leaf_weight"):
                continue
            if not _same_section(ours, theirs):
                raise SerializationError(
                    f"compiled table disagrees with the serialized trees in "
                    f"section {key!r}; refusing to adopt it"
                )
    return engine


def _model_from_dict(data: dict, kind: str):
    try:
        if data["format_version"] != FORMAT_VERSION:
            raise SerializationError(
                f"unsupported format version {data['format_version']}"
            )
        found = data.get("kind", kind)
        if found != kind:
            raise SerializationError(f"expected a {kind} artefact, got kind {found!r}")
        if "tables" in data:
            engine = compiled_from_dict(data["tables"])
        else:
            engine = _node_dict_engine(data, kind)
        metadata = {key: data[key] for key in _METADATA_KEYS[kind]}
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise SerializationError(f"malformed {kind} data: {exc}") from exc
    return model_from_tables(engine, {"kind": kind, **metadata})


def forest_from_dict(data: dict) -> RandomForestClassifier:
    """Inverse of :func:`forest_to_dict` — a forest serving from its table.

    Also reads the node-dict forests of earlier releases.
    """
    return _model_from_dict(data, "forest")


def boosted_from_dict(data: dict) -> GradientBoostingClassifier:
    """Inverse of :func:`boosted_to_dict`; also reads node-dict artefacts."""
    return _model_from_dict(data, "gradient_boosting")


def _report_to_dict(report) -> dict:
    adjusted = None
    if report.adjusted is not None:
        adjusted = {
            "max_depth": int(report.adjusted.max_depth),
            "max_leaf_nodes": int(report.adjusted.max_leaf_nodes),
            "probe_depth_mean": float(report.adjusted.probe_depth_mean),
            "probe_depth_std": float(report.adjusted.probe_depth_std),
            "probe_leaves_mean": float(report.adjusted.probe_leaves_mean),
            "probe_leaves_std": float(report.adjusted.probe_leaves_std),
        }
    return {
        "rounds_t0": int(report.rounds_t0),
        "rounds_t1": int(report.rounds_t1),
        "trigger_weight_t0": float(report.trigger_weight_t0),
        "trigger_weight_t1": float(report.trigger_weight_t1),
        "adjusted": adjusted,
        "base_params": dict(report.base_params),
    }


def _report_from_dict(data: dict):
    from ..core.adjustment import AdjustedHyperParameters
    from ..core.embedding import EmbeddingReport

    adjusted = None
    if data.get("adjusted") is not None:
        adjusted = AdjustedHyperParameters(**data["adjusted"])
    return EmbeddingReport(
        rounds_t0=int(data["rounds_t0"]),
        rounds_t1=int(data["rounds_t1"]),
        trigger_weight_t0=float(data["trigger_weight_t0"]),
        trigger_weight_t1=float(data["trigger_weight_t1"]),
        adjusted=adjusted,
        base_params=dict(data["base_params"]),
    )


def watermarked_to_dict(model) -> dict:
    """Serialise a :class:`~repro.core.embedding.WatermarkedModel`.

    The artefact contains the owner's secret (signature + trigger set)
    — treat it like the secret itself.  The binary exporter's audit
    trailer, by contrast, is secrets-free.
    """
    return {
        "format_version": FORMAT_VERSION,
        "kind": "watermarked",
        "ensemble": forest_to_dict(model.ensemble),
        "signature": model.signature.to_string(),
        "trigger": {
            "indices": model.trigger.indices.tolist(),
            "X": model.trigger.X.tolist(),
            "y": [int(v) for v in model.trigger.y],
        },
        "report": _report_to_dict(model.report),
    }


def watermarked_from_dict(data: dict):
    """Inverse of :func:`watermarked_to_dict`."""
    from ..core.embedding import WatermarkedModel
    from ..core.trigger import TriggerSet

    try:
        if data["format_version"] != FORMAT_VERSION:
            raise SerializationError(
                f"unsupported format version {data['format_version']}"
            )
        kind = data.get("kind", "watermarked")
        if kind != "watermarked":
            raise SerializationError(
                f"expected a watermarked artefact, got kind {kind!r}"
            )
        trigger = TriggerSet(
            indices=np.array(data["trigger"]["indices"], dtype=np.int64),
            X=np.array(data["trigger"]["X"], dtype=np.float64),
            y=np.array(data["trigger"]["y"], dtype=np.int64),
        )
        return WatermarkedModel(
            ensemble=forest_from_dict(data["ensemble"]),
            signature=Signature.from_string(data["signature"]),
            trigger=trigger,
            report=_report_from_dict(data["report"]),
        )
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed watermarked model data: {exc}") from exc


def secret_to_dict(secret: WatermarkSecret) -> dict:
    """Serialise the owner's secret (signature + trigger set)."""
    return {
        "format_version": FORMAT_VERSION,
        "signature": secret.signature.to_string(),
        "trigger_X": secret.trigger_X.tolist(),
        "trigger_y": [int(v) for v in secret.trigger_y],
    }


def secret_from_dict(data: dict) -> WatermarkSecret:
    """Inverse of :func:`secret_to_dict`."""
    try:
        return WatermarkSecret(
            signature=Signature.from_string(data["signature"]),
            trigger_X=np.array(data["trigger_X"], dtype=np.float64),
            trigger_y=np.array(data["trigger_y"], dtype=np.int64),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed secret data: {exc}") from exc


def save_json(data: dict, path) -> None:
    """Write a serialised artefact to disk (crash-safe).

    The JSON is rendered in memory first and published via
    :func:`~repro.persistence.atomic.atomic_write`: a crash mid-write
    leaves the destination holding the previous complete artefact, not
    a truncated one.
    """
    # allow_nan=False: artefacts must be strict RFC 8259 JSON.  The
    # node-table serializers already map non-finite sentinels (the +inf
    # leaf threshold) to null, so a non-finite float here is a bug in
    # the caller, not a representable value.
    text = json.dumps(data, allow_nan=False)
    with atomic_write(path, "w") as fh:
        fh.write(text)


def load_json(path) -> dict:
    """Read a serialised artefact from disk."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON in {path}: {exc}") from exc
