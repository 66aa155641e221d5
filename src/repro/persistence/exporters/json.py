"""JSON artefacts — inspectable, court-facing.

A forest or boosted ensemble is written as its metadata plus its node
table (:func:`~repro.persistence.serialize.compiled_to_dict`) under
``tables``; a watermarked model nests its forest's dict beside the
signature, trigger set and embedding report.  JSON is the format for
audits and ownership disputes — every node of every tree is
human-readable — not for serving (see :mod:`.binary` for that).
Artefacts of earlier releases, which nest node dicts under ``trees``,
still load; a restored model serves from its validated node table
either way.

Writes go through :func:`~repro.persistence.serialize.save_json`, which
publishes via :func:`~repro.persistence.atomic.atomic_write` — a crash
mid-save leaves the previous complete artefact at the path, never a
truncated one.
"""

from __future__ import annotations

from ...exceptions import SerializationError
from ..serialize import (
    boosted_from_dict,
    boosted_to_dict,
    forest_from_dict,
    forest_to_dict,
    load_json,
    save_json,
    secret_from_dict,
    secret_to_dict,
    watermarked_from_dict,
    watermarked_to_dict,
)
from .base import Exporter, register

__all__ = ["JsonExporter"]


class JsonExporter(Exporter):
    """JSON artefacts: metadata plus the node table."""

    name = "json"
    extensions = (".json",)
    magic = b"{"
    supports_mmap = False

    def save(self, model, path) -> None:
        from ...core.embedding import WatermarkedModel
        from ...core.protocol import WatermarkSecret
        from ...ensemble.boosting import GradientBoostingClassifier
        from ...ensemble.forest import RandomForestClassifier

        if isinstance(model, WatermarkedModel):
            data = watermarked_to_dict(model)
        elif isinstance(model, RandomForestClassifier):
            data = forest_to_dict(model)
        elif isinstance(model, GradientBoostingClassifier):
            data = boosted_to_dict(model)
        elif isinstance(model, WatermarkSecret):
            data = secret_to_dict(model)
        else:
            raise SerializationError(
                f"the json exporter cannot serialise {type(model).__name__!r}"
            )
        save_json(data, path)

    def load(self, path, mmap_mode: str | None = None):
        # mmap_mode is advisory; JSON always parses.
        data = load_json(path)
        if not isinstance(data, dict):
            raise SerializationError(
                f"{path} does not contain a JSON object artefact"
            )
        kind = data.get("kind")
        if kind == "watermarked":
            return watermarked_from_dict(data)
        if kind == "gradient_boosting":
            return boosted_from_dict(data)
        # Forest dicts of earlier releases carry no kind.
        if kind == "forest" or (kind is None and "trees" in data):
            return forest_from_dict(data)
        if kind is not None:
            raise SerializationError(f"unknown artefact kind {kind!r} in {path}")
        if "signature" in data:
            return secret_from_dict(data)
        raise SerializationError(
            f"{path} is not a recognised repro JSON artefact "
            "(expected a forest, boosted ensemble, watermarked model or secret)"
        )


register(JsonExporter())
