"""Model persistence — a registry of formats behind two functions.

:func:`save` writes any supported model (forest, boosted ensemble,
watermarked model, secret) in an explicitly named format or the one
implied by the path's extension; :func:`load` dispatches on the file's
*content* (its magic bytes), so artefacts load correctly regardless of
how they were named.  See :mod:`repro.persistence.exporters` for the
built-in formats and :doc:`docs/persistence` for the ``.rfbin`` spec.

The dict-level helpers from :mod:`.serialize` remain exported for code
that manipulates artefacts structurally (tests, audits, the CLI).
"""

from .exporters import (
    Exporter,
    available_formats,
    detect_format,
    format_for_path,
    get_exporter,
    register,
)
from .serialize import (
    boosted_from_dict,
    boosted_to_dict,
    compiled_from_dict,
    compiled_to_dict,
    forest_from_dict,
    forest_to_dict,
    load_json,
    model_from_tables,
    model_to_tables,
    node_from_dict,
    regression_node_from_dict,
    save_json,
    secret_from_dict,
    secret_to_dict,
    watermarked_from_dict,
    watermarked_to_dict,
)

__all__ = [
    "save",
    "load",
    "Exporter",
    "register",
    "get_exporter",
    "available_formats",
    "detect_format",
    "format_for_path",
    "boosted_from_dict",
    "boosted_to_dict",
    "compiled_from_dict",
    "compiled_to_dict",
    "forest_from_dict",
    "forest_to_dict",
    "load_json",
    "model_from_tables",
    "model_to_tables",
    "node_from_dict",
    "regression_node_from_dict",
    "save_json",
    "secret_from_dict",
    "secret_to_dict",
    "watermarked_from_dict",
    "watermarked_to_dict",
]


def save(model, path, format: str | None = None) -> None:
    """Write ``model`` to ``path``.

    The format is ``format`` if given, else inferred from the path's
    extension (``.rfbin`` → binary, ``.json`` → json, ``.npz`` →
    sklearn).  Every format stores the model's node table plus its
    metadata (:func:`model_to_tables`); they differ in the container.
    """
    format_for_path(path, format).save(model, path)


def load(path, format: str | None = None, mmap_mode: str | None = None, **kwargs):
    """Load the model artefact at ``path``.

    With ``format=None`` the format is detected from the file's magic
    bytes.  ``mmap_mode="r"`` asks for a zero-copy memory-mapped load
    where the format supports it (``.rfbin``): the compiled node tables
    stay file-backed and are shared across processes via the page
    cache; formats that cannot map simply parse as usual.
    """
    exporter = get_exporter(format) if format is not None else detect_format(path)
    return exporter.load(path, mmap_mode=mmap_mode, **kwargs)
