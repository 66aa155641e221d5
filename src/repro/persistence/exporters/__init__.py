"""The pluggable exporter family.

Importing this package registers the built-in formats:

- ``binary`` — flat ``.rfbin`` node tables, mmap-able zero-copy serving
  format (:mod:`.binary`);
- ``json`` — the inspectable, court-facing format; it also reads the
  node-dict artefacts of earlier releases (:mod:`.json`);
- ``sklearn`` — ``tree_``-convention ``.npz`` arrays for interop
  (:mod:`.sklearn`).

All three store a model's node table plus its metadata through one
codec (:func:`~repro.persistence.serialize.model_to_tables` /
:func:`~repro.persistence.serialize.model_from_tables`).  Third-party
formats subclass :class:`~.base.Exporter` and call
:func:`~.base.register`.
"""

from .base import (
    Exporter,
    available_formats,
    detect_format,
    format_for_path,
    get_exporter,
    register,
)
from .binary import MAGIC, BinaryExporter
from .json import JsonExporter
from .sklearn import SklearnExporter

__all__ = [
    "Exporter",
    "register",
    "get_exporter",
    "available_formats",
    "detect_format",
    "format_for_path",
    "BinaryExporter",
    "JsonExporter",
    "SklearnExporter",
    "MAGIC",
]
