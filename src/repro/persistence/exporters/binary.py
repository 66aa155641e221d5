"""The ``.rfbin`` zero-copy binary format.

Layout (all integers little-endian on LE hosts; the header records the
byte order and loaders refuse foreign-endian artefacts)::

    [ 64 B  header   ]  magic, format version, byte order, section count,
                        trailer location, CRC32s of table and trailer
    [ 64 B  × N      ]  section records: name, dtype, shape, offset,
                        nbytes, CRC32 of the section payload
    [ payload        ]  the CompiledEnsemble arrays plus bookkeeping
                        sections, each 64-byte aligned and contiguous
    [ JSON trailer   ]  secrets-free audit metadata (kind, params,
                        depth, counts) — greppable without a parser

Because the payload *is* the compiled node table, loading with
``mmap_mode="r"`` maps the file and wraps typed views over it — no
parse, no copy, and N worker processes mapping the same artefact share
one physical copy of the tables in the page cache.  Payload CRCs are
verified on buffered loads (default) and skipped on mmap loads unless
``verify=True`` (verification touches every page, defeating laziness).
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
from pathlib import Path

import numpy as np

from ...ensemble.compiled import TABLE_KEYS, CompiledEnsemble
from ...exceptions import SerializationError
from ..atomic import atomic_write
from ..serialize import (
    FORMAT_VERSION,
    _report_from_dict,
    _report_to_dict,
    model_from_tables,
    model_to_tables,
)
from .base import Exporter, register

__all__ = ["BinaryExporter", "MAGIC"]

MAGIC = b"\x93RFBIN\r\n"

# magic, ver_major, ver_minor, byteorder, reserved, n_sections,
# table_offset, trailer_offset, trailer_nbytes, trailer_crc, table_crc
_HEADER = struct.Struct("<8sHHcBHQQQII16x")
assert _HEADER.size == 64

# name, dtype, ndim, shape0, shape1, offset, nbytes, crc
_SECTION = struct.Struct("<12s8sB3xQQQQI4x")
assert _SECTION.size == 64

_VERSION = (1, 0)
_ALIGN = 64

_NATIVE_ORDER = b"<" if sys.byteorder == "little" else b">"


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _model_sections(model) -> tuple[list[tuple[str, np.ndarray]], dict]:
    """``(sections, trailer)`` for any supported model object."""
    from ...core.embedding import WatermarkedModel

    watermarked = isinstance(model, WatermarkedModel)
    engine, metadata = model_to_tables(model.ensemble if watermarked else model)
    tables = engine.to_tables()
    sections = [
        (name, np.ascontiguousarray(tables[name]))
        for name in TABLE_KEYS
        if tables[name] is not None
    ]
    subsets = metadata.pop("feature_subsets", None)
    if subsets is not None:
        sections.append(("subset_flat", np.ascontiguousarray(
            np.concatenate(subsets) if subsets else np.empty(0, dtype=np.int64))))
        sections.append(("subset_len", np.array([s.shape[0] for s in subsets], dtype=np.int64)))
    trailer = {
        "format": "rfbin",
        "version": list(_VERSION),
        "serialize_format_version": FORMAT_VERSION,
        "n_trees": int(engine.n_trees),
        "depth": int(engine.depth),
        "leaf_value_dtype": str(engine.leaf_value.dtype),
        **metadata,
    }
    if watermarked:
        trailer["kind"] = "watermarked"
        trailer["report"] = _report_to_dict(model.report)
        sections.append(("trigger_X", np.ascontiguousarray(model.trigger.X, dtype=np.float64)))
        sections.append(("trigger_y", np.ascontiguousarray(model.trigger.y, dtype=np.int64)))
        sections.append(("trigger_idx", np.ascontiguousarray(model.trigger.indices, dtype=np.int64)))
        secret = json.dumps(
            {"signature": model.signature.to_string()}, allow_nan=False
        ).encode("utf-8")
        sections.append(("secret_json", np.frombuffer(secret, dtype=np.uint8)))
    return sections, trailer


class BinaryExporter(Exporter):
    """Flat ``.rfbin`` artefacts — the zero-copy serving format."""

    name = "binary"
    extensions = (".rfbin",)
    magic = MAGIC
    supports_mmap = True

    # ------------------------------------------------------------------
    # save
    # ------------------------------------------------------------------

    def save(self, model, path) -> None:
        sections, trailer = _model_sections(model)
        records = []
        offset = _aligned(_HEADER.size + _SECTION.size * len(sections))
        for name, arr in sections:
            if arr.ndim > 2:
                raise SerializationError(
                    f"section {name!r} has unsupported ndim {arr.ndim}"
                )
            data = arr.tobytes()
            records.append(
                {
                    "name": name,
                    "dtype": arr.dtype.str,
                    "ndim": arr.ndim,
                    "shape": (arr.shape + (0, 0))[:2],
                    "offset": offset,
                    "nbytes": len(data),
                    "crc": zlib.crc32(data),
                    "data": data,
                }
            )
            offset = _aligned(offset + len(data))
        trailer_bytes = json.dumps(trailer, sort_keys=True, allow_nan=False).encode(
            "utf-8"
        )
        trailer_offset = offset

        table = b"".join(
            _SECTION.pack(
                rec["name"].encode("ascii"),
                rec["dtype"].encode("ascii"),
                rec["ndim"],
                rec["shape"][0],
                rec["shape"][1],
                rec["offset"],
                rec["nbytes"],
                rec["crc"],
            )
            for rec in records
        )
        header = _HEADER.pack(
            MAGIC,
            _VERSION[0],
            _VERSION[1],
            _NATIVE_ORDER,
            0,
            len(records),
            _HEADER.size,
            trailer_offset,
            len(trailer_bytes),
            zlib.crc32(trailer_bytes),
            zlib.crc32(table),
        )
        # Crash-safe: the artefact is assembled in a temp sibling and
        # atomically renamed into place, so the published path never
        # holds a truncated file (a reader would otherwise fail its CRC
        # check at best, or mmap garbage at worst).
        with atomic_write(path, "wb") as fh:
            fh.write(header)
            fh.write(table)
            position = _HEADER.size + len(table)
            for rec in records:
                fh.write(b"\x00" * (rec["offset"] - position))
                fh.write(rec["data"])
                position = rec["offset"] + rec["nbytes"]
            fh.write(b"\x00" * (trailer_offset - position))
            fh.write(trailer_bytes)

    # ------------------------------------------------------------------
    # load
    # ------------------------------------------------------------------

    def load(self, path, mmap_mode: str | None = None, verify: bool | None = None):
        path = Path(path)
        file_size = path.stat().st_size
        if file_size < _HEADER.size:
            raise SerializationError(
                f"{path} is truncated: {file_size} bytes is smaller than the "
                f"{_HEADER.size}-byte header"
            )
        with open(path, "rb") as fh:
            header = fh.read(_HEADER.size)
            (
                magic,
                ver_major,
                ver_minor,
                byteorder,
                _reserved,
                n_sections,
                table_offset,
                trailer_offset,
                trailer_nbytes,
                trailer_crc,
                table_crc,
            ) = _HEADER.unpack(header)
            if magic != MAGIC:
                raise SerializationError(
                    f"{path} is not a .rfbin artefact (bad magic {magic!r})"
                )
            if (ver_major, ver_minor) > _VERSION:
                raise SerializationError(
                    f"{path} uses .rfbin format version {ver_major}.{ver_minor}, "
                    f"newer than the supported {_VERSION[0]}.{_VERSION[1]}; "
                    "upgrade the library to read it"
                )
            if byteorder != _NATIVE_ORDER:
                theirs = "big" if byteorder == b">" else "little"
                raise SerializationError(
                    f"{path} was written on a {theirs}-endian machine; this "
                    f"host is {sys.byteorder}-endian and cannot map it"
                )
            table_end = table_offset + _SECTION.size * n_sections
            if table_offset != _HEADER.size or table_end > file_size:
                raise SerializationError(
                    f"{path} is truncated or corrupt: the section table does "
                    "not fit in the file"
                )
            if trailer_offset + trailer_nbytes > file_size:
                raise SerializationError(
                    f"{path} is truncated: the metadata trailer extends past "
                    "the end of the file"
                )
            fh.seek(table_offset)
            table = fh.read(_SECTION.size * n_sections)
            if zlib.crc32(table) != table_crc:
                raise SerializationError(
                    f"section table CRC mismatch in {path}: the artefact is "
                    "corrupted"
                )
            fh.seek(trailer_offset)
            trailer_bytes = fh.read(trailer_nbytes)
        if zlib.crc32(trailer_bytes) != trailer_crc:
            raise SerializationError(
                f"metadata trailer CRC mismatch in {path}: the artefact is "
                "corrupted"
            )
        try:
            trailer = json.loads(trailer_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SerializationError(
                f"metadata trailer in {path} is not valid JSON: {exc}"
            ) from exc

        records = []
        for index in range(n_sections):
            raw = table[index * _SECTION.size : (index + 1) * _SECTION.size]
            name_b, dtype_b, ndim, shape0, shape1, offset, nbytes, crc = (
                _SECTION.unpack(raw)
            )
            name = name_b.rstrip(b"\x00").decode("ascii")
            dtype_str = dtype_b.rstrip(b"\x00").decode("ascii")
            try:
                dtype = np.dtype(dtype_str)
            except TypeError as exc:
                raise SerializationError(
                    f"section {name!r} in {path} declares unknown dtype "
                    f"{dtype_str!r}"
                ) from exc
            if dtype.byteorder not in ("=", "|", _NATIVE_ORDER.decode()):
                raise SerializationError(
                    f"section {name!r} in {path} is foreign-endian "
                    f"({dtype_str!r}); this host cannot map it"
                )
            shape = (shape0,) if ndim == 1 else (shape0, shape1)
            if ndim not in (1, 2):
                raise SerializationError(
                    f"section {name!r} in {path} has unsupported ndim {ndim}"
                )
            expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
            if expected != nbytes:
                raise SerializationError(
                    f"section {name!r} in {path} declares {nbytes} bytes but "
                    f"its shape {shape} needs {expected}"
                )
            if offset % _ALIGN != 0:
                raise SerializationError(
                    f"section {name!r} in {path} is misaligned "
                    f"(offset {offset} is not {_ALIGN}-byte aligned)"
                )
            if offset + nbytes > trailer_offset:
                raise SerializationError(
                    f"{path} is truncated or corrupt: section {name!r} "
                    "extends past its payload region"
                )
            records.append((name, dtype, shape, offset, nbytes, crc))

        arrays: dict[str, np.ndarray] = {}
        if mmap_mode is None:
            payload = path.read_bytes()
            for name, dtype, shape, offset, nbytes, crc in records:
                data = payload[offset : offset + nbytes]
                if zlib.crc32(data) != crc:
                    raise SerializationError(
                        f"section {name!r} CRC mismatch in {path}: the "
                        "artefact is corrupted (bit flip or partial write)"
                    )
                arrays[name] = np.frombuffer(data, dtype=dtype).reshape(shape)
        else:
            buf = np.memmap(path, dtype=np.uint8, mode="r")
            for name, dtype, shape, offset, nbytes, crc in records:
                view = buf[offset : offset + nbytes].view(dtype).reshape(shape)
                if verify and zlib.crc32(view.tobytes()) != crc:
                    raise SerializationError(
                        f"section {name!r} CRC mismatch in {path}: the "
                        "artefact is corrupted (bit flip or partial write)"
                    )
                arrays[name] = view

        metadata = dict(trailer)
        kind = metadata.get("kind")
        try:
            tables = {name: arrays.get(name) for name in TABLE_KEYS}
            for name in ("roots", "feature", "threshold", "left", "right", "leaf_value"):
                tables[name] = arrays[name]
            tables["depth"] = int(trailer["depth"])
            if kind in ("forest", "watermarked"):
                lengths = np.asarray(arrays["subset_len"], dtype=np.int64)
                flat = np.asarray(arrays["subset_flat"], dtype=np.int64)
                if int(lengths.sum()) != flat.shape[0]:
                    raise SerializationError(
                        f"feature-subset sections in {path} disagree with each other"
                    )
                metadata["kind"] = "forest"
                metadata["feature_subsets"] = [
                    np.array(chunk) for chunk in np.split(flat, np.cumsum(lengths)[:-1])
                ]
        except KeyError as exc:
            raise SerializationError(
                f"{path} is missing required section {exc.args[0]!r}"
            ) from exc
        engine = CompiledEnsemble.from_tables(tables)
        source = (str(path), "binary", mmap_mode) if mmap_mode is not None else None
        model = model_from_tables(engine, metadata, mmap_source=source)
        if kind == "watermarked":
            return self._watermarked(model, arrays, trailer, path)
        return model

    @staticmethod
    def _watermarked(forest, arrays, trailer, path):
        from ...core.embedding import WatermarkedModel
        from ...core.signature import Signature
        from ...core.trigger import TriggerSet

        try:
            secret = json.loads(bytes(arrays["secret_json"]).decode("utf-8"))
            signature = Signature.from_string(secret["signature"])
            trigger = TriggerSet(
                indices=np.asarray(arrays["trigger_idx"], dtype=np.int64),
                X=np.asarray(arrays["trigger_X"], dtype=np.float64),
                y=np.asarray(arrays["trigger_y"], dtype=np.int64),
            )
            report = _report_from_dict(trailer["report"])
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise SerializationError(
                f"malformed watermark metadata in {path}: {exc}"
            ) from exc
        return WatermarkedModel(
            ensemble=forest, signature=signature, trigger=trigger, report=report
        )


register(BinaryExporter())
