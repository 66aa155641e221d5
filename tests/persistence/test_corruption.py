"""Corrupted-artefact battery for the binary format and outside tables.

Every damaged artefact must raise :class:`SerializationError` with a
message naming the problem — never a crash, never a silently wrong
model.  The judge of an ownership dispute has to be able to trust that
a loaded model is exactly what was written.
"""

import json
import struct

import numpy as np
import pytest

from repro.exceptions import SerializationError
from repro.persistence import load, save
from repro.persistence.exporters.binary import _HEADER, _SECTION, MAGIC


@pytest.fixture()
def artifact(bc_forest, tmp_path):
    path = tmp_path / "forest.rfbin"
    save(bc_forest, path)
    return path


def _header_fields(path):
    return list(_HEADER.unpack(path.read_bytes()[: _HEADER.size]))


def _rewrite_header(path, fields):
    blob = bytearray(path.read_bytes())
    blob[: _HEADER.size] = _HEADER.pack(*fields)
    path.write_bytes(bytes(blob))


def _section_records(blob):
    n_sections = _HEADER.unpack(blob[: _HEADER.size])[5]
    return [
        _SECTION.unpack(
            blob[_HEADER.size + i * _SECTION.size : _HEADER.size + (i + 1) * _SECTION.size]
        )
        for i in range(n_sections)
    ]


def _largest_section(blob):
    """(offset, nbytes) of the biggest payload section — a guaranteed
    CRC-covered target (alignment padding between sections is not)."""
    return max(((r[5], r[6]) for r in _section_records(blob)), key=lambda t: t[1])


class TestTruncation:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.rfbin"
        path.write_bytes(b"")
        with pytest.raises(SerializationError, match="truncated"):
            load(path, format="binary")

    def test_header_only(self, artifact):
        artifact.write_bytes(artifact.read_bytes()[: _HEADER.size])
        with pytest.raises(SerializationError, match="truncated|corrupt"):
            load(artifact)

    def test_payload_cut_short(self, artifact):
        blob = artifact.read_bytes()
        artifact.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(SerializationError, match="truncated|corrupt"):
            load(artifact)

    def test_trailer_missing(self, artifact):
        fields = _header_fields(artifact)
        trailer_offset = fields[7]
        artifact.write_bytes(artifact.read_bytes()[:trailer_offset])
        with pytest.raises(SerializationError, match="trailer"):
            load(artifact)


class TestBitFlips:
    def test_flipped_payload_byte_caught_by_crc(self, artifact):
        # Flip one bit in the middle of the largest section payload; the
        # header and table stay intact so only the per-section CRC can
        # notice.
        blob = bytearray(artifact.read_bytes())
        offset, nbytes = _largest_section(blob)
        blob[offset + nbytes // 2] ^= 0x40
        artifact.write_bytes(bytes(blob))
        with pytest.raises(SerializationError, match="CRC mismatch"):
            load(artifact)

    def test_every_section_is_covered(self, artifact):
        # Flip a byte inside each declared section in turn: every single
        # one must be caught, not just the big ones.
        blob = artifact.read_bytes()
        for record in _section_records(blob):
            offset, nbytes = record[5], record[6]
            if nbytes == 0:
                continue
            damaged = bytearray(blob)
            damaged[offset] ^= 0x01
            artifact.write_bytes(bytes(damaged))
            with pytest.raises(SerializationError, match="CRC mismatch"):
                load(artifact)
        artifact.write_bytes(blob)  # restore for hygiene

    def test_flipped_section_table_caught(self, artifact):
        blob = bytearray(artifact.read_bytes())
        blob[_HEADER.size + 4] ^= 0x10  # inside the first section record
        artifact.write_bytes(bytes(blob))
        with pytest.raises(SerializationError, match="section table CRC"):
            load(artifact)

    def test_flipped_trailer_caught(self, artifact):
        fields = _header_fields(artifact)
        trailer_offset = fields[7]
        blob = bytearray(artifact.read_bytes())
        blob[trailer_offset + 2] ^= 0x20
        artifact.write_bytes(bytes(blob))
        with pytest.raises(SerializationError, match="trailer CRC"):
            load(artifact)

    def test_mmap_verify_flag_checks_payload(self, artifact):
        # mmap loads skip payload CRCs by default (that is the point of
        # zero-copy) but verify=True must still catch the damage.
        blob = bytearray(artifact.read_bytes())
        offset, nbytes = _largest_section(blob)
        blob[offset + nbytes // 2] ^= 0x04
        artifact.write_bytes(bytes(blob))
        with pytest.raises(SerializationError, match="CRC mismatch"):
            load(artifact, mmap_mode="r", verify=True)


class TestWrongMagic:
    def test_not_an_rfbin_file(self, artifact):
        blob = bytearray(artifact.read_bytes())
        blob[:8] = b"NOTMAGIC"
        artifact.write_bytes(bytes(blob))
        with pytest.raises(SerializationError, match="bad magic"):
            load(artifact, format="binary")

    def test_json_fed_to_binary_loader(self, bc_forest, tmp_path):
        path = tmp_path / "forest.json"
        save(bc_forest, path, format="json")
        with pytest.raises(SerializationError, match="bad magic"):
            load(path, format="binary")


class TestEndianness:
    def test_byte_swapped_artifact_refused(self, artifact):
        fields = _header_fields(artifact)
        fields[3] = b">" if fields[3] == b"<" else b"<"
        _rewrite_header(artifact, fields)
        with pytest.raises(SerializationError, match="endian"):
            load(artifact)

    def test_foreign_endian_section_dtype_refused(self, artifact):
        blob = bytearray(artifact.read_bytes())
        record = _SECTION.unpack(
            bytes(blob[_HEADER.size : _HEADER.size + _SECTION.size])
        )
        dtype = record[1].rstrip(b"\x00")
        swapped = (b">" + dtype[1:]).ljust(8, b"\x00")
        fixed = _SECTION.pack(record[0], swapped, *record[2:])
        blob[_HEADER.size : _HEADER.size + _SECTION.size] = fixed
        # Recompute the table CRC so only the dtype check can fire.
        fields = list(_HEADER.unpack(bytes(blob[: _HEADER.size])))
        n_sections = fields[5]
        import zlib

        table = bytes(blob[_HEADER.size : _HEADER.size + _SECTION.size * n_sections])
        fields[10] = zlib.crc32(table)
        blob[: _HEADER.size] = _HEADER.pack(*fields)
        artifact.write_bytes(bytes(blob))
        with pytest.raises(SerializationError, match="endian"):
            load(artifact)


class TestVersioning:
    def test_version_from_the_future(self, artifact):
        fields = _header_fields(artifact)
        fields[1] = 99  # ver_major
        _rewrite_header(artifact, fields)
        with pytest.raises(SerializationError, match="newer than the supported"):
            load(artifact)

    def test_future_minor_version_also_refused(self, artifact):
        fields = _header_fields(artifact)
        fields[2] = 99  # ver_minor
        _rewrite_header(artifact, fields)
        with pytest.raises(SerializationError, match="newer than the supported"):
            load(artifact)


class TestStructuralDamage:
    def test_section_pointing_past_payload(self, artifact):
        import zlib

        blob = bytearray(artifact.read_bytes())
        record = list(
            _SECTION.unpack(bytes(blob[_HEADER.size : _HEADER.size + _SECTION.size]))
        )
        record[5] = 2**40  # offset way outside the file (keeps alignment)
        blob[_HEADER.size : _HEADER.size + _SECTION.size] = _SECTION.pack(*record)
        fields = list(_HEADER.unpack(bytes(blob[: _HEADER.size])))
        table = bytes(
            blob[_HEADER.size : _HEADER.size + _SECTION.size * fields[5]]
        )
        fields[10] = zlib.crc32(table)
        blob[: _HEADER.size] = _HEADER.pack(*fields)
        artifact.write_bytes(bytes(blob))
        with pytest.raises(SerializationError, match="truncated or corrupt"):
            load(artifact)

    def test_resigned_invalid_tables_rejected(self, artifact):
        # Defence in depth beyond CRCs: an attacker who *re-signs* a
        # tampered section passes every checksum, but structurally
        # invalid node tables (a child index outside the table) are
        # still refused by table validation at load time.
        import zlib

        blob = bytearray(artifact.read_bytes())
        fields = list(_HEADER.unpack(bytes(blob[: _HEADER.size])))
        n_sections = fields[5]
        for index in range(n_sections):
            start = _HEADER.size + index * _SECTION.size
            record = list(_SECTION.unpack(bytes(blob[start : start + _SECTION.size])))
            if record[0].rstrip(b"\x00") == b"left":
                arr = np.frombuffer(
                    bytes(blob[record[5] : record[5] + record[6]]), dtype=np.int64
                ).copy()
                arr[0] = arr.shape[0] + 1000  # point outside the table
                payload = arr.tobytes()
                blob[record[5] : record[5] + record[6]] = payload
                record[7] = zlib.crc32(payload)
                blob[start : start + _SECTION.size] = _SECTION.pack(*record)
        table = bytes(blob[_HEADER.size : _HEADER.size + _SECTION.size * n_sections])
        fields[10] = zlib.crc32(table)
        blob[: _HEADER.size] = _HEADER.pack(*fields)
        artifact.write_bytes(bytes(blob))
        with pytest.raises(SerializationError, match="outside the node table"):
            load(artifact)


def _tampered_npz(forest, path, key, tamper):
    """Save ``forest`` as ``.npz``, then rewrite tree 0's ``key`` array."""
    save(forest, path, format="sklearn")
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    arrays[f"est0_{key}"] = tamper(arrays[f"est0_{key}"].copy())
    np.savez(path, **arrays)
    return path


def _tampered_node_dicts(forest, path, tamper):
    """Write ``forest`` as an earlier release's node-dict JSON, tampered."""
    from legacy_node_dicts import legacy_forest_dict

    data = legacy_forest_dict(forest)
    tamper(data["trees"][0])
    path.write_text(json.dumps(data))
    return path


def _set(index, value):
    def tamper(arr):
        arr[index] = value
        return arr

    return tamper


class TestOutsideTables:
    """Every reader validates the node tables it builds from outside
    data, not only ``.rfbin`` and table JSON: the object walk and the
    table route must never disagree on a loaded model."""

    @pytest.mark.parametrize(
        "write,message",
        [
            pytest.param(
                lambda f, d: _tampered_npz(f, d / "m.npz", "threshold", _set(0, np.nan)),
                "threshold contains NaN",
                id="npz-nan-threshold",
            ),
            pytest.param(
                lambda f, d: _tampered_npz(f, d / "m.npz", "children_left", _set(0, 10**6)),
                "outside its node arrays",
                id="npz-child-out-of-range",
            ),
            pytest.param(
                lambda f, d: _tampered_npz(f, d / "m.npz", "children_right", _set(0, -5)),
                "outside its node arrays",
                id="npz-negative-child",
            ),
            pytest.param(
                lambda f, d: _tampered_node_dicts(
                    f, d / "m.json", lambda root: root.__setitem__("threshold", float("nan"))
                ),
                "threshold contains NaN",
                id="node-dicts-nan-threshold",
            ),
        ],
    )
    def test_malformed_outside_table_rejected(self, bc_forest, tmp_path, write, message):
        path = write(bc_forest, tmp_path)
        with pytest.raises(SerializationError, match=message):
            load(path)


class TestCrashSafeWrites:
    """A crash mid-save must never corrupt the published artefact."""

    @pytest.fixture()
    def crash_on_publish(self, monkeypatch):
        """Make the atomic rename explode — simulating a crash after the
        temp file was written but before it replaced the destination."""
        import repro.persistence.atomic as atomic_mod

        def boom(src, dst):
            raise OSError("simulated crash at publish time")

        monkeypatch.setattr(atomic_mod.os, "replace", boom)

    @pytest.mark.parametrize("suffix", [".rfbin", ".json", ".npz"])
    def test_crash_leaves_previous_artifact_intact(
        self, bc_forest, tmp_path, crash_on_publish, suffix
    ):
        path = tmp_path / f"model{suffix}"
        original = b"previous complete artefact"
        path.write_bytes(original)
        with pytest.raises(OSError, match="simulated crash"):
            save(bc_forest, path)
        assert path.read_bytes() == original

    @pytest.mark.parametrize("suffix", [".rfbin", ".json", ".npz"])
    def test_crash_leaves_no_temp_litter(
        self, bc_forest, tmp_path, crash_on_publish, suffix
    ):
        path = tmp_path / f"model{suffix}"
        with pytest.raises(OSError, match="simulated crash"):
            save(bc_forest, path)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_crash_during_write_leaves_destination_untouched(
        self, bc_forest, tmp_path, monkeypatch
    ):
        # Crash *inside* the write (before fsync): np.savez raising is
        # representative of any mid-body failure.
        path = tmp_path / "model.rfbin"
        original = b"previous complete artefact"
        path.write_bytes(original)

        import repro.persistence.exporters.binary as binary_mod

        def boom(*args, **kwargs):
            raise RuntimeError("simulated crash mid-body")

        monkeypatch.setattr(binary_mod, "_model_sections", boom)
        with pytest.raises(RuntimeError, match="mid-body"):
            save(bc_forest, path, format="binary")
        assert path.read_bytes() == original
        assert list(tmp_path.iterdir()) == [path]

    def test_successful_save_is_atomic_replacement(self, bc_forest, tmp_path):
        path = tmp_path / "model.rfbin"
        path.write_bytes(b"stale bytes")
        save(bc_forest, path)
        loaded = load(path)
        assert loaded.predict(np.zeros((1, bc_forest.n_features_in_))) is not None
        assert list(tmp_path.iterdir()) == [path]
