"""Versioned binary snapshot container: a JSON header and named raw arrays.

Layout: magic, format version, a kind tag identifying what was serialized,
then a CRC-protected body, checked before it is read.  The body is the
length of the header, the header as canonical UTF-8 JSON, and the bytes of
each array in turn; the header's ``arrays`` table gives each one's name,
dtype, shape and offset.  Arrays are little-endian and C-ordered, and an
integer array with no negative entry is written in the smallest unsigned
dtype that holds it.  A load parses JSON and reads arrays with
``np.frombuffer``, so it never runs code from the file.
"""

from __future__ import annotations

import json
import math
import struct
import zlib

import numpy as np

from .errors import SnapshotError

MAGIC = b"HGSN"
_HEADER = struct.Struct(">4sII")  # magic, version, kind length
_PAYLOAD_HEADER = struct.Struct(">QI")  # payload length, crc32
_TEXT_LENGTH = struct.Struct(">Q")
_TABLE_KEYS = {"name", "dtype", "shape", "offset"}  # an array of at most 8 axes
_DTYPES = {np.dtype(t).str for t in ("?", "u1", "<u2", "<u4", "<u8", "i1", "<i2", "<i4", "<i8",
                                     "<f8")}


def pack(kind: str, version: int, header: dict, arrays: dict) -> bytes:
    """Serialize a JSON-able ``header`` and named ``arrays`` under a kind tag and format version."""
    table, chunks, offset = [], [], 0
    for name, value in arrays.items():
        value = np.asarray(value)
        if value.dtype.kind in "iu" and (value.size == 0 or value.min() >= 0):
            value = value.astype(np.min_scalar_type(int(value.max(initial=0))), copy=False)
        value = np.ascontiguousarray(value, dtype=value.dtype.newbyteorder("<"))
        table.append({"name": name, "dtype": value.dtype.str, "shape": list(value.shape),
                      "offset": offset})
        chunks.append(value.reshape(-1).view(np.uint8))
        offset += value.nbytes
    text = json.dumps({**header, "arrays": table}, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    body = [_TEXT_LENGTH.pack(len(text)), text, *chunks]
    crc = 0
    for part in body:
        crc = zlib.crc32(part, crc)
    kind_bytes = kind.encode("utf-8")
    return b"".join([_HEADER.pack(MAGIC, version, len(kind_bytes)), kind_bytes,
                     _PAYLOAD_HEADER.pack(_TEXT_LENGTH.size + len(text) + offset, crc), *body])


def unpack(data: bytes, kind: str, version: int) -> tuple[dict, dict]:
    """Validate a snapshot produced by :func:`pack`; its header and arrays, views of ``data``."""
    got_kind, got_version = read_header(data)
    if got_kind != kind:
        raise SnapshotError(f"snapshot holds {got_kind!r}, expected {kind!r}")
    if got_version != version:
        raise SnapshotError(f"unsupported {kind} snapshot version {got_version}, "
                            f"expected {version}")
    offset = _HEADER.size + len(kind.encode("utf-8"))
    if len(data) < offset + _PAYLOAD_HEADER.size:
        raise SnapshotError("snapshot is truncated")
    body_len, crc = _PAYLOAD_HEADER.unpack_from(data, offset)
    offset += _PAYLOAD_HEADER.size
    if len(data) < offset + body_len:
        raise SnapshotError("snapshot is truncated")
    body = memoryview(data)[offset : offset + body_len]
    if zlib.crc32(body) != crc:
        raise SnapshotError("snapshot payload is corrupted (checksum mismatch)")
    start = _TEXT_LENGTH.size + (_TEXT_LENGTH.unpack_from(body)[0] if body_len >= 8 else 0)
    if start > body_len:
        raise SnapshotError("snapshot header runs past the body")
    try:
        header = json.loads(bytes(body[_TEXT_LENGTH.size : start]).decode("utf-8"))
    except (RecursionError, UnicodeDecodeError, ValueError) as exc:
        raise SnapshotError(f"snapshot header is not JSON: {exc}") from exc
    table = header.pop("arrays", None) if isinstance(header, dict) else None
    if not isinstance(table, list):
        raise SnapshotError("snapshot header must be an object with an arrays table")
    arrays, end = {}, start
    for entry in table:
        if not (isinstance(entry, dict) and entry.keys() == _TABLE_KEYS
                and isinstance(entry["name"], str) and entry["name"] not in arrays
                and isinstance(entry["dtype"], str) and entry["dtype"] in _DTYPES
                and isinstance(entry["shape"], list) and len(entry["shape"]) <= 8
                and all(type(size) is int and size >= 0 for size in entry["shape"])):
            raise SnapshotError(f"snapshot array table entry is malformed or repeated: "
                                f"{entry!r:.200}")
        dtype, count = np.dtype(entry["dtype"]), math.prod(entry["shape"])
        if (type(entry["offset"]) is not int or entry["offset"] != end - start
                or end + count * dtype.itemsize > body_len):
            raise SnapshotError(f"snapshot array {entry['name']!r} does not fit the body")
        arrays[entry["name"]] = np.frombuffer(body, dtype, count, end).reshape(entry["shape"])
        end += count * dtype.itemsize
    if end != body_len:
        raise SnapshotError("snapshot array table does not cover the body")
    return header, arrays


def read_header(data: bytes) -> tuple[str, int]:
    """Return (kind, version) without deserializing the payload."""
    if len(data) < _HEADER.size:
        raise SnapshotError("snapshot is truncated")
    magic, version, kind_len = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise SnapshotError("not a snapshot file (bad magic)")
    return data[_HEADER.size : _HEADER.size + kind_len].decode("utf-8", "replace"), version
