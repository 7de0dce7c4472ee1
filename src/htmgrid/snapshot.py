"""Versioned binary snapshot container.

Layout: magic, format version, a kind tag identifying what was serialized,
then a CRC-protected pickle payload.  The checksum is verified before the
payload is touched, so a corrupt or truncated file fails loudly instead of
producing a half-restored object.  The payload is read by an unpickler that
resolves only the classes a grid snapshot holds, so loading never runs
other code.
"""

from __future__ import annotations

import io
import pickle
import struct
import zlib

from .errors import SnapshotError

MAGIC = b"HGSN"
_HEADER = struct.Struct(">4sII")  # magic, version, kind length
_PAYLOAD_HEADER = struct.Struct(">QI")  # payload length, crc32

# The globals a grid snapshot references; numpy 1 and numpy 2 keep the
# array reconstructor in different modules.
_ALLOWED_GLOBALS = {
    "htmgrid.grid": {"GridConfig", "CellOverride"},
    "htmgrid.encoder": {"EncoderConfig"},
    "htmgrid.spatial_pooler": {"SpParams"},
    "htmgrid.temporal_memory": {"TmParams"},
    "htmgrid.aggregation": {"AggregationKind"},
    "numpy": {"ndarray", "dtype"},
    "numpy.core.multiarray": {"_reconstruct"},
    "numpy._core.multiarray": {"_reconstruct"},
}


class _SnapshotUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str):
        if name not in _ALLOWED_GLOBALS.get(module, ()):
            raise SnapshotError(f"snapshot may not reference {module}.{name}")
        return super().find_class(module, name)


def pack(kind: str, version: int, payload: object) -> bytes:
    """Serialize ``payload`` under a kind tag and format version."""
    kind_bytes = kind.encode("utf-8")
    body = pickle.dumps(payload, protocol=4)
    return b"".join(
        [
            _HEADER.pack(MAGIC, version, len(kind_bytes)),
            kind_bytes,
            _PAYLOAD_HEADER.pack(len(body), zlib.crc32(body)),
            body,
        ]
    )


def unpack(data: bytes, kind: str, version: int) -> object:
    """Validate and deserialize a snapshot produced by :func:`pack`."""
    got_kind, got_version = read_header(data)
    if got_kind != kind:
        raise SnapshotError(f"snapshot holds {got_kind!r}, expected {kind!r}")
    if got_version != version:
        raise SnapshotError(
            f"unsupported {kind} snapshot version {got_version}, expected {version}"
        )
    offset = _HEADER.size + len(kind.encode("utf-8"))
    if len(data) < offset + _PAYLOAD_HEADER.size:
        raise SnapshotError("snapshot is truncated")
    body_len, crc = _PAYLOAD_HEADER.unpack_from(data, offset)
    offset += _PAYLOAD_HEADER.size
    if len(data) < offset + body_len:
        raise SnapshotError("snapshot is truncated")
    if zlib.crc32(memoryview(data)[offset : offset + body_len]) != crc:
        raise SnapshotError("snapshot payload is corrupted (checksum mismatch)")
    # A stream over the whole file reads the payload in place, without a copy.
    stream = io.BytesIO(data)
    stream.seek(offset)
    try:
        return _SnapshotUnpickler(stream).load()
    except Exception as exc:
        raise SnapshotError(f"snapshot payload failed to deserialize: {exc}") from exc


def read_header(data: bytes) -> tuple[str, int]:
    """Return (kind, version) without deserializing the payload."""
    if len(data) < _HEADER.size:
        raise SnapshotError("snapshot is truncated")
    magic, version, kind_len = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise SnapshotError("not a snapshot file (bad magic)")
    kind = data[_HEADER.size : _HEADER.size + kind_len].decode(
        "utf-8", errors="replace"
    )
    return kind, version
