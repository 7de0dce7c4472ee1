import numpy as np
import pytest

from htmgrid import SnapshotError
from htmgrid import snapshot


def test_round_trip():
    payload = {"a": np.arange(5), "b": 3.5, "c": [1, 2]}
    blob = snapshot.pack("thing", 2, payload)
    back = snapshot.unpack(blob, "thing", 2)
    assert np.array_equal(back["a"], payload["a"])
    assert back["b"] == 3.5 and back["c"] == [1, 2]


def test_header_inspection():
    blob = snapshot.pack("thing", 7, [1])
    assert snapshot.read_header(blob) == ("thing", 7)


def test_wrong_kind_rejected():
    blob = snapshot.pack("thing", 1, [])
    with pytest.raises(SnapshotError):
        snapshot.unpack(blob, "other", 1)


def test_wrong_version_rejected():
    blob = snapshot.pack("thing", 1, [])
    with pytest.raises(SnapshotError):
        snapshot.unpack(blob, "thing", 2)


def test_bad_magic_rejected():
    with pytest.raises(SnapshotError):
        snapshot.unpack(b"XXXX" + b"\0" * 40, "thing", 1)


def test_corruption_detected():
    blob = bytearray(snapshot.pack("thing", 1, {"x": list(range(100))}))
    blob[-5] ^= 0x10
    with pytest.raises(SnapshotError):
        snapshot.unpack(bytes(blob), "thing", 1)


def test_truncation_detected():
    blob = snapshot.pack("thing", 1, {"x": list(range(100))})
    for cut in (3, 10, len(blob) - 4):
        with pytest.raises(SnapshotError):
            snapshot.unpack(blob[:cut], "thing", 1)


def test_pack_is_deterministic():
    payload = {"a": np.arange(10), "b": "text"}
    assert snapshot.pack("thing", 1, payload) == snapshot.pack("thing", 1, payload)

