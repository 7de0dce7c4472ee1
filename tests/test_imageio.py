import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from htmgrid import ContractError
from htmgrid.imageio import (
    heatmap_image,
    mask_sequence_info,
    read_mask_sequence,
    read_pbm,
    read_ppm,
    staged,
    write_mask_sequence,
    write_pbm,
    write_ppm,
)


def test_pbm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    for shape in [(12, 12), (7, 13), (1, 1), (5, 8)]:
        plane = rng.integers(0, 2, shape).astype(np.uint8)
        path = tmp_path / "mask.pbm"
        write_pbm(path, plane)
        assert np.array_equal(read_pbm(path), plane)


def test_pbm_writes_are_byte_stable(tmp_path):
    plane = np.eye(9, dtype=np.uint8)
    a, b = tmp_path / "a.pbm", tmp_path / "b.pbm"
    write_pbm(a, plane)
    write_pbm(b, plane)
    assert a.read_bytes() == b.read_bytes()


def test_pbm_non_numeric_size_rejected(tmp_path):
    path = tmp_path / "mask.pbm"
    for header in [b"P4\nab 12\n", b"P4\n-8 -8\n\xff", b"P4\n1_2 1\n" + bytes(24),
                   b"P4\n1234567890 1\n"]:
        path.write_bytes(header)
        with pytest.raises(ContractError, match="image size"):
            read_pbm(path)


def test_ppm_overlong_maxval_rejected(tmp_path):
    path = tmp_path / "heat.ppm"
    path.write_bytes(b"P6\n1 1\n" + b"9" * 5000 + b" " + bytes(3))
    with pytest.raises(ContractError, match="maxval"):
        read_ppm(path)


_PBM = b"P4\n# mask\n13 7\n" + bytes(range(7, 21))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(_PBM)), st.lists(st.integers(0, 8 * len(_PBM) - 1), max_size=4))
def test_damaged_pbm_raises_only_contract_error(tmp_path_factory, cut, flips):
    data = bytearray(_PBM)
    for bit in flips:
        data[bit // 8] ^= 1 << (bit % 8)
    path = tmp_path_factory.getbasetemp() / "fuzz.pbm"
    path.write_bytes(bytes(data[:cut]))
    try:
        plane = read_pbm(path)
    except ContractError:
        return
    assert plane.dtype == np.uint8 and plane.ndim == 2


def test_pbm_truncated_rejected(tmp_path):
    path = tmp_path / "mask.pbm"
    write_pbm(path, np.ones((8, 8), dtype=np.uint8))
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ContractError):
        read_pbm(path)


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    image = rng.integers(0, 256, (10, 14, 3)).astype(np.uint8)
    path = tmp_path / "frame.ppm"
    write_ppm(path, image)
    assert np.array_equal(read_ppm(path), image)


def test_heatmap_endpoints():
    scores = np.array([[0.0, 1.0], [0.5, 0.25]])
    image = heatmap_image(scores, (2, 2))
    assert image.shape == (4, 4, 3)
    assert tuple(image[0, 0]) == (0, 255, 0)
    assert tuple(image[0, 2]) == (255, 0, 0)
    assert tuple(image[2, 0]) == (128, 128, 0)  # halves round up
    assert tuple(image[2, 2]) == (64, 191, 0)
    assert np.all(image[:, :, 2] == 0)


def test_heatmap_is_pure():
    scores = np.array([[0.3]])
    assert np.array_equal(heatmap_image(scores, (3, 3)), heatmap_image(scores, (3, 3)))


def test_mask_sequence_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    frames = [
        [rng.integers(0, 2, (12, 12)).astype(np.uint8) for _ in range(2)]
        for _ in range(5)
    ]
    stream = tmp_path / "stream"
    write_mask_sequence(stream, frames)
    assert mask_sequence_info(stream) == (2, 5)
    back = list(read_mask_sequence(stream))
    assert len(back) == 5
    for orig, loaded in zip(frames, back):
        for a, b in zip(orig, loaded):
            assert np.array_equal(a, b)


def test_mask_sequence_with_a_bad_frame_writes_no_file(tmp_path):
    plane = np.zeros((8, 8), dtype=np.uint8)
    frames = [[plane, plane] for _ in range(5)] + [[plane]]
    stream = tmp_path / "stream"
    with pytest.raises(ContractError, match="frame 5 has 1 planes"):
        write_mask_sequence(stream, frames)
    assert [path for path in stream.rglob("*") if path.is_file()] == []


def test_staged_commits_in_the_order_named_and_removes_the_rest(tmp_path, monkeypatch):
    paths = [tmp_path / name for name in ("a", "b", "c")]
    for path in paths:
        path.write_text("old")
    replace, moved = os.replace, []

    def replace_once(src, dst):
        if moved:
            raise OSError("disk full")
        moved.append(dst)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_once)
    with pytest.raises(OSError, match="disk full"):
        with staged() as beside:
            for path in paths:
                with open(beside(path), "x") as fh:
                    fh.write("new")
    assert moved == [paths[0]]
    assert [path.read_text() for path in paths] == ["new", "old", "old"]
    assert sorted(os.listdir(tmp_path)) == ["a", "b", "c"]


def test_mask_sequence_missing_frame_detected(tmp_path):
    frames = [[np.zeros((8, 8), dtype=np.uint8)] for _ in range(3)]
    stream = tmp_path / "stream"
    write_mask_sequence(stream, frames)
    (stream / "0" / "00000001.pbm").unlink()
    with pytest.raises(ContractError):
        mask_sequence_info(stream)


def test_mask_sequence_rejects_missing_directory(tmp_path):
    with pytest.raises(ContractError):
        mask_sequence_info(tmp_path / "nope")
