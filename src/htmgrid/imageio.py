"""Binary image formats, heatmap rendering, and the staged commit of output files.

Masks travel as binary PBM (P4) files, one per frame per class, laid out as
``<class index>/<frame index, 8 digits>.pbm`` under the stream directory.
Heatmaps are written as binary PPM (P6).  Both formats are bit-exact and
dependency-free; assembling videos from the PPM frames is left to external
tools.
"""

from __future__ import annotations

import os
import re
from contextlib import contextmanager, suppress
from uuid import uuid4

import numpy as np

from .errors import ContractError

__all__ = [
    "write_pbm",
    "read_pbm",
    "write_ppm",
    "read_ppm",
    "heatmap_image",
    "write_mask_sequence",
    "read_mask_sequence",
    "mask_sequence_info",
]

FRAME_NAME = "{:08d}"


@contextmanager
def staged():
    """Yield ``beside``, which maps a path to a new, unique name next to it.  A clean exit moves
    each named file onto its path in the order named; a raise removes those not yet moved."""
    names = []

    def beside(path):
        names.append((f"{os.fspath(path)}.{uuid4().hex}.tmp", path))
        return names[-1][0]

    try:
        yield beside
        for name, path in names:
            os.replace(name, path)
    except BaseException:
        for name, _ in names:
            with suppress(FileNotFoundError):
                os.remove(name)
        raise


def _read_header(data: bytes, magic: bytes):
    # Header tokens may be separated by whitespace and '#' comment lines.
    if not data.startswith(magic):
        raise ContractError(f"expected {magic.decode()} header")
    pos = len(magic)
    tokens = []
    while len(tokens) < 2:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ContractError("truncated image header")
        # At most 9 digits: int() would take signs and underscores, and
        # raise ValueError on other bytes or on thousands of digits.
        if not data[start:pos].isdigit() or pos - start > 9:
            raise ContractError(f"bad image size {data[start:pos][:12]!r}")
        tokens.append(int(data[start:pos]))
    return tokens, pos


def write_pbm(path, plane) -> None:
    plane = np.asarray(plane)
    if plane.ndim != 2:
        raise ContractError(f"mask plane must be 2-D, got shape {plane.shape}")
    rows, cols = plane.shape
    packed = np.packbits(plane.astype(bool), axis=1)
    with open(path, "wb") as fh:
        fh.write(f"P4\n{cols} {rows}\n".encode("ascii"))
        fh.write(packed.tobytes())


def read_pbm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    (cols, rows), pos = _read_header(data, b"P4")
    pos += 1  # single whitespace byte after the header
    row_bytes = (cols + 7) // 8
    body = data[pos : pos + rows * row_bytes]
    if len(body) != rows * row_bytes:
        raise ContractError(f"pbm payload truncated in {path}")
    packed = np.frombuffer(body, dtype=np.uint8).reshape(rows, row_bytes)
    bits = np.unpackbits(packed, axis=1)[:, :cols]
    return bits.astype(np.uint8)


def write_ppm(path, rgb) -> None:
    rgb = np.asarray(rgb, dtype=np.uint8)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ContractError(f"ppm image must be (rows, cols, 3), got {rgb.shape}")
    rows, cols = rgb.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    (cols, rows), pos = _read_header(data, b"P6")
    # maxval token follows the dimensions.
    tail = data[pos:]
    match = re.match(rb"\s*(\d{1,9})\s", tail)
    if not match:
        raise ContractError(f"missing maxval in {path}")
    if int(match.group(1)) != 255:
        raise ContractError("only 8-bit ppm images are supported")
    body = tail[match.end() :]
    expected = rows * cols * 3
    if len(body) < expected:
        raise ContractError(f"ppm payload truncated in {path}")
    return np.frombuffer(body[:expected], dtype=np.uint8).reshape(rows, cols, 3)


def heatmap_image(reported_scores, cell_size) -> np.ndarray:
    """Paint each cell on a green-to-red ramp over its pixel footprint.

    Red channel is round(255 * score), green is round(255 * (1 - score)),
    blue stays 0; halves round up.
    """
    scores = np.asarray(reported_scores, dtype=np.float64)
    red = np.floor(255.0 * scores + 0.5).astype(np.uint8)
    green = np.floor(255.0 * (1.0 - scores) + 0.5).astype(np.uint8)
    cr, cc = int(cell_size[0]), int(cell_size[1])
    rgb = np.zeros((scores.shape[0] * cr, scores.shape[1] * cc, 3), dtype=np.uint8)
    rgb[:, :, 0] = np.kron(red, np.ones((cr, cc), dtype=np.uint8))
    rgb[:, :, 1] = np.kron(green, np.ones((cr, cc), dtype=np.uint8))
    return rgb


def write_mask_sequence(directory, frames) -> None:
    """Write frames (lists of class planes) into the stream directory layout, all or none."""
    frames = list(frames)
    if not frames:
        raise ContractError("cannot write an empty mask sequence")
    class_count = len(frames[0])
    for i, planes in enumerate(frames):  # before any directory is made
        if len(planes) != class_count:
            raise ContractError(f"frame {i} has {len(planes)} planes, expected {class_count}")
    for k in range(class_count):
        os.makedirs(os.path.join(directory, str(k)), exist_ok=True)
    with staged() as beside:
        for i, planes in enumerate(frames):
            for k, plane in enumerate(planes):
                name = FRAME_NAME.format(i) + ".pbm"
                write_pbm(beside(os.path.join(directory, str(k), name)), plane)


def mask_sequence_info(directory) -> tuple[int, int]:
    """Return (class_count, frame_count) of an on-disk stream, validated."""
    if not os.path.isdir(directory):
        raise ContractError(f"mask sequence directory not found: {directory}")
    class_dirs = sorted(
        d for d in os.listdir(directory)
        if d.isdigit() and os.path.isdir(os.path.join(directory, d))
    )
    if not class_dirs:
        raise ContractError(f"no class subdirectories under {directory}")
    expected = [str(k) for k in range(len(class_dirs))]
    if sorted(class_dirs, key=int) != expected:
        raise ContractError(
            f"class subdirectories must be 0..{len(class_dirs) - 1}, got {class_dirs}"
        )
    counts = []
    for d in expected:
        files = [
            f for f in os.listdir(os.path.join(directory, d)) if f.endswith(".pbm")
        ]
        counts.append(len(files))
        for i in range(len(files)):
            name = FRAME_NAME.format(i) + ".pbm"
            if not os.path.exists(os.path.join(directory, d, name)):
                raise ContractError(f"missing frame file {d}/{name} in {directory}")
    if len(set(counts)) != 1:
        raise ContractError(f"class directories disagree on frame count: {counts}")
    if counts[0] == 0:
        raise ContractError(f"class directories under {directory} hold no frame")
    return len(expected), counts[0]


def read_mask_sequence(directory):
    """Yield frames (lists of class planes) from the stream directory."""
    class_count, frame_count = mask_sequence_info(directory)
    for i in range(frame_count):
        name = FRAME_NAME.format(i) + ".pbm"
        yield [
            read_pbm(os.path.join(directory, str(k), name))
            for k in range(class_count)
        ]
