"""Independent checks on the engine's outputs.

Every check here recomputes what the method must produce from the inputs
or from another output, with plain numpy and the standard library.  None
of them imports the engine or compares against a stored copy of an
earlier run, so a change that alters results without a reason shows up
as a failed check rather than as a new reference.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

# Aggregates are float64 means; a different but valid summation order may
# move them by a few units in the last place.
REL_TOL = 1e-12
ABS_TOL = 1e-15


class CheckFailed(Exception):
    """An output of the engine disagrees with what the method requires."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def cell_emptiness(planes, cell_size, min_sparsity: int) -> np.ndarray:
    """Per class and cell: does the window hold fewer than ``min_sparsity`` pixels?

    Returns a bool array of shape (classes, grid rows, grid cols).
    """
    cr, cc = cell_size
    out = []
    for plane in planes:
        arr = np.asarray(plane) != 0
        rows, cols = arr.shape
        counts = arr.reshape(rows // cr, cr, cols // cc, cc).sum(axis=(1, 3))
        out.append(counts < min_sparsity)
    return np.stack(out)


def entered_cells(prev_empty, empty) -> np.ndarray:
    """Cells where some class went from empty to occupied."""
    return np.any(prev_empty & ~empty, axis=0)


def aggregate(kind: str, reported) -> float:
    scores = np.asarray(reported, dtype=np.float64).reshape(-1)
    if kind == "mean":
        return float(scores.sum() / scores.size)
    if kind == "nonzero_mean":
        positive = scores[scores > 0.0]
        return float(positive.sum() / positive.size) if positive.size else 0.0
    raise ValueError(f"unknown aggregation {kind!r}")


def check_frame(result, empty, prev_empty, tm_columns: int) -> None:
    """Score range, certainty range and transition suppression of one frame."""
    raw = np.asarray(result.raw_scores)
    reported = np.asarray(result.reported_scores)
    certainty = np.asarray(result.certainty)
    frame = result.frame_index
    expect(raw.shape == empty.shape[1:], f"frame {frame}: raw shape {raw.shape}")
    expect(np.all((raw >= 0.0) & (raw <= 1.0)), f"frame {frame}: raw score outside [0, 1]")
    expect(np.issubdtype(certainty.dtype, np.integer),
           f"frame {frame}: certainty dtype {certainty.dtype} is not integer")
    expect(np.all((certainty >= 0) & (certainty <= tm_columns)),
           f"frame {frame}: certainty outside [0, {tm_columns}]")
    entered = entered_cells(prev_empty, empty)
    expect(np.all(reported[entered] == 0.0),
           f"frame {frame}: a cell entered from empty but reports a nonzero score")
    expect(np.array_equal(reported[~entered], raw[~entered]),
           f"frame {frame}: reported differs from raw away from entry transitions")


def check_stream(results, frames, prev_planes, encoder, tm_columns: int) -> None:
    """``check_frame`` over a run of consecutive frames.

    ``prev_planes`` is the frame the model saw before ``frames[0]``, or
    None for a fresh model, whose previous emptiness is all False.
    """
    expect(len(results) == len(frames),
           f"{len(results)} results for {len(frames)} frames")
    cell_size = encoder["cell_size"]
    min_sparsity = encoder["min_sparsity"]
    if prev_planes is None:
        grows = frames[0][0].shape[0] // cell_size[0]
        gcols = frames[0][0].shape[1] // cell_size[1]
        prev_empty = np.zeros((len(frames[0]), grows, gcols), dtype=bool)
    else:
        prev_empty = cell_emptiness(prev_planes, cell_size, min_sparsity)
    for result, planes in zip(results, frames):
        empty = cell_emptiness(planes, cell_size, min_sparsity)
        check_frame(result, empty, prev_empty, tm_columns)
        prev_empty = empty


def check_aggregates(results, kind: str, window: int, history=()) -> None:
    """Per-frame aggregate and its trailing mean, recomputed from reported scores.

    ``history`` holds the aggregates the model produced before ``results``.
    """
    series = list(history)
    for result in results:
        agg = aggregate(kind, result.reported_scores)
        expect(close(result.aggregate, agg),
               f"frame {result.frame_index}: aggregate {result.aggregate!r} != {agg!r}")
        series.append(result.aggregate)
        tail = series[-window:]
        smoothed = math.fsum(tail) / len(tail)
        expect(close(result.aggregate_smoothed, smoothed),
               f"frame {result.frame_index}: smoothed {result.aggregate_smoothed!r} "
               f"!= {smoothed!r}")


def check_first_frame_bursts(result) -> None:
    """A fresh model has predicted nothing, so every cell scores 1.0 on frame 0."""
    expect(np.all(np.asarray(result.raw_scores) == 1.0),
           "frame 0 of a fresh model: some cell scores below 1.0")


def heatmap_pixels(scores, cell_size) -> np.ndarray:
    """Expected heatmap: red = floor(255 s + 0.5), green = floor(255 (1 - s) + 0.5)."""
    s = np.asarray(scores, dtype=np.float64)
    red = np.floor(255.0 * s + 0.5).astype(np.uint8)
    green = np.floor(255.0 * (1.0 - s) + 0.5).astype(np.uint8)
    cr, cc = cell_size
    rgb = np.zeros((s.shape[0] * cr, s.shape[1] * cc, 3), dtype=np.uint8)
    rgb[:, :, 0] = red.repeat(cr, axis=0).repeat(cc, axis=1)
    rgb[:, :, 1] = green.repeat(cr, axis=0).repeat(cc, axis=1)
    return rgb


def read_ppm(path) -> np.ndarray:
    """Parse a binary P6 image with the plain ``P6 cols rows 255`` header."""
    with open(path, "rb") as fh:
        data = fh.read()
    # One whitespace byte ends the header; the pixel bytes after it may be anything.
    match = re.match(rb"P6\s+(\d+)\s+(\d+)\s+255\s", data)
    expect(match is not None, f"{path}: not a plain 8-bit P6 image")
    cols, rows = int(match.group(1)), int(match.group(2))
    body = data[match.end():]
    expect(len(body) == rows * cols * 3, f"{path}: payload is {len(body)} bytes, "
           f"expected {rows * cols * 3}")
    return np.frombuffer(body, dtype=np.uint8).reshape(rows, cols, 3)


def _plain_float(text: str):
    """The value of a plain decimal literal such as ``repr(float)`` writes, else None."""
    try:
        return float(text)
    except ValueError:
        return None


def check_scores_csv(path, grid_shape, kind: str, first_frame: int, frame_count: int):
    """Header, row count, frame numbers and the aggregate column of a per-cell CSV.

    Returns the per-cell score grid of each row, keyed by frame index, or
    None when some per-cell value is not a plain decimal number; the rest
    of the file is checked either way.
    """
    grows, gcols = grid_shape
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    want = ["frame", "aggregate", "aggregate_smoothed"] + [
        f"cell_r{r}_c{c}" for r in range(grows) for c in range(gcols)
    ]
    expect(lines and lines[0].split(",") == want,
           f"{path}: header does not name the {grows}x{gcols} cells")
    rows = lines[1:]
    expect(len(rows) == frame_count, f"{path}: {len(rows)} rows, expected {frame_count}")
    grids = {}
    for i, line in enumerate(rows):
        parts = line.split(",")
        expect(len(parts) == len(want),
               f"{path}: row {i} has {len(parts)} columns under {len(want)}")
        expect(parts[0] == str(first_frame + i), f"{path}: row {i} holds frame {parts[0]}")
        frame = first_frame + i
        aggregates = [_plain_float(v) for v in parts[1:3]]
        expect(None not in aggregates, f"{path}: frame {frame} aggregate is not a number")
        cells = [_plain_float(v) for v in parts[3:]]
        if grids is None or None in cells:
            grids = None
            continue
        cells = np.asarray(cells, dtype=np.float64).reshape(grows, gcols)
        expect(close(aggregates[0], aggregate(kind, cells)),
               f"{path}: frame {frame} aggregate column disagrees with its cells")
        grids[frame] = cells
    return grids


def check_heatmaps(directory, grids, cell_size, frame_name="{:08d}.ppm") -> None:
    """Exactly one heatmap per CSV row, each painted from that row's scores."""
    names = sorted(os.listdir(directory))
    want = sorted(frame_name.format(frame) for frame in grids)
    expect(names == want, f"{directory}: {len(names)} heatmaps for {len(want)} rows")
    for frame, cells in grids.items():
        image = read_ppm(os.path.join(directory, frame_name.format(frame)))
        expect(np.array_equal(image, heatmap_pixels(cells, cell_size)),
               f"heatmap of frame {frame} does not match its scores")


def results_identical(a, b) -> bool:
    """Bitwise equality of two frame results."""
    return (
        a.frame_index == b.frame_index
        and np.array_equal(a.raw_scores, b.raw_scores)
        and np.array_equal(a.reported_scores, b.reported_scores)
        and np.array_equal(a.certainty, b.certainty)
        and a.aggregate == b.aggregate
        and a.aggregate_smoothed == b.aggregate_smoothed
    )


def period_means(values, period: int) -> tuple[float, float]:
    """Mean of the first and of the last whole period of a series."""
    values = np.asarray(values, dtype=np.float64)
    expect(values.size >= 2 * period, f"{values.size} values hold no two periods of {period}")
    return float(values[:period].mean()), float(values[-period:].mean())
