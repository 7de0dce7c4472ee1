"""Tests of the benchmark's own checks and span arithmetic.

Run from the repository root with ``python3 -m pytest perfbench``.  Each
oracle must pass on outputs that follow the method and fail on outputs
with one thing wrong.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
from oracles import CheckFailed  # noqa: E402
from spans import Recorder  # noqa: E402

CELL = (4, 4)


def result(raw, reported=None, certainty=None, frame=0, agg=0.0, smoothed=0.0):
    raw = np.asarray(raw, dtype=np.float64)
    return SimpleNamespace(
        frame_index=frame,
        raw_scores=raw,
        reported_scores=raw.copy() if reported is None else np.asarray(reported, float),
        certainty=np.zeros(raw.shape, np.int64) if certainty is None else certainty,
        aggregate=agg,
        aggregate_smoothed=smoothed,
    )


def plane_with(cells, shape=(8, 8), fill=6):
    """A plane whose listed cells hold ``fill`` pixels; the rest are empty."""
    plane = np.zeros(shape, np.uint8)
    for r, c in cells:
        for k in range(fill):
            plane[r * 4 + k // 4, c * 4 + k % 4] = 1
    return plane


def test_cell_emptiness_counts_window_pixels():
    planes = [plane_with([(0, 1)]), plane_with([(1, 0)], fill=4)]
    empty = oracles.cell_emptiness(planes, CELL, min_sparsity=5)
    assert empty.tolist() == [
        [[True, False], [True, True]],
        [[True, True], [True, True]],  # 4 pixels stay below min_sparsity
    ]


def test_suppression_oracle():
    prev = oracles.cell_emptiness([plane_with([])], CELL, 5)
    now = oracles.cell_emptiness([plane_with([(0, 0)])], CELL, 5)
    raw = [[0.5, 0.25], [1.0, 0.0]]
    oracles.check_frame(result(raw, [[0.0, 0.25], [1.0, 0.0]]), now, prev, 8)
    with pytest.raises(CheckFailed, match="entered"):
        oracles.check_frame(result(raw), now, prev, 8)
    with pytest.raises(CheckFailed, match="away from entry"):
        oracles.check_frame(result(raw, [[0.0, 0.0], [1.0, 0.0]]), now, prev, 8)


def test_score_and_certainty_ranges():
    empty = np.ones((1, 2, 2), bool)
    with pytest.raises(CheckFailed, match="outside"):
        oracles.check_frame(result([[1.5, 0], [0, 0]]), empty, empty, 8)
    with pytest.raises(CheckFailed, match="not integer"):
        oracles.check_frame(result([[0, 0], [0, 0]], certainty=np.zeros((2, 2))),
                            empty, empty, 8)
    with pytest.raises(CheckFailed, match="certainty outside"):
        oracles.check_frame(result([[0, 0], [0, 0]], certainty=np.full((2, 2), 9)),
                            empty, empty, 8)


def test_aggregates_and_trailing_mean():
    assert oracles.aggregate("mean", [[0.0, 0.5], [0.5, 0.0]]) == 0.25
    assert oracles.aggregate("nonzero_mean", [[0.0, 0.5], [0.25, 0.0]]) == 0.375
    assert oracles.aggregate("nonzero_mean", [[0.0]]) == 0.0
    good = [result([[1.0]], agg=1.0, smoothed=0.75, frame=1)]
    oracles.check_aggregates(good, "mean", window=2, history=[0.5])
    with pytest.raises(CheckFailed, match="smoothed"):
        oracles.check_aggregates(good, "mean", window=1, history=[0.5])
    with pytest.raises(CheckFailed, match="aggregate"):
        oracles.check_aggregates([result([[0.5]], agg=1.0)], "mean", window=1)


def test_first_frame_must_burst():
    oracles.check_first_frame_bursts(result([[1.0, 1.0]]))
    with pytest.raises(CheckFailed):
        oracles.check_first_frame_bursts(result([[1.0, 0.875]]))


def write_csv(path, rows, cells=(1, 2)):
    header = ["frame", "aggregate", "aggregate_smoothed"] + [
        f"cell_r{r}_c{c}" for r in range(cells[0]) for c in range(cells[1])
    ]
    path.write_text("\n".join([",".join(header)] + rows) + "\n")


def test_scores_csv(tmp_path):
    path = tmp_path / "s.csv"
    write_csv(path, ["2,0.75,0.75,0.5,1.0", "3,0.0,0.375,0.0,0.0"])
    grids = oracles.check_scores_csv(path, (1, 2), "nonzero_mean", 2, 2)
    assert grids[2].tolist() == [[0.5, 1.0]]
    with pytest.raises(CheckFailed, match="rows"):
        oracles.check_scores_csv(path, (1, 2), "nonzero_mean", 2, 3)
    with pytest.raises(CheckFailed, match="holds frame"):
        oracles.check_scores_csv(path, (1, 2), "nonzero_mean", 1, 2)
    with pytest.raises(CheckFailed, match="header"):
        oracles.check_scores_csv(path, (2, 1), "nonzero_mean", 2, 2)
    write_csv(path, ["2,0.5,0.5,0.5,1.0"])
    with pytest.raises(CheckFailed, match="disagrees"):
        oracles.check_scores_csv(path, (1, 2), "nonzero_mean", 2, 1)


def test_scores_csv_with_unreadable_cells(tmp_path):
    path = tmp_path / "s.csv"
    write_csv(path, ["0,0.75,0.75,np.float64(0.5),np.float64(1.0)"])
    assert oracles.check_scores_csv(path, (1, 2), "nonzero_mean", 0, 1) is None
    write_csv(path, ["0,np.float64(0.75),0.75,0.5,1.0"])
    with pytest.raises(CheckFailed, match="not a number"):
        oracles.check_scores_csv(path, (1, 2), "nonzero_mean", 0, 1)


def write_ppm(path, rgb):
    rows, cols = rgb.shape[:2]
    path.write_bytes(b"P6\n%d %d\n255\n" % (cols, rows) + rgb.tobytes())


def test_heatmaps(tmp_path):
    # The first pixel is (10, 245, 0): its first byte is a newline.
    scores = np.array([[10 / 255, 0.5], [1.0, 0.002]])
    image = oracles.heatmap_pixels(scores, (2, 3))
    assert image.shape == (4, 6, 3)
    assert image[0, 0].tolist() == [10, 245, 0]
    assert image[0, 3].tolist() == [128, 128, 0]  # halves round up
    assert image[3, 5].tolist() == [1, 254, 0]
    write_ppm(tmp_path / "00000007.ppm", image)
    oracles.check_heatmaps(tmp_path, {7: scores}, (2, 3))
    bad = image.copy()
    bad[3, 5, 0] = 0
    write_ppm(tmp_path / "00000007.ppm", bad)
    with pytest.raises(CheckFailed, match="frame 7"):
        oracles.check_heatmaps(tmp_path, {7: scores}, (2, 3))
    write_ppm(tmp_path / "00000008.ppm", image)
    with pytest.raises(CheckFailed, match="2 heatmaps for 1 rows"):
        oracles.check_heatmaps(tmp_path, {7: scores}, (2, 3))


def test_period_means():
    first, last = oracles.period_means([1.0, 1.0, 0.5, 0.0, 0.0, 0.25], 2)
    assert (first, last) == (1.0, 0.125)
    with pytest.raises(CheckFailed):
        oracles.period_means([1.0, 0.0, 0.0], 2)


def test_self_time_uses_the_union_of_children():
    rec = Recorder()
    rec.spans += [
        ("grid.step", 0.0, 10.0),
        ("temporal_memory", 1.0, 4.0),
        ("spatial_pooler", 3.0, 6.0),  # overlaps the TM span on another thread
        ("grid.step", 20.0, 22.0),
        ("encoder", 20.5, 21.0),
        ("encoder", 30.0, 31.0),  # outside every step
    ]
    assert rec.busy("encoder") == 1.5 and rec.calls("encoder") == 2
    children = ("temporal_memory", "spatial_pooler", "encoder")
    assert rec.self_time("grid.step", children) == pytest.approx(12.0 - 5.0 - 0.5)


def test_traced_iterable_times_each_item():
    rec = Recorder()
    items = list(rec.wrap_iterable("imageio.read", lambda n: iter(range(n)))(3))
    assert items == [0, 1, 2] and rec.calls("imageio.read") == 3


def test_scene_is_a_function_of_the_seed():
    import workloads

    scene = workloads.LOOP9
    assert scene.period() == 30
    a, b = scene.frames(1, 0, 31), scene.frames(1, 0, 31)
    assert all(np.array_equal(x[0], y[0]) for x, y in zip(a, b))
    assert not np.array_equal(scene.frames(2, 0, 1)[0][0], a[0][0])
    tail = scene.frames(1, 30, 1)
    assert np.array_equal(tail[0][0], a[30][0])


def test_oracles_accept_the_engine_on_a_short_stream():
    import workloads
    from htmgrid import GridModel

    scene = workloads.LOOP9
    config = workloads.build_grid_config(scene.frame_size, workloads.CELL_SIZE, 1)
    frames = scene.frames(3, 0, 12)
    model = GridModel(config)
    results = [model.step(planes) for planes in frames]
    workloads.check_fresh_results(results, frames, config)
