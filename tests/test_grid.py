import gc
import importlib
import pkgutil
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

import htmgrid
from htmgrid import (
    CellOverride,
    ConfigError,
    GridConfig,
    GridModel,
    SnapshotError,
    SpParams,
    SpatialPooler,
    TemporalMemory,
    build_grid_config,
    encode_frame,
    generate,
)
from htmgrid.config import parse_run_config
from tests.conftest import loop_scenario, moving_average, results_equal, states_equal


def blob_planes(frame=(36, 36), at=(14, 14), size=(6, 6)):
    plane = np.zeros(frame, dtype=np.uint8)
    plane[at[0] : at[0] + size[0], at[1] : at[1] + size[1]] = 1
    return [plane]


def test_cell_count_is_grid_product():
    config = build_grid_config((120, 120), (12, 12), seed=1)
    model = GridModel(config)
    assert model.grid_shape == (10, 10)
    assert sum(len(row) for row in model.units) == 100


def test_dropped_model_frees_every_group_at_once():
    # Cell views refer to their groups and nothing refers back to a view, so
    # no cycle holds a dropped model's groups until the cyclic collector runs.
    run = parse_run_config("input = stream\nencoder.frame_size = 36x36\n"
                           "cell.1.2.sp.permanence_increment = 0.1\n"
                           "cell.0.0.tm.cells_per_column = 4\n")
    model = GridModel(run.grid)
    model.step(blob_planes())
    unit, units = model.unit(1, 2), model.units
    groups = [weakref.ref(layer) for _, pooler, memory, _ in model._groups
              for layer in (pooler, memory)]
    assert len(groups) == 6
    gc.disable()
    try:
        del model, unit, units
        assert [group() for group in groups] == [None] * 6
    finally:
        gc.enable()


def test_every_exported_name_resolves():
    modules = [htmgrid, *(importlib.import_module(f"htmgrid.{info.name}")
                          for info in pkgutil.iter_modules(htmgrid.__path__))]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
    assert len([module for module in modules if hasattr(module, "__all__")]) >= 11


def test_identical_configs_build_identical_models(small_grid_config):
    a, b = GridModel(small_grid_config), GridModel(small_grid_config)
    assert a.to_bytes() == b.to_bytes()


def test_override_touches_only_its_cell(small_grid_config):
    base = GridModel(small_grid_config)
    sp_override = SpParams(
        input_width=144, column_count=128, active_columns=8, seed=12345
    )
    config = build_grid_config(
        (36, 36), (12, 12), seed=3, multistep_n=2,
        per_cell_overrides={(0, 0): CellOverride(sp=sp_override)},
    )
    other = GridModel(config)
    assert not np.array_equal(
        base.unit(0, 0).sp.state_dict()["permanences"],
        other.unit(0, 0).sp.state_dict()["permanences"],
    )
    for r in range(3):
        for c in range(3):
            if (r, c) == (0, 0):
                continue
            assert np.array_equal(
                base.unit(r, c).sp.state_dict()["permanences"],
                other.unit(r, c).sp.state_dict()["permanences"],
            )
            assert base.unit(r, c).sp.params == other.unit(r, c).sp.params


def test_out_of_bounds_override_rejected():
    with pytest.raises(ConfigError):
        build_grid_config(
            (36, 36), (12, 12),
            per_cell_overrides={(5, 0): CellOverride()},
        ).validate()


def test_mismatched_tm_width_rejected():
    good = build_grid_config((36, 36), (12, 12))
    bad = GridConfig(
        encoder=good.encoder,
        default_sp=good.default_sp,
        default_tm=good.default_tm,
        multistep_n=3,  # tm width no longer matches sp columns x n
    )
    with pytest.raises(ConfigError):
        GridModel(bad)


def test_first_frame_scores_one_everywhere(small_grid_config):
    model = GridModel(small_grid_config)
    result = model.step([np.zeros((36, 36), dtype=np.uint8)])
    assert np.all(result.raw_scores == 1.0)
    assert result.frame_index == 0


def test_static_blob_converges_to_zero(small_grid_config):
    model = GridModel(small_grid_config)
    planes = blob_planes()
    scores = [model.step(planes).raw_scores[1, 1] for _ in range(200)]
    assert scores[0] == 1.0
    assert all(s == 0.0 for s in scores[-150:])


def test_suppression_zeroes_entry_frames(small_grid_config):
    frames = generate(loop_scenario(120))
    config = small_grid_config
    model = GridModel(config)
    prev_empty = None
    transition_frames = 0
    for planes in frames:
        _, empties = encode_frame(config.encoder, planes)
        result = model.step(planes)
        if prev_empty is not None:
            for r in range(3):
                for c in range(3):
                    entered = any(
                        was and not now
                        for was, now in zip(prev_empty[r, c], empties[r, c])
                    )
                    if entered:
                        transition_frames += 1
                        assert result.reported_scores[r, c] == 0.0
                    else:
                        assert (
                            result.reported_scores[r, c] == result.raw_scores[r, c]
                        )
        prev_empty = empties
    assert transition_frames > 0


def test_locality_cells_do_not_interact(small_grid_config):
    # two streams identical in every window except cell (0, 0)
    rng = np.random.default_rng(4)
    frames_a, frames_b = [], []
    for _ in range(80):
        plane = np.zeros((36, 36), dtype=np.uint8)
        plane[14:20, 14:20] = rng.integers(0, 2, (6, 6))
        other = plane.copy()
        other[2:8, 2:8] = rng.integers(0, 2, (6, 6))
        frames_a.append([plane])
        frames_b.append([other])
    ma, mb = GridModel(small_grid_config), GridModel(small_grid_config)
    for pa, pb in zip(frames_a, frames_b):
        ra, rb = ma.step(pa), mb.step(pb)
        mask = np.ones((3, 3), dtype=bool)
        mask[0, 0] = False
        assert np.array_equal(ra.raw_scores[mask], rb.raw_scores[mask])
        assert np.array_equal(ra.certainty[mask], rb.certainty[mask])


def test_multistep_history_distinguishes_halting(small_grid_config):
    frames = generate(loop_scenario(40))
    halt_at = 20
    halted = frames[:halt_at] + [frames[halt_at - 1]] * 5
    moving = frames[: halt_at + 5]
    ma, mb = GridModel(small_grid_config), GridModel(small_grid_config)
    for t in range(halt_at + 1):
        ma.step(moving[t])
        mb.step(halted[t])
    diffs = 0
    for r in range(3):
        for c in range(3):
            if not np.array_equal(ma.unit(r, c).history, mb.unit(r, c).history):
                diffs += 1
    assert diffs > 0


def test_single_frame_dropout_dilution(small_grid_config):
    frames = generate(loop_scenario(60))
    drop_at = 40
    dropped = [[p.copy() for p in planes] for planes in frames]
    dropped[drop_at][0][:, :] = 0
    config = small_grid_config
    ma, mb = GridModel(config), GridModel(config)
    for t in range(drop_at + 1):
        ma.step(frames[t])
        mb.step(dropped[t])
    n = config.multistep_n
    sp_columns = config.default_sp.column_count
    boundary = sp_columns * (n - 1)
    for r in range(3):
        for c in range(3):
            a = set(np.flatnonzero(ma.unit(r, c).history.reshape(-1)).tolist())
            b = set(np.flatnonzero(mb.unit(r, c).history.reshape(-1)).tolist())
            # history blocks before the affected step are untouched
            assert {x for x in a if x < boundary} == {x for x in b if x < boundary}
            if a:
                assert len(a - b) <= len(a) / n
            if b:
                assert len(b - a) <= len(b) / n


def test_parallel_matches_sequential(small_grid_config, monkeypatch):
    # workers > 1 starts no thread: every memory group steps on the calling thread.
    seen = []
    tm_compute = TemporalMemory.compute

    def recording_compute(tm, active_columns, learn):
        seen.append((threading.current_thread(), threading.active_count()))
        return tm_compute(tm, active_columns, learn)

    monkeypatch.setattr(TemporalMemory, "compute", recording_compute)
    frames = generate(loop_scenario(60))
    seq, par = GridModel(small_grid_config), GridModel(small_grid_config)
    before = threading.active_count()
    for planes in frames:
        assert results_equal(
            seq.step(planes, workers=1), par.step(planes, workers=4)
        )
    # Each model is one memory group, stepped once per frame.
    assert len(seen) == 2 * len(frames)
    assert all(
        thread is threading.current_thread() and count == before
        for thread, count in seen
    )


def test_override_group_of_one_steps_as_a_standalone_cell(monkeypatch):
    # Cell (1, 2) pools through 64 columns, so its pooler is a group of its
    # own; it must step as a one-cell model with the same parameters does.
    group_sizes = []
    sp_compute = SpatialPooler.compute

    def recording_compute(sp, bits, learn):
        group_sizes.append(len(bits))
        return sp_compute(sp, bits, learn)

    monkeypatch.setattr(SpatialPooler, "compute", recording_compute)
    run = parse_run_config("input = stream\nencoder.frame_size = 36x36\n"
                           "grid.seed = 7\ncell.1.2.sp.column_count = 64\n")
    model = GridModel(run.grid)
    sp, tm = run.grid.cell_params((1, 2))
    alone = GridModel(replace(
        run.grid, encoder=replace(run.grid.encoder, frame_size=(12, 12)),
        per_cell_overrides={(0, 0): CellOverride(sp=sp, tm=tm)}))
    for t, planes in enumerate(generate(loop_scenario(80))):
        result = model.step(planes, learn=t < 60)
        assert sorted(group_sizes) == [1, 8]
        single = alone.step([plane[12:24, 24:36] for plane in planes], learn=t < 60)
        group_sizes.clear()
        assert result.raw_scores[1, 2] == single.raw_scores[0, 0]
        assert result.certainty[1, 2] == single.certainty[0, 0]
    cell, other = model.unit(1, 2), alone.unit(0, 0)
    assert np.array_equal(cell.history, other.history)
    assert np.array_equal(cell.sp.state_dict()["permanences"],
                          other.sp.state_dict()["permanences"])
    assert len(cell.tm.state_dict()["segments"]) == len(other.tm.state_dict()["segments"]) > 0


@pytest.mark.parametrize("override, sizes", [
    ("cell.1.2.tm.cells_per_column = 4", [1, 8]),
    ("cell.1.2.sp.permanence_increment = 0.1", [1, 8]),
], ids=["tm", "sp"])
def test_override_memory_steps_as_a_standalone_cell(monkeypatch, override, sizes):
    group_sizes = []
    tm_compute = TemporalMemory.compute

    def recording_compute(tm, columns, learn):
        group_sizes.append(len(columns))
        return tm_compute(tm, columns, learn)

    monkeypatch.setattr(TemporalMemory, "compute", recording_compute)
    text = "input = stream\nencoder.frame_size = 36x36\ngrid.seed = 7\n"
    run = parse_run_config(text + override + "\n")
    model, plain = GridModel(run.grid), GridModel(parse_run_config(text).grid)
    sp, tm = run.grid.cell_params((1, 2))
    alone = GridModel(replace(
        run.grid, encoder=replace(run.grid.encoder, frame_size=(12, 12)),
        per_cell_overrides={(0, 0): CellOverride(sp=sp, tm=tm)}))
    others = np.ones((3, 3), dtype=bool)
    others[1, 2] = False
    for t, planes in enumerate(generate(loop_scenario(80))):
        result = model.step(planes, learn=t < 60)
        assert sorted(group_sizes) == sizes
        single = alone.step([plane[12:24, 24:36] for plane in planes], learn=t < 60)
        expected = plain.step(planes, learn=t < 60)
        group_sizes.clear()
        assert result.raw_scores[1, 2] == single.raw_scores[0, 0]
        assert result.certainty[1, 2] == single.certainty[0, 0]
        # The other cells score as they do without the override.
        assert np.array_equal(result.raw_scores[others], expected.raw_scores[others])
        assert np.array_equal(result.certainty[others], expected.certainty[others])
    cell, other = model.unit(1, 2), alone.unit(0, 0)
    assert cell.tm.params == other.tm.params == tm
    assert states_equal(cell.tm.state_dict(), other.tm.state_dict())
    assert len(cell.tm.state_dict()["segments"]) > 0
    data = model.to_bytes()
    assert GridModel.from_bytes(data).to_bytes() == data


def test_snapshot_restore_replays_identically(warmed_loop_model):
    snap, frames, period = warmed_loop_model
    original = GridModel.from_bytes(snap)
    restored = GridModel.from_bytes(original.to_bytes())
    start = period * 20
    for planes in frames[start : start + 100]:
        assert results_equal(original.step(planes), restored.step(planes))


def test_snapshot_idempotent_without_steps(small_grid_config):
    model = GridModel(small_grid_config)
    model.step([np.zeros((36, 36), dtype=np.uint8)])
    assert model.to_bytes() == model.to_bytes()


def test_corrupted_snapshot_rejected(small_grid_config):
    model = GridModel(small_grid_config)
    blob = bytearray(model.to_bytes())
    blob[len(blob) // 2] ^= 0xFF
    with pytest.raises(SnapshotError):
        GridModel.from_bytes(bytes(blob))


def test_truncated_snapshot_rejected(small_grid_config):
    model = GridModel(small_grid_config)
    blob = model.to_bytes()
    with pytest.raises(SnapshotError):
        GridModel.from_bytes(blob[: len(blob) // 3])


def test_smoothed_aggregate_matches_offline_average(small_grid_config):
    frames = generate(loop_scenario(250))
    model = GridModel(small_grid_config)
    results = [model.step(planes) for planes in frames]
    series = [r.aggregate for r in results]
    offline = moving_average(series, small_grid_config.smoothing_window)
    assert [r.aggregate_smoothed for r in results] == offline.tolist()


def test_certainty_grid_shape_and_sign(small_grid_config):
    model = GridModel(small_grid_config)
    result = model.step(blob_planes())
    assert result.certainty.shape == (3, 3)
    assert np.all(result.certainty >= 0)
