import os
from dataclasses import replace

import numpy as np
import pytest

from htmgrid import CellOverride, GridModel, SnapshotError, SpParams, TmParams
from htmgrid import build_grid_config, snapshot
from htmgrid.grid import SNAPSHOT_KIND, SNAPSHOT_VERSION
from tests.conftest import states_equal


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



class _RunsCode:
    def __reduce__(self):
        return (print, ("snapshot payload ran",))


def test_loading_never_runs_code(capsys):
    blob = snapshot.pack(SNAPSHOT_KIND, SNAPSHOT_VERSION, {"config": _RunsCode()})
    with pytest.raises(SnapshotError, match="builtins.print"):
        GridModel.from_bytes(blob)
    assert capsys.readouterr().out == ""


def test_grid_with_per_cell_overrides_round_trips():
    config = build_grid_config(
        (36, 36), (12, 12), seed=3,
        per_cell_overrides={
            (0, 1): CellOverride(
                sp=SpParams(input_width=144, column_count=64, active_columns=4, seed=9),
                tm=TmParams(column_count=128, cells_per_column=4, seed=10),
            ),
            (2, 2): CellOverride(tm=TmParams(column_count=256, seed=11)),
        },
    )
    model = GridModel(config)
    model.step([np.zeros((36, 36), dtype=np.uint8)])
    restored = GridModel.from_bytes(model.to_bytes())
    assert restored.config == config
    assert states_equal(restored.state_dict(), model.state_dict())


@pytest.mark.parametrize("payload", [{}, {"config": 1}], ids=["empty", "config-int"])
def test_malformed_payload_raises_snapshot_error(payload):
    blob = snapshot.pack(SNAPSHOT_KIND, SNAPSHOT_VERSION, payload)
    with pytest.raises(SnapshotError, match="not a grid model"):
        GridModel.from_bytes(blob)


def test_units_must_fill_the_grid():
    state = GridModel(build_grid_config((36, 36), (12, 12))).state_dict()
    state["units"][1] = state["units"][1][:2]
    blob = snapshot.pack(SNAPSHOT_KIND, SNAPSHOT_VERSION, state)
    with pytest.raises(SnapshotError, match="3x3 grid"):
        GridModel.from_bytes(blob)


def test_failed_load_leaves_the_model_unchanged():
    model = GridModel(build_grid_config((24, 24), (12, 12)))
    model.step([np.zeros((24, 24), dtype=np.uint8)])
    before = model.to_bytes()
    other = GridModel(build_grid_config((36, 36), (12, 12))).state_dict()
    short = dict(other, units=other["units"][:2])
    with pytest.raises(SnapshotError, match="3x3 grid"):
        model.load_state_dict(short)
    # A unit's own loader fails with its own error, after earlier units loaded.
    del other["units"][2][2]["tm"]["segments"]
    with pytest.raises(KeyError, match="segments"):
        model.load_state_dict(other)
    assert model.to_bytes() == before


def test_fresh_model_round_trips_byte_for_byte():
    # A fresh model's step arrays share one empty array; the reload keeps
    # that sharing, so it pickles to the same bytes.
    data = GridModel(build_grid_config((36, 36), (12, 12))).to_bytes()
    assert GridModel.from_bytes(data).to_bytes() == data


def test_invalid_config_is_rejected_before_loading():
    model = GridModel(build_grid_config((24, 24), (12, 12)))
    before = model.to_bytes()
    state = model.state_dict()
    state["config"] = replace(state["config"], smoothing_window=0)
    with pytest.raises(SnapshotError, match="config is invalid.*smoothing_window"):
        model.load_state_dict(state)
    assert model.to_bytes() == before


@pytest.mark.parametrize("part, name", [("sp", "input_width"), ("tm", "column_count")])
def test_unit_widths_must_match_the_config(part, name):
    model = GridModel(build_grid_config((24, 24), (12, 12)))
    before = model.to_bytes()
    state = model.state_dict()
    state["units"][1][0][part]["params"][name] = 7
    with pytest.raises(SnapshotError, match=r"unit \(1, 0\) widths"):
        model.load_state_dict(state)
    assert model.to_bytes() == before


def test_prev_empty_flags_must_match_the_class_count():
    model = GridModel(build_grid_config((24, 24), (12, 12)))
    before = model.to_bytes()
    state = model.state_dict()
    state["units"][0][1]["prev_empty"] = [True, False]
    with pytest.raises(SnapshotError, match="prev_empty"):
        model.load_state_dict(state)
    assert model.to_bytes() == before


@pytest.mark.parametrize("history", [
    [[], [], []],
    [[]],
    [[], [3, 128]],
    [[], [-1, 3]],
    [[], [3, 3]],
    [[], [5, 3]],
    [[], [1.0, 3.0]],
], ids=["extra-entry", "missing-entry", "out-of-range", "negative", "duplicate",
        "unsorted", "float"])
def test_unit_history_must_fit_the_ring(history):
    model = GridModel(build_grid_config((24, 24), (12, 12), multistep_n=2))
    before = model.to_bytes()
    state = model.state_dict()
    state["units"][1][1]["history"] = [np.array(active) for active in history]
    with pytest.raises(SnapshotError, match=r"unit \(1, 1\) widths or history"):
        model.load_state_dict(state)
    assert model.to_bytes() == before


def test_loaded_history_ring_matches_the_saved_indices():
    model = GridModel(build_grid_config((24, 24), (12, 12), multistep_n=3))
    state = model.state_dict()
    state["units"][0][1]["history"] = [np.array([2, 9]), np.array([], dtype=np.int64),
                                       np.array([0, 127])]
    model.load_state_dict(state)
    ring = model.unit(0, 1).history
    assert ring.dtype == bool and ring.shape == (3, 128)
    assert [np.flatnonzero(row).tolist() for row in ring] == [[2, 9], [], [0, 127]]


def test_non_finite_config_is_rejected_on_load():
    model = GridModel(build_grid_config((24, 24), (12, 12)))
    state = model.state_dict()
    config = state["config"]
    state["config"] = replace(
        config, default_tm=replace(config.default_tm, permanence_increment=float("nan"))
    )
    with pytest.raises(SnapshotError, match=r"tm\.permanence_increment must be finite"):
        model.load_state_dict(state)


@pytest.mark.parametrize("failing", ["to_bytes", "replace"])
def test_failed_save_keeps_the_existing_snapshot(tmp_path, monkeypatch, failing):
    model = GridModel(build_grid_config((24, 24), (12, 12)))
    path = tmp_path / "model.snap"
    model.save(path)
    before = path.read_bytes()
    model.step([np.ones((24, 24), dtype=np.uint8)])

    def fail(*args):
        raise MemoryError("serialization failed")

    if failing == "to_bytes":
        monkeypatch.setattr(model, "to_bytes", fail)
    else:
        monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(MemoryError):
        model.save(path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.snap"]


def test_save_replaces_the_existing_snapshot(tmp_path):
    model = GridModel(build_grid_config((24, 24), (12, 12)))
    path = tmp_path / "model.snap"
    model.save(path)
    model.step([np.ones((24, 24), dtype=np.uint8)])
    model.save(str(path))
    assert path.read_bytes() == model.to_bytes()
    assert os.listdir(tmp_path) == ["model.snap"]
