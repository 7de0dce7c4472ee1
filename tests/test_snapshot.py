import os
import pickle
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest

from htmgrid import CellOverride, GridModel, SnapshotError, SpParams, TmParams
from htmgrid import build_grid_config, snapshot
from htmgrid.grid import SNAPSHOT_KIND, SNAPSHOT_VERSION
from tests.conftest import states_equal


def saved_state(model) -> dict:
    """A copy of ``model``'s state, read back from its snapshot bytes."""
    return snapshot.unpack(model.to_bytes(), SNAPSHOT_KIND, SNAPSHOT_VERSION)


def stepped_model(frame_size=(24, 24), config=None) -> GridModel:
    """A model that has learned segments from a square moving across the frame."""
    model = GridModel(config or build_grid_config(frame_size, (12, 12)))
    planes = model.config.encoder.class_count
    for t in range(6):
        frame = np.zeros(frame_size, dtype=np.uint8)
        frame[2 * t: 2 * t + 6, 3 * t: 3 * t + 6] = 1
        model.step([frame] * planes)
    return model


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
    other = saved_state(stepped_model((36, 36)))
    short = dict(other, units=other["units"][:2])
    with pytest.raises(SnapshotError, match="3x3 grid"):
        model.load_state_dict(short)
    # A malformed unit fails with SnapshotError too, after earlier units loaded.
    del other["units"][2][2]["tm"]["segments"][0]["last_used"]
    with pytest.raises(SnapshotError, match="last_used"):
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


@pytest.mark.parametrize("part, config", [
    ("sp", build_grid_config((24, 24), (12, 12), 2)),
    ("tm", build_grid_config((24, 24), (12, 12), multistep_n=3)),
], ids=["sp-input_width", "tm-column_count"])
def test_unit_widths_must_match_the_config(part, config):
    # A unit's state from a wider pooler input or memory does not fit the config.
    model = GridModel(build_grid_config((24, 24), (12, 12)))
    before = model.to_bytes()
    state = saved_state(model)
    state["units"][1][0][part] = saved_state(stepped_model(config=config))["units"][1][0][part]
    with pytest.raises(SnapshotError, match=rf"unit \(1, 0\): {part} "):
        model.load_state_dict(state)
    assert model.to_bytes() == before


def test_prev_empty_flags_must_match_the_class_count():
    model = GridModel(build_grid_config((24, 24), (12, 12)))
    before = model.to_bytes()
    state = saved_state(model)
    state["prev_empty"] = np.zeros((2, 2, 2), dtype=bool)
    with pytest.raises(SnapshotError, match=r"prev_empty must be bool of shape \(2, 2, 1\)"):
        model.load_state_dict(state)
    assert model.to_bytes() == before


@pytest.mark.parametrize("history", [
    np.zeros((3, 128), dtype=bool),
    np.zeros((1, 128), dtype=bool),
    np.zeros((2, 129), dtype=bool),
    np.zeros(256, dtype=bool),
    np.zeros((2, 128), dtype=np.int64),
    np.zeros((2, 128)),
    [[False] * 128] * 2,
], ids=["extra-entry", "missing-entry", "out-of-range", "flat", "int", "float", "list"])
def test_unit_history_must_fit_the_ring(history):
    model = GridModel(build_grid_config((24, 24), (12, 12), multistep_n=2))
    before = model.to_bytes()
    state = saved_state(model)
    state["units"][1][1]["history"] = history
    with pytest.raises(SnapshotError,
                       match=r"unit \(1, 1\): history ring must be bool of shape \(2, 128\)"):
        model.load_state_dict(state)
    assert model.to_bytes() == before


def test_loaded_history_ring_matches_the_saved_indices():
    model = GridModel(build_grid_config((24, 24), (12, 12), multistep_n=3))
    state = model.state_dict()
    saved = np.zeros((3, 128), dtype=bool)
    saved[0, [2, 9]] = saved[2, [0, 127]] = True
    state["units"][0][1]["history"] = saved
    model.load_state_dict(state)
    ring = model.unit(0, 1).history
    assert ring.dtype == bool and ring.shape == (3, 128)
    assert [np.flatnonzero(row).tolist() for row in ring] == [[2, 9], [], [0, 127]]
    assert ring is not saved


def test_payload_holds_no_derivable_state():
    state = saved_state(stepped_model())
    assert state.keys() == {"config", "frame_counter", "agg_history", "prev_empty", "units"}
    unit = state["units"][1][1]
    assert unit.keys() == {"sp", "tm", "history"}
    assert unit["sp"].keys() == {"pools", "permanences", "step_count", "duty_cycles"}
    assert unit["tm"].keys() == {"segments", "next_segment_id", "rng_state", "step_count",
                                 "active_cells", "winner_cells"}


# Damage to each check of the indices a loaded unit uses: the problem it names,
# and the entries it changes in the unit's SP state, TM state or first segment.
# A 2-class cell has 288 input bits and 2048 memory cells of at most 32
# synapses per segment.
INDEX_DAMAGE = {
    "segment-cell": ("segment cells", lambda sp, tm, seg: (seg, {"cell": 2048})),
    "presyn-range": ("presyn cells",
                     lambda sp, tm, seg: (seg, {"presyn": np.r_[seg["presyn"][:-1], 2048]})),
    "presyn-negative": ("presyn cells",
                        lambda sp, tm, seg: (seg, {"presyn": np.r_[-1, seg["presyn"][1:]]})),
    "row-too-long": ("at most 32 synapses", lambda sp, tm, seg: (seg, {
        name: np.resize(seg[name], 33) for name in ("presyn", "perm", "last_reinforced")})),
    "perm-length": ("a permanence", lambda sp, tm, seg: (seg, {"perm": seg["perm"][:-1]})),
    "last-reinforced-length": ("a last_reinforced", lambda sp, tm, seg: (
        seg, {"last_reinforced": seg["last_reinforced"][1:]})),
    "id-order": ("segment ids", lambda sp, tm, seg: (tm["segments"][1], {"id": seg["id"]})),
    "id-bound": ("segment ids",
                 lambda sp, tm, seg: (tm, {"next_segment_id": tm["segments"][-1]["id"]})),
    "active-cells-order": ("active_cells",
                           lambda sp, tm, seg: (tm, {"active_cells": tm["active_cells"][::-1]})),
    "active-cells-range": ("active_cells", lambda sp, tm, seg: (
        tm, {"active_cells": np.r_[tm["active_cells"], 2048]})),
    "winner-cells-order": ("winner_cells",
                           lambda sp, tm, seg: (tm, {"winner_cells": tm["winner_cells"][::-1]})),
    "winner-cells-range": ("winner_cells", lambda sp, tm, seg: (
        tm, {"winner_cells": np.r_[-1, tm["winner_cells"]]})),
    "pools-shape": ("pools must have shape",
                    lambda sp, tm, seg: (sp, {"pools": sp["pools"][:, :-1]})),
    "pools-order": ("pool rows", lambda sp, tm, seg: (sp, {"pools": sp["pools"][:, ::-1]})),
    "pools-range": ("pool rows",
                    lambda sp, tm, seg: (sp, {"pools": sp["pools"] + 288 - sp["pools"].max()})),
    "permanences-shape": ("permanences and duty cycles",
                          lambda sp, tm, seg: (sp, {"permanences": sp["permanences"][:-1]})),
    "duty-cycles-shape": ("permanences and duty cycles",
                          lambda sp, tm, seg: (sp, {"duty_cycles": sp["duty_cycles"][:-1]})),
}


@pytest.mark.parametrize("damage", INDEX_DAMAGE)
def test_loaded_indices_must_fit(damage):
    model = stepped_model(config=build_grid_config((24, 24), (12, 12), 2))
    before = model.to_bytes()
    state = saved_state(model)
    sp, tm = state["units"][0][1]["sp"], state["units"][0][1]["tm"]
    problem, change = INDEX_DAMAGE[damage]
    where, entries = change(sp, tm, tm["segments"][0])
    where.update(entries)
    with pytest.raises(SnapshotError, match=rf"unit \(0, 1\): (sp|tm) .*{problem}"):
        model.load_state_dict(state)
    assert model.to_bytes() == before


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


def test_checksum_valid_damage_raises_only_snapshot_error():
    # Flipped bits under a recomputed checksum, as a faulty writer leaves them:
    # a load either fails with SnapshotError or gives a model that runs.
    model = stepped_model()
    data, body = model.to_bytes(), pickle.dumps(model.state_dict(), protocol=4)
    kind_and_version = data[: len(data) - len(body) - 12]  # then length, CRC and body
    frame = np.zeros((24, 24), dtype=np.uint8)
    rng = np.random.default_rng(0)
    loaded = 0
    for _ in range(150):
        damaged = bytearray(body)
        for at in rng.integers(len(body), size=2):
            damaged[at] ^= 1 << int(rng.integers(8))
        crc = struct.pack(">QI", len(damaged), zlib.crc32(damaged))
        try:
            restored = GridModel.from_bytes(kind_and_version + crc + bytes(damaged))
        except SnapshotError:
            continue
        restored.step([frame])
        restored.to_bytes()
        loaded += 1
    assert 0 < loaded < 150
