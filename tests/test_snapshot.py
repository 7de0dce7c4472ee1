import json
import os
import pickle
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from htmgrid import CellOverride, GridModel, SnapshotError, SpParams, TmParams
from htmgrid import SpatialPooler, TemporalMemory, build_grid_config, snapshot
from htmgrid.grid import SNAPSHOT_KIND, SNAPSHOT_VERSION
from tests.conftest import states_equal


def saved_state(model) -> tuple[dict, dict]:
    """A writable copy of ``model``'s snapshot header and arrays, integers widened to int64."""
    header, arrays = snapshot.unpack(model.to_bytes(), SNAPSHOT_KIND, SNAPSHOT_VERSION)
    return header, {name: value.astype(np.int64) if value.dtype.kind in "iu" else value.copy()
                    for name, value in arrays.items()}


def packed(header: dict, arrays: dict) -> bytes:
    return snapshot.pack(SNAPSHOT_KIND, SNAPSHOT_VERSION, header, arrays)


def split(blob: bytes) -> tuple[bytes, dict, bytes]:
    """A packed snapshot's magic, version and kind, its header, and its array bytes."""
    (kind_len,) = struct.unpack_from(">I", blob, 8)
    prefix, body = blob[: 12 + kind_len], blob[24 + kind_len :]
    (text_len,) = struct.unpack_from(">Q", body)
    return prefix, json.loads(body[8 : 8 + text_len]), body[8 + text_len :]


def with_checksum(prefix: bytes, body: bytes) -> bytes:
    """A snapshot of ``body`` whose length and checksum fit it."""
    return prefix + struct.pack(">QI", len(body), zlib.crc32(body)) + body


def joined(prefix: bytes, header: dict, data: bytes) -> bytes:
    text = json.dumps(header).encode("utf-8")
    return with_checksum(prefix, struct.pack(">Q", len(text)) + text + data)


def stepped_model(frame_size=(24, 24), config=None) -> GridModel:
    """A model that has learned segments from a square moving across the frame."""
    model = GridModel(config or build_grid_config(frame_size, (12, 12)))
    planes = model.config.encoder.class_count
    for t in range(6):
        frame = np.zeros(frame_size, dtype=np.uint8)
        frame[2 * t: 2 * t + 6, 3 * t: 3 * t + 6] = 1
        model.step([frame] * planes)
    return model


def alone_config(class_count=2, **kwargs):
    """A 2x2 grid whose cell (0, 1) is a cell group of its own."""
    config = build_grid_config((24, 24), (12, 12), class_count, **kwargs)
    sp, tm = config.cell_params((0, 1))
    override = CellOverride(replace(sp, permanence_increment=0.06),
                            replace(tm, permanence_increment=0.11))
    return replace(config, per_cell_overrides={(0, 1): override})


class CellArrays:
    """Cell ``coord``'s parts of a saved state's group arrays, to damage in place."""

    def __init__(self, model, header, arrays, coord):
        k = coord[0] * model.grid_shape[1] + coord[1]
        (self.g, self.u), = [(g, list(members).index(k))
                             for g, (members, *_) in enumerate(model._groups) if k in members]
        self.sp, self.tm = f"sp{self.g}.", f"tm{self.g}."
        self.header, self.arrays = header, arrays
        self.T = model._groups[self.g][2].total_cells
        self.rows = np.flatnonzero(self.a("tm.seg_units") == self.u)
        assert self.rows.size >= 2
        lens = self.a("tm.seg_lens")
        self.syn = int(lens[: self.rows[0]].sum())  # the first synapse of the first row
        self.last = self.syn + int(lens[self.rows[0]]) - 1

    def key(self, name: str) -> str:
        layer, _, rest = name.partition(".")
        return getattr(self, layer) + rest

    def a(self, name: str) -> np.ndarray:
        return self.arrays[self.key(name)]

    def put(self, name: str, value) -> None:
        self.arrays[self.key(name)] = value

    def set(self, name: str, at, value) -> None:
        self.a(name)[at] = value

    def own(self, name: str) -> np.ndarray:
        """Where the group's sorted cell array ``name`` holds this unit's cells."""
        cells = self.a(name)
        return np.flatnonzero(cells // self.T == self.u)

    def reverse_own(self, name: str) -> None:
        at = self.own(name)
        assert at.size >= 2
        self.a(name)[at] = self.a(name)[at][::-1]

    def grow_first_row(self, length: int) -> None:
        """Lengthen the unit's first row to ``length`` synapses, all valid."""
        extra = length - int(self.a("tm.seg_lens")[self.rows[0]])
        self.set("tm.seg_lens", self.rows[0], length)
        for name, value in (("presyn", self.u * self.T), ("perm", 0.5), ("last_reinforced", 0)):
            self.put(f"tm.{name}", np.insert(self.a(f"tm.{name}"), self.last + 1, [value] * extra))

    def swap_first_ids(self) -> None:
        ids = self.a("tm.seg_ids")
        ids[self.rows[:2]] = ids[self.rows[:2]][::-1]


# --- the container -----------------------------------------------------------


def test_round_trip():
    arrays = {"a": np.arange(5), "b": np.linspace(0.0, 1.0, 6).reshape(2, 3),
              "flags": np.array([True, False]), "signed": np.array([-1, 7]),
              "empty": np.zeros((0, 4), dtype=np.int64)}
    blob = snapshot.pack("thing", 2, {"x": [1, 2], "y": 3.5}, arrays)
    header, back = snapshot.unpack(blob, "thing", 2)
    assert header == {"x": [1, 2], "y": 3.5}
    assert back.keys() == arrays.keys()
    for name, value in arrays.items():
        assert np.array_equal(back[name], value) and back[name].shape == value.shape
    assert back["b"].dtype == np.float64 and back["flags"].dtype == bool


def test_integers_are_stored_in_the_smallest_dtype_that_holds_them():
    arrays = {"byte": np.array([0, 255]), "word": np.array([3, 256]), "none": np.zeros(0, int),
              "wide": np.array([2 ** 40]), "signed": np.array([-1, 2])}
    _, back = snapshot.unpack(snapshot.pack("thing", 1, {}, arrays), "thing", 1)
    assert [back[name].dtype for name in arrays] == [np.uint8, np.uint16, np.uint8, np.uint64,
                                                     np.int64]


def test_unpacked_arrays_are_read_only_views_of_the_file():
    blob = snapshot.pack("thing", 1, {}, {"a": np.arange(300)})
    _, arrays = snapshot.unpack(blob, "thing", 1)
    assert not arrays["a"].flags.writeable
    assert np.shares_memory(arrays["a"], np.frombuffer(blob, np.uint8))


def test_header_inspection():
    blob = snapshot.pack("thing", 7, {}, {"a": np.arange(3)})
    assert snapshot.read_header(blob) == ("thing", 7)


def test_wrong_kind_rejected():
    blob = snapshot.pack("thing", 1, {}, {})
    with pytest.raises(SnapshotError):
        snapshot.unpack(blob, "other", 1)


def test_wrong_version_rejected():
    blob = snapshot.pack("thing", 1, {}, {})
    with pytest.raises(SnapshotError):
        snapshot.unpack(blob, "thing", 2)


def test_bad_magic_rejected():
    with pytest.raises(SnapshotError):
        snapshot.unpack(b"XXXX" + b"\0" * 40, "thing", 1)


def test_corruption_detected():
    blob = bytearray(snapshot.pack("thing", 1, {"x": 1}, {"a": np.arange(100)}))
    blob[-5] ^= 0x10
    with pytest.raises(SnapshotError):
        snapshot.unpack(bytes(blob), "thing", 1)


def test_truncation_detected():
    blob = snapshot.pack("thing", 1, {"x": 1}, {"a": np.arange(100)})
    # In the fixed header, in the payload's length and checksum, and in the body.
    for cut in (3, 10, 20, len(blob) - 4):
        with pytest.raises(SnapshotError):
            snapshot.unpack(blob[:cut], "thing", 1)


def test_pack_is_deterministic():
    header, arrays = {"b": "text", "a": [1.5]}, {"a": np.arange(10), "b": np.ones(3)}
    assert (snapshot.pack("thing", 1, header, arrays)
            == snapshot.pack("thing", 1, dict(reversed(header.items())), arrays))


# Damage to the array table, each entry fit to the body in turn; every one
# raises SnapshotError before any array is read.
TABLE_DAMAGE = {
    "dtype-wider": lambda entry: entry.update(dtype="<u8"),
    "dtype-narrower": lambda entry: entry.update(dtype="|u1"),
    "dtype-object": lambda entry: entry.update(dtype="|O"),
    "dtype-not-a-string": lambda entry: entry.update(dtype=["<u2"]),
    "shape-longer": lambda entry: entry["shape"].__setitem__(0, entry["shape"][0] + 1),
    "shape-shorter": lambda entry: entry["shape"].__setitem__(0, entry["shape"][0] - 1),
    "shape-negative": lambda entry: entry["shape"].__setitem__(0, -1),
    "shape-too-many-axes": lambda entry: entry.update(shape=[1] * 80),
    "offset-later": lambda entry: entry.update(offset=entry["offset"] + 1),
    "offset-earlier": lambda entry: entry.update(offset=entry["offset"] - 1),
    "offset-float": lambda entry: entry.update(offset=float(entry["offset"])),
    "key-missing": lambda entry: entry.pop("offset"),
    "key-extra": lambda entry: entry.update(order="C"),
    "name-not-a-string": lambda entry: entry.update(name=1),
}


@pytest.mark.parametrize("damage", TABLE_DAMAGE)
def test_array_table_must_fit_the_body(damage):
    blob = snapshot.pack("thing", 1, {}, {"a": np.arange(3), "b": np.arange(600).reshape(2, 300),
                                          "c": np.ones(4)})
    prefix, header, data = split(blob)
    TABLE_DAMAGE[damage](header["arrays"][1])
    with pytest.raises(SnapshotError, match="snapshot array"):
        snapshot.unpack(joined(prefix, header, data), "thing", 1)


@pytest.mark.parametrize("body", [b"", b"\0\0\0\0\0\0\0\x09{}", struct.pack(">Q", 2) + b"[]",
                                  struct.pack(">Q", 2) + b"{]", struct.pack(">Q", 2) + b"\xff\xfe",
                                  struct.pack(">Q", 12) + b'{"arrays":1}',
                                  struct.pack(">Q", 13) + b'{"arrays":[]}\0'],
                         ids=["empty", "header-runs-past", "not-an-object", "not-json", "not-utf8",
                              "table-not-a-list", "trailing-bytes"])
def test_body_must_hold_a_header_and_a_table(body):
    prefix, _, _ = split(snapshot.pack("thing", 1, {}, {}))
    with pytest.raises(SnapshotError):
        snapshot.unpack(with_checksum(prefix, body), "thing", 1)


def test_a_name_given_twice_is_rejected():
    prefix, header, data = split(snapshot.pack("thing", 1, {}, {"a": np.arange(2),
                                                                "b": np.arange(2)}))
    header["arrays"][1]["name"] = "a"
    with pytest.raises(SnapshotError, match="malformed or repeated"):
        snapshot.unpack(joined(prefix, header, data), "thing", 1)


class _RunsCode:
    def __reduce__(self):
        return (print, ("snapshot payload ran",))


def test_loading_never_runs_code(capfd):
    # A pickle that prints when unpickled, as the whole body under a valid
    # checksum, and as the bytes of an array in a valid table.
    code = pickle.dumps(_RunsCode())
    prefix, header, _ = split(stepped_model().to_bytes())
    header["arrays"] = [{"name": "prev_empty", "dtype": "|u1", "shape": [len(code)], "offset": 0}]
    for blob in (with_checksum(prefix, code), joined(prefix, header, code)):
        with pytest.raises(SnapshotError):
            GridModel.from_bytes(blob)
    assert capfd.readouterr() == ("", "")


def test_version_2_snapshot_is_rejected_by_version():
    # Version 2 held a pickle; its header is read, and nothing after it.
    kind = SNAPSHOT_KIND.encode("utf-8")
    body = pickle.dumps({"config": None, "units": []}, protocol=4)
    blob = (struct.pack(">4sII", snapshot.MAGIC, 2, len(kind)) + kind
            + struct.pack(">QI", len(body), zlib.crc32(body)) + body)
    assert snapshot.read_header(blob) == (SNAPSHOT_KIND, 2)
    with pytest.raises(SnapshotError, match="grid-model snapshot version 2, expected 3"):
        GridModel.from_bytes(blob)


def test_version_3_file_of_split_pooler_and_memory_groups_is_refused():
    # Version 3 files once numbered pooler groups and memory groups apart.
    # This one was saved at commit a7c7173 by GridModel(config) after four
    # steps of a 6x6 square moving right, where config is
    #   build_grid_config((12, 24), sp_columns=16, sp_active=4, seed=5,
    #                     sp_kwargs={"potential_fraction": 0.1})
    # with cell (0, 1)'s pooler overridden to permanence_increment=0.1: two
    # pooler groups and one memory group.  Its cells are now two cell groups,
    # so the file lacks the second group's memory arrays.
    path = os.path.join(os.path.dirname(__file__), "data", "split_layout_v3.snap")
    with open(path, "rb") as fh:
        assert snapshot.read_header(fh.read()) == (SNAPSHOT_KIND, SNAPSHOT_VERSION)
    with pytest.raises(SnapshotError, match=r"\['tm1\.active_cells', .*'tm1\.winner_cells'\] "
                                            "are missing or unknown"):
        GridModel.load(path)


# --- what a grid model's snapshot holds ------------------------------------------


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


def test_payload_holds_no_derivable_state():
    model = stepped_model()
    header, arrays = snapshot.unpack(model.to_bytes(), SNAPSHOT_KIND, SNAPSHOT_VERSION)
    assert header.keys() == {"config", "frame_counter", "rng_states"}
    assert [len(states) for states in header["rng_states"]] == [4]
    sp = ["pools", "permanences", "duty_cycles", "step_counts", "history"]
    tm = ["seg_units", "seg_ids", "seg_cells", "seg_lens", "seg_last_used", "presyn", "perm",
          "last_reinforced", "next_segment_ids", "step_counts", "active_cells", "winner_cells"]
    assert arrays.keys() == {"prev_empty", "agg_history", *(f"sp0.{name}" for name in sp),
                             *(f"tm0.{name}" for name in tm)}
    # Store rows are cut to the live ones, and synapses to the filled slots.
    group = model._groups[0][2]
    assert arrays["tm0.seg_ids"].shape == (group.segment_count,)
    assert arrays["tm0.presyn"].shape == (group.seg_lens.sum(),)
    # Indices are narrow on disk; learned values stay float64.
    assert arrays["sp0.pools"].dtype == np.uint8  # 144 input bits
    assert arrays["tm0.seg_cells"].dtype == np.uint16  # 4 units of 2048 cells
    assert arrays["sp0.permanences"].dtype == arrays["tm0.perm"].dtype == np.float64


def test_fresh_model_round_trips_byte_for_byte():
    data = GridModel(build_grid_config((36, 36), (12, 12))).to_bytes()
    assert GridModel.from_bytes(data).to_bytes() == data


def test_loaded_arrays_are_writable_and_own_their_memory():
    data = stepped_model(config=alone_config()).to_bytes()
    model = GridModel.from_bytes(data)
    arrays = [model.prev_empty]
    for _, pooler, memory, rings in model._groups:
        arrays += [rings, pooler.connected, *pooler.state_dict().values()]
        arrays += [getattr(memory, name) for name in ("presyn", "perm", "last_reinforced",
                                                      "seg_units", "seg_ids", "seg_cells",
                                                      "seg_lens", "seg_last_used", "seg_potential",
                                                      "cell_segment_counts", "next_segment_ids",
                                                      "step_counts", "active_cells",
                                                      "winner_cells")]
    file_bytes = np.frombuffer(data, np.uint8)
    for value in arrays:
        assert value.flags.writeable
        assert not np.shares_memory(value, file_bytes)


@pytest.mark.parametrize("payload", [{}, {"config": 1}], ids=["empty", "config-int"])
def test_malformed_payload_raises_snapshot_error(payload):
    with pytest.raises(SnapshotError, match="not a grid model"):
        GridModel.from_bytes(packed(payload, {}))


@pytest.mark.parametrize("key", ["config", "frame_counter", "rng_states"])
def test_header_keys_must_all_be_present(key):
    header, arrays = saved_state(stepped_model())
    del header[key]
    with pytest.raises(SnapshotError, match=rf"not a grid model: KeyError\('{key}'\)"):
        GridModel.from_bytes(packed(header, arrays))


@pytest.mark.parametrize("rng_states", [{"0": []}, [[], []]], ids=["not-a-list", "one-too-many"])
def test_header_rng_states_must_hold_a_list_per_cell_group(rng_states):
    model = stepped_model()
    before = model.to_bytes()
    header, arrays = saved_state(model)
    header["rng_states"] = rng_states
    with pytest.raises(SnapshotError, match="rng_states must hold a list per cell group"):
        model.load_state_dict(header, arrays)
    assert model.to_bytes() == before


@pytest.mark.parametrize("name", ["prev_empty", "agg_history", "sp0.history", "tm0.perm"])
def test_arrays_must_all_be_present(name):
    header, arrays = saved_state(stepped_model())
    del arrays[name]
    with pytest.raises(SnapshotError, match="lacks|missing"):
        GridModel.from_bytes(packed(header, arrays))


def test_unknown_arrays_are_rejected():
    header, arrays = saved_state(stepped_model())
    arrays["tm0.connected"] = np.zeros(3, dtype=bool)
    with pytest.raises(SnapshotError, match=r"\['tm0.connected'\] are missing or unknown"):
        GridModel.from_bytes(packed(header, arrays))


def test_units_must_fill_the_grid():
    # Cell (0, 1)'s pooler group holds no cell's arrays.
    model = stepped_model(config=alone_config())
    header, arrays = saved_state(model)
    cell = CellArrays(model, header, arrays, (0, 1))
    for name in ("pools", "permanences", "duty_cycles", "step_counts", "history"):
        cell.put(f"sp.{name}", cell.a(f"sp.{name}")[:0])
    with pytest.raises(SnapshotError, match=r"cell \(0, 1\): sp pools must be integers of shape "
                                            r"\(1, 128, 245\), got int64 of shape \(0, 128, 245\)"):
        model.load_state_dict(header, arrays)


def test_failed_load_leaves_the_model_unchanged():
    model = GridModel(build_grid_config((24, 24), (12, 12)))
    model.step([np.zeros((24, 24), dtype=np.uint8)])
    before = model.to_bytes()
    header, arrays = saved_state(stepped_model((36, 36)))
    short = dict(arrays)
    del short["tm0.winner_cells"]
    with pytest.raises(SnapshotError, match="missing"):
        model.load_state_dict(header, short)
    # The memory group fails after the pooler group was built.
    arrays["tm0.perm"] = arrays["tm0.perm"][:-1]
    with pytest.raises(SnapshotError, match="perm must be float64"):
        model.load_state_dict(header, arrays)
    assert model.to_bytes() == before


def test_invalid_config_is_rejected_before_loading():
    model = GridModel(build_grid_config((24, 24), (12, 12)))
    before = model.to_bytes()
    header, arrays = model.state_dict()
    header["config"]["smoothing_window"] = 0
    with pytest.raises(SnapshotError, match="config is invalid.*smoothing_window"):
        model.load_state_dict(header, arrays)
    assert model.to_bytes() == before


@pytest.mark.parametrize("part, config", [
    ("sp", alone_config(class_count=2)),
    ("tm", alone_config(class_count=1, multistep_n=3)),
], ids=["sp-input_width", "tm-column_count"])
def test_unit_widths_must_match_the_config(part, config):
    # Cell (0, 1)'s arrays from a wider pooler input or memory do not fit the config.
    model = stepped_model(config=alone_config(class_count=1))
    before = model.to_bytes()
    header, arrays = saved_state(model)
    cell = CellArrays(model, header, arrays, (0, 1))
    wider = stepped_model(config=config)
    other = CellArrays(wider, *saved_state(wider), (0, 1))
    for name in (SpatialPooler.ARRAYS if part == "sp" else TemporalMemory.ARRAYS):
        cell.put(f"{part}.{name}", other.a(f"{part}.{name}"))
    with pytest.raises(SnapshotError, match=rf"cell \(0, 1\): {part} "):
        model.load_state_dict(header, arrays)
    assert model.to_bytes() == before


def test_prev_empty_flags_must_match_the_class_count():
    model = GridModel(build_grid_config((24, 24), (12, 12)))
    before = model.to_bytes()
    header, arrays = saved_state(model)
    arrays["prev_empty"] = np.zeros((2, 2, 2), dtype=bool)
    with pytest.raises(SnapshotError, match=r"prev_empty must be bool of shape \(2, 2, 1\)"):
        model.load_state_dict(header, arrays)
    assert model.to_bytes() == before


@pytest.mark.parametrize("value", [np.nan, np.inf, -0.5, 1.5])
def test_aggregate_history_must_lie_in_the_unit_interval(value):
    # Every aggregate is a mean of scores in [0, 1]; NaN would spoil the smoothed one.
    model = stepped_model()
    before = model.to_bytes()
    header, arrays = saved_state(model)
    arrays["agg_history"][-1] = value
    with pytest.raises(SnapshotError, match=r"agg_history must lie in \[0, 1\]"):
        model.load_state_dict(header, arrays)
    assert model.to_bytes() == before


@pytest.mark.parametrize("history", [
    np.zeros((1, 3, 128), dtype=bool),
    np.zeros((1, 1, 128), dtype=bool),
    np.zeros((1, 2, 129), dtype=bool),
    np.zeros(256, dtype=bool),
    np.zeros((1, 2, 128), dtype=np.int64),
    np.zeros((1, 2, 128)),
    np.array([[False] * 128] * 2),
], ids=["extra-entry", "missing-entry", "out-of-range", "flat", "int", "float", "list"])
def test_unit_history_must_fit_the_ring(history):
    # "list" is one cell's ring without the group's cell axis.
    model = GridModel(alone_config(class_count=1, multistep_n=2))
    before = model.to_bytes()
    header, arrays = saved_state(model)
    arrays["sp1.history"] = history
    with pytest.raises(SnapshotError,
                       match=r"cell \(0, 1\): history ring must be bool of shape \(1, 2, 128\)"):
        model.load_state_dict(header, arrays)
    assert model.to_bytes() == before


def test_loaded_history_ring_matches_the_saved_indices():
    model = GridModel(build_grid_config((24, 24), (12, 12), multistep_n=3))
    header, arrays = model.state_dict()
    saved = np.zeros((4, 3, 128), dtype=bool)
    saved[1, 0, [2, 9]] = saved[1, 2, [0, 127]] = True
    arrays["sp0.history"] = saved
    model.load_state_dict(header, arrays)
    ring = model.unit(0, 1).history
    assert ring.dtype == bool and ring.shape == (3, 128)
    assert [np.flatnonzero(row).tolist() for row in ring] == [[2, 9], [], [0, 127]]
    assert not np.shares_memory(ring, saved)


def first_set(values, value):
    """A float copy of ``values`` whose first entry is ``value``."""
    out = np.array(values, dtype=np.float64)
    out.flat[0] = value
    return out


# Damage to each check of the arrays a loaded unit uses: the problem it names,
# the change to cell (0, 1)'s parts of the group arrays, and whether the
# check can name the cell within a group of several cells.  A group-wide
# shape, or a cell beyond the group's range, names every cell of the group.
# A 2-class cell has 288 input bits and 2048 memory cells of at most 32
# synapses per segment.
INDEX_DAMAGE = {
    "segment-cell": ("segment cells", lambda c: c.set("tm.seg_cells", c.rows[0], (c.u + 1) * c.T),
                     True),
    "presyn-range": ("presyn cells", lambda c: c.set("tm.presyn", c.last, (c.u + 1) * c.T), True),
    "presyn-negative": ("presyn cells", lambda c: c.set("tm.presyn", c.syn, -1), True),
    "row-too-long": ("at most 32 synapses", lambda c: c.grow_first_row(33), True),
    "perm-length": ("perm must be float64 of shape",
                    lambda c: c.put("tm.perm", np.delete(c.a("tm.perm"), c.syn)), False),
    "last-reinforced-length": ("last_reinforced must be integers of shape", lambda c: c.put(
        "tm.last_reinforced", np.delete(c.a("tm.last_reinforced"), c.last)), False),
    "id-order": ("segment ids", lambda c: c.set("tm.seg_ids", c.rows[1],
                                                c.a("tm.seg_ids")[c.rows[0]]), True),
    "id-bound": ("segment ids", lambda c: c.set("tm.next_segment_ids", c.u,
                                                c.a("tm.seg_ids")[c.rows[-1]]), True),
    "active-cells-order": ("active_cells", lambda c: c.reverse_own("tm.active_cells"), True),
    "active-cells-range": ("active_cells", lambda c: c.put(
        "tm.active_cells", np.r_[c.a("tm.active_cells"), (c.u + 1) * c.T]), False),
    "winner-cells-order": ("winner_cells", lambda c: c.reverse_own("tm.winner_cells"), True),
    "winner-cells-range": ("winner_cells", lambda c: c.put(
        "tm.winner_cells", np.r_[-1, c.a("tm.winner_cells")]), False),
    "pools-shape": ("pools must be integers of shape",
                    lambda c: c.put("sp.pools", c.a("sp.pools")[..., :-1]), False),
    "pools-order": ("pool rows", lambda c: c.set("sp.pools", c.u, c.a("sp.pools")[c.u][:, ::-1]),
                    True),
    "pools-range": ("pool rows", lambda c: c.set(
        "sp.pools", c.u, c.a("sp.pools")[c.u] + 288 - c.a("sp.pools")[c.u].max()), True),
    # Each entry 2**16 past a valid row, which would read back as that row in uint16.
    "pools-wrap": ("pool rows", lambda c: c.set("sp.pools", c.u, c.a("sp.pools")[c.u] + 2**16),
                   True),
    "permanences-shape": ("permanences must be float64 of shape",
                          lambda c: c.put("sp.permanences", c.a("sp.permanences")[:, :-1]), False),
    "duty-cycles-shape": ("duty cycles must be float64 of shape",
                          lambda c: c.put("sp.duty_cycles", c.a("sp.duty_cycles")[:, :-1]), False),
    # Learned values outside [0, 1], which nothing the engine writes can hold.
    "permanences-nan": (r"permanences must lie in \[0, 1\]",
                        lambda c: c.set("sp.permanences", (c.u, 0, 0), np.nan), True),
    "permanences-above-one": (r"permanences must lie in \[0, 1\]",
                              lambda c: c.set("sp.permanences", (c.u, 3, 1), 1.5), True),
    "permanences-negative": (r"permanences must lie in \[0, 1\]",
                             lambda c: c.set("sp.permanences", (c.u, 0, 0), -0.1), True),
    "step-count-negative": ("step count must be non-negative",
                            lambda c: c.set("sp.step_counts", c.u, -1), True),
    "duty-cycles-inf": (r"duty cycles must lie in \[0, 1\]",
                        lambda c: c.set("sp.duty_cycles", (c.u, 0), np.inf), True),
    "tm-perm-nan": (r"synapse permanences must lie in \[0, 1\]",
                    lambda c: c.set("tm.perm", c.syn, np.nan), True),
    "tm-perm-inf": (r"synapse permanences must lie in \[0, 1\]",
                    lambda c: c.set("tm.perm", c.last, -np.inf), True),
    "tm-perm-above-one": (r"synapse permanences must lie in \[0, 1\]",
                          lambda c: c.set("tm.perm", c.syn, 1.5), True),
    # What group arrays can newly get wrong.
    "segment-cell-of-another-unit": ("segment cells", lambda c: c.set(
        "tm.seg_cells", c.rows[0], c.a("tm.seg_cells")[c.rows[0]] + c.T), True),
    "id-row-order": ("segment ids must increase in row order", lambda c: c.swap_first_ids(), True),
    "tm-step-count-negative": ("step counts and next segment ids must be non-negative",
                               lambda c: c.set("tm.step_counts", c.u, -1), True),
    "generator-state": ("generator state does not load", lambda c: c.header["rng_states"][c.g]
                        .__setitem__(c.u, {"bit_generator": "MT19937"}), True),
    "generator-states-length": ("generator states must be a list of 1",
                                lambda c: c.header["rng_states"][c.g].append({}), False),
    "segment-unit-range": (r"segment units must be integers in \[0, 1\)",
                           lambda c: c.set("tm.seg_units", c.rows[-1], c.u + 1), False),
}


@pytest.mark.parametrize("damage", INDEX_DAMAGE)
def test_loaded_indices_must_fit(damage):
    model = stepped_model(config=alone_config())
    before = model.to_bytes()
    header, arrays = saved_state(model)
    problem, change, _ = INDEX_DAMAGE[damage]
    change(CellArrays(model, header, arrays, (0, 1)))
    with pytest.raises(SnapshotError, match=rf"cell \(0, 1\): (sp|tm) .*{problem}"):
        model.load_state_dict(header, arrays)
    assert model.to_bytes() == before


@pytest.mark.parametrize("damage", [name for name, (*_, named) in INDEX_DAMAGE.items() if named])
def test_damage_in_a_shared_group_names_its_cell(damage):
    # All four cells are one pooler group and one memory group.
    model = stepped_model(config=build_grid_config((24, 24), (12, 12), 2))
    header, arrays = saved_state(model)
    problem, change, _ = INDEX_DAMAGE[damage]
    change(CellArrays(model, header, arrays, (0, 1)))
    with pytest.raises(SnapshotError, match=rf"snapshot cell \(0, 1\): (sp|tm) .*{problem}"):
        GridModel.from_bytes(packed(header, arrays))


def test_group_wide_damage_names_the_group():
    model = stepped_model(config=build_grid_config((24, 24), (12, 12), 2))
    header, arrays = saved_state(model)
    arrays["tm0.perm"] = arrays["tm0.perm"][:-1]
    with pytest.raises(SnapshotError, match=r"snapshot cells \(0, 0\), \(0, 1\), \(1, 0\) and 1 "
                                            r"more: tm perm must be float64 of shape"):
        GridModel.from_bytes(packed(header, arrays))


def test_non_finite_config_is_rejected_on_load():
    model = GridModel(build_grid_config((24, 24), (12, 12)))
    header, arrays = model.state_dict()
    header["config"]["default_tm"]["permanence_increment"] = float("nan")
    with pytest.raises(SnapshotError, match=r"tm\.permanence_increment must be finite"):
        GridModel.from_bytes(packed(header, arrays))


def test_overflowing_boost_is_rejected_on_load():
    model = GridModel(build_grid_config((24, 24), (12, 12)))
    header, arrays = model.state_dict()
    header["config"]["default_sp"].update(boosting_enabled=True, boost_strength=800.0)
    with pytest.raises(SnapshotError, match="sp boost_strength must be at most"):
        model.load_state_dict(header, arrays)


@pytest.mark.parametrize("failing", ["to_bytes", "replace"])
def test_failed_save_keeps_the_existing_snapshot(tmp_path, monkeypatch, failing):
    model = GridModel(build_grid_config((24, 24), (12, 12)))
    path = tmp_path / "model.snap"
    # A file of the user's under the name older versions staged a save under.
    users = tmp_path / "model.snap.tmp"
    users.write_bytes(b"mine")
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
    assert users.read_bytes() == b"mine"
    assert sorted(os.listdir(tmp_path)) == ["model.snap", "model.snap.tmp"]


def test_save_replaces_the_existing_snapshot(tmp_path):
    model = GridModel(build_grid_config((24, 24), (12, 12)))
    path = tmp_path / "model.snap"
    model.save(path)
    model.step([np.ones((24, 24), dtype=np.uint8)])
    model.save(str(path))
    assert path.read_bytes() == model.to_bytes()
    assert os.listdir(tmp_path) == ["model.snap"]


# --- fuzzing: damaged snapshots raise only SnapshotError ------------------------

FUZZ_MODEL = stepped_model(config=alone_config(class_count=1))
FUZZ_BYTES = FUZZ_MODEL.to_bytes()
FUZZ_PREFIX, FUZZ_HEADER, FUZZ_DATA = split(FUZZ_BYTES)
FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def loads_or_raises_snapshot_error(blob: bytes, capfd) -> bool:
    """Load ``blob``: it raises ``SnapshotError`` or gives a model that steps and saves.

    Either way nothing is written to stdout or stderr.  True if it loaded.
    """
    try:
        model = GridModel.from_bytes(blob)
    except SnapshotError:
        model = None
    else:
        model.step([np.ones((24, 24), dtype=np.uint8)])
        model.to_bytes()
    assert capfd.readouterr() == ("", "")
    return model is not None


@FUZZ
@given(st.integers(0, len(FUZZ_BYTES) - 1))
def test_truncated_snapshot_raises_only_snapshot_error(capfd, cut):
    assert not loads_or_raises_snapshot_error(FUZZ_BYTES[:cut], capfd)


@FUZZ
@given(st.lists(st.integers(0, 8 * len(FUZZ_BYTES) - 1), min_size=1, max_size=3))
def test_bit_flipped_snapshot_raises_only_snapshot_error(capfd, flips):
    blob = bytearray(FUZZ_BYTES)
    for bit in flips:
        blob[bit // 8] ^= 1 << (bit % 8)
    loads_or_raises_snapshot_error(bytes(blob), capfd)


def _flipped(data: bytes, flips) -> bytes:
    out = bytearray(data)
    for at, bit in flips:
        out[at % len(out)] ^= 1 << bit
    return bytes(out)


# Each array is picked as often as any other, however large it is.
_ARRAYS = [(entry["offset"], int(np.prod(entry["shape"])) * np.dtype(entry["dtype"]).itemsize)
           for entry in FUZZ_HEADER["arrays"]]
_FLIPS = st.lists(st.tuples(st.integers(0, 2 ** 20), st.integers(0, 7)), min_size=1, max_size=3)


@FUZZ
@given(st.data())
def test_checksum_valid_damage_raises_only_snapshot_error(capfd, data):
    # Flipped bits under a recomputed checksum, as a faulty writer leaves
    # them, in the header text or in one array.
    text = json.dumps(FUZZ_HEADER).encode("utf-8")
    array_data = FUZZ_DATA
    if data.draw(st.booleans(), label="in header"):
        text = _flipped(text, data.draw(_FLIPS, label="header flips"))
    else:
        offset, size = data.draw(st.sampled_from([a for a in _ARRAYS if a[1]]), label="array")
        flips = data.draw(_FLIPS, label="array flips")
        array_data = (FUZZ_DATA[:offset] + _flipped(FUZZ_DATA[offset : offset + size], flips)
                      + FUZZ_DATA[offset + size :])
    body = struct.pack(">Q", len(text)) + text + array_data
    loads_or_raises_snapshot_error(with_checksum(FUZZ_PREFIX, body), capfd)


def _config_leaves(value, path=()):
    """The paths of every value in the header's config, nested ones included."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _config_leaves(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _config_leaves(item, (*path, index))


_CONFIG = FUZZ_HEADER["config"]
_CONFIG_PATHS = list(_config_leaves(_CONFIG))[1:]
_VALUES = st.one_of(st.booleans(), st.integers(-3, 300), st.floats(allow_nan=True),
                    st.sampled_from([2**40, 10**30, -(2**70)]),  # far past any count's bound
                    st.text(max_size=4), st.none(), st.lists(st.integers(0, 30), max_size=3),
                    st.sampled_from(["median", "MEAN", "nonzero"]), st.just({}))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


@FUZZ
@given(st.sampled_from(_CONFIG_PATHS), st.one_of(st.just("delete"), _VALUES))
def test_mistyped_config_fields_raise_only_snapshot_error(capfd, path, value):
    header = json.loads(json.dumps(FUZZ_HEADER))
    parent, key = _at(header["config"], path[:-1]), path[-1]
    old = parent[key]
    if value == "delete" and isinstance(parent, dict):
        del parent[key]
    else:
        parent[key] = value
    fits = value != "delete" and (type(value) is type(old) or (old is None and
                                                              isinstance(value, dict)))
    loaded = loads_or_raises_snapshot_error(joined(FUZZ_PREFIX, header, FUZZ_DATA), capfd)
    # A missing key, a value of another type or an unknown aggregation never loads.
    assert fits or not loaded
    if path == ("aggregation",) and value not in ("mean", "nonzero_mean"):
        assert not loaded
