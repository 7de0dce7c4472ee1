import re
from dataclasses import MISSING, fields, replace
from functools import partial
from typing import get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

from htmgrid import (
    AggregationKind,
    CellOverride,
    ConfigError,
    EncoderConfig,
    GridConfig,
    GridModel,
    SpParams,
    TmParams,
    derive_cell_seeds,
)
from htmgrid.config import (
    RunConfig,
    apply_overrides,
    build_run_config,
    parse_kv_text,
    parse_run_config,
    parse_scenario_config,
)
from htmgrid import scenario as scenario_module
from htmgrid.errors import MAX_COUNT
from htmgrid.scenario import (FrameRepeat, FrameSkip, LinearLoop, NoiseSpec, ObjectTrack, Scenario,
                              Scripted, Stationary, emitted_frame_times, generate)

MINIMAL_RUN = """
# run configuration
input = stream
encoder.frame_size = 36x36
"""


def test_parse_kv_basics():
    raw = parse_kv_text("a = 1\n# comment\n\nb.c = two words\n")
    assert raw == {"a": "1", "b.c": "two words"}


def test_parse_kv_reports_all_line_errors():
    with pytest.raises(ConfigError) as excinfo:
        parse_kv_text("a = 1\nbogus line\na = 2\n= empty\n")
    message = str(excinfo.value)
    assert "line 2" in message
    assert "duplicate" in message
    assert "line 4" in message


def test_minimal_run_config_defaults():
    run = parse_run_config(MINIMAL_RUN)
    assert run.input == "stream"
    assert run.learn is True
    assert run.calibration_frames == 0
    grid = run.grid
    assert grid.encoder.frame_size == (36, 36)
    assert grid.encoder.cell_size == (12, 12)
    assert grid.encoder.min_sparsity == 5
    assert grid.encoder.empty_pattern_sparsity == 5
    assert grid.multistep_n == 2
    assert grid.suppression_enabled is True
    assert grid.smoothing_window == 200
    assert grid.aggregation is AggregationKind.MEAN
    assert grid.default_sp.input_width == 144
    assert grid.default_sp.boosting_enabled is False
    assert grid.default_tm.column_count == grid.default_sp.column_count * 2


def test_run_config_full_keys():
    run = parse_run_config(
        """
        input = stream
        learn = false
        calibration_frames = 10
        workers = 4
        aggregation = nonzero_mean
        smoothing_window = 50
        output.scores_csv = out.csv
        output.per_cell = true
        output.heatmap_dir = heat
        output.snapshot = model.snap
        encoder.frame_size = 48x48
        encoder.cell_size = 12x12
        encoder.class_count = 2
        encoder.min_sparsity = 3
        encoder.empty_pattern_sparsity = 4
        encoder.seed = 9
        grid.seed = 2
        grid.multistep_n = 3
        grid.suppression_enabled = false
        sp.column_count = 64
        sp.active_columns = 4
        tm.cells_per_column = 4
        """
    )
    assert run.learn is False
    assert run.calibration_frames == 10
    assert run.workers == 4
    assert run.scores_csv == "out.csv" and run.per_cell is True
    grid = run.grid
    assert grid.aggregation is AggregationKind.NONZERO_MEAN
    assert grid.encoder.class_count == 2
    assert grid.default_sp.input_width == 288
    assert grid.default_sp.column_count == 64
    assert grid.default_tm.column_count == 192
    assert grid.default_tm.cells_per_column == 4
    assert grid.multistep_n == 3
    assert grid.suppression_enabled is False


def test_unknown_keys_enumerated():
    with pytest.raises(ConfigError) as excinfo:
        parse_run_config(MINIMAL_RUN + "bogus = 1\nsp.nope = 2\n")
    message = str(excinfo.value)
    assert "bogus" in message
    assert "sp.nope" in message


def test_invalid_values_enumerated_together():
    with pytest.raises(ConfigError) as excinfo:
        parse_run_config(
            """
            input = stream
            encoder.frame_size = 35x36
            sp.active_columns = 0
            workers = 0
            smoothing_window = -1
            cell.-1.0.sp.column_count = 64
            """
        )
    message = str(excinfo.value)
    assert "bad cell override coordinate in 'cell.-1.0.sp.column_count'" in message
    assert "multiple" in message  # frame not divisible by cell
    assert "active_columns" in message
    assert "workers" in message
    assert "smoothing_window" in message


@pytest.mark.parametrize("size", ["0x12", "12x0"])
def test_zero_cell_size_is_a_config_error(size):
    # The grid shape divides by the cell size, so a zero one is reported, not divided by.
    with pytest.raises(ConfigError, match="encoder cell_size must be positive"):
        parse_run_config(MINIMAL_RUN + f"encoder.cell_size = {size}\n")


def test_cell_override_keeps_derived_seed():
    run = parse_run_config(
        MINIMAL_RUN
        + """
        grid.seed = 7
        cell.1.2.sp.column_count = 64
        cell.0.0.sp.permanence_increment = 0.1
        cell.2.1.tm.cells_per_column = 4
        """
    )
    overrides = run.grid.per_cell_overrides
    override = overrides[(1, 2)]
    sp_seed, tm_seed = derive_cell_seeds(7, (1, 2))
    assert override.sp.column_count == 64
    assert override.sp.seed == sp_seed
    # tm width follows the override's sp width
    assert override.tm.column_count == 64 * 2
    # an override of one part keeps the other part's derived seed
    assert override.tm.seed == tm_seed
    assert overrides[(0, 0)].tm.seed == derive_cell_seeds(7, (0, 0))[1]
    assert overrides[(2, 1)].sp.seed == derive_cell_seeds(7, (2, 1))[0]
    model = GridModel(run.grid)
    for coord in [(0, 0), (1, 2), (2, 1), (2, 2)]:
        unit = model.unit(*coord)
        assert (unit.sp.params.seed, unit.tm.params.seed) == derive_cell_seeds(7, coord)


def _perturbed(params, names):
    def bump(value):
        if isinstance(value, bool):
            return not value
        return value + 1 if isinstance(value, int) else value / 2

    return replace(params, **{name: bump(getattr(params, name)) for name in names})


def test_parameter_keys_are_the_dataclass_fields():
    sp_keys = [f.name for f in fields(SpParams) if f.name != "input_width"]
    tm_keys = [f.name for f in fields(TmParams) if f.name != "column_count"]
    sp = _perturbed(SpParams(input_width=144, column_count=64, active_columns=4), sp_keys)
    tm = _perturbed(TmParams(column_count=sp.column_count * 2), tm_keys)

    def lines(prefix, params, names):
        return "".join(f"{prefix}.{name} = {getattr(params, name)}\n" for name in names)

    run = parse_run_config(
        MINIMAL_RUN
        + lines("sp", sp, [k for k in sp_keys if k != "seed"])
        + lines("tm", tm, [k for k in tm_keys if k != "seed"])
        + lines("cell.0.0.sp", sp, sp_keys)
        + lines("cell.0.0.tm", tm, tm_keys)
    )
    assert run.grid.default_sp == replace(sp, seed=0)
    assert run.grid.default_tm == replace(tm, seed=0)
    assert run.grid.per_cell_overrides == {(0, 0): CellOverride(sp=sp, tm=tm)}
    # The wired widths are no keys, and a seed is one only per cell.
    for key in ["sp.input_width", "tm.column_count", "sp.seed", "tm.seed",
                "cell.0.0.sp.input_width", "cell.0.0.tm.column_count"]:
        with pytest.raises(ConfigError, match=f"unknown run key '{re.escape(key)}'"):
            parse_run_config(MINIMAL_RUN + f"{key} = 1\n")


# The fields no key sets: they are built from other keys.
NOT_KEYS = {
    RunConfig: {"grid"},
    GridConfig: {"encoder", "default_sp", "default_tm", "per_cell_overrides"},
    Scenario: {"objects", "events", "noise"},
    ObjectTrack: {"path"},
}

# Per section: each key's dataclass and field, a value other than the field's default,
# and that value parsed.
RUN_KEYS = {
    "input": (RunConfig, "input", "stream", "stream"),
    "learn": (RunConfig, "learn", "false", False),
    "calibration_frames": (RunConfig, "calibration_frames", "7", 7),
    "workers": (RunConfig, "workers", "3", 3),
    "resume": (RunConfig, "resume", "old.snap", "old.snap"),
    "output.scores_csv": (RunConfig, "scores_csv", "s.csv", "s.csv"),
    "output.per_cell": (RunConfig, "per_cell", "true", True),
    "output.heatmap_dir": (RunConfig, "heatmap_dir", "heat", "heat"),
    "output.snapshot": (RunConfig, "snapshot_out", "m.snap", "m.snap"),
    "encoder.frame_size": (EncoderConfig, "frame_size", "48x48", (48, 48)),
    "encoder.cell_size": (EncoderConfig, "cell_size", "8x6", (8, 6)),
    "encoder.class_count": (EncoderConfig, "class_count", "2", 2),
    "encoder.min_sparsity": (EncoderConfig, "min_sparsity", "3", 3),
    "encoder.empty_pattern_sparsity": (EncoderConfig, "empty_pattern_sparsity", "4", 4),
    # Dropped, it reads 0 with grid.seed set: the golden trace relies on that.
    "encoder.seed": (EncoderConfig, "seed", "9", 9),
    "aggregation": (GridConfig, "aggregation", "nonzero_mean", AggregationKind.NONZERO_MEAN),
    "smoothing_window": (GridConfig, "smoothing_window", "50", 50),
    "grid.seed": (GridConfig, "seed", "2", 2),
    "grid.multistep_n": (GridConfig, "multistep_n", "3", 3),
    "grid.suppression_enabled": (GridConfig, "suppression_enabled", "false", False),
}
SCENARIO_KEYS = {
    "scenario.frame_size": (Scenario, "frame_size", "30x40", (30, 40)),
    "scenario.frame_count": (Scenario, "frame_count", "12", 12),
    "scenario.class_count": (Scenario, "class_count", "3", 3),
    "scenario.seed": (Scenario, "seed", "5", 5),
    "noise.pixel_flip": (NoiseSpec, "pixel_flip_probability", "0.25", 0.25),
    "noise.object_dropout": (NoiseSpec, "object_dropout_probability", "0.5", 0.5),
}
TRACK_KEYS = {
    "object.0.shape": (ObjectTrack, "shape", "3x4", (3, 4)),
    "object.0.class": (ObjectTrack, "class_index", "1", 1),
}
PATH_KEYS = {
    "loop": (LinearLoop, {"object.0.start": (LinearLoop, "start", "1,2", (1, 2)),
                          "object.0.velocity": (LinearLoop, "velocity", "0,-1", (0, -1))}),
    "stationary": (Stationary, {"object.0.position": (Stationary, "position", "5,6", (5, 6))}),
    "scripted": (Scripted, {"object.0.positions": (Scripted, "positions", "1,1;2,3",
                                                   ((1, 1), (2, 3)))}),
}
EVENT_KEYS = {
    "repeat": (FrameRepeat, {"event.0.at": (FrameRepeat, "at", "3", 3),
                             "event.0.duration": (FrameRepeat, "duration", "4", 4)}),
    "skip": (FrameSkip, {"event.0.at": (FrameSkip, "at", "2", 2),
                         "event.0.count": (FrameSkip, "count", "5", 5)}),
}
STREAM = "scenario.frame_size = 30x40\nscenario.frame_count = 12\n"


def _part(values, cls):
    return {name: value for (owner, name), value in values.items() if owner is cls}


def _built_run(values):
    encoder = EncoderConfig(**_part(values, EncoderConfig))
    grid = _part(values, GridConfig)
    sp = SpParams(input_width=encoder.cell_bits * encoder.class_count, column_count=128,
                  active_columns=8)
    tm = TmParams(column_count=128 * grid.get("multistep_n", GridConfig.multistep_n))
    return RunConfig(grid=GridConfig(encoder, sp, tm, **grid), **_part(values, RunConfig))


def _built_scenario(values):
    return Scenario(noise=NoiseSpec(**_part(values, NoiseSpec)), **_part(values, Scenario))


def _built_object(path_cls, values):
    track = ObjectTrack(path=path_cls(**_part(values, path_cls)), **_part(values, ObjectTrack))
    return Scenario(frame_size=(30, 40), frame_count=12, objects=(track,))


def _built_event(event_cls, values):
    return Scenario(frame_size=(30, 40), frame_count=12,
                    events=(event_cls(**_part(values, event_cls)),))


SECTIONS = {
    "run": (parse_run_config, "", RUN_KEYS, _built_run),
    "scenario": (parse_scenario_config, "", SCENARIO_KEYS, _built_scenario),
    **{f"object-{kind}": (parse_scenario_config, f"{STREAM}object.0.path = {kind}\n",
                          {**TRACK_KEYS, **keys}, partial(_built_object, cls))
       for kind, (cls, keys) in PATH_KEYS.items()},
    **{f"event-{kind}": (parse_scenario_config, f"{STREAM}event.0.kind = {kind}\n", keys,
                         partial(_built_event, cls))
       for kind, (cls, keys) in EVENT_KEYS.items()},
}


@pytest.mark.parametrize("section", SECTIONS)
def test_every_field_has_exactly_one_key(section):
    parse, base, keys, build = SECTIONS[section]
    for cls in {cls for cls, *_ in keys.values()}:
        keyed = sorted(name for owner, name, *_ in keys.values() if owner is cls)
        assert keyed == sorted(f.name for f in fields(cls) if f.name not in NOT_KEYS.get(cls, ()))
    values = {(cls, name): value for cls, name, _, value in keys.values()}
    lines = {key: f"{key} = {text}\n" for key, (_, _, text, _) in keys.items()}
    assert parse(base + "".join(lines.values())) == build(values)
    # Each key dropped in turn: its field reads the dataclass default, or it is required.
    for key, (cls, name, _, value) in keys.items():
        text = base + "".join(line for other, line in lines.items() if other != key)
        default = next(f.default for f in fields(cls) if f.name == name)
        if default is MISSING:
            with pytest.raises(ConfigError, match=f"^missing required key '{re.escape(key)}'$"):
                parse(text)
        else:
            assert value != default
            assert parse(text) == build({k: v for k, v in values.items() if k != (cls, name)})


FLOAT_KEYS = [
    (prefix, f.name)
    for prefix, cls in (("sp", SpParams), ("tm", TmParams))
    for f in fields(cls)
    if get_type_hints(cls)[f.name] is float
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("prefix, name", FLOAT_KEYS, ids=[f"{p}.{n}" for p, n in FLOAT_KEYS])
def test_non_finite_float_parameter_is_a_config_error(prefix, name, value):
    key = f"{prefix}.{name}"
    with pytest.raises(ConfigError, match=rf"{re.escape(key)} must be finite, got {value}"):
        parse_run_config(MINIMAL_RUN, [f"{key}={value}"])
    # A per-cell override reports it through the same problem list.
    with pytest.raises(ConfigError, match=rf"{re.escape(key)} must be finite"):
        parse_run_config(MINIMAL_RUN, [f"cell.1.2.{key}={value}"])


@pytest.mark.parametrize("strength, problem", [
    ("800", r"sp boost_strength must be at most 70\d\.\d+ for a pool of \d+ bits, got 800"),
    ("-1", "sp boost_strength must be >= 0, got -1"),
], ids=["overflowing", "negative"])
def test_boost_strength_is_bounded(strength, problem):
    # exp(800) overflows, so every unused column would rank inf or NaN.
    with pytest.raises(ConfigError, match=problem):
        parse_run_config(MINIMAL_RUN, ["sp.boosting_enabled=true", f"sp.boost_strength={strength}"])


def test_cell_override_explicit_seed_wins():
    run = parse_run_config(MINIMAL_RUN + "cell.0.0.sp.seed = 99\n")
    assert run.grid.per_cell_overrides[(0, 0)].sp.seed == 99


def test_cli_overrides_take_precedence():
    run = parse_run_config(MINIMAL_RUN, overrides=["grid.multistep_n=1", "learn=false"])
    assert run.grid.multistep_n == 1
    assert run.learn is False


def test_bad_override_format():
    with pytest.raises(ConfigError):
        apply_overrides({}, ["no-equals-sign"])


def test_missing_required_keys():
    with pytest.raises(ConfigError) as excinfo:
        build_run_config({})
    assert "input" in str(excinfo.value)
    assert "encoder.frame_size" in str(excinfo.value)


FUZZ_RUN = """
input = stream
learn = false
calibration_frames = 10
workers = 4
aggregation = nonzero_mean
smoothing_window = 50
output.scores_csv = out.csv
output.per_cell = true
encoder.frame_size = 48x48
encoder.cell_size = 12x12
encoder.class_count = 2
encoder.min_sparsity = 3
encoder.empty_pattern_sparsity = 4
encoder.seed = 9
grid.seed = 2
grid.multistep_n = 3
sp.column_count = 64
sp.active_columns = 4
sp.potential_fraction = 0.85
sp.stimulus_threshold = 1
sp.boosting_enabled = true
sp.boost_strength = 2.0
tm.cells_per_column = 4
tm.max_segments_per_cell = 16
tm.max_synapses_per_segment = 24
tm.activation_threshold = 6
tm.min_threshold = 3
tm.new_synapse_count = 10
cell.1.2.sp.column_count = 32
cell.1.2.tm.seed = 7
"""

_HUGE = 10**200
# Huge, negative and non-numeric values, sizes and pairs among them.
_FUZZ_VALUES = st.one_of(
    st.sampled_from([str(_HUGE), str(2**63), str(2**40), str(-(2**70)), "-1", "0", "65537",
                     "1e400", "nan", "-inf", "abc", "", "1.5", "true", "12,12", "1" * 5000,
                     f"{_HUGE}x{_HUGE}", f"{2**40}x12", "-12x12", "0x0", "1x1", "65537x12"]),
    st.integers(-(2**70), 2**70).map(str),
    st.tuples(st.integers(-(2**20), 2**20), st.integers(-(2**20), 2**20)).map(
        lambda size: f"{size[0]}x{size[1]}"),
    st.text(max_size=6),
)


@pytest.mark.parametrize("lines, problem", [
    (f"encoder.frame_size = {_HUGE}x{_HUGE}\nencoder.cell_size = {_HUGE}x{_HUGE}",
     r"sp\.input_width must be in \[1, 65536\], got 1000"),
    ("encoder.frame_size = 1024x1024\nencoder.cell_size = 2x2",
     "encoder grid must have at most 65536 cells, got 512x512"),
    ("encoder.frame_size = 36x36\ntm.cells_per_column = 300",
     "tm column_count x cells_per_column must be at most 65536 cells per unit, got 256 x 300"),
    ("encoder.frame_size = 36x36\nsmoothing_window = 65537",
     r"grid\.smoothing_window must be in \[1, 65536\], got 65537"),
], ids=["huge-cells", "grid-cells", "memory-cells", "window"])
def test_sizes_past_the_count_bound_are_config_errors(lines, problem):
    with pytest.raises(ConfigError, match=problem):
        parse_run_config(f"input = stream\n{lines}\n")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_config_text_raises_only_config_error(data):
    # Swapped values and dropped or duplicated lines make a config or a ConfigError.
    lines = FUZZ_RUN.strip().splitlines()
    for _ in range(data.draw(st.integers(1, 4), label="mutations")):
        if not lines:
            break
        at = data.draw(st.integers(0, len(lines) - 1), label="line")
        kind = data.draw(st.sampled_from(["value", "drop", "duplicate"]), label="kind")
        if kind == "value":
            lines[at] = f"{lines[at].partition('=')[0]}= {data.draw(_FUZZ_VALUES, label='value')}"
        elif kind == "drop":
            del lines[at]
        else:
            lines.insert(at, lines[at])
    try:
        parse_run_config("\n".join(lines))
    except ConfigError:
        pass


SCENARIO_TEXT = """
scenario.frame_size = 36x36
scenario.frame_count = 100
scenario.seed = 11
object.0.shape = 6x6
object.0.path = loop
object.0.start = 15,0
object.0.velocity = 0,3
object.1.shape = 4x4
object.1.path = stationary
object.1.position = 4,4
event.0.kind = repeat
event.0.at = 40
event.0.duration = 10
event.1.kind = skip
event.1.at = 60
event.1.count = 5
noise.pixel_flip = 0.01
"""


@pytest.mark.parametrize("lines, problem", [
    ("scenario.frame_count = 1" + "0" * 200, r"scenario\.frame_count must be in \[1, 65536\]"),
    ("scenario.frame_size = 10000000000x10000000000",
     r"scenario\.frame_size sides must be in \[1, 65536\], got 10000000000x10000000000"),
    (f"scenario.class_count = {10**12}", r"scenario\.class_count must be in \[1, 65536\]"),
    ("object.0.shape = 70000x6", r"object\.0\.shape sides must be in \[1, 65536\]"),
    ("event.0.duration = 65537", r"event\.0\.duration must be in \[1, 65536\], got 65537"),
    ("event.0.at = 65537", r"event\.0\.at must be in \[0, 65536\], got 65537"),
    ("event.1.count = 0", r"event\.1\.count must be in \[1, 65536\], got 0"),
    ("scenario.frame_size = 65536x65536",
     r"scenario emits 104 frames of 1 65536x65536 planes, more than 1073741824 pixels"),
], ids=["frame-count", "frame-size", "class-count", "shape", "duration", "at", "count",
        "pixels"])
def test_scenario_sizes_past_the_count_bound_are_config_errors(lines, problem, monkeypatch):
    # Each one raised numpy's ValueError or MemoryError, or never ended, before the bound.
    # Nothing is rendered: the problems are listed first.
    monkeypatch.setattr(scenario_module, "_render_sim_frame", None)
    key = lines.partition("=")[0]
    text = "\n".join(line for line in SCENARIO_TEXT.splitlines() if not line.startswith(key))
    with pytest.raises(ConfigError, match=problem):
        generate(parse_scenario_config(f"{text}\n{lines}\n"))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_scenario_text_raises_only_config_error(data):
    # Swapped values and dropped or duplicated lines make a valid scenario or a
    # ConfigError.  Accepted scenarios are not rendered: their frame times are.
    lines = SCENARIO_TEXT.strip().splitlines()
    for _ in range(data.draw(st.integers(1, 4), label="mutations")):
        if not lines:
            break
        at = data.draw(st.integers(0, len(lines) - 1), label="line")
        kind = data.draw(st.sampled_from(["value", "drop", "duplicate"]), label="kind")
        if kind == "value":
            lines[at] = f"{lines[at].partition('=')[0]}= {data.draw(_FUZZ_VALUES, label='value')}"
        elif kind == "drop":
            del lines[at]
        else:
            lines.insert(at, lines[at])
    try:
        scenario = parse_scenario_config("\n".join(lines))
    except ConfigError:
        return
    problems = scenario_module._validate(scenario)
    if not problems:
        assert len(emitted_frame_times(scenario)) <= 3 * MAX_COUNT


def test_scenario_config_parses_fully():
    scenario = parse_scenario_config(SCENARIO_TEXT)
    assert scenario.frame_size == (36, 36)
    assert scenario.frame_count == 100
    assert len(scenario.objects) == 2
    assert isinstance(scenario.objects[0].path, LinearLoop)
    assert scenario.objects[0].path.velocity == (0, 3)
    assert isinstance(scenario.objects[1].path, Stationary)
    assert scenario.events == (FrameRepeat(at=40, duration=10), FrameSkip(at=60, count=5))
    assert scenario.noise.pixel_flip_probability == 0.01


def test_scenario_overrides_take_precedence():
    scenario = parse_scenario_config(
        SCENARIO_TEXT, ["scenario.seed=5", "object.2.shape=3x3",
                        "object.2.path=stationary", "object.2.position=1,1"]
    )
    assert scenario.seed == 5
    assert scenario.objects[2].path == Stationary(position=(1, 1))
    with pytest.raises(ConfigError):
        parse_scenario_config(SCENARIO_TEXT, ["scenario.seed"])


def test_scenario_bad_path_kind():
    with pytest.raises(ConfigError):
        parse_scenario_config(
            """
            scenario.frame_size = 16x16
            scenario.frame_count = 4
            object.0.shape = 2x2
            object.0.path = zigzag
            """
        )


def test_scenario_unknown_key():
    with pytest.raises(ConfigError):
        parse_scenario_config(
            "scenario.frame_size = 16x16\nscenario.frame_count = 4\nwhat = 1\n"
        )
