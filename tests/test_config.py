import re
from dataclasses import fields, replace
from typing import get_type_hints

import pytest

from htmgrid import (
    AggregationKind,
    CellOverride,
    ConfigError,
    GridModel,
    SpParams,
    TmParams,
    derive_cell_seeds,
)
from htmgrid.config import (
    apply_overrides,
    build_run_config,
    parse_kv_text,
    parse_run_config,
    parse_scenario_config,
)
from htmgrid.scenario import FrameRepeat, FrameSkip, LinearLoop, Stationary

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
