"""Flat key-value configuration files.

Both the run configuration and scenario descriptions use the same format:
one ``key = value`` per line, ``#`` comments, dotted section prefixes
(``grid.multistep_n = 2``).  Parsing collects every problem it finds and
reports them together, so a bad file fails once with the full list.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .aggregation import AggregationKind
from .encoder import EncoderConfig
from .errors import ConfigError
from .grid import CellOverride, GridConfig, derive_cell_seeds
from .scenario import (
    FrameRepeat,
    FrameSkip,
    LinearLoop,
    NoiseSpec,
    ObjectTrack,
    Scenario,
    Scripted,
    Stationary,
)
from .spatial_pooler import SpParams
from .temporal_memory import TmParams

__all__ = ["RunConfig", "parse_kv_text", "parse_run_config", "parse_scenario_config"]

_SP_FIELDS = {
    "column_count": int,
    "active_columns": int,
    "potential_fraction": float,
    "connected_threshold": float,
    "permanence_increment": float,
    "permanence_decrement": float,
    "stimulus_threshold": int,
    "boosting_enabled": bool,
    "boost_strength": float,
    "seed": int,
}

_TM_FIELDS = {
    "cells_per_column": int,
    "max_segments_per_cell": int,
    "max_synapses_per_segment": int,
    "initial_permanence": float,
    "connected_threshold": float,
    "permanence_increment": float,
    "permanence_decrement": float,
    "predicted_decrement": float,
    "activation_threshold": int,
    "min_threshold": int,
    "new_synapse_count": int,
    "seed": int,
}


@dataclass
class RunConfig:
    input: str
    grid: GridConfig
    learn: bool = True
    calibration_frames: int = 0
    workers: int = 1
    resume: str | None = None
    scores_csv: str | None = None
    per_cell: bool = False
    heatmap_dir: str | None = None
    snapshot_out: str | None = None


def parse_kv_text(text: str) -> dict[str, str]:
    errors = []
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            errors.append(f"line {ln}: expected 'key = value', got {line!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            errors.append(f"line {ln}: empty key")
            continue
        if key in out:
            errors.append(f"line {ln}: duplicate key {key!r}")
            continue
        out[key] = value
    if errors:
        raise ConfigError("\n".join(errors))
    return out


class _Reader:
    """Typed extraction from a flat key map with error accumulation."""

    def __init__(self, raw: dict[str, str]):
        self.raw = dict(raw)
        self.errors: list[str] = []

    def take(self, key, parse, default=None, required=False):
        if key not in self.raw:
            if required:
                self.errors.append(f"missing required key {key!r}")
            return default
        value = self.raw.pop(key)
        try:
            return parse(value)
        except (ValueError, TypeError) as exc:
            self.errors.append(f"key {key!r}: {exc}")
            return default

    def finish(self, what: str) -> None:
        for key in sorted(self.raw):
            self.errors.append(f"unknown {what} key {key!r}")
        if self.errors:
            raise ConfigError("\n".join(self.errors))


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _parse_size(value: str) -> tuple[int, int]:
    parts = value.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"expected ROWSxCOLS, got {value!r}")
    return int(parts[0]), int(parts[1])


def _parse_pair(value: str) -> tuple[int, int]:
    parts = value.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected ROW,COL, got {value!r}")
    return int(parts[0]), int(parts[1])


def _parse_positions(value: str) -> tuple[tuple[int, int], ...]:
    return tuple(_parse_pair(chunk) for chunk in value.split(";") if chunk.strip())


def _parse_aggregation(value: str) -> AggregationKind:
    for kind in AggregationKind:
        if kind.value == value.lower():
            return kind
    names = ", ".join(k.value for k in AggregationKind)
    raise ValueError(f"expected one of {names}, got {value!r}")


def _field_parser(kinds: dict, prefix: str):
    def parse_fields(reader: _Reader) -> dict:
        out = {}
        for name, typ in kinds.items():
            parse = _parse_bool if typ is bool else typ
            value = reader.take(f"{prefix}.{name}", parse)
            if value is not None:
                out[name] = value
        return out

    return parse_fields


def parse_scenario_config(text: str, overrides=None) -> Scenario:
    reader = _Reader(apply_overrides(parse_kv_text(text), overrides))
    frame_size = reader.take("scenario.frame_size", _parse_size, required=True)
    frame_count = reader.take("scenario.frame_count", int, required=True)
    class_count = reader.take("scenario.class_count", int, default=1)
    seed = reader.take("scenario.seed", int, default=0)
    noise = NoiseSpec(
        pixel_flip_probability=reader.take("noise.pixel_flip", float, default=0.0),
        object_dropout_probability=reader.take(
            "noise.object_dropout", float, default=0.0
        ),
    )

    objects = []
    index = 0
    while any(key.startswith(f"object.{index}.") for key in reader.raw):
        prefix = f"object.{index}"
        shape = reader.take(f"{prefix}.shape", _parse_size, required=True)
        class_index = reader.take(f"{prefix}.class", int, default=0)
        kind = reader.take(f"{prefix}.path", str, required=True)
        path = None
        if kind == "loop":
            start = reader.take(f"{prefix}.start", _parse_pair, required=True)
            velocity = reader.take(f"{prefix}.velocity", _parse_pair, required=True)
            if start is not None and velocity is not None:
                path = LinearLoop(start=start, velocity=velocity)
        elif kind == "stationary":
            position = reader.take(f"{prefix}.position", _parse_pair, required=True)
            if position is not None:
                path = Stationary(position=position)
        elif kind == "scripted":
            positions = reader.take(
                f"{prefix}.positions", _parse_positions, required=True
            )
            if positions is not None:
                path = Scripted(positions=positions)
        elif kind is not None:
            reader.errors.append(
                f"object.{index}.path: expected loop, stationary or scripted, "
                f"got {kind!r}"
            )
        if path is not None and shape is not None:
            objects.append(
                ObjectTrack(shape=shape, path=path, class_index=class_index or 0)
            )
        index += 1

    events = []
    index = 0
    while any(key.startswith(f"event.{index}.") for key in reader.raw):
        prefix = f"event.{index}"
        kind = reader.take(f"{prefix}.kind", str, required=True)
        at = reader.take(f"{prefix}.at", int, required=True)
        if kind == "repeat":
            duration = reader.take(f"{prefix}.duration", int, required=True)
            if at is not None and duration is not None:
                events.append(FrameRepeat(at=at, duration=duration))
        elif kind == "skip":
            count = reader.take(f"{prefix}.count", int, required=True)
            if at is not None and count is not None:
                events.append(FrameSkip(at=at, count=count))
        elif kind is not None:
            reader.errors.append(
                f"event.{index}.kind: expected repeat or skip, got {kind!r}"
            )
        index += 1

    reader.finish("scenario")
    return Scenario(
        frame_size=frame_size,
        frame_count=frame_count,
        objects=tuple(objects),
        events=tuple(events),
        noise=noise,
        seed=seed,
        class_count=class_count,
    )


def _collect_cell_overrides(reader: _Reader, default_sp: SpParams,
                            default_tm: TmParams, grid_seed: int) -> dict:
    """Build per-cell parameter overrides from cell.R.C.* keys.

    Fields not named in the file keep the defaults, including the
    cell-derived seed unless an explicit seed is given.
    """
    coords = set()
    for key in list(reader.raw):
        parts = key.split(".")
        if len(parts) >= 5 and parts[0] == "cell":
            try:
                coords.add((int(parts[1]), int(parts[2])))
            except ValueError:
                reader.errors.append(f"bad cell override coordinate in {key!r}")
                reader.raw.pop(key)
    overrides = {}
    for coord in sorted(coords):
        r, c = coord
        sp_seed, tm_seed = derive_cell_seeds(grid_seed, coord)
        sp_fields = _field_parser(_SP_FIELDS, f"cell.{r}.{c}.sp")(reader)
        tm_fields = _field_parser(_TM_FIELDS, f"cell.{r}.{c}.tm")(reader)
        sp = None
        tm = None
        if sp_fields:
            sp_fields.setdefault("seed", sp_seed)
            sp = replace(default_sp, **sp_fields)
        if tm_fields:
            tm_fields.setdefault("seed", tm_seed)
            tm = replace(default_tm, **tm_fields)
        if sp is not None or tm is not None:
            overrides[coord] = CellOverride(sp=sp, tm=tm)
    return overrides


def build_run_config(raw: dict[str, str]) -> RunConfig:
    reader = _Reader(raw)
    input_path = reader.take("input", str, required=True)
    learn = reader.take("learn", _parse_bool, default=True)
    calibration = reader.take("calibration_frames", int, default=0)
    workers = reader.take("workers", int, default=1)
    resume = reader.take("resume", str)
    scores_csv = reader.take("output.scores_csv", str)
    per_cell = reader.take("output.per_cell", _parse_bool, default=False)
    heatmap_dir = reader.take("output.heatmap_dir", str)
    snapshot_out = reader.take("output.snapshot", str)

    aggregation = reader.take(
        "aggregation", _parse_aggregation, default=AggregationKind.MEAN
    )
    smoothing_window = reader.take("smoothing_window", int, default=200)

    frame_size = reader.take("encoder.frame_size", _parse_size, required=True)
    cell_size = reader.take("encoder.cell_size", _parse_size, default=(12, 12))
    class_count = reader.take("encoder.class_count", int, default=1)
    min_sparsity = reader.take("encoder.min_sparsity", int, default=5)
    empty_sparsity = reader.take("encoder.empty_pattern_sparsity", int, default=5)
    encoder_seed = reader.take("encoder.seed", int, default=0)

    grid_seed = reader.take("grid.seed", int, default=0)
    multistep_n = reader.take("grid.multistep_n", int, default=2)
    suppression = reader.take("grid.suppression_enabled", _parse_bool, default=True)

    sp_fields = _field_parser(_SP_FIELDS, "sp")(reader)
    tm_fields = _field_parser(_TM_FIELDS, "tm")(reader)

    if frame_size is None or cell_size is None:
        reader.finish("run")
    encoder = EncoderConfig(
        frame_size=frame_size,
        cell_size=cell_size,
        class_count=class_count,
        min_sparsity=min_sparsity,
        empty_pattern_sparsity=empty_sparsity,
        seed=encoder_seed,
    )
    sp_fields.setdefault("column_count", 128)
    sp_fields.setdefault("active_columns", 8)
    default_sp = SpParams(
        input_width=encoder.cell_bits * class_count,
        **sp_fields,
    )
    default_tm = TmParams(
        column_count=default_sp.column_count * max(multistep_n, 1),
        **tm_fields,
    )
    overrides = _collect_cell_overrides(reader, default_sp, default_tm, grid_seed)
    # Override TM widths track the owning cell's SP width and the multistep factor.
    fixed = {}
    for coord, override in overrides.items():
        sp = override.sp if override.sp is not None else default_sp
        tm = override.tm if override.tm is not None else default_tm
        tm = replace(tm, column_count=sp.column_count * max(multistep_n, 1))
        fixed[coord] = CellOverride(sp=override.sp, tm=tm)
    grid = GridConfig(
        encoder=encoder,
        default_sp=default_sp,
        default_tm=default_tm,
        multistep_n=multistep_n,
        suppression_enabled=suppression,
        per_cell_overrides=fixed,
        seed=grid_seed,
        aggregation=aggregation,
        smoothing_window=smoothing_window,
    )
    reader.errors.extend(grid.problems())
    if calibration is not None and calibration < 0:
        reader.errors.append("calibration_frames must be >= 0")
    if workers is not None and workers < 1:
        reader.errors.append("workers must be >= 1")
    reader.finish("run")
    return RunConfig(
        input=input_path,
        grid=grid,
        learn=learn,
        calibration_frames=calibration,
        workers=workers,
        resume=resume,
        scores_csv=scores_csv,
        per_cell=per_cell,
        heatmap_dir=heatmap_dir,
        snapshot_out=snapshot_out,
    )


def apply_overrides(raw: dict[str, str], overrides) -> dict[str, str]:
    """Apply command-line ``key=value`` strings on top of file values."""
    out = dict(raw)
    errors = []
    for item in overrides or ():
        if "=" not in item:
            errors.append(f"override {item!r}: expected key=value")
            continue
        key, _, value = item.partition("=")
        out[key.strip()] = value.strip()
    if errors:
        raise ConfigError("\n".join(errors))
    return out


def parse_run_config(text: str, overrides=None) -> RunConfig:
    return build_run_config(apply_overrides(parse_kv_text(text), overrides))
