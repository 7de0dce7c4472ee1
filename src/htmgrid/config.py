"""Flat key-value configuration files.

Both the run configuration and scenario descriptions use the same format:
one ``key = value`` per line, ``#`` comments, dotted section prefixes
(``grid.multistep_n = 2``).  Parsing collects every problem it finds and
reports them together, so a bad file fails once with the full list.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import get_type_hints

from .aggregation import AggregationKind
from .errors import ConfigError
from .grid import CellOverride, GridConfig, build_grid_config
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

# The width the grid wires into each part, which no key sets.
_WIRED = {SpParams: "input_width", TmParams: "column_count"}


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


def _take_params(reader: _Reader, params_cls, prefix: str, seed: bool = False) -> dict:
    """Take ``prefix.<field>`` keys for the fields of ``params_cls`` a file may set.

    The wired width is never a key, and ``seed`` is one only where ``seed``
    is true.
    """
    skip = (_WIRED[params_cls], None if seed else "seed")
    types = get_type_hints(params_cls)
    out = {}
    for f in fields(params_cls):
        if f.name in skip:
            continue
        parse = _parse_bool if types[f.name] is bool else types[f.name]
        value = reader.take(f"{prefix}.{f.name}", parse)
        if value is not None:
            out[f.name] = value
    return out


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


def _cell_overrides(reader: _Reader, grid: GridConfig) -> dict:
    """Per-cell parameters from cell.R.C.{sp,tm}.* keys.

    An overridden cell gets both parts: its fields over the defaults, the
    cell-derived seeds unless a seed is given, and a TM width that follows
    its SP.
    """
    coords = set()
    for key in list(reader.raw):
        parts = key.split(".")
        if len(parts) >= 5 and parts[0] == "cell":
            if parts[1].isdigit() and parts[2].isdigit():
                coords.add((int(parts[1]), int(parts[2])))
            else:
                reader.errors.append(f"bad cell override coordinate in {key!r}")
                reader.raw.pop(key)
    overrides = {}
    for coord in sorted(coords):
        r, c = coord
        sp_fields = _take_params(reader, SpParams, f"cell.{r}.{c}.sp", seed=True)
        tm_fields = _take_params(reader, TmParams, f"cell.{r}.{c}.tm", seed=True)
        # A negative grid seed derives no seeds; problems() reports it.
        if (sp_fields or tm_fields) and grid.seed >= 0:
            sp, tm = grid.cell_params(coord)
            sp = replace(sp, **sp_fields)
            tm = replace(tm, column_count=sp.column_count * grid.multistep_n, **tm_fields)
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

    sp_fields = _take_params(reader, SpParams, "sp")
    tm_fields = _take_params(reader, TmParams, "tm")

    if frame_size is None or cell_size is None:
        reader.finish("run")
    grid = build_grid_config(
        frame_size,
        cell_size,
        class_count,
        multistep_n=multistep_n,
        seed=grid_seed,
        suppression_enabled=suppression,
        aggregation=aggregation,
        smoothing_window=smoothing_window,
        min_sparsity=min_sparsity,
        empty_pattern_sparsity=empty_sparsity,
        sp_kwargs=sp_fields,
        tm_kwargs=tm_fields,
    )
    grid = replace(
        grid,
        encoder=replace(grid.encoder, seed=encoder_seed),
        per_cell_overrides=_cell_overrides(reader, grid),
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
