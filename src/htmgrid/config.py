"""Flat key-value configuration files.

Both the run configuration and scenario descriptions use the same format:
one ``key = value`` per line, ``#`` comments, dotted section prefixes
(``grid.multistep_n = 2``).  Parsing collects every problem it finds and
reports them together, so a bad file fails once with the full list.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields, replace
from typing import get_type_hints

from .aggregation import AggregationKind
from .encoder import EncoderConfig
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

    def take(self, key, parse, required=False):
        """``parse`` of the key's value, or None where it is absent or unparsable."""
        if key not in self.raw:
            if required:
                self.errors.append(f"missing required key {key!r}")
            return None
        value = self.raw.pop(key)
        try:
            return parse(value)
        except (ValueError, TypeError) as exc:
            self.errors.append(f"key {key!r}: {exc}")
            return None

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


# A file value parses by its field's type hint; a field of any other type (a nested
# config, a tuple of objects) is no key.
_PARSERS = {bool: _parse_bool, int: int, float: float, str: str, str | None: str,
            AggregationKind: _parse_aggregation, tuple[int, int]: _parse_pair,
            tuple[tuple[int, int], ...]: _parse_positions}
# The ROWSxCOLS fields, whose hint a ROW,COL pair shares.
_SIZES = ("frame_size", "cell_size", "shape")

# The classes an ``object.<i>.path`` and an ``event.<i>.kind`` name.
_PATHS = {"loop": LinearLoop, "stationary": Stationary, "scripted": Scripted}
_EVENTS = {"repeat": FrameRepeat, "skip": FrameSkip}


def _take(reader: _Reader, cls, prefix: str, names=None, keys=None) -> dict:
    """The ``<prefix><field>`` values of the dataclass ``cls``'s fields, by field name.

    ``names`` picks the fields, and ``keys`` gives a field a key other than its
    name.  An absent or unparsable key is left out, so that its field keeps the
    dataclass default; a field with no default is a required key, unless
    ``names`` picks the fields.
    """
    types = get_type_hints(cls)
    out = {}
    for f in fields(cls):
        parse = _parse_size if f.name in _SIZES else _PARSERS.get(types[f.name])
        if parse is None or (names is not None and f.name not in names):
            continue
        required = names is None and f.default is MISSING and f.default_factory is MISSING
        key = prefix + (keys or {}).get(f.name, f.name)
        value = reader.take(key, parse, required=required)
        if value is not None:
            out[f.name] = value
    return out


def _take_params(reader: _Reader, params_cls, prefix: str, seed: bool = False) -> dict:
    """Take ``prefix.<field>`` keys for the fields of ``params_cls`` a file may set.

    The wired width is never a key, and ``seed`` is one only where ``seed``
    is true.
    """
    skip = (_WIRED[params_cls], None if seed else "seed")
    return _take(reader, params_cls, f"{prefix}.",
                 [f.name for f in fields(params_cls) if f.name not in skip])


def _take_indexed(reader: _Reader, section: str, kind_key: str, kinds: dict):
    """Yield, for i = 0, 1, ... while keys start with ``<section>.<i>.``, that prefix
    and the ``kinds`` class its ``kind_key`` names, built from its keys (None where
    a key is missing or bad)."""
    index = 0
    while any(key.startswith(f"{section}.{index}.") for key in reader.raw):
        prefix = f"{section}.{index}."
        kind = reader.take(prefix + kind_key, str, required=True)
        item = None
        if kind in kinds:
            values = _take(reader, kinds[kind], prefix)
            if len(values) == len(fields(kinds[kind])):
                item = kinds[kind](**values)
        elif kind is not None:
            *rest, last = kinds
            reader.errors.append(
                f"{prefix}{kind_key}: expected {', '.join(rest)} or {last}, got {kind!r}"
            )
        yield prefix, item
        index += 1


def parse_scenario_config(text: str, overrides=None) -> Scenario:
    reader = _Reader(apply_overrides(parse_kv_text(text), overrides))
    scenario = _take(reader, Scenario, "scenario.")
    noise = _take(reader, NoiseSpec, "noise.", keys={
        "pixel_flip_probability": "pixel_flip", "object_dropout_probability": "object_dropout"})
    objects = []
    for prefix, path in _take_indexed(reader, "object", "path", _PATHS):
        track = _take(reader, ObjectTrack, prefix, keys={"class_index": "class"})
        if path is not None and "shape" in track:
            objects.append(ObjectTrack(path=path, **track))
    events = [event for _, event in _take_indexed(reader, "event", "kind", _EVENTS) if event]
    reader.finish("scenario")
    return Scenario(objects=tuple(objects), events=tuple(events), noise=NoiseSpec(**noise),
                    **scenario)


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
    run = _take(reader, RunConfig, "", keys={
        "scores_csv": "output.scores_csv", "per_cell": "output.per_cell",
        "heatmap_dir": "output.heatmap_dir", "snapshot_out": "output.snapshot"})
    grid_fields = _take(reader, GridConfig, "", ("aggregation", "smoothing_window"))
    encoder = _take(reader, EncoderConfig, "encoder.")
    grid_fields |= _take(reader, GridConfig, "grid.", ("seed", "multistep_n", "suppression_enabled"))
    sp_fields = _take_params(reader, SpParams, "sp")
    tm_fields = _take_params(reader, TmParams, "tm")

    if "frame_size" not in encoder:
        reader.finish("run")
    # The encoder seed is its own key: the grid seed does not set it.
    encoder_seed = encoder.pop("seed", EncoderConfig.seed)
    grid = build_grid_config(**encoder, **grid_fields, sp_kwargs=sp_fields, tm_kwargs=tm_fields)
    grid = replace(
        grid,
        encoder=replace(grid.encoder, seed=encoder_seed),
        per_cell_overrides=_cell_overrides(reader, grid),
    )
    reader.errors.extend(grid.problems())
    # A missing input is already a listed problem; the other fields are still checked.
    run = RunConfig(grid=grid, **{"input": None, **run})
    if run.calibration_frames < 0:
        reader.errors.append("calibration_frames must be >= 0")
    if run.workers < 1:
        reader.errors.append("workers must be >= 1")
    reader.finish("run")
    return run


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
