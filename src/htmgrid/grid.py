"""The streaming engine: an independent pooler + sequence memory per cell.

Each frame cell runs its own pipeline so activity in one part of the frame
can never change what counts as normal elsewhere.  Per cell and frame:

1. encode the frame: each cell's class windows laid end to end,
2. spatial pooling,
3. shift the pooled output into a short history ring, oldest row first, and
   feed the flattened ring to the sequence memory, so "moving" and
   "standing still" produce different inputs,
4. optionally zero the reported score on the frame a cell turns from
   empty to occupied, which is unpredictable by construction.

Cells share no state, so one cell's input never changes another cell's
scores.  They run one after another in a fixed row-major order.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .aggregation import AggregationKind, aggregate
from .encoder import EncoderConfig, encode_frame
from .errors import ConfigError, SnapshotError
from .sdr import concatenate  # unused here; perfbench's traced spans rebind it
from .spatial_pooler import SpParams, SpatialPooler
from .temporal_memory import TmParams, TemporalMemory
from . import snapshot

__all__ = [
    "CellOverride",
    "GridConfig",
    "FrameResult",
    "GridModel",
    "build_grid_config",
    "derive_cell_seeds",
]

SNAPSHOT_KIND = "grid-model"
SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class CellOverride:
    """Optional per-cell replacement parameters; seeds are used verbatim."""

    sp: SpParams | None = None
    tm: TmParams | None = None


@dataclass(frozen=True)
class GridConfig:
    encoder: EncoderConfig
    default_sp: SpParams
    default_tm: TmParams
    multistep_n: int = 2
    suppression_enabled: bool = True
    per_cell_overrides: dict = field(default_factory=dict)
    seed: int = 0
    aggregation: AggregationKind = AggregationKind.MEAN
    smoothing_window: int = 200

    def problems(self) -> list[str]:
        out = list(self.encoder.problems())
        if self.multistep_n < 1:
            out.append(f"multistep_n must be >= 1, got {self.multistep_n}")
        if self.smoothing_window < 1:
            out.append(f"smoothing_window must be >= 1, got {self.smoothing_window}")
        if self.seed < 0:
            out.append(f"grid seed must be non-negative, got {self.seed}")
        grows, gcols = self.encoder.grid_shape
        pairs = {(self.default_sp, self.default_tm): "default"}
        for coord in self.per_cell_overrides:
            r, c = coord
            if not (0 <= r < grows and 0 <= c < gcols):
                out.append(f"override coordinate {coord} outside grid {grows}x{gcols}")
            elif self.seed >= 0:  # cell_params derives seeds from it
                pairs.setdefault(self.cell_params(coord), f"cell {coord}")
        input_width = self.encoder.cell_bits * self.encoder.class_count
        for (sp, tm), where in pairs.items():
            if sp.input_width != input_width:
                out.append(
                    f"{where}: sp input_width {sp.input_width} != cell bits x "
                    f"classes ({input_width})"
                )
            if tm.column_count != sp.column_count * self.multistep_n:
                out.append(
                    f"{where}: tm column_count {tm.column_count} != sp columns x "
                    f"multistep_n ({sp.column_count * self.multistep_n})"
                )
            out.extend(sp.problems())
            out.extend(tm.problems())
        return out

    def cell_params(self, coord: tuple[int, int]) -> tuple[SpParams, TmParams]:
        """Cell ``coord``'s parameters: its override, else the defaults with its seeds."""
        override = self.per_cell_overrides.get(coord, CellOverride())
        sp_seed, tm_seed = derive_cell_seeds(self.seed, coord)
        return (override.sp or replace(self.default_sp, seed=sp_seed),
                override.tm or replace(self.default_tm, seed=tm_seed))

    def validate(self) -> None:
        problems = self.problems()
        if problems:
            raise ConfigError("; ".join(problems))


@dataclass(frozen=True)
class FrameResult:
    """Per-frame output record.

    ``certainty`` holds the per-cell count of predicted columns; fewer
    predictions means the cell is more certain about what comes next.
    """

    frame_index: int
    raw_scores: np.ndarray
    reported_scores: np.ndarray
    certainty: np.ndarray
    aggregate: float
    aggregate_smoothed: float


class CellUnit:
    __slots__ = ("sp", "tm", "history")

    def __init__(self, sp: SpatialPooler, tm: TemporalMemory, multistep_n: int):
        self.sp = sp
        self.tm = tm
        self.history = np.zeros((multistep_n, sp.params.column_count), dtype=bool)

    def step(self, bits: np.ndarray, learn: bool) -> tuple[float, int]:
        self.history[:-1] = self.history[1:]
        self.history[-1] = self.sp.compute(bits, learn)
        result = self.tm.compute(self.history.reshape(-1), learn)
        return result.anomaly_score, result.predictive_column_count


def _load_unit(sp_state: dict, tm_state: dict, history) -> CellUnit:
    sp = SpatialPooler.__new__(SpatialPooler)
    sp.load_state_dict(sp_state)
    tm = TemporalMemory.__new__(TemporalMemory)
    tm.load_state_dict(tm_state)
    unit = CellUnit(sp, tm, len(history))
    for row, active in zip(unit.history, history):
        row[active] = True
    return unit


def _history_fits(history: list, depth: int, width: int) -> bool:
    """Whether ``history`` is ``depth`` 1-D int arrays, each increasing in [0, width)."""
    arrays = [np.asarray(active) for active in history]
    return len(arrays) == depth and all(
        a.ndim == 1 and a.dtype.kind in "iu" and np.all(a[1:] > a[:-1])
        and np.all((a >= 0) & (a < width)) for a in arrays)


def derive_cell_seeds(grid_seed: int, coord: tuple[int, int]) -> tuple[int, int]:
    """Deterministic (sp_seed, tm_seed) for one cell of the grid."""
    sp_seed = np.random.SeedSequence([grid_seed, coord[0], coord[1], 0])
    tm_seed = np.random.SeedSequence([grid_seed, coord[0], coord[1], 1])
    return int(sp_seed.generate_state(1)[0]), int(tm_seed.generate_state(1)[0])


class GridModel:
    """Stateful frame-by-frame anomaly detector over a cell grid."""

    def __init__(self, config: GridConfig):
        config.validate()
        self.config = config
        grows, gcols = config.encoder.grid_shape
        self.grid_shape = (grows, gcols)
        self.units = [
            [CellUnit(SpatialPooler(sp), TemporalMemory(tm), config.multistep_n)
             for sp, tm in (config.cell_params((r, c)) for c in range(gcols))]
            for r in range(grows)
        ]
        # Which class windows of each cell held the empty pattern last frame.
        self.prev_empty = np.zeros((grows, gcols, config.encoder.class_count), dtype=bool)
        self.frame_counter = 0
        self._agg_history: deque[float] = deque(maxlen=config.smoothing_window)

    def unit(self, r: int, c: int) -> CellUnit:
        return self.units[r][c]

    def step(self, planes, learn: bool = True, workers: int = 1) -> FrameResult:
        """Process one frame, one cell after another.

        ``workers`` is accepted for compatibility and does not change how
        cells run.
        """
        bits, empty = encode_frame(self.config.encoder, planes)
        grows, gcols = self.grid_shape
        raw = np.zeros(self.grid_shape, dtype=np.float64)
        certainty = np.zeros(self.grid_shape, dtype=np.int64)
        for r in range(grows):
            for c in range(gcols):
                raw[r, c], certainty[r, c] = self.units[r][c].step(bits[r, c], learn)
        # A cell whose class window turns from empty to occupied has no
        # predictable first frame; its reported score is zeroed.
        entered = np.any(self.prev_empty & ~empty, axis=2)
        self.prev_empty = empty
        reported = np.where(self.config.suppression_enabled & entered, 0.0, raw)

        agg = aggregate(self.config.aggregation, reported.reshape(-1))
        self._agg_history.append(agg)
        smoothed = float(np.mean(np.asarray(self._agg_history, dtype=np.float64)))
        result = FrameResult(
            frame_index=self.frame_counter,
            raw_scores=raw,
            reported_scores=reported,
            certainty=certainty,
            aggregate=agg,
            aggregate_smoothed=smoothed,
        )
        self.frame_counter += 1
        return result

    # --- serialization ----------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "config": self.config,
            "frame_counter": self.frame_counter,
            "agg_history": list(self._agg_history),
            "units": [
                [
                    {
                        "sp": unit.sp.state_dict(),
                        "tm": unit.tm.state_dict(),
                        "history": [np.flatnonzero(row) for row in unit.history],
                        "prev_empty": self.prev_empty[r, c].tolist(),
                    }
                    for c, unit in enumerate(row)
                ]
                for r, row in enumerate(self.units)
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore from ``state``; raises ``SnapshotError`` if it is not a grid model.

        Only reads of the payload's structure, its config's problems and each
        unit's widths, history and empty flags are checked here; the model is
        left unchanged unless every unit loads.
        """
        try:
            config: GridConfig = state["config"]
            grows, gcols = config.encoder.grid_shape
            problems = config.problems()
            input_width = config.encoder.cell_bits * config.encoder.class_count
            frame_counter = int(state["frame_counter"])
            agg_history = [float(v) for v in state["agg_history"]]
            unit_states = [
                [(u["sp"], u["tm"], list(u["history"]), list(u["prev_empty"]))
                 for u in row]
                for row in state["units"]
            ]
            misfits = [
                (r, c)
                for r, row in enumerate(unit_states)
                for c, (sp, tm, history, _) in enumerate(row)
                if (sp["params"]["input_width"], tm["params"]["column_count"])
                != (input_width, sp["params"]["column_count"] * config.multistep_n)
                or not _history_fits(history, config.multistep_n, sp["params"]["column_count"])
            ]
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"snapshot payload is not a grid model: {exc!r}") from exc
        if problems:
            raise SnapshotError(f"snapshot config is invalid: {'; '.join(problems)}")
        if [len(row) for row in unit_states] != [gcols] * grows:
            raise SnapshotError(f"snapshot units do not fill its {grows}x{gcols} grid")
        prev_empty = [[flags for *_, flags in row] for row in unit_states]
        if {len(flags) for row in prev_empty for flags in row} != {config.encoder.class_count}:
            raise SnapshotError("snapshot prev_empty flags do not match its class count")
        if misfits:
            raise SnapshotError(
                f"snapshot unit {misfits[0]} widths or history do not match its config"
            )
        units = [[_load_unit(*parts[:3]) for parts in row] for row in unit_states]
        self.config = config
        self.grid_shape = (grows, gcols)
        self.prev_empty = np.array(prev_empty, dtype=bool)
        self.frame_counter = frame_counter
        self._agg_history = deque(agg_history, maxlen=config.smoothing_window)
        self.units = units

    def to_bytes(self) -> bytes:
        return snapshot.pack(SNAPSHOT_KIND, SNAPSHOT_VERSION, self.state_dict())

    @classmethod
    def from_bytes(cls, data: bytes) -> "GridModel":
        state = snapshot.unpack(data, SNAPSHOT_KIND, SNAPSHOT_VERSION)
        model = cls.__new__(cls)
        model.load_state_dict(state)
        return model

    def save(self, path) -> None:
        """Write beside ``path``, then move into place: a failed save keeps the old file."""
        data, tmp = self.to_bytes(), f"{os.fspath(path)}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    @classmethod
    def load(cls, path) -> "GridModel":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def build_grid_config(
    frame_size,
    cell_size=(12, 12),
    class_count: int = 1,
    *,
    multistep_n: int = 2,
    seed: int = 0,
    suppression_enabled: bool = True,
    aggregation: AggregationKind = AggregationKind.MEAN,
    smoothing_window: int = 200,
    min_sparsity: int = 5,
    empty_pattern_sparsity: int = 5,
    sp_columns: int = 128,
    sp_active: int = 8,
    sp_kwargs: dict | None = None,
    tm_kwargs: dict | None = None,
    per_cell_overrides: dict | None = None,
) -> GridConfig:
    """Wire a consistent configuration from the frame geometry outward.

    ``sp_kwargs`` may also set ``column_count`` and ``active_columns``, over
    ``sp_columns`` and ``sp_active``; the TM width follows the SP's.
    """
    encoder = EncoderConfig(
        frame_size=tuple(frame_size),
        cell_size=tuple(cell_size),
        class_count=class_count,
        min_sparsity=min_sparsity,
        empty_pattern_sparsity=empty_pattern_sparsity,
        seed=seed,
    )
    sp = SpParams(
        input_width=encoder.cell_bits * class_count,
        **{"column_count": sp_columns, "active_columns": sp_active, **(sp_kwargs or {})},
    )
    tm = TmParams(column_count=sp.column_count * multistep_n, **(tm_kwargs or {}))
    return GridConfig(
        encoder=encoder,
        default_sp=sp,
        default_tm=tm,
        multistep_n=multistep_n,
        suppression_enabled=suppression_enabled,
        per_cell_overrides=dict(per_cell_overrides or {}),
        seed=seed,
        aggregation=aggregation,
        smoothing_window=smoothing_window,
    )
