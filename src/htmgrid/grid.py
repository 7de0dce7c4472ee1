"""The streaming engine: an independent pooler + sequence memory per cell.

Each frame cell runs its own pipeline so activity in one part of the frame
can never change what counts as normal elsewhere.  Per frame:

1. encode the frame: each cell's class windows laid end to end,
2. spatial pooling, one batched call per group of cells whose pooler
   parameters differ only in seed (a cell with its own override is a group
   of one),
3. shift each cell's pooled output into a short history ring, oldest row
   first, and feed the flattened rings to the sequence memories, again one
   batched call per group of cells whose memory parameters differ only in
   seed, so "moving" and "standing still" produce different inputs,
4. optionally zero the reported score on the frame a cell turns from
   empty to occupied, which is unpredictable by construction.

Cells share no state, so one cell's input never changes another cell's
scores, even though their poolers and their sequence memories each step as
one batch.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import groupby

import numpy as np

from .aggregation import AggregationKind, aggregate
from .encoder import EncoderConfig, encode_frame
from .errors import ConfigError, SnapshotError, check_bits
from .sdr import concatenate  # unused here; perfbench's traced spans rebind it
from .spatial_pooler import PoolerCell, SpParams, SpatialPooler
from .temporal_memory import MemoryCell, TmParams, TemporalMemory, checked_state
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
SNAPSHOT_VERSION = 2


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
    """One cell's view of the model: its pooler cell, memory cell and history ring."""

    __slots__ = ("sp", "tm", "history")

    def __init__(self, sp: PoolerCell, tm: MemoryCell, history: np.ndarray):
        self.sp = sp
        self.tm = tm
        self.history = history


def _load_unit(config: GridConfig, coord: tuple[int, int], params: tuple, state: dict) -> tuple:
    """Cell ``coord``'s pooler (a group of one), checked memory state and history ring.

    ``params`` are the cell's ``(SpParams, TmParams)``.
    """
    sp_params, tm_params = params
    sp = SpatialPooler.__new__(SpatialPooler)
    try:
        sp.load_state_dict([state["sp"]], [sp_params])
        tm = checked_state(state["tm"], tm_params)
        check_bits(state["history"], (config.multistep_n, sp_params.column_count),
                   "history ring", SnapshotError)
    except SnapshotError as exc:
        raise SnapshotError(f"snapshot unit {coord}: {exc}") from exc
    return sp, tm, state["history"]


def _groups(keys: list) -> list[list[int]]:
    """The indices of each group: entries whose keys are equal, in order of first entry."""
    return [[k for k, other in enumerate(keys) if other == key] for key in dict.fromkeys(keys)]


def _cell_groups(cells: list) -> tuple[list, list]:
    """Member lists of the pooler groups and memory groups of the row-major ``cells``.

    Cells whose parameters differ only in seed are one group.  A memory
    group lists its cells by pooler group, so it reads their rings in runs.
    """
    sp_groups = _groups([sp.group_key for sp, _ in cells])
    order = [k for members in sp_groups for k in members]
    tm_groups = _groups([cells[k][1].group_key for k in order])
    return sp_groups, [[order[i] for i in members] for members in tm_groups]


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
        cells = [config.cell_params((r, c)) for r in range(grows) for c in range(gcols)]
        sp_groups, tm_groups = _cell_groups(cells)
        self._place([(members, SpatialPooler([cells[k][0] for k in members]))
                     for members in sp_groups],
                    [(members, TemporalMemory([cells[k][1] for k in members]))
                     for members in tm_groups])
        # Which class windows of each cell held the empty pattern last frame.
        self.prev_empty = np.zeros((grows, gcols, config.encoder.class_count), dtype=bool)
        self.frame_counter = 0
        self._agg_history: deque[float] = deque(maxlen=config.smoothing_window)

    def _place(self, sp_groups, tm_groups, histories=None) -> None:
        """Give each row-major cell its unit from the ``(members, group)`` pairs of each layer.

        Each pooler group gets one history ring per cell, empty unless
        ``histories`` fills it.  Each memory group reads its cells' rings in
        runs, one per pooler group, as ``(rings, positions)`` parts.
        """
        count = self.grid_shape[0] * self.grid_shape[1]
        poolers, memories, rings_at = [None] * count, [None] * count, [None] * count
        self._poolers = []
        for members, group in sp_groups:
            rings = np.zeros((len(members), self.config.multistep_n,
                              group.params[0].column_count), dtype=bool)
            for i, (k, cell) in enumerate(zip(members, group.cells)):
                if histories:
                    rings[i] = histories[k]
                poolers[k], rings_at[k] = cell, (len(self._poolers), i)
            self._poolers.append((np.array(members), group, rings))
        self._memories = []
        for members, group in tm_groups:
            runs = groupby((rings_at[k] for k in members), key=lambda at: at[0])
            parts = [(self._poolers[g][2], np.array([i for _, i in run])) for g, run in runs]
            self._memories.append((np.array(members), group, parts))
            for k, cell in zip(members, group.cells):
                memories[k] = cell
        units = [CellUnit(poolers[k], memories[k], self._poolers[g][2][i])
                 for k, (g, i) in enumerate(rings_at)]
        gcols = self.grid_shape[1]
        self.units = [units[k : k + gcols] for k in range(0, count, gcols)]

    def unit(self, r: int, c: int) -> CellUnit:
        return self.units[r][c]

    def step(self, planes, learn: bool = True, workers: int = 1) -> FrameResult:
        """Process one frame: each pooler group at once, then each memory group at once.

        ``workers`` is accepted for compatibility and does not change how
        cells run.
        """
        bits, empty = encode_frame(self.config.encoder, planes)
        bits = bits.reshape(-1, bits.shape[-1])
        for members, group, rings in self._poolers:
            rings[:, :-1] = rings[:, 1:]
            rings[:, -1] = group.compute(bits[members], learn)
        raw = np.zeros(self.grid_shape, dtype=np.float64)
        certainty = np.zeros(self.grid_shape, dtype=np.int64)
        for members, group, parts in self._memories:
            columns = np.concatenate([rings[at] for rings, at in parts])
            result = group.compute(columns.reshape(len(members), -1), learn)
            raw.flat[members] = result.anomaly_scores
            certainty.flat[members] = result.predictive_column_counts
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
        """What a snapshot holds; unit parameters follow from the config."""
        return {
            "config": self.config,
            "frame_counter": self.frame_counter,
            "agg_history": list(self._agg_history),
            "prev_empty": self.prev_empty,
            "units": [
                [{"sp": unit.sp.state_dict(), "tm": unit.tm.state_dict(),
                  "history": unit.history} for unit in row]
                for row in self.units
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore from ``state``; any payload that does not fit raises ``SnapshotError``.

        The model is left unchanged unless every unit loads.
        """
        try:
            config: GridConfig = state["config"]
            problems = config.problems()
            if problems:
                raise SnapshotError(f"snapshot config is invalid: {'; '.join(problems)}")
            grows, gcols = config.encoder.grid_shape
            frame_counter = int(state["frame_counter"])
            agg_history = [float(v) for v in state["agg_history"]]
            prev_empty = state["prev_empty"]
            check_bits(prev_empty, (grows, gcols, config.encoder.class_count),
                       "snapshot prev_empty", SnapshotError)
            if [len(row) for row in state["units"]] != [gcols] * grows:
                raise SnapshotError(f"snapshot units do not fill its {grows}x{gcols} grid")
            cells = [config.cell_params((r, c)) for r in range(grows) for c in range(gcols)]
            poolers, memories, histories = zip(*(
                _load_unit(config, (r, c), cells[r * gcols + c], u)
                for r, row in enumerate(state["units"]) for c, u in enumerate(row)))
        except (AttributeError, IndexError, KeyError, OverflowError, TypeError,
                ValueError) as exc:
            raise SnapshotError(f"snapshot payload is not a grid model: {exc!r}") from exc
        sp_groups, tm_groups = _cell_groups(cells)
        tm_groups = [(members, TemporalMemory.__new__(TemporalMemory)) for members in tm_groups]
        for members, group in tm_groups:
            group.assemble([cells[k][1] for k in members], [memories[k] for k in members])
        self.config = config
        self.grid_shape = (grows, gcols)
        self._place([(members, SpatialPooler.stack([poolers[k] for k in members]))
                     for members in sp_groups], tm_groups, histories)
        # An asarray view carries numpy's own bool dtype, which snapshot bytes share.
        self.prev_empty = np.asarray(prev_empty, dtype=bool)
        self.frame_counter = frame_counter
        self._agg_history = deque(agg_history, maxlen=config.smoothing_window)

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
