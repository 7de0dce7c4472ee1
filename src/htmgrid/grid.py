"""The streaming engine: an independent pooler + sequence memory per cell.

Each frame cell runs its own pipeline so activity in one part of the frame
can never change what counts as normal elsewhere.  Per frame:

1. encode the frame: each cell's class windows laid end to end,
2. spatial pooling, one batched call per cell group: the cells whose
   pooler and memory parameters differ only in seed (a cell with its own
   override is a group of one),
3. shift each cell's pooled output into its group's history rings, oldest
   row first, and feed the flattened rings to the group's sequence memory,
   one batched call, so "moving" and "standing still" produce different
   inputs,
4. optionally zero the reported score on the frame a cell turns from
   empty to occupied, which is unpredictable by construction.

Cells share no state, so one cell's input never changes another cell's
scores, even though their poolers and their sequence memories each step as
one batch.

A snapshot (version 3) holds each cell group's arrays as they are, as
``sp<g>.<name>`` and ``tm<g>.<name>`` of the same group ``g``.  ``__init__``
and a load build each group through the same constructors, a load with the
snapshot's arrays.
"""

from __future__ import annotations

import json
from collections import deque, namedtuple
from dataclasses import dataclass, field, is_dataclass, replace
from typing import get_type_hints

import numpy as np

from .aggregation import AggregationKind, aggregate
from .encoder import EncoderConfig, encode_frame
from .errors import SnapshotError, Validated, loaded, out_of_range
from .imageio import staged
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
SNAPSHOT_VERSION = 3


@dataclass(frozen=True)
class CellOverride:
    """Optional per-cell replacement parameters; seeds are used verbatim."""

    sp: SpParams | None = None
    tm: TmParams | None = None


@dataclass(frozen=True)
class GridConfig(Validated):
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
        out = self.encoder.problems() + out_of_range("grid", self)
        if self.seed < 0:
            out.append(f"grid seed must be non-negative, got {self.seed}")
        # A cell size of zero has no grid; the encoder's problems report it.
        grows, gcols = self.encoder.grid_shape if min(self.encoder.cell_size) > 0 else (0, 0)
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


# One cell's view of the model: its pooler and memory views and its history ring.
CellUnit = namedtuple("CellUnit", "sp tm history")


class CellView(namedtuple("CellView", "group index")):
    """Unit ``index`` of a pooler or memory ``group``, read through ``group.unit_state``."""

    __slots__ = ()
    params = property(lambda self: self.group.params[self.index])

    def state_dict(self) -> dict:
        return self.group.unit_state(self.index)


def _plain(value, hint):
    """``value``, a ``GridConfig`` or a part of type ``hint``, as JSON values."""
    if is_dataclass(hint):
        return {name: _plain(getattr(value, name), part)
                for name, part in get_type_hints(hint).items()}
    if hint is dict:  # per-cell overrides, as [row, col, sp, tm] in coordinate order
        return [[*map(int, coord), *(None if part is None else _plain(part, type(part))
                                     for part in (o.sp, o.tm))]
                for coord, o in sorted(value.items())]
    if hint is AggregationKind:
        return value.value
    return hint(value) if hint in (bool, int, float) else [*map(int, value)]  # or a pair


def _built(data, hint):
    """The ``hint`` value that ``_plain`` would turn into ``data``, its types unchecked."""
    if is_dataclass(hint):
        hints = get_type_hints(hint)
        return hint(**{name: _built(value, hints[name]) for name, value in data.items()})
    if hint is dict:
        return {(r, c): CellOverride(*(None if part is None else _built(part, cls)
                                       for part, cls in ((sp, SpParams), (tm, TmParams))))
                for r, c, sp, tm in data}
    if hint is AggregationKind:
        return AggregationKind(data)
    return data if hint in (bool, int, float) else tuple(data)


def _for_cells(coords: list, make, *args):
    """``make(*args)``; a ``SnapshotError`` is raised again naming the cell at fault, else all.

    A group's cells are named by the first three of ``coords`` and a count of the rest.
    """
    try:
        return make(*args)
    except SnapshotError as exc:
        at = coords if exc.unit is None else coords[exc.unit : exc.unit + 1]
        more = f" and {len(at) - 3} more" if len(at) > 3 else ""
        cells = f"cell{'s' * (len(at) > 1)} {', '.join(map(str, at[:3]))}{more}"
        raise SnapshotError(f"snapshot {cells}: {exc}") from exc


def derive_cell_seeds(grid_seed: int, coord: tuple[int, int]) -> tuple[int, int]:
    """Deterministic (sp_seed, tm_seed) for one cell of the grid."""
    sp_seed = np.random.SeedSequence([grid_seed, coord[0], coord[1], 0])
    tm_seed = np.random.SeedSequence([grid_seed, coord[0], coord[1], 1])
    return int(sp_seed.generate_state(1)[0]), int(tm_seed.generate_state(1)[0])


class GridModel:
    """Stateful frame-by-frame anomaly detector over a cell grid."""

    def __init__(self, config: GridConfig):
        config.validate()
        self._build(config)

    def _build(self, config: GridConfig, arrays: dict | None = None, frame_counter: int = 0,
               rng_states=None) -> None:
        """Make the model of ``config``, fresh or from a snapshot's checked header and ``arrays``.

        Each group is ``(members, pooler, memory, rings)``: one history ring
        per cell, which the memory reads flattened.  Nothing is assigned
        until every group is built.
        """
        grows, gcols = config.encoder.grid_shape
        flags = (grows, gcols, config.encoder.class_count)
        if arrays is None:
            # Which class windows of each cell held the empty pattern last frame.
            prev_empty, agg_history = np.zeros(flags, dtype=bool), np.zeros(0)
        else:
            if not {"prev_empty", "agg_history"} <= arrays.keys():
                raise SnapshotError("snapshot lacks the prev_empty or agg_history array")
            # The flags bound the grid by the file's size before a loop over its cells.
            prev_empty = loaded(arrays["prev_empty"], flags, bool, "snapshot prev_empty")
            agg_history = loaded(arrays["agg_history"], (None,), np.float64, "snapshot agg_history")
            if not np.all((agg_history >= 0.0) & (agg_history <= 1.0)):  # nor NaN
                raise SnapshotError("snapshot agg_history must lie in [0, 1]")
        coords = [(r, c) for r in range(grows) for c in range(gcols)]
        cells = [config.cell_params(coord) for coord in coords]
        # Cells whose pooler and memory parameters differ only in seed are one
        # group, listed row-major, in order of each group's first cell.
        keys = [(sp.group_key, tm.group_key) for sp, tm in cells]
        partition = [[k for k, other in enumerate(keys) if other == key]
                     for key in dict.fromkeys(keys)]
        if arrays is not None:
            expected = {"prev_empty", "agg_history",
                        *(f"sp{g}.{name}" for g in range(len(partition))
                          for name in (*SpatialPooler.ARRAYS, "history")),
                        *(f"tm{g}.{name}" for g in range(len(partition))
                          for name in TemporalMemory.ARRAYS)}
            if arrays.keys() != expected:
                raise SnapshotError(f"snapshot arrays {sorted(arrays.keys() ^ expected)} are "
                                    "missing or unknown to its config")
            if not (isinstance(rng_states, list) and len(rng_states) == len(partition)):
                raise SnapshotError("snapshot rng_states must hold a list per cell group")
        groups, at = [], [None] * len(cells)
        for g, members in enumerate(partition):
            where = [coords[k] for k in members]
            sp_params, tm_params = zip(*(cells[k] for k in members))
            shape = (len(members), config.multistep_n, sp_params[0].column_count)
            sp_state = tm_state = None
            if arrays is not None:
                sp_state = {name: arrays[f"sp{g}.{name}"]
                            for name in (*SpatialPooler.ARRAYS, "history")}
                tm_state = {**{name: arrays[f"tm{g}.{name}"] for name in TemporalMemory.ARRAYS},
                            "rng_states": rng_states[g]}
            pooler = _for_cells(where, SpatialPooler, sp_params, sp_state)
            rings = np.zeros(shape, dtype=bool) if sp_state is None else _for_cells(
                where, loaded, sp_state["history"], shape, bool, "history ring")
            memory = _for_cells(where, TemporalMemory, tm_params, tm_state)
            for i, k in enumerate(members):
                at[k] = (g, i)
            groups.append((np.array(members), pooler, memory, rings))
        self.config, self.grid_shape = config, (grows, gcols)
        self._groups = groups
        # Per cell, row-major: its (group, index in the group's pooler and memory).
        self._units_at = [at[k : k + gcols] for k in range(0, len(cells), gcols)]
        self.prev_empty = prev_empty
        self.frame_counter = frame_counter
        self._agg_history = deque(agg_history.tolist(), maxlen=config.smoothing_window)

    def unit(self, r: int, c: int) -> CellUnit:
        """Cell ``(r, c)``'s views and history ring; the views read the groups as they are."""
        g, i = self._units_at[r][c]
        _, pooler, memory, rings = self._groups[g]
        return CellUnit(CellView(pooler, i), CellView(memory, i), rings[i])

    @property
    def units(self) -> list:
        """``unit(r, c)`` of every cell, as a list of grid rows."""
        rows, cols = self.grid_shape
        return [[self.unit(r, c) for c in range(cols)] for r in range(rows)]

    def step(self, planes, learn: bool = True, workers: int = 1) -> FrameResult:
        """Process one frame: each group's pooler at once, then its memory over its rings.

        ``workers`` is accepted for compatibility and does not change how
        cells run.
        """
        bits, empty = encode_frame(self.config.encoder, planes)
        bits = bits.reshape(-1, bits.shape[-1])
        raw = np.zeros(self.grid_shape, dtype=np.float64)
        certainty = np.zeros(self.grid_shape, dtype=np.int64)
        for members, pooler, memory, rings in self._groups:
            rings[:, :-1] = rings[:, 1:]
            rings[:, -1] = pooler.compute(bits[members], learn)
            result = memory.compute(rings.reshape(len(members), -1), learn)
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

    def state_dict(self) -> tuple[dict, dict]:
        """A snapshot's header (the config, frame counter and generator states) and arrays."""
        header = {"config": _plain(self.config, GridConfig), "frame_counter": self.frame_counter,
                  "rng_states": []}
        arrays = {"prev_empty": self.prev_empty,
                  "agg_history": np.array(self._agg_history, dtype=np.float64)}
        for g, (_, pooler, memory, rings) in enumerate(self._groups):
            arrays.update({f"sp{g}.{name}": value for name, value in pooler.state_dict().items()})
            arrays[f"sp{g}.history"] = rings
            state = memory.state_dict()
            header["rng_states"].append(state.pop("rng_states"))
            arrays.update({f"tm{g}.{name}": value for name, value in state.items()})
        return header, arrays

    def load_state_dict(self, header: dict, arrays: dict) -> None:
        """Restore from a snapshot's ``header`` and ``arrays``; a misfit raises ``SnapshotError``.

        The model is left unchanged unless every group loads.
        """
        try:
            config, frame_counter = _built(header["config"], GridConfig), header["frame_counter"]
            # Only the exact JSON that a save writes fits: every key, type and order.
            fits = (json.dumps(_plain(config, GridConfig), sort_keys=True)
                    == json.dumps(header["config"], sort_keys=True))
            problems, rng_states = config.problems(), header["rng_states"]
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise SnapshotError(f"snapshot header is not a grid model: {exc!r:.200}") from exc
        if not fits or type(frame_counter) is not int:
            raise SnapshotError("snapshot config or frame_counter has a value of the wrong type")
        if problems:
            raise SnapshotError(f"snapshot config is invalid: {'; '.join(problems)}")
        self._build(config, arrays, frame_counter, rng_states)

    def to_bytes(self) -> bytes:
        return snapshot.pack(SNAPSHOT_KIND, SNAPSHOT_VERSION, *self.state_dict())

    @classmethod
    def from_bytes(cls, data: bytes) -> "GridModel":
        model = cls.__new__(cls)
        model.load_state_dict(*snapshot.unpack(data, SNAPSHOT_KIND, SNAPSHOT_VERSION))
        return model

    def save(self, path) -> None:
        """Write beside ``path``, then move into place: a failed save keeps the old file."""
        with staged() as beside, open(beside(path), "xb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "GridModel":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def build_grid_config(
    frame_size,
    cell_size=EncoderConfig.cell_size,
    class_count: int = EncoderConfig.class_count,
    *,
    multistep_n: int = GridConfig.multistep_n,
    seed: int = GridConfig.seed,
    suppression_enabled: bool = GridConfig.suppression_enabled,
    aggregation: AggregationKind = GridConfig.aggregation,
    smoothing_window: int = GridConfig.smoothing_window,
    min_sparsity: int = EncoderConfig.min_sparsity,
    empty_pattern_sparsity: int = EncoderConfig.empty_pattern_sparsity,
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
