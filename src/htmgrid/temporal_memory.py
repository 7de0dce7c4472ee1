"""Sequence memory over column activations.

Cells within a column encode the temporal context in which the column
became active; dendritic segments vote for the cells expected next.  The
per-step anomaly score is the fraction of active columns that nobody
predicted.  Learning is Hebbian on segment permanences with a mild
punishment for failed predictions, so new sequences are picked up quickly
while old ones decay slowly.

All tie-breaking is deterministic (ascending ids) and all sampling comes
from the seeded generator, so identical inputs replay to identical state.

Segments live in one struct-of-arrays store.  Row ``r`` of the padded
``(capacity, max_synapses_per_segment)`` arrays ``presyn``, ``perm`` and
``last_reinforced`` holds a segment's synapses in its first ``seg_lens[r]``
entries; past them ``presyn`` is -1, the always-false last entry of a cell
lookup table, so activity is one gather and two row counts.  Per row the
store also keeps the segment id, owner cell, ``last_used`` step and
potential count; ``cell_segment_counts`` counts segments per cell.  Between
steps rows ``[0, segment_count)`` are the live segments in ascending id
order and later rows are padding.  Within a step a destroyed row is only
marked (owner -1) and new rows are appended, so rows held by the step stay
valid; marked rows are dropped after learning.  A full store doubles.

Learning is batched over the rows a step selects: the segments that fired
into active columns, the best matching segment of each bursting column, and
the punished segments that fired into inactive ones.  They lie in disjoint
columns, so one masked update over their padded rows applies every
permanence change, and one stable sort per row compacts the rows that lost
synapses.  Growth is the one pass that runs per row: a row that samples new
synapses draws from the generator, so rows grow in the order the columns
are visited (by column, then segment id) and every draw replays exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SnapshotError, check_bits, check_indices, non_finite

__all__ = ["TmParams", "TmStepResult", "TemporalMemory"]

_EMPTY = np.empty(0, dtype=np.int64)

# Per-row arrays of the segment store, the padded ones among them, and the
# step state carried between steps.
_STORE = ("presyn", "perm", "last_reinforced", "seg_ids", "seg_cells", "seg_lens",
          "seg_last_used", "seg_potential")
_SYNAPSES = _STORE[:3]
_STEP = ("active_cells", "winner_cells")


@dataclass(frozen=True)
class TmParams:
    column_count: int
    cells_per_column: int = 8
    max_segments_per_cell: int = 32
    max_synapses_per_segment: int = 32
    initial_permanence: float = 0.21
    connected_threshold: float = 0.2
    permanence_increment: float = 0.1
    permanence_decrement: float = 0.001
    predicted_decrement: float = 0.003
    activation_threshold: int = 8
    min_threshold: int = 4
    new_synapse_count: int = 15
    seed: int = 0

    def problems(self) -> list[str]:
        out = []
        if self.column_count <= 0:
            out.append(f"tm column_count must be positive, got {self.column_count}")
        if self.cells_per_column <= 0:
            out.append("tm cells_per_column must be positive")
        if self.max_segments_per_cell <= 0:
            out.append("tm max_segments_per_cell must be positive")
        if self.max_synapses_per_segment <= 0:
            out.append("tm max_synapses_per_segment must be positive")
        if not 0.0 < self.initial_permanence < 1.0:
            out.append("tm initial_permanence must be in (0, 1)")
        if not 0.0 < self.connected_threshold < 1.0:
            out.append("tm connected_threshold must be in (0, 1)")
        if self.permanence_increment <= 0.0:
            out.append("tm permanence_increment must be > 0")
        if self.permanence_decrement < 0.0:
            out.append("tm permanence_decrement must be >= 0")
        if self.predicted_decrement < 0.0:
            out.append("tm predicted_decrement must be >= 0")
        if self.activation_threshold <= 0:
            out.append("tm activation_threshold must be positive")
        if self.min_threshold <= 0:
            out.append("tm min_threshold must be positive")
        elif self.min_threshold > self.activation_threshold:
            out.append(
                f"tm min_threshold ({self.min_threshold}) exceeds "
                f"activation_threshold ({self.activation_threshold})"
            )
        if self.new_synapse_count <= 0:
            out.append("tm new_synapse_count must be positive")
        if self.seed < 0:
            out.append("tm seed must be non-negative")
        return out + non_finite("tm", self)

    def validate(self) -> None:
        problems = self.problems()
        if problems:
            raise ConfigError("; ".join(problems))


@dataclass(frozen=True)
class TmStepResult:
    anomaly_score: float
    predictive_column_count: int
    active_column_count: int


class TemporalMemory:
    """Single-writer sequence learner; one instance per grid cell."""

    def __init__(self, params: TmParams):
        params.validate()
        self.params = params
        self.total_cells = params.column_count * params.cells_per_column
        self._new_store(0)
        self.cell_segment_counts = np.zeros(self.total_cells, dtype=np.int64)
        self.next_segment_id = 0
        self.rng = np.random.default_rng(params.seed)
        self.step_count = 0
        # A fresh memory has no segments, so nothing is active or predicted.
        self.active_cells = self.winner_cells = self.predictive_cells = _EMPTY
        self.active_segments = self.matching_segments = _EMPTY

    # --- stepping ---------------------------------------------------------

    def compute(self, active_columns: np.ndarray, learn: bool) -> TmStepResult:
        """One step over a 1-D bool array of ``column_count``; others raise ``ContractError``.

        The input is read, never kept or written; segments learn only when ``learn``.
        """
        p = self.params
        check_bits(active_columns, (p.column_count,), "tm active columns")
        cpc = p.cells_per_column
        active_cols = np.flatnonzero(active_columns)

        predicted_lut = np.zeros(p.column_count, dtype=bool)
        predicted_lut[self.predictive_cells // cpc] = True
        bursting_cols = active_cols[~predicted_lut[active_cols]]

        anomaly = bursting_cols.size / active_cols.size if active_cols.size else 0.0

        correct_predicted = self.predictive_cells[
            active_columns[self.predictive_cells // cpc]
        ]
        prev_active_lut = self._cell_lut(self.active_cells)
        prev_winners = self.winner_cells

        # Segments that fired last step, as rows in id order.  Fired ones in
        # active columns get reinforced; the rest mispredicted and get punished.
        fired = self._rows(self.active_segments)
        fired_in_active = active_columns[self.seg_cells[fired] // cpc]

        # Bursting columns: the best matching segment (most potential synapses,
        # lowest id on ties) names the winner, otherwise the least used cell
        # (fewest segments, lowest index on ties) starts a fresh segment.
        best = fresh = _EMPTY
        if bursting_cols.size:
            bursting_lut = active_columns & ~predicted_lut
            matching = self._rows(self.matching_segments)
            matching = matching[bursting_lut[self.seg_cells[matching] // cpc]]
            matching_cols = self.seg_cells[matching] // cpc
            order = np.lexsort((-self.seg_potential[matching], matching_cols))
            matched_cols, first = np.unique(matching_cols[order], return_index=True)
            best = matching[order[first]]
            bursting_lut[matched_cols] = False
            fresh_cols = np.flatnonzero(bursting_lut)
            counts = self.cell_segment_counts.reshape(-1, cpc)[fresh_cols]
            fresh = fresh_cols * cpc + np.argmin(counts, axis=1)
        burst_winners = np.concatenate([self.seg_cells[best], fresh])

        if learn:
            adapted = np.concatenate([fired[fired_in_active], best])
            alive = self._update_permanences(adapted, fired[~fired_in_active],
                                             prev_active_lut)
            if prev_winners.size:
                new = [self._create_segment(cell) for cell in fresh.tolist()]
                rows = np.concatenate([adapted[alive], np.array(new, dtype=np.int64)])
                # A new row was padding, with no potential synapses.
                want = p.new_synapse_count - self.seg_potential[rows]
                rows, want = rows[want > 0], want[want > 0]
                # Draw in the order the columns are visited: by column, then id.
                order = np.lexsort((rows, self.seg_cells[rows] // cpc))
                self._grow(rows[order], want[order], prev_winners)

        burst_cells = (
            bursting_cols[:, None] * cpc + np.arange(cpc, dtype=np.int64)
        ).reshape(-1)
        self.active_cells = np.sort(np.concatenate([correct_predicted, burst_cells]))
        self.winner_cells = np.sort(np.concatenate([correct_predicted, burst_winners]))

        live = self.seg_cells[: self.segment_count] >= 0
        if not live.all():
            self._resize(np.flatnonzero(live), self.seg_ids.size)
        self._update_activity()
        self.step_count += 1
        return TmStepResult(
            anomaly_score=float(anomaly),
            predictive_column_count=int(np.unique(self.predictive_cells // cpc).size),
            active_column_count=int(active_cols.size),
        )

    def _cell_lut(self, cells: np.ndarray) -> np.ndarray:
        """Flags over all cells plus an always-false entry for -1 padding."""
        lut = np.zeros(self.total_cells + 1, dtype=bool)
        lut[cells] = True
        return lut

    def _rows(self, segment_ids: np.ndarray) -> np.ndarray:
        """Rows of live segments; valid between steps, when rows are in id order."""
        return np.searchsorted(self.seg_ids[: self.segment_count], segment_ids)

    # --- learning helpers ---------------------------------------------------

    def _update_permanences(self, adapted: np.ndarray, punished: np.ndarray,
                            prev_active_lut: np.ndarray) -> np.ndarray:
        """Adapt and punish rows in one masked update; True where an adapted row lives.

        Adapted rows gain the increment on synapses to previously active
        cells and lose the decrement elsewhere; punished rows lose the
        predicted decrement on those synapses.  Synapses at or below zero are
        dropped and a row left with none is destroyed.
        """
        p = self.params
        rows = np.concatenate([adapted, punished])
        sizes = [adapted.size, punished.size]
        presyn = self.presyn[rows]
        hit = prev_active_lut[presyn]
        on_hit = np.repeat([p.permanence_increment, -p.predicted_decrement], sizes)
        off_hit = np.repeat([-p.permanence_decrement, 0.0], sizes)
        perm = self.perm[rows] + np.where(hit, on_hit[:, None], off_hit[:, None])
        self.perm[rows] = np.minimum(perm, 1.0)
        self.last_reinforced[adapted] = np.where(hit[: adapted.size], self.step_count,
                                                 self.last_reinforced[adapted])
        self.seg_last_used[adapted] = self.step_count
        keep = (presyn >= 0) & (perm > 0.0)
        lens = keep.sum(axis=1)
        lost = lens < self.seg_lens[rows]
        if lost.any():
            self._compact(rows[lost], keep[lost])
        self._destroy_segments(rows[lens == 0])
        return lens[: adapted.size] > 0

    def _grow(self, rows: np.ndarray, wants: np.ndarray, winners: np.ndarray) -> None:
        """Give each row up to ``wants`` new synapses to the ``winners`` it lacks.

        A row that may not take all of them samples them from the generator;
        the draws are the only per-row work and follow the order of ``rows``.
        """
        p = self.params
        avail = (self.presyn[rows][:, :, None] != winners).all(axis=1)
        take = np.minimum(wants, avail.sum(axis=1)).clip(max=p.max_synapses_per_segment)
        chosen = [_EMPTY]
        for k, mask in zip(take.tolist(), avail):
            pool = winners[mask]
            if k < pool.size:
                pool = np.sort(self.rng.choice(pool, size=k, replace=False))
            chosen.append(pool)
        # Evict the least recently reinforced synapses to make room; a stable
        # sort breaks ties by position in the row, and padding sorts last.
        over = self.seg_lens[rows] + take - p.max_synapses_per_segment
        full = rows[over > 0]
        if full.size:
            presyn = self.presyn[full]
            age = np.where(presyn >= 0, self.last_reinforced[full], self.step_count + 1)
            rank = age.argsort(axis=1, kind="stable").argsort(axis=1)
            self._compact(full, (presyn >= 0) & (rank >= over[over > 0][:, None]))
        start = self.seg_lens[rows]
        slot = np.arange(self.presyn.shape[1])
        r, at = np.nonzero((slot >= start[:, None]) & (slot < (start + take)[:, None]))
        at = rows[r], at
        self.presyn[at] = np.concatenate(chosen)
        self.perm[at] = p.initial_permanence
        self.last_reinforced[at] = self.step_count
        self.seg_lens[rows] = start + take

    def _compact(self, rows: np.ndarray, keep: np.ndarray) -> None:
        """Move each row's ``keep`` synapses, in order, to its front."""
        # A stable sort of ~keep lists each row's kept slots first.
        at = np.arange(rows.size)[:, None], (~keep).argsort(axis=1, kind="stable")
        self.presyn[rows] = np.where(keep[at], self.presyn[rows][at], -1)
        for arr in (self.perm, self.last_reinforced):
            arr[rows] = arr[rows][at]
        self.seg_lens[rows] = keep.sum(axis=1)

    def _create_segment(self, cell: int) -> int:
        n = self.segment_count
        if self.cell_segment_counts[cell] >= self.params.max_segments_per_cell:
            owned = np.flatnonzero(self.seg_cells[:n] == cell)
            self._destroy_segments(owned[np.argmin(self.seg_last_used[owned])])
        if n == self.seg_ids.size:
            self._resize(np.arange(n), max(2 * n, 8))
        self.seg_ids[n] = self.next_segment_id
        self.seg_cells[n] = cell
        self.seg_last_used[n] = self.step_count
        self.cell_segment_counts[cell] += 1
        self.next_segment_id += 1
        self.segment_count = n + 1
        return n

    def _destroy_segments(self, rows: np.ndarray) -> None:
        np.subtract.at(self.cell_segment_counts, self.seg_cells[rows], 1)
        self.seg_cells[rows] = -1

    def _new_store(self, capacity: int) -> None:
        """Empty store arrays of ``capacity`` rows, all padding."""
        width = self.params.max_synapses_per_segment
        self.presyn = np.full((capacity, width), -1, dtype=np.int64)
        self.perm = np.zeros((capacity, width), dtype=np.float64)
        self.last_reinforced = np.zeros((capacity, width), dtype=np.int64)
        self.seg_ids = np.zeros(capacity, dtype=np.int64)
        self.seg_cells = np.full(capacity, -1, dtype=np.int64)
        self.seg_lens = np.zeros(capacity, dtype=np.int64)
        self.seg_last_used = np.zeros(capacity, dtype=np.int64)
        self.seg_potential = np.zeros(capacity, dtype=np.int64)
        self.segment_count = 0

    def _resize(self, rows: np.ndarray, capacity: int) -> None:
        """Move ``rows``, in order, to the front of a new store of ``capacity``."""
        old = [getattr(self, name) for name in _STORE]
        self._new_store(capacity)
        for name, arr in zip(_STORE, old):
            getattr(self, name)[: rows.size] = arr[rows]
        self.segment_count = rows.size

    # --- activation ---------------------------------------------------------

    def _update_activity(self) -> None:
        """Derive the segments' activity and the predictive cells from ``active_cells``."""
        p = self.params
        n = self.segment_count
        hit = self._cell_lut(self.active_cells)[self.presyn[:n]]
        potential = np.count_nonzero(hit, axis=1)
        connected = hit & (self.perm[:n] >= p.connected_threshold)
        active = np.count_nonzero(connected, axis=1) >= p.activation_threshold
        self.seg_potential[:n] = potential
        self.active_segments = self.seg_ids[:n][active]
        self.matching_segments = self.seg_ids[:n][potential >= p.min_threshold]
        self.predictive_cells = np.unique(self.seg_cells[:n][active])

    # --- serialization --------------------------------------------------------

    def state_dict(self) -> dict:
        """Learned and carried state, segments in ascending id order.

        Segment activity and the predictive cells follow from the store and
        ``active_cells``, so they are left out, as are the parameters.  The
        segment arrays are views into the store, which later learning mutates.
        """
        n = self.segment_count
        rows = zip(self.seg_ids[:n].tolist(), self.seg_cells[:n].tolist(),
                   self.seg_lens[:n].tolist(), self.seg_last_used[:n].tolist(),
                   self.presyn, self.perm, self.last_reinforced)
        return {
            "segments": [
                {"id": sid, "cell": cell, "presyn": presyn[:size], "perm": perm[:size],
                 "last_reinforced": reinforced[:size], "last_used": last_used}
                for sid, cell, size, last_used, presyn, perm, reinforced in rows
            ],
            "next_segment_id": self.next_segment_id,
            "rng_state": self.rng.bit_generator.state,
            "step_count": self.step_count,
            **{name: getattr(self, name) for name in _STEP},
        }

    def load_state_dict(self, state: dict, params: TmParams) -> None:
        """Fill the store from ``state`` under ``params``; segment arrays are copied.

        Raises ``SnapshotError``, before anything is assigned, if an index or a
        segment's length does not fit ``params``.
        """
        total_cells = params.column_count * params.cells_per_column
        width = params.max_synapses_per_segment
        segments = state["segments"]
        # Per segment: id, cell, last_used and the lengths of its synapse arrays.
        table = np.array([(rec["id"], rec["cell"], rec["last_used"], len(rec["presyn"]),
                            len(rec["perm"]), len(rec["last_reinforced"])) for rec in segments],
                         dtype=np.int64).reshape(-1, 6)
        ids, cells, last_used, lens = table[:, :4].T
        synapses = [np.concatenate([_EMPTY] + [rec[name] for rec in segments])
                    for name in _SYNAPSES]
        next_segment_id = int(state["next_segment_id"])
        step = [np.asarray(state[name]) for name in _STEP]
        check_indices(ids, next_segment_id, "tm segment ids")
        check_indices(cells, total_cells, "tm segment cells", increasing=False)
        if np.any(table[:, 4:] != lens[:, None]) or np.any(lens > width):
            raise SnapshotError(f"tm segments must hold at most {width} synapses, "
                                "each with a permanence and a last_reinforced step")
        check_indices(synapses[0], total_cells, "tm presyn cells", increasing=False)
        for name, value in zip(_STEP, step):
            check_indices(value, total_cells, f"tm {name}")
        rng = np.random.default_rng(0)
        rng.bit_generator.state = state["rng_state"]
        step_count = int(state["step_count"])

        self.params, self.total_cells = params, total_cells
        self._new_store(ids.size)
        self.segment_count = ids.size
        self.seg_ids[:], self.seg_cells[:], self.seg_last_used[:] = ids, cells, last_used
        self.seg_lens[:] = lens
        # One vectorised pass per array: row r fills its first seg_lens[r] slots.
        filled = np.arange(width) < lens[:, None]
        for name, values in zip(_SYNAPSES, synapses):
            getattr(self, name)[filled] = values
        self.cell_segment_counts = np.bincount(cells, minlength=total_cells)
        self.next_segment_id = next_segment_id
        self.rng = rng
        self.step_count = step_count
        # Step arrays are never written in place, so they are kept and arrays
        # the state shares stay shared.  Unpickled arrays carry an equal copy of
        # numpy's int64 dtype; numpy's own keeps a reload's pickle byte-identical.
        for name, value in zip(_STEP, step):
            value = value.astype(np.int64, copy=False)
            value.dtype = np.dtype(np.int64)
            setattr(self, name, value)
        self._update_activity()
