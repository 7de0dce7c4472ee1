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
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .sdr import Sdr

__all__ = ["TmParams", "TmStepResult", "TemporalMemory"]

_EMPTY = np.empty(0, dtype=np.int64)

# Per-row arrays of the segment store, and the step state carried between steps.
_STORE = ("presyn", "perm", "last_reinforced", "seg_ids", "seg_cells", "seg_lens",
          "seg_last_used", "seg_potential")
_STEP = ("active_cells", "winner_cells", "predictive_cells", "active_segments",
         "matching_segments")


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
        return out

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
        for name in _STEP:
            setattr(self, name, _EMPTY)

    # --- stepping ---------------------------------------------------------

    def compute(self, active_columns: Sdr, learn: bool) -> TmStepResult:
        p = self.params
        if active_columns.width != p.column_count:
            raise ContractError(
                f"active column width {active_columns.width} != configured "
                f"{p.column_count}"
            )
        cpc = p.cells_per_column
        active_cols = active_columns.active

        predicted_lut = np.zeros(p.column_count, dtype=bool)
        predicted_lut[self.predictive_cells // cpc] = True
        active_col_lut = np.zeros(p.column_count, dtype=bool)
        active_col_lut[active_cols] = True
        bursting_cols = active_cols[~predicted_lut[active_cols]]

        anomaly = bursting_cols.size / active_cols.size if active_cols.size else 0.0

        correct_predicted = self.predictive_cells[
            active_col_lut[self.predictive_cells // cpc]
        ]
        prev_active_lut = self._cell_lut(self.active_cells)
        prev_winners = self.winner_cells

        # Segments that fired last step, and those that matched it, as rows
        # in id order.  Fired ones in active columns get reinforced; the rest
        # mispredicted and get punished below.
        fired = self._rows(self.active_segments)
        fired_cols = self.seg_cells[fired] // cpc
        punished = fired[~active_col_lut[fired_cols]]
        matching = self._rows(self.matching_segments)
        matching_cols = self.seg_cells[matching] // cpc

        burst_winners: list[int] = []
        for col in active_cols.tolist():
            if predicted_lut[col]:
                if learn:
                    for row in fired[fired_cols == col].tolist():
                        self._adapt(row, prev_active_lut, prev_winners)
                continue
            # Bursting column: the best matching segment (lowest id on ties)
            # names the winner, otherwise the least used cell starts a fresh
            # segment.
            candidates = matching[matching_cols == col]
            if candidates.size:
                row = int(candidates[np.argmax(self.seg_potential[candidates])])
                burst_winners.append(int(self.seg_cells[row]))
                if learn:
                    self._adapt(row, prev_active_lut, prev_winners)
            else:
                # The least used cell: fewest segments, lowest index on ties.
                counts = self.cell_segment_counts[col * cpc : (col + 1) * cpc]
                winner = col * cpc + int(np.argmin(counts))
                burst_winners.append(winner)
                if learn and prev_winners.size:
                    row = self._create_segment(winner)
                    self._grow(row, prev_winners, p.new_synapse_count)

        if learn and p.predicted_decrement > 0.0:
            for row in punished.tolist():
                n = self.seg_lens[row]
                active = prev_active_lut[self.presyn[row, :n]]
                delta = np.where(active, p.predicted_decrement, 0.0)
                self._set_perm(row, self.perm[row, :n] - delta)

        burst_cells = (
            bursting_cols[:, None] * cpc + np.arange(cpc, dtype=np.int64)
        ).reshape(-1)
        self.active_cells = np.sort(np.concatenate([correct_predicted, burst_cells]))
        self.winner_cells = np.sort(
            np.concatenate(
                [correct_predicted, np.asarray(burst_winners, dtype=np.int64)]
            )
        )

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

    def _adapt(self, row: int, prev_active_lut: np.ndarray,
               prev_winners: np.ndarray) -> None:
        """Reinforce a segment; if it survives, grow it toward the winners."""
        p = self.params
        grow = p.new_synapse_count - int(self.seg_potential[row])
        n = self.seg_lens[row]
        active = prev_active_lut[self.presyn[row, :n]]
        self.last_reinforced[row, :n][active] = self.step_count
        self.seg_last_used[row] = self.step_count
        delta = np.where(active, p.permanence_increment, -p.permanence_decrement)
        if self._set_perm(row, self.perm[row, :n] + delta):
            self._grow(row, prev_winners, grow)

    def _set_perm(self, row: int, perm: np.ndarray) -> bool:
        """Store permanences, drop synapses <= 0; False if that destroyed the segment."""
        keep = perm > 0.0
        if not keep.any():
            self._destroy_segment(row)
            return False
        self.perm[row, : perm.size] = np.minimum(perm, 1.0)
        if not keep.all():
            self._keep_synapses(row, keep)
        return True

    def _keep_synapses(self, row: int, keep: np.ndarray) -> int:
        """Compact the row to the synapses flagged in ``keep``; returns the count."""
        n = keep.size
        kept = int(np.count_nonzero(keep))
        for arr in (self.presyn, self.perm, self.last_reinforced):
            arr[row, :kept] = arr[row, :n][keep]
        self.presyn[row, kept:n] = -1
        self.seg_lens[row] = kept
        return kept

    def _grow(self, row: int, candidates: np.ndarray, want: int) -> None:
        if want <= 0 or candidates.size == 0:
            return
        n = int(self.seg_lens[row])
        avail = candidates[~np.isin(candidates, self.presyn[row, :n])]
        if avail.size == 0:
            return
        p = self.params
        k = min(want, int(avail.size), p.max_synapses_per_segment)
        if k < avail.size:
            chosen = np.sort(self.rng.choice(avail, size=k, replace=False))
        else:
            chosen = avail
        over = n + k - p.max_synapses_per_segment
        if over > 0:
            # Evict the least recently reinforced synapses to make room; a
            # stable sort breaks ties by position in the row.
            oldest = np.argsort(self.last_reinforced[row, :n], kind="stable")[:over]
            keep = np.ones(n, dtype=bool)
            keep[oldest] = False
            n = self._keep_synapses(row, keep)
        self.presyn[row, n : n + k] = chosen
        self.perm[row, n : n + k] = p.initial_permanence
        self.last_reinforced[row, n : n + k] = self.step_count
        self.seg_lens[row] = n + k
        self.seg_last_used[row] = self.step_count

    def _create_segment(self, cell: int) -> int:
        n = self.segment_count
        if self.cell_segment_counts[cell] >= self.params.max_segments_per_cell:
            owned = np.flatnonzero(self.seg_cells[:n] == cell)
            self._destroy_segment(owned[np.argmin(self.seg_last_used[owned])])
        if n == self.seg_ids.size:
            self._resize(np.arange(n), max(2 * n, 8))
        self.seg_ids[n] = self.next_segment_id
        self.seg_cells[n] = cell
        self.seg_last_used[n] = self.step_count
        self.cell_segment_counts[cell] += 1
        self.next_segment_id += 1
        self.segment_count = n + 1
        return n

    def _destroy_segment(self, row: int) -> None:
        self.cell_segment_counts[self.seg_cells[row]] -= 1
        self.seg_cells[row] = -1

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
        p = self.params
        n = self.segment_count
        if n == 0:
            # The shared empty array of a fresh instance; snapshot bytes
            # depend on that sharing.
            self.active_segments = _EMPTY
            self.matching_segments = _EMPTY
            self.predictive_cells = _EMPTY
            return
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

        The segment arrays are views into the store, which later learning
        mutates.
        """
        n = self.segment_count
        ids = self.seg_ids[:n].tolist()
        rows = zip(ids, self.seg_cells[:n].tolist(), self.seg_lens[:n].tolist(),
                   self.seg_last_used[:n].tolist(), self.presyn, self.perm,
                   self.last_reinforced)
        return {
            "params": asdict(self.params),
            "segments": [
                {"id": sid, "cell": cell, "presyn": presyn[:size], "perm": perm[:size],
                 "last_reinforced": reinforced[:size], "last_used": last_used}
                for sid, cell, size, last_used, presyn, perm, reinforced in rows
            ],
            "next_segment_id": self.next_segment_id,
            "rng_state": self.rng.bit_generator.state,
            "step_count": self.step_count,
            **{name: getattr(self, name) for name in _STEP},
            "potential_counts": {
                sid: count
                for sid, count in zip(ids, self.seg_potential[:n].tolist())
                if count
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Fill the store from ``state``; segment arrays are copied, not kept."""
        self.params = TmParams(**state["params"])
        self.total_cells = self.params.column_count * self.params.cells_per_column
        segments = sorted(state["segments"], key=lambda rec: rec["id"])
        self._new_store(len(segments))
        self.segment_count = len(segments)
        # One vectorised pass per array: row r fills its first seg_lens[r] slots.
        self.seg_lens[:] = [np.size(rec["presyn"]) for rec in segments]
        width = self.params.max_synapses_per_segment
        filled = np.arange(width) < self.seg_lens[:, None]
        for name in ("presyn", "perm", "last_reinforced"):
            arrays = [_EMPTY] + [rec[name] for rec in segments]
            getattr(self, name)[filled] = np.concatenate(arrays)
        self.seg_ids[:] = [rec["id"] for rec in segments]
        self.seg_cells[:] = [rec["cell"] for rec in segments]
        self.seg_last_used[:] = [rec["last_used"] for rec in segments]
        counts = state["potential_counts"]
        rows = self._rows(np.fromiter(counts, np.int64, len(counts)))
        self.seg_potential[rows] = list(counts.values())
        self.cell_segment_counts = np.bincount(
            self.seg_cells, minlength=self.total_cells
        )
        self.next_segment_id = int(state["next_segment_id"])
        self.rng = np.random.default_rng(0)
        self.rng.bit_generator.state = state["rng_state"]
        self.step_count = int(state["step_count"])
        # Step arrays are replaced each step, never written in place, so
        # they need no copy.
        for name in _STEP:
            setattr(self, name, np.asarray(state[name], dtype=np.int64))
