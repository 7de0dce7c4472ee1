"""Sequence memory over column activations, stepped for a group of grid cells at once.

Cells within a column encode the temporal context in which the column
became active; dendritic segments vote for the cells expected next, as in
the sequence memory of Hawkins & Ahmad 2016.  The per-step anomaly score is
the fraction of active columns that nobody predicted.  Learning is Hebbian
on segment permanences with a mild punishment for failed predictions, so new
sequences are picked up quickly while old ones decay slowly.

The memories of the units (grid cells) whose parameters differ only in
``seed`` are one group, and one ``compute`` call steps them all; units still
share no state.  Unit ``u`` owns columns ``[u * C, (u + 1) * C)`` and cells
``[u * T, (u + 1) * T)`` of the group, for ``C`` columns and ``T`` cells per
unit, so a cell's column is its id divided by ``cells_per_column`` across the
whole group and every step runs once over all units.

All tie-breaking is deterministic (ascending ids) and each unit draws only
from its own seeded generator, so identical inputs replay to identical state.

Segments live in one struct-of-arrays store per group.  Row ``r`` of the
padded ``(capacity, max_synapses_per_segment)`` arrays ``presyn``, ``perm``
and ``last_reinforced`` holds a segment's synapses in its first
``seg_lens[r]`` entries; past them ``presyn`` is -1, the always-false last
entry of a cell lookup table, so activity is one gather and two row counts.
Per row the store also keeps the owner unit, the segment's id within that
unit, its owner cell, ``last_used`` step and potential count;
``cell_segment_counts`` counts segments per cell.  Rows ``[0, segment_count)``
are in use and later rows are padding.  New rows are appended and a
compaction keeps the row order, so each unit's rows stay in ascending id
order and a lowest-id tie-break is a lowest-row one.  A destroyed row is
cleared to padding and marked (owner -1), so rows held by a step stay valid;
marked rows are dropped after learning.  A full store doubles.

Learning is batched over the rows a step selects in all units: the segments
that fired into active columns, the best matching segment of each bursting
column, and the punished segments that fired into inactive ones.  They lie
in disjoint columns, so one masked update over their padded rows applies
every permanence change, and one stable sort per row compacts the rows that
lost synapses.  Growth is the one pass that runs per row: a row that samples
new synapses draws from its unit's generator, so rows grow in (unit, column,
segment id) order and every unit's draws replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (MAX_COUNT, ContractError, SnapshotError, Validated, check_bits, check_units,
                     loaded, out_of_range)

__all__ = ["TmParams", "TmStepResult", "TemporalMemory"]

_EMPTY = np.empty(0, dtype=np.int64)

# Per-row arrays of the segment store: the padded ones, then those a snapshot
# holds per row, then the derived potential counts.
_SYNAPSES = ("presyn", "perm", "last_reinforced")
_ROWS = ("seg_units", "seg_ids", "seg_cells", "seg_lens", "seg_last_used")
_STORE = (*_SYNAPSES, *_ROWS, "seg_potential")
# Per-unit counters, and the step state a unit carries between steps.
_UNITS = ("next_segment_ids", "step_counts")
_STEP = ("active_cells", "winner_cells")


@dataclass(frozen=True)
class TmParams(Validated):
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
        if self.column_count * self.cells_per_column > MAX_COUNT:
            out.append(f"tm column_count x cells_per_column must be at most {MAX_COUNT} cells "
                       f"per unit, got {self.column_count} x {self.cells_per_column}")
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
        if self.min_threshold > self.activation_threshold:
            out.append(
                f"tm min_threshold ({self.min_threshold}) exceeds "
                f"activation_threshold ({self.activation_threshold})"
            )
        if self.seed < 0:
            out.append("tm seed must be non-negative")
        return out + out_of_range("tm", self)

    @property
    def group_key(self) -> tuple:
        """Every parameter but the seed: units equal in it step as one group."""
        return tuple(value for name, value in vars(self).items() if name != "seed")


@dataclass(frozen=True)
class TmStepResult:
    """Per-unit results of one group step, each an array over the group's units."""

    anomaly_scores: np.ndarray
    predictive_column_counts: np.ndarray
    active_column_counts: np.ndarray


class TemporalMemory:
    """The sequence memories of units whose ``TmParams`` differ only in ``seed``, stepped as one.

    Unit ``i`` has ``params[i]``, ``rngs[i]``, entry ``i`` of ``step_counts``
    and ``next_segment_ids``, and the store rows it owns; ``unit_state(i)``
    reads them together.  A single writer; distinct groups may run in parallel.
    """

    # The arrays a snapshot holds: the live store rows, their synapses in row
    # order, and the unit arrays.  ``state_dict`` adds the units' ``rng_states``.
    ARRAYS = (*_ROWS, *_SYNAPSES, *_UNITS, *_STEP)

    def __init__(self, params: Sequence[TmParams], state: dict | None = None):
        """A fresh group, or one restored from a checked copy of ``state``, a ``state_dict``.

        ``SnapshotError`` names the unit whose state does not fit, if one does.
        """
        if not params or len({p.group_key for p in params}) != 1:
            raise ContractError("a memory group needs units whose parameters differ only in seed")
        for p in params:
            p.validate()
        p = params[0]
        self.params = tuple(params)
        self.total_cells = p.column_count * p.cells_per_column
        self.rngs = [np.random.default_rng(unit.seed) for unit in params]
        if state is None:  # no segments, so nothing is active or predicted
            state = {**dict.fromkeys(self.ARRAYS, _EMPTY),
                     **{name: np.zeros(len(params), dtype=np.int64) for name in _UNITS}}
        else:
            state = self._checked(state)
        self._new_store(state["seg_units"].size)
        self.segment_count = state["seg_units"].size
        # Row r fills its first seg_lens[r] slots.
        filled = np.arange(p.max_synapses_per_segment) < state["seg_lens"][:, None]
        for name in (*_ROWS, *_SYNAPSES):
            getattr(self, name)[filled if name in _SYNAPSES else slice(None)] = state[name]
        self.cell_segment_counts = np.bincount(self.seg_cells,
                                               minlength=len(params) * self.total_cells)
        for name in (*_UNITS, *_STEP):
            setattr(self, name, state[name])
        self._update_activity()

    def _checked(self, state: dict) -> dict:
        """Checked int64 and float64 copies of ``state``'s arrays; loads the generators."""
        count, cells = len(self.params), self.total_cells
        width = self.params[0].max_synapses_per_segment
        units = loaded(state["seg_units"], (None,), np.int64, "tm seg_units")
        if units.size and not 0 <= units.min() <= units.max() < count:
            raise SnapshotError(f"tm segment units must be integers in [0, {count})")
        out = {name: loaded(state[name], (count,) if name in _UNITS else units.shape, np.int64,
                            f"tm {name}") for name in (*_ROWS, *_UNITS)}
        check_units((out["next_segment_ids"] < 0) | (out["step_counts"] < 0),
                    "tm step counts and next segment ids must be non-negative")
        check_units(out["seg_cells"] // cells != units,
                    f"tm segment cells must lie among their unit's {cells} cells", units)
        # Each unit's ids increase in row order and stay below its next id.
        ids, order = out["seg_ids"], np.argsort(units, kind="stable")
        bad = (ids < 0) | (ids >= out["next_segment_ids"][units])
        later, earlier = order[1:], order[:-1]
        bad[later] |= (units[later] == units[earlier]) & (ids[later] <= ids[earlier])
        check_units(bad, "tm segment ids must increase in row order and stay below the "
                    "unit's next segment id", units)
        lens = out["seg_lens"]
        check_units((lens < 0) | (lens > width), f"tm segments must hold at most {width} synapses",
                    units)
        for name in _SYNAPSES:
            out[name] = loaded(state[name], (int(lens.sum()),),
                               np.float64 if name == "perm" else np.int64, f"tm {name}")
        owners = np.repeat(units, lens)
        check_units(out["presyn"] // cells != owners,
                    "tm presyn cells must lie among their unit's cells", owners)
        check_units(~((out["perm"] >= 0.0) & (out["perm"] <= 1.0)),  # NaN is outside too
                    "tm synapse permanences must lie in [0, 1]", owners)
        for name in _STEP:
            out[name] = value = loaded(state[name], (None,), np.int64, f"tm {name}")
            bad = (value < 0) | (value >= count * cells)
            bad[1:] |= value[1:] <= value[:-1]
            check_units(bad, f"tm {name} must be strictly increasing integers in "
                        f"[0, {count * cells})", np.clip(value // cells, 0, count - 1))
        if not (isinstance(state["rng_states"], list) and len(state["rng_states"]) == count):
            raise SnapshotError(f"tm generator states must be a list of {count}")
        for unit, (rng, rng_state) in enumerate(zip(self.rngs, state["rng_states"])):
            try:
                rng.bit_generator.state = rng_state
            except (KeyError, OverflowError, TypeError, ValueError) as exc:
                raise SnapshotError(f"tm generator state does not load: {exc!r}", unit) from exc
        return out

    # --- stepping ---------------------------------------------------------

    def compute(self, columns: np.ndarray, learn: bool) -> TmStepResult:
        """One step over a bool array of ``(units, column_count)``; others raise ``ContractError``.

        The input is read, never kept or written; segments learn only when ``learn``.
        """
        p = self.params[0]
        count = len(self.params)
        check_bits(columns, (count, p.column_count), "tm active columns")
        cpc = p.cells_per_column
        active_columns = columns.reshape(-1)
        active_cols = np.flatnonzero(active_columns)

        predicted_lut = np.zeros(active_columns.size, dtype=bool)
        predicted_lut[self.predictive_cells // cpc] = True
        bursting_cols = active_cols[~predicted_lut[active_cols]]

        active_counts = np.bincount(active_cols // p.column_count, minlength=count)
        bursting_counts = np.bincount(bursting_cols // p.column_count, minlength=count)
        anomaly = np.divide(bursting_counts, active_counts, out=np.zeros(count),
                            where=active_counts > 0)

        correct_predicted = self.predictive_cells[
            active_columns[self.predictive_cells // cpc]
        ]
        prev_active_lut = self._cell_lut(self.active_cells)
        prev_winners = self.winner_cells

        # Segments that fired last step, as rows.  Fired ones in active columns
        # get reinforced; the rest mispredicted and get punished.
        fired = self.active_segments
        fired_in_active = active_columns[self.seg_cells[fired] // cpc]

        # Bursting columns: the best matching segment (most potential synapses,
        # lowest id on ties) names the winner, otherwise the least used cell
        # (fewest segments, lowest index on ties) starts a fresh segment.
        best = fresh = _EMPTY
        if bursting_cols.size:
            bursting_lut = active_columns & ~predicted_lut
            matching = self.matching_segments
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
            # Only units that had winners last step grow; a unit without
            # them has no fired or matching rows either.
            had_winners = np.zeros(count, dtype=bool)
            had_winners[prev_winners // self.total_cells] = True
            new = self._create_segments(fresh[had_winners[fresh // self.total_cells]])
            rows = np.concatenate([adapted[alive], new])
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

        live = self.seg_units[: self.segment_count] >= 0
        if not live.all():
            self._resize(np.flatnonzero(live), self.seg_ids.size)
        self._update_activity()
        self.step_counts += 1
        predicted_cols = _distinct(self.predictive_cells // cpc)
        return TmStepResult(
            anomaly_scores=anomaly,
            predictive_column_counts=np.bincount(predicted_cols // p.column_count,
                                                 minlength=count),
            active_column_counts=active_counts,
        )

    def _cell_lut(self, cells: np.ndarray) -> np.ndarray:
        """Flags over all cells plus an always-false entry for -1 padding."""
        lut = np.zeros(self.cell_segment_counts.size + 1, dtype=bool)
        lut[cells] = True
        return lut

    # --- learning helpers ---------------------------------------------------

    def _update_permanences(self, adapted: np.ndarray, punished: np.ndarray,
                            prev_active_lut: np.ndarray) -> np.ndarray:
        """Adapt and punish rows in one masked update; True where an adapted row lives.

        Adapted rows gain the increment on synapses to previously active
        cells and lose the decrement elsewhere; punished rows lose the
        predicted decrement on those synapses.  Synapses at or below zero are
        dropped and a row left with none is destroyed.
        """
        p = self.params[0]
        rows = np.concatenate([adapted, punished])
        sizes = [adapted.size, punished.size]
        presyn = self.presyn[rows]
        hit = prev_active_lut[presyn]
        on_hit = np.repeat([p.permanence_increment, -p.predicted_decrement], sizes)
        off_hit = np.repeat([-p.permanence_decrement, 0.0], sizes)
        perm = self.perm[rows] + np.where(hit, on_hit[:, None], off_hit[:, None])
        self.perm[rows] = np.minimum(perm, 1.0)
        step = self.step_counts[self.seg_units[adapted]]
        self.last_reinforced[adapted] = np.where(hit[: adapted.size], step[:, None],
                                                 self.last_reinforced[adapted])
        self.seg_last_used[adapted] = step
        keep = (presyn >= 0) & (perm > 0.0)
        lens = keep.sum(axis=1)
        lost = lens < self.seg_lens[rows]
        if lost.any():
            self._compact(rows[lost], keep[lost])
        self._destroy_segments(rows[lens == 0])
        return lens[: adapted.size] > 0

    def _grow(self, rows: np.ndarray, wants: np.ndarray, winners: np.ndarray) -> None:
        """Give each row up to ``wants`` new synapses to its unit's ``winners`` it lacks.

        A row that may not take all of them samples them from its unit's
        generator; the draws are the only per-row work and follow the order
        of ``rows``.
        """
        if not winners.size:
            return
        p = self.params[0]
        units = self.seg_units[rows]
        # Each row's candidates: its unit's winners, in order, but those it has.
        bounds = np.searchsorted(winners, np.arange(len(self.params) + 1) * self.total_cells)
        first, sizes = bounds[units], np.diff(bounds)[units]
        slot = np.arange(sizes.max(initial=0))
        pool = winners[np.minimum(first[:, None] + slot, winners.size - 1)]
        avail = slot < sizes[:, None]
        presyn = self.presyn[rows]
        found = np.minimum(np.searchsorted(winners, presyn), winners.size - 1)
        r, c = np.nonzero(winners[found] == presyn)
        avail[r, found[r, c] - first[r]] = False
        have = _row_counts(avail)
        take = np.minimum(wants, have).clip(max=p.max_synapses_per_segment)
        for i in np.flatnonzero(take < have).tolist():
            # A draw depends only on the number of candidates, so drawing
            # their positions picks what drawing the cells would.
            cand = np.flatnonzero(avail[i])
            picked = self.rngs[units[i]].choice(cand.size, size=take[i], replace=False)
            avail[i] = False
            avail[i, cand[picked]] = True
        # Evict the least recently reinforced synapses to make room; a stable
        # sort breaks ties by position in the row, and padding sorts last.
        step = self.step_counts[units]
        over = self.seg_lens[rows] + take - p.max_synapses_per_segment
        if np.any(over > 0):
            full = rows[over > 0]
            presyn = self.presyn[full]
            age = np.where(presyn >= 0, self.last_reinforced[full], step[over > 0][:, None] + 1)
            rank = age.argsort(axis=1, kind="stable").argsort(axis=1)
            self._compact(full, (presyn >= 0) & (rank >= over[over > 0][:, None]))
        start = self.seg_lens[rows]
        slot = np.arange(self.presyn.shape[1])
        r, at = np.nonzero((slot >= start[:, None]) & (slot < (start + take)[:, None]))
        at = rows[r], at
        self.presyn[at] = pool[avail]
        self.perm[at] = p.initial_permanence
        self.last_reinforced[at] = step[r]
        self.seg_lens[rows] = start + take

    def _compact(self, rows: np.ndarray, keep: np.ndarray) -> None:
        """Move each row's ``keep`` synapses, in order, to its front."""
        # A stable sort of ~keep lists each row's kept slots first.
        at = np.arange(rows.size)[:, None], (~keep).argsort(axis=1, kind="stable")
        self.presyn[rows] = np.where(keep[at], self.presyn[rows][at], -1)
        for arr in (self.perm, self.last_reinforced):
            arr[rows] = arr[rows][at]
        self.seg_lens[rows] = keep.sum(axis=1)

    def _create_segments(self, cells: np.ndarray) -> np.ndarray:
        """Append a segment to each of ``cells`` (ascending, distinct); returns their rows.

        A cell at ``max_segments_per_cell`` first loses its least recently
        used segment, the lowest id on ties.
        """
        n = self.segment_count
        full = cells[self.cell_segment_counts[cells] >= self.params[0].max_segments_per_cell]
        if full.size:
            owned = np.flatnonzero(np.isin(self.seg_cells[:n], full))
            owned = owned[np.lexsort((self.seg_last_used[owned], self.seg_cells[owned]))]
            first = np.diff(self.seg_cells[owned], prepend=-1) != 0
            self._destroy_segments(owned[first])
        if n + cells.size > self.seg_ids.size:
            self._resize(np.arange(n), max(2 * n, n + cells.size, 8))
        rows = np.arange(n, n + cells.size)
        units = cells // self.total_cells
        # Each unit numbers its new segments on from its next id, in order.
        rank = np.arange(cells.size) - np.searchsorted(units, units)
        self.seg_units[rows], self.seg_cells[rows] = units, cells
        self.seg_ids[rows] = self.next_segment_ids[units] + rank
        self.seg_last_used[rows] = self.step_counts[units]
        self.cell_segment_counts[cells] += 1
        self.next_segment_ids += np.bincount(units, minlength=len(self.params))
        self.segment_count = n + cells.size
        return rows

    def _destroy_segments(self, rows: np.ndarray) -> None:
        """Clear ``rows`` to padding and mark them for the next compaction."""
        np.subtract.at(self.cell_segment_counts, self.seg_cells[rows], 1)
        self.seg_units[rows] = self.seg_cells[rows] = -1
        self.presyn[rows] = -1
        self.seg_lens[rows] = 0

    def _new_store(self, capacity: int) -> None:
        """Empty store arrays of ``capacity`` rows, all padding."""
        width = self.params[0].max_synapses_per_segment
        self.presyn = np.full((capacity, width), -1, dtype=np.int64)
        self.perm = np.zeros((capacity, width), dtype=np.float64)
        self.last_reinforced = np.zeros((capacity, width), dtype=np.int64)
        self.seg_units = np.full(capacity, -1, dtype=np.int64)
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
        """Derive the segments' activity and the predictive cells from ``active_cells``.

        ``active_segments`` and ``matching_segments`` are store rows.
        """
        p = self.params[0]
        n = self.segment_count
        hit = self._cell_lut(self.active_cells)[self.presyn[:n]]
        potential = _row_counts(hit)
        connected = hit & (self.perm[:n] >= p.connected_threshold)
        self.seg_potential[:n] = potential
        self.active_segments = np.flatnonzero(_row_counts(connected) >= p.activation_threshold)
        self.matching_segments = np.flatnonzero(potential >= p.min_threshold)
        self.predictive_cells = _distinct(np.sort(self.seg_cells[self.active_segments]))

    # --- serialization --------------------------------------------------------

    def state_dict(self) -> dict:
        """The group's ``ARRAYS``, rows cut to ``segment_count``, and its ``rng_states``.

        Segment activity and predictive cells follow from them, so they are left out.
        """
        n = self.segment_count
        filled = np.arange(self.presyn.shape[1]) < self.seg_lens[:n, None]
        return {**{name: getattr(self, name)[:n] for name in _ROWS},
                **{name: getattr(self, name)[:n][filled] for name in _SYNAPSES},
                **{name: getattr(self, name) for name in (*_UNITS, *_STEP)},
                "rng_states": [rng.bit_generator.state for rng in self.rngs]}

    def unit_state(self, i: int) -> dict:
        """Unit ``i``'s learned and carried state, as a memory of its own would hold it.

        Cells and ``presyn`` are the unit's own ids and segments are in
        ascending id order.  Segment activity and the predictive cells follow
        from the store and ``active_cells``, so they are left out.
        """
        offset = i * self.total_cells
        rows = np.flatnonzero(self.seg_units[: self.segment_count] == i)
        table = zip(self.seg_ids[rows].tolist(), (self.seg_cells[rows] - offset).tolist(),
                    self.seg_lens[rows].tolist(), self.seg_last_used[rows].tolist(),
                    self.presyn[rows] - offset, self.perm[rows], self.last_reinforced[rows])

        def local(cells):  # the unit's entries of the group's sorted cells
            lo, hi = np.searchsorted(cells, [offset, offset + self.total_cells])
            return cells[lo:hi] - offset

        return {
            "segments": [
                {"id": sid, "cell": cell, "presyn": presyn[:size], "perm": perm[:size],
                 "last_reinforced": reinforced[:size], "last_used": last_used}
                for sid, cell, size, last_used, presyn, perm, reinforced in table
            ],
            "next_segment_id": int(self.next_segment_ids[i]),
            "rng_state": self.rngs[i].bit_generator.state,
            "step_count": int(self.step_counts[i]),
            **{name: local(getattr(self, name)) for name in _STEP},
        }


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """True entries per row of a 2-D bool array.

    einsum sums bytes far faster than ``count_nonzero(axis=1)``; it sums
    ``uint8``, so it takes 255 columns at a time, which cannot wrap.
    """
    data = mask.view(np.uint8)
    return sum((np.einsum("ij->i", data[:, k : k + 255]) for k in range(0, data.shape[1], 255)),
               np.zeros(len(data), dtype=np.int64))


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of sorted non-negative ``values``; cheaper than ``np.unique``."""
    return values[np.diff(values, prepend=-1) != 0]
