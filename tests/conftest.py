import numpy as np
import pytest

from htmgrid import (
    ConfigError,
    GridModel,
    LinearLoop,
    ObjectTrack,
    Scenario,
    build_grid_config,
    generate,
)


def dense(width, active=()) -> np.ndarray:
    """A 1-D bool array of ``width`` with the ``active`` indices set."""
    out = np.zeros(width, dtype=bool)
    out[np.asarray(active, dtype=np.int64)] = True
    return out


def results_equal(a, b) -> bool:
    """Bitwise equality of two FrameResults."""
    return (
        a.frame_index == b.frame_index
        and np.array_equal(a.raw_scores, b.raw_scores)
        and np.array_equal(a.reported_scores, b.reported_scores)
        and np.array_equal(a.certainty, b.certainty)
        and a.aggregate == b.aggregate
        and a.aggregate_smoothed == b.aggregate_smoothed
    )


def states_equal(a, b) -> bool:
    """Deep equality of two ``state_dict()`` trees; arrays must match in dtype too."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and np.array_equal(a, b)
        )
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and a.keys() == b.keys()
            and all(states_equal(a[k], b[k]) for k in a)
        )
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(states_equal(x, y) for x, y in zip(a, b))
        )
    return type(a) is type(b) and a == b


def moving_average(series, window: int) -> np.ndarray:
    """Trailing moving average with prefix warm-up, the oracle for ``aggregate_smoothed``.

    ``out[i]`` is the mean of the last ``min(i + 1, window)`` values ending
    at ``i``, so the output aligns index for index with the input.
    """
    if window < 1:
        raise ConfigError(f"moving average window must be >= 1, got {window}")
    arr = np.asarray(series, dtype=np.float64).reshape(-1)
    out = np.empty_like(arr)
    for i in range(arr.size):
        lo = max(0, i - window + 1)
        out[i] = np.mean(arr[lo : i + 1])
    return out


class PerCellPooler:
    """One cell's spatial pooler stepped on its own, the oracle for ``SpatialPooler`` groups.

    Draws the cell's pools and permanences from its seed, gathers its input
    bits through the pools and recomputes the connected synapses on every
    step, as the engine did before cells were pooled as a batch.
    """

    def __init__(self, params):
        self.params = p = params
        rng = np.random.default_rng(p.seed)
        order = np.argsort(rng.random((p.column_count, p.input_width)), axis=1)
        self.pools = np.sort(order[:, : p.pool_size], axis=1).astype(np.int64)
        low, high = p.connected_threshold - 0.1, p.connected_threshold + 0.1
        self.permanences = np.clip(rng.uniform(low, high, size=self.pools.shape), 0.0, 1.0)
        self.step_count = 0
        self.duty_cycles = np.zeros(p.column_count, dtype=np.float64)

    def compute(self, bits: np.ndarray, learn: bool) -> np.ndarray:
        p = self.params
        pooled_active = bits[self.pools]
        connected = self.permanences >= p.connected_threshold
        overlaps = np.count_nonzero(pooled_active & connected, axis=1)

        ranking = overlaps
        if p.boosting_enabled:
            target = p.active_columns / p.column_count
            factors = np.exp(p.boost_strength * (target - self.duty_cycles) / target)
            ranking = overlaps * factors
        eligible = np.flatnonzero(overlaps >= p.stimulus_threshold)
        order = np.lexsort((eligible, -ranking[eligible]))
        active = np.zeros(p.column_count, dtype=bool)
        active[eligible[order[: p.active_columns]]] = True

        if learn:
            delta = np.where(pooled_active[active], p.permanence_increment,
                             -p.permanence_decrement)
            self.permanences[active] = np.clip(self.permanences[active] + delta, 0.0, 1.0)
            if p.boosting_enabled:
                horizon = min(self.step_count + 1, 1000)
                self.duty_cycles += (active - self.duty_cycles) / horizon
            self.step_count += 1
        return active


_EMPTY_INDEX = np.empty(0, dtype=np.int64)
_MEMORY_STORE = ("presyn", "perm", "last_reinforced", "seg_ids", "seg_cells", "seg_lens",
                 "seg_last_used", "seg_potential")


class PerCellMemory:
    """One unit's temporal memory stepped on its own, the oracle for ``TemporalMemory`` groups.

    It keeps its own segment store with unit-local cell ids and its own
    generator, and compacts the store whenever a step destroyed a segment,
    as the engine did before units were stepped as a batch.
    """

    def __init__(self, params):
        params.validate()
        self.params = params
        self.total_cells = params.column_count * params.cells_per_column
        self._new_store(0)
        self.cell_segment_counts = np.zeros(self.total_cells, dtype=np.int64)
        self.next_segment_id = 0
        self.rng = np.random.default_rng(params.seed)
        self.step_count = 0
        # A fresh memory has no segments, so nothing is active or predicted.
        self.active_cells = self.winner_cells = self.predictive_cells = _EMPTY_INDEX
        self.active_segments = self.matching_segments = _EMPTY_INDEX

    # --- stepping ---------------------------------------------------------

    def compute(self, active_columns: np.ndarray, learn: bool) -> tuple[float, int]:
        """One step over a 1-D bool array; the anomaly score and predictive column count."""
        p = self.params
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
        best = fresh = _EMPTY_INDEX
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
        return float(anomaly), int(np.unique(self.predictive_cells // cpc).size)

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
        chosen = [_EMPTY_INDEX]
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
        old = [getattr(self, name) for name in _MEMORY_STORE]
        self._new_store(capacity)
        for name, arr in zip(_MEMORY_STORE, old):
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
            **{name: getattr(self, name) for name in ("active_cells", "winner_cells")},
        }


def loop_object(velocity=(0, 3), start=(15, 0), shape=(6, 6)):
    return ObjectTrack(shape=shape, path=LinearLoop(start=start, velocity=velocity))


def loop_scenario(frame_count, frame_size=(36, 36), seed=11, **kwargs):
    return Scenario(
        frame_size=frame_size,
        frame_count=frame_count,
        objects=(loop_object(),),
        seed=seed,
        **kwargs,
    )


@pytest.fixture(scope="session")
def small_grid_config():
    return build_grid_config((36, 36), (12, 12), seed=3, multistep_n=2)


@pytest.fixture(scope="session")
def warmed_loop_model(small_grid_config):
    """Model trained for 20 loop cycles plus the frames it saw; reused read-only."""
    period = 36 - 6 + 1
    frames = generate(loop_scenario(period * 20 + 200))
    model = GridModel(small_grid_config)
    for planes in frames[: period * 20]:
        model.step(planes)
    return model.to_bytes(), frames, period
