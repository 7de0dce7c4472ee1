"""Sequence memory over column activations.

Cells within a column encode the temporal context in which the column
became active; dendritic segments vote for the cells expected next.  The
per-step anomaly score is the fraction of active columns that nobody
predicted.  Learning is Hebbian on segment permanences with a mild
punishment for failed predictions, so new sequences are picked up quickly
while old ones decay slowly.

All tie-breaking is deterministic (ascending ids) and all sampling comes
from the seeded generator, so identical inputs replay to identical state.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .sdr import Sdr

__all__ = ["TmParams", "TmStepResult", "TemporalMemory"]

_EMPTY = np.empty(0, dtype=np.int64)


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


class _Segment:
    __slots__ = ("cell", "presyn", "perm", "last_reinforced", "last_used")

    def __init__(self, cell: int, step: int):
        self.cell = cell
        self.presyn = _EMPTY
        self.perm = np.empty(0, dtype=np.float64)
        self.last_reinforced = _EMPTY
        self.last_used = step


class TemporalMemory:
    """Single-writer sequence learner; one instance per grid cell."""

    def __init__(self, params: TmParams):
        params.validate()
        self.params = params
        self.total_cells = params.column_count * params.cells_per_column
        self.segments: dict[int, _Segment] = {}
        self.cell_segments: dict[int, list[int]] = {}
        self.next_segment_id = 0
        self.rng = np.random.default_rng(params.seed)
        self.step_count = 0
        self.active_cells = _EMPTY
        self.winner_cells = _EMPTY
        self.predictive_cells = _EMPTY
        self.active_segments = _EMPTY
        self.matching_segments = _EMPTY
        self.potential_counts: dict[int, int] = {}

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
        if self.predictive_cells.size:
            predicted_lut[self.predictive_cells // cpc] = True
        active_col_lut = np.zeros(p.column_count, dtype=bool)
        active_col_lut[active_cols] = True
        col_predicted = predicted_lut[active_cols] if active_cols.size else np.empty(
            0, dtype=bool
        )
        bursting_cols = active_cols[~col_predicted]

        anomaly = bursting_cols.size / active_cols.size if active_cols.size else 0.0

        if self.predictive_cells.size and active_cols.size:
            correct_predicted = self.predictive_cells[
                active_col_lut[self.predictive_cells // cpc]
            ]
        else:
            correct_predicted = _EMPTY

        prev_active_lut = np.zeros(self.total_cells, dtype=bool)
        prev_active_lut[self.active_cells] = True
        prev_winners = self.winner_cells

        # Segments that fired last step, grouped by the owner's column.  The
        # ones in active columns get reinforced; the rest mispredicted and
        # get punished below.
        active_segs_by_col: dict[int, list[int]] = {}
        for sid in self.active_segments.tolist():
            seg = self.segments.get(sid)
            if seg is not None:
                active_segs_by_col.setdefault(seg.cell // cpc, []).append(sid)
        matching_by_col: dict[int, list[int]] = {}
        for sid in self.matching_segments.tolist():
            seg = self.segments.get(sid)
            if seg is not None:
                matching_by_col.setdefault(seg.cell // cpc, []).append(sid)

        burst_winners: list[int] = []
        for col in active_cols.tolist():
            if predicted_lut[col]:
                if learn:
                    for sid in active_segs_by_col.get(col, ()):
                        seg = self.segments.get(sid)
                        if seg is None:
                            continue
                        if self._adapt(sid, seg, prev_active_lut):
                            grow = p.new_synapse_count - self.potential_counts.get(
                                sid, 0
                            )
                            self._grow(seg, prev_winners, grow)
                continue
            # Bursting column: the best matching segment names the winner,
            # otherwise the least used cell starts a fresh segment.
            best_sid = None
            best_pot = -1
            for sid in matching_by_col.get(col, ()):
                pot = self.potential_counts.get(sid, 0)
                if pot > best_pot:
                    best_pot = pot
                    best_sid = sid
            if best_sid is not None:
                seg = self.segments[best_sid]
                burst_winners.append(seg.cell)
                if learn and self._adapt(best_sid, seg, prev_active_lut):
                    self._grow(seg, prev_winners, p.new_synapse_count - best_pot)
            else:
                winner = self._least_used_cell(col)
                burst_winners.append(winner)
                if learn and prev_winners.size:
                    seg = self._create_segment(winner)
                    self._grow(seg, prev_winners, p.new_synapse_count)

        if learn and p.predicted_decrement > 0.0:
            for col, sids in active_segs_by_col.items():
                if active_col_lut[col]:
                    continue
                for sid in sids:
                    seg = self.segments.get(sid)
                    if seg is not None:
                        self._punish(sid, seg, prev_active_lut)

        if bursting_cols.size:
            burst_cells = (
                bursting_cols[:, None] * cpc + np.arange(cpc, dtype=np.int64)
            ).reshape(-1)
        else:
            burst_cells = _EMPTY
        self.active_cells = np.sort(np.concatenate([correct_predicted, burst_cells]))
        self.winner_cells = np.sort(
            np.concatenate(
                [correct_predicted, np.asarray(burst_winners, dtype=np.int64)]
            )
        )

        predictive = self._recompute_segment_activity()
        self.step_count += 1
        if predictive.size:
            predictive_column_count = int(np.unique(predictive // cpc).size)
        else:
            predictive_column_count = 0
        return TmStepResult(
            anomaly_score=float(anomaly),
            predictive_column_count=predictive_column_count,
            active_column_count=int(active_cols.size),
        )

    def reset(self) -> None:
        """Clear carried step state; learned segments are kept."""
        self.active_cells = _EMPTY
        self.winner_cells = _EMPTY
        self.predictive_cells = _EMPTY
        self.active_segments = _EMPTY
        self.matching_segments = _EMPTY
        self.potential_counts = {}

    # --- learning helpers ---------------------------------------------------

    def _adapt(self, sid: int, seg: _Segment, prev_active_lut: np.ndarray) -> bool:
        p = self.params
        active = prev_active_lut[seg.presyn]
        perm = seg.perm + np.where(
            active, p.permanence_increment, -p.permanence_decrement
        )
        seg.last_reinforced = np.where(active, self.step_count, seg.last_reinforced)
        seg.last_used = self.step_count
        return self._apply_perm(sid, seg, perm)

    def _punish(self, sid: int, seg: _Segment, prev_active_lut: np.ndarray) -> bool:
        active = prev_active_lut[seg.presyn]
        perm = seg.perm - np.where(active, self.params.predicted_decrement, 0.0)
        return self._apply_perm(sid, seg, perm)

    def _apply_perm(self, sid: int, seg: _Segment, perm: np.ndarray) -> bool:
        keep = perm > 0.0
        if keep.all():
            seg.perm = np.minimum(perm, 1.0)
            return True
        seg.presyn = seg.presyn[keep]
        seg.perm = np.minimum(perm[keep], 1.0)
        seg.last_reinforced = seg.last_reinforced[keep]
        if seg.presyn.size == 0:
            self._destroy_segment(sid, seg)
            return False
        return True

    def _grow(self, seg: _Segment, candidates: np.ndarray, want: int) -> None:
        if want <= 0 or candidates.size == 0:
            return
        avail = candidates[~np.isin(candidates, seg.presyn)]
        if avail.size == 0:
            return
        p = self.params
        k = min(want, int(avail.size), p.max_synapses_per_segment)
        if k <= 0:
            return
        if k < avail.size:
            chosen = np.sort(self.rng.choice(avail, size=k, replace=False))
        else:
            chosen = avail
        over = seg.presyn.size + k - p.max_synapses_per_segment
        if over > 0:
            # Evict the least recently reinforced synapses to make room.
            order = np.lexsort((np.arange(seg.presyn.size), seg.last_reinforced))
            keep = np.ones(seg.presyn.size, dtype=bool)
            keep[order[:over]] = False
            seg.presyn = seg.presyn[keep]
            seg.perm = seg.perm[keep]
            seg.last_reinforced = seg.last_reinforced[keep]
        seg.presyn = np.concatenate([seg.presyn, chosen])
        seg.perm = np.concatenate(
            [seg.perm, np.full(chosen.size, p.initial_permanence)]
        )
        seg.last_reinforced = np.concatenate(
            [seg.last_reinforced, np.full(chosen.size, self.step_count, dtype=np.int64)]
        )
        seg.last_used = self.step_count

    def _least_used_cell(self, col: int) -> int:
        cpc = self.params.cells_per_column
        base = col * cpc
        best_cell = base
        best_count = len(self.cell_segments.get(base, ()))
        for cell in range(base + 1, base + cpc):
            count = len(self.cell_segments.get(cell, ()))
            if count < best_count:
                best_count = count
                best_cell = cell
        return best_cell

    def _create_segment(self, cell: int) -> _Segment:
        ids = self.cell_segments.setdefault(cell, [])
        if len(ids) >= self.params.max_segments_per_cell:
            evict = min(ids, key=lambda sid: (self.segments[sid].last_used, sid))
            self._destroy_segment(evict, self.segments[evict])
        sid = self.next_segment_id
        self.next_segment_id += 1
        seg = _Segment(cell, self.step_count)
        self.segments[sid] = seg
        ids.append(sid)
        return seg

    def _destroy_segment(self, sid: int, seg: _Segment) -> None:
        self.segments.pop(sid, None)
        ids = self.cell_segments.get(seg.cell)
        if ids and sid in ids:
            ids.remove(sid)

    # --- activation ---------------------------------------------------------

    def _recompute_segment_activity(self) -> np.ndarray:
        p = self.params
        n_seg = len(self.segments)
        if n_seg == 0:
            self.active_segments = _EMPTY
            self.matching_segments = _EMPTY
            self.potential_counts = {}
            self.predictive_cells = _EMPTY
            return _EMPTY
        seg_ids = np.fromiter(self.segments.keys(), dtype=np.int64, count=n_seg)
        owners = np.fromiter(
            (s.cell for s in self.segments.values()), dtype=np.int64, count=n_seg
        )
        counts = np.fromiter(
            (s.presyn.size for s in self.segments.values()),
            dtype=np.int64,
            count=n_seg,
        )
        total_syn = int(counts.sum())
        if total_syn == 0:
            self.active_segments = _EMPTY
            self.matching_segments = _EMPTY
            self.potential_counts = {}
            self.predictive_cells = _EMPTY
            return _EMPTY
        flat_presyn = np.concatenate([s.presyn for s in self.segments.values()])
        flat_perm = np.concatenate([s.perm for s in self.segments.values()])
        flat_seg = np.repeat(np.arange(n_seg), counts)
        active_lut = np.zeros(self.total_cells, dtype=bool)
        active_lut[self.active_cells] = True
        hit = active_lut[flat_presyn]
        connected = flat_perm >= p.connected_threshold
        act_counts = np.bincount(flat_seg[hit & connected], minlength=n_seg)
        pot_counts = np.bincount(flat_seg[hit], minlength=n_seg)
        active_mask = act_counts >= p.activation_threshold
        matching_mask = pot_counts >= p.min_threshold
        self.active_segments = seg_ids[active_mask]
        self.matching_segments = seg_ids[matching_mask]
        nonzero = pot_counts > 0
        self.potential_counts = {
            int(sid): int(cnt)
            for sid, cnt in zip(seg_ids[nonzero], pot_counts[nonzero])
        }
        self.predictive_cells = np.unique(owners[active_mask])
        return self.predictive_cells

    # --- serialization --------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "params": asdict(self.params),
            "segments": [
                {
                    "id": sid,
                    "cell": seg.cell,
                    "presyn": seg.presyn,
                    "perm": seg.perm,
                    "last_reinforced": seg.last_reinforced,
                    "last_used": seg.last_used,
                }
                for sid, seg in self.segments.items()
            ],
            "next_segment_id": self.next_segment_id,
            "rng_state": self.rng.bit_generator.state,
            "step_count": self.step_count,
            "active_cells": self.active_cells,
            "winner_cells": self.winner_cells,
            "predictive_cells": self.predictive_cells,
            "active_segments": self.active_segments,
            "matching_segments": self.matching_segments,
            "potential_counts": dict(self.potential_counts),
        }

    def load_state_dict(self, state: dict) -> None:
        self.params = TmParams(**state["params"])
        self.total_cells = self.params.column_count * self.params.cells_per_column
        self.segments = {}
        self.cell_segments = {}
        for rec in sorted(state["segments"], key=lambda r: r["id"]):
            seg = _Segment(int(rec["cell"]), int(rec["last_used"]))
            seg.presyn = np.asarray(rec["presyn"], dtype=np.int64)
            seg.perm = np.asarray(rec["perm"], dtype=np.float64)
            seg.last_reinforced = np.asarray(rec["last_reinforced"], dtype=np.int64)
            self.segments[int(rec["id"])] = seg
            self.cell_segments.setdefault(seg.cell, []).append(int(rec["id"]))
        self.next_segment_id = int(state["next_segment_id"])
        self.rng = np.random.default_rng(0)
        self.rng.bit_generator.state = state["rng_state"]
        self.step_count = int(state["step_count"])
        self.active_cells = np.asarray(state["active_cells"], dtype=np.int64)
        self.winner_cells = np.asarray(state["winner_cells"], dtype=np.int64)
        self.predictive_cells = np.asarray(state["predictive_cells"], dtype=np.int64)
        self.active_segments = np.asarray(state["active_segments"], dtype=np.int64)
        self.matching_segments = np.asarray(state["matching_segments"], dtype=np.int64)
        self.potential_counts = {
            int(k): int(v) for k, v in state["potential_counts"].items()
        }
