"""Online-learning spatial pooler, stepped for a group of grid cells at once.

Maps each cell's input bits onto a fixed number of columns through
permanence-weighted synapses and global k-winner inhibition, as in Cui,
Ahmad & Hawkins 2017, "The HTM Spatial Pooler".  A pooler has no topology or
local inhibition, so the cells of a grid whose parameters differ only in
``seed`` are one group, and one ``compute`` call steps them all; cells still
share no state.  Each cell keeps its own ``pools`` and ``permanences``.  The
group derives one more array from them: each cell's connected synapses
packed as bits over its input, so an overlap is a popcount of that mask and
the packed input.  Learning rewrites the mask rows of the columns it changes.
Winner selection is fully deterministic: ties are broken by ascending column
index, and all randomness comes from each cell's seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (ConfigError, ContractError, SnapshotError, check_bits, check_fractions,
                     check_indices, non_finite)

__all__ = ["SpParams", "SpatialPooler", "PoolerCell"]

_DUTY_WINDOW = 1000  # duty cycle averaging horizon when boosting is enabled
# Set bits of every byte value; numpy 1 has no bitwise_count.
_POPCOUNT = np.array([bin(value).count("1") for value in range(256)], dtype=np.uint8)


@dataclass(frozen=True)
class SpParams:
    input_width: int
    column_count: int
    active_columns: int
    potential_fraction: float = 0.85
    connected_threshold: float = 0.2
    permanence_increment: float = 0.05
    permanence_decrement: float = 0.008
    stimulus_threshold: int = 1
    boosting_enabled: bool = False
    boost_strength: float = 2.0
    seed: int = 0

    def problems(self) -> list[str]:
        out = []
        if self.input_width <= 0:
            out.append(f"sp input_width must be positive, got {self.input_width}")
        if self.column_count <= 0:
            out.append(f"sp column_count must be positive, got {self.column_count}")
        if self.active_columns <= 0:
            out.append(f"sp active_columns must be positive, got {self.active_columns}")
        elif self.active_columns > self.column_count:
            out.append(
                f"sp active_columns ({self.active_columns}) exceeds "
                f"column_count ({self.column_count})"
            )
        if not 0.0 < self.potential_fraction <= 1.0:
            out.append(
                f"sp potential_fraction must be in (0, 1], got {self.potential_fraction}"
            )
        if not 0.0 < self.connected_threshold < 1.0:
            out.append(
                f"sp connected_threshold must be in (0, 1), got {self.connected_threshold}"
            )
        if self.permanence_increment <= 0.0:
            out.append("sp permanence_increment must be > 0")
        if self.permanence_decrement < 0.0:
            out.append("sp permanence_decrement must be >= 0")
        if self.stimulus_threshold < 0:
            out.append("sp stimulus_threshold must be >= 0")
        if self.seed < 0:
            out.append("sp seed must be non-negative")
        return out + non_finite("sp", self)

    @property
    def group_key(self) -> tuple:
        """Every parameter but the seed: cells equal in it pool as one group."""
        return tuple(value for name, value in vars(self).items() if name != "seed")

    @property
    def pool_size(self) -> int:
        """Input bits in each column's pool."""
        return max(1, int(round(self.potential_fraction * self.input_width)))

    def validate(self) -> None:
        problems = self.problems()
        if problems:
            raise ConfigError("; ".join(problems))


class SpatialPooler:
    """The poolers of cells whose ``SpParams`` differ only in ``seed``, stepped as one.

    Cell ``i`` has ``params[i]``, ``pools[i]`` and ``permanences[i]``, row ``i``
    of ``duty_cycles`` and ``step_counts``, and ``cells[i]``, a view of all of
    them.  A single writer; distinct groups may run in parallel.
    """

    def __init__(self, params: Sequence[SpParams]):
        pools, permanences = [], []
        for p in params:
            p.validate()
            rng = np.random.default_rng(p.seed)
            # One random subset of input bits per column, drawn without replacement.
            order = np.argsort(rng.random((p.column_count, p.input_width)), axis=1)
            pools.append(np.sort(order[:, : p.pool_size], axis=1).astype(np.int64))
            band = 0.1
            low, high = p.connected_threshold - band, p.connected_threshold + band
            permanences.append(np.clip(rng.uniform(low, high, size=pools[-1].shape), 0.0, 1.0))
        self._assemble(params, pools, permanences)

    def _assemble(self, params, pools, permanences, step_counts=None, duty_cycles=None,
                  connected=None) -> None:
        """Take over the cells' arrays; fresh counters and the mask are made when not given."""
        if not params or len({p.group_key for p in params}) != 1:
            raise ContractError("a pooler group needs cells whose parameters differ only in seed")
        p = params[0]
        self.params = tuple(params)
        self.pools, self.permanences = list(pools), list(permanences)
        self.step_counts = (np.zeros(len(params), dtype=np.int64)
                            if step_counts is None else step_counts)
        self.duty_cycles = (np.zeros((len(params), p.column_count), dtype=np.float64)
                            if duty_cycles is None else duty_cycles)
        if connected is None:
            connected = np.stack([_packed_rows(pool, perm >= p.connected_threshold, p.input_width)
                                  for pool, perm in zip(pools, permanences)])
        self.connected = connected
        self.cells = tuple(PoolerCell(self, i) for i in range(len(params)))

    @classmethod
    def stack(cls, groups: Sequence["SpatialPooler"]) -> "SpatialPooler":
        """One group of the cells of ``groups``, in order.

        It takes over their pools and permanences, so ``groups`` must not step again.
        """
        group = cls.__new__(cls)
        group._assemble([p for g in groups for p in g.params],
                        [a for g in groups for a in g.pools],
                        [a for g in groups for a in g.permanences],
                        np.concatenate([g.step_counts for g in groups]),
                        np.concatenate([g.duty_cycles for g in groups]),
                        np.concatenate([g.connected for g in groups]))
        return group

    def compute(self, bits: np.ndarray, learn: bool) -> np.ndarray:
        """Pool a bool array of ``(cells, input_width)``; others raise ``ContractError``.

        Returns a bool array of ``(cells, column_count)`` with each cell's
        winners set.  Permanences change only when ``learn`` is true.
        """
        p = self.params[0]
        count = len(self.params)
        check_bits(bits, (count, p.input_width), "sp input")
        both = self.connected & np.packbits(bits, axis=1)[:, None, :]
        overlaps = np.take(_POPCOUNT, both).sum(axis=2, dtype=np.int32)

        ranking = overlaps
        if p.boosting_enabled:
            target = p.active_columns / p.column_count
            factors = np.exp(p.boost_strength * (target - self.duty_cycles) / target)
            ranking = overlaps * factors
        # Per cell: eligible columns first, then by descending ranking, then by index.
        eligible = overlaps >= p.stimulus_threshold
        top = np.lexsort((-ranking, ~eligible))[:, : p.active_columns]
        rows = np.arange(count)[:, None]
        active = np.zeros((count, p.column_count), dtype=bool)
        active[rows, top] = eligible[rows, top]

        if learn:
            for cell in np.flatnonzero(active.any(axis=1)):
                winners = np.flatnonzero(active[cell])
                pools, permanences = self.pools[cell][winners], self.permanences[cell]
                delta = np.where(bits[cell][pools], p.permanence_increment,
                                 -p.permanence_decrement)
                changed = np.clip(permanences[winners] + delta, 0.0, 1.0)
                permanences[winners] = changed
                self.connected[cell, winners] = _packed_rows(
                    pools, changed >= p.connected_threshold, p.input_width)
            if p.boosting_enabled:
                horizon = np.minimum(self.step_counts + 1, _DUTY_WINDOW)
                self.duty_cycles += (active - self.duty_cycles) / horizon[:, None]
            self.step_counts += 1
        return active

    # --- serialization ---------------------------------------------------

    def state_dict(self) -> list[dict]:
        """Each cell's learned state; the parameters are the caller's to keep."""
        return [cell.state_dict() for cell in self.cells]

    def load_state_dict(self, states: Sequence[dict], params: Sequence[SpParams]) -> None:
        """Restore cell ``i`` from ``states[i]`` under ``params[i]``.

        Raises ``SnapshotError``, before anything is assigned, if an array
        does not fit its parameters, a learned value lies outside [0, 1], or a
        step count is negative.
        """
        loaded = [_checked_state(state, p) for state, p in zip(states, params, strict=True)]
        pools, permanences, step_counts, duty_cycles = zip(*loaded)
        self._assemble(params, pools, permanences, np.array(step_counts, dtype=np.int64),
                       np.array(duty_cycles, dtype=np.float64))


class PoolerCell:
    """One cell of a group, read in place: the state a per-cell pooler would hold."""

    __slots__ = ("params", "pools", "permanences", "duty_cycles", "_steps")

    def __init__(self, group: SpatialPooler, index: int):
        self.params = group.params[index]
        self.pools, self.permanences = group.pools[index], group.permanences[index]
        self.duty_cycles = group.duty_cycles[index]
        self._steps = group.step_counts[index : index + 1]

    @property
    def step_count(self) -> int:
        return int(self._steps[0])

    def state_dict(self) -> dict:
        """The cell's learned state; the arrays are the group's, which learning mutates."""
        return {
            "pools": self.pools,
            "permanences": self.permanences,
            "step_count": self.step_count,
            "duty_cycles": self.duty_cycles,
        }


def _packed_rows(pools: np.ndarray, connected: np.ndarray, width: int) -> np.ndarray:
    """``connected`` scattered over ``width`` input bits at ``pools``, packed per row."""
    dense = np.zeros((len(pools), width), dtype=bool)
    offsets = np.arange(len(pools))[:, None] * width
    dense.ravel()[(pools + offsets).ravel()] = connected.ravel()
    return np.packbits(dense, axis=1)


def _checked_state(state: dict, params: SpParams) -> tuple:
    """(pools, permanences, step count, duty cycles) of one cell's ``state``, checked."""
    pools, step_count = np.asarray(state["pools"]), int(state["step_count"])
    shape = (params.column_count, params.pool_size)
    if pools.shape != shape:
        raise SnapshotError(f"sp pools must have shape {shape}, got {pools.shape}")
    check_indices(pools, params.input_width, "sp pool rows")
    permanences = np.asarray(state["permanences"], dtype=np.float64)
    duty_cycles = np.asarray(state["duty_cycles"], dtype=np.float64)
    if permanences.shape != shape or duty_cycles.shape != shape[:1]:
        raise SnapshotError("sp permanences and duty cycles must match the pools")
    if step_count < 0:
        raise SnapshotError("sp step count must be non-negative")
    check_fractions(permanences, "sp permanences")
    check_fractions(duty_cycles, "sp duty cycles")
    # Copy what learning mutates; pools never change.  Copies of asarray
    # views keep numpy's own dtype objects, which snapshot bytes share.
    return np.asarray(pools, dtype=np.int64), permanences.copy(), step_count, duty_cycles
