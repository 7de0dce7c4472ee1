"""Online-learning spatial pooler, stepped for a group of grid cells at once.

Maps each cell's input bits onto a fixed number of columns through
permanence-weighted synapses and global k-winner inhibition, as in Cui,
Ahmad & Hawkins 2017, "The HTM Spatial Pooler".  A pooler has no topology or
local inhibition, so the cells of a grid whose parameters differ only in
``seed`` are one group, and one ``compute`` call steps them all; cells still
share no state.  Cell ``i`` owns row ``i`` of the group's ``pools`` and
``permanences``, which a snapshot stores as they are; pools are kept in the
narrowest dtype that holds an input bit.  The group derives one more array
from them: each cell's connected synapses as a 0/1 ``uint16`` mask with a row
of columns per input bit, padded to a multiple of 4 columns.  An overlap sums
the rows of the active bits only, four 16-bit lanes to a ``uint64`` word, which
is exact while a pool holds fewer than 2**16 bits.  Learning rewrites the mask
entries whose permanence crossed the threshold.
Winner selection is fully deterministic: ties are broken by ascending column
index, and all randomness comes from each cell's seed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (MAX_COUNT, ContractError, Validated, check_bits, check_units, checked,
                     loaded, out_of_range)

__all__ = ["SpParams", "SpatialPooler"]

_DUTY_WINDOW = 1000  # duty cycle averaging horizon when boosting is enabled
_WORD_LANES = 4  # 16-bit overlap lanes in each uint64 word that an overlap sum adds


@dataclass(frozen=True)
class SpParams(Validated):
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
        if self.active_columns > self.column_count:
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
        # The pool size is only computed from a width and a fraction in range.
        sized = 0 < self.input_width <= MAX_COUNT and 0.0 < self.potential_fraction <= 1.0
        if self.boost_strength < 0.0:
            out.append(f"sp boost_strength must be >= 0, got {self.boost_strength}")
        elif sized and self.boost_strength > self.max_boost_strength:
            out.append(
                f"sp boost_strength must be at most {self.max_boost_strength} for a pool of "
                f"{self.pool_size} bits, got {self.boost_strength}: a larger boost overflows "
                "pool_size * exp(boost_strength)"
            )
        if sized and self.pool_size >= 2**16:
            out.append(f"sp pool_size (potential_fraction x input_width) must be below 65536, "
                       f"got {self.pool_size}: an overlap is summed in 16 bits")
        if self.seed < 0:
            out.append("sp seed must be non-negative")
        return out + out_of_range("sp", self, ("stimulus_threshold",))

    @property
    def group_key(self) -> tuple:
        """Every parameter but the seed: cells equal in it pool as one group."""
        return tuple(value for name, value in vars(self).items() if name != "seed")

    @property
    def pool_size(self) -> int:
        """Input bits in each column's pool."""
        return max(1, int(round(self.potential_fraction * self.input_width)))

    @property
    def max_boost_strength(self) -> float:
        """The largest boost, to two decimals, for which ``pool_size * exp(boost)`` is finite.

        A column's ranking is at most its overlap, ``pool_size``, times
        ``exp(boost_strength)``; below the limit it cannot overflow.
        """
        return math.floor(100 * math.log(sys.float_info.max / self.pool_size)) / 100


class SpatialPooler:
    """The poolers of cells whose ``SpParams`` differ only in ``seed``, stepped as one.

    Cell ``i`` has ``params[i]`` and row ``i`` of ``pools``, ``permanences``,
    ``duty_cycles`` and ``step_counts``; ``unit_state(i)`` reads them
    together.  A single writer; distinct groups may run in parallel.
    """

    # The arrays a snapshot holds, as ``state_dict`` gives them.
    ARRAYS = ("pools", "permanences", "duty_cycles", "step_counts")

    def __init__(self, params: Sequence[SpParams], state: dict | None = None):
        """A fresh group, or one restored from checked copies of ``state``, a group's ``ARRAYS``.

        ``SnapshotError`` names the unit whose entries do not fit, if one does.
        """
        if not params or len({p.group_key for p in params}) != 1:
            raise ContractError("a pooler group needs cells whose parameters differ only in seed")
        for p in params:
            p.validate()
        p = params[0]
        self.params = tuple(params)
        shape = (len(params), p.column_count, p.pool_size)
        pool_dtype = np.min_scalar_type(p.input_width - 1)
        if state is None:
            self.pools = np.empty(shape, dtype=pool_dtype)
            self.permanences = np.empty(shape, dtype=np.float64)
            for i, cell in enumerate(params):
                rng = np.random.default_rng(cell.seed)
                # One random subset of input bits per column, drawn without replacement.
                order = np.argsort(rng.random((p.column_count, p.input_width)), axis=1)
                self.pools[i] = np.sort(order[:, : p.pool_size], axis=1)
                low, high = p.connected_threshold - 0.1, p.connected_threshold + 0.1
                self.permanences[i] = np.clip(rng.uniform(low, high, size=shape[1:]), 0.0, 1.0)
            self.duty_cycles = np.zeros(shape[:2], dtype=np.float64)
            self.step_counts = np.zeros(len(params), dtype=np.int64)
        else:
            pools = checked(state["pools"], shape, pool_dtype, "sp pools")
            for name, dtype, size in (("permanences", np.float64, 3),
                                      ("duty_cycles", np.float64, 2), ("step_counts", np.int64, 1)):
                setattr(self, name, loaded(state[name], shape[:size], dtype,
                                           f"sp {name.replace('_', ' ')}"))
            # Checked as stored, then narrowed: a cast before the range check could wrap.
            width = p.input_width
            ordered = np.all(pools[..., 1:] > pools[..., :-1], axis=2)
            check_units(~ordered | (pools[..., 0] < 0) | (pools[..., -1] >= width),
                        f"sp pool rows must be strictly increasing integers in [0, {width})")
            self.pools = pools.astype(pool_dtype)
            for name in ("permanences", "duty_cycles"):  # NaN lies outside [0, 1] too
                values = getattr(self, name)
                check_units(~((values >= 0.0) & (values <= 1.0)),
                            f"sp {name.replace('_', ' ')} must lie in [0, 1]")
            check_units(self.step_counts < 0, "sp step count must be non-negative")
        # Entry (i, bit, column) is 1 where cell i's column has a connected synapse on bit.
        # Pools are widened before the product, which their own dtype could wrap.  The
        # entries are scattered as bool, which numpy writes faster than a bool-to-uint16
        # cast, and widened to 16-bit lanes in one pass.
        lanes = -(-p.column_count // _WORD_LANES) * _WORD_LANES  # 16-bit lanes per bit
        connected = np.zeros((len(params), p.input_width, lanes), dtype=bool)
        columns = np.arange(p.column_count)[:, None]
        for mask, pools, perm in zip(connected, self.pools, self.permanences):
            mask.reshape(-1)[columns + lanes * pools.astype(np.intp)] = (
                perm >= p.connected_threshold)
        self.connected = connected.astype(np.uint16)

    def overlaps(self, bits: np.ndarray) -> np.ndarray:
        """Each cell's connected synapses on active bits, as int32 ``(cells, column_count)``.

        ``bits`` is as ``compute`` takes it.  Each cell sums the mask rows of its
        active bits as uint64 words of four 16-bit lanes, which cannot carry
        while a column pools fewer than 2**16 bits.
        """
        p = self.params[0]
        check_bits(bits, (len(self.params), p.input_width), "sp input")
        words = self.connected.reshape(-1, self.connected.shape[2]).view(np.uint64)
        counts = np.count_nonzero(bits, axis=1)
        # One more row, zeroed, after the last active bit's, so every cell's first row exists.
        rows = words[np.append(np.flatnonzero(bits), 0)]
        rows[-1] = 0
        sums = np.add.reduceat(rows, np.concatenate(([0], counts[:-1].cumsum())), axis=0)
        sums[counts == 0] = 0  # reduceat gives a cell with no active bit the next row
        return sums.view(np.uint16)[:, : p.column_count].astype(np.int32)

    def compute(self, bits: np.ndarray, learn: bool) -> np.ndarray:
        """Pool a bool array of ``(cells, input_width)``; others raise ``ContractError``.

        Returns a bool array of ``(cells, column_count)`` with each cell's
        winners set.  Permanences change only when ``learn`` is true.
        """
        p = self.params[0]
        overlaps = self.overlaps(bits)
        ranking = overlaps
        if p.boosting_enabled:
            target = p.active_columns / p.column_count
            factors = np.exp(p.boost_strength * (target - self.duty_cycles) / target)
            ranking = overlaps * factors
        # Per cell, the eligible columns of the k highest rankings win, ties going to
        # the lowest columns: every key below the k-th smallest, then equal ones in order.
        eligible = overlaps >= p.stimulus_threshold
        key = np.where(eligible, -ranking, np.inf)
        k = p.active_columns
        kth = np.partition(key, k - 1, axis=1)[:, k - 1 : k]
        below, ties = key < kth, key == kth
        room = k - np.count_nonzero(below, axis=1, keepdims=True)
        active = eligible & (below | (ties & (np.cumsum(ties, axis=1) <= room)))

        if learn:
            rows = np.flatnonzero(active)  # cell * column_count + winner
            cells, winners = np.divmod(rows, p.column_count)
            pools = self.pools.reshape(-1, p.pool_size)[rows]
            permanences = self.permanences.reshape(-1, p.pool_size)
            before = permanences[rows]
            # A synapse on an active bit gains the increment; every other one loses the decrement.
            after = before - p.permanence_decrement
            np.add(before, p.permanence_increment, out=after,
                   where=bits.reshape(-1)[cells[:, None] * p.input_width + pools])
            permanences[rows] = np.clip(after, 0.0, 1.0, out=after)
            # A mask entry flips where its permanence crossed the threshold.
            crossed = (after >= p.connected_threshold) != (before >= p.connected_threshold)
            changed, slots = np.divmod(np.flatnonzero(crossed), p.pool_size)
            self.connected[cells[changed], pools[changed, slots], winners[changed]] ^= 1
            if p.boosting_enabled:
                horizon = np.minimum(self.step_counts + 1, _DUTY_WINDOW)
                self.duty_cycles += (active - self.duty_cycles) / horizon[:, None]
            self.step_counts += 1
        return active

    # --- serialization ---------------------------------------------------

    def state_dict(self) -> dict:
        """The group's ``ARRAYS``, which learning mutates; the parameters are the caller's."""
        return {name: getattr(self, name) for name in self.ARRAYS}

    def unit_state(self, i: int) -> dict:
        """Cell ``i``'s learned state; its arrays are the group's rows, which learning mutates."""
        return {"pools": self.pools[i], "permanences": self.permanences[i],
                "step_count": int(self.step_counts[i]), "duty_cycles": self.duty_cycles[i]}
