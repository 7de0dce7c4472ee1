"""Online-learning spatial pooler.

Maps a cell's input bits onto a fixed number of columns through
permanence-weighted synapses and global k-winner inhibition.  One instance
serves one grid cell, so the pooler stays small and needs no topology or
local inhibition.  Winner selection is fully deterministic: ties are broken
by ascending column index, and all randomness comes from the configured seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, check_bits, non_finite

__all__ = ["SpParams", "SpatialPooler"]

_DUTY_WINDOW = 1000  # duty cycle averaging horizon when boosting is enabled


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

    def validate(self) -> None:
        problems = self.problems()
        if problems:
            raise ConfigError("; ".join(problems))


class SpatialPooler:
    """Single-writer pooler; distinct instances may run in parallel."""

    def __init__(self, params: SpParams):
        params.validate()
        self.params = params
        pool_size = int(round(params.potential_fraction * params.input_width))
        pool_size = max(1, pool_size)
        rng = np.random.default_rng(params.seed)
        # One random subset of input bits per column, drawn without replacement.
        order = np.argsort(
            rng.random((params.column_count, params.input_width)), axis=1
        )
        self.pools = np.sort(order[:, :pool_size], axis=1).astype(np.int64)
        band = 0.1
        low = params.connected_threshold - band
        high = params.connected_threshold + band
        self.permanences = np.clip(
            rng.uniform(low, high, size=self.pools.shape), 0.0, 1.0
        )
        self.step_count = 0
        self.duty_cycles = np.zeros(params.column_count, dtype=np.float64)

    @property
    def pool_size(self) -> int:
        return self.pools.shape[1]

    def compute(self, bits: np.ndarray, learn: bool) -> np.ndarray:
        """Pool a 1-D bool array of ``input_width`` bits; others raise ``ContractError``.

        Returns a bool array of ``column_count`` with the winners set.
        Permanences change only when ``learn`` is true.
        """
        p = self.params
        check_bits(bits, p.input_width, "sp input")
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
                horizon = min(self.step_count + 1, _DUTY_WINDOW)
                self.duty_cycles += (active - self.duty_cycles) / horizon
            self.step_count += 1
        return active

    # --- serialization ---------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "params": asdict(self.params),
            "pools": self.pools,
            "permanences": self.permanences,
            "step_count": self.step_count,
            "duty_cycles": self.duty_cycles,
        }

    def load_state_dict(self, state: dict) -> None:
        # Copy what learning mutates; pools never change.  Copies of asarray
        # views keep numpy's own dtype objects, which snapshot bytes share.
        self.params = SpParams(**state["params"])
        self.pools = np.asarray(state["pools"], dtype=np.int64)
        self.permanences = np.asarray(state["permanences"], dtype=np.float64).copy()
        self.step_count = int(state["step_count"])
        self.duty_cycles = np.asarray(state["duty_cycles"], dtype=np.float64).copy()
