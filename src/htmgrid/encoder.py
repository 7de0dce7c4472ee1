"""Per-cell encoding of binary mask frames.

Each frame is a stack of class planes (one binary mask per object class).
The frame is cut into fixed-size cells; each cell window becomes one SDR
per class.  Two rules keep the per-cell sparsity usable downstream:

* the cell size itself bounds how many bits can be active (soft upper
  bound), and
* windows with fewer active pixels than ``min_sparsity`` are replaced by a
  fixed randomly drawn "empty" pattern (hard lower bound), so an empty cell
  is a stable, recognizable symbol instead of an all-zero vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ContractError
from .sdr import Sdr, from_bitmap_window

__all__ = ["EncoderConfig", "CellInput", "encode_frame", "empty_pattern", "active_pixel_stats"]


@dataclass(frozen=True)
class EncoderConfig:
    frame_size: tuple[int, int]
    cell_size: tuple[int, int] = (12, 12)
    class_count: int = 1
    min_sparsity: int = 5
    empty_pattern_sparsity: int = 5
    seed: int = 0

    def problems(self) -> list[str]:
        out = []
        fr, fc = self.frame_size
        cr, cc = self.cell_size
        if fr <= 0 or fc <= 0:
            out.append(f"encoder frame_size must be positive, got {self.frame_size}")
        if cr <= 0 or cc <= 0:
            out.append(f"encoder cell_size must be positive, got {self.cell_size}")
        elif fr > 0 and fc > 0 and (fr % cr or fc % cc):
            out.append(
                f"frame size {fr}x{fc} is not an exact multiple of cell size "
                f"{cr}x{cc}; pad the masks upstream"
            )
        if self.class_count <= 0:
            out.append("encoder class_count must be positive")
        if self.min_sparsity < 0:
            out.append("encoder min_sparsity must be >= 0")
        if self.empty_pattern_sparsity < 0:
            out.append("encoder empty_pattern_sparsity must be >= 0")
        elif cr > 0 and cc > 0 and self.empty_pattern_sparsity > cr * cc:
            out.append(
                f"encoder empty_pattern_sparsity ({self.empty_pattern_sparsity}) "
                f"exceeds cell bit count ({cr * cc})"
            )
        if self.seed < 0:
            out.append("encoder seed must be non-negative")
        return out

    def validate(self) -> None:
        problems = self.problems()
        if problems:
            raise ConfigError("; ".join(problems))

    @property
    def grid_shape(self) -> tuple[int, int]:
        return (
            self.frame_size[0] // self.cell_size[0],
            self.frame_size[1] // self.cell_size[1],
        )

    @property
    def cell_bits(self) -> int:
        return self.cell_size[0] * self.cell_size[1]


@dataclass
class CellInput:
    cell_coord: tuple[int, int]
    per_class: list[Sdr]
    was_empty: list[bool] = field(default_factory=list)


@lru_cache(maxsize=128)
def _empty_pattern_cached(seed: int, class_index: int, bits: int, k: int) -> Sdr:
    rng = np.random.default_rng([seed, class_index])
    active = np.sort(rng.choice(bits, size=k, replace=False)) if k else ()
    return Sdr(bits, active)


def empty_pattern(config: EncoderConfig, class_index: int) -> Sdr:
    """The fixed emptiness SDR for one class; shared by every cell and frame."""
    bits = config.cell_bits
    k = min(config.empty_pattern_sparsity, bits)
    return _empty_pattern_cached(config.seed, class_index, bits, k)


def check_planes(config: EncoderConfig, planes) -> list[np.ndarray]:
    """One frame's class planes as arrays; ContractError on a wrong count or size."""
    if len(planes) != config.class_count:
        raise ContractError(
            f"expected {config.class_count} class planes, got {len(planes)}"
        )
    out = []
    for idx, plane in enumerate(planes):
        arr = np.asarray(plane)
        if arr.shape != tuple(config.frame_size):
            raise ContractError(
                f"plane {idx} has shape {arr.shape}, expected {tuple(config.frame_size)}"
            )
        out.append(arr)
    return out


def encode_frame(config: EncoderConfig, planes) -> list[list[CellInput]]:
    """Encode one frame into a grid of per-cell, per-class SDRs."""
    config.validate()
    arrs = check_planes(config, planes)
    cr, cc = config.cell_size
    grows, gcols = config.grid_shape
    patterns = [empty_pattern(config, k) for k in range(config.class_count)]
    grid: list[list[CellInput]] = []
    for gr in range(grows):
        row = []
        for gc in range(gcols):
            per_class = []
            was_empty = []
            for k, arr in enumerate(arrs):
                window = arr[gr * cr : (gr + 1) * cr, gc * cc : (gc + 1) * cc]
                count = int(np.count_nonzero(window))
                if count < config.min_sparsity:
                    per_class.append(patterns[k])
                    was_empty.append(True)
                else:
                    per_class.append(
                        from_bitmap_window(arr, (gr * cr, gc * cc), (cr, cc))
                    )
                    was_empty.append(False)
            row.append(CellInput((gr, gc), per_class, was_empty))
        grid.append(row)
    return grid


def active_pixel_stats(config: EncoderConfig, frames, cell_coord) -> tuple[float, float]:
    """Mean and population std of post-substitution active counts for one cell.

    Counts are summed over class planes.  This is the measurement a user
    needs when tuning cell size and the empty-pattern sparsity.
    """
    config.validate()
    gr, gc = cell_coord
    grows, gcols = config.grid_shape
    if not (0 <= gr < grows and 0 <= gc < gcols):
        raise ContractError(f"cell {cell_coord} outside grid {grows}x{gcols}")
    cr, cc = config.cell_size
    counts = []
    for planes in frames:
        arrs = check_planes(config, planes)
        total = 0
        for arr in arrs:
            window = arr[gr * cr : (gr + 1) * cr, gc * cc : (gc + 1) * cc]
            count = int(np.count_nonzero(window))
            if count < config.min_sparsity:
                count = config.empty_pattern_sparsity
            total += count
        counts.append(total)
    if not counts:
        raise ContractError("active_pixel_stats requires at least one frame")
    arr = np.asarray(counts, dtype=np.float64)
    return float(np.mean(arr)), float(np.std(arr))
