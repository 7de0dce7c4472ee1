"""Per-cell encoding of binary mask frames.

Each frame is a stack of class planes (one binary mask per object class).
The frame is cut into fixed-size cells; each cell's input is its class
windows laid end to end.  Two rules keep the per-cell sparsity usable
downstream:

* the cell size itself bounds how many bits can be active (soft upper
  bound), and
* windows with fewer active pixels than ``min_sparsity`` are replaced by a
  fixed randomly drawn "empty" pattern (hard lower bound), so an empty cell
  is a stable, recognizable symbol instead of an all-zero vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import MAX_COUNT, ContractError, Validated, out_of_range

__all__ = ["EncoderConfig", "encode_frame", "empty_pattern", "active_pixel_stats"]


@dataclass(frozen=True)
class EncoderConfig(Validated):
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
        elif (fr // cr) * (fc // cc) > MAX_COUNT:
            out.append(f"encoder grid must have at most {MAX_COUNT} cells, "
                       f"got {fr // cr}x{fc // cc}")
        if cr > 0 and cc > 0 and self.empty_pattern_sparsity > cr * cc:
            out.append(
                f"encoder empty_pattern_sparsity ({self.empty_pattern_sparsity}) "
                f"exceeds cell bit count ({cr * cc})"
            )
        if self.seed < 0:
            out.append("encoder seed must be non-negative")
        return out + out_of_range("encoder", self, ("min_sparsity", "empty_pattern_sparsity"))

    @property
    def grid_shape(self) -> tuple[int, int]:
        return (
            self.frame_size[0] // self.cell_size[0],
            self.frame_size[1] // self.cell_size[1],
        )

    @property
    def cell_bits(self) -> int:
        return self.cell_size[0] * self.cell_size[1]


@lru_cache(maxsize=128)
def _empty_windows(seed: int, class_count: int, bits: int, k: int) -> np.ndarray:
    """Each class's empty pattern as one dense row; read-only, shared by every frame."""
    out = np.zeros((class_count, bits), dtype=bool)
    for class_index in range(class_count):
        if k:
            rng = np.random.default_rng([seed, class_index])
            out[class_index, rng.choice(bits, size=k, replace=False)] = True
    out.setflags(write=False)
    return out


def empty_pattern(config: EncoderConfig, class_index: int) -> np.ndarray:
    """The fixed empty pattern row for one class; read-only, shared by every cell and frame."""
    bits = config.cell_bits
    k = min(config.empty_pattern_sparsity, bits)
    return _empty_windows(config.seed, class_index + 1, bits, k)[class_index]


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


def encode_frame(config: EncoderConfig, planes) -> tuple[np.ndarray, np.ndarray]:
    """Encode one frame into every cell's input bits.

    Returns ``(bits, empty)``.  ``bits[r, c]`` holds cell ``(r, c)``'s class
    windows end to end, each row-major, with the empty pattern in place of a
    window that has fewer than ``min_sparsity`` active pixels;
    ``empty[r, c, k]`` says whether window ``k`` was replaced.
    """
    config.validate()
    stacked = np.stack(check_planes(config, planes)) != 0
    classes = config.class_count
    (grows, gcols), (cr, cc) = config.grid_shape, config.cell_size
    windows = stacked.reshape(classes, grows, cr, gcols, cc).transpose(1, 3, 0, 2, 4)
    windows = windows.reshape(grows, gcols, classes, cr * cc)
    empty = np.count_nonzero(windows, axis=3) < config.min_sparsity
    patterns = _empty_windows(config.seed, classes, cr * cc, config.empty_pattern_sparsity)
    bits = np.where(empty[..., None], patterns, windows)
    return bits.reshape(grows, gcols, classes * cr * cc), empty


def active_pixel_stats(config: EncoderConfig, frames) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell mean and population std of the active bits ``encode_frame`` gives.

    Counts are summed over class planes, after empty-pattern substitution;
    both arrays have the grid's shape.  This is the measurement a user needs
    when tuning cell size and the empty-pattern sparsity.
    """
    counts = [np.count_nonzero(encode_frame(config, planes)[0], axis=2) for planes in frames]
    if not counts:
        raise ContractError("active_pixel_stats requires at least one frame")
    return np.mean(counts, axis=0), np.std(counts, axis=0)
