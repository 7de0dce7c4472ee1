"""Fixed-width sparse binary vectors and the primitive operations on them.

Every stage of the pipeline exchanges data as immutable ``Sdr`` values.
Contracts are stated on the set of active bit indices; the dense form is
only materialized where a computation needs it.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

__all__ = ["Sdr", "overlap", "concatenate"]


class Sdr:
    """Immutable binary vector: a width plus a sorted array of active indices."""

    __slots__ = ("width", "active")

    def __init__(self, width: int, active=()) -> None:
        width = int(width)
        if width <= 0:
            raise ContractError(f"sdr width must be positive, got {width}")
        arr = np.asarray(active, dtype=np.int64).reshape(-1)
        arr = np.sort(arr)
        if arr.size:
            if arr[0] < 0 or arr[-1] >= width:
                raise ContractError(
                    f"active index out of range [0, {width}): {arr[0]}..{arr[-1]}"
                )
            if np.any(np.diff(arr) == 0):
                raise ContractError("active indices must be unique")
        arr.setflags(write=False)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "active", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Sdr is immutable")

    @property
    def active_count(self) -> int:
        return int(self.active.size)

    def sparsity(self) -> float:
        return self.active.size / self.width

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.width, dtype=bool)
        dense[self.active] = True
        return dense

    @classmethod
    def from_dense(cls, dense) -> "Sdr":
        dense = np.asarray(dense).reshape(-1)
        return cls(dense.size, np.flatnonzero(dense))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sdr):
            return NotImplemented
        return self.width == other.width and np.array_equal(self.active, other.active)

    def __hash__(self) -> int:
        return hash((self.width, self.active.tobytes()))

    def __repr__(self) -> str:
        shown = self.active.tolist() if self.active.size <= 12 else (
            self.active[:12].tolist() + ["..."]
        )
        return f"Sdr(width={self.width}, active={shown})"


def overlap(a: Sdr, b: Sdr) -> int:
    """Number of active bits shared by two equal-width SDRs."""
    if a.width != b.width:
        raise ContractError(f"width mismatch: {a.width} != {b.width}")
    return int(np.intersect1d(a.active, b.active, assume_unique=True).size)


def concatenate(parts) -> Sdr:
    """Join SDRs end to end; indices of part k are offset by the widths before it."""
    parts = list(parts)
    if not parts:
        raise ContractError("cannot concatenate an empty sequence of SDRs")
    total = 0
    chunks = []
    for part in parts:
        if part.active.size:
            chunks.append(part.active + total)
        total += part.width
    active = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return Sdr(total, active)

