"""Reductions from a grid of per-cell anomaly scores to one stream score.

Two aggregation functions are provided.  The plain mean dilutes localized
anomalies across every cell, including the zero-score ones; the non-zero
mean averages only the cells that currently report anything, so its scale
does not depend on how much of the frame is quiet.  The trade-off is noise:
with noisy input there is almost always some positive cell, which keeps the
non-zero mean elevated.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import ConfigError, ContractError

__all__ = [
    "AggregationKind",
    "aggregate",
    "aggregate_mean",
    "aggregate_nonzero_mean",
]


class AggregationKind(Enum):
    MEAN = "mean"
    NONZERO_MEAN = "nonzero_mean"


def aggregate_mean(scores) -> float:
    """Arithmetic mean over all cells, zeros included."""
    arr = np.asarray(scores, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise ContractError("cannot aggregate an empty score collection")
    return float(np.mean(arr))


def aggregate_nonzero_mean(scores) -> float:
    """Mean over the strictly positive cells; 0 when no cell is positive."""
    arr = np.asarray(scores, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise ContractError("cannot aggregate an empty score collection")
    positive = arr[arr > 0.0]
    if positive.size == 0:
        return 0.0
    return float(np.mean(positive))


def aggregate(kind: AggregationKind, scores) -> float:
    if kind is AggregationKind.MEAN:
        return aggregate_mean(scores)
    if kind is AggregationKind.NONZERO_MEAN:
        return aggregate_nonzero_mean(scores)
    raise ConfigError(f"unknown aggregation kind: {kind!r}")
