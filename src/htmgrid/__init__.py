"""Grid-partitioned HTM anomaly detection for binary mask streams."""

from .aggregation import (
    AggregationKind,
    aggregate,
    aggregate_mean,
    aggregate_nonzero_mean,
)
from .encoder import EncoderConfig, active_pixel_stats, empty_pattern, encode_frame
from .errors import ConfigError, ContractError, SnapshotError
from .grid import (
    CellOverride,
    FrameResult,
    GridConfig,
    GridModel,
    build_grid_config,
    derive_cell_seeds,
)
from .scenario import (
    FrameRepeat,
    FrameSkip,
    LinearLoop,
    NoiseSpec,
    ObjectTrack,
    Scenario,
    Scripted,
    Stationary,
    emitted_frame_times,
    generate,
    object_position,
)
from .spatial_pooler import SpParams, SpatialPooler
from .temporal_memory import TemporalMemory, TmParams, TmStepResult

__version__ = "0.1.0"

__all__ = [
    "AggregationKind",
    "CellOverride",
    "ConfigError",
    "ContractError",
    "EncoderConfig",
    "FrameRepeat",
    "FrameResult",
    "FrameSkip",
    "GridConfig",
    "GridModel",
    "LinearLoop",
    "NoiseSpec",
    "ObjectTrack",
    "Scenario",
    "Scripted",
    "SnapshotError",
    "SpParams",
    "SpatialPooler",
    "Stationary",
    "TemporalMemory",
    "TmParams",
    "TmStepResult",
    "active_pixel_stats",
    "aggregate",
    "aggregate_mean",
    "aggregate_nonzero_mean",
    "build_grid_config",
    "derive_cell_seeds",
    "emitted_frame_times",
    "empty_pattern",
    "encode_frame",
    "generate",
    "object_position",
]
