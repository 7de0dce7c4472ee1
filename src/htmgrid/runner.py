"""Stream execution: input source through the grid model to output files."""

from __future__ import annotations

import itertools
import os
from contextlib import ExitStack
from dataclasses import dataclass, replace

from .config import RunConfig, parse_scenario_config
from .encoder import check_planes
from .errors import ConfigError
from .grid import GridModel
from .imageio import FRAME_NAME, heatmap_image, read_mask_sequence, staged, write_ppm
from .scenario import generate

__all__ = ["RunSummary", "open_stream", "run"]


@dataclass
class RunSummary:
    frames_processed: int
    rows_written: int
    model: GridModel


def open_stream(run_config: RunConfig):
    """Resolve the input path into a frame iterable.

    A directory is read as a mask sequence; a file is parsed as a scenario
    description and generated in memory.
    """
    path = run_config.input
    if os.path.isdir(path):
        return read_mask_sequence(path)
    if os.path.isfile(path):
        with open(path, "r", encoding="utf-8") as fh:
            scenario = parse_scenario_config(fh.read())
        expected = tuple(run_config.grid.encoder.frame_size)
        if tuple(scenario.frame_size) != expected:
            raise ConfigError(
                f"scenario frame size {scenario.frame_size} != encoder frame "
                f"size {expected}"
            )
        return generate(scenario)
    raise FileNotFoundError(f"input not found: {path}")


def _csv_header(run_config: RunConfig) -> str:
    cols = ["frame", "aggregate", "aggregate_smoothed"]
    if run_config.per_cell:
        grows, gcols = run_config.grid.encoder.grid_shape
        cols.extend(
            f"cell_r{r}_c{c}" for r in range(grows) for c in range(gcols)
        )
    return ",".join(cols)


def _csv_row(run_config: RunConfig, result) -> str:
    parts = [str(result.frame_index), repr(result.aggregate),
             repr(result.aggregate_smoothed)]
    if run_config.per_cell:
        parts.extend(repr(float(v)) for v in result.reported_scores.reshape(-1))
    return ",".join(parts)


def run(run_config: RunConfig) -> RunSummary:
    """Stream all frames through the model and write the requested outputs.

    Frames below ``calibration_frames`` update the model (always with
    learning on) but produce no score rows or heatmaps.
    """
    if run_config.resume:
        model = GridModel.load(run_config.resume)
    else:
        model = GridModel(run_config.grid)
    # A resumed model keeps its own grid: the input check, the CSV columns
    # and the heatmap geometry all follow the model, not the config file.
    run_config = replace(run_config, grid=model.config)
    frames = iter(open_stream(run_config))
    # A stream that does not fit the model fails on its first frame, before
    # any output is opened.
    first = next(frames, None)
    if first is not None:
        check_planes(run_config.grid.encoder, first)
        frames = itertools.chain([first], frames)

    # Every output is written beside its path and committed after the last
    # frame: the snapshot first, then the CSV, then the heatmaps.  A failed run
    # keeps the old files and leaves none of its own.
    rows = 0
    processed = 0
    with staged() as beside, ExitStack() as csv_closer:
        csv_handle = None
        if run_config.scores_csv:
            csv_handle = csv_closer.enter_context(
                open(beside(run_config.scores_csv), "x", encoding="utf-8"))
            csv_handle.write(_csv_header(run_config) + "\n")
        if run_config.heatmap_dir:
            os.makedirs(run_config.heatmap_dir, exist_ok=True)
        for idx, planes in enumerate(frames):
            calibrating = idx < run_config.calibration_frames
            learn = True if calibrating else run_config.learn
            result = model.step(planes, learn=learn, workers=run_config.workers)
            processed += 1
            if calibrating:
                continue
            if csv_handle is not None:
                csv_handle.write(_csv_row(run_config, result) + "\n")
                rows += 1
            if run_config.heatmap_dir:
                image = heatmap_image(
                    result.reported_scores, run_config.grid.encoder.cell_size
                )
                name = FRAME_NAME.format(result.frame_index) + ".ppm"
                write_ppm(beside(os.path.join(run_config.heatmap_dir, name)), image)
        csv_closer.close()  # the CSV is whole before anything commits
        if run_config.snapshot_out:
            model.save(run_config.snapshot_out)
    return RunSummary(frames_processed=processed, rows_written=rows, model=model)
