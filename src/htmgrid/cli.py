"""Command-line surface.

Subcommands: ``run`` streams masks through the engine, ``generate`` writes
a synthetic scenario to disk, ``snapshot-info`` inspects a saved model,
``stats`` reports the per-cell active-pixel distribution of a stream.
Any validation or I/O failure prints a diagnostic and exits nonzero.
"""

from __future__ import annotations

import argparse
import sys

from . import snapshot as snapshot_format
from .config import parse_run_config, parse_scenario_config
from .encoder import active_pixel_stats
from .errors import ConfigError, ContractError, SnapshotError
from .grid import SNAPSHOT_KIND as GRID_KIND, GridModel
from .imageio import write_mask_sequence
from .runner import open_stream, run as run_stream
from .scenario import generate


def _load_run_config(path: str, overrides):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_run_config(fh.read(), overrides)


def cmd_run(args) -> int:
    run_config = _load_run_config(args.config, args.set)
    summary = run_stream(run_config)
    print(
        f"processed {summary.frames_processed} frames, "
        f"wrote {summary.rows_written} score rows"
    )
    return 0


def cmd_generate(args) -> int:
    with open(args.scenario, "r", encoding="utf-8") as fh:
        scenario = parse_scenario_config(fh.read(), args.set)
    frames = generate(scenario)
    write_mask_sequence(args.out, frames)
    print(f"wrote {len(frames)} frames x {scenario.class_count} classes to {args.out}")
    return 0


def cmd_snapshot_info(args) -> int:
    with open(args.snapshot, "rb") as fh:
        data = fh.read()
    kind, version = snapshot_format.read_header(data)
    print(f"kind: {kind}")
    print(f"version: {version}")
    if kind != GRID_KIND:
        return 0
    model = GridModel.from_bytes(data)
    config = model.config
    grows, gcols = config.encoder.grid_shape
    print(f"grid: {grows}x{gcols} cells of {config.encoder.cell_size[0]}"
          f"x{config.encoder.cell_size[1]} px")
    print(f"classes: {config.encoder.class_count}")
    print(f"multistep_n: {config.multistep_n}")
    print(f"aggregation: {config.aggregation.value}")
    print(f"frames_processed: {model.frame_counter}")
    units = [unit for row in model.units for unit in row]
    print(f"sp_columns: {sorted({unit.sp.params.column_count for unit in units})}")
    print(f"tm_segments_total: {sum(unit.tm.segment_count for unit in units)}")
    return 0


def cmd_stats(args) -> int:
    run_config = _load_run_config(args.config, args.set)
    encoder = run_config.grid.encoder
    grows, gcols = encoder.grid_shape
    coords = [(r, c) for r in range(grows) for c in range(gcols)]
    if args.cell:
        try:
            row, col = (int(v) for v in args.cell.split(","))
        except ValueError:
            raise ConfigError(f"--cell expects ROW,COL, got {args.cell!r}") from None
        if (row, col) not in coords:
            raise ConfigError(f"--cell {row},{col} is outside the {grows}x{gcols} grid")
        coords = [(row, col)]
    mean, std = active_pixel_stats(encoder, open_stream(run_config))
    print("cell_row,cell_col,mean,std")
    for r, c in coords:
        print(f"{r},{c},{mean[r, c]:.4f},{std[r, c]:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htmgrid",
        description="Grid-partitioned HTM anomaly detection over mask streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="process a mask stream")
    p_run.add_argument("config", help="run configuration file")
    p_run.set_defaults(func=cmd_run)

    p_gen = sub.add_parser("generate", help="write a synthetic scenario to disk")
    p_gen.add_argument("scenario", help="scenario configuration file")
    p_gen.add_argument("--out", required=True, help="output stream directory")
    p_gen.set_defaults(func=cmd_generate)

    p_info = sub.add_parser("snapshot-info", help="inspect a model snapshot")
    p_info.add_argument("snapshot", help="snapshot file")
    p_info.set_defaults(func=cmd_snapshot_info)

    p_stats = sub.add_parser(
        "stats", help="active-pixel distribution of the input stream"
    )
    p_stats.add_argument("config", help="run configuration file")
    p_stats.add_argument("--cell", help="restrict to one cell, as ROW,COL")
    p_stats.set_defaults(func=cmd_stats)
    for p, what in ((p_run, "configuration"), (p_gen, "scenario"), (p_stats, "configuration")):
        p.add_argument("--set", action="append", metavar="KEY=VALUE", default=[],
                       help=f"override a {what} value")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ContractError, SnapshotError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
