"""Benchmark of the htmgrid engine: one workload per run, metrics as JSON.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload loop9-learn --seed 1 --seconds 20 --trace 0

The engine is imported from ``src/`` of the checkout.  Scratch files go to
``.perfbench/`` under the checkout and are removed when the run ends.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np

from oracles import CheckFailed
from spans import GRID_CHILDREN, RUNNER_CHILDREN

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The keys of workloads.WORKLOADS, which can only be imported once src/ is found.
WORKLOAD_NAMES = ("loop9-learn", "grid100-stream", "grid100-score")
DEFAULT_SEED = 1

# Layers reported as busy seconds and a call count in a traced run.
BUSY_LAYERS = ("temporal_memory", "spatial_pooler", "sdr", "encoder", "aggregation")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def frame_step_seconds(rounds) -> list[float]:
    """Each frame's step latency: the median over rounds of that frame's step.

    Every round steps the same frames through an identically built model, so
    a frame's steps in different rounds do the same work.  The median drops
    the rounds in which the host stalled that step, which a percentile
    pooled over all steps would report as the program's tail.
    """
    per_round = [r.step_seconds() for r in rounds]
    return [statistics.median(steps) for steps in zip(*per_round, strict=True)]


def end_to_end(rounds) -> dict:
    steps = frame_step_seconds(rounds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    med = statistics.median
    return {
        "setup_s": metric(med(s for r in rounds for s in r.setup_s), "s"),
        "frames_per_s": metric(med(r.frames / r.loop_s for r in rounds), "frames/s"),
        "step_ms_p50": metric(percentile(steps, 50) * 1e3, "ms"),
        "step_ms_p95": metric(percentile(steps, 95) * 1e3, "ms"),
        "snapshot_bytes": metric(med(r.snapshot_bytes for r in rounds), "bytes"),
        "snapshot_save_s": metric(med(s for r in rounds for s in r.save_s), "s"),
        "snapshot_load_s": metric(med(s for r in rounds for s in r.load_s), "s"),
        "peak_rss_mb": metric(peak_kib / 1024.0, "MB"),
    }


def layer_values(out) -> dict:
    """Per-layer figures of one traced round."""
    rec = out.recorder
    values = {}
    for layer in BUSY_LAYERS:
        values[f"{layer}.busy_s"] = (rec.busy(layer), "s")
        values[f"{layer}.calls"] = (rec.calls(layer), "count")
    values["grid.self_s"] = (rec.self_time("grid.step", GRID_CHILDREN), "s")
    values["grid.calls"] = (rec.calls("grid.step"), "count")
    for kind in ("read", "write"):
        values[f"imageio.{kind}_s"] = (rec.busy(f"imageio.{kind}"), "s")
        values[f"imageio.{kind}_calls"] = (rec.calls(f"imageio.{kind}"), "count")
    values["runner.self_s"] = (rec.self_time("runner.run", RUNNER_CHILDREN), "s")
    values["runner.calls"] = (rec.calls("runner.run"), "count")
    for kind in ("save", "load"):
        values[f"snapshot.{kind}_s"] = (rec.busy(f"snapshot.{kind}"), "s")
        values[f"snapshot.{kind}_calls"] = (rec.calls(f"snapshot.{kind}"), "count")
    units = {
        "temporal_memory.segments": "count",
        "temporal_memory.synapses": "count",
        "temporal_memory.state_bytes": "bytes",
        "temporal_memory.burst_fraction": "ratio",
        "spatial_pooler.state_bytes": "bytes",
    }
    for name, unit in units.items():
        values[name] = (out.layers[name], unit)
    return values


def per_layer(rounds) -> dict:
    """Medians over traced rounds, plus the trace overhead against untraced rounds."""
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    per_round = [layer_values(r) for r in traced]
    out = {
        name: metric(statistics.median(v[name][0] for v in per_round), unit)
        for name, (_, unit) in per_round[0].items()
    }
    traced_fps = statistics.median(r.frames / r.loop_s for r in traced)
    plain_fps = statistics.median(r.frames / r.loop_s for r in plain)
    out["trace.frames_per_s"] = metric(traced_fps, "frames/s")
    out["trace.overhead"] = metric(plain_fps / traced_fps - 1.0, "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "htmgrid" / "__init__.py").is_file():
        print(f"htmgrid sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    work = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        work.mkdir(parents=True, exist_ok=True)
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        rounds = workloads.run_rounds(workload, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    metrics = per_layer(rounds) if args.trace else end_to_end(rounds)
    print(json.dumps({
        "correct": True,
        "attempted": sum(r.operations for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
