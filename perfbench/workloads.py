"""The benchmark's workloads: seeded inputs, timed rounds and their checks.

A run repeats whole rounds of one workload.  Every round does the same
operations on the same inputs, so rounds of one run, and runs with one
seed, are interchangeable; the seed moves object start positions and
pixel noise only.  The engine sees the generated frames and nothing else:
its own configuration seed stays 0 in every workload.

Everything the engine returns is checked by ``oracles`` after the timed
part of the round.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from htmgrid import AggregationKind, GridModel, build_grid_config
from htmgrid import grid as grid_module
from htmgrid import runner as runner_module
from htmgrid.config import parse_run_config

import oracles
from oracles import expect
from spans import Recorder, traced

FRAME_NAME = "{:08d}"


@dataclass(frozen=True)
class MovingObject:
    shape: tuple[int, int]
    velocity: tuple[int, int]
    class_index: int = 0


@dataclass(frozen=True)
class Scene:
    """Rectangles moving at constant velocity, wrapping to stay in frame, plus pixel flips."""

    frame_size: tuple[int, int]
    class_count: int
    objects: tuple[MovingObject, ...]
    pixel_flip: float

    def _ranges(self, obj):
        return self.frame_size[0] - obj.shape[0] + 1, self.frame_size[1] - obj.shape[1] + 1

    def period(self) -> int:
        """Frames after which every object is back at its start."""
        out = 1
        for obj in self.objects:
            for span, v in zip(self._ranges(obj), obj.velocity):
                out = math.lcm(out, span // math.gcd(span, abs(v)))
        return out

    def frames(self, seed: int, start: int, count: int) -> list[list[np.ndarray]]:
        """Frames ``start .. start + count - 1``; a pure function of the seed."""
        place = np.random.default_rng([seed, 0])
        origins = [
            tuple(int(place.integers(span)) for span in self._ranges(obj))
            for obj in self.objects
        ]
        out = []
        for t in range(start, start + count):
            planes = np.zeros((self.class_count, *self.frame_size), dtype=np.uint8)
            for obj, origin in zip(self.objects, origins):
                r, c = (
                    (o + t * v) % span
                    for o, v, span in zip(origin, obj.velocity, self._ranges(obj))
                )
                planes[obj.class_index, r : r + obj.shape[0], c : c + obj.shape[1]] = 1
            flips = np.random.default_rng([seed, 1, t]).random(planes.shape) < self.pixel_flip
            planes ^= flips.astype(np.uint8)
            out.append(list(planes))
        return out


# The paper's basic scene: two 7x7 objects looping over a 36x36 frame, a 3x3
# grid of cells.  Both loops close after 30 frames, so learning shows within a round.
LOOP9 = Scene(
    frame_size=(36, 36),
    class_count=1,
    objects=(MovingObject((7, 7), (2, 3)), MovingObject((7, 7), (3, -2))),
    pixel_flip=0.002,
)

# 120x120 frame, a 10x10 grid of cells, two classes, six objects and ~29
# flipped pixels per plane and frame.
GRID100 = Scene(
    frame_size=(120, 120),
    class_count=2,
    objects=(
        MovingObject((10, 10), (2, 3), 0),
        MovingObject((12, 8), (3, -2), 1),
        MovingObject((8, 14), (-2, 3), 0),
        MovingObject((9, 9), (1, 4), 1),
        MovingObject((14, 10), (4, 1), 0),
        MovingObject((6, 16), (-3, -1), 1),
    ),
    pixel_flip=0.002,
)

CELL_SIZE = (12, 12)


def write_stream(directory: Path, frames) -> None:
    """Write frames as ``<class>/<frame>.pbm`` binary P4 files."""
    for k in range(len(frames[0])):
        (directory / str(k)).mkdir(parents=True, exist_ok=True)
    for i, planes in enumerate(frames):
        for k, plane in enumerate(planes):
            rows, cols = plane.shape
            body = np.packbits(plane.astype(bool), axis=1).tobytes()
            path = directory / str(k) / (FRAME_NAME.format(i) + ".pbm")
            path.write_bytes(b"P4\n%d %d\n" % (cols, rows) + body)


def encoder_facts(config) -> dict:
    enc = config.encoder
    return {"cell_size": tuple(enc.cell_size), "min_sparsity": enc.min_sparsity}


def _array_bytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, dict):
        return sum(_array_bytes(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_array_bytes(v) for v in value)
    return 0


def model_size(model) -> dict:
    """Learned-state counts of a model, read through each unit's ``state_dict``."""
    segments = synapses = tm_bytes = sp_bytes = 0
    for row in model.units:
        for unit in row:
            tm = unit.tm.state_dict()
            segments += len(tm["segments"])
            synapses += sum(int(np.size(seg["presyn"])) for seg in tm["segments"])
            tm_bytes += _array_bytes(tm)
            sp_bytes += _array_bytes(unit.sp.state_dict())
    return {
        "temporal_memory.segments": segments,
        "temporal_memory.synapses": synapses,
        "temporal_memory.state_bytes": tm_bytes,
        "spatial_pooler.state_bytes": sp_bytes,
    }


def learned_digest(model) -> str:
    """Digest of TM segments, synapses and permanences and of SP permanences."""
    digest = hashlib.sha256()
    for row in model.units:
        for unit in row:
            for seg in unit.tm.state_dict()["segments"]:
                digest.update(repr((seg["id"], seg["cell"])).encode())
                digest.update(np.ascontiguousarray(seg["presyn"]).tobytes())
                digest.update(np.ascontiguousarray(seg["perm"]).tobytes())
            digest.update(np.ascontiguousarray(unit.sp.state_dict()["permanences"]).tobytes())
    return digest.hexdigest()


@dataclass
class Round:
    """Timings and outputs of one round."""

    recorder: Recorder
    traced: bool
    frames: int = 0
    loop_s: float = 0.0
    setup_s: list = field(default_factory=list)
    save_s: list = field(default_factory=list)
    load_s: list = field(default_factory=list)
    snapshot_bytes: int = 0
    operations: int = 0
    failed: int = 0
    layers: dict = field(default_factory=dict)

    def step_seconds(self) -> list[float]:
        return self.recorder.durations("grid.step")

    def set_up(self, layer: str, repeats: int, fn, *args):
        """Build the round's model ``repeats`` times, timing each; returns the last."""
        model = None
        for _ in range(repeats):
            model = None  # release the previous copy before building the next
            model, seconds = self.recorder.timed(layer, fn, *args)
            self.setup_s.append(seconds)
        self.operations += repeats
        return model

    def stream(self, model, frames, learn: bool) -> list:
        """Step every frame, timing each call and the loop as a whole."""
        results = []
        loop_start = perf_counter()
        for planes in frames:
            result, _ = self.recorder.timed("grid.step", model.step, planes, learn=learn,
                                            workers=1)
            results.append(result)
        self.loop_s = perf_counter() - loop_start
        self.frames = len(results)
        self.operations += len(results)
        return results

    def read_layers(self, model, results) -> None:
        """Model size (traced rounds only) and the mean raw score over cell-steps."""
        if self.traced:
            self.layers.update(model_size(model))
        self.layers["temporal_memory.burst_fraction"] = float(
            np.mean([r.raw_scores for r in results])
        )

    def save(self, repeats: int, save, snapshot: Path) -> None:
        for _ in range(repeats):
            _, seconds = self.recorder.timed("snapshot.save", save, snapshot)
            self.save_s.append(seconds)
        self.operations += repeats

    def reload(self, repeats: int, snapshot: Path) -> None:
        """Load the end-of-round snapshot; it must re-serialise to the same bytes."""
        loaded = None
        for _ in range(repeats):
            loaded = None
            loaded, seconds = self.recorder.timed("snapshot.load", GridModel.load, snapshot)
            self.load_s.append(seconds)
        self.operations += repeats
        self.snapshot_bytes = snapshot.stat().st_size
        expect(loaded.to_bytes() == snapshot.read_bytes(),
               f"{snapshot.name}: loading and saving again changes the bytes")


class LoopLearn:
    """loop9-learn: a fresh 9-cell model learns the basic scene, ``workers=1``."""

    name = "loop9-learn"
    frame_count = 10 * LOOP9.period()
    repeats = 8  # set-ups, saves and loads per round; each takes milliseconds

    def __init__(self, seed: int, work: Path):
        self.config = build_grid_config(LOOP9.frame_size, CELL_SIZE, LOOP9.class_count)
        self.frames = LOOP9.frames(seed, 0, self.frame_count)
        self.snapshot = work / "model.snap"

    def round(self, out: Round) -> None:
        model = out.set_up("grid.init", self.repeats, GridModel, self.config)
        results = out.stream(model, self.frames, learn=True)
        out.read_layers(model, results)
        out.save(self.repeats, model.save, self.snapshot)
        del model
        out.reload(self.repeats, self.snapshot)

        check_fresh_results(results, self.frames, self.config)
        first, last = oracles.period_means(
            [r.raw_scores.mean() for r in results], LOOP9.period()
        )
        expect(last < 0.5 * first,
               f"no sequence learning: mean raw {last:.3f} over the last period "
               f"against {first:.3f} over the first")

    def finish(self) -> None:
        pass


def check_fresh_results(results, frames, config) -> None:
    expect([r.frame_index for r in results] == list(range(len(frames))),
           "frame indices do not count up from 0")
    oracles.check_first_frame_bursts(results[0])
    oracles.check_stream(results, frames, None, encoder_facts(config),
                         config.default_tm.column_count)
    oracles.check_aggregates(results, config.aggregation.value, config.smoothing_window)


def _probed_model(out: Round, state: dict):
    """A ``GridModel`` that times the calls ``runner.run`` makes on it."""
    rec = out.recorder

    class ProbedGridModel(GridModel):
        def __init__(self, config):
            start = perf_counter()
            super().__init__(config)
            end = perf_counter()
            rec.spans.append(("grid.init", start, end))
            out.setup_s.append(end - start)
            state["loop_start"] = end
            state["model"] = self

        def step(self, planes, learn=True, workers=1):
            result, _ = rec.timed("grid.step", super().step, planes, learn=learn,
                                  workers=workers)
            state["results"].append(result)
            return result

        def save(self, path):
            state["loop_end"] = perf_counter()
            _, seconds = rec.timed("snapshot.save", super().save, path)
            out.save_s.append(seconds)

    return ProbedGridModel


class GridStream:
    """grid100-stream: ``runner.run`` over a PBM stream with every output, ``workers=2``."""

    name = "grid100-stream"
    frame_count = 40
    calibration = 5
    workers = 2
    repeats = 3  # set-ups, saves and loads per round, counting the runner's own
    prefix = 8  # frames re-run with workers=1 to compare against the pool

    def __init__(self, seed: int, work: Path):
        self.frames = GRID100.frames(seed, 0, self.frame_count)
        stream = work / "stream"
        write_stream(stream, self.frames)
        self.out_dir = work / "out"
        self.csv = self.out_dir / "scores.csv"
        self.heatmaps = self.out_dir / "heatmaps"
        self.snapshot = self.out_dir / "model.snap"
        rows, cols = GRID100.frame_size
        self.run_config = parse_run_config("\n".join([
            f"input = {stream}",
            "learn = true",
            f"calibration_frames = {self.calibration}",
            f"workers = {self.workers}",
            f"output.scores_csv = {self.csv}",
            "output.per_cell = true",
            f"output.heatmap_dir = {self.heatmaps}",
            f"output.snapshot = {self.snapshot}",
            "aggregation = nonzero_mean",
            f"encoder.frame_size = {rows}x{cols}",
            f"encoder.cell_size = {CELL_SIZE[0]}x{CELL_SIZE[1]}",
            f"encoder.class_count = {GRID100.class_count}",
        ]))
        self.config = self.run_config.grid
        self.last_results = None

    def round(self, out: Round) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        # Set-up inside runner.run happens once; the other samples are the same call.
        out.set_up("grid.init", self.repeats - 1, GridModel, self.config)
        state = {"results": []}
        runner_module.GridModel = _probed_model(out, state)
        try:
            summary, _ = out.recorder.timed("runner.run", runner_module.run, self.run_config)
        finally:
            runner_module.GridModel = GridModel
        results = state["results"]
        out.loop_s = state["loop_end"] - state["loop_start"]
        out.frames = len(results)
        out.operations += 2 + len(results)
        expect((summary.frames_processed, summary.rows_written)
               == (self.frame_count, self.frame_count - self.calibration),
               f"run summary counts {summary.frames_processed} frames, "
               f"{summary.rows_written} rows")
        del summary
        model = state.pop("model")
        out.read_layers(model, results)
        out.save(self.repeats - 1, lambda path: GridModel.save(model, path), self.snapshot)
        del model
        out.reload(self.repeats, self.snapshot)

        check_fresh_results(results, self.frames, self.config)
        grids = oracles.check_scores_csv(
            self.csv, self.config.encoder.grid_shape, self.config.aggregation.value,
            self.calibration, self.frame_count - self.calibration,
        )
        out.operations += 1
        if grids is None:
            # The per-cell CSV cannot be read back; its heatmaps are checked
            # against the scores the steps returned instead.
            out.failed += 1
            grids = {
                r.frame_index: r.reported_scores for r in results[self.calibration:]
            }
        for frame, cells in grids.items():
            expect(np.array_equal(cells, results[frame].reported_scores),
                   f"CSV row of frame {frame} differs from the step's reported scores")
        oracles.check_heatmaps(self.heatmaps, grids, CELL_SIZE)
        self.last_results = results

    def finish(self) -> None:
        """The thread pool must not change results: re-run a prefix on one thread."""
        model = GridModel(self.config)
        for planes, pooled in zip(self.frames[: self.prefix], self.last_results):
            single = model.step(planes, learn=True, workers=1)
            expect(oracles.results_identical(single, pooled),
                   f"frame {pooled.frame_index}: workers=1 and workers={self.workers} differ")


class GridScore:
    """grid100-score: a warm 100-cell model scores with ``learn=False``, ``workers=1``."""

    name = "grid100-score"
    warm_frames = 40
    frame_count = 60
    repeats = 3

    def __init__(self, seed: int, work: Path):
        self.config = build_grid_config(
            GRID100.frame_size, CELL_SIZE, GRID100.class_count,
            aggregation=AggregationKind.NONZERO_MEAN,
        )
        warm = GRID100.frames(seed, 0, self.warm_frames)
        self.frames = GRID100.frames(seed, self.warm_frames, self.frame_count)
        self.before_frames = warm[-1]
        self.warm_snapshot = work / "warm.snap"
        self.snapshot = work / "model.snap"
        model = GridModel(self.config)
        self.history = [model.step(planes, learn=True).aggregate for planes in warm]
        model.save(self.warm_snapshot)

    def round(self, out: Round) -> None:
        model = out.set_up("snapshot.load", self.repeats, GridModel.load, self.warm_snapshot)
        before = learned_digest(model)
        results = out.stream(model, self.frames, learn=False)
        expect(learned_digest(model) == before, "learn=False changed learned state")
        out.read_layers(model, results)
        out.save(self.repeats, model.save, self.snapshot)
        del model
        out.reload(self.repeats, self.snapshot)

        expect([r.frame_index for r in results]
               == list(range(self.warm_frames, self.warm_frames + self.frame_count)),
               "frame indices do not continue from the warm model")
        oracles.check_stream(results, self.frames, self.before_frames,
                             encoder_facts(self.config), self.config.default_tm.column_count)
        oracles.check_aggregates(results, self.config.aggregation.value,
                                 self.config.smoothing_window, self.history)

    def finish(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (LoopLearn, GridStream, GridScore)}


def run_rounds(workload, seconds: float, trace: bool) -> list[Round]:
    """Whole rounds until ``seconds`` have passed.

    With tracing, even rounds run untraced and odd rounds traced, so the
    trace overhead is measured within one run; at least one of each runs.
    """
    rounds = []
    start = perf_counter()
    while True:
        out = Round(Recorder(), traced=trace and len(rounds) % 2 == 1)
        if out.traced:
            with traced(out.recorder, grid_module, runner_module):
                workload.round(out)
        else:
            workload.round(out)
        rounds.append(out)
        if perf_counter() - start >= seconds and (not trace or len(rounds) >= 2):
            break
    workload.finish()
    return rounds

