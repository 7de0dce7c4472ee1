"""Deterministic synthetic mask-stream generator.

Renders rectangular objects moving on simple paths into per-class binary
planes, then layers on the failure modes a real segmentation feed exhibits:
frozen frames (time stops, the same frame is emitted repeatedly), dropped
segments (a run of frames deleted from the output), per-pixel flip noise,
and whole-object single-frame dropouts.

Noise is drawn from per-frame seeded substreams, so deleting or repeating
frames never reshuffles the noise of the frames around them, and the whole
stream is a pure function of the scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .errors import MAX_COUNT, ConfigError, out_of_range

__all__ = [
    "LinearLoop",
    "Stationary",
    "Scripted",
    "ObjectTrack",
    "FrameRepeat",
    "FrameSkip",
    "NoiseSpec",
    "Scenario",
    "generate",
    "emitted_frame_times",
    "object_position",
]


@dataclass(frozen=True)
class LinearLoop:
    """Constant-velocity path that wraps so the rectangle stays in frame."""

    start: tuple[int, int]
    velocity: tuple[int, int]


@dataclass(frozen=True)
class Stationary:
    position: tuple[int, int]


@dataclass(frozen=True)
class Scripted:
    positions: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ObjectTrack:
    shape: tuple[int, int]
    path: LinearLoop | Stationary | Scripted
    class_index: int = 0


@dataclass(frozen=True)
class FrameRepeat:
    """Freeze time: the frame rendered at ``at`` is shown ``duration`` times."""

    at: int
    duration: int


@dataclass(frozen=True)
class FrameSkip:
    """Delete ``count`` frames starting at ``at`` from the emitted stream."""

    at: int
    count: int


@dataclass(frozen=True)
class NoiseSpec:
    pixel_flip_probability: float = 0.0
    object_dropout_probability: float = 0.0


@dataclass(frozen=True)
class Scenario:
    frame_size: tuple[int, int]
    frame_count: int
    objects: tuple[ObjectTrack, ...] = ()
    events: tuple[FrameRepeat | FrameSkip, ...] = ()
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    seed: int = 0
    class_count: int = 1


def object_position(track: ObjectTrack, t: int, frame_size) -> tuple[int, int]:
    """Top-left corner of the object's rectangle at simulation time ``t``."""
    rows, cols = frame_size
    sr, sc = track.shape
    path = track.path
    if isinstance(path, Stationary):
        return path.position
    if isinstance(path, Scripted):
        return path.positions[min(t, len(path.positions) - 1)]
    r_range = rows - sr + 1
    c_range = cols - sc + 1
    r = (path.start[0] + t * path.velocity[0]) % r_range
    c = (path.start[1] + t * path.velocity[1]) % c_range
    return int(r), int(c)


# The most pixels a scenario may emit in all (frames x classes x rows x cols): ``generate``
# keeps every frame, as one uint8 per pixel.
MAX_PIXELS = 2**30


def _sides(what: str, size) -> list[str]:
    """A problem unless both sides of ``size`` lie in [1, ``MAX_COUNT``]."""
    if all(1 <= side <= MAX_COUNT for side in size):
        return []
    return [f"{what} sides must be in [1, {MAX_COUNT}], got {size[0]}x{size[1]}"]


def _emitted_count(scenario: Scenario) -> int:
    """``len(emitted_frame_times(scenario))`` for a scenario with no problem, counted
    rather than listed."""
    skip_mask, showings = _event_effects(scenario)
    return int(np.count_nonzero(~skip_mask)) + sum(
        count - 1 for t, count in showings.items() if not skip_mask[t])


def _validate(scenario: Scenario) -> list[str]:
    """The scenario's problems: each count must lie in [1, ``MAX_COUNT``], an event's ``at``
    in [0, ``MAX_COUNT``], and the emitted frames hold at most ``MAX_PIXELS`` pixels."""
    out = _sides("scenario.frame_size", scenario.frame_size) + out_of_range("scenario", scenario)
    rows, cols = scenario.frame_size
    if scenario.seed < 0:
        out.append(f"seed must be non-negative, got {scenario.seed}")
    noise = scenario.noise
    if not 0.0 <= noise.pixel_flip_probability < 1.0:
        out.append("pixel_flip_probability must be in [0, 1)")
    if not 0.0 <= noise.object_dropout_probability < 1.0:
        out.append("object_dropout_probability must be in [0, 1)")
    for i, track in enumerate(scenario.objects):
        sr, sc = track.shape
        if shape_problems := _sides(f"object.{i}.shape", track.shape):
            out.extend(shape_problems)
            continue
        if sr > rows or sc > cols:
            out.append(f"object {i}: shape {track.shape} does not fit the frame")
            continue
        if not 0 <= track.class_index < scenario.class_count:
            out.append(
                f"object {i}: class_index {track.class_index} outside "
                f"[0, {scenario.class_count})"
            )
        if isinstance(track.path, Stationary):
            positions = [track.path.position]
        elif isinstance(track.path, Scripted):
            if not track.path.positions:
                out.append(f"object {i}: scripted path needs at least one position")
                continue
            positions = list(track.path.positions)
        else:
            positions = []  # wrapping keeps a loop in bounds by construction
        for r, c in positions:
            if r < 0 or c < 0 or r + sr > rows or c + sc > cols:
                out.append(
                    f"object {i}: position ({r}, {c}) puts the rectangle out of frame"
                )
    for i, event in enumerate(scenario.events):
        if not isinstance(event, (FrameRepeat, FrameSkip)):
            out.append(f"event {i}: unknown event kind {type(event).__name__}")
            continue
        kind = "repeat" if isinstance(event, FrameRepeat) else "skip"
        out.extend(out_of_range(f"event.{i}", event, ("at",)))
        if not 0 <= event.at < scenario.frame_count:
            out.append(f"event {i}: {kind} start {event.at} outside the stream")
        elif kind == "skip" and event.at + event.count > scenario.frame_count:
            out.append(f"event {i}: skip window exceeds the stream")
    if not out:
        frames = _emitted_count(scenario)
        if frames * scenario.class_count * rows * cols > MAX_PIXELS:
            out.append(f"scenario emits {frames} frames of {scenario.class_count} "
                       f"{rows}x{cols} planes, more than {MAX_PIXELS} pixels")
    return out


def _event_effects(scenario: Scenario) -> tuple[np.ndarray, dict[int, int]]:
    """The simulation times the skips delete, as a mask, and the showings of each
    repeated time."""
    skip_mask = np.zeros(scenario.frame_count, dtype=bool)
    showings: dict[int, int] = {}
    for event in scenario.events:
        if isinstance(event, FrameSkip):
            skip_mask[event.at : event.at + event.count] = True
        elif isinstance(event, FrameRepeat):
            showings[event.at] = showings.get(event.at, 1) + event.duration - 1
    return skip_mask, showings


def emitted_frame_times(scenario: Scenario) -> list[int]:
    """Simulation time shown at each emitted frame index, events applied."""
    skip_mask, showings = _event_effects(scenario)
    times: list[int] = []
    for t in range(scenario.frame_count):
        if skip_mask[t]:
            continue
        times.extend([t] * showings.get(t, 1))
    return times


def _render_sim_frame(scenario: Scenario, t: int) -> list[np.ndarray]:
    noise = scenario.noise
    rng = None
    if noise.object_dropout_probability > 0.0 or noise.pixel_flip_probability > 0.0:
        rng = np.random.default_rng([scenario.seed, t])
    planes = [
        np.zeros(scenario.frame_size, dtype=np.uint8)
        for _ in range(scenario.class_count)
    ]
    for track in scenario.objects:
        if (
            rng is not None
            and noise.object_dropout_probability > 0.0
            and rng.random() < noise.object_dropout_probability
        ):
            continue
        r, c = object_position(track, t, scenario.frame_size)
        sr, sc = track.shape
        planes[track.class_index][r : r + sr, c : c + sc] = 1
    if rng is not None and noise.pixel_flip_probability > 0.0:
        for plane in planes:
            flips = rng.random(plane.shape) < noise.pixel_flip_probability
            np.bitwise_xor(plane, flips.astype(np.uint8), out=plane)
    return planes


def generate(scenario: Scenario) -> list[list[np.ndarray]]:
    """Materialize the emitted frame sequence; each frame is a list of planes."""
    problems = _validate(scenario)
    if problems:
        raise ConfigError("; ".join(problems))
    frames = []
    for t, showings in groupby(emitted_frame_times(scenario)):  # a repeat's are consecutive
        planes = _render_sim_frame(scenario, t)
        frames.extend([plane.copy() for plane in planes] for _ in showings)
    return frames
