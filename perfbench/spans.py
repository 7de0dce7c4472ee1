"""Spans around calls into the engine's layers, recorded from outside the engine.

A ``Recorder`` keeps ``(layer, start, end)`` spans in memory.  The
benchmark always records its own calls (model set-up, ``GridModel.step``,
snapshot save and load, ``runner.run``); the end-to-end metrics come from
those.  ``traced`` additionally rebinds the names that ``htmgrid.grid``
and ``htmgrid.runner`` import into their own namespaces, so calls into the
encoder, ``sdr.concatenate``, the spatial pooler, the temporal memory,
aggregation and image I/O are timed without any change to the package.

Under ``workers > 1`` the cell layers run on pool threads and their spans
overlap, so a layer's busy time is summed across threads and can exceed
the wall time of the steps that contain it.  Self time is computed from
the union of child spans, so it never goes below zero.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

# Child layers whose spans fall inside each parent span.
GRID_CHILDREN = ("encoder", "sdr", "spatial_pooler", "temporal_memory", "aggregation")
RUNNER_CHILDREN = ("grid.init", "grid.step", "snapshot.save", "imageio.read", "imageio.write")


class Recorder:
    """In-memory span list; appends are safe from pool threads under the GIL."""

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []

    def timed(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` and record its span; returns (value, seconds)."""
        start = perf_counter()
        try:
            value = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.spans.append((layer, start, end))
        return value, end - start

    def wrap(self, layer: str, fn):
        spans = self.spans

        def traced_call(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((layer, start, perf_counter()))

        return traced_call

    def wrap_iterable(self, layer: str, fn):
        """Time each item a generator function yields, not the consumer's work."""
        spans = self.spans

        def traced_iter(*args, **kwargs):
            items = iter(fn(*args, **kwargs))
            while True:
                start = perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    return
                spans.append((layer, start, perf_counter()))
                yield item

        return traced_iter

    def durations(self, layer: str) -> list[float]:
        return [end - start for name, start, end in self.spans if name == layer]

    def busy(self, layer: str) -> float:
        return sum(self.durations(layer))

    def calls(self, layer: str) -> int:
        return len(self.durations(layer))

    def self_time(self, parent: str, children) -> float:
        """Parent span time not covered by any child span inside it."""
        parents = _union((s, e) for name, s, e in self.spans if name == parent)
        kids = _union((s, e) for name, s, e in self.spans if name in children)
        return sum(e - s for s, e in parents) - _overlap(parents, kids)


def _union(intervals) -> list[list[float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def _overlap(a, b) -> float:
    """Total length of the intersection of two merged interval lists."""
    i = j = 0
    total = 0.0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def _traced_compute(cls, layer: str, recorder: Recorder):
    """Subclass whose ``compute`` is timed; ``__new__``-based loading picks it up too."""
    return type(cls.__name__, (cls,), {"compute": recorder.wrap(layer, cls.compute)})


@contextmanager
def traced(recorder: Recorder, grid_module, runner_module):
    """Rebind the layer entry points seen by ``grid`` and ``runner`` for one round."""
    patches = [
        (grid_module, "encode_frame", recorder.wrap("encoder", grid_module.encode_frame)),
        (grid_module, "concatenate", recorder.wrap("sdr", grid_module.concatenate)),
        (grid_module, "aggregate", recorder.wrap("aggregation", grid_module.aggregate)),
        (grid_module, "SpatialPooler",
         _traced_compute(grid_module.SpatialPooler, "spatial_pooler", recorder)),
        (grid_module, "TemporalMemory",
         _traced_compute(grid_module.TemporalMemory, "temporal_memory", recorder)),
        (runner_module, "read_mask_sequence",
         recorder.wrap_iterable("imageio.read", runner_module.read_mask_sequence)),
        (runner_module, "heatmap_image",
         recorder.wrap("imageio.write", runner_module.heatmap_image)),
        (runner_module, "write_ppm", recorder.wrap("imageio.write", runner_module.write_ppm)),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, value in patches:
            setattr(module, name, value)
        yield recorder
    finally:
        for module, name, value in saved:
            setattr(module, name, value)
