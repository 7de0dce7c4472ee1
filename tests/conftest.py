import numpy as np
import pytest

from htmgrid import (
    ConfigError,
    GridModel,
    LinearLoop,
    ObjectTrack,
    Scenario,
    build_grid_config,
    generate,
)


def dense(width, active=()) -> np.ndarray:
    """A 1-D bool array of ``width`` with the ``active`` indices set."""
    out = np.zeros(width, dtype=bool)
    out[np.asarray(active, dtype=np.int64)] = True
    return out


def results_equal(a, b) -> bool:
    """Bitwise equality of two FrameResults."""
    return (
        a.frame_index == b.frame_index
        and np.array_equal(a.raw_scores, b.raw_scores)
        and np.array_equal(a.reported_scores, b.reported_scores)
        and np.array_equal(a.certainty, b.certainty)
        and a.aggregate == b.aggregate
        and a.aggregate_smoothed == b.aggregate_smoothed
    )


def states_equal(a, b) -> bool:
    """Deep equality of two ``state_dict()`` trees; arrays must match in dtype too."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and np.array_equal(a, b)
        )
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and a.keys() == b.keys()
            and all(states_equal(a[k], b[k]) for k in a)
        )
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(states_equal(x, y) for x, y in zip(a, b))
        )
    return type(a) is type(b) and a == b


def moving_average(series, window: int) -> np.ndarray:
    """Trailing moving average with prefix warm-up, the oracle for ``aggregate_smoothed``.

    ``out[i]`` is the mean of the last ``min(i + 1, window)`` values ending
    at ``i``, so the output aligns index for index with the input.
    """
    if window < 1:
        raise ConfigError(f"moving average window must be >= 1, got {window}")
    arr = np.asarray(series, dtype=np.float64).reshape(-1)
    out = np.empty_like(arr)
    for i in range(arr.size):
        lo = max(0, i - window + 1)
        out[i] = np.mean(arr[lo : i + 1])
    return out


class PerCellPooler:
    """One cell's spatial pooler stepped on its own, the oracle for ``SpatialPooler`` groups.

    Draws the cell's pools and permanences from its seed, gathers its input
    bits through the pools and recomputes the connected synapses on every
    step, as the engine did before cells were pooled as a batch.
    """

    def __init__(self, params):
        self.params = p = params
        rng = np.random.default_rng(p.seed)
        order = np.argsort(rng.random((p.column_count, p.input_width)), axis=1)
        self.pools = np.sort(order[:, : p.pool_size], axis=1).astype(np.int64)
        low, high = p.connected_threshold - 0.1, p.connected_threshold + 0.1
        self.permanences = np.clip(rng.uniform(low, high, size=self.pools.shape), 0.0, 1.0)
        self.step_count = 0
        self.duty_cycles = np.zeros(p.column_count, dtype=np.float64)

    def compute(self, bits: np.ndarray, learn: bool) -> np.ndarray:
        p = self.params
        pooled_active = bits[self.pools]
        connected = self.permanences >= p.connected_threshold
        overlaps = np.count_nonzero(pooled_active & connected, axis=1)

        ranking = overlaps
        if p.boosting_enabled:
            target = p.active_columns / p.column_count
            factors = np.exp(p.boost_strength * (target - self.duty_cycles) / target)
            ranking = overlaps * factors
        eligible = np.flatnonzero(overlaps >= p.stimulus_threshold)
        order = np.lexsort((eligible, -ranking[eligible]))
        active = np.zeros(p.column_count, dtype=bool)
        active[eligible[order[: p.active_columns]]] = True

        if learn:
            delta = np.where(pooled_active[active], p.permanence_increment,
                             -p.permanence_decrement)
            self.permanences[active] = np.clip(self.permanences[active] + delta, 0.0, 1.0)
            if p.boosting_enabled:
                horizon = min(self.step_count + 1, 1000)
                self.duty_cycles += (active - self.duty_cycles) / horizon
            self.step_count += 1
        return active


def loop_object(velocity=(0, 3), start=(15, 0), shape=(6, 6)):
    return ObjectTrack(shape=shape, path=LinearLoop(start=start, velocity=velocity))


def loop_scenario(frame_count, frame_size=(36, 36), seed=11, **kwargs):
    return Scenario(
        frame_size=frame_size,
        frame_count=frame_count,
        objects=(loop_object(),),
        seed=seed,
        **kwargs,
    )


@pytest.fixture(scope="session")
def small_grid_config():
    return build_grid_config((36, 36), (12, 12), seed=3, multistep_n=2)


@pytest.fixture(scope="session")
def warmed_loop_model(small_grid_config):
    """Model trained for 20 loop cycles plus the frames it saw; reused read-only."""
    period = 36 - 6 + 1
    frames = generate(loop_scenario(period * 20 + 200))
    model = GridModel(small_grid_config)
    for planes in frames[: period * 20]:
        model.step(planes)
    return model.to_bytes(), frames, period
