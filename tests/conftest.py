import numpy as np
import pytest

from htmgrid import (
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
