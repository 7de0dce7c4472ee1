import numpy as np
import pytest
from hypothesis import given, strategies as st

from htmgrid import (
    ConfigError,
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
from htmgrid.scenario import _emitted_count


def test_empty_scene_is_all_zero():
    frames = generate(Scenario(frame_size=(16, 16), frame_count=5))
    assert len(frames) == 5
    assert all(not planes[0].any() for planes in frames)


def test_stationary_object_gives_identical_frames():
    scenario = Scenario(
        frame_size=(16, 16),
        frame_count=10,
        objects=(ObjectTrack(shape=(3, 3), path=Stationary((4, 4))),),
    )
    frames = generate(scenario)
    first = frames[0][0]
    assert first[4:7, 4:7].all()
    assert first.sum() == 9
    for planes in frames[1:]:
        assert np.array_equal(planes[0], first)


def test_frame_repeat_freezes_the_rendered_frame():
    scenario = Scenario(
        frame_size=(20, 20),
        frame_count=150,
        objects=(ObjectTrack(shape=(4, 4), path=LinearLoop((8, 0), (0, 1))),),
        events=(FrameRepeat(at=100, duration=20),),
    )
    frames = generate(scenario)
    for i in range(100, 120):
        assert np.array_equal(frames[i][0], frames[100][0])
    # motion resumes from where it froze
    times = emitted_frame_times(scenario)
    assert times[99] == 99
    assert times[100:120] == [100] * 20
    assert times[120] == 101


def test_frame_skip_deletes_frames():
    base = Scenario(
        frame_size=(20, 20),
        frame_count=60,
        objects=(ObjectTrack(shape=(4, 4), path=LinearLoop((8, 0), (0, 1))),),
    )
    skipped = Scenario(
        frame_size=base.frame_size,
        frame_count=base.frame_count,
        objects=base.objects,
        events=(FrameSkip(at=20, count=10),),
    )
    full = generate(base)
    cut = generate(skipped)
    expected = full[:20] + full[30:]
    assert len(cut) == len(expected)
    for a, b in zip(cut, expected):
        assert np.array_equal(a[0], b[0])


def test_generation_is_deterministic():
    scenario = Scenario(
        frame_size=(24, 24),
        frame_count=40,
        objects=(ObjectTrack(shape=(5, 5), path=LinearLoop((2, 2), (1, 1))),),
        noise=NoiseSpec(pixel_flip_probability=0.05, object_dropout_probability=0.1),
        seed=21,
    )
    first = generate(scenario)
    second = generate(scenario)
    for a, b in zip(first, second):
        assert np.array_equal(a[0], b[0])


def test_loop_positions_wrap_in_bounds():
    track = ObjectTrack(shape=(4, 4), path=LinearLoop((0, 0), (3, 5)))
    for t in range(200):
        r, c = object_position(track, t, (20, 20))
        assert 0 <= r <= 16 and 0 <= c <= 16


def test_scripted_path_holds_last_position():
    track = ObjectTrack(shape=(2, 2), path=Scripted(((0, 0), (1, 1))))
    assert object_position(track, 0, (8, 8)) == (0, 0)
    assert object_position(track, 1, (8, 8)) == (1, 1)
    assert object_position(track, 5, (8, 8)) == (1, 1)


def test_object_dropout_hides_whole_object_some_frames():
    scenario = Scenario(
        frame_size=(16, 16),
        frame_count=200,
        objects=(ObjectTrack(shape=(3, 3), path=Stationary((4, 4))),),
        noise=NoiseSpec(object_dropout_probability=0.3),
        seed=2,
    )
    frames = generate(scenario)
    sums = {int(planes[0].sum()) for planes in frames}
    assert sums == {0, 9}


def test_pixel_flip_noise_applied_per_class():
    scenario = Scenario(
        frame_size=(16, 16),
        frame_count=50,
        class_count=2,
        noise=NoiseSpec(pixel_flip_probability=0.1),
        seed=3,
    )
    frames = generate(scenario)
    flips = [int(planes[0].sum() + planes[1].sum()) for planes in frames]
    assert any(f > 0 for f in flips)
    # the two planes see independent draws
    assert any(
        planes[0].sum() != planes[1].sum() for planes in frames
    )


def test_validation_reports_all_problems():
    scenario = Scenario(
        frame_size=(10, 10),
        frame_count=5,
        objects=(
            ObjectTrack(shape=(3, 3), path=Stationary((9, 9))),
            ObjectTrack(shape=(20, 3), path=Stationary((0, 0))),
        ),
        events=(FrameSkip(at=2, count=10), FrameRepeat(at=99, duration=2)),
        noise=NoiseSpec(pixel_flip_probability=0.5, object_dropout_probability=0.0),
    )
    with pytest.raises(ConfigError) as excinfo:
        generate(scenario)
    message = str(excinfo.value)
    assert "object 0" in message
    assert "object 1" in message
    assert "event 0" in message
    assert "event 1" in message


_EVENTS = st.one_of(
    st.builds(FrameRepeat, at=st.integers(0, 19), duration=st.integers(1, 5)),
    st.builds(FrameSkip, at=st.integers(0, 15), count=st.integers(1, 5)),
)


@given(st.lists(_EVENTS, max_size=6))
def test_emitted_count_is_the_number_of_frame_times(events):
    # Overlapping skips, repeats inside a skip and repeats of one frame included.
    scenario = Scenario(frame_size=(4, 4), frame_count=20, events=tuple(events))
    assert _emitted_count(scenario) == len(emitted_frame_times(scenario))
