import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from htmgrid import (
    ConfigError,
    ContractError,
    EncoderConfig,
    NoiseSpec,
    Sdr,
    active_pixel_stats,
    empty_pattern,
    encode_frame,
    generate,
)
from tests.conftest import loop_scenario


def make_config(**kwargs):
    defaults = dict(frame_size=(24, 24), cell_size=(12, 12), seed=5)
    defaults.update(kwargs)
    return EncoderConfig(**defaults)


def frame_with(count, where=(0, 0)):
    plane = np.zeros((24, 24), dtype=np.uint8)
    r0, c0 = where
    placed = 0
    for r in range(12):
        for c in range(12):
            if placed >= count:
                break
            plane[r0 + r, c0 + c] = 1
            placed += 1
    return plane


def test_sparse_cell_gets_empty_pattern():
    config = make_config(min_sparsity=5)
    bits, empty = encode_frame(config, [frame_with(3)])
    assert empty[0, 0].tolist() == [True]
    assert Sdr.from_dense(bits[0, 0]) == empty_pattern(config, 0)


def test_boundary_count_passes_through():
    config = make_config(min_sparsity=5)
    bits, empty = encode_frame(config, [frame_with(5)])
    assert empty[0, 0].tolist() == [False]
    assert np.count_nonzero(bits[0, 0]) == 5
    assert Sdr.from_dense(bits[0, 0]) != empty_pattern(config, 0)


def test_grid_shape_by_division():
    config = EncoderConfig(frame_size=(120, 120), cell_size=(12, 12))
    bits, empty = encode_frame(config, [np.zeros((120, 120), dtype=np.uint8)])
    assert bits.shape == (10, 10, 144) and bits.dtype == bool
    assert empty.shape == (10, 10, 1) and empty.dtype == bool


def test_window_bits_are_row_major_per_class():
    # 2x2 cells of a 4x4 frame, two classes, no empty-pattern substitution
    config = EncoderConfig(frame_size=(4, 4), cell_size=(2, 2), class_count=2,
                           min_sparsity=0, empty_pattern_sparsity=0)
    first = np.zeros((4, 4), dtype=np.uint8)
    first[0, 1] = 1
    first[2:, 2:] = 255
    bits, empty = encode_frame(config, [first, np.ones((4, 4))])
    assert np.flatnonzero(bits[0, 0]).tolist() == [1, 4, 5, 6, 7]
    assert np.flatnonzero(bits[0, 1]).tolist() == [4, 5, 6, 7]
    assert np.flatnonzero(bits[1, 1]).tolist() == list(range(8))
    assert not empty.any()


def window_oracle(config, planes):
    """``encode_frame`` by slicing one window at a time."""
    cr, cc = config.cell_size
    grows, gcols = config.grid_shape
    bits = np.zeros((grows, gcols, config.class_count * cr * cc), dtype=bool)
    empty = np.zeros((grows, gcols, config.class_count), dtype=bool)
    for r in range(grows):
        for c in range(gcols):
            parts = []
            for k, plane in enumerate(planes):
                window = [bool(plane[r * cr + i, c * cc + j])
                          for i in range(cr) for j in range(cc)]
                if sum(window) < config.min_sparsity:
                    empty[r, c, k] = True
                    window = empty_pattern(config, k).to_dense().tolist()
                parts.extend(window)
            bits[r, c] = parts
    return bits, empty


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_encode_frame_matches_window_oracle(data):
    cr, cc, grows, gcols = (data.draw(st.integers(1, 4)) for _ in range(4))
    classes = data.draw(st.integers(1, 3))
    config = EncoderConfig(
        frame_size=(grows * cr, gcols * cc),
        cell_size=(cr, cc),
        class_count=classes,
        min_sparsity=data.draw(st.integers(0, cr * cc + 1)),
        empty_pattern_sparsity=data.draw(st.integers(0, cr * cc)),
        seed=data.draw(st.integers(0, 2**16)),
    )
    plane = arrays(np.uint8, config.frame_size, elements=st.sampled_from([0, 1, 7, 255]))
    planes = [data.draw(plane) for _ in range(classes)]
    bits, empty = encode_frame(config, planes)
    want_bits, want_empty = window_oracle(config, planes)
    assert np.array_equal(empty, want_empty)
    assert np.array_equal(bits, want_bits)


def test_uneven_frame_rejected():
    config = EncoderConfig(frame_size=(25, 24), cell_size=(12, 12))
    with pytest.raises(ConfigError):
        encode_frame(config, [np.zeros((25, 24))])


def test_plane_count_and_size_validated():
    config = make_config(class_count=2)
    with pytest.raises(ContractError):
        encode_frame(config, [np.zeros((24, 24))])
    with pytest.raises(ContractError):
        encode_frame(config, [np.zeros((24, 24)), np.zeros((24, 23))])


def test_empty_pattern_properties():
    config = make_config(empty_pattern_sparsity=5)
    pattern = empty_pattern(config, 0)
    assert pattern.width == 144
    assert pattern.active_count == 5
    # stable across calls, distinct per class, seed-dependent
    assert pattern == empty_pattern(config, 0)
    assert pattern != empty_pattern(config, 1)
    other_seed = make_config(seed=6)
    assert pattern != empty_pattern(other_seed, 0)


def test_empty_pattern_shared_across_cells_and_frames():
    config = make_config()
    frames = [
        [frame_with(2, where=(0, 0))],
        [frame_with(1, where=(12, 12))],
    ]
    encoded = [encode_frame(config, planes) for planes in frames]
    sdrs = {
        Sdr.from_dense(bits[r, c])
        for bits, empty in encoded
        for r in range(2)
        for c in range(2)
        if empty[r, c, 0]
    }
    assert sdrs == {empty_pattern(config, 0)}


def test_encoding_is_deterministic():
    config = make_config(class_count=2)
    rng = np.random.default_rng(0)
    planes = [rng.integers(0, 2, (24, 24)).astype(np.uint8) for _ in range(2)]
    first = encode_frame(config, planes)
    second = encode_frame(config, planes)
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


@settings(max_examples=25)
@given(st.integers(0, 143), st.integers(0, 2**32 - 1))
def test_fixed_dimensionality_and_floor(count, rng_seed):
    config = make_config(min_sparsity=5, empty_pattern_sparsity=5)
    rng = np.random.default_rng(rng_seed)
    plane = np.zeros((24, 24), dtype=np.uint8)
    cells = rng.choice(144, size=count, replace=False)
    plane[cells // 12, cells % 12] = 1
    cell = encode_frame(config, [plane])[0][0, 0]
    assert cell.size == 144
    assert np.count_nonzero(cell) >= min(
        config.empty_pattern_sparsity, config.min_sparsity
    )


def test_stats_constant_empty_stream():
    config = make_config(empty_pattern_sparsity=5)
    frames = [[np.zeros((24, 24), dtype=np.uint8)] for _ in range(10)]
    mean, std = active_pixel_stats(config, frames)
    assert mean.shape == std.shape == (2, 2)
    assert (mean == 5.0).all()
    assert (std == 0.0).all()


def test_stats_substitution_arithmetic():
    config = make_config(min_sparsity=5, empty_pattern_sparsity=5)
    frames = [[frame_with(4)], [frame_with(7)]]
    mean, std = active_pixel_stats(config, frames)
    assert mean[0, 0] == 6.0
    assert std[0, 0] == 1.0
    assert mean[1, 1] == 5.0  # the other cells sit at the empty floor


def test_stats_requires_frames():
    with pytest.raises(ContractError):
        active_pixel_stats(make_config(), [])


def test_stats_sum_class_planes():
    config = make_config(class_count=2, min_sparsity=5, empty_pattern_sparsity=3)
    frames = [[frame_with(7), frame_with(2)]]
    mean, _ = active_pixel_stats(config, frames)
    assert mean.tolist() == [[10.0, 6.0], [6.0, 6.0]]


def test_empty_pattern_reduces_count_variance_on_traffic():
    # the same noisy stream measured with and without the emptiness floor
    scenario = loop_scenario(
        200, noise=NoiseSpec(pixel_flip_probability=0.005)
    )
    frames = generate(scenario)
    enabled = EncoderConfig(
        frame_size=(36, 36), cell_size=(12, 12), min_sparsity=5,
        empty_pattern_sparsity=5, seed=5,
    )
    disabled = EncoderConfig(
        frame_size=(36, 36), cell_size=(12, 12), min_sparsity=0,
        empty_pattern_sparsity=0, seed=5,
    )
    std_on = active_pixel_stats(enabled, frames)[1][1, 0]
    std_off = active_pixel_stats(disabled, frames)[1][1, 0]
    assert std_on < std_off
