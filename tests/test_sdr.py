import numpy as np
import pytest
from hypothesis import given, strategies as st

from htmgrid import (
    ContractError,
    EncoderConfig,
    Sdr,
    concatenate,
    encode_frame,
    overlap,
)


def test_overlap_basic():
    a = Sdr(10, [1, 3, 5])
    b = Sdr(10, [3, 5, 7])
    assert overlap(a, b) == 2
    assert overlap(b, a) == 2


def test_overlap_identity():
    a = Sdr(32, [0, 4, 9, 31])
    assert overlap(a, a) == a.active_count


def test_overlap_empty():
    empty = Sdr(10)
    assert overlap(empty, Sdr(10, [0, 1, 2])) == 0


def test_overlap_width_mismatch():
    with pytest.raises(ContractError):
        overlap(Sdr(10, [1]), Sdr(11, [1]))


def test_concatenate_offsets():
    out = concatenate([Sdr(4, [0]), Sdr(4, [1])])
    assert out.width == 8
    assert out.active.tolist() == [0, 5]


def test_concatenate_single_part_identity():
    a = Sdr(7, [2, 6])
    assert concatenate([a]) == a


def test_concatenate_three_parts():
    out = concatenate([Sdr(2, [1]), Sdr(2, [0]), Sdr(2, [1])])
    assert out.width == 6
    assert out.active.tolist() == [1, 2, 5]


def test_concatenate_empty_sequence():
    with pytest.raises(ContractError):
        concatenate([])


def window_bits(bitmap, cell, cell_size):
    """The bits ``encode_frame`` gives one cell of a one-class frame."""
    config = EncoderConfig(frame_size=np.shape(bitmap), cell_size=cell_size,
                           class_count=1, min_sparsity=0,
                           empty_pattern_sparsity=0)
    bits, empty = encode_frame(config, [bitmap])
    assert not empty.any()
    return Sdr.from_dense(bits[cell])


def test_from_bitmap_window_index_arithmetic():
    bitmap = np.zeros((4, 4), dtype=np.uint8)
    bitmap[1, 1] = 1
    out = window_bits(bitmap, (0, 0), (2, 2))
    assert out.width == 4
    assert out.active.tolist() == [3]


def test_from_bitmap_window_zero():
    out = window_bits(np.zeros((4, 4)), (1, 1), (2, 2))
    assert out.width == 4
    assert out.active_count == 0


def test_from_bitmap_window_saturated():
    out = window_bits(np.ones((3, 3)), (0, 0), (3, 3))
    assert out.active.tolist() == list(range(9))


def test_sdr_validation():
    with pytest.raises(ContractError):
        Sdr(0)
    with pytest.raises(ContractError):
        Sdr(4, [4])
    with pytest.raises(ContractError):
        Sdr(4, [-1])
    with pytest.raises(ContractError):
        Sdr(4, [1, 1])


def test_sdr_immutable():
    a = Sdr(4, [1])
    with pytest.raises(AttributeError):
        a.width = 5
    with pytest.raises(ValueError):
        a.active[0] = 2


def test_sparsity_range():
    assert Sdr(10).sparsity() == 0.0
    assert Sdr(10, range(10)).sparsity() == 1.0


def test_dense_round_trip():
    dense = np.array([0, 1, 0, 0, 1, 1], dtype=bool)
    sdr = Sdr.from_dense(dense)
    assert np.array_equal(sdr.to_dense(), dense)


sdr_strategy = st.integers(1, 64).flatmap(
    lambda width: st.builds(
        Sdr,
        st.just(width),
        st.lists(st.integers(0, width - 1), unique=True, max_size=width),
    )
)


@given(sdr_strategy, sdr_strategy)
def test_overlap_bounded_by_smaller_side(a, b):
    if a.width != b.width:
        return
    assert overlap(a, b) <= min(a.active_count, b.active_count)


@given(sdr_strategy, sdr_strategy, sdr_strategy)
def test_concatenate_associative_up_to_flattening(a, b, c):
    nested = concatenate([a, concatenate([b, c])])
    flat = concatenate([a, b, c])
    assert nested == flat


@given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1))
def test_window_injective_on_contents(bits_a, bits_b):
    def bitmap(bits):
        window = np.array(
            [(bits >> i) & 1 for i in range(12)], dtype=np.uint8
        ).reshape(3, 4)
        return window

    sa = Sdr.from_dense(bitmap(bits_a))
    sb = Sdr.from_dense(bitmap(bits_b))
    assert (sa == sb) == (bits_a == bits_b)
