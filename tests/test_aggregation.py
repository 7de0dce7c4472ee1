import numpy as np
import pytest
from hypothesis import given, strategies as st

from htmgrid import (
    AggregationKind,
    ConfigError,
    ContractError,
    aggregate,
    aggregate_mean,
    aggregate_nonzero_mean,
)
from tests.conftest import moving_average


def test_mean_examples():
    assert aggregate_mean([0, 0, 0.5, 1.0]) == 0.375
    assert aggregate_mean([0, 0, 0]) == 0.0
    assert aggregate_mean([1.0]) == 1.0


def test_nonzero_mean_examples():
    assert aggregate_nonzero_mean([0, 0, 0.5, 1.0]) == 0.75
    assert aggregate_nonzero_mean([0.0, 0.0]) == 0.0
    assert aggregate_nonzero_mean([0.2]) == 0.2


def test_empty_collection_rejected():
    with pytest.raises(ContractError):
        aggregate_mean([])
    with pytest.raises(ContractError):
        aggregate_nonzero_mean([])


def test_aggregate_dispatch():
    scores = [0, 0.4]
    assert aggregate(AggregationKind.MEAN, scores) == aggregate_mean(scores)
    assert aggregate(AggregationKind.NONZERO_MEAN, scores) == aggregate_nonzero_mean(
        scores
    )


def test_moving_average_identity_window():
    series = [0.3, 0.9, 0.1]
    assert moving_average(series, 1).tolist() == series


def test_moving_average_constant_series():
    out = moving_average([0.7] * 10, 4)
    assert np.allclose(out, 0.7)


def test_moving_average_warmup():
    out = moving_average([0, 0, 1, 1], 2)
    assert out.tolist() == [0.0, 0.0, 0.5, 1.0]


def test_moving_average_zero_window():
    with pytest.raises(ConfigError):
        moving_average([1.0], 0)


scores_strategy = st.lists(
    st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=40
)


@given(scores_strategy)
def test_nonzero_mean_dominates_mean(scores):
    assert aggregate_nonzero_mean(scores) >= aggregate_mean(scores)


@given(scores_strategy, st.integers(1, 20))
def test_nonzero_mean_invariant_under_appended_zeros(scores, zeros):
    padded = scores + [0.0] * zeros
    assert aggregate_nonzero_mean(padded) == aggregate_nonzero_mean(scores)


# Without subnormal scores: the mean of [0.0, 5e-324] rounds to the same value
# with a zero appended, so the strict inequality does not hold there.
normal_scores = st.lists(
    st.floats(0.0, 1.0, allow_nan=False, allow_subnormal=False), min_size=1, max_size=40
)


@given(normal_scores.filter(lambda s: any(v > 0 for v in s)), st.integers(1, 20))
def test_mean_not_invariant_under_appended_zeros(scores, zeros):
    padded = scores + [0.0] * zeros
    assert aggregate_mean(padded) < aggregate_mean(scores)


@given(scores_strategy, st.integers(1, 10))
def test_moving_average_bounded_by_input(scores, window):
    out = moving_average(scores, window)
    assert out.min() >= min(scores) - 1e-12
    assert out.max() <= max(scores) + 1e-12
    assert out.size == len(scores)
