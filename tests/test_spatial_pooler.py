from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from htmgrid import ConfigError, ContractError, Sdr, SpParams, SpatialPooler
from tests.conftest import PerCellPooler, dense, states_equal


def make_params(**kwargs):
    defaults = dict(input_width=144, column_count=128, active_columns=8, seed=5)
    defaults.update(kwargs)
    return SpParams(**defaults)


def pooler(**kwargs) -> SpatialPooler:
    """A group of one cell."""
    return SpatialPooler([make_params(**kwargs)])


def step(sp: SpatialPooler, bits: np.ndarray, learn: bool) -> np.ndarray:
    """The winners of a group of one for a 1-D input."""
    return sp.compute(bits[None], learn)[0]


def test_construction_is_deterministic():
    a, b = pooler().unit_state(0), pooler().unit_state(0)
    assert np.array_equal(a["pools"], b["pools"])
    assert np.array_equal(a["permanences"], b["permanences"])


def test_pool_size_matches_fraction():
    sp = pooler(potential_fraction=0.85)
    pools, pool_size = sp.unit_state(0)["pools"], sp.params[0].pool_size
    assert pool_size == round(0.85 * 144)
    assert pools.shape == (128, pool_size)
    # every pool is a distinct subset of the input
    assert np.all(np.diff(pools, axis=1) > 0)
    assert pools.min() >= 0 and pools.max() < 144


def test_full_potential_fraction_pools_everything():
    pools = pooler(potential_fraction=1.0).unit_state(0)["pools"]
    assert np.array_equal(pools, np.tile(np.arange(144), (128, 1)))


def test_single_column_degenerate_grid():
    sp = pooler(column_count=1, active_columns=1)
    out = step(sp, dense(144, range(40)), learn=False)
    assert out.dtype == bool and out.tolist() == [True]


def test_active_columns_cap_validated():
    with pytest.raises(ConfigError):
        pooler(column_count=4, active_columns=5)


def test_group_cells_differ_only_in_seed():
    with pytest.raises(ContractError, match="differ only in seed"):
        SpatialPooler([make_params(), make_params(seed=6, stimulus_threshold=2)])
    with pytest.raises(ContractError, match="differ only in seed"):
        SpatialPooler([])


@pytest.mark.parametrize("bits", [
    np.zeros((1, 100), dtype=bool),
    np.ones((1, 144), dtype=np.uint8),
    np.zeros((2, 144), dtype=bool),
    np.zeros(144, dtype=bool),
    [[False] * 144],
    Sdr(144, [1]),
], ids=["wrong-length", "uint8-row", "2-d", "1-d", "list", "sdr"])
def test_width_mismatch(bits):
    # A group of one takes one row of 144 bits.
    sp = pooler()
    with pytest.raises(ContractError, match=r"sp input must be bool of shape \(1, 144\)"):
        sp.compute(bits, learn=False)


CONNECTED = [1, 2, 2, 2, 1, 2, 2, 4, 2, 4]


def fixed_overlaps(**kwargs) -> SpatialPooler:
    """Ten columns that pool all 4 bits: an all-one input overlaps column c by ``CONNECTED[c]``."""
    params = make_params(input_width=4, column_count=10, active_columns=4,
                         potential_fraction=1.0, **kwargs)
    permanences = (np.arange(4) < np.array(CONNECTED)[:, None]) * 0.5
    return SpatialPooler([params], {"pools": np.tile(np.arange(4), (1, 10, 1)),
                                    "permanences": permanences[None],
                                    "duty_cycles": np.zeros((1, 10)),
                                    "step_counts": np.zeros(1, dtype=np.int64)})


def test_columns_tied_at_the_last_place_go_to_the_lowest_indices():
    # Columns 7 and 9 lead; six columns tie for the last two places, and 1 and 2 take them.
    out = step(fixed_overlaps(), np.ones(4, dtype=bool), learn=False)
    assert np.flatnonzero(out).tolist() == [1, 2, 7, 9]


def test_fewer_eligible_columns_than_active_columns_all_win_alone():
    # Only columns 7 and 9 reach the threshold of 3, so 2 of the 4 places are filled.
    out = step(fixed_overlaps(stimulus_threshold=3), np.ones(4, dtype=bool), learn=False)
    assert np.flatnonzero(out).tolist() == [7, 9]


def test_all_zero_input_gives_empty_output():
    sp = pooler(stimulus_threshold=1)
    out = step(sp, dense(144), learn=True)
    assert not out.any()


def test_compute_is_pure_without_learning():
    sp = pooler()
    x = dense(144, range(0, 30))
    first = step(sp, x, learn=False)
    second = step(sp, x, learn=False)
    assert np.array_equal(first, second)
    assert sp.unit_state(0)["step_count"] == 0


def test_output_sparsity_bound():
    sp = pooler()
    rng = np.random.default_rng(0)
    for _ in range(50):
        active = np.sort(rng.choice(144, 30, replace=False))
        out = step(sp, dense(144, active), learn=True)
        assert np.count_nonzero(out) <= 8
    # a rich input makes enough columns eligible to fill the quota
    out = step(sp, dense(144, range(144)), learn=False)
    assert np.count_nonzero(out) == 8


def test_permanences_stay_bounded_under_learning():
    sp = pooler(permanence_increment=0.3, permanence_decrement=0.2)
    rng = np.random.default_rng(1)
    for _ in range(300):
        active = np.sort(rng.choice(144, rng.integers(0, 60), replace=False))
        step(sp, dense(144, active), learn=True)
    assert sp.permanences[0].min() >= 0.0
    assert sp.permanences[0].max() <= 1.0


def test_replay_reproduces_bit_identical_state():
    rng = np.random.default_rng(7)
    inputs = [
        dense(144, np.sort(rng.choice(144, 25, replace=False))) for _ in range(100)
    ]
    a, b = pooler(), pooler()
    outs_a = [step(a, x, learn=True) for x in inputs]
    outs_b = [step(b, x, learn=True) for x in inputs]
    assert np.array_equal(outs_a, outs_b)
    assert np.array_equal(a.permanences[0], b.permanences[0])


def test_similar_inputs_map_closer_than_disjoint_inputs():
    # 90% shared active bits vs fully disjoint, 100 learning presentations each
    rng = np.random.default_rng(0)
    base = np.sort(rng.choice(144, 30, replace=False))
    spare = np.setdiff1d(np.arange(144), base)
    similar_a = dense(144, base)
    similar_b = dense(144, np.sort(np.concatenate([base[:27], spare[:3]])))
    assert np.count_nonzero(similar_a & similar_b) / 30 >= 0.9
    disjoint_a = dense(144, np.arange(0, 30))
    disjoint_b = dense(144, np.arange(40, 70))

    sp_sim, sp_dis = pooler(), pooler()
    for _ in range(100):
        step(sp_sim, similar_a, learn=True)
        step(sp_sim, similar_b, learn=True)
        step(sp_dis, disjoint_a, learn=True)
        step(sp_dis, disjoint_b, learn=True)
    sim_overlap = np.count_nonzero(
        step(sp_sim, similar_a, learn=False) & step(sp_sim, similar_b, learn=False)
    )
    dis_overlap = np.count_nonzero(
        step(sp_dis, disjoint_a, learn=False) & step(sp_dis, disjoint_b, learn=False)
    )
    assert sim_overlap > dis_overlap


def test_boosting_disabled_means_no_duty_cycle_movement():
    sp = pooler(boosting_enabled=False)
    for _ in range(20):
        step(sp, dense(144, range(30)), learn=True)
    assert np.all(sp.duty_cycles == 0.0)


def test_boosting_enabled_rotates_winners_on_constant_input():
    sp = pooler(boosting_enabled=True, boost_strength=10.0)
    seen = set()
    for _ in range(80):
        out = step(sp, dense(144, range(30)), learn=True)
        seen.update(np.flatnonzero(out).tolist())
    # duty-cycle pressure forces column turnover that a plain pooler avoids
    assert len(seen) > 8


def test_snapshot_round_trip_bit_exact():
    sp = pooler()
    rng = np.random.default_rng(3)
    inputs = [dense(144, np.sort(rng.choice(144, 20, replace=False))) for _ in range(30)]
    for x in inputs:
        step(sp, x, learn=True)
    restored = SpatialPooler(sp.params, sp.state_dict())
    assert states_equal(restored.state_dict(), sp.state_dict())
    assert np.array_equal(restored.connected, sp.connected)
    for x in inputs:
        assert np.array_equal(step(restored, x, learn=True), step(sp, x, learn=True))


def test_loaded_state_is_not_shared_with_its_source():
    sp = pooler(boosting_enabled=True)
    rng = np.random.default_rng(19)
    inputs = [dense(144, np.sort(rng.choice(144, 20, replace=False))) for _ in range(20)]
    for x in inputs[:10]:
        step(sp, x, learn=True)
    state = sp.state_dict()
    permanences, duty_cycles = state["permanences"].copy(), state["duty_cycles"].copy()
    restored = SpatialPooler(sp.params, state)
    for x in inputs[10:]:
        step(restored, x, learn=True)
    assert np.array_equal(state["permanences"], permanences)
    assert np.array_equal(state["duty_cycles"], duty_cycles)


def test_unit_state_reads_the_group_in_place():
    group = SpatialPooler([make_params(seed=s, boosting_enabled=True) for s in (1, 2, 3)])
    cell = group.unit_state(1)
    group.compute(np.ones((3, 144), dtype=bool), learn=True)
    assert np.shares_memory(cell["permanences"], group.permanences[1])
    assert group.unit_state(1)["step_count"] == 1
    assert np.shares_memory(cell["duty_cycles"], group.duty_cycles)
    assert cell["duty_cycles"].any()


def test_stacked_groups_step_as_one_group():
    params = [make_params(seed=s) for s in (4, 5, 6)]
    rng = np.random.default_rng(2)
    inputs = [rng.random((3, 144)) < 0.2 for _ in range(10)]
    whole = SpatialPooler(params)
    parts = [SpatialPooler(params[:1]).state_dict(), SpatialPooler(params[1:]).state_dict()]
    stacked = SpatialPooler(params, {name: np.concatenate([part[name] for part in parts])
                                     for name in SpatialPooler.ARRAYS})
    for bits in inputs:
        assert np.array_equal(whole.compute(bits, True), stacked.compute(bits, True))
    assert states_equal(whole.state_dict(), stacked.state_dict())
    assert np.array_equal(whole.connected, stacked.connected)


@st.composite
def pooler_runs(draw):
    """A group of 1-12 cells with random seeds, and inputs for a few steps."""
    width = draw(st.integers(1, 40))
    columns = draw(st.integers(1, 24))
    boosting = draw(st.booleans())
    base = SpParams(
        input_width=width,
        column_count=columns,
        active_columns=draw(st.integers(1, columns)),
        potential_fraction=draw(st.sampled_from([0.3, 0.85, 1.0])),
        connected_threshold=draw(st.sampled_from([0.1, 0.2, 0.5])),
        permanence_increment=draw(st.sampled_from([0.05, 0.3])),
        permanence_decrement=draw(st.sampled_from([0.0, 0.008, 0.2])),
        stimulus_threshold=draw(st.integers(0, 3)),
        boosting_enabled=boosting,
    )
    if boosting:
        # The strongest boost the width accepts ranks unused columns near the float limit.
        strength = draw(st.sampled_from([0.5, 2.0, None]))
        base = replace(base, boost_strength=base.max_boost_strength if strength is None
                       else strength)
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=12))
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        # All-zero, sparse, dense and all-one rows mixed in one step, so a cell's active
        # bits may start or end the group's or be none; narrow inputs tie overlaps.
        densities = draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0]),
                                  min_size=len(seeds), max_size=len(seeds)))
        seed = draw(st.integers(0, 2**32 - 1))
        noise = np.random.default_rng(seed).random((len(seeds), width))
        steps.append((noise < np.array(densities)[:, None], draw(st.booleans())))
    return [replace(base, seed=s) for s in seeds], steps


@settings(max_examples=80, deadline=None)
@given(pooler_runs())
def test_group_matches_per_cell_oracle(run):
    params, steps = run
    group = SpatialPooler(params)
    oracles = [PerCellPooler(p) for p in params]
    for bits, learn in steps:
        got = group.compute(bits, learn)
        want = [oracle.compute(row, learn) for oracle, row in zip(oracles, bits)]
        assert np.array_equal(got, np.array(want))
        # Learning rewrites only the crossed mask entries; a rebuilt mask must agree.
        assert np.array_equal(group.connected,
                              SpatialPooler(group.params, group.state_dict()).connected)
    for i, oracle in enumerate(oracles):
        cell = group.unit_state(i)
        assert np.array_equal(cell["pools"], oracle.pools)
        assert np.array_equal(cell["permanences"], oracle.permanences)
        assert np.array_equal(cell["duty_cycles"], oracle.duty_cycles)
        assert cell["step_count"] == oracle.step_count
