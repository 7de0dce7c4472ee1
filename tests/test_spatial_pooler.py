import numpy as np
import pytest

from htmgrid import ConfigError, ContractError, Sdr, SpParams, SpatialPooler, overlap
from tests.conftest import states_equal


def make_params(**kwargs):
    defaults = dict(input_width=144, column_count=128, active_columns=8, seed=5)
    defaults.update(kwargs)
    return SpParams(**defaults)


def test_construction_is_deterministic():
    a, b = SpatialPooler(make_params()), SpatialPooler(make_params())
    assert np.array_equal(a.pools, b.pools)
    assert np.array_equal(a.permanences, b.permanences)


def test_pool_size_matches_fraction():
    sp = SpatialPooler(make_params(potential_fraction=0.85))
    assert sp.pool_size == round(0.85 * 144)
    # every pool is a distinct subset of the input
    assert np.all(np.diff(sp.pools, axis=1) > 0)
    assert sp.pools.min() >= 0 and sp.pools.max() < 144


def test_full_potential_fraction_pools_everything():
    sp = SpatialPooler(make_params(potential_fraction=1.0))
    assert np.array_equal(sp.pools, np.tile(np.arange(144), (128, 1)))


def test_single_column_degenerate_grid():
    sp = SpatialPooler(make_params(column_count=1, active_columns=1))
    out = sp.compute(Sdr(144, range(40)), learn=False)
    assert out.active.tolist() == [0]


def test_active_columns_cap_validated():
    with pytest.raises(ConfigError):
        SpatialPooler(make_params(column_count=4, active_columns=5))


def test_width_mismatch():
    sp = SpatialPooler(make_params())
    with pytest.raises(ContractError):
        sp.compute(Sdr(100, [1]), learn=False)


def test_all_zero_input_gives_empty_output():
    sp = SpatialPooler(make_params(stimulus_threshold=1))
    out = sp.compute(Sdr(144), learn=True)
    assert out.active_count == 0


def test_compute_is_pure_without_learning():
    sp = SpatialPooler(make_params())
    x = Sdr(144, range(0, 30))
    first = sp.compute(x, learn=False)
    second = sp.compute(x, learn=False)
    assert first == second
    assert sp.step_count == 0


def test_output_sparsity_bound():
    sp = SpatialPooler(make_params())
    rng = np.random.default_rng(0)
    for _ in range(50):
        active = np.sort(rng.choice(144, 30, replace=False))
        out = sp.compute(Sdr(144, active), learn=True)
        assert out.active_count <= 8
    # a rich input makes enough columns eligible to fill the quota
    out = sp.compute(Sdr(144, range(144)), learn=False)
    assert out.active_count == 8


def test_permanences_stay_bounded_under_learning():
    sp = SpatialPooler(make_params(permanence_increment=0.3, permanence_decrement=0.2))
    rng = np.random.default_rng(1)
    for _ in range(300):
        active = np.sort(rng.choice(144, rng.integers(0, 60), replace=False))
        sp.compute(Sdr(144, active), learn=True)
    assert sp.permanences.min() >= 0.0
    assert sp.permanences.max() <= 1.0


def test_replay_reproduces_bit_identical_state():
    rng = np.random.default_rng(7)
    inputs = [
        Sdr(144, np.sort(rng.choice(144, 25, replace=False))) for _ in range(100)
    ]
    a, b = SpatialPooler(make_params()), SpatialPooler(make_params())
    outs_a = [a.compute(x, learn=True) for x in inputs]
    outs_b = [b.compute(x, learn=True) for x in inputs]
    assert outs_a == outs_b
    assert np.array_equal(a.permanences, b.permanences)


def test_similar_inputs_map_closer_than_disjoint_inputs():
    # 90% shared active bits vs fully disjoint, 100 learning presentations each
    rng = np.random.default_rng(0)
    base = np.sort(rng.choice(144, 30, replace=False))
    spare = np.setdiff1d(np.arange(144), base)
    similar_a = Sdr(144, base)
    similar_b = Sdr(144, np.sort(np.concatenate([base[:27], spare[:3]])))
    assert overlap(similar_a, similar_b) / 30 >= 0.9
    disjoint_a = Sdr(144, np.arange(0, 30))
    disjoint_b = Sdr(144, np.arange(40, 70))

    sp_sim, sp_dis = SpatialPooler(make_params()), SpatialPooler(make_params())
    for _ in range(100):
        sp_sim.compute(similar_a, learn=True)
        sp_sim.compute(similar_b, learn=True)
        sp_dis.compute(disjoint_a, learn=True)
        sp_dis.compute(disjoint_b, learn=True)
    sim_overlap = overlap(
        sp_sim.compute(similar_a, learn=False), sp_sim.compute(similar_b, learn=False)
    )
    dis_overlap = overlap(
        sp_dis.compute(disjoint_a, learn=False), sp_dis.compute(disjoint_b, learn=False)
    )
    assert sim_overlap > dis_overlap


def test_boosting_disabled_means_no_duty_cycle_movement():
    sp = SpatialPooler(make_params(boosting_enabled=False))
    for _ in range(20):
        sp.compute(Sdr(144, range(30)), learn=True)
    assert np.all(sp.duty_cycles == 0.0)


def test_boosting_enabled_rotates_winners_on_constant_input():
    sp = SpatialPooler(make_params(boosting_enabled=True, boost_strength=10.0))
    seen = set()
    for _ in range(80):
        out = sp.compute(Sdr(144, range(30)), learn=True)
        seen.update(out.active.tolist())
    # duty-cycle pressure forces column turnover that a plain pooler avoids
    assert len(seen) > 8


def test_snapshot_round_trip_bit_exact():
    sp = SpatialPooler(make_params())
    rng = np.random.default_rng(3)
    inputs = [Sdr(144, np.sort(rng.choice(144, 20, replace=False))) for _ in range(30)]
    for x in inputs:
        sp.compute(x, learn=True)
    restored = SpatialPooler.__new__(SpatialPooler)
    restored.load_state_dict(sp.state_dict())
    assert states_equal(restored.state_dict(), sp.state_dict())
    for x in inputs:
        assert restored.compute(x, learn=True) == sp.compute(x, learn=True)


def test_loaded_state_is_not_shared_with_its_source():
    sp = SpatialPooler(make_params(boosting_enabled=True))
    rng = np.random.default_rng(19)
    inputs = [Sdr(144, np.sort(rng.choice(144, 20, replace=False))) for _ in range(20)]
    for x in inputs[:10]:
        sp.compute(x, learn=True)
    state = sp.state_dict()
    permanences, duty_cycles = state["permanences"].copy(), state["duty_cycles"].copy()
    restored = SpatialPooler.__new__(SpatialPooler)
    restored.load_state_dict(state)
    for x in inputs[10:]:
        restored.compute(x, learn=True)
    assert np.array_equal(state["permanences"], permanences)
    assert np.array_equal(state["duty_cycles"], duty_cycles)
