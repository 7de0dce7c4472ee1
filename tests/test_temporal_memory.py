import copy

import numpy as np
import pytest

from htmgrid import ContractError, Sdr, TemporalMemory, TmParams
from tests.conftest import dense, states_equal


def make_tm(width=36, seed=1, **kwargs):
    return TemporalMemory(TmParams(column_count=width, seed=seed, **kwargs))


A = dense(36, range(0, 12))
B = dense(36, range(12, 24))
C = dense(36, range(24, 36))


def test_first_step_is_fully_anomalous():
    tm = make_tm()
    assert tm.compute(A, learn=True).anomaly_score == 1.0


def test_empty_input_scores_zero():
    tm = make_tm()
    assert tm.compute(dense(36), learn=True).anomaly_score == 0.0
    tm.compute(A, learn=True)
    assert tm.compute(dense(36), learn=True).anomaly_score == 0.0


@pytest.mark.parametrize("columns", [
    np.zeros(35, dtype=bool),
    np.ones(36, dtype=np.uint8),
    np.zeros((1, 36), dtype=bool),
    [False] * 36,
    Sdr(36, [0]),
], ids=["wrong-length", "uint8-row", "2-d", "list", "sdr"])
def test_width_mismatch(columns):
    tm = make_tm()
    with pytest.raises(ContractError, match=r"tm active columns must be bool of shape \(36,\)"):
        tm.compute(columns, learn=True)
    assert tm.step_count == 0


def test_input_is_only_read():
    # The grid hands the TM a view of its history ring, so compute must not write it.
    tm = make_tm()
    for pattern in (A, B, C) * 20:
        view = pattern.view()
        view.setflags(write=False)
        tm.compute(view, learn=True)


def test_cycle_converges_to_zero_anomaly():
    tm = make_tm()
    scores = []
    for _ in range(50):
        for pattern in (A, B, C):
            scores.append(tm.compute(pattern, learn=True).anomaly_score)
    assert all(s == 0.0 for s in scores[-3:]), scores[-3:]
    assert all(s == 0.0 for s in scores[-30:])
    assert scores[0] == 1.0


def test_constant_input_converges_and_stays():
    tm = make_tm()
    scores = [tm.compute(A, learn=True).anomaly_score for _ in range(200)]
    assert sum(scores[-150:]) == 0.0


def test_anomaly_matches_unpredicted_fraction():
    tm = make_tm()
    rng = np.random.default_rng(2)
    for _ in range(200):
        active = np.sort(rng.choice(36, 12, replace=False))
        predicted_cols = (
            np.unique(tm.predictive_cells // tm.params.cells_per_column)
            if tm.predictive_cells.size
            else np.empty(0, dtype=np.int64)
        )
        expected = np.setdiff1d(active, predicted_cols).size / active.size
        result = tm.compute(dense(36, active), learn=True)
        assert result.anomaly_score == expected
        assert 0.0 <= result.anomaly_score <= 1.0
        assert result.active_column_count == 12


def test_determinism_bit_identical_state():
    rng = np.random.default_rng(5)
    inputs = [dense(36, np.sort(rng.choice(36, 12, replace=False))) for _ in range(150)]
    a, b = make_tm(), make_tm()
    scores_a = [a.compute(x, learn=True).anomaly_score for x in inputs]
    scores_b = [b.compute(x, learn=True).anomaly_score for x in inputs]
    assert scores_a == scores_b
    assert states_equal(a.state_dict(), b.state_dict())


def test_fast_learn_slow_forget():
    # a learned cycle survives 1000 steps of unrelated traffic on other columns
    A2, B2, C2 = (dense(72, range(k, k + 12)) for k in (0, 12, 24))
    tm = make_tm(width=72)
    for _ in range(50):
        for p in (A2, B2, C2):
            tm.compute(p, learn=True)
    rng = np.random.default_rng(9)
    for _ in range(1000):
        active = 36 + np.sort(rng.choice(36, 12, replace=False))
        tm.compute(dense(72, active), learn=True)
    replay = [
        tm.compute(p, learn=False).anomaly_score for p in (A2, B2, C2, A2, B2, C2)
    ]
    control = make_tm(width=72)
    control_scores = [
        control.compute(p, learn=False).anomaly_score
        for p in (A2, B2, C2, A2, B2, C2)
    ]
    assert np.mean(replay) < 1.0
    assert np.mean(replay) < np.mean(control_scores)


def test_contextual_loop_characterization():
    # Train a two-state alternation, then hold the input constant.  Whenever
    # the held pattern was among the previous step's predictions, its repeat
    # scores 0: the memory keeps re-entering the state it just left, so a
    # "frozen" input does not register as anomalous on those steps.
    tm = make_tm()
    for _ in range(50):
        tm.compute(A, learn=True)
        tm.compute(B, learn=True)
    predicted_zero_pairs = 0
    for _ in range(12):
        if tm.predictive_cells.size:
            predicted_cols = np.unique(
                tm.predictive_cells // tm.params.cells_per_column
            )
        else:
            predicted_cols = np.empty(0, dtype=np.int64)
        fully_predicted = bool(np.isin(np.flatnonzero(A), predicted_cols).all())
        score = tm.compute(A, learn=True).anomaly_score
        if fully_predicted:
            assert score == 0.0
            predicted_zero_pairs += 1
    assert predicted_zero_pairs > 0


def test_segment_and_synapse_caps_respected():
    params = TmParams(
        column_count=36,
        max_segments_per_cell=4,
        max_synapses_per_segment=8,
        seed=1,
    )
    tm = TemporalMemory(params)
    rng = np.random.default_rng(11)
    for _ in range(500):
        active = np.sort(rng.choice(36, 12, replace=False))
        tm.compute(dense(36, active), learn=True)
    segments = tm.state_dict()["segments"]
    assert segments
    assert np.bincount([seg["cell"] for seg in segments]).max() <= 4
    assert all(seg["presyn"].size <= 8 for seg in segments)


def test_predictive_column_count_reported():
    tm = make_tm()
    for _ in range(10):
        tm.compute(A, learn=True)
    result = tm.compute(A, learn=True)
    assert result.predictive_column_count > 0
    assert result.predictive_column_count <= 36


def test_snapshot_round_trip_continues_bit_identically():
    tm = make_tm()
    rng = np.random.default_rng(13)
    inputs = [dense(36, np.sort(rng.choice(36, 12, replace=False))) for _ in range(120)]
    for x in inputs[:60]:
        tm.compute(x, learn=True)
    restored = TemporalMemory.__new__(TemporalMemory)
    restored.load_state_dict(tm.state_dict(), tm.params)
    assert states_equal(restored.state_dict(), tm.state_dict())
    for x in inputs[60:]:
        assert restored.compute(x, learn=True) == tm.compute(x, learn=True)
    assert states_equal(restored.state_dict(), tm.state_dict())


def test_loaded_state_is_not_shared_with_its_source():
    tm = make_tm()
    rng = np.random.default_rng(17)
    inputs = [dense(36, np.sort(rng.choice(36, 12, replace=False))) for _ in range(80)]
    for x in inputs[:40]:
        tm.compute(x, learn=True)
    state = tm.state_dict()
    before = copy.deepcopy(state)
    restored = TemporalMemory.__new__(TemporalMemory)
    restored.load_state_dict(state, tm.params)
    for x in inputs[40:]:
        restored.compute(x, learn=True)
    assert states_equal(state, before)


def test_segment_store_invariants_hold_between_steps():
    # Caps low enough that segments are evicted and synapses die every few
    # steps, so rows are marked, appended and compacted throughout.
    tm = make_tm(cells_per_column=2, max_segments_per_cell=2,
                 max_synapses_per_segment=6, permanence_decrement=0.1,
                 predicted_decrement=0.3)
    rng = np.random.default_rng(23)
    for _ in range(300):
        tm.compute(dense(36, np.sort(rng.choice(36, 12, replace=False))), learn=True)
        n = tm.segment_count
        assert np.all(np.diff(tm.seg_ids[:n]) > 0)
        assert np.all(tm.seg_cells[:n] >= 0)
        assert np.array_equal(
            tm.cell_segment_counts, np.bincount(tm.seg_cells[:n], minlength=72)
        )
        synapse = np.arange(6) < tm.seg_lens[:, None]
        assert np.all((tm.presyn >= 0) == synapse)
        assert np.all(tm.seg_lens[n:] == 0)
    assert tm.next_segment_id > tm.segment_count


def _update_one_synapse_at_a_time(tm, adapted, punished, prev_active):
    """Reference for the masked update: the permanence rule row by row."""
    p = tm.params
    alive = []
    for row in [*adapted, *punished]:
        reinforce = row in adapted
        kept = []
        for j in range(tm.seg_lens[row]):
            cell, perm, when = tm.presyn[row, j], tm.perm[row, j], tm.last_reinforced[row, j]
            if cell in prev_active and reinforce:
                perm, when = perm + p.permanence_increment, tm.step_count
            elif cell in prev_active:
                perm = perm - p.predicted_decrement
            elif reinforce:
                perm = perm - p.permanence_decrement
            if perm > 0.0:
                kept.append((cell, min(perm, 1.0), when))
        tm.presyn[row] = -1
        for j, (cell, perm, when) in enumerate(kept):
            tm.presyn[row, j], tm.perm[row, j], tm.last_reinforced[row, j] = cell, perm, when
        tm.seg_lens[row] = len(kept)
        if reinforce:
            tm.seg_last_used[row] = tm.step_count
            alive.append(bool(kept))
        if not kept:
            tm.cell_segment_counts[tm.seg_cells[row]] -= 1
            tm.seg_cells[row] = -1
    return alive


def test_masked_update_matches_the_per_row_rule():
    tm = make_tm(cells_per_column=2, max_synapses_per_segment=10,
                 permanence_decrement=0.1, predicted_decrement=1.0)
    rng = np.random.default_rng(29)
    for _ in range(150):
        tm.compute(dense(36, np.sort(rng.choice(36, 12, replace=False))), learn=True)
    rows = rng.permutation(tm.segment_count)
    third = rows.size // 3
    adapted, punished = np.sort(rows[:third]), np.sort(rows[third : 2 * third])
    prev_active = set(rng.choice(tm.total_cells, 36, replace=False).tolist())
    # Every synapse of one adapted row near the ceiling and of one punished
    # row is a hit: the first clamps at 1, the second loses all of them.
    for row in (adapted[0], punished[0]):
        prev_active |= set(tm.presyn[row, : tm.seg_lens[row]].tolist())
    tm.perm[adapted[0]] = 0.95
    reference = copy.deepcopy(tm)
    lens = tm.seg_lens.copy()

    alive = tm._update_permanences(adapted, punished, tm._cell_lut(list(prev_active)))
    expected = _update_one_synapse_at_a_time(reference, adapted.tolist(),
                                             punished.tolist(), prev_active)
    assert alive.tolist() == expected
    assert states_equal(tm.state_dict(), reference.state_dict())
    assert np.array_equal(tm.cell_segment_counts, reference.cell_segment_counts)
    # Synapse removal, segment destruction and the clamp all happened.
    assert np.any((tm.seg_lens < lens) & (tm.seg_lens > 0))
    assert np.all(tm.perm[adapted[0], : tm.seg_lens[adapted[0]]] == 1.0)
    assert np.any(tm.seg_cells[: tm.segment_count] < 0)
