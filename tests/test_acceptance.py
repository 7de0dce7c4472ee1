"""End-to-end behavioral criteria for the engine.

Each test exercises one headline claim on synthetic streams and prints a
single PASS/FAIL line (visible with ``pytest -s``).  Expensive warm-ups are
shared through module-scoped fixtures.
"""

import filecmp
import os

import numpy as np
import pytest

from htmgrid import (
    AggregationKind,
    FrameRepeat,
    FrameSkip,
    GridModel,
    LinearLoop,
    NoiseSpec,
    ObjectTrack,
    Scenario,
    aggregate_mean,
    aggregate_nonzero_mean,
    build_grid_config,
    encode_frame,
    generate,
    moving_average,
    object_position,
)
from htmgrid.cli import main as cli_main
from htmgrid.encoder import EncoderConfig, active_pixel_stats
from tests.conftest import loop_scenario, results_equal


def report(num, name, checks):
    """Print one PASS/FAIL line for a criterion, then assert every check."""
    ok = all(passed for passed, _ in checks)
    detail = "; ".join(text for _, text in checks)
    print(f"[acceptance] criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    for passed, text in checks:
        assert passed, f"criterion {num} ({name}): {text}"


LOOP_OBJECT = ObjectTrack(shape=(6, 6), path=LinearLoop(start=(15, 0), velocity=(0, 3)))
PERIOD = 36 - 6 + 1  # loop period of the 6px blob in a 36px frame
WARM = PERIOD * 50


@pytest.fixture(scope="module")
def warm_n2():
    """Criterion 3's warm-up: 50 loop cycles, multistep history of 2."""
    frames = generate(
        Scenario(frame_size=(36, 36), frame_count=WARM + 301,
                 objects=(LOOP_OBJECT,), seed=11)
    )
    config = build_grid_config(
        (36, 36), (12, 12), seed=3, multistep_n=2,
        aggregation=AggregationKind.NONZERO_MEAN,
    )
    model = GridModel(config)
    warm_results = [model.step(planes) for planes in frames[:WARM]]
    return {
        "snapshot": model.to_bytes(),
        "frames": frames,
        "warm_results": warm_results,
        "config": config,
    }


@pytest.fixture(scope="module")
def warm_n1():
    frames = generate(
        Scenario(frame_size=(36, 36), frame_count=WARM + 301,
                 objects=(LOOP_OBJECT,), seed=11)
    )
    config = build_grid_config(
        (36, 36), (12, 12), seed=3, multistep_n=1,
        aggregation=AggregationKind.NONZERO_MEAN,
    )
    model = GridModel(config)
    for planes in frames[:WARM]:
        model.step(planes)
    return {"snapshot": model.to_bytes(), "frames": frames, "config": config}


def test_criterion_01_aggregation_equations():
    exact = [
        (aggregate_mean([0, 0, 0.5, 1.0]) == 0.375, "mean({0,0,0.5,1})=0.375"),
        (aggregate_nonzero_mean([0, 0, 0.5, 1.0]) == 0.75, "nonzero=0.75"),
        (aggregate_nonzero_mean([0.0, 0.0, 0.0]) == 0.0, "all-zero nonzero=0"),
    ]
    rng = np.random.default_rng(0)
    dominance = True
    zero_invariance = True
    for _ in range(1000):
        scores = rng.random(int(rng.integers(1, 30)))
        scores[rng.random(scores.size) < 0.5] = 0.0
        dominance &= aggregate_nonzero_mean(scores) >= aggregate_mean(scores)
        padded = np.concatenate([scores, np.zeros(int(rng.integers(1, 10)))])
        zero_invariance &= aggregate_nonzero_mean(padded) == aggregate_nonzero_mean(
            scores
        )
    report(
        1,
        "aggregation equations",
        exact
        + [
            (dominance, "nonzero >= mean on 1000 random sets"),
            (zero_invariance, "nonzero invariant under appended zeros"),
        ],
    )


def test_criterion_02_noisy_vs_clean_aggregation():
    blob = ObjectTrack(shape=(6, 6), path=LinearLoop(start=(20, 0), velocity=(0, 3)))
    period = 72 - 6 + 1
    warm = period * 10
    clean = Scenario(frame_size=(72, 72), frame_count=warm + 200,
                     objects=(blob,), seed=7)
    noisy = Scenario(frame_size=(72, 72), frame_count=warm + 200, objects=(blob,),
                     seed=7, noise=NoiseSpec(pixel_flip_probability=0.02))
    clean_frames, noisy_frames = generate(clean), generate(noisy)
    config = build_grid_config((72, 72), (12, 12), seed=5, multistep_n=2)
    model = GridModel(config)
    for planes in clean_frames[:warm]:
        model.step(planes)
    snap = model.to_bytes()

    def medians(frames):
        branch = GridModel.from_bytes(snap)
        nonzero, mean = [], []
        for planes in frames:
            result = branch.step(planes)
            nonzero.append(aggregate_nonzero_mean(result.reported_scores))
            mean.append(aggregate_mean(result.reported_scores))
        return float(np.median(nonzero)), float(np.median(mean))

    nz_clean, mean_clean = medians(clean_frames[warm : warm + 200])
    nz_noisy, mean_noisy = medians(noisy_frames[warm : warm + 200])
    shift_nz = nz_noisy - nz_clean
    shift_mean = mean_noisy - mean_clean
    report(
        2,
        "noisy vs clean aggregation",
        [
            (nz_noisy > nz_clean,
             f"nonzero median {nz_noisy:.3f} > clean {nz_clean:.3f}"),
            (shift_nz > 2.0 * shift_mean,
             f"shift ratio {shift_nz / max(shift_mean, 1e-12):.2f} > 2"),
        ],
    )


def test_criterion_03_sequence_learning_convergence(warm_n2):
    results = warm_n2["warm_results"]
    frame0_mean = float(results[0].raw_scores.mean())
    first_cycle = float(np.mean([r.raw_scores.mean() for r in results[:PERIOD]]))
    final_cycle = float(np.mean([r.raw_scores.mean() for r in results[-PERIOD:]]))
    report(
        3,
        "sequence learning convergence",
        [
            (frame0_mean == 1.0, f"frame 0 mean raw = {frame0_mean} (1.0 at start)"),
            (final_cycle < 0.1,
             f"final cycle mean raw {final_cycle:.4f} < 0.1 "
             f"(first cycle {first_cycle:.3f})"),
        ],
    )


def _freeze_margin(warm):
    frames = warm["frames"]
    freeze_at = WARM
    frozen = generate(
        Scenario(frame_size=(36, 36), frame_count=WARM + 301, objects=(LOOP_OBJECT,),
                 seed=11, events=(FrameRepeat(at=freeze_at, duration=20),))
    )
    pos = object_position(LOOP_OBJECT, freeze_at, (36, 36))
    covered = sorted(
        {(r // 12, c // 12)
         for r in range(pos[0], pos[0] + 6)
         for c in range(pos[1], pos[1] + 6)}
    )
    freeze_model = GridModel.from_bytes(warm["snapshot"])
    freeze_max = 0.0
    for planes in frozen[freeze_at : freeze_at + 20]:
        result = freeze_model.step(planes)
        freeze_max = max(freeze_max, max(result.reported_scores[rc] for rc in covered))
    control_model = GridModel.from_bytes(warm["snapshot"])
    control_max = 0.0
    for planes in frames[freeze_at : freeze_at + 20]:
        result = control_model.step(planes)
        control_max = max(
            control_max, max(result.reported_scores[rc] for rc in covered)
        )
    return freeze_max, control_max


def test_criterion_04_frame_repeat_detection(warm_n2, warm_n1):
    freeze2, control2 = _freeze_margin(warm_n2)
    margin2 = freeze2 - control2
    freeze1, control1 = _freeze_margin(warm_n1)
    margin1 = freeze1 - control1
    report(
        4,
        "frame repeat detection",
        [
            (margin2 >= 0.3,
             f"n=2 margin {margin2:.3f} >= 0.3 "
             f"(freeze {freeze2:.3f} vs control {control2:.3f})"),
            # the single-step variant is recorded, not asserted
            (True, f"n=1 characterization margin {margin1:.3f}"),
        ],
    )


def test_criterion_05_frame_skip_detection(warm_n2):
    skip_at = WARM + 200
    skipped = generate(
        Scenario(frame_size=(36, 36), frame_count=WARM + 301, objects=(LOOP_OBJECT,),
                 seed=11, events=(FrameSkip(at=skip_at, count=100),))
    )
    model = GridModel.from_bytes(warm_n2["snapshot"])
    preceding = [model.step(planes).aggregate for planes in skipped[WARM:skip_at]]
    skip_aggregate = model.step(skipped[skip_at]).aggregate
    p95 = float(np.percentile(preceding, 95))
    report(
        5,
        "frame skip detection",
        [
            (skip_aggregate >= 2.0 * p95,
             f"skip-frame nonzero mean {skip_aggregate:.3f} >= 2 x p95 {p95:.4f}"),
            (skip_aggregate > 0.0, "skip frame scored above zero"),
        ],
    )


def test_criterion_06_transition_suppression():
    frames = generate(loop_scenario(120))
    on = GridModel(build_grid_config((36, 36), (12, 12), seed=3,
                                     suppression_enabled=True))
    off = GridModel(build_grid_config((36, 36), (12, 12), seed=3,
                                      suppression_enabled=False))
    encoder = on.config.encoder
    prev_empty = None
    transitions = 0
    suppressed_ok = True
    raw_positive = 0
    for planes in frames:
        _, empties = encode_frame(encoder, planes)
        result_on = on.step(planes)
        result_off = off.step(planes)
        if prev_empty is not None:
            for r in range(3):
                for c in range(3):
                    entered = any(
                        was and not now
                        for was, now in zip(prev_empty[r, c], empties[r, c])
                    )
                    if entered:
                        transitions += 1
                        suppressed_ok &= result_on.reported_scores[r, c] == 0.0
                        if result_off.raw_scores[r, c] > 0.0:
                            raw_positive += 1
        prev_empty = empties
    report(
        6,
        "transition suppression",
        [
            (transitions > 0, f"{transitions} empty-to-occupied transitions observed"),
            (suppressed_ok, "every transition reported exactly 0 with suppression on"),
            (raw_positive > 0,
             f"{raw_positive} transitions scored raw > 0 with suppression off"),
        ],
    )


def test_criterion_07_active_pixel_variance_reduction():
    frames = generate(
        loop_scenario(200, noise=NoiseSpec(pixel_flip_probability=0.005))
    )
    enabled = EncoderConfig(frame_size=(36, 36), cell_size=(12, 12),
                            min_sparsity=5, empty_pattern_sparsity=5, seed=5)
    disabled = EncoderConfig(frame_size=(36, 36), cell_size=(12, 12),
                             min_sparsity=0, empty_pattern_sparsity=0, seed=5)
    std_on = active_pixel_stats(enabled, frames)[1][1, 0]
    std_off = active_pixel_stats(disabled, frames)[1][1, 0]
    report(
        7,
        "active pixel variance reduction",
        [(std_on < std_off, f"std {std_on:.3f} (floor on) < {std_off:.3f} (off)")],
    )


SCENARIO_TEXT = """
scenario.frame_size = 36x36
scenario.frame_count = 80
scenario.seed = 11
object.0.shape = 6x6
object.0.path = loop
object.0.start = 15,0
object.0.velocity = 0,3
"""


def test_criterion_08_determinism_and_parallel_equivalence(tmp_path):
    scenario_path = tmp_path / "scenario.cfg"
    scenario_path.write_text(SCENARIO_TEXT, encoding="utf-8")
    stream = str(tmp_path / "stream")
    assert cli_main(["generate", str(scenario_path), "--out", stream]) == 0

    def run(prefix):
        config = tmp_path / f"{prefix}.cfg"
        config.write_text(
            f"input = {stream}\n"
            f"aggregation = nonzero_mean\n"
            f"output.scores_csv = {tmp_path / prefix}.csv\n"
            f"output.per_cell = true\n"
            f"output.heatmap_dir = {tmp_path / (prefix + '_heat')}\n"
            f"encoder.frame_size = 36x36\n"
            f"grid.seed = 3\n",
            encoding="utf-8",
        )
        assert cli_main(["run", str(config)]) == 0

    run("a")
    run("b")
    csv_identical = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    heat_names = sorted(os.listdir(tmp_path / "a_heat"))
    ppm_identical = all(
        filecmp.cmp(tmp_path / "a_heat" / n, tmp_path / "b_heat" / n, shallow=False)
        for n in heat_names
    )

    frames = generate(loop_scenario(60))
    config = build_grid_config((36, 36), (12, 12), seed=3)
    seq, par = GridModel(config), GridModel(config)
    parallel_equal = all(
        results_equal(seq.step(planes, workers=1), par.step(planes, workers=4))
        for planes in frames
    )
    report(
        8,
        "determinism and parallel equivalence",
        [
            (csv_identical, "two runs give byte-identical CSV"),
            (ppm_identical, f"{len(heat_names)} heatmap frames byte-identical"),
            (parallel_equal, "workers=4 == workers=1, bit for bit"),
        ],
    )


def test_criterion_09_locality():
    rng = np.random.default_rng(4)
    config = build_grid_config((36, 36), (12, 12), seed=3)
    ma, mb = GridModel(config), GridModel(config)
    identical = True
    for _ in range(80):
        plane = np.zeros((36, 36), dtype=np.uint8)
        plane[14:20, 14:20] = rng.integers(0, 2, (6, 6))
        other = plane.copy()
        other[2:8, 2:8] = rng.integers(0, 2, (6, 6))  # differs only inside cell (0, 0)
        ra, rb = ma.step([plane]), mb.step([other])
        mask = np.ones((3, 3), dtype=bool)
        mask[0, 0] = False
        identical &= bool(np.array_equal(ra.raw_scores[mask], rb.raw_scores[mask]))
    report(
        9,
        "locality",
        [(identical, "raw series identical in every cell outside the edited one")],
    )


def test_criterion_10_snapshot_round_trip():
    frames = generate(loop_scenario(250))
    config = build_grid_config((36, 36), (12, 12), seed=3)
    model = GridModel(config)
    for planes in frames[:150]:
        model.step(planes)
    restored = GridModel.from_bytes(model.to_bytes())
    identical = all(
        results_equal(model.step(planes), restored.step(planes))
        for planes in frames[150:250]
    )
    report(
        10,
        "snapshot round trip",
        [(identical, "100 post-restore frames identical to uninterrupted run")],
    )


def test_criterion_11_temporal_noise_dilution():
    frames = generate(loop_scenario(60))
    drop_at = 40
    dropped = [[plane.copy() for plane in planes] for planes in frames]
    dropped[drop_at][0][:, :] = 0
    config = build_grid_config((36, 36), (12, 12), seed=3, multistep_n=2)
    ma, mb = GridModel(config), GridModel(config)
    for t in range(drop_at + 1):
        ma.step(frames[t])
        mb.step(dropped[t])
    n = config.multistep_n
    boundary = config.default_sp.column_count * (n - 1)
    prefix_ok = True
    fraction_ok = True
    worst = 0.0
    for r in range(3):
        for c in range(3):
            a = set(np.flatnonzero(ma.unit(r, c).history.reshape(-1)).tolist())
            b = set(np.flatnonzero(mb.unit(r, c).history.reshape(-1)).tolist())
            prefix_ok &= {x for x in a if x < boundary} == {
                x for x in b if x < boundary
            }
            if a:
                frac = len(a - b) / len(a)
                worst = max(worst, frac)
                fraction_ok &= frac <= 1.0 / n
            if b:
                frac = len(b - a) / len(b)
                worst = max(worst, frac)
                fraction_ok &= frac <= 1.0 / n
    report(
        11,
        "temporal noise dilution",
        [
            (prefix_ok, "history blocks before the dropout unchanged"),
            (fraction_ok, f"changed active-bit fraction <= 1/{n} (worst {worst:.3f})"),
        ],
    )
