import filecmp
import os
import re
import shutil
import stat

import numpy as np
import pytest

from htmgrid import ContractError, GridModel, SnapshotError, runner, snapshot
from htmgrid.cli import main
from htmgrid.config import parse_run_config
from htmgrid.grid import SNAPSHOT_KIND, SNAPSHOT_VERSION
from htmgrid.imageio import read_mask_sequence, read_ppm, write_mask_sequence

SCENARIO = """
scenario.frame_size = 36x36
scenario.frame_count = 80
scenario.seed = 11
object.0.shape = 6x6
object.0.path = loop
object.0.start = 15,0
object.0.velocity = 0,3
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_config_text(stream_dir, out_prefix):
    return f"""
input = {stream_dir}
aggregation = nonzero_mean
smoothing_window = 20
output.scores_csv = {out_prefix}.csv
output.per_cell = true
output.heatmap_dir = {out_prefix}_heat
output.snapshot = {out_prefix}.snap
encoder.frame_size = 36x36
grid.seed = 3
"""


@pytest.fixture(scope="module")
def stream_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scenario = write(root / "scenario.cfg", SCENARIO)
    out = str(root / "stream")
    assert main(["generate", scenario, "--out", out]) == 0
    return out


def test_generate_writes_stream_layout(stream_dir):
    assert os.path.isdir(os.path.join(stream_dir, "0"))
    names = sorted(os.listdir(os.path.join(stream_dir, "0")))
    assert names[0] == "00000000.pbm"
    assert len(names) == 80


def test_run_outputs_and_determinism(tmp_path, stream_dir):
    # Files of the user's under the names older versions staged outputs under.
    users = {"a.csv.tmp": b"mine\n", "a_heat.tmp/notes.txt": b"keep\n", "a.snap.tmp": b"\x00"}
    (tmp_path / "a_heat.tmp").mkdir()
    for name, data in users.items():
        (tmp_path / name).write_bytes(data)
    config_a = write(tmp_path / "a.cfg", run_config_text(stream_dir, tmp_path / "a"))
    config_b = write(tmp_path / "b.cfg", run_config_text(stream_dir, tmp_path / "b"))
    assert main(["run", config_a]) == 0
    assert main(["run", config_b]) == 0
    for name, data in users.items():
        assert (tmp_path / name).read_bytes() == data
    assert os.listdir(tmp_path / "a_heat.tmp") == ["notes.txt"]
    # The outputs have the mode a plain open gives, not a temporary file's 0600.
    with open(tmp_path / "plain", "w", encoding="utf-8"):
        pass
    mode = stat.S_IMODE((tmp_path / "plain").stat().st_mode)
    for name in ("a.csv", "a.snap", "a_heat/00000000.ppm"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode

    csv_a = (tmp_path / "a.csv").read_text().splitlines()
    assert csv_a[0].startswith("frame,aggregate,aggregate_smoothed,cell_r0_c0")
    assert len(csv_a) == 81  # header + one row per frame
    assert csv_a == (tmp_path / "b.csv").read_text().splitlines()

    heat_a = sorted(os.listdir(tmp_path / "a_heat"))
    assert len(heat_a) == 80
    for name in heat_a:
        assert filecmp.cmp(
            tmp_path / "a_heat" / name, tmp_path / "b_heat" / name, shallow=False
        )
    assert (tmp_path / "a.snap").read_bytes() == (tmp_path / "b.snap").read_bytes()


def test_failed_stream_keeps_the_previous_csv(tmp_path, stream_dir):
    # Frame 30's PBM loses its payload, so the run fails part way through.
    broken = tmp_path / "stream"
    shutil.copytree(stream_dir, broken)
    frame = broken / "0" / "00000030.pbm"
    frame.write_bytes(frame.read_bytes()[:-20])
    csv = tmp_path / "scores.csv"
    csv.write_text("frame,aggregate\n0,0.5\n", encoding="utf-8")
    before = csv.read_bytes()
    # An older run's heatmap of frame 0, which this run would replace.
    heat = tmp_path / "heat"
    heat.mkdir()
    old_frame = heat / "00000000.ppm"
    old_frame.write_bytes(b"P6\n1 1\n255\n\x00\xff\x00")
    # The second run reads every frame, but its snapshot's directory is
    # missing: the snapshot commits first, so no output of the run is kept.
    missing = tmp_path / "missing" / "model.snap"
    failures = [(broken, tmp_path / "model.snap", ContractError, "truncated"),
                (stream_dir, missing, FileNotFoundError, re.escape(str(missing)))]
    for stream, snapshot_out, error, message in failures:
        config = parse_run_config(f"input = {stream}\nencoder.frame_size = 36x36\n"
                                  f"output.scores_csv = {csv}\noutput.per_cell = true\n"
                                  f"output.heatmap_dir = {heat}\n"
                                  f"output.snapshot = {snapshot_out}\n")
        with pytest.raises(error, match=message):
            runner.run(config)
        assert csv.read_bytes() == before
        assert os.listdir(heat) == ["00000000.ppm"]
        assert old_frame.read_bytes() == b"P6\n1 1\n255\n\x00\xff\x00"
        assert sorted(os.listdir(tmp_path)) == ["heat", "scores.csv", "stream"]


def test_failed_run_leaves_the_heatmap_dir_it_made_empty(tmp_path, stream_dir):
    # The frames are staged inside heatmap_dir, so a run creates it, and any
    # missing parent, before its first frame; a failed run keeps it, empty.
    broken = tmp_path / "stream"
    shutil.copytree(stream_dir, broken)
    frame = broken / "0" / "00000030.pbm"
    frame.write_bytes(frame.read_bytes()[:-20])
    heat = tmp_path / "out" / "heat"
    config = parse_run_config(f"input = {broken}\nencoder.frame_size = 36x36\n"
                              f"output.heatmap_dir = {heat}\n")
    with pytest.raises(ContractError, match="truncated"):
        runner.run(config)
    assert os.listdir(heat) == []
    assert sorted(os.listdir(tmp_path)) == ["out", "stream"]
    assert os.listdir(tmp_path / "out") == ["heat"]


def test_failed_generate_leaves_no_stream_and_an_empty_stream_fails(tmp_path):
    # A sequence whose last frame has the wrong plane count makes no directory.
    plane = np.zeros((36, 36), dtype=np.uint8)
    stream = tmp_path / "stream"
    with pytest.raises(ContractError, match="frame 5 has 1 planes, expected 2"):
        write_mask_sequence(stream, [[plane, plane] for _ in range(5)] + [[plane]])
    assert os.listdir(tmp_path) == []
    # Class directories that hold no frame are not a stream of 0 frames: the
    # run fails before it writes any output over the old ones.
    (stream / "0").mkdir(parents=True)
    (stream / "1").mkdir()
    csv, snap = tmp_path / "scores.csv", tmp_path / "model.snap"
    csv.write_text("frame,aggregate\n0,0.5\n", encoding="utf-8")
    text = "encoder.frame_size = 36x36\nencoder.class_count = 2\n"
    GridModel(parse_run_config(f"input = {stream}\n{text}").grid).save(snap)
    before = csv.read_bytes(), snap.read_bytes()
    config = parse_run_config(f"input = {stream}\n{text}"
                              f"output.scores_csv = {csv}\noutput.snapshot = {snap}\n")
    with pytest.raises(ContractError, match="hold no frame"):
        runner.run(config)
    assert (csv.read_bytes(), snap.read_bytes()) == before
    assert sorted(os.listdir(tmp_path)) == ["model.snap", "scores.csv", "stream"]


def test_run_with_calibration_discards_rows(tmp_path, stream_dir):
    config = write(
        tmp_path / "cal.cfg",
        run_config_text(stream_dir, tmp_path / "cal") + "calibration_frames = 80\n",
    )
    assert main(["run", config]) == 0
    lines = (tmp_path / "cal.csv").read_text().splitlines()
    assert len(lines) == 1  # header only
    assert os.path.exists(tmp_path / "cal.snap")


def test_run_accepts_scenario_file_as_input(tmp_path):
    scenario = write(tmp_path / "scn.cfg", SCENARIO)
    config = write(
        tmp_path / "run.cfg",
        f"input = {scenario}\nencoder.frame_size = 36x36\n"
        f"output.scores_csv = {tmp_path / 'scn.csv'}\n",
    )
    assert main(["run", config]) == 0
    assert len((tmp_path / "scn.csv").read_text().splitlines()) == 81


def test_run_set_overrides(tmp_path, stream_dir, capsys):
    config = write(tmp_path / "o.cfg", run_config_text(stream_dir, tmp_path / "o"))
    assert main(["run", config, "--set", "calibration_frames=79"]) == 0
    capsys.readouterr()
    lines = (tmp_path / "o.csv").read_text().splitlines()
    assert len(lines) == 2


def test_resume_from_snapshot(tmp_path, stream_dir):
    first = write(tmp_path / "r1.cfg", run_config_text(stream_dir, tmp_path / "r1"))
    assert main(["run", first]) == 0
    resumed = write(
        tmp_path / "r2.cfg",
        run_config_text(stream_dir, tmp_path / "r2")
        + f"resume = {tmp_path / 'r1.snap'}\n",
    )
    assert main(["run", resumed]) == 0
    rows = (tmp_path / "r2.csv").read_text().splitlines()
    assert len(rows) == 81


def test_per_cell_csv_fields_are_the_reported_scores(tmp_path, stream_dir):
    text = run_config_text(stream_dir, tmp_path / "p")
    config = write(tmp_path / "p.cfg", text)
    assert main(["run", config]) == 0
    rows = (tmp_path / "p.csv").read_text().splitlines()[1:]
    model = GridModel(parse_run_config(text).grid)
    for row, planes in zip(rows, read_mask_sequence(stream_dir), strict=True):
        fields = [float(v) for v in row.split(",")]
        result = model.step(planes)
        assert fields[0] == result.frame_index
        assert fields[1:3] == [result.aggregate, result.aggregate_smoothed]
        assert fields[3:] == result.reported_scores.reshape(-1).tolist()


def test_resume_follows_the_snapshot_geometry(tmp_path, stream_dir):
    first = write(tmp_path / "g1.cfg", run_config_text(stream_dir, tmp_path / "g1"))
    assert main(["run", first]) == 0  # 12x12 cells: a 3x3 grid
    resumed = write(
        tmp_path / "g2.cfg",
        run_config_text(stream_dir, tmp_path / "g2")
        + f"resume = {tmp_path / 'g1.snap'}\nencoder.cell_size = 6x6\n",
    )
    assert main(["run", resumed]) == 0
    lines = (tmp_path / "g2.csv").read_text().splitlines()
    assert len(lines[0].split(",")) == 3 + 9
    assert all(len(line.split(",")) == 3 + 9 for line in lines[1:])
    image = read_ppm(tmp_path / "g2_heat" / "00000080.ppm")
    assert image.shape == (36, 36, 3)


def test_snapshot_info(tmp_path, stream_dir, capsys):
    config = write(tmp_path / "i.cfg", run_config_text(stream_dir, tmp_path / "i"))
    assert main(["run", config]) == 0
    capsys.readouterr()
    assert main(["snapshot-info", str(tmp_path / "i.snap")]) == 0
    out = capsys.readouterr().out
    assert "kind: grid-model" in out
    assert "grid: 3x3" in out
    assert "frames_processed: 80" in out


def test_snapshot_info_sums_every_cell_group(tmp_path, stream_dir, capsys):
    # Cell (1, 2) pools through 64 columns, so the model steps two groups.
    text = run_config_text(stream_dir, tmp_path / "g") + "cell.1.2.sp.column_count = 64\n"
    assert main(["run", write(tmp_path / "g.cfg", text)]) == 0
    capsys.readouterr()
    assert main(["snapshot-info", str(tmp_path / "g.snap")]) == 0
    lines = capsys.readouterr().out.splitlines()
    model = GridModel.load(tmp_path / "g.snap")
    segments = sum(len(unit.tm.state_dict()["segments"]) for row in model.units for unit in row)
    assert segments > 0
    assert "sp_columns: [64, 128]" in lines
    assert f"tm_segments_total: {segments}" in lines


def test_stats_subcommand(tmp_path, stream_dir, capsys):
    config = write(tmp_path / "s.cfg", run_config_text(stream_dir, tmp_path / "s"))
    assert main(["stats", config, "--cell", "0,0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "cell_row,cell_col,mean,std"
    row = out[1].split(",")
    assert row[:2] == ["0", "0"]
    assert float(row[2]) == 5.0  # never-visited cell sits at the empty floor
    assert float(row[3]) == 0.0


def test_stats_all_cells(tmp_path, stream_dir, capsys):
    config = write(tmp_path / "s2.cfg", run_config_text(stream_dir, tmp_path / "s2"))
    assert main(["stats", config]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 + 9


def test_bad_config_fails_with_diagnostic(tmp_path, stream_dir, capsys):
    config = write(tmp_path / "bad.cfg", "input = x\nencoder.frame_size = 35x36\n")
    assert main(["run", config]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "multiple" in err


def test_missing_input_fails(tmp_path, capsys):
    config = write(
        tmp_path / "missing.cfg",
        "input = /nonexistent/stream\nencoder.frame_size = 36x36\n",
    )
    assert main(["run", config]) == 1
    assert "/nonexistent/stream" in capsys.readouterr().err


def test_stream_frame_size_mismatch_fails(tmp_path, stream_dir, capsys):
    # the stream on disk and the scenario file are 36x36 but the encoder
    # expects 48x48; the run fails on the stream's first frame, or on the
    # scenario file before it is generated, before any output exists
    scenario = write(tmp_path / "scn.cfg", SCENARIO)
    for source, problem in [(stream_dir, "shape"), (scenario, "scenario frame size (36, 36) "
                                                              "!= encoder frame size (48, 48)")]:
        config = write(
            tmp_path / "mismatch.cfg",
            f"input = {source}\nencoder.frame_size = 48x48\n"
            f"output.scores_csv = {tmp_path / 'm.csv'}\n"
            f"output.heatmap_dir = {tmp_path / 'm_heat'}\n"
            f"output.snapshot = {tmp_path / 'm.snap'}\n",
        )
        assert main(["run", config]) == 1
        assert problem in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "m.csv")
        assert not os.path.exists(tmp_path / "m_heat")
        assert not os.path.exists(tmp_path / "m.snap")


def test_resume_with_mismatched_unit_widths_writes_nothing(tmp_path, stream_dir):
    grid = parse_run_config(run_config_text(stream_dir, "unused")).grid
    header, arrays = GridModel(grid).state_dict()
    arrays["sp0.pools"] = arrays["sp0.pools"][:, :, :-1]
    snap = tmp_path / "bad.snap"
    snap.write_bytes(snapshot.pack(SNAPSHOT_KIND, SNAPSHOT_VERSION, header, arrays))
    run_config = parse_run_config(
        run_config_text(stream_dir, tmp_path / "w") + f"resume = {snap}\n"
    )
    with pytest.raises(SnapshotError, match=r"cells \(0, 0\), \(0, 1\), \(0, 2\) and 6 more: "
                                            r"sp pools must be integers of shape"):
        runner.run(run_config)
    assert not os.path.exists(tmp_path / "w.csv")
    assert not os.path.exists(tmp_path / "w_heat")
    assert not os.path.exists(tmp_path / "w.snap")


def test_resume_with_an_extra_history_entry_writes_nothing(tmp_path, stream_dir):
    grid = parse_run_config(run_config_text(stream_dir, "unused")).grid
    header, arrays = GridModel(grid).state_dict()
    arrays["sp0.history"] = np.zeros((9, 3, 128), dtype=bool)
    snap = tmp_path / "extra.snap"
    snap.write_bytes(snapshot.pack(SNAPSHOT_KIND, SNAPSHOT_VERSION, header, arrays))
    run_config = parse_run_config(
        run_config_text(stream_dir, tmp_path / "h") + f"resume = {snap}\n"
    )
    with pytest.raises(SnapshotError, match=r"cells \(0, 0\).*: history ring must be bool"):
        runner.run(run_config)
    assert not os.path.exists(tmp_path / "h.csv")
    assert not os.path.exists(tmp_path / "h_heat")
    assert not os.path.exists(tmp_path / "h.snap")


def test_stats_bad_cell_argument(tmp_path, stream_dir, capsys):
    config = write(tmp_path / "bad_cell.cfg", run_config_text(stream_dir, tmp_path / "x"))
    assert main(["stats", config, "--cell", "nope"]) == 1
    assert "ROW,COL" in capsys.readouterr().err


def test_stats_cell_outside_grid_fails(tmp_path, stream_dir, capsys):
    config = write(tmp_path / "far_cell.cfg", run_config_text(stream_dir, tmp_path / "x"))
    assert main(["stats", config, "--cell", "5,0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "outside the 3x3 grid" in err


@pytest.mark.parametrize("extra", ["", "cell.0.0.sp.active_columns = 6\n"],
                         ids=["defaults", "cell-override"])
def test_negative_grid_seed_fails_with_diagnostic(tmp_path, stream_dir, capsys, extra):
    config = write(tmp_path / "neg.cfg", run_config_text(stream_dir, tmp_path / "n") + extra)
    assert main(["run", config, "--set", "grid.seed=-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "grid seed must be non-negative" in err
    assert not os.path.exists(tmp_path / "n.csv")


def test_negative_scenario_seed_fails_with_diagnostic(tmp_path, capsys):
    scenario = write(tmp_path / "neg.scn", SCENARIO + "noise.pixel_flip = 0.01\n")
    out = tmp_path / "neg_stream"
    assert main(["generate", scenario, "--out", str(out), "--set", "scenario.seed=-2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "seed must be non-negative" in err
    assert not os.path.exists(out)


def test_corrupt_snapshot_info_fails(tmp_path, capsys):
    path = tmp_path / "junk.snap"
    path.write_bytes(b"not a snapshot at all")
    assert main(["snapshot-info", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_version_1_snapshot_info_fails(tmp_path, stream_dir, capsys):
    grid = parse_run_config(run_config_text(stream_dir, "unused")).grid
    path = tmp_path / "v1.snap"
    path.write_bytes(snapshot.pack(SNAPSHOT_KIND, 1, *GridModel(grid).state_dict()))
    assert main(["snapshot-info", str(path)]) == 1
    captured = capsys.readouterr()
    assert "version: 1" in captured.out
    assert captured.err.startswith("error:")
    assert "snapshot version 1, expected 3" in captured.err


@pytest.mark.parametrize("payload", [{}, {"config": 1}], ids=["empty", "config-int"])
def test_malformed_snapshot_info_fails(tmp_path, capsys, payload):
    path = tmp_path / "malformed.snap"
    path.write_bytes(snapshot.pack(SNAPSHOT_KIND, SNAPSHOT_VERSION, payload, {}))
    assert main(["snapshot-info", str(path)]) == 1
    assert "not a grid model" in capsys.readouterr().err


def test_csv_aggregate_rises_during_repeat(tmp_path):
    # paired runs over the same learned stream, one with a frozen window;
    # the freeze is placed a full cycle past warm-up so it lands where the
    # object sits cleanly inside one cell
    period = 36 - 6 + 1
    warm = period * 20
    freeze_at = warm + period
    total = warm + 2 * period + 40
    base = SCENARIO.replace("scenario.frame_count = 80",
                            f"scenario.frame_count = {total}")
    repeat = base + (
        f"event.0.kind = repeat\nevent.0.at = {freeze_at}\nevent.0.duration = 20\n"
    )
    aggregates = {}
    for name, text in [("plain", base), ("repeat", repeat)]:
        scn = write(tmp_path / f"{name}.scn", text)
        stream = str(tmp_path / name)
        assert main(["generate", scn, "--out", stream]) == 0
        config = write(
            tmp_path / f"{name}.cfg",
            f"input = {stream}\nencoder.frame_size = 36x36\ngrid.seed = 3\n"
            f"aggregation = nonzero_mean\ncalibration_frames = {warm}\n"
            f"output.scores_csv = {tmp_path / name}.csv\n",
        )
        assert main(["run", config]) == 0
        rows = (tmp_path / f"{name}.csv").read_text().splitlines()[1:]
        aggregates[name] = {
            int(r.split(",")[0]): float(r.split(",")[1]) for r in rows
        }
    window = range(freeze_at, freeze_at + 20)
    rise = np.mean([aggregates["repeat"][i] for i in window])
    control = np.mean([aggregates["plain"][i] for i in window])
    assert rise > control


def test_heatmap_frames_match_reported_scores(tmp_path, stream_dir):
    config = write(tmp_path / "h.cfg", run_config_text(stream_dir, tmp_path / "h"))
    assert main(["run", config]) == 0
    image = read_ppm(tmp_path / "h_heat" / "00000000.ppm")
    assert image.shape == (36, 36, 3)
    # frame 0 is fully anomalous: every cell pure red
    assert np.all(image[:, :, 0] == 255)
    assert np.all(image[:, :, 1] == 0)
