"""Frozen golden trace of the engine.

A seeded two-class scenario with pixel-flip noise and object dropouts runs
through a small grid whose temporal-memory caps are lowered so that every
learning path fires: segment eviction at ``max_segments_per_cell``, synapse
eviction at ``max_synapses_per_segment``, synapse removal at zero
permanence, and segment destruction when a punished segment loses its last
synapse.  The digests below were recorded before the temporal memory's
segment store was rewritten; a refactor that claims identical behaviour must
keep them.  A change that alters behaviour on purpose re-records them and
says why.

A second trace runs the benchmark's basic scene shape (36x36 frame, a 3x3
grid of 12x12 cells) at the default temporal-memory parameters, so
``new_synapse_count = 15`` samples from the previous winners and rows grow
to their 32-synapse cap.  Its digests were recorded before learning was
batched across the rows of a step.

The snapshot digests pin the bytes of a saved model.  They were re-recorded
when snapshot version 2 dropped the state a load can derive, and again when
version 3 replaced the pickle payload with a JSON header and raw arrays.
Those bytes name no numpy module, so they are checked under numpy 1 and 2.
The state digests hash the model's ``state_dict()`` with the arrays that a
load derives from it, read from the layer groups.  They were re-recorded
when they stopped reading per-cell views, and they cover more than those
views did: each pooler group's connected mask, and the header as JSON.
"""

import hashlib
import json

import numpy as np
import pytest

from htmgrid import GridModel, build_grid_config
from htmgrid.config import parse_run_config, parse_scenario_config
from htmgrid.runner import run
from htmgrid.scenario import generate

SCENARIO = """
scenario.frame_size = 36x36
scenario.frame_count = 120
scenario.class_count = 2
scenario.seed = 7
noise.pixel_flip = 0.01
noise.object_dropout = 0.05
object.0.shape = 6x6
object.0.class = 0
object.0.path = loop
object.0.start = 15,0
object.0.velocity = 0,3
object.1.shape = 8x4
object.1.class = 1
object.1.path = loop
object.1.start = 0,20
object.1.velocity = 2,-1
"""

RUN = """
input = {scenario}
output.scores_csv = {csv}
output.per_cell = true
output.snapshot = {snap}
encoder.frame_size = 36x36
encoder.class_count = 2
grid.seed = 5
tm.cells_per_column = 2
tm.max_segments_per_cell = 2
tm.max_synapses_per_segment = 12
tm.permanence_increment = 0.04
tm.permanence_decrement = 0.1
tm.predicted_decrement = 0.3
"""

LEARN_FRAMES = 100  # the stepped pass scores the last 20 frames with learn=False

GOLDEN = {
    "raw_scores": (
        "e8295365f5d6c3225a285b532443f1e1"
        "6c07f6fdb6507d8719c47016433d9c3f"
    ),
    "certainty": (
        "a463dcd10f34a782cb53617a55728c27"
        "a86424d1bb6ed56c9a101693ba555bac"
    ),
    "stepped_to_bytes": (
        "74e0a5115adb07b032911ad5afea140a"
        "390d12eacc84f2407f879d861cc7f7a1"
    ),
    "csv": (
        "0b6fd5310e8dac52cba401110e3c63fa"
        "b4b262d8860efcb4084ad465696568fe"
    ),
    "run_snapshot": (
        "384ed11de8a7d37059e05f2a3e62605f"
        "196c79ff5be71045dff6cd83e9f45c83"
    ),
    "fresh_to_bytes": (
        "f4143b6f86201a8f918577f01a4f604e"
        "9c8c44190a463f644b23f7292fc69e75"
    ),
    "state": (
        "49581605bb767f985329461f1bb2da21"
        "f2c129daf5bd0d514ea2f3abe50117f7"
    ),
}

DEFAULT_SCENARIO = """
scenario.frame_size = 36x36
scenario.frame_count = 120
scenario.seed = 3
noise.pixel_flip = 0.002
object.0.shape = 7x7
object.0.path = loop
object.0.start = 4,9
object.0.velocity = 2,3
object.1.shape = 7x7
object.1.path = loop
object.1.start = 20,17
object.1.velocity = 3,-2
"""

GOLDEN_DEFAULT = {
    "raw_scores": (
        "ec7ad80630776f99524582a806dc8bbe"
        "50f183feb927603f24464644d1a22317"
    ),
    "certainty": (
        "25838bcf3623cc990dcbfb84ea98ec57"
        "80d3675faa23cf7d4ebf545940a634aa"
    ),
    "to_bytes": (
        "051300fd507fc5fc9c84b739465b8bba"
        "9328c109d348cbc0df4e8be44b727954"
    ),
    "state": (
        "6c8b1f2bc720f878e85363cbe09fd562"
        "c2c431a6ff7f08ae01798afc84ffd861"
    ),
}

def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def state_digest(model) -> str:
    """Digest of a model's state: its snapshot header and arrays, and each group's derived arrays.

    The arrays are hashed in name order with their dtypes and shapes.  The
    derived ones (each memory group's potential counts, segment counts per
    cell, predictive cells and segment activity, and each pooler group's
    connected mask) are rebuilt by a load, so a reloaded model must match.
    """
    digest = hashlib.sha256()

    def put(name, array):
        array = np.ascontiguousarray(array)
        digest.update(f"{name} {array.dtype.str} {array.shape}".encode())
        digest.update(array.tobytes())

    header, arrays = model.state_dict()
    digest.update(json.dumps(header, sort_keys=True).encode())
    for name in sorted(arrays):
        put(name, arrays[name])
    for g, (_, pooler, memory, _) in enumerate(model._groups):
        put(f"sp{g}.connected", pooler.connected)
        put(f"tm{g}.seg_potential", memory.seg_potential[: memory.segment_count])
        for name in ("cell_segment_counts", "predictive_cells", "active_segments",
                     "matching_segments"):
            put(f"tm{g}.{name}", getattr(memory, name))
    return digest.hexdigest()


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    scenario_path = root / "scenario.cfg"
    scenario_path.write_text(SCENARIO, encoding="utf-8")
    run_config = parse_run_config(
        RUN.format(scenario=scenario_path, csv=root / "scores.csv",
                   snap=root / "model.snap")
    )
    fresh = GridModel(run_config.grid)
    out = {"fresh_to_bytes": sha(fresh.to_bytes())}

    scores, certainty = hashlib.sha256(), hashlib.sha256()
    model = GridModel(run_config.grid)
    for t, planes in enumerate(generate(parse_scenario_config(SCENARIO))):
        result = model.step(planes, learn=t < LEARN_FRAMES)
        scores.update(result.raw_scores.tobytes())
        certainty.update(result.certainty.tobytes())
    out["raw_scores"] = scores.hexdigest()
    out["certainty"] = certainty.hexdigest()
    out["stepped_to_bytes"] = sha(model.to_bytes())
    out["state"] = state_digest(model)
    out["reloaded_state"] = state_digest(GridModel.from_bytes(model.to_bytes()))

    summary = run(run_config)
    assert summary.rows_written == 120
    out["csv"] = sha((root / "scores.csv").read_bytes())
    out["run_snapshot"] = sha((root / "model.snap").read_bytes())
    out["learned"] = summary.model
    out["run_snapshot_bytes"] = (root / "model.snap").read_bytes()
    return out


def test_trace_exercises_every_learning_path(trace):
    # Cells at 2 segments and segments at 12 synapses sit at the caps, and
    # ids past the live count show that segments were evicted or destroyed.
    model = trace["learned"]
    full_cells = full_segments = created = live = 0
    for row in model.units:
        for unit in row:
            state, p = unit.tm.state_dict(), unit.tm.params
            cells = np.bincount([s["cell"] for s in state["segments"]],
                                minlength=p.column_count * p.cells_per_column)
            full_cells += int(np.count_nonzero(cells == 2))
            full_segments += sum(s["presyn"].size == 12 for s in state["segments"])
            created += state["next_segment_id"]
            live += len(state["segments"])
    assert full_cells > 0
    assert full_segments > 0
    assert created > live


@pytest.mark.parametrize("name", ["raw_scores", "certainty", "csv"])
def test_trace_matches_golden(trace, name):
    assert trace[name] == GOLDEN[name]


def test_state_matches_golden(trace):
    assert trace["state"] == GOLDEN["state"]
    assert trace["reloaded_state"] == trace["state"]


@pytest.mark.parametrize(
    "name", ["stepped_to_bytes", "run_snapshot", "fresh_to_bytes"]
)
def test_snapshot_bytes_match_golden(trace, name):
    assert trace[name] == GOLDEN[name]


def test_snapshot_reloads_to_the_same_bytes(trace):
    data = trace["run_snapshot_bytes"]
    assert GridModel.from_bytes(data).to_bytes() == data


@pytest.fixture(scope="module")
def default_trace():
    model = GridModel(build_grid_config((36, 36), (12, 12), 1))
    scores, certainty = hashlib.sha256(), hashlib.sha256()
    for planes in generate(parse_scenario_config(DEFAULT_SCENARIO)):
        result = model.step(planes, learn=True)
        scores.update(result.raw_scores.tobytes())
        certainty.update(result.certainty.tobytes())
    return {"raw_scores": scores.hexdigest(), "certainty": certainty.hexdigest(),
            "to_bytes": sha(model.to_bytes()), "state": state_digest(model),
            "reloaded_state": state_digest(GridModel.from_bytes(model.to_bytes())),
            "model": model}


def test_default_trace_samples_and_fills_rows(default_trace):
    # Sampled growth leaves rows shorter than the winner count, and some
    # rows reach the 32-synapse cap.
    lengths = [s["presyn"].size for row in default_trace["model"].units
               for unit in row for s in unit.tm.state_dict()["segments"]]
    assert max(lengths) == 32
    assert 15 in lengths


@pytest.mark.parametrize("name", ["raw_scores", "certainty"])
def test_default_trace_matches_golden(default_trace, name):
    assert default_trace[name] == GOLDEN_DEFAULT[name]


def test_default_state_matches_golden(default_trace):
    assert default_trace["state"] == GOLDEN_DEFAULT["state"]
    assert default_trace["reloaded_state"] == default_trace["state"]


def test_default_snapshot_bytes_match_golden(default_trace):
    assert default_trace["to_bytes"] == GOLDEN_DEFAULT["to_bytes"]
