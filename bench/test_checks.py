"""The benchmark's checks fire on bad results, and its inputs are what they claim.

    python3 -m pytest bench/test_checks.py

Good results come from the real program on small inputs; each test then
alters one thing by hand and expects the checker to count a failure.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import generators  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from smartpatch import cli, constraints  # noqa: E402

TEAPOT = (ROOT / "data" / "teapot.newell").read_text()
LAM = constraints.build_lambda().lam


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One real `smartpatch teapot` call at n = 2 on the seed-3 teapot."""
    tmp = tmp_path_factory.mktemp("pipeline")
    rows, verts = generators.seeded_teapot(TEAPOT, 3)
    (tmp / "in.newell").write_text(generators.format_newell(rows, verts))
    out = tmp / "out"
    assert cli.main(["teapot", "--in", str(tmp / "in.newell"), "--out", str(out),
                     "--n", "2", "--normals"]) == 0
    report = json.loads((out / "teapot_report.json").read_text())
    repaired = json.loads((out / "teapot_repaired.json").read_text())["patches"]
    after = np.moveaxis(np.array([[p["x"], p["y"], p["z"]] for p in repaired]), 1, 3)
    obj_lines = len((out / "teapot.obj").read_text().splitlines())
    expect = {"patches": 32, "n": 2, "normals": True, "shared_edges": 52}
    return report, obj_lines, generators.patch_array(rows, verts), after, expect


def pipeline_failures(pipeline, report=None, obj_lines=None, after=None, code=0):
    good_report, good_lines, before, good_after, expect = pipeline
    return checks.check_pipeline(
        code, report or good_report, good_lines if obj_lines is None else obj_lines,
        before, good_after if after is None else after, expect, LAM)


def test_good_pipeline_passes(pipeline):
    assert pipeline_failures(pipeline) == []


def test_nonzero_exit_fails(pipeline):
    assert pipeline_failures(pipeline, code=3)


def test_moved_corner_fails(pipeline):
    report, _, _, after, _ = pipeline
    moved = after.copy()
    moved[5, 3, 3, 1] += 1e-6
    assert any("corner" in m for m in pipeline_failures(pipeline, after=moved))
    assert pipeline_failures(pipeline, report={**report, "max_corner_displacement": 1e-300})


def test_residual_fails(pipeline):
    report, _, _, after, _ = pipeline
    bent = after.copy()
    bent[0, 1, 1, 2] += 0.5  # an inner point: the patch stops complying
    assert any("residual" in m for m in pipeline_failures(pipeline, after=bent))
    noisy = {**report, "after": {**report["after"], "noncompliant_patches": 1}}
    assert pipeline_failures(pipeline, report=noisy)


def test_wrong_mesh_count_fails(pipeline):
    report, obj_lines, _, _, _ = pipeline
    short = {**report, "mesh": {**report["mesh"], "triangles": report["mesh"]["triangles"] - 2}}
    assert pipeline_failures(pipeline, report=short)
    assert pipeline_failures(pipeline, obj_lines=obj_lines - 1)


def test_wrong_shared_edge_count_fails(pipeline):
    report = pipeline[0]
    assert pipeline_failures(pipeline, report={**report, "shared_edges": 51})


def test_opened_edge_fails(pipeline):
    _, _, before, after, _ = pipeline
    pairs, _ = checks.find_pairs(before)
    patch, side = divmod(pairs[0][0], 4)
    i, j = [(0, 1), (3, 1), (1, 0), (1, 3)][side]  # an inner point of U0, U1, V0, V1
    opened = after.copy()
    opened[patch, i, j] += 1e-3
    assert any("C0 gap" in m for m in pipeline_failures(pipeline, after=opened))


@pytest.fixture(scope="module")
def grids():
    g, corners, free = generators.grid_draws(5, 12)
    before = np.array([constraints.bs_residuals(x).max_residual for x in g])
    projected = np.array([constraints.bs_project(x) for x in g])
    after = np.array([constraints.bs_residuals(p).max_residual for p in projected])
    inner = np.array([constraints.bs_inner_identity(p) for p in projected])
    solved = np.array([constraints.bs_solve(c, f) for c, f in zip(corners, free)])
    return g, before, projected, after, inner, corners, free, solved


def grid_failures(grids, projected=None, after=None):
    g, before, good_projected, good_after, inner, *_ = grids
    return checks.check_grids(
        g, before, good_projected if projected is None else projected,
        good_after if after is None else after, inner, checks.projection_oracle(LAM), LAM)


def test_good_grids_pass(grids):
    g, *_, corners, free, solved = grids
    assert grid_failures(grids) == []
    assert checks.check_solves(corners, free, solved, constraints.bs_free_cells(), LAM) == []
    assert checks.check_roundtrips(g.reshape(-1, 3, 4, 4), g.reshape(-1, 3, 4, 4)) == []


def test_projection_off_oracle_fails(grids):
    projected = grids[2].copy()
    projected[4, 1, 2] += 1e-6
    assert [k for k, m in grid_failures(grids, projected=projected) if "oracle" in m] == [4]


def test_projection_moved_corner_fails(grids):
    projected = grids[2].copy()
    projected[7, 3, 0] = np.nextafter(projected[7, 3, 0], np.inf)
    assert [k for k, _ in grid_failures(grids, projected=projected)] == [7]


def test_nonzero_residual_after_projection_fails(grids):
    after = grids[3].copy()
    after[2] = 1e-10
    assert [k for k, _ in grid_failures(grids, after=after)] == [2]


def test_solve_checks_fire(grids):
    *_, corners, free, solved = grids
    cells = constraints.bs_free_cells()
    bad = solved.copy()
    bad[1, 0, 0] += 1.0
    i, j = cells[0]
    bad[6, i, j] += 1e-3
    fails = checks.check_solves(corners, free, bad, cells, LAM)
    assert sorted({k for k, _ in fails}) == [1, 6]


def test_roundtrip_check_fires(grids):
    g = grids[0].reshape(-1, 3, 4, 4)
    back = g.copy()
    back[2, 1, 3, 3] += 1e-9
    assert [k for k, _ in checks.check_roundtrips(g, back)] == [2]


def test_seeded_inputs_repeat_and_keep_shared_points():
    rows0, verts0 = generators.seeded_teapot(TEAPOT, 0)
    assert np.array_equal(verts0, generators.parse_newell(TEAPOT)[1])
    a = generators.format_newell(*generators.seeded_teapot(TEAPOT, 9))
    b = generators.format_newell(*generators.seeded_teapot(TEAPOT, 9))
    assert a == b != generators.format_newell(rows0, verts0)
    rows, verts = generators.seeded_teapot(TEAPOT, 9)
    assert generators.exact_shared_pairs(generators.patch_array(rows, verts)) == 52
    rows, verts = generators.split_teapot(rows, verts)
    assert len(rows) == 128
    assert generators.exact_shared_pairs(generators.patch_array(rows, verts)) == 232


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == {"teapot", "split-teapot", "grids"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_every_wrapped_function_has_a_metric():
    wrapped = [f"{m}.{a}" for m, attrs in tracing.FUNCTIONS.items() for a in attrs]
    wrapped += [f"linalg.{a}" for a in tracing.LINALG_METHODS]
    # patches.convert.s and linalg.s sum the self time of their whole layer
    assert {"patches.convert.s", "linalg.s"} <= set(run.PER_LAYER)
    for name in wrapped:
        assert name in run.SPAN_METRICS or name.startswith(("patches.", "linalg.")), name
