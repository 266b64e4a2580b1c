import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smartpatch import BezierPatch, DiagonalKind, PatchSet, bs_residuals, repair_patches
from smartpatch import cli, constraints
from smartpatch.cli import _nonfinite_field, main
from smartpatch.io import dump_patchset, read_newell, read_patchset, write_patchset
from smartpatch.patches import _conversion_matrices, _convert
from smartpatch.tessellation import TessPattern, detect_adjacency, merge_meshes, tessellate

from helpers import (
    bilinear_grid,
    grid_scale,
    hs_consistent_grid,
    loop_export_obj,
    newell_text,
    patchset_json,
    random_compliant_grid,
    random_patch,
    rank_deficient_patch,
    split_patch,
    validation_sets,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_set(tmp_path, name, patches, adjacency=None):
    path = tmp_path / f"{name}.json"
    path.write_text(dump_patchset(PatchSet(name=name, patches=patches, adjacency=adjacency)))
    return path


@pytest.fixture
def bilinear_set(tmp_path, rng):
    patches = [
        BezierPatch(*(bilinear_grid(*rng.uniform(-5, 5, 4)) for _ in range(3)))
        for _ in range(2)
    ]
    return write_set(tmp_path, "bilinear", patches)


# ---------------------------------------------------------------------------
# lambda


def test_lambda_text_report(capsys):
    code, out, _ = run(capsys, "lambda")
    assert code == 0
    assert "rank = 5" in out
    assert "1 -3 3 -1 -3 9 -9 3 3 -9 9 -3 -1 3 -3 1" in out.splitlines()[1]
    assert "1/9" in out


def test_lambda_json_report(capsys):
    code, out, _ = run(capsys, "lambda", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["rank"] == 5
    assert rep["matches_reference"] is True
    assert rep["inner_identity"]["plus_variant_in_row_space"] is True
    assert rep["inner_identity"]["minus_variant_in_row_space"] is False
    assert len(rep["matrix"]) == 6 and len(rep["matrix"][0]) == 16


def test_lambda_reference_mismatch_is_internal_error(capsys, monkeypatch):
    table = [list(row) for row in constraints.LAMBDA_REFERENCE]
    table[2][5] += 1
    monkeypatch.setattr(constraints, "LAMBDA_REFERENCE", tuple(map(tuple, table)))
    constraints.build_lambda.cache_clear()
    try:
        code, out, err = run(capsys, "lambda")
    finally:
        constraints.build_lambda.cache_clear()
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: derived constraint matrix does not match")
    assert "entry (2,5): derived 54 != reference 55" in err
    assert err.count("entry (") == 1


# ---------------------------------------------------------------------------
# validate


def test_validate_bilinear_compliant(capsys, bilinear_set):
    code, out, _ = run(capsys, "validate", "--in", str(bilinear_set))
    assert code == 0
    assert "2 of 2 patches compliant" in out


def test_validate_teapot_noncompliant(capsys, teapot_path):
    code, out, _ = run(capsys, "validate", "--in", str(teapot_path), "--json")
    assert code == 1
    rep = json.loads(out)
    assert rep["patch_count"] == 32
    # regression value: every patch of the raw teapot violates the
    # cubic-diagonal conditions in at least one coordinate
    assert len(rep["noncompliant_patches"]) == 32
    grids_bad = sum(
        1
        for p in rep["patches"]
        for coord in ("x", "y", "z")
        if p["coords"][coord]["max_residual"] > rep["tolerance"]
    )
    assert grids_bad == 68


def test_validate_reads_its_tolerance(capsys, teapot_path):
    code, out, _ = run(capsys, "validate", "--in", str(teapot_path), "--tol", "10", "--json")
    rep = json.loads(out)
    assert (code, rep["tolerance"], rep["compliant"]) == (0, 10.0, True)
    assert 7.0 < max(p["max_residual"] for p in rep["patches"]) <= 10.0
    code, out, _ = run(capsys, "validate", "--in", str(teapot_path))
    assert code == 1 and out.endswith("0 of 32 patches compliant at tol 1e-09\n")


def test_validate_and_repair_read_the_per_grid_residuals(capsys, tmp_path, rng, teapot_path):
    for name, arr in validation_sets(rng, teapot_path).items():
        patches = [BezierPatch(*a) for a in arr]
        code, out, _ = run(capsys, "validate", "--in", str(write_set(tmp_path, name, patches)),
                           "--json")
        reports = json.loads(out)["patches"]
        assert code == (0 if all(r["compliant"] for r in reports) else 1)
        for patch, r in zip(patches, reports):
            grids = [bs_residuals(g) for g in patch.grids]
            worst = max(g.max_residual for g in grids)
            assert abs(r["max_residual"] - worst) <= 1e-14
            assert r["compliant"] == (worst <= 1e-9) == all(g.compliant for g in grids)
            for coord, g, grid in zip("xyz", grids, patch.grids):
                c = r["coords"][coord]
                assert list(c) == ["main", "anti", "max_residual"]
                assert abs(c["max_residual"] - g.max_residual) <= 1e-14
                for kind in DiagonalKind:
                    d = g.per_diagonal[kind]
                    err = np.max(np.abs(np.subtract(c[kind.value], (d.a6, d.a5, d.a4))))
                    assert err <= 1e-14 * grid_scale(grid)

    src = write_set(tmp_path, "teapot", read_newell(teapot_path).patches)
    code, out, _ = run(capsys, "repair", "--in", str(src), "--out", str(tmp_path / "r.json"),
                       "--json")
    assert code == 0
    worst = max(bs_residuals(g).max_residual for p in read_patchset(tmp_path / "r.json").patches
                for g in p.grids)
    assert abs(json.loads(out)["max_residual_after"] - worst) <= 1e-14


def test_validate_empty_set(capsys, tmp_path):
    path = write_set(tmp_path, "empty", [])
    code, out, _ = run(capsys, "validate", "--in", str(path), "--json")
    assert code == 0
    assert json.loads(out)["patch_count"] == 0


def test_validate_hermite_form(capsys, tmp_path, rng):
    patches = [BezierPatch(*(hs_consistent_grid(rng) for _ in range(3)))]
    path = write_set(tmp_path, "hs", patches)
    code, out, _ = run(capsys, "validate", "--in", str(path), "--form", "hermite", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["form"] == "hermite" and rep["patches"][0]["compliant"] is True
    worst = rep["patches"][0]["max_residual"]
    assert worst <= 1e-12
    code, out, _ = run(capsys, "validate", "--in", str(path), "--form", "hermite")
    assert code == 0
    assert out.splitlines() == [f"patch   0: max residual {worst:.3e}  ok",
                                "1 of 1 patches compliant at tol 1e-09"]


def quiet_main(*argv):
    """(exit code, stdout) of one command, without a function-scoped fixture."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@settings(max_examples=25, deadline=None)
@given(source=st.one_of(st.just("teapot"), st.integers(0, 4)),
       seed=st.integers(0, 2**32 - 1),
       noise=st.sampled_from([0.0, 1e-13, 1e-10, 1e-8, 1.0]))
@example(source="teapot", seed=0, noise=0.0)
@example(source=3, seed=0, noise=0.0)
def test_validate_hermite_is_validate_of_the_h2b_conversion(tmp_path_factory, teapot_path,
                                                            source, seed, noise):
    """`validate --form hermite` gives the verdicts, exit code and per-patch
    residuals that `validate` gives on the file's `convert --direction h2b`
    output: consistent Hermite sets at several magnitudes, perturbed copies
    of them, and the teapot read as Hermite grids."""
    tmp = tmp_path_factory.mktemp("forms")
    if source == "teapot":
        src = teapot_path
    else:
        rng = np.random.default_rng(seed)
        grids = []
        for _ in range(3 * source):
            g = hs_consistent_grid(rng) * 10.0 ** rng.integers(-3, 4)
            grids.append(g + noise * rng.normal(size=(4, 4)) * grid_scale(g))
        src = write_set(tmp, "hs", [BezierPatch(*grids[k : k + 3])
                                    for k in range(0, len(grids), 3)])
    dst = tmp / "bezier.json"
    assert quiet_main("convert", "--in", str(src), "--out", str(dst), "--direction", "h2b")[0] == 0
    for extra in ([], ["--json"], ["--tol", "1e-6", "--json"]):
        code, out = quiet_main("validate", "--in", str(src), "--form", "hermite", *extra)
        want_code, want = quiet_main("validate", "--in", str(dst), *extra)
        assert code == want_code
        if extra:  # the reports differ in the form they name, and only there
            out, want = json.loads(out), json.loads(want)
            assert (out.pop("form"), want.pop("form")) == ("hermite", "bezier")
        assert out == want


def test_validate_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "validate", "--in", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error" in err


def test_validate_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    code, _, err = run(capsys, "validate", "--in", str(path))
    assert code == 2
    assert "line" in err


# ---------------------------------------------------------------------------
# repair


def test_repair_compliant_input_unchanged(capsys, tmp_path, rng):
    patches = [BezierPatch(*(random_compliant_grid(rng) for _ in range(3)))]
    src = write_set(tmp_path, "ok", patches)
    dst = tmp_path / "out.json"
    code, out, _ = run(capsys, "repair", "--in", str(src), "--out", str(dst), "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["max_displacement"] <= 1e-12
    assert rep["compliant_after"] is True
    back = read_patchset(dst)
    for g, h in zip(patches[0].grids, back.patches[0].grids):
        assert np.max(np.abs(g - h)) <= 1e-12


def test_repair_teapot_validates_after(capsys, teapot_path, tmp_path):
    dst = tmp_path / "teapot_fixed.json"
    code, out, _ = run(capsys, "repair", "--in", str(teapot_path), "--out", str(dst), "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["compliant_after"] is True
    assert rep["max_corner_displacement"] == 0.0
    code, _, _ = run(capsys, "validate", "--in", str(dst))
    assert code == 0


def test_repair_of_a_compliant_degenerate_patch_succeeds(capsys, tmp_path, rng):
    constant = BezierPatch(np.full((4, 4), 1.0), np.full((4, 4), 2.0), np.full((4, 4), -3.0))
    src = write_set(tmp_path, "flat", [constant, random_patch(rng)])
    dst = tmp_path / "out.json"
    code, out, _ = run(capsys, "repair", "--in", str(src), "--out", str(dst), "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["compliant_after"] is True
    assert rep["patches"][0]["max_displacement"] == 0.0
    assert np.array_equal(read_patchset(dst).patches[0].as_array, constant.as_array)


# ---------------------------------------------------------------------------
# convert


def test_convert_roundtrip_report(capsys, tmp_path, rng):
    src = write_set(tmp_path, "src", [random_patch(rng) for _ in range(3)])
    dst = tmp_path / "hermite.json"
    code, out, _ = run(
        capsys, "convert", "--in", str(src), "--out", str(dst),
        "--direction", "b2h", "--roundtrip", "--json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["roundtrip_max_error"] <= 1e-12
    assert (tmp_path / "hermite.json").exists()
    code, out, _ = run(capsys, "convert", "--in", str(src), "--out", str(dst),
                       "--direction", "b2h", "--roundtrip")
    assert code == 0
    assert out.splitlines() == [f"converted 3 patches (b2h) -> {dst}",
                                f"roundtrip max error: {rep['roundtrip_max_error']:.3e}"]


def test_convert_constant_set(capsys, tmp_path):
    const = BezierPatch(np.ones((4, 4)), np.ones((4, 4)), np.ones((4, 4)))
    src = write_set(tmp_path, "const", [const])
    dst = tmp_path / "h.json"
    code, _, _ = run(capsys, "convert", "--in", str(src), "--out", str(dst), "--direction", "b2h")
    assert code == 0
    h = read_patchset(dst).patches[0]
    assert np.allclose(h.x[:2, :2], 1.0, atol=1e-14)
    assert np.allclose(h.x[2:, :], 0.0, atol=1e-14)
    # converting back restores the constant control net
    back = tmp_path / "b.json"
    code, _, _ = run(capsys, "convert", "--in", str(dst), "--out", str(back), "--direction", "h2b")
    assert code == 0
    b = read_patchset(back).patches[0]
    assert np.allclose(b.x, 1.0, atol=1e-14)


_ABOVE = "patch {}: grid '{}' has an entry of magnitude above 2**250\n"


@pytest.mark.parametrize("direction", ["b2h", "h2b"])
def test_convert_of_a_grid_that_overflows_is_input_error(capsys, tmp_path, rng, direction):
    """A grid whose conversion overflows lies beyond the loaders' bound, so
    it is refused as the file is read, before any conversion."""
    patch = random_patch(rng, -1.0, 1.0)
    big = BezierPatch(*(1.7e308 / np.max(np.abs(patch.as_array)) * g for g in patch.grids))
    src = write_set(tmp_path, "big", [random_patch(rng), big])
    dst = tmp_path / "out.json"
    code, out, err = run(capsys, "convert", "--in", str(src), "--out", str(dst),
                         "--direction", direction)
    assert (code, out, err) == (2, "", "error: " + _ABOVE.format(1, "x"))
    assert not dst.exists()


def test_convert_roundtrip_that_overflows_is_input_error(capsys, tmp_path):
    # constant Hermite grids of 1e308 convert to finite Bezier grids, and
    # converting those back overflows: the set is refused as it is read, with
    # or without the round trip
    src = write_set(tmp_path, "big", [BezierPatch(*[np.full((4, 4), 1e308)] * 3)])
    dst = tmp_path / "out.json"
    for extra in ([], ["--roundtrip"]):
        code, out, err = run(capsys, "convert", "--in", str(src), "--out", str(dst),
                             "--direction", "h2b", *extra)
        assert (code, out, err) == (2, "", "error: " + _ABOVE.format(0, "x"))
        assert not dst.exists()
    # at the bound both round trips are finite
    sign = np.where(np.add.outer(range(4), range(4)) % 2, -1.0, 1.0)
    grids = (np.full((4, 4), 2.0**250), 2.0**250 * sign, np.full((4, 4), -(2.0**250)))
    src = write_set(tmp_path, "bound", [BezierPatch(*grids)])
    for direction in ("b2h", "h2b"):
        code, out, err = run(capsys, "convert", "--in", str(src), "--out", str(dst),
                             "--direction", direction, "--roundtrip", "--json")
        assert (code, err) == (0, "")
        assert 0.0 <= strict_json(out)["roundtrip_max_error"] <= 1e-14 * 2.0**250
        assert np.isfinite(np.array(json.loads(dst.read_text())["patches"][0]["y"])).all()


def test_b2h_output_of_a_set_near_the_bound_may_be_refused_on_reading(capsys, tmp_path):
    """b2h scales a grid's largest magnitude by up to 36 (the twists of a
    checkerboard of signs): the file it writes holds values beyond the
    bound, which reading it back refuses."""
    sign = np.where(np.add.outer(range(4), range(4)) % 2, -1.0, 1.0)
    src = write_set(tmp_path, "bound", [BezierPatch(*[2.0**250 * sign] * 3)])
    dst = tmp_path / "h.json"
    code, _, err = run(capsys, "convert", "--in", str(src), "--out", str(dst),
                       "--direction", "b2h")
    assert (code, err) == (0, "")
    h = np.array(json.loads(dst.read_text())["patches"][0]["x"])
    assert np.max(np.abs(h)) == 36 * 2.0**250
    code, out, err = run(capsys, "validate", "--in", str(dst), "--form", "hermite")
    assert (code, out, err) == (2, "", "error: " + _ABOVE.format(0, "x"))


@pytest.mark.parametrize("roundtrip", [False, True])
@pytest.mark.parametrize("direction", ["b2h", "h2b"])
def test_convert_writes_the_per_patch_conversion(capsys, tmp_path, teapot_path, direction,
                                                 roundtrip):
    """The stacked conversion writes the bytes that converting each grid on
    its own and write_patchset write, and reports their round-trip error."""
    c, d = _conversion_matrices()
    forward, backward = (d, c) if direction == "b2h" else (c, d)
    teapot = read_newell(teapot_path)
    grids = [[forward.T @ g @ forward for g in p.grids] for p in teapot.patches]
    want = tmp_path / "want.json"
    write_patchset(PatchSet(teapot.name, [BezierPatch(*gs) for gs in grids]), want)
    dst = tmp_path / "out.json"
    argv = ["convert", "--in", str(teapot_path), "--out", str(dst), "--direction", direction]
    code, out, err = run(capsys, *argv, *(["--roundtrip", "--json"] if roundtrip else []))
    assert (code, err) == (0, "")
    assert dst.read_bytes() == want.read_bytes()
    if roundtrip:
        worst = max(float(np.max(np.abs(g - backward.T @ h @ backward)))
                    for p, gs in zip(teapot.patches, grids) for g, h in zip(p.grids, gs))
        assert json.loads(out)["roundtrip_max_error"] == worst


def test_convert_empty_set(capsys, tmp_path):
    src = write_set(tmp_path, "empty", [])
    dst = tmp_path / "out.json"
    code, out, _ = run(capsys, "convert", "--in", str(src), "--out", str(dst),
                       "--direction", "b2h", "--json")
    assert code == 0
    assert json.loads(out)["patch_count"] == 0


# ---------------------------------------------------------------------------
# tessellate


def test_tessellate_single_patch_merged(capsys, tmp_path, rng):
    src = write_set(tmp_path, "one", [random_patch(rng)])
    dst = tmp_path / "mesh.obj"
    code, out, _ = run(
        capsys, "tessellate", "--in", str(src), "--out", str(dst),
        "--n", "1", "--merge", "--json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["vertices"] == 4 and rep["triangles"] == 2
    lines = dst.read_text().splitlines()
    assert sum(1 for ln in lines if ln.startswith("v ")) == 4
    assert sum(1 for ln in lines if ln.startswith("f ")) == 2


def test_tessellate_reruns_byte_identical(capsys, tmp_path, rng):
    src = write_set(tmp_path, "one", [random_patch(rng)])
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    run(capsys, "tessellate", "--in", str(src), "--out", str(a), "--n", "7",
        "--pattern", "alt", "--normals", "--merge")
    run(capsys, "tessellate", "--in", str(src), "--out", str(b), "--n", "7",
        "--pattern", "alt", "--normals", "--merge")
    assert a.read_bytes() == b.read_bytes()


def test_tessellate_per_patch_files(capsys, tmp_path, rng):
    src = write_set(tmp_path, "two", [random_patch(rng), random_patch(rng)])
    out_dir = tmp_path / "meshes"
    code, out, _ = run(capsys, "tessellate", "--in", str(src), "--out", str(out_dir),
                       "--n", "2", "--json")
    assert code == 0
    rep = json.loads(out)
    assert len(rep["files"]) == 2
    assert (out_dir / "patch_000.obj").exists() and (out_dir / "patch_001.obj").exists()


def test_tessellate_removes_the_patch_files_of_an_earlier_larger_set(capsys, tmp_path, rng,
                                                                     teapot_path):
    out_dir = tmp_path / "meshes"
    assert run(capsys, "tessellate", "--in", str(teapot_path), "--out", str(out_dir),
               "--n", "2")[0] == 0
    assert len(list(out_dir.iterdir())) == 32
    for name in ("patch_7.obj", "patch_0032.obj", "notes.txt", "patch_1000.obj"):
        (out_dir / name).write_text("kept unless this command writes the name\n")
    (out_dir / "patch_040.obj").mkdir()
    (out_dir / "patch_041.obj").symlink_to(out_dir / "notes.txt")
    src = write_set(tmp_path, "two", [random_patch(rng), random_patch(rng)])
    code, out, _ = run(capsys, "tessellate", "--in", str(src), "--out", str(out_dir),
                       "--n", "2", "--json")
    assert code == 0
    assert json.loads(out)["files"] == [str(out_dir / "patch_000.obj"),
                                        str(out_dir / "patch_001.obj")]
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "notes.txt", "patch_000.obj", "patch_001.obj", "patch_0032.obj", "patch_040.obj",
        "patch_041.obj", "patch_7.obj"]
    assert (out_dir / "patch_041.obj").read_text() == (out_dir / "notes.txt").read_text()


def test_tessellate_per_patch_files_are_the_per_patch_meshes(capsys, tmp_path, teapot_path):
    patches = read_newell(teapot_path).patches[:5]
    src = write_set(tmp_path, "five", patches)
    out_dir = tmp_path / "meshes"
    code, _, _ = run(capsys, "tessellate", "--in", str(src), "--out", str(out_dir),
                     "--n", "3", "--pattern", "zigzag", "--normals")
    assert code == 0
    for k, p in enumerate(patches):
        mesh = tessellate(p, 3, TessPattern.ZIGZAG, with_normals=True)
        assert (out_dir / f"patch_{k:03d}.obj").read_bytes() == loop_export_obj(mesh).encode()


def test_tessellate_teapot_counts(capsys, teapot_path, tmp_path):
    dst = tmp_path / "teapot.obj"
    code, out, _ = run(
        capsys, "tessellate", "--in", str(teapot_path), "--out", str(dst),
        "--n", "16", "--merge", "--json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["vertices"] == 32 * 17 * 17
    assert rep["triangles"] == 32 * 2 * 16 * 16


# ---------------------------------------------------------------------------
# continuity


def test_continuity_identical_pair_fixture(capsys, tmp_path, rng):
    patch = random_patch(rng)
    twin = BezierPatch(patch.x, patch.y, patch.z)
    adjacency = [
        {"a": 0, "edge_a": "U1", "reversed_a": False, "b": 1, "edge_b": "U1", "reversed_b": False}
    ]
    doc = json.loads(dump_patchset(PatchSet(name="pair", patches=[patch, twin])))
    doc["adjacency"] = adjacency
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "continuity", "--in", str(path), "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["pairs"][0]["c0_max_gap"] == 0.0
    assert rep["pairs"][0]["c1_max_mismatch"] == 0.0
    assert rep["pairs"][0]["g1_max_angle"] == 0.0


def test_continuity_offset_pair(capsys, tmp_path, rng):
    patch = random_patch(rng)
    shifted = BezierPatch(patch.x, patch.y, patch.z + 0.5)
    adjacency = [
        {"a": 0, "edge_a": "V0", "reversed_a": False, "b": 1, "edge_b": "V0", "reversed_b": False}
    ]
    doc = json.loads(dump_patchset(PatchSet(name="pair", patches=[patch, shifted])))
    doc["adjacency"] = adjacency
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "continuity", "--in", str(path), "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["pairs"][0]["c0_max_gap"] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("field, value", [("a", "x"), ("a", None), ("b", [1]), ("b", 1.7),
                                          ("a", True), ("reversed_a", "no")])
def test_continuity_rejects_malformed_adjacency_records(capsys, tmp_path, rng, field, value):
    patch = random_patch(rng)
    record = {"a": 0, "edge_a": "U1", "reversed_a": False, "b": 1, "edge_b": "U0", "reversed_b": False}
    record[field] = value
    doc = json.loads(dump_patchset(PatchSet(name="pair", patches=[patch, patch])))
    doc["adjacency"] = [record]
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "continuity", "--in", str(path))
    assert code == 2 and out == ""
    assert f"adjacency 0: '{field}' must be" in err


def _record_fields(pairs):
    return [(p["a"], p["edge_a"], p["reversed_a"], p["b"], p["edge_b"], p["reversed_b"])
            for p in pairs]


def _adjacency_fields(records):
    return [(r.a, r.edge_a.side.value, r.edge_a.reversed, r.b, r.edge_b.side.value,
             r.edge_b.reversed) for r in records]


def test_continuity_without_records_measures_the_detected_ones(capsys, bilinear_set, tmp_path,
                                                               teapot_path):
    teapot = write_set(tmp_path, "teapot", read_newell(teapot_path).patches)
    for src, count in ((bilinear_set, 0), (teapot, 52)):
        code, out, err = run(capsys, "continuity", "--in", str(src), "--json")
        assert (code, err) == (0, "")
        records = detect_adjacency(read_patchset(src).patches)
        assert len(records) == count
        assert _record_fields(json.loads(out)["pairs"]) == _adjacency_fields(records)


def test_continuity_measures_the_records_a_file_gives_even_none(capsys, tmp_path, teapot_path):
    teapot = read_newell(teapot_path)
    for records in (detect_adjacency(teapot.patches)[::2], []):
        src = write_set(tmp_path, "teapot", teapot.patches, records)
        code, out, _ = run(capsys, "continuity", "--in", str(src), "--json")
        assert code == 0
        assert _record_fields(json.loads(out)["pairs"]) == _adjacency_fields(records)


def test_continuity_text_report(capsys, teapot_path):
    code, out, _ = run(capsys, "continuity", "--in", str(teapot_path), "--n", "4")
    assert code == 0
    lines = out.splitlines()
    _, out, _ = run(capsys, "continuity", "--in", str(teapot_path), "--n", "4", "--json")
    rep = json.loads(out)
    assert len(lines) == rep["pair_count"] + 1 == 53
    for line, p in zip(lines, rep["pairs"]):
        flags = ["*" if p[f"reversed_{s}"] else "" for s in "ab"]
        assert line == (
            f"patch {p['a']} {p['edge_a']}{flags[0]} | patch {p['b']} {p['edge_b']}{flags[1]}: "
            f"C0 {p['c0_max_gap']:.3e}  C1 {p['c1_max_mismatch']:.3e}  "
            f"G1 {p['g1_max_angle']:.3e} rad"
        )
    assert any(p["reversed_b"] for p in rep["pairs"])  # a line with a "*"
    w = rep["worst"]
    assert lines[-1] == (f"worst of 52 pairs: C0 {w['c0_max_gap']:.3e}  "
                         f"C1 {w['c1_max_mismatch']:.3e}  G1 {w['g1_max_angle']:.3e} rad")


def test_continuity_teapot_detected(capsys, teapot_path):
    code, out, _ = run(capsys, "continuity", "--in", str(teapot_path), "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["pair_count"] == 52  # regression: seams of the shipped teapot
    assert rep["worst"]["c0_max_gap"] <= 1e-9 * 3.525


# ---------------------------------------------------------------------------
# teapot pipeline


def test_teapot_pipeline(capsys, teapot_path, tmp_path):
    out_dir = tmp_path / "tea"
    code, out, _ = run(
        capsys, "teapot", "--in", str(teapot_path), "--out", str(out_dir), "--json"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["patch_count"] == 32
    assert rep["before"]["noncompliant_patches"] == 32
    assert rep["after"]["noncompliant_patches"] == 0
    assert rep["after"]["max_residual"] <= 1e-9
    assert rep["max_corner_displacement"] == 0.0
    assert rep["c0_max_delta"] == 0.0
    assert rep["mesh"]["vertices"] == 32 * 17 * 17
    assert (out_dir / "teapot.obj").exists()
    assert (out_dir / "teapot_repaired.json").exists()
    report_file = json.loads((out_dir / "teapot_report.json").read_text())
    assert report_file["after"]["max_residual"] <= 1e-9
    # the repaired set must validate clean through the CLI as well
    code, _, _ = run(capsys, "validate", "--in", str(out_dir / "teapot_repaired.json"))
    assert code == 0


def test_teapot_on_the_split_teapot(capsys, teapot_path, tmp_path):
    patches = [q for p in read_newell(teapot_path).patches for q in split_patch(p)]
    src = tmp_path / "split.newell"
    src.write_text(newell_text(patches))
    code, out, _ = run(capsys, "teapot", "--in", str(src), "--out", str(tmp_path / "out"),
                       "--n", "4", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["patch_count"] == 128
    assert rep["shared_edges"] == 232
    assert rep["c0_before_max"] == rep["c0_after_max"] == rep["c0_max_delta"] == 0.0
    result = repair_patches(patches)
    assert rep["repair"] == json.loads(json.dumps(result.system._asdict()))
    assert rep["after"]["noncompliant_patches"] == 0
    worst = max(bs_residuals(g).max_residual for p in result.patches for g in p.grids)
    assert abs(rep["after"]["max_residual"] - worst) <= 1e-14


def _assert_teapot_outputs_match_oracle(capsys, src, out_dir, patches, n, pattern, normals):
    argv = ["teapot", "--in", str(src), "--out", str(out_dir), "--n", str(n),
            "--pattern", pattern] + (["--normals"] if normals else [])
    code, _, _ = run(capsys, *argv)
    assert code == 0
    repaired = repair_patches(patches).patches
    pattern = TessPattern(pattern)
    mesh = merge_meshes([tessellate(p, n, pattern, with_normals=normals) for p in repaired])
    assert (out_dir / "teapot.obj").read_bytes() == loop_export_obj(mesh).encode()
    expect = patchset_json(PatchSet(name=src.stem, patches=repaired)) + "\n"
    assert (out_dir / "teapot_repaired.json").read_bytes() == expect.encode()


@pytest.mark.parametrize("pattern", [t.value for t in TessPattern])
def test_teapot_outputs_match_the_per_patch_oracle(capsys, teapot_path, tmp_path, pattern):
    patches = read_newell(teapot_path).patches
    _assert_teapot_outputs_match_oracle(
        capsys, teapot_path, tmp_path / "out", patches, 16, pattern, normals=True
    )


def test_teapot_outputs_on_the_split_match_the_per_patch_oracle(capsys, teapot_path, tmp_path):
    patches = [q for p in read_newell(teapot_path).patches for q in split_patch(p)]
    src = tmp_path / "split.newell"
    src.write_text(newell_text(patches))
    _assert_teapot_outputs_match_oracle(
        capsys, src, tmp_path / "out", patches, 4, "main", normals=False
    )


@pytest.mark.parametrize("split", [False, True], ids=["teapot", "split"])
def test_teapot_report_agrees_with_the_single_commands(capsys, teapot_path, tmp_path, split):
    src = teapot_path
    if split:
        patches = [q for p in read_newell(teapot_path).patches for q in split_patch(p)]
        src = tmp_path / "split.newell"
        src.write_text(newell_text(patches))

    def report(*argv):
        _, out, _ = run(capsys, *argv, "--json")
        return json.loads(out)

    tea = report("teapot", "--in", str(src), "--out", str(tmp_path / "tea"), "--n", "4")
    repaired = tmp_path / "tea" / "teapot_repaired.json"
    for key, path in (("before", src), ("after", repaired)):
        single = report("validate", "--in", str(path))
        assert tea[key] == {
            "noncompliant_patches": len(single["noncompliant_patches"]),
            "max_residual": max(p["max_residual"] for p in single["patches"]),
        }
    single = report("repair", "--in", str(src), "--out", str(tmp_path / "repaired.json"))
    for key in ("max_displacement", "max_corner_displacement", "repair"):
        assert tea[key] == single[key]
    assert (tmp_path / "repaired.json").read_bytes() == repaired.read_bytes()
    single = report("continuity", "--in", str(src), "--n", "4")
    after = report("continuity", "--in", str(repaired), "--n", "4")
    assert tea["shared_edges"] == single["pair_count"]
    records = [{k: p[k] for k in ("a", "edge_a", "reversed_a", "b", "edge_b", "reversed_b")}
               for p in single["pairs"]]
    assert [{k: p[k] for k in records[0]} for p in after["pairs"]] == records  # same seams
    for key, rep in (("before", single), ("after", after)):
        assert tea[f"c0_{key}_max"] == rep["worst"]["c0_max_gap"]
        assert tea[f"c1_{key}_max"] == rep["worst"]["c1_max_mismatch"]
        assert tea[f"g1_{key}_max"] == rep["worst"]["g1_max_angle"]
    g1 = [p["g1_max_angle"] for p in after["pairs"]]
    assert tea["g1_after_worst_pair"] == g1.index(max(g1))
    assert tea["g1_after_max"] > 0.1  # repair creases the surface (ROADMAP item 2)


def test_teapot_reads_a_patch_set_json_as_it_reads_the_newell_file(capsys, teapot_path, tmp_path):
    def teapot(src, out_dir):
        code, out, err = run(capsys, "teapot", "--in", str(src), "--out", str(out_dir), "--json")
        assert (code, err) == (0, "")
        return json.loads(out), {f.name: f.read_bytes() for f in out_dir.iterdir()}

    newell = read_newell(teapot_path)
    rep, files = teapot(teapot_path, tmp_path / "newell")
    repaired = read_patchset(tmp_path / "newell" / "teapot_repaired.json").patches
    assert files["teapot_repaired.json"].decode() == dump_patchset(
        PatchSet(newell.name, repaired)) + "\n"
    assert rep["shared_edges"] == 52
    for records in (None, detect_adjacency(newell.patches)):
        src = tmp_path / "teapot.json"
        write_patchset(PatchSet(newell.name, newell.patches, records), src)
        out_dir = tmp_path / f"json{len(records or ())}"
        json_rep, json_files = teapot(src, out_dir)
        outputs = ("teapot.obj", "teapot_repaired.json", "teapot_report.json")
        assert json_rep == rep | {"outputs": [str(out_dir / f) for f in outputs]}
        assert json_files["teapot.obj"] == files["teapot.obj"]
        # the same repaired set, carrying the input's records if it has any
        assert json_files["teapot_repaired.json"].decode() == dump_patchset(
            PatchSet(newell.name, repaired, records)) + "\n"
    assert json_files["teapot_repaired.json"] != files["teapot_repaired.json"]


def test_teapot_on_an_empty_newell_file(capsys, tmp_path):
    src = tmp_path / "empty.newell"
    src.write_text("0\n0\n")
    code, out, err = run(capsys, "teapot", "--in", str(src), "--out", str(tmp_path / "out"),
                         "--json")
    assert (code, err) == (0, "")
    rep = json.loads(out)
    assert rep["patch_count"] == rep["shared_edges"] == 0
    assert rep["before"] == rep["after"] == {"noncompliant_patches": 0, "max_residual": 0.0}
    assert rep["c1_after_max"] == rep["g1_after_max"] == 0.0
    assert rep["g1_after_worst_pair"] is None
    assert rep["mesh"] == {"vertices": 0, "triangles": 0}
    assert json.loads((tmp_path / "out" / "teapot_report.json").read_text()) == rep | {
        "outputs": rep["outputs"][:2]
    }
    code, out, err = run(capsys, "teapot", "--in", str(src), "--out", str(tmp_path / "out"))
    assert (code, err) == (0, "")
    assert "; residual before each step: none\n" in out


def test_committed_teapot_outputs_are_current(capsys, teapot_path, tmp_path, monkeypatch):
    """out/teapot/ is what the README's teapot command writes from the
    repository root; rerun that command there when this test fails."""
    (tmp_path / "data").mkdir()
    shutil.copy(teapot_path, tmp_path / "data" / "teapot.newell")
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "teapot", "--in", "data/teapot.newell", "--out", "out/teapot",
                     "--n", "16")
    assert code == 0
    committed = teapot_path.parent.parent / "out" / "teapot"
    for name in ("teapot.obj", "teapot_repaired.json", "teapot_report.json"):
        assert (tmp_path / "out" / "teapot" / name).read_bytes() == (committed / name).read_bytes()


def test_teapot_missing_input(capsys, tmp_path):
    code, _, err = run(capsys, "teapot", "--in", str(tmp_path / "nope.newell"),
                       "--out", str(tmp_path / "out"))
    assert code == 2
    assert "ingest" in err


def test_teapot_nonfinite_vertex_is_input_error(capsys, teapot_path, tmp_path):
    lines = teapot_path.read_text().splitlines()
    lines[40] = "nan,0.0,1.0"  # a vertex line
    src = tmp_path / "bad.newell"
    src.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "teapot", "--in", str(src), "--out", str(tmp_path / "out"))
    assert code == 2
    assert "stage ingest failed" in err and "line 41" in err


def test_a_failed_write_names_the_export_stage(capsys, teapot_path, tmp_path):
    for name in ("teapot.obj", "teapot_repaired.json", "teapot_report.json"):
        out_dir = tmp_path / name.split(".")[0]
        (out_dir / name).mkdir(parents=True)
        code, out, err = run(capsys, "teapot", "--in", str(teapot_path), "--out", str(out_dir),
                             "--n", "2")
        assert (code, out) == (2, "")
        assert err.startswith("stage export failed: ") and name in err


def test_a_nonfinite_teapot_report_leaves_the_last_report(capsys, teapot_path, tmp_path,
                                                          monkeypatch):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "teapot_report.json").write_text("the last report\n")
    repair = cli._repair

    def nan_corner(ps, tol):
        result, repaired, _, system, validation = repair(ps, tol)
        return result, repaired, math.nan, system, validation

    monkeypatch.setattr(cli, "_repair", nan_corner)
    code, out, err = run(capsys, "teapot", "--in", str(teapot_path), "--out", str(out_dir),
                         "--n", "2")
    assert (code, out) == (4, "")
    assert err == ("error: report.max_corner_displacement is nan, which JSON cannot hold; "
                   "no report written\n")
    assert (out_dir / "teapot_report.json").read_text() == "the last report\n"


def test_teapot_writes_over_its_last_outputs_in_place(capsys, teapot_path, tmp_path):
    # a second run with other bytes keeps each file's inode, and links to
    # the OBJ read the new bytes; every file is what a run into a new
    # directory writes
    out_dir, fresh = tmp_path / "out", tmp_path / "fresh"
    argv = ["teapot", "--in", str(teapot_path), "--normals"]
    assert run(capsys, *argv, "--out", str(out_dir), "--n", "16")[0] == 0
    names = sorted(path.name for path in out_dir.iterdir())
    inodes = [(out_dir / name).stat().st_ino for name in names]
    os.link(out_dir / "teapot.obj", tmp_path / "hard.obj")
    (tmp_path / "soft.obj").symlink_to(out_dir / "teapot.obj")
    old = (out_dir / "teapot.obj").read_bytes()
    for n in ("2", "16"):  # shorter outputs, then longer ones
        assert run(capsys, *argv, "--out", str(out_dir), "--n", n)[0] == 0
        assert run(capsys, *argv, "--out", str(fresh), "--n", n)[0] == 0
        assert [(out_dir / name).stat().st_ino for name in names] == inodes
        for name in ("teapot.obj", "teapot_repaired.json"):
            assert (out_dir / name).read_bytes() == (fresh / name).read_bytes()
        report = (out_dir / "teapot_report.json").read_text()
        assert report == (fresh / "teapot_report.json").read_text().replace(str(fresh),
                                                                            str(out_dir))
        obj = (out_dir / "teapot.obj").read_bytes()
        assert (tmp_path / "hard.obj").read_bytes() == (tmp_path / "soft.obj").read_bytes() == obj
        assert (len(obj) < len(old)) == (n == "2")
    assert obj == old


def test_every_output_file_is_written_in_place(capsys, teapot_path, tmp_path, monkeypatch):
    # each writing command, run twice into one place: every file there went
    # through io._write_over, so a writer that bypasses it fails here
    written = []
    write_over = cli.io._write_over

    def recorded(path, pieces):
        written.append(Path(path).resolve())
        write_over(path, pieces)

    monkeypatch.setattr(cli.io, "_write_over", recorded)
    commands = {
        "repair": [],
        "convert": ["--direction", "b2h"],
        "tessellate": ["--n", "2"],
        "tessellate --merge": ["--n", "2", "--merge"],
        "teapot": ["--n", "2"],
    }
    for name, extra in commands.items():
        place = tmp_path / name.replace(" --", "-")
        place.mkdir()
        out = place / "out.json" if name in ("repair", "convert") else place / "out"
        argv = [name.split()[0], "--in", str(teapot_path), "--out", str(out), *extra]
        runs = []
        for _ in range(2):
            written.clear()
            assert run(capsys, *argv)[0] == 0
            files = sorted(path.resolve() for path in place.rglob("*") if path.is_file())
            assert files and sorted(written) == files
            runs.append({path: path.read_bytes() for path in files})
        assert runs[0] == runs[1]


def test_a_json_integer_too_large_for_a_float_is_input_error(capsys, tmp_path):
    rows = [[0, 0, 0, 0]] * 3 + [[0, 0, 0, "@"]]
    doc = json.dumps({"patches": [{"x": [[0] * 4] * 4, "y": [[0] * 4] * 4, "z": rows}]})
    src = tmp_path / "huge.json"
    src.write_text(doc.replace('"@"', "1" + "0" * 400))
    code, out, err = run(capsys, "validate", "--in", str(src))
    assert (code, out, err) == (2, "", "error: " + _ABOVE.format(0, "z"))
    code, out, err = run(capsys, "teapot", "--in", str(src), "--out", str(tmp_path / "t"))
    assert (code, out, err) == (2, "", "stage ingest failed: " + _ABOVE.format(0, "z"))


@pytest.mark.parametrize("argv, code", [
    (["validate"], 1), (["validate", "--json"], 1), (["continuity", "--json"], 0),
    (["teapot", "--out", "{tmp}/t", "--json"], 0), (["teapot", "--out", "{tmp}/t"], 0),
])
def test_a_reader_that_closes_stdout_leaves_the_exit_code_and_stderr(capsys, monkeypatch,
                                                                     teapot_path, tmp_path,
                                                                     argv, code):
    """Printing into a pipe whose reader has gone raises BrokenPipeError; the
    command stops printing, returns its own exit code and writes no error."""
    read, write = os.pipe()
    os.close(read)
    stdout = open(write, "w")
    monkeypatch.setattr(sys, "stdout", stdout)
    argv = [a.format(tmp=tmp_path) for a in argv]
    try:
        assert main([argv[0], "--in", str(teapot_path), *argv[1:]]) == code
        print("more", flush=True)  # the rest of the output goes nowhere, quietly
    finally:
        stdout.close()
    assert capsys.readouterr().err == ""


def test_a_child_whose_stdout_reader_has_gone_exits_with_its_code(teapot_path, tmp_path):
    read, write = os.pipe()
    os.close(read)  # before the child writes
    src = Path(cli.__file__).resolve().parents[1]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "smartpatch.cli", "teapot", "--in", str(teapot_path),
             "--out", str(tmp_path / "t"), "--json"],
            stdout=write, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(src)),
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert (tmp_path / "t" / "teapot_report.json").exists()


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_tol_must_be_finite_and_nonnegative(capsys, teapot_path, tmp_path, tol):
    with pytest.raises(SystemExit) as exc:
        main(["teapot", "--in", str(teapot_path), "--out", str(tmp_path / "out"), "--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, unread", [
    (["convert", "--out", "out", "--direction", "b2h"], "--tol 1e-9"),
    (["tessellate", "--out", "out"], "--tol 1e-9"),
    (["continuity"], "--detect"),
])
def test_an_option_the_command_does_not_read_is_a_usage_error(capsys, teapot_path, tmp_path,
                                                              argv, unread):
    argv = [str(tmp_path / x) if x == "out" else x for x in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--in", str(teapot_path), *unread.split()])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {unread}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, n, extra",
    [
        (cmd, n, extra)
        for cmd, extra in (("teapot", ["--out", "out"]), ("continuity", []))
        for n in ("0", "1", "-3")
    ]
    + [("tessellate", n, ["--out", "out", "--merge"]) for n in ("0", "-3")],
)
def test_n_below_its_minimum_is_input_error(capsys, teapot_path, tmp_path, command, n, extra):
    extra = [str(tmp_path / x) if x == "out" else x for x in extra]
    with pytest.raises(SystemExit) as exc:
        main([command, "--in", str(teapot_path), "--n", n, *extra])
    assert exc.value.code == 2
    assert "--n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_tessellate_accepts_n_of_one(capsys, teapot_path, tmp_path):
    code, out, _ = run(capsys, "tessellate", "--in", str(teapot_path), "--out",
                       str(tmp_path / "t.obj"), "--merge", "--n", "1", "--json")
    assert code == 0
    assert json.loads(out)["triangles"] == 32 * 2


def test_repair_reports_its_system(capsys, teapot_path, tmp_path):
    code, out, _ = run(capsys, "teapot", "--in", str(teapot_path), "--out", str(tmp_path), "--json")
    assert code == 0
    system = json.loads(out)["repair"]
    assert system["rows"] == 160 and system["components"] == 4
    assert system["free_variables"] > system["shared_variables"] > 0
    assert system["fixed_variables"] > 0
    assert system["step_residuals"][-1] <= 1e-13 < system["step_residuals"][0]
    code, out, _ = run(capsys, "repair", "--in", str(teapot_path), "--out",
                       str(tmp_path / "r.json"), "--json")
    assert code == 0
    assert json.loads(out)["repair"] == system
    code, out, _ = run(capsys, "repair", "--in", str(teapot_path), "--out",
                       str(tmp_path / "r.json"))
    assert "repair system: 160 rows" in out and "4 components" in out


def test_repair_reports_its_level_structure(capsys, teapot_path, tmp_path):
    code, out, _ = run(capsys, "teapot", "--in", str(teapot_path), "--out", str(tmp_path), "--json")
    assert code == 0
    system = json.loads(out)["repair"]
    assert (system["levels"], system["max_level_patches"]) == (6, 4)
    code, out, _ = run(capsys, "repair", "--in", str(teapot_path), "--out",
                       str(tmp_path / "r.json"))
    assert "factored in up to 6 levels of at most 4 patches" in out


def rank_deficient_newell(rng, path):
    """A Newell file holding one patch that repair cannot make compliant."""
    g = rank_deficient_patch(rng).as_array
    rows = [",".join(repr(float(v)) for v in g[:, i, j]) for i in range(4) for j in range(4)]
    indices = ",".join(str(k) for k in range(1, 17))
    path.write_text(f"1\n{indices}\n16\n" + "\n".join(rows) + "\n")
    return path


def test_rank_deficient_repair_is_input_error(capsys, tmp_path, rng):
    src = rank_deficient_newell(rng, tmp_path / "bad.newell")
    code, _, err = run(capsys, "teapot", "--in", str(src), "--out", str(tmp_path / "out"))
    assert code == 2
    assert "stage repair failed" in err and "patches [0]" in err
    code, _, err = run(capsys, "repair", "--in", str(src), "--out", str(tmp_path / "r.json"))
    assert code == 2
    assert "patches [0]" in err
    assert not (tmp_path / "r.json").exists()


def strict_json(text: str):
    """json.loads that rejects the NaN and Infinity tokens RFC 8259 does not allow."""

    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=reject)


_RANGE_COMMANDS = (
    ["validate"],
    ["validate", "--form", "hermite"],
    ["repair", "--out", "{out}/repaired.json"],
    ["convert", "--direction", "b2h", "--roundtrip", "--out", "{out}/h.json"],
    ["convert", "--direction", "h2b", "--roundtrip", "--out", "{out}/b.json"],
    ["tessellate", "--normals", "--merge", "--n", "4", "--out", "{out}/mesh.obj"],
    ["continuity", "--n", "4"],
    ["teapot", "--normals", "--n", "4", "--out", "{out}/teapot"],
)


def _range_family(family, seed, teapot_path):
    """An (N, 3, 4, 4) set whose largest |x| is 1 (random patches and sign
    patterns) or the teapot's, before scaling."""
    rng = np.random.default_rng(seed)
    count = 1 + seed % 3
    if family == "random":
        arr = rng.uniform(-1.0, 1.0, (count, 3, 4, 4))
        arr.reshape(-1)[rng.integers(arr.size)] = rng.choice([-1.0, 1.0])
        return arr
    if family == "signs":
        return rng.choice([-1.0, 1.0], (count, 3, 4, 4))
    teapot = read_newell(teapot_path).patches
    if family == "teapot":
        return np.stack([p.as_array for p in teapot])
    return np.stack([q.as_array for p in teapot for q in split_patch(p)])


@settings(max_examples=12, deadline=None)
@given(family=st.sampled_from(["random", "signs", "teapot", "split"]),
       seed=st.integers(0, 2**16), k=st.integers(-300, 250), newell=st.booleans())
@example(family="random", seed=0, k=250, newell=False)
@example(family="signs", seed=1, k=250, newell=True)
@example(family="split", seed=0, k=250, newell=False)
@example(family="teapot", seed=0, k=-300, newell=True)
def test_every_command_is_finite_and_quiet_on_the_accepted_range(tmp_path_factory, teapot_path,
                                                                 family, seed, k, newell):
    """Scaled by a power of two so that its largest |x| is at most 2**k,
    with k from -300 up to the bound's 250, every set the loaders accept
    runs through every command with an exit code of 0-3, reports that a
    strict JSON parser reads and no RuntimeWarning (an error under this
    suite's warning filter)."""
    arr = _range_family(family, seed, teapot_path)
    m, e = math.frexp(float(np.abs(arr).max()))
    arr = np.ldexp(arr, k - (e - (m == 0.5)))  # exact: no value falls below the normal range
    assert np.abs(arr).max() <= 2.0**k
    out = tmp_path_factory.mktemp("range")
    src = out / ("set.newell" if newell else "set.json")
    patches = PatchSet("set", arr).patches
    src.write_text(newell_text(patches) if newell else dump_patchset(PatchSet("set", arr)))
    assert read_patchset(src).points.tobytes() == arr.tobytes()
    for argv in _RANGE_COMMANDS:
        argv = [a.format(out=out) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, text = quiet_main(argv[0], "--in", str(src), *argv[1:], "--json")
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        if text:
            strict_json(text)
        assert "Warning" not in err.getvalue()
    if (out / "teapot" / "teapot_report.json").exists():
        strict_json((out / "teapot" / "teapot_report.json").read_text())


def read_past_the_bound(monkeypatch, path, ps):
    """Make the commands read ``ps`` for ``path``, as a library caller may
    build it, with values the loaders refuse."""
    read = cli.io.read_patchset
    monkeypatch.setattr(cli.io, "read_patchset", lambda p: ps if p == str(path) else read(p))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_a_report_holding_a_nonfinite_number_is_not_written(capsys, tmp_path, rng, monkeypatch):
    patch = random_patch(rng, -1.0, 1.0)
    code, out, _ = run(capsys, "validate", "--in", str(write_set(tmp_path, "unit", [patch])),
                       "--json")
    assert code == 1 and strict_json(out)["noncompliant_patches"] == [0]
    # near the end of the float range the diagonal coefficients overflow; the
    # loaders refuse such a set, so every command reports an input error
    big = BezierPatch(*(1.7e308 * g for g in patch.grids))
    src = write_set(tmp_path, "big", [big])
    newell = tmp_path / "big.newell"
    newell.write_text(newell_text([big]))
    for command, path, extra, prefix, where in (
        ("validate", src, [], "error: ", _ABOVE.format(0, "x")),
        ("repair", src, ["--out", str(tmp_path / "r.json")], "error: ", _ABOVE.format(0, "x")),
        ("teapot", newell, ["--out", str(tmp_path / "t")], "stage ingest failed: ", "line 4: "
         "coordinate of magnitude above 2**250\n"),
    ):
        for mode in (["--json"], []):
            code, out, err = run(capsys, command, "--in", str(path), *extra, *mode)
            assert (code, out, err) == (2, "", prefix + where)
    assert not (tmp_path / "r.json").exists()
    assert not (tmp_path / "t" / "teapot_report.json").exists()
    # handed such a set past the loaders, strict JSON stays the safety net
    read_past_the_bound(monkeypatch, src, PatchSet("big", [big]))
    read_past_the_bound(monkeypatch, newell, PatchSet("big", [big]))
    for argv in (
        ["validate", "--in", str(src)],
        ["validate", "--in", str(src), "--form", "hermite"],
    ):
        code, out, err = run(capsys, *argv, "--json")
        assert (code, out) == (4, "")
        assert err.startswith("error: report.") and "which JSON cannot hold" in err
    # text reports print the non-finite residuals as before
    code, out, _ = run(capsys, "validate", "--in", str(src))
    assert code == 1 and "max residual nan  NONCOMPLIANT" in out
    # repair calls a residual that is not a number infeasible, an input error,
    # in either mode, and writes no repaired set or report
    infeasible = "joint repair of patches [0] is infeasible: its residual is still nan"
    for mode in (["--json"], []):
        code, out, err = run(capsys, "repair", "--in", str(src), "--out",
                             str(tmp_path / "r.json"), *mode)
        assert (code, out) == (2, "") and err.startswith(f"error: {infeasible}")
        code, out, err = run(capsys, "teapot", "--in", str(newell), "--out",
                             str(tmp_path / "t"), *mode)
        assert (code, out) == (2, "") and err.startswith(f"stage repair failed: {infeasible}")
    assert not (tmp_path / "r.json").exists()
    assert not (tmp_path / "t" / "teapot_report.json").exists()


_FULL = np.full((4, 4), 1.7e308)  # its diagonal coefficients overflow to inf - inf
# A Hermite grid whose Bezier form is finite, and whose coefficients
# overflow to inf - inf all the same: h11 = h33 = h34 = h43 = h44 = 6e307,
# h14 = h41 = -1.7e308.
_FOUND = np.zeros((4, 4))
_FOUND[0, 0] = _FOUND[2, 2] = _FOUND[2, 3] = _FOUND[3, 2] = _FOUND[3, 3] = 6e307
_FOUND[0, 3] = _FOUND[3, 0] = -1.7e308


@pytest.mark.parametrize("form, coord, grid", [
    *(pytest.param("bezier", c, _FULL, id=str(c)) for c in range(3)),  # the default form
    *(pytest.param("hermite", c, _FULL, id=f"hermite-{c}") for c in range(3)),
    pytest.param("hermite", 1, _FOUND, id="hermite-found"),
])
def test_validate_calls_a_patch_with_a_nan_residual_noncompliant(capsys, tmp_path, monkeypatch,
                                                                 form, coord, grid):
    grids = [np.zeros((4, 4))] * 3
    grids[coord] = grid
    patch = BezierPatch(*grids)
    src = write_set(tmp_path, "nan", [patch])
    # such a grid is beyond the loaders' bound: validate refuses the file
    code, out, err = run(capsys, "validate", "--in", str(src), "--form", form)
    assert (code, out, err) == (2, "", "error: " + _ABOVE.format(0, "xyz"[coord]))
    with np.errstate(over="ignore", invalid="ignore"):
        arr = patch.as_array[None] if form == "bezier" else _convert(patch.as_array[None], "h2b")
        residual = cli._validation(arr, constraints.DEFAULT_TOL)[1]
        assert np.isnan(residual[0, coord]) and not np.isnan(np.delete(residual[0], coord)).any()
        # handed the set past the loaders, the validation stage calls it noncompliant
        read_past_the_bound(monkeypatch, src, PatchSet("nan", [patch]))
        code, out, _ = run(capsys, "validate", "--in", str(src), "--form", form)
        assert code == 1
        assert out.splitlines() == [
            "patch   0: max residual nan  NONCOMPLIANT", "0 of 1 patches compliant at tol 1e-09"
        ]
        code, out, err = run(capsys, "validate", "--in", str(src), "--form", form, "--json")
        assert (code, out) == (4, "") and "which JSON cannot hold" in err


def test_nonfinite_field_names_the_first_nonfinite_number():
    report = {"a": [1.0, {"b": 2.0, "c": (3.0, math.inf)}], "d": math.nan, "e": "nan"}
    assert _nonfinite_field(report) == ("report.a[1].c[1]", math.inf)
    assert _nonfinite_field({"a": [1.0, None, True, "x"]}) is None
