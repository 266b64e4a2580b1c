import dataclasses
import json
import shutil

import numpy as np
import pytest

from smartpatch import BezierPatch, DiagonalKind, PatchSet, bs_residuals, repair_patches
from smartpatch import constraints
from smartpatch.cli import main
from smartpatch.constraints import grid_scale
from smartpatch.io import dump_patchset, read_newell, read_patchset
from smartpatch.tessellation import TessPattern, merge_meshes, tessellate

from helpers import (
    bilinear_grid,
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
    from helpers import hs_consistent_grid

    patches = [BezierPatch(*(hs_consistent_grid(rng) for _ in range(3)))]
    path = write_set(tmp_path, "hs", patches)
    code, out, _ = run(capsys, "validate", "--in", str(path), "--form", "hermite", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["patches"][0]["compliant"] is True


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


def test_continuity_needs_adjacency(capsys, bilinear_set):
    code, _, err = run(capsys, "continuity", "--in", str(bilinear_set))
    assert code == 2
    assert "detect" in err


def test_continuity_teapot_detected(capsys, teapot_path):
    code, out, _ = run(capsys, "continuity", "--in", str(teapot_path), "--detect", "--json")
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
    assert rep["repair"] == json.loads(json.dumps(dataclasses.asdict(result.system)))
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
    single = report("continuity", "--in", str(src), "--detect", "--n", "4")
    after = report("continuity", "--in", str(repaired), "--detect", "--n", "4")
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


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_tol_must_be_finite_and_nonnegative(capsys, teapot_path, tmp_path, tol):
    with pytest.raises(SystemExit) as exc:
        main(["teapot", "--in", str(teapot_path), "--out", str(tmp_path / "out"), "--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, n, extra",
    [
        (cmd, n, extra)
        for cmd, extra in (("teapot", ["--out", "out"]), ("continuity", ["--detect"]))
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
