import json

import numpy as np
import pytest

from smartpatch import BezierPatch, PatchFormatError, PatchSet
from smartpatch.io import (
    dump_patchset,
    export_obj,
    load_newell,
    load_patchset,
    read_newell,
    write_obj,
)
from smartpatch.tessellation import (
    Adjacency,
    EdgeId,
    EdgeSide,
    TriangleMesh,
    detect_adjacency,
    merge_meshes,
    tessellate,
)

from helpers import loop_export_obj, patchset_json, random_patch, split_patch


def test_single_constant_patch_document():
    grid = [[1.0] * 4 for _ in range(4)]
    doc = json.dumps({"name": "one", "patches": [{"x": grid, "y": grid, "z": grid}]})
    ps = load_patchset(doc)
    assert ps.name == "one"
    assert len(ps.patches) == 1
    assert np.allclose(ps.patches[0].x, 1.0)
    assert ps.adjacency is None


def test_missing_grid_is_schema_error():
    grid = [[0.0] * 4 for _ in range(4)]
    doc = json.dumps({"name": "bad", "patches": [{"x": grid, "y": grid}]})
    with pytest.raises(PatchFormatError, match="patch 0.*'z'"):
        load_patchset(doc)


def test_wrong_grid_size_names_patch():
    good = [[0.0] * 4 for _ in range(4)]
    bad = [[0.0] * 4 for _ in range(3)]
    doc = json.dumps(
        {"name": "bad", "patches": [{"x": good, "y": good, "z": good},
                                    {"x": bad, "y": good, "z": good}]}
    )
    with pytest.raises(PatchFormatError, match="patch 1"):
        load_patchset(doc)


def test_nonfinite_value_rejected():
    good = [[0.0] * 4 for _ in range(4)]
    bad = [[0.0] * 4 for _ in range(3)] + [[0.0, 0.0, 0.0, "Infinity"]]
    text = json.dumps({"name": "bad", "patches": [{"x": bad, "y": good, "z": good}]})
    text = text.replace('"Infinity"', "Infinity")  # json.loads accepts the literal
    with pytest.raises(PatchFormatError, match="non-finite"):
        load_patchset(text)


def test_parse_error_reports_line():
    with pytest.raises(PatchFormatError, match="line 3"):
        load_patchset('{\n "name": "x",\n "patches": ]\n}')


def test_save_load_roundtrip_bit_exact(rng):
    patches = [random_patch(rng) for _ in range(3)]
    # values with awkward decimal expansions survive exactly
    tricky = np.full((4, 4), 0.1) + np.arange(16).reshape(4, 4) * 1e-17
    patches.append(BezierPatch(tricky, tricky * -3.7, tricky / 3.0))
    adjacency = [Adjacency(0, EdgeId(EdgeSide.U1), 1, EdgeId(EdgeSide.U0, reversed=True))]
    ps = PatchSet(name="round", patches=patches, adjacency=adjacency)
    text = dump_patchset(ps)
    back = load_patchset(text)
    assert back.name == "round"
    for p, q in zip(ps.patches, back.patches):
        for g, h in zip(p.grids, q.grids):
            assert np.array_equal(g, h)
    assert back.adjacency == adjacency
    assert dump_patchset(back) == text  # deterministic re-serialization


def test_dump_is_the_indented_json_document(teapot_path):
    teapot = read_newell(teapot_path)
    split = PatchSet("split", [q for p in teapot.patches for q in split_patch(p)])
    edges = [EdgeId(side, flip) for side in EdgeSide for flip in (False, True)]
    records = [Adjacency(k, edges[k % 8], k + 1, edges[(3 * k) % 8]) for k in range(8)]
    special = np.array([[-0.0, 1e-300, 1.5e20, 3], [0, -2, 1e16, -1.5e-7]] * 2)
    sets = [
        teapot,
        split,
        PatchSet(split.name, split.patches, detect_adjacency(split.patches)),
        PatchSet('quote " back \\ tab \t', teapot.patches[:9], records),
        PatchSet("Kanne \u00e9\u00fc \u2603", [BezierPatch(special, special.T, -special)], []),
        PatchSet("", []),
    ]
    assert any(r.edge_b.reversed for r in sets[2].adjacency)
    for ps in sets:
        assert dump_patchset(ps).encode() == patchset_json(ps).encode()


def test_adjacency_validation():
    grid = [[0.0] * 4 for _ in range(4)]
    base = {"name": "x", "patches": [{"x": grid, "y": grid, "z": grid}]}
    doc = dict(base, adjacency=[{"a": 0, "edge_a": "U0", "b": 3, "edge_b": "U1"}])
    with pytest.raises(PatchFormatError, match="out of range"):
        load_patchset(json.dumps(doc))
    doc = dict(base, adjacency=[{"a": 0, "edge_a": "U0", "b": 0, "edge_b": "U0"}])
    with pytest.raises(PatchFormatError, match="itself"):
        load_patchset(json.dumps(doc))
    doc = dict(base, adjacency=[{"a": 0, "edge_a": "XX", "b": 0, "edge_b": "U1"}])
    with pytest.raises(PatchFormatError, match="edge_a"):
        load_patchset(json.dumps(doc))


# ---------------------------------------------------------------------------
# Newell format


def test_newell_single_patch_identity_mapping():
    lines = ["1", ",".join(str(i) for i in range(1, 17)), "16"]
    coords = [(float(k), float(k) * 2.0, float(k) * -1.0) for k in range(16)]
    lines += [f"{x},{y},{z}" for x, y, z in coords]
    ps = load_newell("\n".join(lines))
    assert len(ps.patches) == 1
    patch = ps.patches[0]
    expect = np.array([c[0] for c in coords]).reshape(4, 4)
    assert np.array_equal(patch.x, expect)
    assert np.array_equal(patch.y, expect * 2.0)
    assert np.array_equal(patch.z, expect * -1.0)


def test_newell_rejects_zero_index():
    lines = ["1", "0," + ",".join(str(i) for i in range(2, 17)), "16"]
    lines += ["0,0,0"] * 16
    with pytest.raises(PatchFormatError, match="out of range"):
        load_newell("\n".join(lines))


def test_newell_count_mismatch():
    lines = ["2", ",".join(str(i) for i in range(1, 17))]
    with pytest.raises(PatchFormatError, match="end of file"):
        load_newell("\n".join(lines))


def test_newell_bad_coordinate_line():
    lines = ["1", ",".join(str(i) for i in range(1, 17)), "16"]
    lines += ["0,0,0"] * 15 + ["0,0"]
    with pytest.raises(PatchFormatError, match=f"line {len(lines)}"):
        load_newell("\n".join(lines))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_newell_rejects_nonfinite_coordinate(bad):
    lines = ["1", ",".join(str(i) for i in range(1, 17)), "16"]
    lines += ["0,0,0"] * 15 + [f"0,{bad},0"]
    with pytest.raises(PatchFormatError, match=f"line {len(lines)}: non-finite"):
        load_newell("\n".join(lines))


def test_newell_reports_the_first_bad_vertex_line():
    lines = ["1", ",".join(str(i) for i in range(1, 17)), "16"]
    lines += ["0,0,0"] * 3 + ["0,nan,0"] + ["0,0,0"] * 2 + ["0,x,0", "0,0"]
    with pytest.raises(PatchFormatError, match="^line 7: non-finite"):
        load_newell("\n".join(lines))  # before the later non-numeric line
    with pytest.raises(PatchFormatError, match="^line 7: non-finite"):
        load_newell("\n".join(lines[:8]))  # before the end of the file


@pytest.mark.parametrize("index", ["0", "-3", "17", "9" * 30, "-" + "9" * 30])
def test_newell_reports_the_first_index_out_of_range(index):
    rows = [[str(i) for i in range(1, 17)] for _ in range(3)]
    rows[1][5] = index
    rows[2][0] = "18"
    lines = ["3"] + [",".join(r) for r in rows] + ["16"] + ["0,0,0"] * 16
    with pytest.raises(PatchFormatError, match=f"^line 3: vertex index {index} out of range 1..16"):
        load_newell("\n".join(lines))


@pytest.mark.parametrize("what, line", [("patch count", 1), ("vertex count", 3)])
def test_newell_rejects_negative_counts(what, line):
    lines = ["1", ",".join(str(i) for i in range(1, 17)), "16"] + ["0,0,0"] * 16
    lines[line - 1] = "-1"
    with pytest.raises(PatchFormatError, match=f"^line {line}: expected {what}, got '-1'"):
        load_newell("\n".join(lines))


def test_newell_trailing_garbage():
    lines = ["1", ",".join(str(i) for i in range(1, 17)), "16"]
    lines += ["0,0,0"] * 16 + ["extra"]
    with pytest.raises(PatchFormatError, match="trailing"):
        load_newell("\n".join(lines))


def test_teapot_counts(teapot_path):
    ps = read_newell(teapot_path)
    assert len(ps.patches) == 32
    # the shipped dataset carries the 290 distinct control points actually
    # referenced by the 32 patches
    text = teapot_path.read_text().splitlines()
    assert text[33] == "290"
    assert len(text) == 1 + 32 + 1 + 290


def test_teapot_first_patch_spot_values(teapot_path):
    ps = read_newell(teapot_path)
    rim = ps.patches[0]
    assert rim.x[0, 0] == 1.4 and rim.y[0, 0] == 0.0 and rim.z[0, 0] == 2.4
    assert rim.x[3, 3] == 0.0 and rim.y[3, 3] == -1.5 and rim.z[3, 3] == 2.4


# ---------------------------------------------------------------------------
# OBJ export


def test_export_single_triangle():
    mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    text = export_obj(mesh)
    lines = text.splitlines()
    assert lines == ["v 0.0 0.0 0.0", "v 1.0 0.0 0.0", "v 0.0 1.0 0.0", "f 1 2 3"]


def test_export_empty_mesh():
    mesh = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    assert export_obj(mesh) == ""


def test_export_with_normals_layout():
    mesh = TriangleMesh(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
        [[0, 1, 2]],
        normals=[[0, 0, 1], [0, 0, 1], [0, 0, 1]],
    )
    lines = export_obj(mesh).splitlines()
    assert lines[3:] == ["vn 0.0 0.0 1.0"] * 3 + ["f 1//1 2//2 3//3"]


def test_export_deterministic(rng):
    mesh = tessellate(random_patch(rng), 4, with_normals=True)
    assert export_obj(mesh) == export_obj(mesh)


def test_export_roundtrips_float_values(rng):
    mesh = tessellate(random_patch(rng), 2)
    text = export_obj(mesh)
    parsed = [
        [float(tok) for tok in line.split()[1:]]
        for line in text.splitlines()
        if line.startswith("v ")
    ]
    assert np.array_equal(np.array(parsed), mesh.vertices)


@pytest.mark.parametrize("with_normals", [False, True])
def test_export_bytes_match_line_loop(teapot_path, with_normals):
    patches = read_newell(teapot_path).patches
    mesh = merge_meshes([tessellate(p, 4, with_normals=with_normals) for p in patches])
    mesh.vertices[0] = (-0.0, 1e-300, 1.5e20)
    assert export_obj(mesh).encode() == loop_export_obj(mesh).encode()


@pytest.mark.parametrize("with_normals", [False, True])
def test_write_obj_writes_export_obj(tmp_path, rng, with_normals):
    # 3362 vertices and 3200 triangles: several 1024-line blocks per section
    mesh = merge_meshes([tessellate(random_patch(rng), 40, with_normals=with_normals) for _ in range(2)])
    path = tmp_path / "mesh.obj"
    write_obj(mesh, path)
    assert path.read_bytes() == export_obj(mesh).encode()
