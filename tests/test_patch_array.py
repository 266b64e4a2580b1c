"""One patch array from loader to writer: ``PatchSet.points`` is the set's
(N, 3, 4, 4) array, and every pipeline stage takes it wherever it takes a
patch list, with bit-identical results."""

import re

import numpy as np
import pytest

from smartpatch import PatchSet, cli, constraints, io, patches, tessellation
from smartpatch.constraints import repair_patches
from smartpatch.io import dump_patchset, load_newell, load_patchset, read_newell
from smartpatch.patches import _patch_array, bezier_patches
from smartpatch.tessellation import continuity_measures, detect_adjacency, tessellate_set

from helpers import height_field_patches, newell_text, random_patch, split_patch


def _collapsed(rng):
    """A random patch whose U0 edge is squeezed to one point, like a pole."""
    grids = rng.uniform(-1.0, 1.0, (3, 4, 4))
    grids[:, 0, :] = grids[:, 0, :1]
    return bezier_patches(grids[None])


def _sets(rng, teapot_path):
    teapot = read_newell(teapot_path).patches
    return {
        "teapot": teapot,
        "split": [q for p in teapot for q in split_patch(p)],
        "height-field": height_field_patches(rng.uniform(-1.0, 1.0, (10, 10))),
        "empty": [],
        "collapsed": _collapsed(rng) + [random_patch(rng)],
    }


def _stages(source):
    """Each stage's result on ``source`` (a patch list or its array), as
    plain values that compare bit for bit."""
    repaired = repair_patches(source)
    records = detect_adjacency(source)
    mesh = tessellate_set(source, 3, with_normals=True)
    return {
        "repair": (_patch_array(repaired.patches), repaired.per_patch,
                   repaired.max_displacement, repaired.residual, repaired.system),
        "adjacency": records,
        "continuity": continuity_measures(source, records, 4),
        "tessellation": (mesh.vertices, mesh.triangles, mesh.normals),
    }


def _same(a, b):
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    if isinstance(a, (tuple, list)) and not hasattr(a, "_fields"):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


@pytest.mark.parametrize("name", ["teapot", "split", "height-field", "empty", "collapsed"])
def test_stages_give_the_same_results_on_the_array_and_the_list(rng, teapot_path, name):
    listed = _sets(rng, teapot_path)[name]
    ps = PatchSet(name, listed)
    points = ps.points.copy()  # writable: a stage that wrote to its input would show
    on_list = _stages(listed)
    for source in (points, ps.points):
        on_points = _stages(source)
        for stage, value in on_list.items():
            assert _same(value, on_points[stage]), stage
    assert points.flags.writeable and np.array_equal(points, ps.points)


@pytest.mark.parametrize("bad", [
    np.zeros((2, 3, 4)),
    np.zeros((2, 4, 4, 3)),
    np.zeros((3, 4, 4)),
    np.full((2, 3, 4, 4), np.nan),
    np.pad(np.full((1, 3, 4, 4), np.inf), ((1, 0), (0, 0), (0, 0), (0, 0))),
], ids=["short", "transposed", "one-patch", "nan", "inf"])
def test_a_bad_array_raises_what_bezier_patches_raises(bad):
    with pytest.raises(ValueError) as expected:
        bezier_patches(bad)
    message = re.escape(str(expected.value))
    for stage in (_patch_array, repair_patches, detect_adjacency,
                  lambda a: continuity_measures(a, [], 2), lambda a: tessellate_set(a, 2),
                  lambda a: PatchSet("bad", a)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            stage(bad)


def test_an_array_is_returned_unchanged():
    arr = np.arange(96.0).reshape(2, 3, 4, 4)
    assert _patch_array(arr) is arr and arr.flags.writeable
    assert _patch_array(arr.astype(np.float32)).dtype == float
    assert _patch_array([]).shape == (0, 3, 4, 4)


def _loaded(teapot_path):
    text = teapot_path.read_text()
    newell = load_newell(text, name="teapot")
    return {"newell": newell, "json": load_patchset(dump_patchset(newell))}


@pytest.mark.parametrize("loader", ["newell", "json"])
def test_a_loaded_set_holds_one_read_only_array(teapot_path, loader):
    ps = _loaded(teapot_path)[loader]
    assert ps.points.shape == (32, 3, 4, 4) and ps.points.dtype == float
    assert not ps.points.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ps.points[0, 0, 0, 0] = 1.0
    assert ps.patches is ps.patches and len(ps.patches) == 32
    assert np.array_equal(np.stack([p.as_array for p in ps.patches]), ps.points)
    assert all(np.shares_memory(p.as_array, ps.points) for p in ps.patches)
    assert np.shares_memory(ps.patches[0].x, ps.points)
    assert np.array_equal(ps.points, _loaded(teapot_path)["newell"].points)


def test_points_and_patches_cannot_be_reassigned(rng):
    a, b = random_patch(rng), random_patch(rng)
    given = [a, b]
    ps = PatchSet("s", given)
    given.append(a)  # the caller's list is not the set's
    assert ps.patches == [a, b] and not ps.points.flags.writeable
    assert np.array_equal(ps.points, np.stack([a.as_array, b.as_array]))
    for field, value in (("points", np.zeros((0, 3, 4, 4))), ("patches", [])):
        with pytest.raises(AttributeError):
            setattr(ps, field, value)
    ps.name, ps.adjacency = "renamed", []
    assert (ps.name, ps.adjacency) == ("renamed", [])
    from_array = PatchSet("s", ps.points)
    assert from_array.points is ps.points
    assert repr(from_array).startswith("PatchSet(name='s', patches=[BezierPatch(x=array(")


def test_a_teapot_run_turns_a_patch_list_into_an_array_at_most_once(
    capsys, tmp_path, teapot_path, monkeypatch
):
    calls = []
    original = patches._patch_array

    def counted(value):
        calls.append(isinstance(value, np.ndarray))
        return original(value)

    for module in (patches, io, constraints, tessellation):
        monkeypatch.setattr(module, "_patch_array", counted)
    assert not hasattr(cli, "_patch_array") and not hasattr(cli, "bezier_patches")
    code = cli.main(["teapot", "--in", str(teapot_path), "--out", str(tmp_path), "--normals"])
    capsys.readouterr()
    assert code == 0 and len(calls) > 5
    assert calls.count(False) <= 1


def test_a_newell_set_gathers_the_same_values_as_its_text(rng):
    listed = [random_patch(rng) for _ in range(3)]
    ps = load_newell(newell_text(listed))
    assert np.array_equal(ps.points, np.stack([p.as_array for p in listed]))
    assert ps.points.flags.c_contiguous
