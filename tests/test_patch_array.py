"""One patch array from loader to writer: ``PatchSet.points`` is the set's
(N, 3, 4, 4) array, and every pipeline stage takes it wherever it takes a
patch list, with bit-identical results."""

import re

import numpy as np
import pytest

from smartpatch import PatchSet, cli, constraints, io, patches, tessellation
from smartpatch.constraints import repair_patches
from smartpatch.io import dump_patchset, load_newell, load_patchset, read_newell, read_patchset
from smartpatch.patches import _patch_array
from smartpatch.tessellation import continuity_measures, detect_adjacency, tessellate_set

from helpers import (
    bezier_patches,
    height_field_patches,
    newell_text,
    parent_repair,
    random_patch,
    reachable_arrays,
    split_patch,
)


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
        "repair": (repaired.points, repaired.displacement, repaired.corner_displacement,
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
    for field, value in (("points", np.zeros((0, 3, 4, 4))), ("patches", []), ("adjacency", [])):
        with pytest.raises(AttributeError):
            setattr(ps, field, value)
    ps.name = "renamed"
    assert (ps.name, ps.adjacency) == ("renamed", None)
    from_array = PatchSet("s", ps.points)
    assert from_array.points is ps.points
    assert repr(from_array).startswith("PatchSet(name='s', patches=[BezierPatch(x=array(")


def test_a_teapot_run_stacks_no_patch_list_and_makes_no_patch(
    capsys, tmp_path, teapot_path, monkeypatch
):
    calls, made = [], []
    original, of, init = patches._patch_array, patches._PatchGrids._of, patches._PatchGrids.__init__

    def counted(value):
        calls.append(isinstance(value, np.ndarray))
        return original(value)

    for module in (patches, io, constraints, tessellation):
        monkeypatch.setattr(module, "_patch_array", counted)
    monkeypatch.setattr(patches._PatchGrids, "_of",
                        classmethod(lambda cls, arr: made.append(cls) or of.__func__(cls, arr)))
    monkeypatch.setattr(patches._PatchGrids, "__init__",
                        lambda self, *grids: made.append(type(self)) or init(self, *grids))
    held = _holding(monkeypatch)  # and no set copies what it is given
    assert not hasattr(cli, "_patch_array") and not hasattr(cli, "BezierPatch")
    code = cli.main(["teapot", "--in", str(teapot_path), "--out", str(tmp_path), "--normals"])
    capsys.readouterr()
    assert code == 0 and len(calls) > 5
    assert calls.count(False) == 0 and made == [] and held == [True, True]
    patches.BezierPatch(*np.zeros((3, 4, 4)))  # the counters count
    constraints.repair_patches(np.zeros((2, 3, 4, 4))).patches
    assert made == [patches.BezierPatch] * 3


def test_a_newell_set_gathers_the_same_values_as_its_text(rng):
    listed = [random_patch(rng) for _ in range(3)]
    ps = load_newell(newell_text(listed))
    assert np.array_equal(ps.points, np.stack([p.as_array for p in listed]))
    assert ps.points.flags.c_contiguous


def _given_arrays():
    """Arrays a set may be given, with whether every array each one views is
    read-only, so that the set may hold it."""
    frozen = np.arange(96.0)
    frozen.flags.writeable = False
    frozen = frozen.reshape(2, 3, 4, 4)
    return {
        "view of a writeable base": (np.zeros((4, 3, 4, 4))[:2], False),
        "transposed view": (np.zeros((4, 4, 3, 2)).transpose(3, 2, 0, 1), False),
        "view of a read-only base": (frozen[::-1], True),
        "fresh array": (np.zeros((2, 3, 4, 4)), True),
        "points of a set": (PatchSet("s", np.ones((2, 3, 4, 4))).points, True),
    }


@pytest.mark.parametrize("name", list(_given_arrays()))
def test_a_set_holds_an_array_only_when_nothing_it_views_is_writeable(name):
    given, held = _given_arrays()[name]
    assert held == all(not a.flags.writeable for a in list(reachable_arrays(given))[1:])
    before = given.copy()
    ps = PatchSet("s", given)
    assert (ps.points is given) == held
    assert all(not a.flags.writeable for a in reachable_arrays(ps.points))
    for a in reachable_arrays(given):
        if a.flags.writeable:
            a[...] = 5.0  # the caller's memory changes; the set's does not
    assert ps.points.tobytes() == before.tobytes()
    assert ps.patches[0].x.tobytes() == before[0, 0].tobytes()


def test_a_set_from_a_view_does_not_change_under_its_caller():
    big = np.zeros((4, 3, 4, 4))
    ps = PatchSet("s", big[:2])
    big[0, 0, 0, 0] = 5.0
    assert ps.points[0, 0, 0, 0] == 0.0 and ps.patches[0].x[0, 0] == 0.0


def _holding(monkeypatch):
    """Whether each set that ``io`` builds from here on holds, uncopied, the
    array or list it is given, in order of construction."""
    held = []

    class Holding(PatchSet):
        def __init__(self, name, patches, adjacency=None):
            super().__init__(name, patches, adjacency)
            held.append(self.points is patches)

    monkeypatch.setattr(io, "PatchSet", Holding)
    return held


def test_loaders_and_repair_hand_over_arrays_frozen_whole(teapot_path, monkeypatch):
    held = _holding(monkeypatch)
    loaded = _loaded(teapot_path).values()
    assert held == [True, True]
    for ps in loaded:
        result = repair_patches(ps.points)
        for given in (ps.points, result.points):
            assert all(not a.flags.writeable for a in reachable_arrays(given))
        assert io.PatchSet("s", result.points).points is result.points
    assert held == [True] * 4


def test_sets_over_the_same_array_compare_equal(teapot_path, monkeypatch):
    a = read_patchset(teapot_path).points
    made = []
    monkeypatch.setattr(patches._PatchGrids, "_of", classmethod(lambda cls, arr: made.append(1)))
    assert PatchSet("s", a) == PatchSet("s", a) and made == []
    assert PatchSet("s", a) == PatchSet("s", a.copy())
    assert PatchSet("s", a) != PatchSet("t", a) and PatchSet("s", a) != PatchSet("s", a, [])
    assert PatchSet("s", a) != PatchSet("s", a[:31])
    zeros = np.zeros((1, 3, 4, 4))
    assert PatchSet("s", zeros) != PatchSet("s", -zeros)  # bytes, so the sign of zero counts
    assert made == []


def _repair_sets(rng, teapot_path):
    teapot = read_newell(teapot_path).patches
    split1 = [q for p in teapot for q in split_patch(p)]
    p = random_patch(rng)
    return {
        "teapot": teapot,
        "split1": split1,
        "split2": [q for p in split1 for q in split_patch(p)],
        "height-field": height_field_patches(rng.uniform(-1.0, 1.0, (31, 31))),
        "empty": [],
        "collapsed": _collapsed(rng) + [random_patch(rng)],
        "duplicated": [p, p],
    }


@pytest.mark.parametrize(
    "name", ["teapot", "split1", "split2", "height-field", "empty", "collapsed", "duplicated"]
)
def test_repair_returns_the_values_of_its_patch_objects_as_read_only_arrays(
    rng, teapot_path, name
):
    given = _repair_sets(rng, teapot_path)[name]
    result = repair_patches(given)
    listed, per_patch = parent_repair(given)
    expected = _patch_array(listed)
    assert result.points.dtype == expected.dtype and result.points.shape == expected.shape
    assert result.points.tobytes() == expected.tobytes()
    moves = np.array(per_patch).reshape(-1, 2).T
    for got, want in zip((result.displacement, result.corner_displacement), moves):
        assert got.dtype == float and got.shape == (len(given),)
        assert got.tobytes() == want.tobytes()
    for arr in result[:3]:
        assert all(not a.flags.writeable for a in reachable_arrays(arr))
    views = result.patches
    assert views is not result.patches and len(views) == len(given)
    assert all(np.shares_memory(v.as_array, result.points) for v in views)
