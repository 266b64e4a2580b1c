"""The contract of smartpatch's result records and checked classes.

Value records are NamedTuples: keyword or positional construction with
defaults, read-only fields, value equality and hash, a ``Name(field=...)``
repr, and ``_asdict()`` in field order.  Poly and the patches are immutable
classes with an explicit ``__init__``; PatchSet and TriangleMesh check and
normalise their input and keep assignable fields.  No class is built by
``dataclasses``, so importing the package generates no code.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import smartpatch
from smartpatch import constraints, io, patches, tessellation
from smartpatch.cli import main
from smartpatch.constraints import (
    ConstraintReport,
    ConstraintSystem,
    DiagonalKind,
    DiagonalResiduals,
    InnerIdentityResolution,
    PatchRepairStats,
    Poly,
    RepairResult,
    RepairSystemStats,
    build_lambda,
    bs_residuals,
    repair_patches,
    resolve_inner_identity,
)
from smartpatch.io import PatchFormatError, PatchSet
from smartpatch.patches import BezierPatch, HermitePatch
from smartpatch.tessellation import (
    Adjacency,
    ContinuityReport,
    EdgeId,
    EdgeSide,
    TriangleMesh,
    continuity_report,
)

from helpers import random_patch

REPO_ROOT = Path(__file__).resolve().parent.parent

_U0, _U1 = EdgeId(EdgeSide.U0), EdgeId(EdgeSide.U1)
_RESIDUALS = DiagonalResiduals(a6=1.0, a5=-2.0, a4=0.5, rel=(0.1, 0.2, 0.05))

# Per record: keyword arguments, and the defaults construction fills in.
RECORDS = [
    (ConstraintSystem, lambda: build_lambda()._asdict(), {}),
    (DiagonalResiduals, lambda: _RESIDUALS._asdict(), {}),
    (ConstraintReport, lambda: dict(
        per_diagonal={DiagonalKind.MAIN: _RESIDUALS, DiagonalKind.ANTI: _RESIDUALS},
        max_residual=0.2, compliant=False, tolerance_used=1e-9), {}),
    (InnerIdentityResolution, lambda: dict(
        plus_variant_holds=True, minus_variant_holds=False, corner_coefficient=Fraction(1, 9)),
     {}),
    (PatchRepairStats, lambda: dict(max_displacement=0.25, corner_displacement=0.0), {}),
    (RepairSystemStats, lambda: dict(rows=10, step_residuals=(1e-3, 1e-16)), dict(
        free_variables=0, shared_variables=0, fixed_variables=0, components=0, levels=0,
        max_level_patches=0)),
    (RepairResult, lambda: dict(patches=[], per_patch=[], max_displacement=0.0, residual=0.0),
     dict(system=RepairSystemStats())),
    (EdgeId, lambda: dict(side=EdgeSide.V1), dict(reversed=False)),
    (Adjacency, lambda: dict(a=0, edge_a=_U1, b=1, edge_b=EdgeId(EdgeSide.U0, True)), {}),
    (ContinuityReport, lambda: dict(
        c0_max_gap=0.0, c1_max_mismatch=1e-12, g1_max_angle=0.5, samples=17), {}),
]
# Records holding a list, dict or array are not hashable, as their fields are not.
UNHASHABLE = {ConstraintSystem, ConstraintReport, RepairResult}


@pytest.mark.parametrize("cls, kwargs, defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_immutable_values(cls, kwargs, defaults):
    given = kwargs()
    rec = cls(**given)
    assert rec._asdict() == {**defaults, **given}
    assert list(rec._asdict()) == list(cls._fields)
    assert cls(*rec) == rec and cls(**given) == rec and cls(**given) is not rec
    assert repr(rec).startswith(f"{cls.__name__}({cls._fields[0]}=")
    name = cls._fields[-1]
    with pytest.raises(AttributeError):
        setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError):
        rec.extra = 1
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(rec)
    else:
        assert hash(cls(**given)) == hash(rec) and len({rec, cls(**given)}) == 1
        assert rec._replace(**{name: "changed"}) != rec


def test_records_made_by_the_package_are_the_same_values():
    lam = build_lambda()
    assert ConstraintSystem(**lam._asdict()) == lam
    assert resolve_inner_identity() == InnerIdentityResolution(True, False, Fraction(1, 9))
    assert repair_patches([]) == RepairResult([], [], 0.0, 0.0, RepairSystemStats())
    assert _RESIDUALS.max_rel == 0.2
    rep = bs_residuals(np.zeros((4, 4)))
    assert rep.per_diagonal[DiagonalKind.MAIN] == DiagonalResiduals(0.0, 0.0, 0.0, (0.0,) * 3)
    assert tuple(rep)[1:] == (0.0, True, constraints.DEFAULT_TOL)
    p = BezierPatch(*np.zeros((3, 4, 4)))
    assert continuity_report(p, _U1, p, _U1, 4) == ContinuityReport(0.0, 0.0, 0.0, 5)


def test_poly_is_an_immutable_value():
    p = Poly(coeffs=[1, 2.5, np.float32(3)])
    assert p.coeffs == (1.0, 2.5, 3.0) and all(type(c) is float for c in p.coeffs)
    assert Poly([1.0, 2.5, 3.0]) == p and hash(Poly((1, 2.5, 3))) == hash(p)
    assert Poly([1.0, 2.5]) != p and p != (1.0, 2.5, 3.0)
    assert repr(p) == "Poly(coeffs=(1.0, 2.5, 3.0))"
    with pytest.raises(AttributeError):
        p.coeffs = (0.0,)
    with pytest.raises(AttributeError):
        del p.coeffs
    with pytest.raises(ValueError, match="at least one coefficient"):
        Poly(coeffs=[])


@pytest.mark.parametrize("cls", [BezierPatch, HermitePatch])
def test_patches_are_immutable_and_compare_by_identity(cls, rng):
    grids = rng.uniform(-1, 1, (3, 4, 4))
    p = cls(x=grids[0], y=grids[1], z=grids[2])
    assert all(np.array_equal(g, w) and not g.flags.writeable for g, w in zip(p.grids, grids))
    assert p == p and p != cls(*grids) and len({p, cls(*grids)}) == 2
    assert repr(p).startswith(f"{cls.__name__}(x=array(")
    for name in ("x", "extra"):
        with pytest.raises(AttributeError):
            setattr(p, name, grids[0])
    with pytest.raises(AttributeError):
        del p.y
    with pytest.raises(ValueError, match="grid must be 4x4"):
        cls(grids[0], grids[1], grids[2][:3])
    with pytest.raises(ValueError, match="non-finite"):
        cls(grids[0], np.full((4, 4), np.nan), grids[2])


def test_patch_arrays_stay_cached_views(rng):
    made = patches.bezier_patches(rng.uniform(-1, 1, (2, 3, 4, 4)))[1]
    assert made.as_array is made.as_array and made.x.base is made.as_array.base
    p = BezierPatch(*made.grids)
    assert p.as_array is p.as_array and np.array_equal(p.as_array, made.as_array)


def test_patch_sets_check_their_adjacency(rng):
    a, b = random_patch(rng), random_patch(rng)
    ps = PatchSet(name="s", patches=[a, b])
    assert ps.adjacency is None
    assert repr(ps).startswith("PatchSet(name='s', patches=[BezierPatch(x=array(")
    records = [Adjacency(0, _U1, 1, _U0)]
    assert PatchSet("s", [a, b], records) == PatchSet("s", [a, b], list(records))
    assert PatchSet("s", [a, b]) != PatchSet("s", [a, random_patch(rng)]) and ps != ("s", [a, b])
    with pytest.raises(TypeError, match="unhashable"):
        hash(ps)
    ps.name = "renamed"  # the CLI names a set after its file
    assert ps.name == "renamed"
    with pytest.raises(PatchFormatError, match="adjacency index 2 out of range"):
        PatchSet("s", [a, b], [Adjacency(0, _U1, 2, _U0)])
    with pytest.raises(PatchFormatError, match="patch 1 edge U1 marked adjacent to itself"):
        PatchSet("s", [a, b], [Adjacency(1, _U1, 1, EdgeId(EdgeSide.U1, True))])


def test_triangle_meshes_normalise_and_check_their_arrays():
    mesh = TriangleMesh(vertices=[0, 0, 0, 1, 0, 0, 0, 1, 0], triangles=[0, 1, 2])
    assert mesh.normals is None
    assert mesh.vertices.shape == (3, 3) and mesh.vertices.dtype == float
    assert mesh.triangles.shape == (1, 3) and mesh.triangles.dtype == np.int64
    assert repr(mesh).startswith("TriangleMesh(vertices=array(")
    assert mesh == mesh and mesh != "mesh"
    assert TriangleMesh(mesh.vertices, mesh.triangles) != mesh  # by identity, without raising
    assert hash(mesh) == hash(mesh)
    mesh.triangles = mesh.triangles[::-1]  # fields stay assignable
    normals = TriangleMesh(mesh.vertices, mesh.triangles, normals=[[0, 0, 1]] * 3).normals
    assert normals.shape == (3, 3) and normals.dtype == float
    with pytest.raises(ValueError, match="triangle index out of range"):
        TriangleMesh(mesh.vertices, [[0, 1, 3]])
    with pytest.raises(ValueError, match="repeated vertex index"):
        TriangleMesh(mesh.vertices, [[0, 1, 1]])
    with pytest.raises(ValueError, match="one normal per vertex"):
        TriangleMesh(mesh.vertices, [[0, 1, 2]], np.zeros((2, 3)))


def test_json_reports_print_record_fields_in_field_order(capsys, teapot_path, tmp_path):
    assert RepairSystemStats._fields == (
        "rows", "free_variables", "shared_variables", "fixed_variables", "components",
        "levels", "max_level_patches", "step_residuals",
    )
    assert main(["repair", "--in", str(teapot_path), "--out", str(tmp_path / "r.json"),
                 "--json"]) == 0
    assert list(json.loads(capsys.readouterr().out)["repair"]) == list(RepairSystemStats._fields)
    for form in ("bezier", "hermite"):  # one report shape for both forms
        assert main(["validate", "--in", str(teapot_path), "--form", form, "--json"]) == 1
        patch = json.loads(capsys.readouterr().out)["patches"][0]
        assert list(patch) == ["max_residual", "compliant", "coords", "index"]
        fields = [list(c) for c in patch["coords"].values()]
        assert fields == [["main", "anti", "max_residual"]] * 3


def test_no_class_of_the_package_is_a_dataclass():
    modules = [smartpatch, constraints, io, patches, tessellation, sys.modules["smartpatch.cli"]]
    classes = [v for m in modules for v in vars(m).values() if isinstance(v, type)]
    assert len(classes) > 20
    assert not [c.__name__ for c in classes if hasattr(c, "__dataclass_fields__")]


def test_importing_the_cli_does_not_import_dataclasses():
    code = "import sys, smartpatch.cli; print(smartpatch.__file__, 'dataclasses' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code], cwd=REPO_ROOT,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        capture_output=True, text=True, check=True,
    )
    module, imported = proc.stdout.split()
    assert Path(module) == REPO_ROOT / "src" / "smartpatch" / "__init__.py"
    assert imported == "False"
