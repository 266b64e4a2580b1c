"""The per-grid operators read a float64 ndarray (no subclass) of the right shape as
it is, and every other input through ``patches._shaped``; the patch
constructors copy any input through it.  On every form of input, the
operators, constructors and conversions give what they gave before the
one-grid paths existed: the oracles in ``helpers``."""

import json
import os
import re
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from smartpatch import constraints, patches
from smartpatch.constraints import (
    ConstraintReport,
    DiagonalKind,
    DiagonalResiduals,
    bs_inner_identity,
    bs_project,
    bs_residuals,
    bs_solve,
)
from smartpatch.patches import BezierPatch, HermitePatch, bezier_to_hermite, hermite_to_bezier

from helpers import (
    convert_patch_array,
    inner_identity_per_grid,
    patch_array_per_grid,
    project_per_grid,
    reachable_arrays,
    residuals_per_grid,
    solve_per_grid,
)

SPECIAL = (np.nan, np.inf, -np.inf, -0.0, 1e308, -1e308, 5e-324, -2.5e-310)


def _reversed(a: np.ndarray) -> np.ndarray:
    """A view with negative strides whose values are those of ``a``."""
    flip = (slice(None, None, -1),) * a.ndim
    return np.ascontiguousarray(a[flip])[flip]


def _strided(a: np.ndarray) -> np.ndarray:
    """A non-contiguous view, every other element of a larger array."""
    big = np.zeros(tuple(2 * n for n in a.shape))
    big[(slice(None, None, 2),) * a.ndim] = a
    return big[(slice(None, None, 2),) * a.ndim]


def _read_only(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.flags.writeable = False
    return a


def _ints(a: np.ndarray) -> np.ndarray:
    return np.nan_to_num(a, posinf=7.0, neginf=-7.0).clip(-1e6, 1e6).astype(np.int64)


def _nested(a: np.ndarray, kind):
    return kind(kind(row) for row in a.tolist()) if a.ndim == 2 else kind(a.tolist())


# Every form of one float64 array ``a`` (a 4x4 grid, or a 1-D row of values).
FORMS = {
    "C": np.copy,
    "F": np.asfortranarray,
    "transposed": lambda a: np.ascontiguousarray(a.T).T,
    "reversed": _reversed,
    "strided": _strided,
    "read-only": _read_only,
    "big-endian": lambda a: a.astype(">f8"),
    "float32": lambda a: a.astype(np.float32),
    "int": _ints,
    "bool": lambda a: a != 0.0,
    "list": lambda a: _nested(a, list),
    "tuple": lambda a: _nested(a, tuple),
    "matrix": np.matrix,
}
ROW_FORMS = [name for name in FORMS if name not in ("F", "transposed", "matrix")]

_Raised = namedtuple("_Raised", "type message")


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raised; numpy's
    floating-point warnings are off, for the operator and its oracle alike."""
    with np.errstate(all="ignore"):
        try:
            return fn(*args)
        except Exception as err:  # the exception is the result compared
            return _Raised(type(err), str(err))


def bits(values) -> bytes:
    assert all(type(v) is float for v in values)
    return np.array(values, dtype=float).tobytes()


def assert_same_array(got, expect):
    if type(expect) is _Raised:
        assert got == expect
        return
    assert type(got) is np.ndarray and got.dtype == expect.dtype and got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()
    assert all(not a.flags.writeable for a in reachable_arrays(got))


def assert_same_report(got, expect):
    if type(expect) is _Raised:
        assert got == expect
        return
    assert type(got) is ConstraintReport and type(got.per_diagonal) is dict
    assert list(got.per_diagonal) == list(expect.per_diagonal) == list(DiagonalKind)
    for kind, want in expect.per_diagonal.items():
        have = got.per_diagonal[kind]
        assert type(have) is DiagonalResiduals and type(have.rel) is tuple
        assert bits(have[:3]) == bits(want[:3]) and bits(have.rel) == bits(want.rel)
        assert bits([have.max_rel]) == bits([want.max_rel])
    assert bits([got.max_residual]) == bits([expect.max_residual])
    assert type(got.compliant) is bool and got.compliant == expect.compliant
    assert got.tolerance_used is expect.tolerance_used


def assert_same_patch(got, expect, cls):
    if type(expect) is _Raised:
        assert got == expect
        return
    assert type(got) is cls
    assert_same_array(got.as_array, expect)
    for k, grid in enumerate(got.grids):
        assert grid.base is got.as_array and grid.tobytes() == expect[k].tobytes()


@st.composite
def special_arrays(draw, shape):
    """Values in [-10, 10] with up to three entries replaced by SPECIAL ones."""
    a = draw(arrays(np.float64, shape, elements=st.floats(-10, 10)))
    for index, value in draw(st.lists(st.tuples(st.integers(0, a.size - 1),
                                                st.sampled_from(SPECIAL)), max_size=3)):
        a.flat[index] = value
    return a


def made(form: str, a: np.ndarray):
    with np.errstate(all="ignore"):
        return FORMS[form](a)


@pytest.mark.filterwarnings("ignore::PendingDeprecationWarning")  # np.matrix
@settings(max_examples=300, deadline=None)
@given(g=special_arrays((4, 4)), form=st.sampled_from(list(FORMS)),
       tol=st.sampled_from([constraints.DEFAULT_TOL, 0.0, 1e-3, 1e300]))
def test_grid_operators_match_their_oracles_on_every_input_form(g, form, tol):
    grid = made(form, g)
    assert_same_report(outcome(bs_residuals, grid, tol), outcome(residuals_per_grid, grid, tol))
    assert_same_array(outcome(bs_project, grid), outcome(project_per_grid, grid))
    got, expect = outcome(bs_inner_identity, grid), outcome(inner_identity_per_grid, grid)
    assert type(got) is float and bits([got]) == bits([expect])


@pytest.mark.filterwarnings("ignore::PendingDeprecationWarning")  # np.matrix
@pytest.mark.parametrize("form", list(FORMS))
@settings(max_examples=40, deadline=None)
@given(g=special_arrays((4, 4)), row=special_arrays((11,)))
def test_operators_give_every_input_form_the_bits_of_its_contiguous_copy(form, g, row):
    """An operator's bits do not depend on the memory layout or the type of
    its input: each equals the operator's result for the C-contiguous float64
    copy of the same values."""
    grid = made(form, g)
    with np.errstate(all="ignore"):
        contiguous = np.ascontiguousarray(grid, dtype=float)
    assert_same_report(outcome(bs_residuals, grid), outcome(bs_residuals, contiguous))
    assert_same_array(outcome(bs_project, grid), outcome(bs_project, contiguous))
    got, expect = outcome(bs_inner_identity, grid), outcome(bs_inner_identity, contiguous)
    assert bits([got]) == bits([expect])
    if form in ROW_FORMS:
        corners, free = made(form, row[:4]), made(form, row[4:])
        with np.errstate(all="ignore"):
            copies = [np.ascontiguousarray(v, dtype=float) for v in (corners, free)]
        assert_same_array(outcome(bs_solve, corners, free), outcome(bs_solve, *copies))


# Run in a child process whose OpenBLAS kernel is chosen by OPENBLAS_CORETYPE:
# prints the kernel it runs and how many one-grid results differ, by bytes,
# from the set-wide coefficients or the oracles.
KERNEL_CHILD = r"""
import ctypes, json
import numpy as np
from helpers import project_per_grid, solve_per_grid
from smartpatch.constraints import _diagonal_coefficients, bs_project, bs_residuals, bs_solve

blas = next(line.split()[-1] for line in open("/proc/self/maps")
            if "openblas" in line.rsplit("/", 1)[-1])
lib = ctypes.CDLL(blas)
corename = getattr(lib, "scipy_openblas_get_corename64_", None) or lib.openblas_get_corename
corename.restype = ctypes.c_char_p
rng = np.random.default_rng(36)
grids = rng.uniform(-1, 1, (300, 4, 4)) * 10.0 ** rng.integers(-5, 6, (300, 1, 1))
grids[::3] = grids[::3, :1, :1]  # constant grids, whose residuals are pure rounding
grids[1::5, 1, 2] = -0.0
given = rng.uniform(-10, 10, (300, 11))
coefficients = _diagonal_coefficients(grids.reshape(-1, 16))[0]
differ = 0
for g, row, want in zip(grids, given, coefficients):
    for grid in (g, np.ascontiguousarray(g[::-1, ::-1])[::-1, ::-1]):
        report = bs_residuals(grid)
        got = [v for d in report.per_diagonal.values() for v in d[:3]]
        differ += np.array(got).tobytes() != want.tobytes()
        differ += bs_project(grid).tobytes() != project_per_grid(grid).tobytes()
    differ += bs_solve(row[:4], row[4:]).tobytes() != solve_per_grid(row[:4], row[4:]).tobytes()
print(json.dumps({"core": corename().decode(), "grids": len(grids), "differ": int(differ)}))
"""


@pytest.mark.parametrize("core", ["Haswell", "Sandybridge"])
def test_one_grid_operators_match_the_set_and_their_oracles_under_other_blas_kernels(core):
    """Under another OpenBLAS kernel, set in the child's environment only,
    each one-grid result still equals the set-wide coefficients' row or its
    oracle by bytes, for C-contiguous grids and negative-stride views alike."""
    maps = Path("/proc/self/maps")
    if not maps.exists() or not any("openblas" in line.rsplit("/", 1)[-1]
                                    for line in maps.read_text().splitlines()):
        pytest.skip("numpy's BLAS is not an OpenBLAS library mapped into this process")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    proc = subprocess.run([sys.executable, "-B", "-c", KERNEL_CHILD], cwd=root, env=env,
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout)
    if result["core"].lower() != core.lower():
        pytest.skip(f"OpenBLAS runs its {result['core']} kernel here, not {core}")
    assert result == {"core": result["core"], "grids": 300, "differ": 0}


@settings(max_examples=300, deadline=None)
@given(given_values=special_arrays((11,)), corner_form=st.sampled_from(ROW_FORMS),
       free_form=st.sampled_from(ROW_FORMS))
def test_solve_matches_its_oracle_on_every_input_form(given_values, corner_form, free_form):
    corners, free = made(corner_form, given_values[:4]), made(free_form, given_values[4:])
    assert_same_array(outcome(bs_solve, corners, free), outcome(solve_per_grid, corners, free))


@pytest.mark.filterwarnings("ignore::PendingDeprecationWarning")  # np.matrix
@settings(max_examples=300, deadline=None)
@given(points=special_arrays((3, 4, 4)), forms=st.lists(st.sampled_from(list(FORMS)),
                                                        min_size=3, max_size=3))
def test_patches_and_conversions_match_their_oracles_on_every_input_form(points, forms):
    grids = [made(form, g) for form, g in zip(forms, points)]
    expect = outcome(patch_array_per_grid, *grids)
    for cls, convert, direction in ((BezierPatch, bezier_to_hermite, "b2h"),
                                    (HermitePatch, hermite_to_bezier, "h2b")):
        patch = outcome(cls, *grids)
        assert_same_patch(patch, expect, cls)
        if type(expect) is not _Raised:
            assert_same_patch(outcome(convert, patch),
                              outcome(convert_patch_array, expect, direction),
                              HermitePatch if cls is BezierPatch else BezierPatch)


@pytest.mark.filterwarnings("ignore::PendingDeprecationWarning")  # np.matrix
def test_only_float64_ndarrays_of_the_right_shape_skip_shaped_in_operators(rng, monkeypatch):
    calls = []
    shaped = patches._shaped

    def counted(*args):
        calls.append(args[1])
        return shaped(*args)

    monkeypatch.setattr(patches, "_shaped", counted)
    monkeypatch.setattr(constraints, "_shaped", counted)
    g, row, (x, y, z) = rng.uniform(-10, 10, (4, 4)), rng.uniform(-10, 10, 11), \
        rng.uniform(-10, 10, (3, 4, 4))
    for grid in (g, _reversed(g), _strided(g), _read_only(g), np.asfortranarray(g)):
        bs_residuals(grid), bs_project(grid), bs_inner_identity(grid)
    bs_solve(row[:4], row[4:])
    assert calls == []
    for grid in (np.matrix(g), g.astype(np.float32), g.astype(">f8"), g.tolist()):
        bs_residuals(grid), bs_project(grid), bs_inner_identity(grid)
    bs_solve(row[:4].tolist(), row[4:]), bs_solve(row[:4], row[4:].astype(np.float32))
    BezierPatch(x, y, z), HermitePatch(x, y, z.tolist())  # one stacked copy: _shaped's
    assert calls == [(4, 4)] * 12 + [(4,), (7,), (3, 4, 4), (3, 4, 4)]


@pytest.mark.parametrize("tol", [np.nan, -1.0, -5e-324, np.inf, -np.inf])
def test_residuals_refuse_a_tolerance_that_is_not_a_finite_number_at_least_0(tol):
    message = f"tolerance must be a finite number >= 0, got {tol!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bs_residuals(np.zeros((4, 4)), tol)
    for ok in (0.0, 1e300, 3):
        assert bs_residuals(np.zeros((4, 4)), ok).compliant


@settings(max_examples=200, deadline=None)
@given(rel=st.lists(st.one_of(st.floats(0, 1e308), st.just(np.nan), st.just(np.inf)),
                    min_size=3, max_size=3).map(tuple),
       grid=special_arrays((4, 4)))
def test_max_rel_keeps_the_bits_of_numpys_max(rel, grid):
    """``max_rel`` is max_residual's Python rule over the three magnitudes;
    it reads as float(np.max(rel)) did, nan included, on any magnitudes
    and on those of every report."""
    records = [DiagonalResiduals(0.0, 0.0, 0.0, rel)]
    with np.errstate(all="ignore"):
        records += bs_residuals(grid).per_diagonal.values()
    for d in records:
        assert type(d.max_rel) is float
        assert bits([d.max_rel]) == np.float64(np.max(d.rel)).tobytes()
