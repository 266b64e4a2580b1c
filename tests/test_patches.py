import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from smartpatch import (
    BezierPatch,
    DomainError,
    HermitePatch,
    bezier_to_hermite,
    eval_patch,
    hermite_to_bezier,
)
from smartpatch.io import read_newell
from smartpatch.patches import (
    _BB_ROWS,
    _T_ROWS,
    _conversion_matrices,
    _convert,
    as_grid,
    bezier_patches,
    eval_patch_partials,
)
from smartpatch.tessellation import surface_normal

from helpers import bilinear_grid, de_casteljau, eval_curve, random_patch


def test_bezier_basis_rows():
    mb = np.array(_BB_ROWS)
    assert np.array_equal(mb[0], [-1, 3, -3, 1])
    assert np.array_equal(mb[1], [3, -6, 3, 0])
    assert np.array_equal(mb[2], [-3, 3, 0, 0])
    assert np.array_equal(mb[3], [1, 0, 0, 0])


def test_bezier_basis_column_sums():
    # partition of unity pairs with the constant monomial only
    assert np.array_equal(np.array(_BB_ROWS).sum(axis=0), [0, 0, 0, 1])


def test_reparam_endpoint_swap():
    t = np.array(_T_ROWS, dtype=float)
    assert np.array_equal(t @ np.array([1.0, 1.0, 1.0, 1.0]), [0, 0, 0, 1])
    assert np.array_equal(t @ np.array([0.0, 0.0, 0.0, 1.0]), [1, 1, 1, 1])


def test_reparam_is_involution():
    t = np.array(_T_ROWS, dtype=float)
    assert np.array_equal(t @ t, np.eye(4))


def test_eval_curve_endpoints():
    p = [2.0, -1.0, 5.0, 7.0]
    assert eval_curve(p, 0.0) == 2.0
    assert eval_curve(p, 1.0) == 7.0


def test_eval_curve_midpoint_value():
    # direct expansion at t=1/2: 3*(1/2)^3 + 3*(1/2)^3 = 3/4
    assert eval_curve([0.0, 1.0, 1.0, 0.0], 0.5) == pytest.approx(0.75, abs=1e-15)


def test_eval_curve_strict_domain():
    with pytest.raises(DomainError):
        eval_curve([0.0, 1.0, 1.0, 0.0], 1.5)
    assert eval_curve([0.0, 0.0, 0.0, 1.0], 2.0, extrapolate=True) == pytest.approx(8.0)


@pytest.mark.parametrize("evaluate", [eval_patch, eval_patch_partials, surface_normal])
def test_patch_evaluation_rejects_parameters_outside_the_unit_square(evaluate, rng):
    patch = random_patch(rng)
    for u, v in ((-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 1.1)):
        with pytest.raises(DomainError, match=r"outside \[0, 1\]$"):
            evaluate(patch, u, v)


def test_eval_curve_matches_de_casteljau(rng):
    for _ in range(50):
        p = rng.uniform(-10, 10, 4)
        t = rng.uniform(0, 1)
        assert eval_curve(p, t) == pytest.approx(de_casteljau(p, t), abs=1e-12)


def test_eval_patch_corners(rng):
    patch = random_patch(rng)
    assert np.allclose(eval_patch(patch, 0, 0), patch.control_point(0, 0), atol=1e-14)
    assert np.allclose(eval_patch(patch, 1, 1), patch.control_point(3, 3), atol=1e-13)
    assert np.allclose(eval_patch(patch, 0, 1), patch.control_point(0, 3), atol=1e-13)
    assert np.allclose(eval_patch(patch, 1, 0), patch.control_point(3, 0), atol=1e-13)


def test_eval_patch_constant_grids():
    patch = BezierPatch(np.full((4, 4), 3.0), np.full((4, 4), -2.0), np.full((4, 4), 0.5))
    for u, v in [(0.3, 0.8), (0.0, 0.5), (1.0, 0.25)]:
        assert np.allclose(eval_patch(patch, u, v), [3.0, -2.0, 0.5], atol=1e-14)


def test_eval_patch_boundary_curves(rng):
    patch = random_patch(rng)
    for u in np.linspace(0, 1, 9):
        expect = [eval_curve(g[:, 0], u) for g in patch.grids]
        assert np.allclose(eval_patch(patch, u, 0.0), expect, atol=1e-12)
        expect = [eval_curve(g[0, :], u) for g in patch.grids]
        assert np.allclose(eval_patch(patch, 0.0, u), expect, atol=1e-12)


def test_eval_patch_matches_tensor_de_casteljau(rng):
    patch = random_patch(rng)
    for _ in range(20):
        u, v = rng.uniform(0, 1, 2)
        expect = [de_casteljau([de_casteljau(row, v) for row in g], u) for g in patch.grids]
        assert np.allclose(eval_patch(patch, u, v), expect, atol=1e-11)


def test_patch_partials_match_finite_differences(rng):
    h = 1e-6
    patch = random_patch(rng)
    for _ in range(10):
        u, v = rng.uniform(0.1, 0.9, 2)
        _, du, dv = eval_patch_partials(patch, u, v)
        fd_u = (eval_patch(patch, u + h, v) - eval_patch(patch, u - h, v)) / (2 * h)
        fd_v = (eval_patch(patch, u, v + h) - eval_patch(patch, u, v - h)) / (2 * h)
        assert np.allclose(du, fd_u, atol=1e-6)
        assert np.allclose(dv, fd_v, atol=1e-6)


def test_as_grid_validation():
    with pytest.raises(ValueError):
        as_grid(np.ones((3, 4)))
    with pytest.raises(ValueError):
        as_grid(np.full((4, 4), np.nan))
    g = as_grid(np.ones((4, 4)))
    assert not g.flags.writeable


def test_bezier_patches_are_the_one_patch_constructor(rng):
    arr = rng.uniform(-10, 10, (5, 3, 4, 4))
    made = bezier_patches(arr)
    for p, g in zip(made, arr):
        q = BezierPatch(*g)
        for a, b in zip(p.grids + (p.as_array,), q.grids + (q.as_array,)):
            assert a.shape == b.shape and np.array_equal(a, b) and not a.flags.writeable
    arr[:] = 0.0  # the patches hold their own copy
    assert all(np.any(p.as_array != 0.0) for p in made)
    assert bezier_patches(np.empty((0, 3, 4, 4))) == []
    with pytest.raises(ValueError, match="non-finite"):
        bezier_patches(np.where(np.arange(48).reshape(1, 3, 4, 4) == 7, np.inf, 1.0))
    with pytest.raises(ValueError):
        bezier_patches(np.ones((2, 3, 4)))


def test_patches_compare_and_hash_by_identity(rng):
    grids = rng.uniform(-10, 10, (3, 4, 4))
    for cls in (BezierPatch, HermitePatch):
        a, b = cls(*grids), cls(*grids)
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2
        assert a in [b, a] and b not in [a]
        assert repr(a).startswith(cls.__name__ + "(x=array(")
    made = bezier_patches(grids[None])[0]
    assert made == made and made != BezierPatch(*grids) and made in {made}


# ---------------------------------------------------------------------------
# Hermite conversion


def test_constant_hermite_to_bezier():
    h = np.zeros((4, 4))
    h[:2, :2] = 1.0  # corners 1, tangents and twists 0
    patch = hermite_to_bezier(HermitePatch(h, h, h))
    for g in patch.grids:
        assert np.allclose(g, 1.0, atol=1e-14)


def test_hermite_tangent_entry_maps_to_bezier_edge_point():
    h = np.zeros((4, 4))
    h[0, 2] = 3.0  # v-tangent at corner (0,0)
    patch = hermite_to_bezier(HermitePatch(h, np.zeros((4, 4)), np.zeros((4, 4))))
    assert patch.x[0, 1] == pytest.approx(1.0, abs=1e-14)  # corner + tangent/3
    assert patch.x[1, 1] == pytest.approx(1.0, abs=1e-14)  # inner point sees it too
    rest = np.array(patch.x)
    rest[0, 1] = rest[1, 1] = 0.0
    assert np.allclose(rest, 0.0, atol=1e-14)


def test_constant_bezier_to_hermite():
    b = BezierPatch(np.ones((4, 4)), np.ones((4, 4)), np.ones((4, 4)))
    h = bezier_to_hermite(b)
    for g in h.grids:
        assert np.allclose(g[:2, :2], 1.0, atol=1e-14)
        assert np.allclose(g[2:, :], 0.0, atol=1e-14)
        assert np.allclose(g[:, 2:], 0.0, atol=1e-14)


def test_bezier_edge_point_maps_to_tangent():
    b = np.zeros((4, 4))
    b[0, 1] = 1.0
    h = bezier_to_hermite(BezierPatch(b, np.zeros((4, 4)), np.zeros((4, 4))))
    assert h.x[0, 2] == pytest.approx(3.0, abs=1e-14)  # 3*(x01 - x00)


def test_bezier_inner_point_maps_to_twist():
    b = np.zeros((4, 4))
    b[1, 1] = 1.0
    h = bezier_to_hermite(BezierPatch(b, np.zeros((4, 4)), np.zeros((4, 4))))
    assert h.x[2, 2] == pytest.approx(9.0, abs=1e-13)  # 9*(x00 - x01 - x10 + x11)


def test_u_tangent_row_uses_first_index_difference():
    # the lower corner row: u-tangent at (1,0) is 3*(x31 - x30)
    b = np.zeros((4, 4))
    b[3, 1] = 1.0
    h = bezier_to_hermite(BezierPatch(b, np.zeros((4, 4)), np.zeros((4, 4))))
    assert h.x[1, 2] == pytest.approx(3.0, abs=1e-13)


def test_roundtrip_both_orders(rng):
    for _ in range(100):
        b = random_patch(rng)
        b2 = hermite_to_bezier(bezier_to_hermite(b))
        for g, g2 in zip(b.grids, b2.grids):
            assert np.max(np.abs(g - g2)) <= 1e-12
        h = HermitePatch(*rng.uniform(-10, 10, (3, 4, 4)))
        h2 = bezier_to_hermite(hermite_to_bezier(h))
        for g, g2 in zip(h.grids, h2.grids):
            assert np.max(np.abs(g - g2)) <= 1e-12


def test_stacked_conversion_is_the_per_grid_congruence(rng, teapot_path):
    """One stacked product over a set equals converting each grid on its own
    and the one-patch functions, bit for bit, in both directions."""
    c, d = _conversion_matrices()
    arr = np.concatenate([np.stack([p.as_array for p in read_newell(teapot_path).patches]),
                          rng.uniform(-10, 10, (500, 3, 4, 4))])
    for direction, m, one in (("b2h", d, lambda a: bezier_to_hermite(BezierPatch(*a))),
                              ("h2b", c, lambda a: hermite_to_bezier(HermitePatch(*a)))):
        stacked = _convert(arr, direction)
        assert np.array_equal(stacked, [[m.T @ g @ m for g in a] for a in arr])
        assert np.array_equal(stacked, [one(a).grids for a in arr])


def test_bilinear_patch_evaluates_bilinearly(rng):
    c = rng.uniform(-5, 5, (3, 4))
    patch = BezierPatch(*(bilinear_grid(*c[i]) for i in range(3)))
    for _ in range(10):
        u, v = rng.uniform(0, 1, 2)
        blend = np.array(
            [
                c[i][0] * (1 - u) * (1 - v)
                + c[i][1] * (1 - u) * v
                + c[i][2] * u * (1 - v)
                + c[i][3] * u * v
                for i in range(3)
            ]
        )
        assert np.allclose(eval_patch(patch, u, v), blend, atol=1e-12)


grid_values = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
grid_arrays = arrays(np.float64, (4, 4), elements=grid_values)


@given(grid_arrays, grid_arrays, grid_arrays)
@settings(max_examples=40, deadline=None)
def test_roundtrip_property(gx, gy, gz):
    b = BezierPatch(gx, gy, gz)
    b2 = hermite_to_bezier(bezier_to_hermite(b))
    for g, g2 in zip(b.grids, b2.grids):
        assert np.max(np.abs(g - g2)) <= 1e-12


@given(grid_arrays, st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=40, deadline=None)
def test_affine_invariance_single_coordinate(g, u, v):
    # affine map applied to control values commutes with evaluation
    patch = BezierPatch(g, 2.0 * g + 1.0, -0.5 * g + 3.0)
    base = eval_patch(BezierPatch(g, g, g), u, v)[0]
    pt = eval_patch(patch, u, v)
    assert pt[0] == pytest.approx(base, abs=1e-11)
    assert pt[1] == pytest.approx(2.0 * base + 1.0, abs=1e-11)
    assert pt[2] == pytest.approx(-0.5 * base + 3.0, abs=1e-11)


def test_affine_invariance_full(rng):
    patch = random_patch(rng)
    mat = rng.uniform(-2, 2, (3, 3))
    shift = rng.uniform(-5, 5, 3)
    stacked = np.stack(patch.grids)  # (3,4,4)
    mapped = np.einsum("ab,bij->aij", mat, stacked) + shift[:, None, None]
    mapped_patch = BezierPatch(*mapped)
    for _ in range(20):
        u, v = rng.uniform(0, 1, 2)
        direct = mat @ eval_patch(patch, u, v) + shift
        assert np.allclose(eval_patch(mapped_patch, u, v), direct, atol=1e-11)
