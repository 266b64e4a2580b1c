import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from smartpatch import (
    BezierPatch,
    DiagonalKind,
    HermitePatch,
    bs_free_cells,
    bs_inner_identity,
    bs_project,
    bs_residuals,
    bs_solve,
    build_lambda,
    collapse_diagonal,
    eval_patch,
    hermite_to_bezier,
    repair_patches,
    resolve_inner_identity,
)
from smartpatch.constraints import (
    CORNER_INDICES,
    LAMBDA_REFERENCE,
    NONCORNER_INDICES,
    DerivationError,
    Poly,
    RepairError,
    _certify,
    _diagonal_coefficients,
    _collapse_exact,
    _level_sets,
    grid_scale,
)
from smartpatch import cli, constraints
from smartpatch.linalg import RationalMatrix
from smartpatch.io import PatchSet, read_newell, write_patchset
from smartpatch.patches import _convert
from smartpatch.tessellation import EdgeId, EdgeSide, continuity_report, detect_adjacency

from helpers import (
    CORNER_SLOTS,
    NONCORNER_SLOTS,
    bilinear_grid,
    collapse_by_traces,
    dense_repair_patches,
    dense_system,
    diagonal_matrix,
    height_field_patches,
    hs_alpha_beta,
    hs_consistent_grid,
    hs_phi,
    hs_twists,
    loop_repair_patches,
    random_compliant_grid,
    random_compliant_patch,
    nullspace,
    omega_by_triple_products,
    random_patch,
    rank_deficient_patch,
    shared_edge_pair,
    split_patch,
    validation_sets,
)

# Printed coefficient tables for the two grid-to-R maps, kept as an
# independent transcription ('.' entries are zeros).  The derivation must
# reproduce them exactly.
OMEGA_MAIN_REFERENCE = (
    (1, -3, 3, -1, -3, 9, -9, 3, 3, -9, 9, -3, -1, 3, -3, 1),
    (-3, 6, -3, 0, 9, -18, 9, 0, -9, 18, -9, 0, 3, -6, 3, 0),
    (3, -3, 0, 0, -9, 9, 0, 0, 9, -9, 0, 0, -3, 3, 0, 0),
    (-1, 0, 0, 0, 3, 0, 0, 0, -3, 0, 0, 0, 1, 0, 0, 0),
    (-3, 9, -9, 3, 6, -18, 18, -6, -3, 9, -9, 3, 0, 0, 0, 0),
    (9, -18, 9, 0, -18, 36, -18, 0, 9, -18, 9, 0, 0, 0, 0, 0),
    (-9, 9, 0, 0, 18, -18, 0, 0, -9, 9, 0, 0, 0, 0, 0, 0),
    (3, 0, 0, 0, -6, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0),
    (3, -9, 9, -3, -3, 9, -9, 3, 0, 0, 0, 0, 0, 0, 0, 0),
    (-9, 18, -9, 0, 9, -18, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (9, -9, 0, 0, -9, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (-3, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (-1, 3, -3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (3, -6, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (-3, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
)

OMEGA_ANTI_REFERENCE = (
    (-1, 3, -3, 1, 3, -9, 9, -3, -3, 9, -9, 3, 1, -3, 3, -1),
    (0, -3, 6, -3, 0, 9, -18, 9, 0, -9, 18, -9, 0, 3, -6, 3),
    (0, 0, -3, 3, 0, 0, 9, -9, 0, 0, -9, 9, 0, 0, 3, -3),
    (0, 0, 0, -1, 0, 0, 0, 3, 0, 0, 0, -3, 0, 0, 0, 1),
    (3, -9, 9, -3, -6, 18, -18, 6, 3, -9, 9, -3, 0, 0, 0, 0),
    (0, 9, -18, 9, 0, -18, 36, -18, 0, 9, -18, 9, 0, 0, 0, 0),
    (0, 0, 9, -9, 0, 0, -18, 18, 0, 0, 9, -9, 0, 0, 0, 0),
    (0, 0, 0, 3, 0, 0, 0, -6, 0, 0, 0, 3, 0, 0, 0, 0),
    (-3, 9, -9, 3, 3, -9, 9, -3, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, -9, 18, -9, 0, 9, -18, 9, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, -9, 9, 0, 0, 9, -9, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, -3, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, -3, 3, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 3, -6, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 3, -3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
)


# ---------------------------------------------------------------------------
# diagonal matrices and collapse


def test_diagonal_matrix_zero_grid():
    for kind in DiagonalKind:
        assert np.array_equal(diagonal_matrix(np.zeros((4, 4)), kind), np.zeros((4, 4)))


def test_diagonal_matrix_single_inner_entry():
    g = np.zeros((4, 4))
    g[1, 1] = 1.0
    r = diagonal_matrix(g, DiagonalKind.MAIN)
    assert r[0, 0] == pytest.approx(9.0, abs=1e-14)  # 3*3 from the basis column
    assert _collapse_exact(DiagonalKind.MAIN)[0, 5] == 9  # the u^6 entry of x11's column


def test_constant_grid_collapses_to_constant():
    g = np.full((4, 4), 2.5)
    for kind in DiagonalKind:
        poly = collapse_diagonal(g, kind)
        r = diagonal_matrix(g, kind)
        assert r[3, 3] == pytest.approx(2.5, abs=1e-14)
        assert np.allclose(poly.coeffs[:-1], 0.0, atol=1e-13)
        assert poly.coeffs[-1] == pytest.approx(2.5, abs=1e-14)


def test_collapse_zero_grid():
    poly = collapse_diagonal(np.zeros((4, 4)), DiagonalKind.MAIN)
    assert poly.coeffs == (0.0,) * 7
    assert poly.nominal_degree == 6


def test_collapse_matches_patch_evaluation(rng):
    for _ in range(20):
        g = rng.uniform(-10, 10, (4, 4))
        patch = BezierPatch(g, g, g)
        scale = grid_scale(g)
        for kind in DiagonalKind:
            poly = collapse_diagonal(g, kind)
            for t in rng.uniform(0, 1, 50):
                v = 1.0 - t if kind is DiagonalKind.ANTI else t
                assert abs(poly(t) - eval_patch(patch, t, v)[0]) <= 1e-10 * scale


def test_bilinear_grid_has_quadratic_diagonals(rng):
    g = bilinear_grid(*rng.uniform(-5, 5, 4))
    for kind in DiagonalKind:
        poly = collapse_diagonal(g, kind)
        assert np.allclose(poly.coeffs[:4], 0.0, atol=1e-13)  # a6, a5, a4, a3
        assert poly.effective_degree(1e-12) <= 2


def test_poly_effective_degree():
    p = Poly([1e-15, 0.0, 0.0, 1.0, 0.0, 0.0, 2.0])
    assert p.nominal_degree == 6
    assert p.effective_degree(1e-12) == 3
    assert Poly([0.0]).effective_degree() == 0


@given(arrays(np.float64, (4, 4), elements=st.floats(-10, 10)), st.floats(-8, 8))
@settings(max_examples=40, deadline=None)
def test_collapse_is_linear_in_grid_scaling(g, s):
    base = collapse_diagonal(g, DiagonalKind.MAIN).coeffs
    scaled = collapse_diagonal(s * g, DiagonalKind.MAIN).coeffs
    for c_base, c_scaled in zip(base, scaled):
        assert c_scaled == pytest.approx(s * c_base, abs=1e-10)


# ---------------------------------------------------------------------------
# omega and lambda derivation


def test_omega_matches_reference_tables():
    for kind, reference in ((DiagonalKind.MAIN, OMEGA_MAIN_REFERENCE),
                            (DiagonalKind.ANTI, OMEGA_ANTI_REFERENCE)):
        assert omega_by_triple_products(kind).data == tuple(map(tuple, reference))


def test_omega_named_rows():
    omega = np.array(omega_by_triple_products(DiagonalKind.MAIN).data, dtype=float)
    r42 = omega[4 * 3 + 1]  # row of R entry (4,2) in 1-based speak
    expect = np.zeros(16)
    expect[0], expect[1], expect[2] = 3, -6, 3
    assert np.array_equal(r42, expect)
    r44 = omega[4 * 3 + 3]
    expect = np.zeros(16)
    expect[0] = 1
    assert np.array_equal(r44, expect)


def test_omega_reproduces_diagonal_matrix(rng):
    for kind in DiagonalKind:
        omega = np.array(omega_by_triple_products(kind).data, dtype=float)
        for _ in range(25):
            g = rng.uniform(-10, 10, (4, 4))
            via_omega = (omega @ g.reshape(-1)).reshape(4, 4)
            assert np.allclose(via_omega, diagonal_matrix(g, kind), atol=1e-11)


def test_omega_reproduces_diagonal_matrix_exactly():
    # same consistency check in exact arithmetic on a rational grid
    from smartpatch.patches import _BB_ROWS, _T_ROWS

    mb, t = RationalMatrix(_BB_ROWS), RationalMatrix(_T_ROWS)
    entries = [[(3 * i - 2 * j + 1, 7) for j in range(4)] for i in range(4)]
    g = RationalMatrix([[f"{n}/{d}" for n, d in row] for row in entries])
    for kind in DiagonalKind:
        r = mb.transpose() @ g @ mb
        if kind is DiagonalKind.ANTI:
            r = r @ t
        xi = RationalMatrix.column([g[i, j] for i in range(4) for j in range(4)])
        rho = RationalMatrix(omega_by_triple_products(kind).data) @ xi
        assert all(rho[4 * a + b, 0] == r[a, b] for a in range(4) for b in range(4))


def test_closed_form_collapse_map_matches_the_triple_products():
    # row k of the collapse map sums the R entries (a, b) with a + b == k
    for kind in DiagonalKind:
        omega = omega_by_triple_products(kind)
        sums = [
            [sum(omega[4 * a + (k - a), c] for a in range(max(0, k - 3), min(k, 3) + 1))
             for c in range(16)]
            for k in range(7)
        ]
        collapse = _collapse_exact(kind)
        assert (collapse.rows, collapse.cols, collapse.denominator) == (7, 16, 1)
        assert collapse.data == tuple(map(tuple, sums))


def test_lambda_matches_reference():
    system = build_lambda()
    assert np.array_equal(system.lam, np.array(LAMBDA_REFERENCE, dtype=float))


def test_lambda_first_row_and_negation():
    system = build_lambda()
    assert system.lam[0].astype(int).tolist() == [
        1, -3, 3, -1, -3, 9, -9, 3, 3, -9, 9, -3, -1, 3, -3, 1]
    assert np.array_equal(system.lam[3], -system.lam[0])


def test_lambda_rank_and_nullity():
    system = build_lambda()
    assert system.rank == 5
    assert len(nullspace(RationalMatrix(LAMBDA_REFERENCE))) == 11


def test_lambda_rows_split_by_diagonal():
    # first three rows are the v=u conditions, last three the v=1-u ones
    omega_main = np.array(omega_by_triple_products(DiagonalKind.MAIN).data, dtype=float)
    omega_anti = np.array(omega_by_triple_products(DiagonalKind.ANTI).data, dtype=float)
    lam = build_lambda().lam
    assert np.array_equal(lam[0], omega_main[0])
    assert np.array_equal(lam[1], omega_main[1] + omega_main[4])
    assert np.array_equal(lam[2], omega_main[2] + omega_main[5] + omega_main[8])
    assert np.array_equal(lam[3], omega_anti[0])
    assert np.array_equal(lam[4], omega_anti[1] + omega_anti[4])
    assert np.array_equal(lam[5], omega_anti[2] + omega_anti[5] + omega_anti[8])


# ---------------------------------------------------------------------------
# residual reports


def test_bilinear_grid_is_compliant(rng):
    g = bilinear_grid(*rng.uniform(-5, 5, 4))
    assert bs_residuals(g, tol=1e-12).compliant


def test_single_inner_entry_violates():
    g = np.zeros((4, 4))
    g[1, 1] = 1.0
    rep = bs_residuals(g)
    assert not rep.compliant
    assert rep.per_diagonal[DiagonalKind.MAIN].a6 == pytest.approx(9.0, abs=1e-13)


def test_report_shape(rng):
    rep = bs_residuals(rng.uniform(-1, 1, (4, 4)), tol=1e-9)
    assert rep.tolerance_used == 1e-9
    assert set(rep.per_diagonal) == set(DiagonalKind)
    assert rep.max_residual == max(d.max_rel for d in rep.per_diagonal.values())
    assert rep.compliant == (rep.max_residual <= 1e-9)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_a_nan_coefficient_that_is_not_first_makes_the_grid_noncompliant():
    # finite, and accepted by the loaders; its a6 coefficients are 0 and
    # its a5 and a4 ones overflow to inf - inf
    g = np.zeros((4, 4))
    g[0, 0] = g[0, 3] = 6e307
    rep = bs_residuals(g)
    for d in rep.per_diagonal.values():
        assert d.a6 == 0.0 and np.isnan([d.a5, d.a4]).all()
        assert np.isnan(d.max_rel)
    assert np.isnan(rep.max_residual) and not rep.compliant


def random_magnitude(rng) -> float:
    return 10.0 ** rng.integers(-3, 4)


def test_residual_coefficients_match_collapse_oracle(rng):
    for _ in range(200):
        g = rng.uniform(-10, 10, (4, 4)) * random_magnitude(rng)
        rep = bs_residuals(g)
        for kind in DiagonalKind:
            d = rep.per_diagonal[kind]
            expect = collapse_by_traces(g, kind)
            err = np.max(np.abs(np.subtract((d.a6, d.a5, d.a4), expect[:3])))
            assert err <= 1e-12 * grid_scale(g)
            # all seven, the rows below lam's included
            err = np.max(np.abs(np.subtract(collapse_diagonal(g, kind).coeffs, expect)))
            assert err <= 1e-12 * grid_scale(g)


def test_residuals_of_a_grid_that_is_not_4x4(rng):
    with pytest.raises(ValueError, match=r"^grid must be 4x4, got \(3, 4\)$"):
        bs_residuals(rng.uniform(-10, 10, (3, 4)))


def test_set_coefficients_are_the_per_grid_residuals(rng, teapot_path):
    lam = build_lambda().lam
    verdicts = 0
    for arr in validation_sets(rng, teapot_path).values():
        coeffs, scale = _diagonal_coefficients(arr.reshape(len(arr), 3, 16))
        assert coeffs.shape == (len(arr), 3, 6) and scale.shape == (len(arr), 3)
        for p, c in np.ndindex(len(arr), 3):
            g = arr[p, c]
            rep = bs_residuals(g)
            assert scale[p, c] == grid_scale(g)
            one = [v for kind in DiagonalKind for v in tuple(rep.per_diagonal[kind])[:3]]
            for want in (lam @ g.reshape(-1), one):
                assert np.max(np.abs(coeffs[p, c] - want)) <= 1e-14 * grid_scale(g)
            assert (np.max(np.abs(coeffs[p, c])) / scale[p, c] <= 1e-9) == rep.compliant
            verdicts += rep.compliant
    assert 0 < verdicts < 3 * (32 + 128 + 334)


# ---------------------------------------------------------------------------
# solving


def test_solve_zero_inputs_give_zero_grid():
    assert np.array_equal(bs_solve([0, 0, 0, 0], [0] * 7), np.zeros((4, 4)))


def test_solve_outputs_are_compliant(rng):
    for _ in range(100):
        g = random_compliant_grid(rng)
        assert bs_residuals(g, tol=1e-9).compliant


def test_solve_constant_case():
    c = 4.25
    free_cells = bs_free_cells()
    g = bs_solve([c] * 4, [c] * len(free_cells))
    assert np.allclose(g, c, atol=1e-13)
    assert bs_residuals(g, tol=1e-11).compliant


def test_solve_respects_corners_and_free_values(rng):
    corners = rng.uniform(-10, 10, 4)
    free = rng.uniform(-10, 10, 7)
    g = bs_solve(corners, free)
    assert [g[0, 0], g[0, 3], g[3, 0], g[3, 3]] == pytest.approx(list(corners), abs=0)
    for value, (i, j) in zip(free, bs_free_cells()):
        assert g[i, j] == pytest.approx(value, abs=0)


def test_solve_inner_identity_from_unit_corner():
    g = bs_solve([1, 0, 0, 0], [0] * 7)
    combo = g[1, 1] - g[1, 2] - g[2, 1] + g[2, 2]
    assert combo == pytest.approx(1.0 / 9.0, abs=1e-15)


def test_solve_input_validation():
    with pytest.raises(ValueError):
        bs_solve([1, 2, 3], [0] * 7)
    with pytest.raises(ValueError):
        bs_solve([1, 2, 3, 4], [0] * 6)


def exact_grid(corners, xi2: RationalMatrix) -> np.ndarray:
    flat = np.empty(16)
    flat[list(CORNER_INDICES)] = corners
    flat[list(NONCORNER_INDICES)] = xi2.to_float()[:, 0]
    return flat.reshape(4, 4)


def exact_solve(corners, free) -> np.ndarray:
    """bs_solve evaluated exactly through the solver's rational maps, rounded once."""
    s = build_lambda()
    xi2 = s.particular @ RationalMatrix.column(corners)
    xi2 = xi2 + s.homogeneous @ RationalMatrix.column(free)
    return exact_grid(corners, xi2)


def exact_project(g) -> np.ndarray:
    """bs_project evaluated exactly through the solver's rational maps, rounded once."""
    s = build_lambda()
    flat = np.asarray(g, dtype=float).reshape(-1)
    corners = flat[list(CORNER_INDICES)]
    xi1 = RationalMatrix.column(corners)
    xi2 = RationalMatrix.column(flat[list(NONCORNER_INDICES)])
    correction = s.gain @ (s.reduced @ xi2 + -(s.rhs @ xi1))
    return exact_grid(corners, xi2 + -correction)


def test_float_solve_and_project_match_exact_maps(rng):
    for _ in range(200):
        mag = random_magnitude(rng)
        corners, free = rng.uniform(-10, 10, 4) * mag, rng.uniform(-10, 10, 7) * mag
        expect = exact_solve(corners, free)
        assert np.max(np.abs(bs_solve(corners, free) - expect)) <= 1e-13 * grid_scale(expect)
        g = rng.uniform(-10, 10, (4, 4)) * mag
        expect = exact_project(g)
        assert np.max(np.abs(bs_project(g) - expect)) <= 1e-13 * grid_scale(expect)


def test_certification_rejects_a_perturbed_map(monkeypatch):
    s = build_lambda()
    names = ("reduced", "rhs", "particular", "homogeneous", "gain")
    maps = {name: getattr(s, name) for name in names}

    def perturbed(m: RationalMatrix) -> RationalMatrix:
        rows = [list(row) for row in m.data]
        rows[0][0] += Fraction(1, 2**40)
        return RationalMatrix(rows)

    _certify(**maps)
    for name in ("particular", "homogeneous", "gain"):
        with pytest.raises(DerivationError):
            _certify(**{**maps, name: perturbed(maps[name])})
    # the uncached derivation runs the same certification
    inverse = RationalMatrix.inverse
    monkeypatch.setattr(RationalMatrix, "inverse", lambda m: perturbed(inverse(m)))
    with pytest.raises(DerivationError):
        build_lambda.__wrapped__()


def test_run_time_operators_build_no_rational_matrices(monkeypatch, rng):
    build_lambda()

    def forbidden(*args):
        raise AssertionError("RationalMatrix built on a run-time path")

    # every construction goes through one of the two
    monkeypatch.setattr(RationalMatrix, "__init__", forbidden)
    monkeypatch.setattr(RationalMatrix, "_from_ints", forbidden)
    g = rng.uniform(-10, 10, (4, 4))
    assert not bs_residuals(g).compliant
    assert bs_residuals(bs_project(g)).compliant
    assert bs_residuals(bs_solve(rng.uniform(-10, 10, 4), rng.uniform(-10, 10, 7))).compliant


def test_solution_family_has_dimension_seven():
    s = build_lambda()
    assert s.homogeneous.rank() == 7
    assert len(s.solver_free_cols) == 7 and s.reduced.rows == 5


@given(
    st.lists(st.floats(-10, 10), min_size=4, max_size=4),
    st.lists(st.floats(-10, 10), min_size=7, max_size=7),
)
@settings(max_examples=30, deadline=None)
def test_solve_compliance_property(corners, free):
    g = bs_solve(corners, free)
    assert bs_residuals(g, tol=1e-9).compliant
    assert abs(bs_inner_identity(g)) <= 1e-12 * grid_scale(g)


# ---------------------------------------------------------------------------
# projection


def test_project_fixed_point(rng):
    g = random_compliant_grid(rng)
    p = bs_project(g)
    assert np.max(np.abs(p - g)) <= 1e-12


def test_project_bilinear_unchanged(rng):
    g = bilinear_grid(*rng.uniform(-5, 5, 4))
    assert np.max(np.abs(bs_project(g) - g)) <= 1e-12


def test_project_idempotent_and_corner_exact(rng):
    for _ in range(50):
        g = rng.uniform(-10, 10, (4, 4))
        p1 = bs_project(g)
        p2 = bs_project(p1)
        assert np.max(np.abs(p2 - p1)) <= 1e-12
        for i, j in CORNER_SLOTS:
            assert p1[i, j] == g[i, j]
        assert bs_residuals(p1, tol=1e-9).compliant


def test_project_beats_random_compliant_competitors(rng):
    base = bilinear_grid(*rng.uniform(-5, 5, 4))
    g = np.array(base)
    g[1, 1] += 1.0
    p = bs_project(g)
    assert bs_residuals(p, tol=1e-9).compliant
    d_proj = sum((p[i, j] - g[i, j]) ** 2 for i, j in NONCORNER_SLOTS)
    corners = [g[0, 0], g[0, 3], g[3, 0], g[3, 3]]
    for _ in range(1000):
        competitor = bs_solve(corners, rng.uniform(-10, 10, 7))
        d = sum((competitor[i, j] - g[i, j]) ** 2 for i, j in NONCORNER_SLOTS)
        assert d >= d_proj - 1e-12


def test_inner_identity_examples(rng):
    assert bs_inner_identity(np.zeros((4, 4))) == 0.0
    g = bilinear_grid(*rng.uniform(-5, 5, 4))
    assert abs(bs_inner_identity(g)) <= 1e-13 * grid_scale(g)
    for _ in range(50):
        g = random_compliant_grid(rng)
        assert abs(bs_inner_identity(g)) <= 1e-12 * grid_scale(g)
        p = bs_project(rng.uniform(-10, 10, (4, 4)))
        assert abs(bs_inner_identity(p)) <= 1e-12 * grid_scale(p)


def test_inner_identity_sign_resolution():
    res = resolve_inner_identity()
    assert res.plus_variant_holds
    assert not res.minus_variant_holds
    assert str(res.corner_coefficient) == "1/9"


# ---------------------------------------------------------------------------
# Hermite-form conditions


def test_hs_phi_examples():
    def grid_with_corners(h11, h12, h21, h22):
        g = np.zeros((4, 4))
        g[0, 0], g[0, 1], g[1, 0], g[1, 1] = h11, h12, h21, h22
        return g

    assert hs_phi(grid_with_corners(1, 0, 0, 0)) == 1.0
    assert hs_phi(grid_with_corners(1, 1, 1, 1)) == 0.0
    assert hs_phi(grid_with_corners(1, 0, 0, 1)) == 2.0


def test_hs_twists_examples():
    assert hs_twists(1.0, 0.5, 0.5) == (1.0, 1.0, 1.0, 1.0)
    assert hs_twists(0.0, 0.3, -1.7) == (0.0, 0.0, 0.0, 0.0)
    x33, x34, x43, x44 = hs_twists(1.0, 0.0, 1.0)
    assert (x33, x44, x43, x34) == (2.0, 0.0, 2.0, 0.0)


def test_hs_alpha_beta_zero_numerators():
    g = np.zeros((4, 4))
    g[0, 0] = 1.0  # phi = 1
    # choose tangents so a = b = -phi
    g[0, 3] = -1.0  # a = h14 - h24 + h41 - h42 = -1
    g[0, 2] = -1.0  # b = h13 - h23 + h41 - h42 = -1
    assert hs_alpha_beta(g) == (0.0, 0.0)


def test_hs_alpha_beta_degenerate():
    assert hs_alpha_beta(np.zeros((4, 4))) is None
    g = np.zeros((4, 4))
    g[0, 0], g[0, 1] = 5.0, 5.0  # phi = 0 with nonzero entries
    assert hs_alpha_beta(g) is None


def test_hs_alpha_beta_roundtrip(rng):
    for _ in range(50):
        g = hs_consistent_grid(rng)
        if abs(hs_phi(g)) < 1e-6:
            continue
        ab = hs_alpha_beta(g)
        assert ab is not None
        alpha, beta = ab
        x33, x34, x43, x44 = hs_twists(hs_phi(g), alpha, beta)
        assert g[2, 2] == pytest.approx(x33, abs=1e-9)
        assert g[2, 3] == pytest.approx(x34, abs=1e-9)
        assert g[3, 2] == pytest.approx(x43, abs=1e-9)
        assert g[3, 3] == pytest.approx(x44, abs=1e-9)


def test_hs_alpha_beta_direct_recovery():
    g = np.zeros((4, 4))
    g[0, 0], g[1, 1] = 1.0, 1.0  # phi = 2
    phi, alpha, beta = 2.0, 0.3, -0.8
    g[2, 2], g[2, 3], g[3, 2], g[3, 3] = hs_twists(phi, alpha, beta)
    g[0, 3] = -phi - 2.0 * phi * alpha  # a with the other tangent entries zero
    g[0, 2] = -phi - 2.0 * phi * beta
    ab = hs_alpha_beta(g)
    assert ab == pytest.approx((alpha, beta), abs=1e-12)


def hermite_validation(h_arr, tol=1e-9):
    """``validate --form hermite``'s stage on an (N, 3, 4, 4) Hermite-layout
    array: the (N, 3) residuals and the noncompliant indices."""
    _, residual, bad, _ = cli._validation(_convert(np.asarray(h_arr, dtype=float), "h2b"), tol)
    return residual, bad.tolist()


def test_hs_validate_zero_grid():
    residual, bad = hermite_validation(np.zeros((1, 3, 4, 4)))
    assert residual.tolist() == [[0.0, 0.0, 0.0]] and bad == []


def test_hs_validate_constructed_example(capsys, tmp_path):
    """Twist sums 2 phi and tangent sum -4 phi, but twist weights that
    disagree with the tangents: h44 + a + phi = 2 and h43 + b + phi = -2."""
    g = np.zeros((4, 4))
    g[0, 0] = 1.0  # phi = 1
    g[2, 2] = g[3, 3] = 1.0  # twist sums = 2 phi
    g[2, 3] = g[3, 2] = 1.0
    g[0, 2] = -4.0  # tangent combination sums to -4 = -4 phi
    assert hs_phi(g) == 1.0
    alpha, beta = hs_alpha_beta(g)
    assert hs_twists(1.0, alpha, beta) != (g[2, 2], g[2, 3], g[3, 2], g[3, 3])
    residual, bad = hermite_validation([[g, np.zeros((4, 4)), np.zeros((4, 4))]])
    assert bad == [0]
    assert residual[0, 0] == pytest.approx(10.0, rel=1e-12)
    assert residual[0, 1:].tolist() == [0.0, 0.0]
    src = tmp_path / "hs.json"
    write_patchset(PatchSet("hs", [BezierPatch(g, np.zeros((4, 4)), np.zeros((4, 4)))]), src)
    assert cli.main(["validate", "--in", str(src), "--form", "hermite"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "patch   0: max residual 1.000e+01  NONCOMPLIANT"


def test_hs_validate_consistent_grids(rng):
    arr = [[hs_consistent_grid(rng) for _ in range(3)] for _ in range(50)]
    residual, bad = hermite_validation(arr)
    assert bad == [] and residual.max() <= 1e-12


def test_hs_compliant_patches_convert_to_compliant_bezier(rng):
    worst = 0.0
    for _ in range(100):
        h = HermitePatch(*(hs_consistent_grid(rng) for _ in range(3)))
        b = hermite_to_bezier(h)
        for g in b.grids:
            worst = max(worst, bs_residuals(g).max_residual)
    assert worst <= 1e-9


def test_constraint_sets_agree_between_forms():
    """The Bezier conditions pulled back through the conversion equal the
    Hermite conditions: same row space, certified exactly."""
    from smartpatch.constraints import _lambda_exact
    from smartpatch.patches import _conversion_matrices_exact

    c_q, _ = _conversion_matrices_exact()
    # hermite vec -> bezier vec, column by column
    cols = []
    for i in range(4):
        for j in range(4):
            e = np.zeros((4, 4))
            e[i, j] = 1.0
            m = c_q.transpose() @ RationalMatrix(e) @ c_q
            cols.append([m[a, b] for a in range(4) for b in range(4)])
    phi_map = RationalMatrix(list(zip(*cols)))
    pulled_back = (_lambda_exact() @ phi_map).rref()[0]

    # Hermite conditions: two twist sums, the two alpha/beta twist
    # equations and the third tangent equation (indices are row-major).
    def hermite_row(entries):
        row = [0] * 16
        for idx, v in entries.items():
            row[idx] = v
        return row

    phi_part = {0: -2, 1: 2, 4: 2, 5: -2}
    half_phi = {0: -1, 1: 1, 4: 1, 5: -1}
    rows = [
        hermite_row({10: 1, 15: 1, **phi_part}),                     # h33 + h44 = 2 phi
        hermite_row({11: 1, 14: 1, **phi_part}),                     # h34 + h43 = 2 phi
        hermite_row({14: 1, 2: 1, 6: -1, 12: 1, 13: -1, **{k: -v for k, v in half_phi.items()}}),
        hermite_row({15: 1, 3: 1, 7: -1, 12: 1, 13: -1, **{k: -v for k, v in half_phi.items()}}),
        hermite_row({8: 1, 9: -1, 12: -1, 13: 1, 14: -1, 15: -1, **{k: -2 * v for k, v in half_phi.items()}}),
    ]
    hermite_conditions = RationalMatrix(rows).rref()[0]
    rank = pulled_back.rref()[1]
    assert rank == 5
    assert pulled_back.take_rows(range(5)) == hermite_conditions.take_rows(range(5))


# ---------------------------------------------------------------------------
# joint repair


def test_repair_empty_set():
    result = repair_patches([])
    assert result.patches == [] and result.max_displacement == 0.0


def test_repair_compliant_input_unchanged(rng):
    patches = [
        BezierPatch(*(random_compliant_grid(rng) for _ in range(3))) for _ in range(3)
    ]
    result = repair_patches(patches)
    for before, after in zip(patches, result.patches):
        for g0, g1 in zip(before.grids, after.grids):
            assert np.max(np.abs(g1 - g0)) <= 1e-12


def test_repair_reaches_compliance_and_keeps_corners(rng):
    patches = [BezierPatch(*rng.uniform(-10, 10, (3, 4, 4))) for _ in range(4)]
    result = repair_patches(patches)
    for before, after in zip(patches, result.patches):
        for g0, g1 in zip(before.grids, after.grids):
            assert bs_residuals(g1, tol=1e-9).compliant
            for i, j in CORNER_SLOTS:
                assert g1[i, j] == g0[i, j]
    assert all(s.corner_displacement == 0.0 for s in result.per_patch)


def test_repair_of_one_patch_is_bs_project(rng):
    for _ in range(50):
        p = random_patch(rng)
        repaired = repair_patches([p]).patches[0]
        scale = grid_scale(p.as_array)
        for after, g in zip(repaired.grids, p.grids):
            assert np.max(np.abs(after - bs_project(g))) <= 1e-12 * scale


def test_repair_preserves_shared_edges_exactly(rng):
    a, b = shared_edge_pair(rng)
    result = repair_patches([a, b])
    ra, rb = result.patches
    for ga, gb in zip(ra.grids, rb.grids):
        assert np.array_equal(ga[3, :], gb[0, :])
    rep = continuity_report(ra, EdgeId(EdgeSide.U1), rb, EdgeId(EdgeSide.U0), 16)
    assert rep.c0_max_gap == 0.0


def test_repair_keeps_each_corner_sign_of_zero(rng):
    a, b = shared_edge_pair(rng)
    xa, xb = np.array(a.x), np.array(b.x)
    xa[3, 0], xb[0, 0] = 0.0, -0.0  # one shared corner, two signs of zero
    xa[3, 1], xb[0, 1] = 0.0, -0.0  # one shared non-corner point
    ra, rb = repair_patches([BezierPatch(xa, a.y, a.z), BezierPatch(xb, b.y, b.z)]).patches
    assert not np.signbit(ra.x[3, 0]) and np.signbit(rb.x[0, 0])
    for ga, gb in zip(ra.grids, rb.grids):
        assert np.array_equal(ga[3, :], gb[0, :])


_CORNERS = (slice(None), [0, 0, 3, 3], [0, 3, 0, 3])


def assert_repair_matches_loop(patches):
    """Array repair within 1e-12*scale of the loop oracle, corners bit-exact."""
    fast, slow = repair_patches(patches), loop_repair_patches(patches)
    scale = max(grid_scale(p.as_array) for p in patches)
    for p, f, s in zip(patches, fast.patches, slow.patches):
        assert np.max(np.abs(f.as_array - s.as_array)) <= 1e-12 * scale
        got, given = f.as_array[_CORNERS], p.as_array[_CORNERS]
        assert np.array_equal(got, given) and np.array_equal(np.signbit(got), np.signbit(given))
    for f, s in zip(fast.per_patch, slow.per_patch):
        assert abs(f.max_displacement - s.max_displacement) <= 1e-12 * scale
        assert f.corner_displacement == 0.0
    assert abs(fast.max_displacement - slow.max_displacement) <= 1e-12 * scale
    assert fast.residual <= 1e-12
    return fast


@pytest.mark.parametrize("split", [False, True])
def test_repair_matches_loop_oracle_on_teapot(teapot_path, split):
    patches = read_newell(teapot_path).patches
    if split:
        patches = [q for p in patches for q in split_patch(p)]
    assert_repair_matches_loop(patches)


def test_repair_matches_loop_oracle_on_random_sets(rng):
    for count in range(1, 9):
        magnitude = 10.0 ** rng.integers(-3, 4)
        assert_repair_matches_loop([random_patch(rng, -magnitude, magnitude) for _ in range(count)])


height_fields = st.integers(1, 3).flatmap(
    lambda k: arrays(float, (3 * k + 1, 3 * k + 1), elements=st.floats(-50.0, 50.0))
)


@settings(max_examples=30, deadline=None)
@given(heights=height_fields)
def test_repair_keeps_height_field_grids_c0(heights):
    patches = height_field_patches(heights)
    k = (len(heights) - 1) // 3
    records = detect_adjacency(patches)
    assert len(records) == 2 * k * (k - 1)
    repaired = assert_repair_matches_loop(patches).patches
    for rec in records:
        rep = continuity_report(repaired[rec.a], rec.edge_a, repaired[rec.b], rec.edge_b, 4)
        assert rep.c0_max_gap == 0.0


def test_repair_reports_a_rank_deficient_patch(rng):
    bad = rank_deficient_patch(rng)
    with pytest.raises(RepairError) as exc:
        repair_patches([bad])
    assert exc.value.patches == (0,)
    assert isinstance(exc.value, ValueError)
    # The least-squares oracle hides the same system behind a large residual.
    assert loop_repair_patches([bad]).residual > 0.1


_BOUNDARY_SLOTS = tuple((i, j) for i in range(4) for j in range(4) if i in (0, 3) or j in (0, 3))


def _coincident_boundary_patch(rng) -> BezierPatch:
    """Random patch whose non-corner boundary points are, one after another,
    each set equal to a drawn boundary point (corners and itself included)."""
    g = random_patch(rng).as_array.copy()
    for i, j in (s for s in _BOUNDARY_SLOTS if s not in CORNER_SLOTS):
        k, m = _BOUNDARY_SLOTS[rng.integers(len(_BOUNDARY_SLOTS))]
        g[:, i, j] = g[:, k, m]
    return BezierPatch(*g)


def _exact_rank_over_free_variables(patch: BezierPatch) -> int:
    """Rank of the 6-row reference matrix over the patch's free variables, exactly.

    Slots with bit-identical points are one variable, a variable on a corner
    is fixed, and a free variable's column sums its slots' columns.  The
    reduced rows are row operations on these rows, so the rank is the same.
    """
    g = patch.as_array
    key = {(i, j): tuple(g[:, i, j]) if (i, j) in _BOUNDARY_SLOTS else (i, j)
           for i in range(4) for j in range(4)}
    fixed = {key[c] for c in CORNER_SLOTS}
    columns = {}
    for (i, j), k in key.items():
        if k not in fixed:
            col = columns.setdefault(k, [0] * 6)
            for r in range(6):
                col[r] += LAMBDA_REFERENCE[r][4 * i + j]
    return RationalMatrix(list(columns.values())).rank() if columns else 0


def test_structural_rank_deficiency_is_decided_before_factoring(rng, monkeypatch):
    factorizations = []
    cholesky = np.linalg.cholesky

    def counted(a):
        factorizations.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    deficient = 0
    for _ in range(400):
        patch = _coincident_boundary_patch(rng)
        factorizations.clear()
        if _exact_rank_over_free_variables(patch) < 5:
            deficient += 1
            with pytest.raises(RepairError, match="is rank-deficient") as exc:
                repair_patches([patch])
            assert exc.value.patches == (0,)
            assert factorizations == []  # raised before any float factorization or step
        else:
            result = repair_patches([patch])
            assert result.residual <= 1e-9  # compliant at the default tolerance
            assert len(factorizations) == 1
    assert deficient >= 10


def test_repair_error_names_only_the_failing_component(rng):
    a, b = shared_edge_pair(rng)
    with pytest.raises(RepairError) as exc:
        repair_patches([a, rank_deficient_patch(rng), b])
    assert exc.value.patches == (1,)
    assert "[1]" in str(exc.value)


def test_repair_reports_a_residual_left_above_the_stop_bound(rng, monkeypatch):
    monkeypatch.setattr("smartpatch.constraints._REFINEMENT_STEPS", 0)
    a, b = shared_edge_pair(rng)
    with pytest.raises(RepairError, match="infeasible") as exc:
        repair_patches([random_compliant_patch(rng), a, b])
    assert exc.value.patches == (1, 2)


@pytest.mark.parametrize("split", [False, True])
def test_repair_system_diagnostics(teapot_path, split):
    patches = read_newell(teapot_path).patches
    if split:
        patches = [q for p in patches for q in split_patch(p)]
    system = repair_patches(patches).system
    assert system.rows == 5 * len(patches)
    assert system.components == 4
    assert 0 < system.shared_variables < system.free_variables
    assert system.free_variables + system.fixed_variables > 4 * len(patches)
    steps = system.step_residuals
    assert 2 <= len(steps) <= 4
    assert steps[-1] <= 1e-13 < steps[0]


def test_repair_system_counts_of_one_shared_edge(rng):
    a, b = shared_edge_pair(rng)
    system = repair_patches([a, b]).system
    # 4 + 4 corners, 2 of them common; 12 free slots per patch, the 2 inner
    # points of the common edge named by both.
    assert system.rows == 10
    assert system.fixed_variables == 6
    assert system.shared_variables == 2
    assert system.free_variables == 2 * 16 - 4 - 6
    assert system.components == 1


def shifted(patches, dx):
    return [BezierPatch(p.x + dx, p.y, p.z) for p in patches]


@settings(max_examples=20, deadline=None)
@given(a=height_fields, b=height_fields, dx=st.floats(4.0, 1e3))
def test_repair_solves_components_independently(a, b, dx):
    """Sets that share no boundary point repair bit for bit as they do alone."""
    left, right = height_field_patches(a), shifted(height_field_patches(b), dx)
    joint = repair_patches(left + right)
    alone = repair_patches(left).patches + repair_patches(right).patches
    for p, q in zip(joint.patches, alone):
        assert p.as_array.tobytes() == q.as_array.tobytes()
    parts = sum(repair_patches(s).system.components for s in (left, right))
    assert joint.system.components == parts


def test_repair_stop_test_uses_each_components_own_scale(rng):
    """A nearly compliant set next to a large one is still refined to its own bound."""
    small = repair_patches(height_field_patches(rng.uniform(-1, 1, (7, 7)))).patches
    x = np.array(small[0].x)
    x[1, 1] += 1e-11  # residual ~1e-11: above 1e-13, below 1e-13 times the large scale
    small[0] = BezierPatch(x, small[0].y, small[0].z)
    large = shifted([random_patch(rng, -1e3, 1e3)], 5e3)
    joint = repair_patches(small + large)
    assert joint.patches[0].x[1, 1] != x[1, 1]
    for p, q in zip(joint.patches, repair_patches(small).patches):
        assert p.as_array.tobytes() == q.as_array.tobytes()


def test_repair_of_random_unshared_sets_is_per_patch(rng):
    patches = [random_patch(rng, -m, m) for m in (1e-3, 1.0, 10.0, 1e3) for _ in range(3)]
    joint = repair_patches(patches)
    assert joint.system.components == len(patches)
    for p, q in zip(joint.patches, patches):
        assert p.as_array.tobytes() == repair_patches([q]).patches[0].as_array.tobytes()


def assert_repair_idempotent(patches):
    once = repair_patches(patches).patches
    twice = repair_patches(once).patches
    scale = max(grid_scale(p.as_array) for p in patches)
    for p, q in zip(once, twice):
        assert np.max(np.abs(p.as_array - q.as_array)) <= 1e-12 * scale


@pytest.mark.parametrize("split", [False, True])
def test_repair_is_idempotent_on_teapot(teapot_path, split):
    patches = read_newell(teapot_path).patches
    if split:
        patches = [q for p in patches for q in split_patch(p)]
    assert_repair_idempotent(patches)


@settings(max_examples=30, deadline=None)
@given(heights=height_fields)
def test_repair_is_idempotent_on_height_fields(heights):
    assert_repair_idempotent(height_field_patches(heights))


def _constant_patch() -> BezierPatch:
    return BezierPatch(np.full((4, 4), 1.0), np.full((4, 4), 2.0), np.full((4, 4), -3.0))


def test_compliant_degenerate_patch_repairs_untouched(monkeypatch):
    # all 16 points on one fixed variable: the patch's rows have exact rank 0
    # over its four free inner points, but it needs no correction
    factorizations = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factorizations.append(a) or cholesky(a))
    patch = _constant_patch()
    result = repair_patches([patch])
    assert factorizations == []
    assert np.array_equal(result.patches[0].as_array, patch.as_array)
    assert result.max_displacement == 0.0 and result.residual == 0.0
    assert len(result.system.step_residuals) == 1


def test_compliant_degenerate_patch_beside_a_noncompliant_one(rng):
    constant, other = _constant_patch(), random_patch(rng)
    result = repair_patches([constant, other])
    assert result.system.components == 2
    assert np.array_equal(result.patches[0].as_array, constant.as_array)
    assert result.per_patch[0].max_displacement == 0.0
    assert result.per_patch[1].max_displacement > 0.0
    assert all(bs_residuals(g).compliant for g in result.patches[1].grids)
    # a deficient component that does need a correction still raises
    with pytest.raises(RepairError, match="is rank-deficient") as exc:
        repair_patches([constant, rank_deficient_patch(rng), other])
    assert exc.value.patches == (1,)


def _repair_input(teapot_path, source, seed):
    """The teapot, its 2x2 split or a seeded k x k height field, patch order shuffled."""
    if source in ("teapot", "split"):
        patches = read_newell(teapot_path).patches
        if source == "split":
            patches = [q for p in patches for q in split_patch(p)]
    else:
        rng = np.random.default_rng(seed)
        heights = rng.uniform(-50.0, 50.0, (3 * source + 1, 3 * source + 1))
        patches = height_field_patches(heights * 10.0 ** rng.integers(-3, 4))
    return [patches[k] for k in np.random.default_rng(seed).permutation(len(patches))]


@settings(max_examples=20, deadline=None)
@given(
    source=st.one_of(st.sampled_from(["teapot", "split"]), st.integers(2, 12)),
    seed=st.integers(0, 2**32 - 1),
)
# height fields whose 6-row residual stayed at 1.0-1.26e-12 when repair
# stopped on the reduced residual alone
@example(source=8, seed=63)
@example(source=9, seed=847)
@example(source=10, seed=1610)
@example(source=10, seed=1750)
@example(source=11, seed=980)
@example(source=11, seed=1666)
def test_repair_matches_the_dense_and_loop_oracles(teapot_path, source, seed):
    """The level-set factorization gives the dense per-component solve's answer."""
    patches = _repair_input(teapot_path, source, seed)
    fast = assert_repair_matches_loop(patches)
    scale = max(grid_scale(p.as_array) for p in patches)
    for f, d in zip(fast.patches, dense_repair_patches(patches)):
        assert np.max(np.abs(f.as_array - d.as_array)) <= 1e-12 * scale


def test_level_sets_start_from_a_pseudo_peripheral_node():
    """A path 0..4 and a 3 x 3 grid 5..13, each searched from its middle node,
    end up rooted at an end and at a corner: levels 0..4 and r + c."""
    edges = [(k, k + 1) for k in range(4)]
    edges += [(5 + 3 * r + c, 5 + 3 * r + c + 1) for r in range(3) for c in range(2)]
    edges += [(5 + 3 * r + c, 5 + 3 * (r + 1) + c) for r in range(2) for c in range(3)]
    a, b = np.array(edges + [(q, p) for p, q in edges]).T
    comp = np.array([0] * 5 + [1] * 9)
    level = _level_sets(a, b, comp, np.array([2, 9]))
    assert level.tolist() == [0, 1, 2, 3, 4] + [r + c for r in range(3) for c in range(3)]
    grid = (a >= 5) & (b >= 5)
    alone = _level_sets(a[grid] - 5, b[grid] - 5, np.zeros(9, dtype=int), np.array([4]))
    assert alone.tolist() == level[5:].tolist()


@pytest.mark.parametrize("split, levels, widest", [(False, 6, 4), (True, 12, 8)])
def test_repair_reports_its_level_structure(teapot_path, split, levels, widest):
    patches = read_newell(teapot_path).patches
    if split:
        patches = [q for p in patches for q in split_patch(p)]
    system = repair_patches(patches).system
    assert (system.levels, system.max_level_patches) == (levels, widest)
    single = repair_patches([patches[0]]).system
    assert (single.levels, single.max_level_patches) == (1, 1)
    compliant = repair_patches(repair_patches(patches).patches).system
    assert (compliant.levels, compliant.max_level_patches) == (0, 0)


def test_repair_of_a_duplicated_patch(rng):
    """[p, p] shares every boundary point; p's four inner columns have rank 4
    in five rows, so (x, -x) with x in their left null space is in the kernel
    of A A^T.  The system is singular but consistent, and it still repairs
    to the least-squares answer."""
    for _ in range(20):
        magnitude = 10.0 ** rng.integers(-3, 4)
        p = random_patch(rng, -magnitude, magnitude)
        fast = assert_repair_matches_loop([p, p])
        assert fast.system.components == 1 and fast.system.levels == 2
        a, b = fast.patches
        scale = grid_scale(p.as_array)
        assert np.max(np.abs(a.as_array - b.as_array)) <= 1e-13 * scale


def test_repair_memory_is_linear_on_one_component():
    """A 24 x 24 height field is one 576-patch component.  Its dense 2880^2 Gram
    matrix alone took 66 MB; the level blocks need a fraction of that."""
    heights = np.random.default_rng(24).uniform(-1.0, 1.0, (73, 73))
    patches = height_field_patches(heights)
    for p in patches:
        p.as_array  # the input's own stacked grids are not the solve's memory
    repair_patches(height_field_patches(heights[:10, :10]))  # exact caches filled
    tracemalloc.start()
    try:
        result = repair_patches(patches)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.system.components == 1
    # breadth-first from a corner patch: 47 anti-diagonal levels, 24 patches at most
    assert (result.system.levels, result.system.max_level_patches) == (47, 24)
    assert peak < 32e6


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("scale", [3e306, 1e307, 3e307])
def test_repair_near_the_float_limit_is_finite_or_raises(scale):
    """A 6-row product that overflows to inf - inf is NaN, and NaN is not within
    the stop bound: the patch is repaired to a finite residual or raises."""
    for seed in range(8):
        patch = np.random.default_rng(seed).uniform(-1.0, 1.0, (1, 3, 4, 4)) * scale
        try:
            result = repair_patches(patch)
        except RepairError as exc:
            assert "is infeasible" in str(exc)
            continue
        assert type(result.residual) is float and result.residual <= 1e-13


_STAGES = ("_variables", "_patch_ranks", "_assemble", "_factor", "_refine")


def _recorded(monkeypatch, name) -> list:
    """Wrap the repair stage ``name``; each call appends its (args, value)."""
    calls, stage = [], getattr(constraints, name)

    def wrapped(*args):
        value = stage(*args)
        calls.append((args, value))
        return value

    monkeypatch.setattr(constraints, name, wrapped)
    return calls


@pytest.mark.parametrize("compliant", [False, True])
def test_repair_runs_each_stage_once(teapot_path, monkeypatch, compliant):
    patches = read_newell(teapot_path).patches
    if compliant:
        patches = repair_patches(patches).patches
    calls = {name: _recorded(monkeypatch, name) for name in _STAGES}
    result = repair_patches(patches)
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(_STAGES, 1)
    inv_factor, _ = calls["_factor"][0][1]
    steps = len(result.system.step_residuals) - 1
    if compliant:  # nothing factored, no step taken, every bit kept
        assert (inv_factor, steps) == ({}, 0)
        for p, q in zip(result.patches, patches):
            assert p.as_array.tobytes() == q.as_array.tobytes()
    else:
        width = calls["_assemble"][0][1][1]
        assert len(inv_factor) == len(width) == 15 and steps >= 1  # every level factored


def _stage_input(teapot_path, rng, source):
    if source == "field":
        return height_field_patches(rng.uniform(-1.0, 1.0, (13, 13)))
    if source == "duplicate":
        p = random_patch(rng)
        return [p, p]
    patches = read_newell(teapot_path).patches
    return [q for p in patches for q in split_patch(p)] if source == "split" else patches


@pytest.mark.parametrize("source", ["teapot", "split", "field", "duplicate"])
def test_assembled_blocks_are_those_of_the_dense_gram(teapot_path, rng, monkeypatch, source):
    patches = _stage_input(teapot_path, rng, source)
    calls = _recorded(monkeypatch, "_assemble")
    repair_patches(patches)
    [(args, (order, width, first, level_comp, count, base, blocks))] = calls
    assert args[-1].all()  # every component needs a correction: every level is assembled
    assert np.array_equal(width, 5 * count)
    assert np.array_equal(first, np.r_[True, level_comp[1:] != level_comp[:-1]])
    rows = (5 * order[:, None] + np.arange(5)).ravel()
    gram = dense_system(patches)[-1][np.ix_(rows, rows)]  # in level order
    tol = 1e-14 * np.abs(gram).max()
    start = np.r_[0, np.cumsum(width)]
    assembled = np.zeros(gram.shape, dtype=bool)
    for g, w in enumerate(width):
        lo, hi = start[g], start[g + 1]
        diag = blocks[base[g, 0]:base[g, 0] + w * w].reshape(w, w)
        np.testing.assert_allclose(diag, gram[lo:hi, lo:hi], rtol=0, atol=tol)
        assembled[lo:hi, lo:hi] = True
        if not first[g]:
            sub = blocks[base[g, 1]:base[g, 1] + w * width[g - 1]].reshape(w, -1)
            np.testing.assert_allclose(sub, gram[lo:hi, start[g - 1]:lo], rtol=0, atol=tol)
            assembled[lo:hi, start[g - 1]:lo] = assembled[start[g - 1]:lo, lo:hi] = True
    assert not gram[~assembled].any()  # block tridiagonal: nothing else couples two patches


@pytest.mark.parametrize("level", [0, 1])
def test_factor_raises_on_a_level_that_is_not_positive_definite(level):
    """Component 0 (patches 1 and 2) has two levels coupled by 2I; its first
    block is -I, or its second Schur complement is I - 4I.  Component 1
    (patch 0) is one level I, and a component that needs no correction is
    not factored."""
    eye = np.eye(5).ravel()
    blocks = np.concatenate([eye if level else -eye, eye, 2 * eye, eye])
    base = np.array([[0, 25], [25, 50], [75, 100]])
    width, first = np.array([5, 5, 5]), np.array([True, False, True])
    level_comp, comp = np.array([0, 0, 1]), np.array([1, 0, 0])
    with pytest.raises(RepairError) as exc:
        constraints._factor(blocks, base, width, first, level_comp, comp, np.array([True, True]))
    assert str(exc.value) == (
        "joint repair of patches [1, 2] is rank-deficient: its Gram matrix is not positive definite"
    )
    inv_factor, below = constraints._factor(
        blocks, base, width, first, level_comp, comp, np.array([False, True])
    )
    assert list(inv_factor) == [2] and below == {}


def test_variables_name_each_distinct_boundary_point_once(teapot_path, rng):
    teapot = read_newell(teapot_path).patches
    a, b = shared_edge_pair(rng)
    x = np.array(a.x)
    x[3, :] = 0.0
    a = BezierPatch(x, a.y, a.z)
    x = np.array(b.x)
    x[0, :] = -0.0  # equal to a's 0.0: the same points
    b = BezierPatch(x, b.y, b.z)
    split = [q for p in teapot for q in split_patch(p)]
    pts, ref_var, ref_fixed, *_ = dense_system(teapot + split + [a, b, rank_deficient_patch(rng)])
    slot_var, fixed = constraints._variables(pts)
    # the oracle's partition of the slots: one variable per distinct boundary
    # point, inner slots private, and the same variables fixed (the corners')
    assert len(fixed) == len(np.unique(slot_var)) == len(ref_fixed)
    assert len(np.unique(np.c_[slot_var.ravel(), ref_var.ravel()], axis=0)) == len(ref_fixed)
    assert np.array_equal(fixed[slot_var], ref_fixed[ref_var])
    assert np.array_equal(slot_var[-3, 12:], slot_var[-2, :4])  # 0.0 and -0.0: one point
