"""Acceptance suite: one test per release criterion, timed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion; each test also enforces its runtime budget.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from smartpatch import (
    BezierPatch,
    DiagonalKind,
    HermitePatch,
    bezier_to_hermite,
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
    surface_normal,
    tessellate,
)
from smartpatch.constraints import LAMBDA_REFERENCE
from smartpatch.io import read_newell
from smartpatch.linalg import RationalMatrix
from smartpatch.tessellation import (
    EdgeId,
    EdgeSide,
    continuity_report,
    detect_adjacency,
    edge_incidence,
)

from helpers import CORNER_SLOTS, grid_scale, hs_consistent_grid, random_patch, shared_edge_pair


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number} FAIL ({elapsed:.2f}s): {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {description}")
    assert elapsed < budget_seconds, f"runtime {elapsed:.2f}s exceeds {budget_seconds}s budget"


def test_criterion_1_constraint_matrix_certification():
    with criterion(1, "derived constraint matrix matches the 96-entry table, exact rank 5", 1.0):
        build_lambda.cache_clear()
        system = build_lambda()
        reference = np.array(LAMBDA_REFERENCE, dtype=float)
        assert np.array_equal(system.lam, reference)
        assert system.lam.shape == (6, 16)
        assert system.rank == 5
        assert RationalMatrix(LAMBDA_REFERENCE).rref()[1] == 5


def test_criterion_2_degree_reduction():
    rng = np.random.default_rng(2)
    with criterion(2, "1000 solved grids stay cubic; random grids are degree 6", 5.0):
        for _ in range(1000):
            g = bs_solve(rng.uniform(-10, 10, 4), rng.uniform(-10, 10, 7))
            scale = grid_scale(g)
            for kind in DiagonalKind:
                a6, a5, a4 = collapse_diagonal(g, kind).coeffs[:3]
                assert max(abs(a6), abs(a5), abs(a4)) <= 1e-9 * scale
        generic_degree_six = 0
        for _ in range(1000):
            g = rng.uniform(-10, 10, (4, 4))
            a6 = collapse_diagonal(g, DiagonalKind.MAIN).coeffs[0]
            if abs(a6) > 1e-6 * grid_scale(g):
                generic_degree_six += 1
        assert generic_degree_six >= 990


def test_criterion_3_inner_point_identity():
    rng = np.random.default_rng(3)
    with criterion(3, "solve/project outputs satisfy the certified inner-point identity", 5.0):
        resolution = resolve_inner_identity()
        assert resolution.plus_variant_holds and not resolution.minus_variant_holds
        assert str(resolution.corner_coefficient) == "1/9"
        for _ in range(300):
            g = bs_solve(rng.uniform(-10, 10, 4), rng.uniform(-10, 10, 7))
            assert abs(bs_inner_identity(g)) <= 1e-12 * grid_scale(g)
            p = bs_project(rng.uniform(-10, 10, (4, 4)))
            assert abs(bs_inner_identity(p)) <= 1e-12 * grid_scale(p)


def test_criterion_4_conversion_exactness():
    rng = np.random.default_rng(4)
    with criterion(4, "Hermite/Bezier roundtrip error at most 1e-12 on 1000 patches", 5.0):
        worst = 0.0
        for _ in range(1000):
            b = random_patch(rng)
            b2 = hermite_to_bezier(bezier_to_hermite(b))
            for g, g2 in zip(b.grids, b2.grids):
                worst = max(worst, float(np.max(np.abs(g - g2))))
        assert worst <= 1e-12


def test_criterion_5_hermite_consistency():
    rng = np.random.default_rng(5)
    with criterion(5, "1000 twist-consistent Hermite patches convert to compliant grids", 10.0):
        for _ in range(1000):
            h = HermitePatch(*(hs_consistent_grid(rng) for _ in range(3)))
            b = hermite_to_bezier(h)
            for g in b.grids:
                assert bs_residuals(g, tol=1e-9).compliant


def test_criterion_6_sampling_oracle():
    rng = np.random.default_rng(6)
    ts = np.linspace(0.0, 1.0, 101)
    with criterion(6, "collapsed diagonals match direct evaluation at 101 points", 10.0):
        for _ in range(100):
            g = rng.uniform(-10, 10, (4, 4))
            patch = BezierPatch(g, g, g)
            scale = grid_scale(g)
            for kind in DiagonalKind:
                poly = collapse_diagonal(g, kind)
                for t in ts:
                    v = 1.0 - t if kind is DiagonalKind.ANTI else t
                    direct = eval_patch(patch, t, v)[0]
                    assert abs(poly(t) - direct) <= 1e-10 * scale


def test_criterion_7_projection_contract():
    rng = np.random.default_rng(7)
    with criterion(7, "projection idempotent, corner-exact; repair never widens shared edges", 10.0):
        for _ in range(200):
            g = rng.uniform(-10, 10, (4, 4))
            p1 = bs_project(g)
            p2 = bs_project(p1)
            assert np.max(np.abs(p2 - p1)) <= 1e-12
            for i, j in CORNER_SLOTS:
                assert p1[i, j] == g[i, j]
        for _ in range(20):
            a, b = shared_edge_pair(rng)
            before = continuity_report(a, EdgeId(EdgeSide.U1), b, EdgeId(EdgeSide.U0), 16)
            fixed = repair_patches([a, b]).patches
            after = continuity_report(
                fixed[0], EdgeId(EdgeSide.U1), fixed[1], EdgeId(EdgeSide.U0), 16
            )
            assert after.c0_max_gap <= before.c0_max_gap
            assert after.c0_max_gap == 0.0
            for g in fixed[0].grids + fixed[1].grids:
                assert bs_residuals(g, tol=1e-9).compliant


def test_criterion_8_teapot_pipeline(teapot_path):
    with criterion(8, "teapot ingests, repairs, tessellates watertight, edges unchanged", 10.0):
        ps = read_newell(teapot_path)
        assert len(ps.patches) == 32

        records = detect_adjacency(ps.patches)
        assert records
        gaps_before = [
            continuity_report(ps.patches[r.a], r.edge_a, ps.patches[r.b], r.edge_b, 16).c0_max_gap
            for r in records
        ]

        result = repair_patches(ps.patches)
        scale = max(grid_scale(g) for p in ps.patches for g in p.grids)
        for p in result.patches:
            for g in p.grids:
                assert bs_residuals(g, tol=1e-9).compliant
        for original, fixed in zip(ps.patches, result.patches):
            for g0, g1 in zip(original.grids, fixed.grids):
                for i, j in CORNER_SLOTS:
                    assert g1[i, j] == g0[i, j]

        gaps_after = [
            continuity_report(
                result.patches[r.a], r.edge_a, result.patches[r.b], r.edge_b, 16
            ).c0_max_gap
            for r in records
        ]
        assert max(abs(x - y) for x, y in zip(gaps_before, gaps_after)) <= 1e-12 * scale

        n = 16
        for p in result.patches:
            mesh = tessellate(p, n)
            assert len(mesh.vertices) == (n + 1) ** 2
            assert len(mesh.triangles) == 2 * n * n
            counts = edge_incidence(mesh)
            assert set(counts.values()) <= {1, 2}
            assert sum(1 for c in counts.values() if c == 1) == 4 * n


def test_criterion_9_normal_correctness():
    rng = np.random.default_rng(9)
    h = 1e-5
    with criterion(9, "analytic normals match central finite differences to 1e-6", 5.0):
        checked = 0
        while checked < 100:
            patch = random_patch(rng)
            u, v = rng.uniform(2 * h, 1.0 - 2 * h, 2)
            analytic = surface_normal(patch, u, v)
            if analytic is None:
                continue
            du = (eval_patch(patch, u + h, v) - eval_patch(patch, u - h, v)) / (2 * h)
            dv = (eval_patch(patch, u, v + h) - eval_patch(patch, u, v - h)) / (2 * h)
            fd = np.cross(du, dv)
            fd /= np.linalg.norm(fd)
            assert np.max(np.abs(analytic - fd)) <= 1e-6
            checked += 1
