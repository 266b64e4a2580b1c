import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartpatch import (
    BezierPatch,
    DiagonalKind,
    TessPattern,
    collapse_diagonal,
    continuity_report,
    detect_adjacency,
    eval_patch,
    surface_normal,
    tessellate,
    tessellate_set,
)
from smartpatch.io import read_newell
from smartpatch.patches import _key_codes, eval_patch_partials
from smartpatch.tessellation import (
    _SIDE_CODE,
    Adjacency,
    EdgeId,
    EdgeSide,
    TriangleMesh,
    _NEIGHBOUR_OFFSETS,
    _adjacency,
    _cross,
    _norm,
    continuity_measures,
    edge_incidence,
    merge_meshes,
)

from helpers import (
    bilinear_grid,
    edge_points,
    four_call_continuity,
    grid_scale,
    height_field_patches,
    identity_plane_patch,
    key_codes_adjacency,
    loop_continuity,
    loop_edge_incidence,
    loop_triangles,
    loop_vertex_normals,
    numpy_unit_normals,
    pairwise_adjacency,
    per_patch_normals,
    random_compliant_patch,
    random_patch,
    sample_grid,
    scalar_surface_normal,
    shared_edge_pair,
    split_patch,
)


def test_sample_grid_n1_gives_corners(rng):
    patch = random_patch(rng)
    pts = sample_grid(patch, 1)
    assert pts.shape == (2, 2, 3)
    assert np.allclose(pts[0, 0], patch.as_array[:, 0, 0], atol=1e-14)
    assert np.allclose(pts[1, 0], patch.as_array[:, 3, 0], atol=1e-13)
    assert np.allclose(pts[0, 1], patch.as_array[:, 0, 3], atol=1e-13)
    assert np.allclose(pts[1, 1], patch.as_array[:, 3, 3], atol=1e-13)


def test_sample_grid_constant_patch():
    patch = BezierPatch(np.full((4, 4), 1.5), np.full((4, 4), -2.0), np.zeros((4, 4)))
    pts = sample_grid(patch, 5)
    assert np.allclose(pts, np.array([1.5, -2.0, 0.0]), atol=1e-13)


def test_sample_grid_center_point(rng):
    patch = random_patch(rng)
    pts = sample_grid(patch, 2)
    assert np.allclose(pts[1, 1], eval_patch(patch, 0.5, 0.5), atol=1e-12)


def test_sample_grid_rejects_zero():
    with pytest.raises(ValueError):
        sample_grid(identity_plane_patch(), 0)
    with pytest.raises(ValueError):
        tessellate(identity_plane_patch(), 0)


@pytest.mark.parametrize("pattern", list(TessPattern))
def test_tessellate_counts(pattern, rng):
    patch = random_patch(rng)
    mesh = tessellate(patch, 1, pattern)
    assert len(mesh.vertices) == 4 and len(mesh.triangles) == 2
    mesh = tessellate(patch, 4, pattern)
    assert len(mesh.vertices) == 25 and len(mesh.triangles) == 32


@pytest.mark.parametrize("pattern, member", [
    (TessPattern.ANTI_DIAG, TessPattern.ANTI_DIAG), ("anti", TessPattern.ANTI_DIAG),
    ("main", TessPattern.MAIN_DIAG), ("bogus", None), (3, None),
])
def test_a_pattern_is_read_as_a_member_or_its_value(teapot_path, pattern, member):
    patches = read_newell(teapot_path).points[:1]
    for tess in (tessellate_set, lambda ps, n, p: tessellate(BezierPatch._of(ps[0]), n, p)):
        if member is None:
            with pytest.raises(ValueError, match="is not a valid TessPattern"):
                tess(patches, 4, pattern)
        else:
            mesh, expected = tess(patches, 4, pattern), tess(patches, 4, member)
            assert np.array_equal(mesh.triangles, expected.triangles)


@pytest.mark.parametrize("pattern", list(TessPattern))
def test_tessellate_watertight(pattern, rng):
    mesh = tessellate(random_patch(rng), 5, pattern)
    counts = edge_incidence(mesh)
    boundary = [e for e, c in counts.items() if c == 1]
    assert set(counts.values()) <= {1, 2}
    assert len(boundary) == 4 * 5  # n segments per side


@pytest.mark.parametrize("pattern", list(TessPattern))
def test_tessellate_winding_is_ccw_in_parameter_plane(pattern):
    mesh = tessellate(identity_plane_patch(), 4, pattern)
    v = mesh.vertices
    for t in mesh.triangles:
        a, b, c = v[t[0]], v[t[1]], v[t[2]]
        cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        assert cross > 0.0


def test_planar_area_is_pattern_independent(rng):
    # skewed planar patch: affine image of the identity plane
    base = identity_plane_patch()
    mat = rng.uniform(-2, 2, (3, 3))
    mat[2] = [0.0, 0.0, 1.0]
    grids = np.einsum("ab,bij->aij", mat, np.stack(base.grids))
    patch = BezierPatch(*grids)
    areas = []
    for pattern in TessPattern:
        mesh = tessellate(patch, 6, pattern)
        v = mesh.vertices
        tri = mesh.triangles
        cross = np.cross(v[tri[:, 1]] - v[tri[:, 0]], v[tri[:, 2]] - v[tri[:, 0]])
        areas.append(float(np.linalg.norm(cross, axis=1).sum() / 2.0))
    assert max(areas) - min(areas) <= 1e-10 * max(abs(a) for a in areas)


def test_compliant_patch_diagonal_vertices_lie_on_cubic(rng):
    n = 8
    patch = random_compliant_patch(rng)
    mesh = tessellate(patch, n, TessPattern.MAIN_DIAG)
    cubics = [collapse_diagonal(g, DiagonalKind.MAIN).coeffs[3:] for g in patch.grids]
    anti = [collapse_diagonal(g, DiagonalKind.ANTI).coeffs[3:] for g in patch.grids]
    scale = max(grid_scale(g) for g in patch.grids)

    def cubic_eval(c, t):
        acc = 0.0
        for coef in c:
            acc = acc * t + coef
        return acc

    for k in range(n + 1):
        t = k / n
        main_vertex = mesh.vertices[k * (n + 1) + k]
        anti_vertex = mesh.vertices[k * (n + 1) + (n - k)]
        for axis in range(3):
            assert abs(cubic_eval(cubics[axis], t) - main_vertex[axis]) <= 1e-10 * scale
            # grid point (k/n, 1-k/n) must sit on the anti-diagonal cubic
            assert abs(cubic_eval(anti[axis], t) - anti_vertex[axis]) <= 1e-10 * scale


def test_mesh_invariants_rejected():
    with pytest.raises(ValueError):
        TriangleMesh(np.zeros((3, 3)), [[0, 1, 3]])
    with pytest.raises(ValueError):
        TriangleMesh(np.zeros((3, 3)), [[0, 1, 1]])
    with pytest.raises(ValueError):
        TriangleMesh(np.zeros((3, 3)), [[0, 1, 2]], normals=np.zeros((2, 3)))


def test_tessellate_normals_unit_length(rng):
    mesh = tessellate(random_patch(rng), 4, with_normals=True)
    lengths = np.linalg.norm(mesh.normals, axis=1)
    assert np.allclose(lengths, 1.0, atol=1e-9)


def test_normals_on_collapsed_edge_fall_back_to_face_average():
    # collapse the u=0 edge of a bilinear-ish sheet to a single point
    gx = np.array(
        [[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0], [3.0, 3.0, 3.0, 3.0]]
    )
    gy = np.array(
        [[0.0, 0.0, 0.0, 0.0], [-1.0, -0.4, 0.4, 1.0], [-2.0, -0.8, 0.8, 2.0], [-3.0, -1.2, 1.2, 3.0]]
    )
    patch = BezierPatch(gx, gy, np.zeros((4, 4)))
    assert surface_normal(patch, 0.0, 0.5) is None
    mesh = tessellate(patch, 4, with_normals=True)
    assert np.allclose(np.linalg.norm(mesh.normals, axis=1), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# normals


def test_normal_of_flat_patch():
    patch = identity_plane_patch()
    for u, v in [(0.0, 0.0), (0.3, 0.7), (1.0, 1.0)]:
        assert np.allclose(surface_normal(patch, u, v), [0.0, 0.0, 1.0], atol=1e-13)


def test_normal_of_bilinear_saddle_at_origin():
    gz = bilinear_grid(0.0, 0.0, 0.0, 1.0)  # z = u*v
    base = identity_plane_patch()
    patch = BezierPatch(base.x, base.y, gz)
    assert np.allclose(surface_normal(patch, 0.0, 0.0), [0.0, 0.0, 1.0], atol=1e-13)


def test_normals_match_finite_differences(rng):
    h = 1e-5
    for _ in range(100):
        patch = random_patch(rng)
        u, v = rng.uniform(2 * h, 1.0 - 2 * h, 2)
        n = surface_normal(patch, u, v)
        if n is None:
            continue
        du = (eval_patch(patch, u + h, v) - eval_patch(patch, u - h, v)) / (2 * h)
        dv = (eval_patch(patch, u, v + h) - eval_patch(patch, u, v - h)) / (2 * h)
        fd = np.cross(du, dv)
        fd /= np.linalg.norm(fd)
        assert np.allclose(n, fd, atol=1e-6)


# ---------------------------------------------------------------------------
# continuity


def test_continuity_patch_with_itself():
    patch = identity_plane_patch()
    rep = continuity_report(patch, EdgeId(EdgeSide.U1), patch, EdgeId(EdgeSide.U1), 8)
    assert rep.c0_max_gap == 0.0
    assert rep.c1_max_mismatch == 0.0
    assert rep.g1_max_angle == 0.0
    assert rep.samples == 9


def test_continuity_requires_two_samples():
    patch = identity_plane_patch()
    with pytest.raises(ValueError):
        continuity_report(patch, EdgeId(EdgeSide.U0), patch, EdgeId(EdgeSide.U0), 1)


def _bilinear_surface_halves(c):
    """Split the bilinear surface over [0,1]^2 at u=1/2 into two patches."""

    def blend(u, v):
        return (
            c[0] * (1 - u) * (1 - v) + c[1] * (1 - u) * v + c[2] * u * (1 - v) + c[3] * u * v
        )

    def patch_from(fn):
        grids = []
        for coord in range(3):
            g = np.empty((4, 4))
            for i in range(4):
                for j in range(4):
                    g[i, j] = fn(i / 3.0, j / 3.0)[coord]
            grids.append(g)
        return BezierPatch(*grids)

    a = patch_from(lambda u, v: (0.5 * u, v, blend(0.5 * u, v)))
    b = patch_from(lambda u, v: (0.5 + 0.5 * u, v, blend(0.5 + 0.5 * u, v)))
    return a, b


def test_continuity_of_split_bilinear_surface(rng):
    a, b = _bilinear_surface_halves(rng.uniform(-3, 3, 4))
    rep = continuity_report(a, EdgeId(EdgeSide.U1), b, EdgeId(EdgeSide.U0), 16)
    assert rep.c0_max_gap <= 1e-12
    assert rep.c1_max_mismatch <= 1e-11
    assert rep.g1_max_angle <= 1e-9


def test_continuity_detects_offset(rng):
    patch = random_patch(rng)
    offset = 0.75
    shifted = BezierPatch(patch.x, patch.y, patch.z + offset)
    rep = continuity_report(
        patch, EdgeId(EdgeSide.V0), shifted, EdgeId(EdgeSide.V0), 8
    )
    assert rep.c0_max_gap == pytest.approx(offset, abs=1e-12)


def test_continuity_random_pair_sharing_corners_only(rng):
    a = random_patch(rng)
    grids = [np.array(g) for g in (a.x, a.y, a.z)]
    replacement = [np.array(g) for g in random_patch(rng).grids]
    for axis in range(3):
        replacement[axis][0, 0] = grids[axis][3, 0]
        replacement[axis][0, 3] = grids[axis][3, 3]
    b = BezierPatch(*replacement)
    rep = continuity_report(a, EdgeId(EdgeSide.U1), b, EdgeId(EdgeSide.U0), 8)
    assert rep.c0_max_gap > 1e-3


def test_continuity_reversed_orientation(rng):
    a, b = shared_edge_pair(rng)
    flipped = BezierPatch(*(g[:, ::-1] for g in b.grids))  # reverse the v direction
    rep = continuity_report(
        a, EdgeId(EdgeSide.U1), flipped, EdgeId(EdgeSide.U0, reversed=True), 12
    )
    assert rep.c0_max_gap <= 1e-12


# ---------------------------------------------------------------------------
# adjacency detection


def test_detect_adjacency_forward(rng):
    a, b = shared_edge_pair(rng)
    records = detect_adjacency([a, b])
    assert len(records) == 1
    rec = records[0]
    assert (rec.a, rec.b) == (0, 1)
    assert rec.edge_a == EdgeId(EdgeSide.U1)
    assert rec.edge_b == EdgeId(EdgeSide.U0)


def test_detect_adjacency_reversed(rng):
    a, b = shared_edge_pair(rng)
    flipped = BezierPatch(*(g[:, ::-1] for g in b.grids))
    records = detect_adjacency([a, flipped])
    assert len(records) == 1
    assert records[0].edge_b.reversed


def test_detect_adjacency_skips_collapsed_edges():
    g = np.zeros((4, 4))
    patch = BezierPatch(g, g, g)  # all edges collapsed to the origin
    assert detect_adjacency([patch, patch]) == []


def test_edge_control_points_orientation(rng):
    patch = random_patch(rng)
    q = edge_points(patch.as_array, EdgeSide.V0)
    expect = np.stack([g[:, 0] for g in patch.grids], axis=1)
    assert np.array_equal(q, expect)
    q = edge_points(patch.as_array, EdgeSide.U1)
    expect = np.stack([g[3, :] for g in patch.grids], axis=1)
    assert np.array_equal(q, expect)


def test_merge_meshes_counts_and_offsets(rng):
    m1 = tessellate(random_patch(rng), 2)
    m2 = tessellate(random_patch(rng), 3)
    merged = merge_meshes([m1, m2])
    assert len(merged.vertices) == len(m1.vertices) + len(m2.vertices)
    assert len(merged.triangles) == len(m1.triangles) + len(m2.triangles)
    assert merged.triangles.min() >= 0
    assert merged.triangles[len(m1.triangles):].min() == len(m1.vertices)


# ---------------------------------------------------------------------------
# array forms against the loop oracles in helpers


# where each side's control points sit in a (3, 4, 4) grid stack: (3, 4) xyz-by-point
SIDE_INDEX = {
    EdgeSide.U0: (slice(None), 0, slice(None)),
    EdgeSide.U1: (slice(None), 3, slice(None)),
    EdgeSide.V0: (slice(None), slice(None), 0),
    EdgeSide.V1: (slice(None), slice(None), 3),
}


def _collapsed_edge_patch(rng, side: EdgeSide) -> BezierPatch:
    """Random patch whose ``side`` edge is squeezed to one point, like a pole."""
    grids = rng.uniform(-10.0, 10.0, (3, 4, 4))
    grids[SIDE_INDEX[side]] = grids[SIDE_INDEX[side]][:, :1]
    return BezierPatch(*grids)


@pytest.mark.parametrize("pattern", list(TessPattern))
def test_triangles_match_cell_loop(pattern):
    for n in range(1, 10):
        mesh = tessellate(identity_plane_patch(), n, pattern)
        assert np.array_equal(mesh.triangles, loop_triangles(n, pattern))


@pytest.mark.parametrize("pattern", list(TessPattern))
def test_tessellate_set_is_each_patch_tessellated_and_merged(pattern, rng, teapot_path):
    patches = [random_patch(rng) for _ in range(6)]
    patches += [_collapsed_edge_patch(rng, side) for side in EdgeSide]
    patches += read_newell(teapot_path).patches  # includes the lid and bottom poles
    for n in range(1, 10):
        samples = [sample_grid(p, n).reshape(-1, 3) for p in patches]
        tris = loop_triangles(n, pattern)
        normals = [per_patch_normals(p, n, v, tris) for p, v in zip(patches, samples)]
        for with_normals in (False, True):
            mesh = tessellate_set(patches, n, pattern, with_normals)
            oracle = merge_meshes([tessellate(p, n, pattern, with_normals) for p in patches])
            assert np.array_equal(mesh.vertices, oracle.vertices)
            assert np.array_equal(mesh.vertices, np.concatenate(samples))
            assert np.array_equal(mesh.triangles, oracle.triangles)
            if with_normals:
                assert np.array_equal(mesh.normals, oracle.normals)
                assert np.array_equal(mesh.normals, np.concatenate(normals))
            else:
                assert mesh.normals is None


def test_tessellate_set_of_no_patches():
    mesh = tessellate_set([], 3, with_normals=True)
    assert mesh.vertices.shape == (0, 3) and mesh.triangles.shape == (0, 3)
    assert mesh.normals.shape == (0, 3)
    with pytest.raises(ValueError, match="n must be >= 1"):
        tessellate_set([], 0)


@pytest.mark.parametrize("pattern", list(TessPattern))
def test_vertex_normals_match_per_sample_loop(pattern, rng, teapot_path):
    patches = [random_patch(rng) for _ in range(10)]
    patches += [_collapsed_edge_patch(rng, side) for side in EdgeSide]
    patches += read_newell(teapot_path).patches  # includes the lid and bottom poles
    fallbacks = 0
    for patch in patches:
        for n in (1, 3, 8):
            mesh = tessellate(patch, n, pattern, with_normals=True)
            oracle = loop_vertex_normals(patch, n, mesh.vertices, mesh.triangles)
            assert np.max(np.abs(mesh.normals - oracle)) <= 1e-13
            ts = np.linspace(0.0, 1.0, n + 1)
            fallbacks += sum(scalar_surface_normal(patch, u, v) is None for u in ts for v in ts)
    assert fallbacks > 0


def test_surface_normal_matches_scalar_oracle(rng):
    for patch in [random_patch(rng) for _ in range(20)] + [
        _collapsed_edge_patch(rng, side) for side in EdgeSide
    ]:
        params = [(0.0, 0.0), (0.0, 0.5), (1.0, 0.3), (0.4, 1.0)] + list(rng.uniform(0, 1, (5, 2)))
        for u, v in params:
            got, want = surface_normal(patch, u, v), scalar_surface_normal(patch, u, v)
            assert (got is None) == (want is None)
            if want is not None:
                assert np.max(np.abs(got - want)) <= 1e-13


# The teapot patches with a pole (a collapsed edge): the lid's top and the bottom.
TEAPOT_POLES = (20, 21, 22, 23, 28, 29, 30, 31)


def _vectors(rng, shape):
    """Random 3-vectors over 150 decades (so no squared length of a cross
    product overflows), with zeros of both signs among them."""
    v = rng.normal(size=shape) * 10.0 ** rng.integers(-75, 75, shape)
    v[rng.random(shape) < 0.1] = 0.0
    v[rng.random(shape) < 0.05] = -0.0
    return v


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from([(3,), (1, 3), (9, 3), (4, 5, 3), (2, 1, 3, 3)]))
def test_cross_and_norm_kernels_are_numpys_bit_for_bit(seed, shape):
    rng = np.random.default_rng(seed)
    a, b = _vectors(rng, shape), _vectors(rng, shape)
    if len(shape) > 1:
        b[..., :1, :] = 2.0 * a[..., :1, :]  # parallel: every component a difference of equals
    assert _cross(a, b).tobytes() == np.cross(a, b).tobytes()
    for v in (a, b, _cross(a, b)):
        length = _norm(v)
        assert np.shape(length) == shape[:-1]  # a scalar for one vector, as numpy's
        assert length.tobytes() == np.linalg.norm(v, axis=-1).tobytes()


def test_surface_normal_is_the_numpy_form_bit_for_bit(rng, teapot_path):
    # one (3,) sample: the kernels' 1-D case, whose squared length is a scalar
    patches = [random_patch(rng) for _ in range(10)]
    patches += [_collapsed_edge_patch(rng, side) for side in EdgeSide]
    patches += read_newell(teapot_path).patches
    params = list(itertools.product((0.0, 0.5, 1.0), repeat=2)) + list(rng.uniform(0, 1, (4, 2)))
    degenerate = 0
    for patch in patches:
        for u, v in params:
            _, du, dv = eval_patch_partials(patch, u, v)
            want, ok = numpy_unit_normals(du, dv)
            got = surface_normal(patch, u, v)
            assert (got is None) == (not ok)
            degenerate += got is None
            if ok:
                assert got.tobytes() == want.tobytes()
    assert degenerate > 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 16),
       pattern=st.sampled_from(list(TessPattern)))
def test_set_normals_are_the_numpy_form_bit_for_bit(teapot_path, seed, n, pattern):
    # random, collapsed-edge and teapot patches (a pole among them), so the
    # face-average fallback runs in every draw
    rng = np.random.default_rng(seed)
    teapot = read_newell(teapot_path).patches
    patches = [random_patch(rng) for _ in range(rng.integers(0, 3))]
    patches += [_collapsed_edge_patch(rng, side) for side in rng.permutation(list(EdgeSide))[:2]]
    patches += [teapot[k] for k in rng.choice(len(teapot), 3, replace=False)]
    patches.append(teapot[rng.choice(TEAPOT_POLES)])
    patches = [patches[k] for k in rng.permutation(len(patches))]
    mesh = tessellate_set(patches, n, pattern, with_normals=True)
    per_patch = (n + 1) ** 2
    tris = loop_triangles(n, pattern)
    oracle = [per_patch_normals(p, n, mesh.vertices[k * per_patch : (k + 1) * per_patch], tris)
              for k, p in enumerate(patches)]
    assert mesh.normals.tobytes() == np.concatenate(oracle).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 16),
    picks=st.lists(
        st.tuples(
            st.integers(0, 6), st.sampled_from(list(EdgeSide)), st.booleans(),
            st.integers(0, 6), st.sampled_from(list(EdgeSide)), st.booleans(),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_continuity_measures_are_the_four_call_form_bit_for_bit(teapot_path, seed, n, picks):
    rng = np.random.default_rng(seed)
    teapot = read_newell(teapot_path).patches
    patches = [random_patch(rng), random_patch(rng)]
    patches += [_collapsed_edge_patch(rng, side) for side in rng.permutation(list(EdgeSide))[:2]]
    patches += [teapot[k] for k in rng.choice(len(teapot), 2, replace=False)]
    patches.append(teapot[rng.choice(TEAPOT_POLES)])
    records = np.array([[(a, _SIDE_CODE[sa], ra), (b, _SIDE_CODE[sb], rb)]
                        for a, sa, ra, b, sb, rb in picks])
    for recs in (records, records[:, ::-1]):  # and each record's two edges swapped
        want = four_call_continuity(patches, recs, n)
        assert continuity_measures(patches, recs, n).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(2, 17))
def test_teapot_continuity_is_the_four_call_form_bit_for_bit(teapot_path, n):
    teapot = read_newell(teapot_path).points
    records = _adjacency(teapot)
    assert len(records) == 52 and records[..., 2].any()  # reversed edges among them
    for recs in (records, records[:, ::-1]):
        want = four_call_continuity(teapot, recs, n)
        assert continuity_measures(teapot, recs, n).tobytes() == want.tobytes()


def _random_edge_pair(rng):
    a, b = random_patch(rng), random_patch(rng)
    if rng.random() < 0.3:
        b = _collapsed_edge_patch(rng, EdgeSide(rng.choice([s.value for s in EdgeSide])))
    sides = list(EdgeSide)
    edge_a = EdgeId(sides[rng.integers(4)], bool(rng.integers(2)))
    edge_b = EdgeId(sides[rng.integers(4)], bool(rng.integers(2)))
    return a, edge_a, b, edge_b


def test_continuity_matches_per_sample_loop(rng, teapot_path):
    cases = [_random_edge_pair(rng) for _ in range(100)]
    patches = read_newell(teapot_path).patches
    cases += [(patches[r.a], r.edge_a, patches[r.b], r.edge_b) for r in detect_adjacency(patches)]
    for a, edge_a, b, edge_b in cases:
        scale = max(1.0, float(np.max(np.abs(a.as_array))), float(np.max(np.abs(b.as_array))))
        for n in (2, 7, 16):
            rep = continuity_report(a, edge_a, b, edge_b, n)
            c0, c1, g1 = loop_continuity(a, edge_a, b, edge_b, n)
            assert abs(rep.c0_max_gap - c0) <= 1e-13 * scale
            assert abs(rep.c1_max_mismatch - c1) <= 1e-13 * scale
            assert abs(rep.g1_max_angle - g1) <= 1e-13


@pytest.mark.parametrize("side_a", list(EdgeSide))
@pytest.mark.parametrize("side_b", list(EdgeSide))
def test_c0_is_exactly_zero_on_bit_identical_edges(side_a, side_b, rng):
    a = random_patch(rng)
    q = edge_points(a.as_array, side_a)
    for flip in (False, True):
        grids = rng.uniform(-10.0, 10.0, (3, 4, 4))
        grids[SIDE_INDEX[side_b]] = (q[::-1] if flip else q).T
        b = BezierPatch(*grids)
        edge_a, edge_b = EdgeId(side_a), EdgeId(side_b, reversed=flip)
        for n in (2, 16, 33):
            assert continuity_report(a, edge_a, b, edge_b, n).c0_max_gap == 0.0
            assert continuity_report(b, edge_b, a, edge_a, n).c0_max_gap == 0.0


def _assert_reports_match(patches, records, n):
    """continuity_measures against the per-sample loop and the one-record form."""
    measures = continuity_measures(patches, records, n)
    assert measures.shape == (len(records), 3)
    for rec, row in zip(records, measures):
        a, b = patches[rec.a], patches[rec.b]
        scale = max(1.0, float(np.max(np.abs(a.as_array))), float(np.max(np.abs(b.as_array))))
        one = continuity_report(a, rec.edge_a, b, rec.edge_b, n)
        for want in (loop_continuity(a, rec.edge_a, b, rec.edge_b, n), tuple(one)[:3]):
            assert abs(row[0] - want[0]) <= 1e-13 * scale
            assert abs(row[1] - want[1]) <= 1e-13 * scale
            assert abs(row[2] - want[2]) <= 1e-13
        assert one.samples == n + 1
    return measures


@pytest.mark.parametrize("side, member", [
    (EdgeSide.U1, EdgeSide.U1), ("U1", EdgeSide.U1), ("V0", EdgeSide.V0), ("u1", None), (1, None),
])
def test_an_edge_side_is_read_as_a_member_or_its_value(teapot_path, side, member):
    a, b = read_newell(teapot_path).patches[:2]
    if member is None:
        with pytest.raises(ValueError, match="is not a valid EdgeSide"):
            continuity_report(a, EdgeId(side), b, EdgeId(side, True), 16)
    else:
        report = continuity_report(a, EdgeId(side), b, EdgeId(side, True), 16)
        assert report == continuity_report(a, EdgeId(member), b, EdgeId(member, True), 16)


def _twin_on(rng, patch, side_a, side_b, flip) -> BezierPatch:
    """Random patch whose ``side_b`` carries ``patch``'s ``side_a`` control points bit for bit."""
    q = edge_points(patch.as_array, side_a)
    grids = rng.uniform(-10.0, 10.0, (3, 4, 4))
    grids[SIDE_INDEX[side_b]] = (q[::-1] if flip else q).T
    return BezierPatch(*grids)


def test_continuity_reports_cover_every_side_pair_and_orientation(rng, teapot_path):
    teapot = read_newell(teapot_path).patches
    patches = [random_patch(rng), teapot[0], _collapsed_edge_patch(rng, EdgeSide.U0), teapot[28]]
    records = [
        Adjacency(k % 4, EdgeId(sa, ra), (k + 1 + k // 16) % 4, EdgeId(sb, rb))
        for k, (sa, sb, ra, rb) in enumerate(
            itertools.product(EdgeSide, EdgeSide, (False, True), (False, True))
        )
    ]
    # the same patch on two different sides
    records += [
        Adjacency(k, EdgeId(sa, r), k, EdgeId(sb, not r))
        for k in range(4)
        for sa, sb in itertools.permutations(EdgeSide, 2)
        for r in (False, True)
    ]
    assert {(r.edge_a, r.edge_b) for r in records[:64]} == {
        (EdgeId(sa, ra), EdgeId(sb, rb))
        for sa, sb, ra, rb in itertools.product(EdgeSide, EdgeSide, (False, True), (False, True))
    }
    for n in range(2, 10):
        _assert_reports_match(patches, records, n)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 9),
    picks=st.lists(
        st.tuples(
            st.integers(0, 6), st.sampled_from(list(EdgeSide)), st.booleans(),
            st.integers(0, 6), st.sampled_from(list(EdgeSide)), st.booleans(),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_continuity_reports_match_loop_on_drawn_records(teapot_path, seed, n, picks):
    rng = np.random.default_rng(seed)
    teapot = read_newell(teapot_path).patches
    patches = [random_patch(rng), random_patch(rng)]
    patches += [_collapsed_edge_patch(rng, side) for side in rng.permutation(list(EdgeSide))[:2]]
    patches += [teapot[k] for k in rng.choice(len(teapot), 3, replace=False)]
    records = [Adjacency(a, EdgeId(sa, ra), b, EdgeId(sb, rb)) for a, sa, ra, b, sb, rb in picks]
    # bit-identical edges, in both argument orders, among the drawn records
    a, sa, ra, _, sb, rb = picks[0]
    patches.append(_twin_on(rng, patches[a], sa, sb, ra != rb))
    twin = len(patches) - 1
    records += [Adjacency(a, EdgeId(sa, ra), twin, EdgeId(sb, rb)),
                Adjacency(twin, EdgeId(sb, rb), a, EdgeId(sa, ra))]
    measures = _assert_reports_match(patches, records, n)
    assert measures[-2, 0] == 0.0
    assert measures[-1, 0] == 0.0


def test_continuity_reports_of_no_records_and_too_few_samples(rng):
    patch = random_patch(rng)
    assert continuity_measures([patch], [], 4).shape == (0, 3)
    record = Adjacency(0, EdgeId(EdgeSide.U0), 0, EdgeId(EdgeSide.U1))
    for n in (1, 0, -2):
        with pytest.raises(ValueError, match="n must be >= 2"):
            continuity_measures([patch], [record], n)


def test_edge_incidence_matches_triangle_loop(rng, teapot_path):
    meshes = [tessellate(random_patch(rng), 5, pattern) for pattern in TessPattern]
    meshes.append(merge_meshes([tessellate(p, 4) for p in read_newell(teapot_path).patches]))
    for mesh in meshes:
        assert edge_incidence(mesh) == loop_edge_incidence(mesh)


def test_adjacency_matches_pairwise_on_teapot_and_its_split(teapot_path):
    patches = read_newell(teapot_path).patches
    records = detect_adjacency(patches)
    assert len(records) == 52
    assert records == pairwise_adjacency(patches)
    split = [child for p in patches for child in split_patch(p)]
    records = detect_adjacency(split)
    assert len(records) == 232  # twice the parents' pairs plus four inside each parent
    assert records == pairwise_adjacency(split)


def _edge_set(seed: int, tol: float) -> list:
    """Random patches whose edges are copies of one another, some flipped,
    some moved by about tol*scale per coordinate, some collapsed."""
    rng = np.random.default_rng(seed)
    grids = rng.uniform(-10.0, 10.0, (int(rng.integers(2, 8)), 3, 4, 4))
    h = tol * float(np.max(np.abs(grids)))
    slots = [(p, side) for p in range(len(grids)) for side in EdgeSide]
    for _ in range(int(rng.integers(1, 2 * len(grids)))):
        (pa, sa), (pb, sb) = (slots[k] for k in rng.choice(len(slots), 2, replace=False))
        q = grids[pa][SIDE_INDEX[sa]].copy()
        if rng.random() < 0.5:
            q = q[:, ::-1]
        moved = rng.random(q.shape) < 0.3
        factor = rng.choice([0.0, 0.5, 0.999999, 1.0, 1.000001, 2.0])
        q += moved * rng.choice([-1.0, 1.0], q.shape) * factor * h
        if tol == 0.0 and factor > 1.0:
            q = np.where(moved, np.nextafter(q, np.inf), q)
        grids[pb][SIDE_INDEX[sb]] = q
    if rng.random() < 0.3:
        p, side = slots[int(rng.integers(len(slots)))]
        grids[p][SIDE_INDEX[side]] = grids[p][SIDE_INDEX[side]][:, :1]
    return [BezierPatch(*g) for g in grids]


@given(seed=st.integers(0, 2**32 - 1), tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]))
@settings(max_examples=80, deadline=None)
def test_adjacency_matches_pairwise_on_random_edge_sets(seed, tol):
    patches = _edge_set(seed, tol)
    assert detect_adjacency(patches, tol) == pairwise_adjacency(patches, tol)


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3])
@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("factor, shared", [(0.999, True), (1.001, False)])
def test_adjacency_offsets_across_a_cell_boundary(rng, tol, flip, factor, shared):
    # a's U1 edge starts at the origin, so moving b's copy by -factor*h in
    # every coordinate puts the two endpoints on either side of the cell
    # boundary at 0 whatever the cell width
    ga = rng.uniform(-5.0, 5.0, (3, 4, 4))
    ga -= ga[:, 3:4, 0:1]
    ga[0, 1, 1] = 10.0  # fixes scale, so h = tol * 10
    gb = rng.uniform(-5.0, 5.0, (3, 4, 4))
    edge = ga[SIDE_INDEX[EdgeSide.U1]] - factor * tol * 10.0
    if flip:
        gb[SIDE_INDEX[EdgeSide.V0]] = edge[:, ::-1]
    else:
        gb[SIDE_INDEX[EdgeSide.U0]] = edge
    patches = [BezierPatch(*ga), BezierPatch(*gb)]
    records = detect_adjacency(patches, tol)
    assert records == pairwise_adjacency(patches, tol)
    side_b = EdgeId(EdgeSide.V0, reversed=True) if flip else EdgeId(EdgeSide.U0)
    expected = [Adjacency(a=0, edge_a=EdgeId(EdgeSide.U1), b=1, edge_b=side_b)]
    assert records == (expected if shared else [])


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no division by a zero-width cell
def test_adjacency_at_zero_tolerance(rng):
    a, b = shared_edge_pair(rng)
    flipped = BezierPatch(*(g[:, ::-1] for g in b.grids))
    nudged = BezierPatch(b.x, b.y, np.where(np.arange(4) == 0, np.nextafter(b.z, np.inf), b.z))
    for patches, count in (([a, b], 1), ([a, flipped], 1), ([a, nudged], 0)):
        records = detect_adjacency(patches, tol=0.0)
        assert len(records) == count
        assert records == pairwise_adjacency(patches, tol=0.0)


@given(
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]),
    exponent=st.integers(-300, 300),
)
@settings(max_examples=80, deadline=None)
def test_adjacency_matches_pairwise_at_any_scale(seed, tol, exponent):
    scale = 10.0 ** exponent
    patches = [BezierPatch(*(g * scale for g in p.grids)) for p in _edge_set(seed, tol)]
    assert detect_adjacency(patches, tol) == pairwise_adjacency(patches, tol)


@given(
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from([1e-9, 1e-6, 1e-3]),
    flip=st.booleans(),
    offset=st.sampled_from([(0.999, True), (1.001, False)]),
    exponent=st.integers(-300, 300),
)
@settings(max_examples=80, deadline=None)
def test_adjacency_offsets_across_a_cell_boundary_at_any_scale(seed, tol, flip, offset, exponent):
    # the layout of test_adjacency_offsets_across_a_cell_boundary, scaled by 10^exponent
    rng = np.random.default_rng(seed)
    factor, shared = offset
    size = 10.0 ** exponent
    ga = rng.uniform(-5.0, 5.0, (3, 4, 4)) * size
    ga -= ga[:, 3:4, 0:1]
    ga[0, 1, 1] = 10.0 * size
    gb = rng.uniform(-5.0, 5.0, (3, 4, 4)) * size
    edge = ga[SIDE_INDEX[EdgeSide.U1]] - factor * tol * 10.0 * size
    if flip:
        gb[SIDE_INDEX[EdgeSide.V0]] = edge[:, ::-1]
    else:
        gb[SIDE_INDEX[EdgeSide.U0]] = edge
    patches = [BezierPatch(*ga), BezierPatch(*gb)]
    records = detect_adjacency(patches, tol)
    assert records == pairwise_adjacency(patches, tol)
    if 10.0 * size >= 1.0:  # below that the set's scale is 1, not 10 * size
        assert len(records) == shared


@functools.cache
def _split_teapot(teapot_path) -> np.ndarray:
    patches = [q for p in read_newell(teapot_path).patches for q in split_patch(p)]
    return np.stack([p.as_array for p in patches])


@given(
    seed=st.integers(0, 2**32 - 1),
    base=st.sampled_from(["split", "hf2", "hf5"]),
    tol=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]),
    moves=st.integers(1, 40),
)
@settings(max_examples=60, deadline=None)
def test_adjacency_matches_the_key_codes_join_on_moved_shared_edges(
    teapot_path, seed, base, tol, moves
):
    # Boundary control points of a teapot split or a height field (whose
    # shared edges are bit-identical) moved by 0 to 2 tol*scale in one
    # coordinate, or put on either side of a cell border of detect_adjacency.
    rng = np.random.default_rng(seed)
    if base == "split":
        arr = _split_teapot(teapot_path).copy()
    else:
        k = int(base[2:])
        heights = rng.uniform(-1.0, 1.0, (3 * k + 1, 3 * k + 1))
        arr = np.stack([p.as_array for p in height_field_patches(heights)])
    h = tol * max(1.0, float(np.max(np.abs(arr))))
    cell = h + 1e-12 * max(1.0, float(np.max(np.abs(arr))))
    boundary = [(i, j) for i in range(4) for j in range(4) if i in (0, 3) or j in (0, 3)]
    for _ in range(moves):
        p, axis = rng.integers(len(arr)), rng.integers(3)
        i, j = boundary[rng.integers(len(boundary))]
        value = arr[p, axis, i, j]
        if rng.random() < 0.5:
            arr[p, axis, i, j] = value + rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 2.0) * h
        else:  # just below or above the nearest cell border
            arr[p, axis, i, j] = np.round(value / cell) * cell + rng.choice([-1, 1]) * h / 4
    patches = [BezierPatch(*g) for g in arr]
    records = detect_adjacency(patches, tol)
    assert records == key_codes_adjacency(patches, tol)


def test_neighbour_codes_are_exact_where_a_naive_code_would_overflow(rng):
    big = 2**62
    pool = np.array([-big - 1, -big, -big + 1, -(2**40), -1, 0, 1, 2**40, 2**40 + 1,
                     big - 1, big, big + 1])
    # keys from a pool of neighbouring values (many hits), and keys with
    # 200 distinct values per axis, whose rank product 200^3 exceeds 200^2
    for table in (pool[rng.integers(0, len(pool), (200, 3))], rng.integers(-big, big, (200, 3))):
        starts = np.concatenate([table[:40], pool[rng.integers(0, len(pool), (40, 3))]])
        span = int(table.max()) - int(table.min()) + 1
        assert span**3 > 2**63  # x*R^2 + y*R + z would not fit in int64
        table_codes, codes = _key_codes(table, starts)
        assert np.array_equal(_key_codes(table), table_codes)  # the same without starts
        assert table_codes.dtype == codes.dtype == np.int64
        assert codes.shape == (len(starts), 27)
        neighbours = (starts[:, None] + _NEIGHBOUR_OFFSETS).reshape(-1, 3)
        same = (neighbours[:, None, :] == table[None, :, :]).all(axis=2)
        assert np.array_equal(codes.reshape(-1)[:, None] == table_codes[None, :], same)
        assert not same[codes.reshape(-1) == -1].any()  # a miss is no table row
        assert np.array_equal(table_codes[:, None] == table_codes[None, :],
                              (table[:, None, :] == table[None, :, :]).all(axis=2))
        assert 0 <= table_codes.min() and max(table_codes.max(), codes.max()) < len(table) ** 2
        assert same.any(axis=1).sum() >= len(starts) // 2  # the starts' own rows at least


def test_key_codes_are_exact_where_a_naive_code_would_overflow(rng):
    big = 2**62
    keys = np.array(
        [[0, 0, 0], [2**40, 0, 0], [0, 2**40, 0], [big, -big, big], [big, -big, big - 1],
         [-big, big, -big], [big, -big, big], [0, 0, 1], [1, 0, 0], [0, 0, 0]],
        dtype=np.int64,
    )
    pool = np.array([-big, -(2**40), -1, 0, 1, 2**40, big])
    keys = np.concatenate([keys, pool[rng.integers(0, len(pool), (300, 3))]])
    span = int(keys.max()) - int(keys.min()) + 1
    assert span**3 > 2**63  # x*R^2 + y*R + z would not fit in int64
    codes = _key_codes(keys)
    assert codes.dtype == np.int64
    same_rows = (keys[:, None, :] == keys[None, :, :]).all(axis=2)
    assert np.array_equal(codes[:, None] == codes[None, :], same_rows)
    assert 0 <= codes.min() and codes.max() < len(keys) ** 2


def test_key_codes_rank_float_rows_as_unique_rows_do(rng):
    # repair names each shared control point by these ranks; 0.0 and -0.0
    # are one point, as they are for np.unique
    rows = np.array([[0.0, 1.0, -0.0], [-0.0, 1.0, 0.0], [2.0, -1.0, 3.0], [0.0, 1.0, 0.0],
                     [-1.5, 0.0, 2.0], [2.0, -1.0, 3.0], [0.0, -0.0, -0.0], [-1.5, -0.0, 2.0]])
    pool = np.array([-0.0, 0.0, -1.5, 1e-300, 2.0, 3.0])
    for keys in (rows, pool[rng.integers(0, len(pool), (500, 3))]):
        ids = np.unique(_key_codes(keys), return_inverse=True)[1]
        assert np.array_equal(ids, np.unique(keys, axis=0, return_inverse=True)[1])
    ids = np.unique(_key_codes(rows), return_inverse=True)[1]
    assert ids[0] == ids[1] == ids[3] and ids[2] == ids[5] and ids[4] == ids[7]
    assert len(set(ids.tolist())) == 4
