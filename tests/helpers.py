"""Shared construction helpers for the test suite."""

import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from smartpatch import BezierPatch, TessPattern, build_lambda, bs_solve
from smartpatch import constraints
from smartpatch.constraints import (
    NONCORNER_INDICES,
    DiagonalKind,
    RepairResult,
    repair_patches,
)
from smartpatch.io import PatchFormatError, PatchSet, read_newell
from smartpatch.patches import (
    _BB_ROWS,
    _SIDE_SLOTS,
    _T_ROWS,
    _check_param,
    _conversion_matrices,
    _key_codes,
    _patch_array,
    as_grid,
    bernstein_dweights_many,
    bernstein_weights,
    bernstein_weights_many,
    eval_patch_partials,
)
from smartpatch.tessellation import (
    _NEIGHBOUR_OFFSETS,
    _SIDE_CODE,
    Adjacency,
    EdgeId,
    EdgeSide,
    _record_array,
)

CORNER_SLOTS = ((0, 0), (0, 3), (3, 0), (3, 3))
NONCORNER_SLOTS = tuple(
    (i, j) for i in range(4) for j in range(4) if (i, j) not in CORNER_SLOTS
)


def grid_scale(g) -> float:
    """Relative-residual scale for a grid, the tests' tolerance unit: max(1, max |value|)."""
    return max(1.0, float(np.max(np.abs(np.asarray(g, dtype=float)))))


def bilinear_grid(c00, c01, c10, c11) -> np.ndarray:
    """Control grid exactly representing the bilinear blend of four corners.

    A degree-(1,1) function written as a bicubic patch has control values
    equal to the function at the Greville points (i/3, j/3).
    """
    g = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            u, v = i / 3.0, j / 3.0
            g[i, j] = (
                c00 * (1 - u) * (1 - v)
                + c01 * (1 - u) * v
                + c10 * u * (1 - v)
                + c11 * u * v
            )
    return g


def identity_plane_patch() -> BezierPatch:
    """The patch (u, v) -> (u, v, 0)."""
    gu = np.array([[i / 3.0] * 4 for i in range(4)])
    return BezierPatch(gu, gu.T, np.zeros((4, 4)))


def random_patch(rng, lo=-10.0, hi=10.0) -> BezierPatch:
    return BezierPatch(*rng.uniform(lo, hi, (3, 4, 4)))


def random_compliant_grid(rng, lo=-10.0, hi=10.0) -> np.ndarray:
    return bs_solve(rng.uniform(lo, hi, 4), rng.uniform(lo, hi, 7))


def random_compliant_patch(rng, lo=-10.0, hi=10.0) -> BezierPatch:
    return BezierPatch(*(random_compliant_grid(rng, lo, hi) for _ in range(3)))


def convert_per_grid(grids, direction: str) -> np.ndarray:
    """The (3, 4, 4) conversion of three grids, each converted on its own
    as m^T g m and copied and checked by ``as_grid``."""
    c, d = _conversion_matrices()
    m = d if direction == "b2h" else c
    return np.array([as_grid(m.T @ g @ m) for g in grids])


def project_per_grid(g) -> np.ndarray:
    """``bs_project`` as first written: the non-corner slots of the flat
    grid less gain . reduced . flat, copied and checked by ``as_grid``.  The
    grid is read as a C-contiguous copy: a product's last bits may depend on
    the memory layout it reads, and the operator's do not."""
    s = build_lambda()
    flat = np.ascontiguousarray(g, dtype=float).reshape(-1)
    out = flat.copy()
    out[list(NONCORNER_INDICES)] -= s.gain_f @ (s.reduced_f @ flat)
    return as_grid(out.reshape(4, 4))


def residuals_per_grid(g, tol: float = constraints.DEFAULT_TOL):
    """``bs_residuals`` as written before its one-grid path: the row of the
    set-wide coefficients and scale of a C-contiguous copy of the grid, as
    ``project_per_grid`` reads it, records built by their constructors."""
    flat = np.ascontiguousarray(g, dtype=float).reshape(-1)
    coeffs, scale = constraints._diagonal_coefficients(flat)
    values, scale = coeffs.tolist(), float(scale)
    rel = [abs(v) / scale for v in values]
    worst = max(rel) if all(r == r for r in rel) else math.nan
    return constraints.ConstraintReport(
        {DiagonalKind.MAIN: constraints.DiagonalResiduals(*values[:3], tuple(rel[:3])),
         DiagonalKind.ANTI: constraints.DiagonalResiduals(*values[3:], tuple(rel[3:]))},
        worst, worst <= tol, tol,
    )


def inner_identity_per_grid(g) -> float:
    """``bs_inner_identity`` of the 2-D grid, by index."""
    g = np.asarray(g, dtype=float)
    inner = g[1, 1] - g[1, 2] - g[2, 1] + g[2, 2]
    return float(inner - (g[0, 0] - g[0, 3] - g[3, 0] + g[3, 3]) / 9.0)


def _finite_array(a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
        raise ValueError("grid contains non-finite values")
    return a


def patch_array_per_grid(x, y, z) -> np.ndarray:
    """The (3, 4, 4) array a patch made from three 4x4 grids holds: one
    float copy of the three, every entry checked finite."""
    a = np.array((x, y, z), dtype=float)
    assert a.shape == (3, 4, 4)
    return _finite_array(a)


def convert_patch_array(arr, direction: str) -> np.ndarray:
    """A patch's (3, 4, 4) array converted b2h or h2b by one stacked
    congruence m^T X m, every entry checked finite."""
    c, d = _conversion_matrices()
    m = d if direction == "b2h" else c
    return _finite_array(m.T @ arr @ m)


def solve_per_grid(corners, free) -> np.ndarray:
    """``bs_solve`` as first written: solve_f . given, with the given values
    copied into their slots, copied and checked by ``as_grid``."""
    s = build_lambda()
    given = np.array([*corners, *free], dtype=float)
    flat = s.solve_f @ given
    flat[list(s.given_idx)] = given
    return as_grid(flat.reshape(4, 4))


def bezier_patches(points) -> list:
    """One BezierPatch per row of an (N, 3, 4, 4) array.

    The array is copied and checked once, as a patch checks its grids;
    each patch's grids and ``as_array`` are read-only views of that copy.
    """
    arr = _patch_array(np.array(points, dtype=float))
    arr.flags.writeable = False
    return [BezierPatch._of(row) for row in arr]


def reachable_arrays(a):
    """``a`` and every ndarray base it keeps alive."""
    while isinstance(a, np.ndarray):
        yield a
        a = a.base


def hs_phi(h_grid) -> float:
    """Corner combination h11 - h12 - h21 + h22 of a Hermite-layout grid."""
    h = np.asarray(h_grid, dtype=float)
    return float(h[0, 0] - h[0, 1] - h[1, 0] + h[1, 1])


def hs_twists(phi: float, alpha: float, beta: float):
    """Twist block (h33, h34, h43, h44) from phi and the two twist weights."""
    return (
        2.0 * phi * (1.0 - alpha),
        2.0 * phi * (1.0 - beta),
        2.0 * phi * beta,
        2.0 * phi * alpha,
    )


def hs_consistent_grid(rng, lo=-10.0, hi=10.0) -> np.ndarray:
    """Hermite-layout grid satisfying all twist and tangent conditions.

    Twists come from the (alpha, beta) parameterization; the tangent
    entries h14, h13 and h31 are then solved so the three tangent sums
    take the values tied to those weights.
    """
    h = rng.uniform(lo, hi, (4, 4))
    phi = h[0, 0] - h[0, 1] - h[1, 0] + h[1, 1]
    alpha, beta = rng.uniform(-2.0, 2.0, 2)
    h[2, 2], h[2, 3], h[3, 2], h[3, 3] = hs_twists(phi, alpha, beta)
    a_t = -phi - 2.0 * phi * alpha
    b_t = -phi - 2.0 * phi * beta
    c_t = -4.0 * phi - a_t - b_t
    h[0, 3] = a_t + h[1, 3] - h[3, 0] + h[3, 1]  # a = h14 - h24 + h41 - h42
    h[0, 2] = b_t + h[1, 2] - h[3, 0] + h[3, 1]  # b = h13 - h23 + h41 - h42
    h[2, 0] = c_t + h[2, 1] + h[3, 0] - h[3, 1]  # c = h31 - h32 - h41 + h42
    return h


def hs_alpha_beta(h_grid):
    """Twist weights (alpha, beta) of a Hermite-layout grid, or None where
    |phi| <= 1e-12 times the grid's scale and the weights are undetermined.

    a couples the v-tangents at (0,1)/(1,1) with the u-tangents at u=1, b
    does the same for the v-tangents at (0,0)/(1,0); a compliant grid has
    h44 = -(a + phi) and h43 = -(b + phi), with h44 = 2 phi alpha and
    h43 = 2 phi beta (see hs_twists).
    """
    h = np.asarray(h_grid, dtype=float)
    phi = hs_phi(h)
    if abs(phi) <= 1e-12 * grid_scale(h):
        return None
    a = float(h[0, 3] - h[1, 3] + h[3, 0] - h[3, 1])
    b = float(h[0, 2] - h[1, 2] + h[3, 0] - h[3, 1])
    return -(a + phi) / (2.0 * phi), -(b + phi) / (2.0 * phi)


def rank_deficient_patch(rng) -> BezierPatch:
    """A random patch whose eight non-corner boundary points equal its (0, 0) corner.

    Only the four inner points stay free, and four unknowns cannot meet the
    patch's five independent constraint rows.
    """
    g = random_patch(rng).as_array.copy()
    for i, j in [(0, 1), (0, 2), (1, 0), (2, 0), (1, 3), (2, 3), (3, 1), (3, 2)]:
        g[:, i, j] = g[:, 0, 0]
    return BezierPatch(*g)


def shared_edge_pair(rng) -> tuple:
    """Two random patches whose U1/U0 edges carry identical control points."""
    a = random_patch(rng)
    b_grids = []
    for ga in a.grids:
        gb = rng.uniform(-10.0, 10.0, (4, 4))
        gb[0, :] = ga[3, :]
        b_grids.append(gb)
    return a, BezierPatch(*b_grids)


def eval_curve(p, t: float, extrapolate: bool = False) -> float:
    """Evaluate a cubic Bezier curve with control values ``p`` at ``t``."""
    if not extrapolate:
        _check_param(t)
    p = np.asarray(p, dtype=float)
    if p.shape != (4,):
        raise ValueError("curve needs exactly 4 control values")
    return float(p @ bernstein_weights(t))


def nullspace(m) -> "list[tuple[Fraction, ...]]":
    """Basis vectors of the right nullspace of a RationalMatrix, one per free column."""
    red, _, pivots = m.rref()
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r, f]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# Exact-arithmetic oracles.  FractionMatrix is the Fraction-entry matrix the
# library used before RationalMatrix became integer-backed; tests compare
# RationalMatrix against it entry for entry.


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, (float, np.floating)):
        # binary floats convert exactly
        return Fraction(float(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


class FractionMatrix:
    """Immutable matrix stored as a tuple of row tuples of ``Fraction``."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows_of_entries):
        data = tuple(tuple(_frac(x) for x in row) for row in rows_of_entries)
        if not data or not data[0]:
            raise ValueError("matrix must be nonempty")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("inconsistent row width")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("FractionMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "FractionMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def __eq__(self, other):
        return isinstance(other, FractionMatrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __matmul__(self, other: "FractionMatrix") -> "FractionMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        cols = tuple(zip(*other.data))
        return FractionMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.data]
        )

    def __add__(self, other: "FractionMatrix") -> "FractionMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return FractionMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)]
        )

    def __neg__(self) -> "FractionMatrix":
        return FractionMatrix([[-x for x in row] for row in self.data])

    def transpose(self) -> "FractionMatrix":
        return FractionMatrix(list(zip(*self.data)))

    def hstack(self, other: "FractionMatrix") -> "FractionMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return FractionMatrix([r1 + r2 for r1, r2 in zip(self.data, other.data)])

    def take_cols(self, indices) -> "FractionMatrix":
        return FractionMatrix([[row[j] for j in indices] for row in self.data])

    def take_rows(self, indices) -> "FractionMatrix":
        return FractionMatrix([self.data[i] for i in indices])

    def to_float(self) -> np.ndarray:
        out = np.array([[float(x) for x in row] for row in self.data], dtype=float)
        out.flags.writeable = False
        return out

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def rref(self):
        """Reduced row-echelon form by Gauss-Jordan elimination on Fractions.

        The pivot in each column is the first row (top to bottom) with a
        nonzero entry.  Returns (rref, rank, pivot_cols).
        """
        m = [list(row) for row in self.data]
        nrows, ncols = self.rows, self.cols
        pivot_cols = []
        r = 0
        for c in range(ncols):
            if r == nrows:
                break
            pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            pv = m[r][c]
            m[r] = [x / pv for x in m[r]]
            for i in range(nrows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [x - f * y for x, y in zip(m[i], m[r])]
            pivot_cols.append(c)
            r += 1
        return FractionMatrix(m), len(pivot_cols), tuple(pivot_cols)

    def rank(self) -> int:
        return self.rref()[1]

    def inverse(self) -> "FractionMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse needs a square matrix")
        n = self.rows
        aug, _, pivots = self.hstack(FractionMatrix.identity(n)).rref()
        if pivots[:n] != tuple(range(n)) or len(pivots) != n:
            raise ValueError("matrix is singular")
        return aug.take_cols(range(n, 2 * n))


def diagonal_matrix(g, kind: DiagonalKind) -> np.ndarray:
    """Quadratic-form matrix R of the diagonal curve: x(u) = m(u)^T R m(u)
    with m(u) = (u^3, u^2, u, 1).

    R = Mb^T X Mb for the v=u diagonal; the v=1-u diagonal picks up the
    1-u substitution matrix T on the right.
    """
    mb = np.array(_BB_ROWS, dtype=float)
    r = mb.T @ np.asarray(g, dtype=float) @ mb
    return r @ np.array(_T_ROWS, dtype=float) if kind is DiagonalKind.ANTI else r


def collapse_by_traces(g, kind: DiagonalKind) -> np.ndarray:
    """The collapsed diagonal's seven coefficients, u^6 first, as the sums
    of R's anti-diagonals: the coefficient of u^(6-k) sums R[a, b] with
    a + b == k."""
    flipped = np.fliplr(diagonal_matrix(g, kind))
    return np.array([np.trace(flipped, offset=3 - k) for k in range(7)])


def omega_by_triple_products(kind: DiagonalKind) -> FractionMatrix:
    """The exact 16x16 map from grid values to R entries, both row-major,
    one basis grid at a time.

    Column 4i+j is vec(R(E_ij)) with R(E_ij) = Mb^T E_ij Mb (times T on the
    anti diagonal), computed as a product of Fraction matrices."""
    mb, t = FractionMatrix(_BB_ROWS), FractionMatrix(_T_ROWS)
    cols = []
    for i in range(4):
        for j in range(4):
            e = [[0] * 4 for _ in range(4)]
            e[i][j] = 1
            r = mb.transpose() @ FractionMatrix(e) @ mb
            if kind is DiagonalKind.ANTI:
                r = r @ t
            cols.append([r[a, b] for a in range(4) for b in range(4)])
    return FractionMatrix(list(zip(*cols)))


def de_casteljau(points, t: float):
    """Reference Bezier evaluator by repeated linear interpolation.

    An independent cross-check for the matrix-form evaluation; works for
    scalar or vector control points of any count.
    """
    pts = [np.asarray(p, dtype=float) for p in points]
    while len(pts) > 1:
        pts = [(1.0 - t) * a + t * b for a, b in zip(pts[:-1], pts[1:])]
    out = pts[0]
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Loop oracles for the array-form tessellation layer.  These are the
# per-sample and per-pair implementations the library used before its
# hot paths became array operations; tests compare the library against them.


def _oracle_main_diag(pattern: TessPattern, i: int, j: int) -> bool:
    if pattern is TessPattern.MAIN_DIAG:
        return True
    if pattern is TessPattern.ANTI_DIAG:
        return False
    if pattern is TessPattern.ALTERNATING:
        return (i + j) % 2 == 0
    return i % 2 == 0  # ZIGZAG


def sample_grid(patch: BezierPatch, n: int) -> np.ndarray:
    """(n+1, n+1, 3) array of patch points at (i/n, j/n), one coordinate grid at a time."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ts = np.linspace(0.0, 1.0, n + 1)
    w = bernstein_weights_many(ts)  # (n+1, 4)
    pts = np.empty((n + 1, n + 1, 3))
    for axis, g in enumerate(patch.grids):
        pts[:, :, axis] = w @ g @ w.T
    return pts


def loop_triangles(n: int, pattern: TessPattern) -> np.ndarray:
    """Triangle index array of ``tessellate``, one cell at a time."""
    stride = n + 1
    tris = []
    for i in range(n):
        for j in range(n):
            a = i * stride + j
            b = (i + 1) * stride + j
            c = (i + 1) * stride + j + 1
            d = i * stride + j + 1
            if _oracle_main_diag(pattern, i, j):
                tris.append((a, b, c))
                tris.append((a, c, d))
            else:
                tris.append((a, b, d))
                tris.append((b, c, d))
    return np.array(tris)


def scalar_surface_normal(patch: BezierPatch, u: float, v: float):
    """Unit du x dv at one (u, v), or None where it is degenerate."""
    _, du, dv = eval_patch_partials(patch, u, v)
    cross = np.cross(du, dv)
    norm = float(np.linalg.norm(cross))
    scale = max(1.0, float(np.linalg.norm(du) * np.linalg.norm(dv)))
    if norm <= 1e-12 * scale:
        return None
    return cross / norm


def loop_vertex_normals(patch: BezierPatch, n: int, vertices, triangles) -> np.ndarray:
    """Per-sample vertex normals with a per-triangle face-average fallback."""
    ts = np.linspace(0.0, 1.0, n + 1)
    normals = np.zeros(((n + 1) ** 2, 3))
    missing = []
    for i, u in enumerate(ts):
        for j, v in enumerate(ts):
            nrm = scalar_surface_normal(patch, u, v)
            if nrm is None:
                missing.append(i * (n + 1) + j)
            else:
                normals[i * (n + 1) + j] = nrm
    if missing:
        face_n = np.cross(
            vertices[triangles[:, 1]] - vertices[triangles[:, 0]],
            vertices[triangles[:, 2]] - vertices[triangles[:, 0]],
        )
        acc = np.zeros_like(normals)
        for t, fn in zip(triangles, face_n):
            for k in t:
                acc[k] += fn
        for k in missing:
            nrm = acc[k]
            length = np.linalg.norm(nrm)
            normals[k] = nrm / length if length > 1e-300 else (0.0, 0.0, 1.0)
    return normals


def numpy_unit_normals(du, dv):
    """``tessellation._unit_normals`` in numpy's generic 3-vector routines,
    np.cross and np.linalg.norm(..., axis=-1): its bits must be these."""
    cross = np.cross(du, dv)
    norm = np.linalg.norm(cross, axis=-1)
    scale = np.maximum(1.0, np.linalg.norm(du, axis=-1) * np.linalg.norm(dv, axis=-1))
    ok = norm > 1e-12 * scale
    return cross / np.where(ok, norm, 1.0)[..., None], ok


def per_patch_normals(patch: BezierPatch, n: int, vertices, triangles) -> np.ndarray:
    """Vertex normals of one patch's grid from its own partials and faces,
    the per-patch arithmetic ``tessellate_set`` must reproduce bit for bit."""
    ts = np.linspace(0.0, 1.0, n + 1)
    w, dw = bernstein_weights_many(ts), bernstein_dweights_many(ts)
    a = patch.as_array
    du = np.moveaxis(dw @ (a @ w.T), 0, -1).reshape(-1, 3)
    dv = np.moveaxis(w @ (a @ dw.T), 0, -1).reshape(-1, 3)
    normals, ok = numpy_unit_normals(du, dv)
    if not ok.all():
        face_n = np.cross(
            vertices[triangles[:, 1]] - vertices[triangles[:, 0]],
            vertices[triangles[:, 2]] - vertices[triangles[:, 0]],
        )
        acc = np.zeros_like(normals)
        np.add.at(acc, triangles, face_n[:, None, :])
        length = np.linalg.norm(acc[~ok], axis=1, keepdims=True)
        normals[~ok] = np.divide(
            acc[~ok], length, out=np.tile((0.0, 0.0, 1.0), (len(length), 1)),
            where=length > 1e-300,
        )
    return normals


def _oracle_edge_params(edge: EdgeId, t: float):
    tau = 1.0 - t if edge.reversed else t
    side = edge.side
    if side is EdgeSide.U0:
        return 0.0, tau
    if side is EdgeSide.U1:
        return 1.0, tau
    if side is EdgeSide.V0:
        return tau, 0.0
    return tau, 1.0


def loop_continuity(a, edge_a: EdgeId, b, edge_b: EdgeId, n: int) -> tuple:
    """(C0 gap, C1 mismatch, G1 angle) of ``continuity_report``, one sample at a time."""
    c0 = c1 = g1 = 0.0
    for k in range(n + 1):
        t = k / n
        ua, va = _oracle_edge_params(edge_a, t)
        ub, vb = _oracle_edge_params(edge_b, t)
        pa, dua, dva = eval_patch_partials(a, ua, va)
        pb, dub, dvb = eval_patch_partials(b, ub, vb)
        c0 = max(c0, float(np.linalg.norm(pa - pb)))
        da = dua if edge_a.side in (EdgeSide.U0, EdgeSide.U1) else dva
        db = dub if edge_b.side in (EdgeSide.U0, EdgeSide.U1) else dvb
        c1 = max(c1, float(np.linalg.norm(da - db)))
        na = scalar_surface_normal(a, ua, va)
        nb = scalar_surface_normal(b, ub, vb)
        if na is not None and nb is not None:
            angle = float(np.arctan2(np.linalg.norm(np.cross(na, nb)), np.dot(na, nb)))
            g1 = max(g1, angle)
    return c0, c1, g1


def four_call_continuity(patches, records, n: int) -> np.ndarray:
    """``continuity_measures`` with four Bernstein weight evaluations over
    every (edge, sample) and numpy's np.cross and np.linalg.norm: its bits
    must be these."""
    arr = _patch_array(patches)
    records = np.asarray(_record_array(records), dtype=np.intp)
    which, side, flip = records.transpose(2, 1, 0).reshape(3, -1)
    flip = flip.astype(bool)
    slots = _SIDE_SLOTS[side]
    slots[flip] = slots[flip, ::-1]
    u_edge = np.array([True, True, False, False])[side][:, None]
    ts = np.arange(n + 1) / n
    q = arr.reshape(-1, 3, 16)[which[:, None], :, slots]
    half = len(which) // 2
    gap = bernstein_weights_many(ts) @ (q[:half] - q[half:])
    tau = np.where(flip[:, None], 1.0 - ts, ts)
    fixed = np.array([0.0, 1.0, 0.0, 1.0])[side][:, None]
    u, v = np.where(u_edge, fixed, tau), np.where(u_edge, tau, fixed)
    shape = (len(which), 2 * (n + 1), 4)
    wu = np.stack([bernstein_dweights_many(u), bernstein_weights_many(u)], axis=2).reshape(shape)
    wv = np.stack([bernstein_weights_many(v), bernstein_dweights_many(v)], axis=2).reshape(shape)
    d = np.einsum("ecmj,emj->emc", wu[:, None] @ arr[which], wv).reshape(-1, n + 1, 2, 3)
    normal, ok = numpy_unit_normals(d[:, :, 0], d[:, :, 1])
    transverse = np.where(u_edge[..., None], d[:, :, 0], d[:, :, 1])
    na, nb = normal[:half], normal[half:]
    angle = np.arctan2(np.linalg.norm(np.cross(na, nb), axis=-1), np.sum(na * nb, axis=-1))
    c0 = np.max(np.linalg.norm(gap, axis=-1), axis=1)
    c1 = np.max(np.linalg.norm(transverse[:half] - transverse[half:], axis=-1), axis=1)
    g1 = np.max(np.where(ok[:half] & ok[half:], angle, 0.0), axis=1)
    return np.stack([c0, c1, g1], axis=1)


def edge_points(arr: np.ndarray, side: EdgeSide) -> np.ndarray:
    """(..., 4, 3) control points of one side of (..., 3, 4, 4) patch arrays,
    in traversal order: the side's row of ``_SIDE_SLOTS``."""
    flat = arr.reshape(*arr.shape[:-2], 16)
    return np.swapaxes(flat[..., _SIDE_SLOTS[_SIDE_CODE[side]]], -1, -2)


def pairwise_adjacency(patches, tol: float = 1e-9) -> list:
    """``detect_adjacency`` by comparing every pair of edges."""
    if not patches:
        return []
    scale = max(1.0, max(float(np.max(np.abs(g))) for p in patches for g in p.grids))
    edges = []
    for idx, p in enumerate(patches):
        for side in EdgeSide:
            q = edge_points(p.as_array, side)
            if np.max(np.abs(q - q[0])) <= tol * scale:
                continue  # collapsed edge
            edges.append((idx, side, q))
    found = []
    for i in range(len(edges)):
        pi, si, qi = edges[i]
        for k in range(i + 1, len(edges)):
            pk, sk, qk = edges[k]
            if np.max(np.abs(qi - qk)) <= tol * scale:
                found.append(Adjacency(a=pi, edge_a=EdgeId(si), b=pk, edge_b=EdgeId(sk)))
            elif np.max(np.abs(qi - qk[::-1])) <= tol * scale:
                found.append(
                    Adjacency(a=pi, edge_a=EdgeId(si), b=pk, edge_b=EdgeId(sk, reversed=True))
                )
    return found


def key_codes_adjacency(patches, tol: float = 1e-9) -> list:
    """``detect_adjacency`` with its neighbour probes joined by
    ``_key_codes`` over the table and the 27 probes of every edge."""
    if not patches:
        return []
    arr = np.stack([p.as_array for p in patches])
    scale = max(1.0, float(np.max(np.abs(arr))))
    # (patch, side) slot k is patch k // 4, side k % 4
    q = np.stack([edge_points(arr, side) for side in EdgeSide], axis=1).reshape(-1, 4, 3)
    limit = tol * scale
    live = np.flatnonzero(np.max(np.abs(q - q[:, :1]), axis=(1, 2)) > limit)
    q = q[live]
    # cells, table and pairs as in detect_adjacency
    cell = (tol + 1e-12) * scale
    keys = np.floor(q[:, (0, 3)] / cell).astype(np.int64)  # (E, 2, 3)
    count = len(q)
    table = keys.transpose(1, 0, 2).reshape(-1, 3)  # starts, then ends
    probes = (keys[:, None, 0] + _NEIGHBOUR_OFFSETS).reshape(-1, 3)
    codes = _key_codes(np.concatenate([table, probes]))
    table_codes, probe_codes = codes[: 2 * count], codes[2 * count :]
    order = np.argsort(table_codes, kind="stable")
    ranked = table_codes[order]
    lo = np.searchsorted(ranked, probe_codes, side="left")
    hits = np.searchsorted(ranked, probe_codes, side="right") - lo
    first = np.repeat(lo - np.cumsum(hits) + hits, hits) + np.arange(hits.sum())
    i = np.repeat(np.arange(len(probes)) // len(_NEIGHBOUR_OFFSETS), hits)
    k = order[first] % count
    # distinct candidate pairs (i, k), k > i, in the order of i, then k (an
    # edge is in the table twice); a plain np.unique would import numpy.ma
    pair = np.sort(i[k > i] * count + k[k > i])
    pair = pair[np.diff(pair, prepend=-1) > 0]
    i, k = np.divmod(pair, count)
    forward = np.max(np.abs(q[i] - q[k]), axis=(1, 2)) <= limit
    backward = np.max(np.abs(q[i] - q[k, ::-1]), axis=(1, 2)) <= limit
    match = forward | backward
    ids = [[EdgeId(side, flip) for side in EdgeSide] for flip in (False, True)]
    return [
        Adjacency(pi // 4, ids[0][pi % 4], pk // 4, ids[flip][pk % 4])
        for pi, pk, flip in zip(
            live[i[match]].tolist(), live[k[match]].tolist(), (~forward[match]).tolist()
        )
    ]


def loop_edge_incidence(mesh) -> Counter:
    """``edge_incidence`` one triangle at a time."""
    counts: Counter = Counter()
    for t in mesh.triangles:
        for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            counts[(min(a, b), max(a, b))] += 1
    return counts


def loop_export_obj(mesh) -> str:
    """``export_obj`` one line at a time."""
    out = []
    for v in mesh.vertices:
        out.append(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}")
    with_normals = mesh.normals is not None
    if with_normals:
        for nrm in mesh.normals:
            out.append(f"vn {float(nrm[0])!r} {float(nrm[1])!r} {float(nrm[2])!r}")
    for t in mesh.triangles:
        i, j, k = (int(t[0]) + 1, int(t[1]) + 1, int(t[2]) + 1)
        if with_normals:
            out.append(f"f {i}//{i} {j}//{j} {k}//{k}")
        else:
            out.append(f"f {i} {j} {k}")
    return "\n".join(out) + ("\n" if out else "")


def patchset_json(ps) -> str:
    """``dump_patchset`` as a document of Python lists through json.dumps."""
    doc = {
        "name": ps.name,
        "patches": [
            {c: [[float(v) for v in row] for row in g.tolist()] for c, g in zip("xyz", p.grids)}
            for p in ps.patches
        ],
    }
    if ps.adjacency is not None:
        sides = list(EdgeSide)
        doc["adjacency"] = [
            {
                "a": a,
                "edge_a": sides[sa].value,
                "reversed_a": bool(ra),
                "b": b,
                "edge_b": sides[sb].value,
                "reversed_b": bool(rb),
            }
            for (a, sa, ra), (b, sb, rb) in ps.adjacency.tolist()
        ]
    return json.dumps(doc, indent=1)


def split_patch(patch: BezierPatch) -> list:
    """The four sub-patches of a de Casteljau split at u = v = 1/2.

    Every midpoint is ``(p + q) * 0.5``, which is symmetric in p and q, so
    edges that two parents share bit-identically (in either orientation)
    stay bit-identical between their children.  Children come in the
    order (u low, v low), (u low, v high), (u high, v low), (u high, v high).
    """

    def halves(g, axis):
        p = list(np.moveaxis(g, axis, 0))
        l1 = [(p[k] + p[k + 1]) * 0.5 for k in range(3)]
        l2 = [(l1[k] + l1[k + 1]) * 0.5 for k in range(2)]
        mid = (l2[0] + l2[1]) * 0.5
        low = np.stack([p[0], l1[0], l2[0], mid])
        high = np.stack([mid, l2[1], l1[2], p[3]])
        return np.moveaxis(low, 0, axis), np.moveaxis(high, 0, axis)

    out = []
    for half_u in halves(patch.as_array, 1):
        for quarter in halves(half_u, 2):
            out.append(BezierPatch(*quarter))
    return out


def height_field_patches(heights) -> list:
    """k x k patches over a (3k+1) x (3k+1) height field on the unit grid.

    Patch (a, c) takes rows 3a..3a+3 and columns 3c..3c+3 of the field, with
    x and y the row and column index over 3, so neighbours share their common
    edge bit-identically: the surface is C0 by construction.
    """
    heights = np.asarray(heights, dtype=float)
    k = (len(heights) - 1) // 3
    t = np.arange(3 * k + 1) / 3.0
    out = []
    for a in range(k):
        for c in range(k):
            rows, cols = slice(3 * a, 3 * a + 4), slice(3 * c, 3 * c + 4)
            x, y = np.meshgrid(t[rows], t[cols], indexing="ij")
            out.append(BezierPatch(x, y, heights[rows, cols]))
    return out


# ---------------------------------------------------------------------------
# Loop oracle for the array-form joint repair: one dict per boundary slot,
# one dict of entries per constraint row, and one lstsq per coordinate axis.

_LOOP_BOUNDARY = [(i, j) for i in range(4) for j in range(4) if i in (0, 3) or j in (0, 3)]
_LOOP_INNER = [(i, j) for i in range(4) for j in range(4) if (i, j) not in _LOOP_BOUNDARY]


def loop_repair_patches(patches) -> RepairResult:
    """``repair_patches`` with Python loops over slots, rows and axes.

    A fixed variable takes the coordinates of the slot that first names it,
    so a corner written back may differ from its own input in the sign of
    a zero.
    """
    if not patches:
        return RepairResult(np.zeros((0, 3, 4, 4)), np.zeros(0), np.zeros(0), 0.0, 0.0)

    key_to_var: dict = {}
    slot_var = []  # per patch: dict slot -> var id
    coords = []    # per var id: (x, y, z)
    fixed = set()

    def var_for(key):
        if key not in key_to_var:
            key_to_var[key] = len(coords)
            coords.append(key)
        return key_to_var[key]

    for p in patches:
        mapping = {}
        for (i, j) in _LOOP_BOUNDARY:
            key = (float(p.x[i, j]), float(p.y[i, j]), float(p.z[i, j]))
            v = var_for(key)
            mapping[(i, j)] = v
            if (i, j) in CORNER_SLOTS:
                fixed.add(v)
        for (i, j) in _LOOP_INNER:
            v = len(coords)
            coords.append((float(p.x[i, j]), float(p.y[i, j]), float(p.z[i, j])))
            mapping[(i, j)] = v
        slot_var.append(mapping)

    nvars = len(coords)
    free_ids = [v for v in range(nvars) if v not in fixed]
    free_pos = {v: k for k, v in enumerate(free_ids)}
    lam = build_lambda().lam
    # Row 3 of the 6x16 matrix is minus row 0, so each patch keeps the other
    # five.  Its sixth row would add a zero singular value per patch, and
    # lstsq's least-norm step would then move with the BLAS thread count
    # by up to 1.1e-12 * scale.
    assert np.array_equal(lam[3], -lam[0])
    lam = lam[[0, 1, 2, 4, 5]]

    rows = []
    fixed_part = []  # per row: list of (var, coeff) on fixed variables
    for mapping in slot_var:
        for lam_row in lam:
            entries_free = {}
            entries_fixed = []
            for k in range(16):
                c = lam_row[k]
                if c == 0.0:
                    continue
                v = mapping[divmod(k, 4)]
                if v in fixed:
                    entries_fixed.append((v, c))
                else:
                    pos = free_pos[v]
                    entries_free[pos] = entries_free.get(pos, 0.0) + c
            rows.append(entries_free)
            fixed_part.append(entries_fixed)

    nrows = len(rows)
    a = np.zeros((nrows, len(free_ids)))
    for r, entries in enumerate(rows):
        for pos, c in entries.items():
            a[r, pos] = c

    values = np.array(coords, dtype=float)  # (nvars, 3)
    scale = max(1.0, float(np.max(np.abs(values)))) if nvars else 1.0
    new_values = values.copy()
    worst_residual = 0.0
    for axis in range(3):
        v_free = values[free_ids, axis] if free_ids else np.zeros(0)
        b = np.zeros(nrows)
        for r, entries in enumerate(fixed_part):
            for v, c in entries:
                b[r] -= c * values[v, axis]
        current = v_free
        for _ in range(3):
            r = b - a @ current
            if np.max(np.abs(r), initial=0.0) <= 1e-13 * scale:
                break
            step, *_ = np.linalg.lstsq(a, r, rcond=None)
            current = current + step
        worst_residual = max(
            worst_residual, float(np.max(np.abs(b - a @ current), initial=0.0)) / scale
        )
        for v, val in zip(free_ids, current):
            new_values[v, axis] = val

    repaired = []
    displacement, corner_displacement = [], []
    for p, mapping in zip(patches, slot_var):
        grids = [np.array(g) for g in p.grids]
        disp = 0.0
        corner_disp = 0.0
        for (i, j), v in mapping.items():
            old = np.array([g[i, j] for g in grids])
            new = new_values[v]
            d = float(np.max(np.abs(new - old)))
            if (i, j) in CORNER_SLOTS:
                corner_disp = max(corner_disp, d)
            else:
                disp = max(disp, d)
            for axis in range(3):
                grids[axis][i, j] = new[axis]
        repaired.append(grids)
        displacement.append(disp)
        corner_displacement.append(corner_disp)

    return RepairResult(
        points=np.array(repaired),
        displacement=np.array(displacement),
        corner_displacement=np.array(corner_displacement),
        max_displacement=max(displacement),
        residual=worst_residual,
    )


def parent_repair(patches):
    """``repair_patches``' result as it was while the result held patch
    objects: the repaired BezierPatch list and one (max_displacement,
    corner_displacement) pair per patch, by the expressions the repair then
    ended with, applied to the corrected values that ``_refine`` leaves."""
    corrected = []
    refine = constraints._refine

    def capture(out, *args):
        done = refine(out, *args)
        corrected.append(out)
        return done

    constraints._refine = capture
    try:
        repair_patches(patches)
    finally:
        constraints._refine = refine
    if not corrected:
        return [], []
    arr = _patch_array(patches)
    n, out = len(arr), corrected[0]
    moved = np.max(np.abs(out - arr.reshape(n, 3, 16).transpose(0, 2, 1)), axis=2)
    disp = moved[:, constraints._NONCORNERS].max(axis=1)
    corner_disp = moved[:, constraints._CORNERS].max(axis=1)
    return (bezier_patches(out.transpose(0, 2, 1).reshape(n, 3, 4, 4)),
            list(zip(disp.tolist(), corner_disp.tolist())))


def dense_system(patches):
    """Slots, variables and the full 5n x 5n Gram matrix A A^T of a set.

    Boundary slots with equal coordinates (``np.unique(axis=0)``, on which
    0.0 and -0.0 are equal) are one variable, inner slots are private and
    corner variables fixed.  Every pair of free slots on one variable adds
    the outer product of their reduced-row coefficients to the two
    patches' 5 x 5 block, as ``repair_patches`` sums its level blocks.
    Returns pts (n, 16, 3), slot_var, fixed, the free slots' patch, slot,
    variable and coefficients, and the Gram matrix.
    """
    n = len(patches)
    pts = np.stack([p.as_array for p in patches]).reshape(n, 3, 16).transpose(0, 2, 1)
    boundary = pts[:, constraints._BOUNDARY].reshape(-1, 3) + 0.0
    shared, inverse = np.unique(boundary, axis=0, return_inverse=True)
    slot_var = np.empty((n, 16), dtype=np.intp)
    slot_var[:, constraints._BOUNDARY] = inverse.reshape(n, 12)
    slot_var[:, constraints._INNER] = len(shared) + np.arange(4 * n).reshape(n, 4)
    fixed = np.zeros(len(shared) + 4 * n, dtype=bool)
    fixed[slot_var[:, [0, 3, 12, 15]]] = True
    p_idx, k_idx = np.nonzero(~fixed[slot_var])
    var = slot_var[p_idx, k_idx]
    coef = build_lambda().reduced_f[:, k_idx].T
    i, j = constraints._pairs_on_one_variable(var)
    row = 5 * p_idx[i, None, None] + np.arange(5)[:, None]
    col = 5 * p_idx[j, None, None] + np.arange(5)
    gram = np.bincount(
        (row * 5 * n + col).ravel(),
        (coef[i, :, None] * coef[j, None, :]).ravel(),
        minlength=25 * n * n,
    ).reshape(5 * n, 5 * n)
    return pts, slot_var, fixed, p_idx, k_idx, var, coef, gram


def dense_repair_patches(patches) -> list:
    """Repaired patches from one dense Gram matrix per component.

    The solve ``repair_patches`` used before its level-set factorization:
    each component's full ``5n_c x 5n_c`` Gram matrix A A^T, cut from
    ``dense_system``'s, inverted as ``inv(cholesky(gram))``, with the same
    variables, components, stop bound and refinement steps.  O(n^2) memory
    and O(n_c^3) time, so only for small sets.
    """
    n = len(patches)
    pts, slot_var, fixed, p_idx, k_idx, var, coef, full = dense_system(patches)
    reduced = build_lambda().reduced_f

    i, j = constraints._pairs_on_one_variable(var)
    _, comp = np.unique(constraints._components(p_idx[i], p_idx[j], n), return_inverse=True)
    members = [np.flatnonzero(comp == c) for c in range(comp.max() + 1)]
    comp_scale = np.ones(len(members))
    np.maximum.at(comp_scale, comp, np.abs(pts).max(axis=(1, 2)))
    factors = {}
    for c, m in enumerate(members):
        rows = (5 * m[:, None] + np.arange(5)).ravel()
        factors[c] = np.linalg.inv(np.linalg.cholesky(full[np.ix_(rows, rows)]))

    out = pts.copy()
    for _ in range(3):
        defect = reduced @ out
        worst = np.zeros(len(members))
        np.maximum.at(worst, comp, np.abs(defect).max(axis=(1, 2)))
        y = np.zeros_like(defect)
        for c in np.flatnonzero(worst > 1e-13 * comp_scale):
            w, m = factors[c], members[c]
            y[m] = (w.T @ (w @ defect[m].reshape(-1, 3))).reshape(-1, 5, 3)
        delta = np.zeros((len(fixed), 3))
        np.add.at(delta, var, np.einsum("sa,sad->sd", coef, y[p_idx]))
        out[p_idx, k_idx] -= delta[var]
    return [BezierPatch(*g) for g in out.transpose(0, 2, 1).reshape(n, 3, 4, 4)]


def validation_sets(rng, teapot_path) -> dict:
    """(N, 3, 4, 4) sets: the teapot, its 2x2 split, and 1000 seeded grids of
    random, compliant and nearly compliant (perturbed around the 1e-9
    tolerance) kinds plus a zero and a constant grid, in patches of three."""
    teapot = read_newell(teapot_path).patches
    grids = [rng.uniform(-10, 10, (4, 4)) * 10.0 ** rng.integers(-3, 4) for _ in range(334)]
    grids += [random_compliant_grid(rng) * 10.0 ** rng.integers(-3, 4) for _ in range(333)]
    for _ in range(333):
        g = random_compliant_grid(rng) * 10.0 ** rng.integers(-3, 4)
        g = g + rng.choice([-1.0, 1.0], (4, 4)) * rng.uniform(0.0, 2e-11) * grid_scale(g)
        grids.append(g)
    grids.append(np.zeros((4, 4)))
    grids.append(np.full((4, 4), -0.5))
    return {
        "teapot": np.stack([p.as_array for p in teapot]),
        "split": np.stack([q.as_array for p in teapot for q in split_patch(p)]),
        "grids": np.array(grids).reshape(-1, 3, 4, 4),
    }


def newell_text(patches) -> str:
    """Newell-format text of a patch set, one vertex per control point."""
    points = np.stack([p.as_array for p in patches]).transpose(0, 2, 3, 1).reshape(-1, 3)
    rows = [",".join(str(16 * k + j + 1) for j in range(16)) for k in range(len(patches))]
    vertices = [",".join(repr(c) for c in v) for v in points.tolist()]
    return "\n".join([str(len(patches)), *rows, str(len(vertices)), *vertices]) + "\n"


def loop_load_newell(text: str, name: str = "newell") -> PatchSet:
    """``load_newell`` one line at a time: each line is stripped, split and
    converted on its own, and each error is raised at the line that has it."""
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(no, ln) for no, ln in lines if ln]
    pos = 0

    def take(what):
        nonlocal pos
        if pos >= len(lines):
            raise PatchFormatError(f"unexpected end of file while reading {what}")
        out = lines[pos]
        pos += 1
        return out

    def take_count(what):
        no, ln = take(what)
        try:
            value = int(ln)
        except ValueError:
            value = -1
        if value < 0:
            raise PatchFormatError(f"line {no}: expected {what}, got {ln!r}")
        return value

    index_rows = []
    for _ in range(take_count("patch count")):
        no, ln = take("patch indices")
        parts = ln.split(",")
        if len(parts) != 16:
            raise PatchFormatError(f"line {no}: expected 16 indices, got {len(parts)}")
        try:
            idx = [int(p) for p in parts]
        except ValueError:
            raise PatchFormatError(f"line {no}: non-integer patch index") from None
        index_rows.append((no, idx))
    vertex_count = take_count("vertex count")
    first = pos
    coords = []

    def accepted_vertices():
        """The vertices parsed so far; raises for the line of the first one
        that is not finite or has a coordinate of magnitude above 2**250."""
        vertices = np.array(coords, dtype=float).reshape(-1, 3)
        bad = np.flatnonzero(~(np.abs(vertices) <= 2.0**250).all(axis=1))
        if bad.size:
            what = ("coordinate of magnitude above 2**250" if np.isfinite(vertices[bad[0]]).all()
                    else "non-finite coordinate")
            raise PatchFormatError(f"line {lines[first + bad[0]][0]}: {what}")
        return vertices

    try:
        for _ in range(vertex_count):
            no, ln = take("vertex coordinates")
            parts = ln.split(",")
            if len(parts) != 3:
                raise PatchFormatError(f"line {no}: expected 3 coordinates, got {len(parts)}")
            try:
                coords.append([float(p) for p in parts])
            except ValueError:
                raise PatchFormatError(f"line {no}: non-numeric coordinate") from None
    except PatchFormatError:
        accepted_vertices()  # an earlier line's error comes first
        raise
    vertices = accepted_vertices()
    if pos != len(lines):
        raise PatchFormatError(f"line {lines[pos][0]}: trailing content after vertex table")

    # Python ints in an object array, so no index can overflow the check
    idx = np.array([row for _, row in index_rows], dtype=object).reshape(-1, 16)
    bad = np.flatnonzero((idx < 1) | (idx > vertex_count))
    if bad.size:
        row, col = divmod(int(bad[0]), 16)
        no = index_rows[row][0]
        raise PatchFormatError(
            f"line {no}: vertex index {idx[row, col]} out of range 1..{vertex_count}"
        )
    pts = vertices[idx.astype(np.intp) - 1].reshape(-1, 4, 4, 3)
    return PatchSet(name=name, patches=bezier_patches(pts.transpose(0, 3, 1, 2)))
