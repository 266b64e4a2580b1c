"""Patch sampling, triangulation patterns, normals and edge continuity."""

from __future__ import annotations

import itertools
from collections import Counter
from enum import Enum
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .patches import (
    BezierPatch,
    _patch_array,
    bernstein_dweights_many,
    bernstein_weights_many,
    eval_patch_partials,
)


class TessPattern(Enum):
    """How each cell of the sampled u-v grid is split into two triangles."""

    MAIN_DIAG = "main"    # every cell split along the v=u direction
    ANTI_DIAG = "anti"    # every cell split along the v=1-u direction
    ALTERNATING = "alt"   # checkerboard of the two
    ZIGZAG = "zigzag"     # rows alternate


class EdgeSide(Enum):
    U0 = "U0"
    U1 = "U1"
    V0 = "V0"
    V1 = "V1"


class EdgeId(NamedTuple):
    """One of the four patch edges plus the traversal orientation."""

    side: EdgeSide
    reversed: bool = False


class Adjacency(NamedTuple):
    """Shared edge between two patches of a set (indices into the set)."""

    a: int
    edge_a: EdgeId
    b: int
    edge_b: EdgeId


class TriangleMesh:
    """Indexed triangle soup; vertices (N,3), triangles (M,3) int, optional unit normals.

    Its fields may be reassigned.  Meshes compare and hash by identity, as
    patches do: an ndarray field has no truth value.
    """

    def __init__(self, vertices, triangles, normals: Optional[np.ndarray] = None):
        self.vertices = np.asarray(vertices, dtype=float).reshape(-1, 3)
        self.triangles = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
        self.normals = None if normals is None else np.asarray(normals, dtype=float).reshape(-1, 3)
        if self.triangles.size:
            if self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices):
                raise ValueError("triangle index out of range")
            same = (
                (self.triangles[:, 0] == self.triangles[:, 1])
                | (self.triangles[:, 1] == self.triangles[:, 2])
                | (self.triangles[:, 0] == self.triangles[:, 2])
            )
            if same.any():
                raise ValueError("degenerate triangle with repeated vertex index")
        if self.normals is not None and len(self.normals) != len(self.vertices):
            raise ValueError("need one normal per vertex")

    def __repr__(self):
        return (
            f"TriangleMesh(vertices={self.vertices!r}, triangles={self.triangles!r}, "
            f"normals={self.normals!r})"
        )


def _main_diag_cells(pattern: TessPattern, n: int) -> np.ndarray:
    """(n, n) mask of the cells (i along u, j along v) split along v=u."""
    i, j = np.indices((n, n))
    if pattern is TessPattern.MAIN_DIAG:
        return np.ones((n, n), dtype=bool)
    if pattern is TessPattern.ANTI_DIAG:
        return np.zeros((n, n), dtype=bool)
    if pattern is TessPattern.ALTERNATING:
        return (i + j) % 2 == 0
    return i % 2 == 0  # ZIGZAG


def _triangles(n: int, pattern: TessPattern) -> np.ndarray:
    """(2n^2, 3) triangles of one (n+1)^2-vertex grid, two per cell in cell order."""
    # corners of cell (i, j): a=(i, j), b=(i+1, j), c=(i+1, j+1), d=(i, j+1)
    a = np.arange(n)[:, None] * (n + 1) + np.arange(n)[None, :]
    b, c, d = a + n + 1, a + n + 2, a + 1
    main = _main_diag_cells(pattern, n)[..., None]
    first = np.where(main, np.stack([a, b, c], axis=-1), np.stack([a, b, d], axis=-1))
    second = np.where(main, np.stack([a, c, d], axis=-1), np.stack([b, c, d], axis=-1))
    return np.stack([first, second], axis=2).reshape(-1, 3)


def tessellate(
    patch: BezierPatch,
    n: int,
    pattern: TessPattern = TessPattern.MAIN_DIAG,
    with_normals: bool = False,
) -> TriangleMesh:
    """Triangulate the patch on an n-by-n parameter grid.

    Produces (n+1)^2 vertices in row-major (u-major) order and 2*n^2
    triangles wound counter-clockwise when viewed against the parametric
    normal du x dv.  The one-patch case of tessellate_set().
    """
    return tessellate_set([patch], n, pattern, with_normals)


def tessellate_set(
    patches: Sequence[BezierPatch],
    n: int,
    pattern: TessPattern = TessPattern.MAIN_DIAG,
    with_normals: bool = False,
) -> TriangleMesh:
    """Triangulate every patch on an n-by-n parameter grid, as one mesh.

    Patch p's vertices, triangles and normals are those tessellate() gives
    it alone, bit for bit, with its vertex indices offset by p*(n+1)^2 and
    its blocks in patch order.  Samples and partials of all patches come
    from one stacked product each.  Where du x dv is degenerate (see
    surface_normal) the normal is the normalized sum of the patch's
    adjacent face normals, or +z where those cancel.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    arr = _patch_array(patches)
    per_patch = (n + 1) ** 2
    ts = np.linspace(0.0, 1.0, n + 1)
    w = bernstein_weights_many(ts)  # (n+1, 4)
    vertices = np.moveaxis(w @ arr @ w.T, 1, -1).reshape(-1, 3)
    offsets = per_patch * np.arange(len(arr))[:, None, None]
    tris = (_triangles(n, pattern) + offsets).reshape(-1, 3)
    normals = None
    if with_normals:
        dw = bernstein_dweights_many(ts)
        du = np.moveaxis(dw @ (arr @ w.T), 1, -1).reshape(-1, 3)
        dv = np.moveaxis(w @ (arr @ dw.T), 1, -1).reshape(-1, 3)
        normals, ok = _unit_normals(du, dv)
        if not ok.all():
            # face-average fallback over the triangles of the patches that need it
            bad = ~ok.reshape(len(arr), per_patch).all(axis=1)
            t = tris.reshape(len(arr), -1, 3)[bad].reshape(-1, 3)
            face_n = np.cross(
                vertices[t[:, 1]] - vertices[t[:, 0]], vertices[t[:, 2]] - vertices[t[:, 0]]
            )
            # each bin sums its faces in triangle order, as np.add.at would
            acc = np.stack(
                [np.bincount(t.ravel(), f.repeat(3), minlength=len(normals)) for f in face_n.T],
                axis=1,
            )[~ok]
            length = np.linalg.norm(acc, axis=1, keepdims=True)
            normals[~ok] = np.divide(
                acc, length, out=np.tile((0.0, 0.0, 1.0), (len(acc), 1)), where=length > 1e-300
            )
    return TriangleMesh(vertices=vertices, triangles=tris, normals=normals)


def _unit_normals(du: np.ndarray, dv: np.ndarray):
    """Unit du x dv along the last axis, and the mask of where it is defined:
    it is not where |du x dv| <= 1e-12 * max(1, |du| |dv|)."""
    cross = np.cross(du, dv)
    norm = np.linalg.norm(cross, axis=-1)
    scale = np.maximum(1.0, np.linalg.norm(du, axis=-1) * np.linalg.norm(dv, axis=-1))
    ok = norm > 1e-12 * scale
    return cross / np.where(ok, norm, 1.0)[..., None], ok


def surface_normal(patch: BezierPatch, u: float, v: float):
    """Unit normal du x dv at (u, v), or None where the patch is degenerate.

    Degeneracy means the cross product of the partials is negligible
    relative to their magnitudes (collapsed edges, parallel partials).
    """
    _, du, dv = eval_patch_partials(patch, u, v)
    nrm, ok = _unit_normals(du, dv)
    return nrm if ok else None


def merge_meshes(meshes: Sequence[TriangleMesh]) -> TriangleMesh:
    """Concatenate meshes, offsetting indices; input order is preserved.

    The pipeline tessellates whole sets with tessellate_set(); this stays
    as the per-patch reference and because bench/tracing.py wraps it by name.
    """
    if not meshes:
        return TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    verts, tris, normals = [], [], []
    offset = 0
    with_normals = all(m.normals is not None for m in meshes)
    for m in meshes:
        verts.append(m.vertices)
        tris.append(m.triangles + offset)
        if with_normals:
            normals.append(m.normals)
        offset += len(m.vertices)
    return TriangleMesh(
        vertices=np.vstack(verts),
        triangles=np.vstack(tris),
        normals=np.vstack(normals) if with_normals else None,
    )


def edge_incidence(mesh: TriangleMesh) -> Counter:
    """Count how many triangles use each undirected edge."""
    nv = len(mesh.vertices)
    edges = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    keys, counts = np.unique(edges[:, 0] * nv + edges[:, 1], return_counts=True)
    lo, hi = np.divmod(keys, nv)
    return Counter(dict(zip(zip(lo.tolist(), hi.tolist()), counts.tolist())))


# ---------------------------------------------------------------------------
# Edges and continuity

# Per side, in EdgeSide order: grid rows and columns of its four control
# points in traversal order, whether u is its fixed parameter, and the
# fixed parameter's value.
_SIDE_CODE = {side: k for k, side in enumerate(EdgeSide)}
_SIDE_ROWS = np.array([(0, 0, 0, 0), (3, 3, 3, 3), (0, 1, 2, 3), (0, 1, 2, 3)])
_SIDE_COLS = np.array([(0, 1, 2, 3), (0, 1, 2, 3), (0, 0, 0, 0), (3, 3, 3, 3)])
_SIDE_FIXES_U = np.array([True, True, False, False])
_SIDE_FIXED_AT = np.array([0.0, 1.0, 0.0, 1.0])
_NEIGHBOUR_OFFSETS = np.array(list(itertools.product((-1, 0, 1), repeat=3)))


def _edge_points(arr: np.ndarray, side: EdgeSide) -> np.ndarray:
    """(..., 4, 3) control points of one side of (..., 3, 4, 4) patch arrays."""
    k = _SIDE_CODE[side]
    return np.swapaxes(arr[..., _SIDE_ROWS[k], _SIDE_COLS[k]], -1, -2)


class ContinuityReport(NamedTuple):
    c0_max_gap: float
    c1_max_mismatch: float
    g1_max_angle: float
    samples: int


def continuity_report(
    a: BezierPatch,
    edge_a: EdgeId,
    b: BezierPatch,
    edge_b: EdgeId,
    n: int,
) -> ContinuityReport:
    """Positional, derivative and tangent-plane agreement along two edges.

    The one-record case of continuity_measures(), which describes the
    measures.  The report carries raw measures; callers apply thresholds
    when turning them into verdicts.
    """
    c0, c1, g1 = continuity_measures([a, b], [Adjacency(0, edge_a, 1, edge_b)], n)[0].tolist()
    return ContinuityReport(c0_max_gap=c0, c1_max_mismatch=c1, g1_max_angle=g1, samples=n + 1)


def continuity_measures(
    patches: Sequence[BezierPatch], records: Sequence[Adjacency], n: int
) -> np.ndarray:
    """The (len(records), 3) array of every record's C0 gap, C1 mismatch
    and G1 angle, in one array pass.

    Each record's two edges are sampled at n+1 matched parameter values
    (each edge honours its own orientation flag).  The C0 gap is the
    distance between the edge curves, taken from the difference of each
    edge's own control points in traversal order, so edges that carry
    bit-identical control points report exactly 0.0 in either orientation.
    The C1 mismatch is the raw difference of the transverse partials (du
    on U edges, dv on V edges), i.e. parametric continuity: patches joined
    with mirrored parameterizations report a C1 mismatch even where the
    surface is geometrically smooth, and the G1 angle between the unit
    normals is the one that tells those cases apart.  Samples where either
    normal is degenerate are skipped for G1.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not records:
        return np.zeros((0, 3))
    arr = np.stack([p.as_array for p in patches])
    # Both edges of every record, a-sides first, then b-sides.
    which = np.array([[r.a for r in records], [r.b for r in records]]).ravel()
    edges = [r.edge_a for r in records] + [r.edge_b for r in records]
    side = np.array([_SIDE_CODE[e.side] for e in edges])
    flip = np.array([e.reversed for e in edges])
    rows, cols = _SIDE_ROWS[side], _SIDE_COLS[side]
    rows[flip], cols[flip] = rows[flip, ::-1], cols[flip, ::-1]
    u_edge = _SIDE_FIXES_U[side][:, None]

    ts = np.arange(n + 1) / n
    q = arr[which[:, None], :, rows, cols]  # (2E, 4, 3)
    half = len(records)
    gap = bernstein_weights_many(ts) @ (q[:half] - q[half:])  # (E, n+1, 3)

    tau = np.where(flip[:, None], 1.0 - ts, ts)
    fixed = _SIDE_FIXED_AT[side][:, None]
    u, v = np.where(u_edge, fixed, tau), np.where(u_edge, tau, fixed)
    # Rows k = 0 weigh the grid by (dB(u), B(v)) for dP/du, rows k = 1 by
    # (B(u), dB(v)) for dP/dv; both partials of all edges in one product.
    shape = (len(edges), 2 * (n + 1), 4)
    wu = np.stack([bernstein_dweights_many(u), bernstein_weights_many(u)], axis=2).reshape(shape)
    wv = np.stack([bernstein_weights_many(v), bernstein_dweights_many(v)], axis=2).reshape(shape)
    d = np.einsum("ecmj,emj->emc", wu[:, None] @ arr[which], wv).reshape(-1, n + 1, 2, 3)
    normal, ok = _unit_normals(d[:, :, 0], d[:, :, 1])
    transverse = np.where(u_edge[..., None], d[:, :, 0], d[:, :, 1])
    na, nb = normal[:half], normal[half:]
    # atan2 form stays accurate for nearly parallel normals where
    # arccos of the dot product would lose half the precision
    angle = np.arctan2(np.linalg.norm(np.cross(na, nb), axis=-1), np.sum(na * nb, axis=-1))
    c0 = np.max(np.linalg.norm(gap, axis=-1), axis=1)
    c1 = np.max(np.linalg.norm(transverse[:half] - transverse[half:], axis=-1), axis=1)
    g1 = np.max(np.where(ok[:half] & ok[half:], angle, 0.0), axis=1)
    return np.stack([c0, c1, g1], axis=1)


def _key_codes(keys: np.ndarray) -> np.ndarray:
    """One int64 code per row of an (N, d) array; equal rows, equal codes.

    Codes ascend with the rows' lexicographic order, and rows compare by
    ``==`` (0.0 and -0.0 are equal), so ranking the codes with np.unique
    gives the ids of ``np.unique(keys, axis=0, return_inverse=True)``.

    Each column is replaced by its rank among that column's values, and the
    partial code is re-ranked before each column after the second is folded
    in, so no code reaches N^2 whatever the keys' range.
    """
    code = np.zeros(len(keys), dtype=np.int64)
    for axis, column in enumerate(keys.T):
        if axis > 1:
            _, code = np.unique(code, return_inverse=True)
        _, rank = np.unique(column, return_inverse=True)
        code = code * len(keys) + rank
    return code


def _neighbour_codes(table: np.ndarray, starts: np.ndarray):
    """int64 codes of the rows of the (N, 3) int64 ``table`` and of the 27
    neighbours ``start + offset`` of each row of ``starts`` (M, 3), offsets
    in ``_NEIGHBOUR_OFFSETS`` order: (N,) and (M, 27).  A neighbour's code
    equals a table row's code exactly when the two rows are equal.  It is
    -1 when its value on some axis, or its first two values together, are
    in no table row.

    Only the table is ranked: per axis, np.unique of its column, in which
    each start's three neighbouring values are looked up with searchsorted.
    The ranks are folded into one code per row as ``_key_codes`` folds
    them, with the table's partial codes re-ranked before the third axis,
    so no code reaches N^2 whatever the keys' range.  The neighbours fold
    in the same ranks, broadcast over the offsets of the axes so far.
    """
    table_codes = np.zeros(len(table), dtype=np.int64)
    codes = np.zeros((len(starts), 1), dtype=np.int64)
    miss = np.zeros((len(starts), 1), dtype=bool)
    for axis in range(3):
        if axis > 1:
            ranked, table_codes = np.unique(table_codes, return_inverse=True)
            codes, absent = _rank_of(ranked, codes)
            miss |= absent
        values, table_rank = np.unique(table[:, axis], return_inverse=True)
        rank, absent = _rank_of(values, starts[:, axis, None] + np.arange(-1, 2))  # (M, 3)
        table_codes = table_codes * len(values) + table_rank
        shape = (len(starts), 3 ** (axis + 1))
        codes = (codes[..., None] * len(values) + rank[:, None]).reshape(shape)
        miss = (miss[..., None] | absent[:, None]).reshape(shape)
    return table_codes, np.where(miss, -1, codes)


def _rank_of(ranked: np.ndarray, values: np.ndarray):
    """The position of each of ``values`` in the sorted array ``ranked``,
    and the mask of the values that are not in it."""
    rank = np.searchsorted(ranked, values)
    return rank, ranked[np.minimum(rank, len(ranked) - 1)] != values


def detect_adjacency(patches: Sequence[BezierPatch], tol: float = 1e-9) -> list:
    """Find patch edges that carry the same control points, either orientation.

    Forward matches are preferred over reversed ones; zero-length edges
    (all four control points coincident) are skipped since they bound no
    shared curve.  The tolerance is relative to the coordinate scale of
    the whole set.  Records come in the order of (patch, side) of the
    first edge, then of the second.
    """
    if not patches:
        return []
    arr = np.stack([p.as_array for p in patches])
    scale = max(1.0, float(np.max(np.abs(arr))))
    # (patch, side) slot k is patch k // 4, side k % 4
    q = np.stack([_edge_points(arr, side) for side in EdgeSide], axis=1).reshape(-1, 4, 3)
    limit = tol * scale
    live = np.flatnonzero(np.max(np.abs(q - q[:, :1]), axis=(1, 2)) > limit)
    q = q[live]
    # Two edges can match only if an endpoint pair lies within tol*scale
    # in every coordinate, so hash endpoints to cells of that width and
    # probe the neighbouring cells (Teschner et al., VMV 2003).  The extra
    # 1e-12*scale keeps rounding in the quotient from putting matching
    # endpoints two cells apart, and keeps the cell nonzero at tol = 0.
    # The probe is a join: every edge's start key shifted into each of the
    # 27 neighbouring cells, looked up in the table of all start keys
    # (forward: start near start) and end keys (reversed: end near start).
    cell = (tol + 1e-12) * scale
    keys = np.floor(q[:, (0, 3)] / cell).astype(np.int64)  # (E, 2, 3)
    count = len(q)
    table = keys.transpose(1, 0, 2).reshape(-1, 3)  # starts, then ends
    table_codes, probe_codes = _neighbour_codes(table, keys[:, 0])
    # probe k, the start of edge k // 27 shifted by offset k % 27, unless a miss
    probes = np.flatnonzero(probe_codes >= 0)
    probe_codes = probe_codes.reshape(-1)[probes]
    order = np.argsort(table_codes, kind="stable")
    ranked = table_codes[order]
    lo = np.searchsorted(ranked, probe_codes, side="left")
    hits = np.searchsorted(ranked, probe_codes, side="right") - lo
    first = np.repeat(lo - np.cumsum(hits) + hits, hits) + np.arange(hits.sum())
    i = np.repeat(probes // len(_NEIGHBOUR_OFFSETS), hits)
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
