"""Patch sampling, triangulation patterns, normals and edge continuity."""

from __future__ import annotations

import itertools
from collections import Counter
from enum import Enum
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .patches import (
    _SIDE_SLOTS,
    BezierPatch,
    _key_codes,
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
    pattern = TessPattern(pattern)  # a member or its value; ValueError for anything else
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
            # face-average fallback over the triangles that touch a degenerate vertex
            bad = ~ok.reshape(len(arr), per_patch).all(axis=1)
            t = tris.reshape(len(arr), -1, 3)[bad].reshape(-1, 3)
            t = t[(~ok)[t].any(axis=1)]
            face_n = _cross(
                vertices[t[:, 1]] - vertices[t[:, 0]], vertices[t[:, 2]] - vertices[t[:, 0]]
            )
            # each bin sums its faces in triangle order, as np.add.at would
            acc = np.stack(
                [np.bincount(t.ravel(), f.repeat(3), minlength=len(normals)) for f in face_n.T],
                axis=1,
            )[~ok]
            length = _norm(acc)[:, None]
            normals[~ok] = np.divide(
                acc, length, out=np.tile((0.0, 0.0, 1.0), (len(acc), 1)), where=length > 1e-300
            )
    return TriangleMesh(vertices=vertices, triangles=tris, normals=normals)


def _unit_normals(du: np.ndarray, dv: np.ndarray):
    """Unit du x dv along the last axis, and the mask of where it is defined:
    it is not where |du x dv| <= 1e-12 * max(1, |du| |dv|)."""
    cross = _cross(du, dv)
    norm = _norm(cross)
    scale = np.maximum(1.0, _norm(du) * _norm(dv))
    ok = norm > 1e-12 * scale
    return cross / np.where(ok, norm, 1.0)[..., None], ok


# The two 3-vector kernels below form each value with the operations, in
# the order, that np.cross and np.linalg.norm(..., axis=-1) use, so their
# bits are those functions' bits, without their generic set-up per call.

def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b along the last axis: (a1 b2 - a2 b1, a2 b0 - a0 b2, a0 b1 - a1 b0)."""
    a0, a1, a2 = np.moveaxis(a, -1, 0)
    b0, b1, b2 = np.moveaxis(b, -1, 0)
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _norm(v: np.ndarray):
    """The length sqrt((x x + y y) + z z) along the last axis; a scalar for one vector."""
    square = v * v
    return np.sqrt(square[..., 0] + square[..., 1] + square[..., 2])


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

# Per side, in EdgeSide order (the rows of ``patches._SIDE_SLOTS``): whether
# u is its fixed parameter, and the fixed parameter's value.
_SIDE_CODE = {side: k for k, side in enumerate(EdgeSide)}
_SIDE_NAMES = tuple(side.value for side in EdgeSide)
_SIDE_FIXES_U = np.array([True, True, False, False])
_SIDE_FIXED_AT = np.array([0, 1, 0, 1])
_NEIGHBOUR_OFFSETS = np.array(list(itertools.product((-1, 0, 1), repeat=3)))


def _record_array(records) -> np.ndarray:
    """The (E, 2, 3) array of adjacency records: per record, side a then
    side b, each (patch, side code in EdgeSide order, reversed 0/1).  An
    array is returned once its shape and codes are checked.  A list of
    Adjacency or of their six fields gives an object array of Python ints,
    so no index can overflow before a range check reads it as intp."""
    if isinstance(records, np.ndarray):
        codes = records[..., 1:]
        if records.shape[1:] != (2, 3) or ((codes < 0) | (codes > (3, 1))).any():
            raise ValueError("records must be (E, 2, 3), side codes 0..3 and flags 0 or 1")
        return records
    rows = (r if not isinstance(r, Adjacency) else
            (r.a, _SIDE_CODE[EdgeSide(r.edge_a.side)], r.edge_a.reversed,
             r.b, _SIDE_CODE[EdgeSide(r.edge_b.side)], r.edge_b.reversed) for r in records)
    # one flat list: numpy reads it far faster than nested rows
    return np.array([field for row in rows for field in row], dtype=object).reshape(-1, 2, 3)


def _checked_records(records, count: int, error=ValueError, alone: bool = False) -> np.ndarray:
    """``_record_array(records)`` as intp, once each patch index is in 0..count-1
    and, with ``alone``, no edge is marked adjacent to itself; else ``error``
    for the first bad record's first fault (a's index, b's, the edge itself)."""
    records = _record_array(records)
    index, side = records[..., 0], records[..., 1]
    bad = np.column_stack([(index < 0) | (index >= count),
                           alone & (index[:, 0] == index[:, 1]) & (side[:, 0] == side[:, 1])])
    if bad.any():
        k, check = divmod(int(np.argmax(bad)), 3)
        raise error(f"adjacency index {index[k, check]} out of range" if check < 2 else
                    f"patch {index[k, 0]} edge {_SIDE_NAMES[side[k, 0]]} marked adjacent to itself")
    return records.astype(np.intp)


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


def continuity_measures(patches: Sequence[BezierPatch], records, n: int) -> np.ndarray:
    """The (len(records), 3) array of every record's C0 gap, C1 mismatch
    and G1 angle, in one array pass; ``records`` is a list of Adjacency or
    their (E, 2, 3) array (see ``_record_array``).  A patch index out of
    range raises ValueError; an edge may be measured against itself.

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
    arr = _patch_array(patches)
    # Both edges of every record, a-sides first, then b-sides.
    which, side, flip = _checked_records(records, len(arr)).transpose(2, 1, 0).reshape(3, -1)
    flip = flip.astype(bool)
    slots = _SIDE_SLOTS[side]
    slots[flip] = slots[flip, ::-1]
    u_edge = _SIDE_FIXES_U[side][:, None]

    ts = np.arange(n + 1) / n
    q = arr.reshape(-1, 3, 16)[which[:, None], :, slots]  # (2E, 4, 3)
    half = len(which) // 2
    gap = bernstein_weights_many(ts) @ (q[:half] - q[half:])  # (E, n+1, 3)

    # Every u and v is one of the 2n+2 parameters ts and 1 - ts (the running
    # parameter of a reversed edge); the fixed one, 0 or 1, is ts[0] or
    # ts[n].  One table of (dB, B) rows over them; each edge gathers its own.
    params = np.concatenate([ts, 1.0 - ts])
    table = np.stack([bernstein_dweights_many(params), bernstein_weights_many(params)], axis=1)
    tau = np.arange(n + 1) + (n + 1) * flip[:, None]
    fixed = n * _SIDE_FIXED_AT[side][:, None]
    u, v = np.where(u_edge, fixed, tau), np.where(u_edge, tau, fixed)
    # Rows k = 0 weigh the grid by (dB(u), B(v)) for dP/du, rows k = 1 by
    # (B(u), dB(v)) for dP/dv; both partials of all edges in one product.
    shape = (len(which), 2 * (n + 1), 4)
    wu, wv = table[u].reshape(shape), table[v, ::-1].reshape(shape)
    d = np.einsum("ecmj,emj->emc", wu[:, None] @ arr[which], wv).reshape(-1, n + 1, 2, 3)
    normal, ok = _unit_normals(d[:, :, 0], d[:, :, 1])
    transverse = np.where(u_edge[..., None], d[:, :, 0], d[:, :, 1])
    na, nb = normal[:half], normal[half:]
    # atan2 form stays accurate for nearly parallel normals where
    # arccos of the dot product would lose half the precision
    angle = np.arctan2(_norm(_cross(na, nb)), np.sum(na * nb, axis=-1))
    c0 = np.max(_norm(gap), axis=1)
    c1 = np.max(_norm(transverse[:half] - transverse[half:]), axis=1)
    g1 = np.max(np.where(ok[:half] & ok[half:], angle, 0.0), axis=1)
    return np.stack([c0, c1, g1], axis=1)


def detect_adjacency(patches: Sequence[BezierPatch], tol: float = 1e-9) -> list:
    """Find patch edges that carry the same control points, either orientation.

    Forward matches are preferred over reversed ones; zero-length edges
    (all four control points coincident) are skipped since they bound no
    shared curve.  The tolerance is relative to the coordinate scale of
    the whole set.  Records come in the order of (patch, side) of the
    first edge, then of the second, as Adjacency views of ``_adjacency``.
    """
    ids = [[EdgeId(side, flip) for side in EdgeSide] for flip in (False, True)]
    fields = _adjacency(patches, tol).reshape(-1, 6).T.tolist()  # six lists convert fastest
    return [Adjacency(a, ids[ra][sa], b, ids[rb][sb]) for a, sa, ra, b, sb, rb in zip(*fields)]


def _adjacency(patches, tol: float = 1e-9) -> np.ndarray:
    """``detect_adjacency``'s records as one (E, 2, 3) intp array (see ``_record_array``)."""
    arr = _patch_array(patches)
    scale = max(1.0, float(np.max(np.abs(arr), initial=0.0)))
    # (patch, side) slot k is patch k // 4, side k % 4
    q = np.moveaxis(arr.reshape(-1, 3, 16)[..., _SIDE_SLOTS], 1, -1).reshape(-1, 4, 3)
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
    table_codes, probe_codes = _key_codes(table, keys[:, 0])
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
    slots = np.stack([live[i[match]], live[k[match]]], axis=1)  # (E, 2)
    flip = np.stack([np.zeros_like(slots[:, 0]), ~forward[match]], axis=1)
    return np.stack([slots // 4, slots % 4, flip], axis=2)
