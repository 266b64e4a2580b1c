"""Output checks, run outside the timed region.

Each check returns its failures (an empty list means the operation
passed): messages for a pipeline call, (item, message) pairs for a batch.  The oracles here are the benchmark's own: float
residuals against the constraint matrix, a pseudo-inverse projection,
edge matching and Bernstein sampling written with numpy alone.
"""

from __future__ import annotations

import numpy as np

from generators import edges

TOL = 1e-9              # the pipeline's compliance tolerance
EDGE_SLACK = 1e-12      # allowed C0 growth per edge, relative to scale
PROJECT_TOL = 1e-9      # bs_project vs the pinv oracle, relative to scale
EXACT_TOL = 1e-12       # residuals, inner identity, Hermite round trip
CORNERS = (0, 3, 12, 15)
NONCORNERS = tuple(k for k in range(16) if k not in CORNERS)


def scale_of(values) -> float:
    """max(1, max |value|), the scale every relative tolerance uses."""
    return max(1.0, float(np.max(np.abs(values))))


# ---------------------------------------------------------------------------
# pipelines


def find_pairs(patches: np.ndarray, tol: float = TOL):
    """Edge pairs (i, k, reversed) matching within ``tol`` relative to scale.

    Indices run over the (P * 4) sides U0, U1, V0, V1.  Collapsed edges are
    skipped and a forward match wins over a reversed one.
    """
    q = edges(patches).reshape(-1, 4, 3)
    limit = tol * scale_of(patches)
    live = np.flatnonzero(np.max(np.abs(q - q[:, :1]), axis=(1, 2)) > limit)
    flat = q[live].reshape(len(live), 12)
    flat_rev = q[live][:, ::-1].reshape(len(live), 12)
    pairs = []
    for a in range(len(live)):
        rest = flat[a + 1 :]
        fwd = np.max(np.abs(rest - flat[a]), axis=1) <= limit
        rev = np.max(np.abs(flat_rev[a + 1 :] - flat[a]), axis=1) <= limit
        for off in np.flatnonzero(fwd | rev):
            pairs.append((int(live[a]), int(live[a + 1 + off]), not fwd[off]))
    return pairs, len(live)


def edge_gaps(patches: np.ndarray, pairs, n: int) -> np.ndarray:
    """Largest distance between paired edge curves at t = k/n, per pair."""
    if not pairs:
        return np.zeros(0)
    q = edges(patches).reshape(-1, 4, 3)
    a = np.array([p[0] for p in pairs])
    b = np.array([p[1] for p in pairs])
    qb = q[b]
    rev = np.array([p[2] for p in pairs])
    qb[rev] = qb[rev][:, ::-1]
    t = np.linspace(0.0, 1.0, n + 1)[:, None]
    weights = np.hstack([(1 - t) ** 3, 3 * t * (1 - t) ** 2, 3 * t**2 * (1 - t), t**3])
    diff = np.einsum("tk,pkc->ptc", weights, q[a] - qb)
    return np.max(np.linalg.norm(diff, axis=2), axis=1)


def scales_of(items: np.ndarray) -> np.ndarray:
    """scale_of for each item along the first axis."""
    return np.maximum(1.0, np.max(np.abs(items.reshape(len(items), -1)), axis=1))


def residuals(grids: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """max |lam @ vec(g)| / scale(g) for each of the (..., 4, 4) grids."""
    flat = grids.reshape(-1, 16)
    return np.max(np.abs(flat @ lam.T), axis=1) / scales_of(flat)


def check_pipeline(exit_code, report, obj_lines, before, after, expect, lam) -> list:
    """One `smartpatch teapot` call.

    ``before`` and ``after`` are (P, 4, 4, 3) arrays of the input and the
    repaired set; ``expect`` holds patches, n, normals and shared_edges.
    """
    fails = []
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    npatch, n = expect["patches"], expect["n"]
    if report.get("tolerance") != TOL:
        fails.append(f"tolerance {report.get('tolerance')} != {TOL}")
    if report["after"]["noncompliant_patches"] != 0:
        fails.append(f"{report['after']['noncompliant_patches']} noncompliant patches after repair")
    if report["max_corner_displacement"] != 0.0:
        fails.append(f"corner displacement {report['max_corner_displacement']!r}")
    if report["shared_edges"] != expect["shared_edges"]:
        fails.append(f"shared_edges {report['shared_edges']} != {expect['shared_edges']}")
    verts, tris = npatch * (n + 1) ** 2, 2 * npatch * n * n
    if report["mesh"] != {"vertices": verts, "triangles": tris}:
        fails.append(f"mesh {report['mesh']} != {verts} vertices, {tris} triangles")
    want_lines = verts * (2 if expect["normals"] else 1) + tris
    if obj_lines != want_lines:
        fails.append(f"OBJ has {obj_lines} lines, want {want_lines}")
    if after.shape != before.shape:
        return fails + [f"repaired set has shape {after.shape}, input {before.shape}"]
    corner = (slice(None), [0, 0, 3, 3], [0, 3, 0, 3])
    if not np.array_equal(after[corner], before[corner]):
        fails.append("a corner control point moved")
    worst = float(np.max(residuals(np.moveaxis(after, 3, 1), lam)))
    if worst > TOL:
        fails.append(f"repaired residual {worst:.3e} > {TOL}")
    pairs, _ = find_pairs(before)
    if len(pairs) != expect["shared_edges"]:
        fails.append(f"oracle finds {len(pairs)} shared edges, want {expect['shared_edges']}")
    slack = EDGE_SLACK * scale_of(before)
    grown = edge_gaps(after, pairs, n) - edge_gaps(before, pairs, n)
    if np.any(grown > slack):
        k = int(np.argmax(grown))
        fails.append(f"C0 gap grew by {grown[k]:.3e} on edge pair {pairs[k]}")
    return fails


# ---------------------------------------------------------------------------
# grids


def projection_oracle(lam: np.ndarray):
    """Min-norm projection of (N, 4, 4) grids onto lam @ vec(g) == 0, corners fixed."""
    l1, l2 = lam[:, CORNERS], lam[:, NONCORNERS]
    pinv = np.linalg.pinv(l2)

    def project(grids: np.ndarray) -> np.ndarray:
        flat = grids.reshape(-1, 16)
        xi1, xi2 = flat[:, CORNERS], flat[:, NONCORNERS]
        out = flat.copy()
        out[:, NONCORNERS] = xi2 - (xi2 @ l2.T + xi1 @ l1.T) @ pinv.T
        return out.reshape(grids.shape)

    return project


def _each(values, message, limit):
    """(index, message) for every value above ``limit`` (NaN counts as above)."""
    bad = np.flatnonzero(~(np.asarray(values) <= limit))
    return [(int(k), message.format(k=int(k), v=float(values[k]))) for k in bad]


def check_grids(grids, reported_before, projected, reported_after, inner, oracle, lam) -> list:
    """One batch of bs_residuals -> bs_project -> bs_residuals -> bs_inner_identity.

    This and the two checks below return (item index, message) pairs, so a
    batch counts each failing item once.
    """
    scales = scales_of(grids)
    fails = _each(np.abs(reported_before - residuals(grids, lam)), "grid {k}: residual off the oracle by {v:.3e}",
                  EXACT_TOL)
    corner = (slice(None), [0, 0, 3, 3], [0, 3, 0, 3])
    moved = np.flatnonzero(np.any(projected[corner] != grids[corner], axis=1))
    fails += [(int(k), f"grid {int(k)}: bs_project moved a corner") for k in moved]
    off = np.max(np.abs(projected - oracle(grids)).reshape(len(grids), -1), axis=1) / scales
    fails += _each(off, "grid {k}: bs_project off the oracle by {v:.3e}", PROJECT_TOL)
    fails += _each(reported_after, "grid {k}: residual {v:.3e} after projection", EXACT_TOL)
    fails += _each(np.abs(inner) / scales, "grid {k}: inner identity off by {v:.3e}", EXACT_TOL)
    return fails


def check_solves(corners, free, solved, free_cells, lam) -> list:
    """One batch of bs_solve(corners, free) results."""
    fails = []
    got_corners = solved.reshape(-1, 16)[:, CORNERS]
    fails += [(int(k), f"draw {int(k)}: corners changed")
              for k in np.flatnonzero(np.any(got_corners != corners, axis=1))]
    rows, cols = zip(*free_cells)
    got_free = solved[:, list(rows), list(cols)]
    fails += [(int(k), f"draw {int(k)}: free cells changed")
              for k in np.flatnonzero(np.any(got_free != free, axis=1))]
    fails += _each(residuals(solved, lam), "draw {k}: solved grid residual {v:.3e}", EXACT_TOL)
    return fails


def check_roundtrips(originals, returned) -> list:
    """Bezier -> Hermite -> Bezier; both arrays are (N, 3, 4, 4)."""
    err = np.max(np.abs(returned - originals).reshape(len(originals), -1), axis=1)
    err = err / scales_of(originals)
    return _each(err, "round trip {k}: error {v:.3e}", EXACT_TOL)
