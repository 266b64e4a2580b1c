"""Seeded inputs for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the
same bytes.  Nothing here imports smartpatch; the program only ever sees
the files and arrays that ``write_inputs`` leaves in a directory.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

GRID_LOW, GRID_HIGH = -10.0, 10.0


# ---------------------------------------------------------------------------
# Newell files


def parse_newell(text: str):
    """Index rows (one-based, 16 per patch) and the (V, 3) vertex table."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    count = int(lines[0])
    rows = [[int(p) for p in ln.split(",")] for ln in lines[1 : 1 + count]]
    nverts = int(lines[1 + count])
    verts = np.array(
        [[float(p) for p in ln.split(",")] for ln in lines[2 + count : 2 + count + nverts]]
    )
    return rows, verts


def format_newell(rows, verts) -> str:
    """Newell text with shortest round-trip floats, so parsing is bit-exact."""
    out = [str(len(rows))]
    out += [",".join(str(int(i)) for i in row) for row in rows]
    out.append(str(len(verts)))
    out += [",".join(repr(float(c)) for c in v) for v in verts]
    return "\n".join(out) + "\n"


def patch_array(rows, verts) -> np.ndarray:
    """(P, 4, 4, 3) control points; [p, i, j] with i along u, j along v."""
    return verts[np.asarray(rows) - 1].reshape(len(rows), 4, 4, 3)


# ---------------------------------------------------------------------------
# teapot: patch order and rigid motion


def rigid_motion(seed: int):
    """Rotation (from a random unit quaternion) and shift; seed 0 is the identity."""
    if seed == 0:
        return np.eye(3), np.zeros(3)
    rng = np.random.default_rng([seed, 1])
    q = rng.standard_normal(4)
    w, x, y, z = q / np.sqrt(np.sum(q * q))
    rot = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    return rot, rng.uniform(-2.0, 2.0, 3)


def apply_motion(verts: np.ndarray, rot: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Move every vertex with the same elementwise operations.

    Written out per component instead of as a matrix product, so two
    bit-identical input rows give bit-identical output rows wherever they
    sit in the table.
    """
    x, y, z = verts[:, 0], verts[:, 1], verts[:, 2]
    return np.stack(
        [rot[k, 0] * x + rot[k, 1] * y + rot[k, 2] * z + shift[k] for k in range(3)], axis=1
    )


def seeded_teapot(text: str, seed: int):
    """The Newell teapot with seeded patch order and rigid motion.

    Seed 0 returns the file's own rows and vertices unchanged.
    """
    rows, verts = parse_newell(text)
    if seed == 0:
        return rows, verts
    order = np.random.default_rng([seed, 0]).permutation(len(rows))
    return [rows[k] for k in order], apply_motion(verts, *rigid_motion(seed))


# ---------------------------------------------------------------------------
# split-teapot: de Casteljau subdivision at t = 1/2


def _halve(p: np.ndarray, axis: int):
    """Split cubic control points along ``axis`` at t = 1/2.

    Every midpoint is (a + b) * 0.5, which is symmetric in a and b, so an
    edge traversed backwards splits into the same bits.
    """
    p0, p1, p2, p3 = (np.take(p, k, axis=axis) for k in range(4))
    m01, m12, m23 = (p0 + p1) * 0.5, (p1 + p2) * 0.5, (p2 + p3) * 0.5
    m012, m123 = (m01 + m12) * 0.5, (m12 + m23) * 0.5
    mid = (m012 + m123) * 0.5
    return (np.stack([p0, m01, m012, mid], axis=axis),
            np.stack([mid, m123, m23, p3], axis=axis))


def split_patches(patches: np.ndarray) -> np.ndarray:
    """(P, 4, 4, 3) -> (4P, 4, 4, 3); children of patch k sit at 4k..4k+3."""
    lo_u, hi_u = _halve(patches, 1)
    quads = [half for part in (lo_u, hi_u) for half in _halve(part, 2)]
    return np.stack(quads, axis=1).reshape(-1, 4, 4, 3)


def edges(patches: np.ndarray) -> np.ndarray:
    """(P, 4, 4, 3) control points of the sides U0, U1, V0, V1 of each patch."""
    return np.stack(
        [patches[:, 0, :], patches[:, 3, :], patches[:, :, 0], patches[:, :, 3]], axis=1
    )


def exact_shared_pairs(patches: np.ndarray) -> int:
    """Edge pairs whose control points are bit-identical, either direction.

    Collapsed edges (four identical points) bound no curve and are skipped.
    """
    groups: dict = {}
    for q in edges(patches).reshape(-1, 4, 3):
        if (q == q[0]).all():
            continue
        key = min(q.tobytes(), q[::-1].tobytes())
        groups[key] = groups.get(key, 0) + 1
    return sum(k * (k - 1) // 2 for k in groups.values())


def split_teapot(rows, verts):
    """Subdivide every patch 2x2 and rebuild a deduplicated vertex table.

    Self-check: each parent pair of bit-identical edges becomes two child
    pairs, and each parent adds four internal pairs, all bit-identical.
    """
    parents = patch_array(rows, verts)
    children = split_patches(parents)
    want = 2 * exact_shared_pairs(parents) + 4 * len(parents)
    got = exact_shared_pairs(children)
    if got != want:
        raise RuntimeError(f"split lost shared edges: {got} bit-identical pairs, want {want}")
    index: dict = {}
    table = []
    new_rows = []
    for child in children.reshape(-1, 16, 3):
        row = []
        for point in child:
            key = point.tobytes()
            if key not in index:
                index[key] = len(table) + 1
                table.append(point)
            row.append(index[key])
        new_rows.append(row)
    return new_rows, np.array(table)


# ---------------------------------------------------------------------------
# grids: random control grids and (corner, free) draws


def grid_draws(seed: int, count: int):
    """``count`` grids in [-10, 10]^(4x4), and ``count`` (4 corners, 7 free) draws."""
    grids = np.random.default_rng([seed, 2]).uniform(GRID_LOW, GRID_HIGH, (count, 4, 4))
    draws = np.random.default_rng([seed, 3]).uniform(GRID_LOW, GRID_HIGH, (count, 11))
    return grids, draws[:, :4], draws[:, 4:]


# ---------------------------------------------------------------------------
# the files a workload reads


GRID_COUNT = 2000


def write_inputs(workload: str, root: Path, out: Path, seed: int) -> None:
    """Write the seeded inputs of ``workload`` into the directory ``out``.

    Pipelines get ``input.newell`` and ``before.npy`` (its (P, 4, 4, 3)
    control points, for the checks); ``grids`` gets ``grids.npy``,
    ``corners.npy`` and ``free.npy``.
    """
    if workload in ("teapot", "split-teapot"):
        rows, verts = seeded_teapot((root / "data" / "teapot.newell").read_text(), seed)
        if workload == "split-teapot":
            rows, verts = split_teapot(rows, verts)
        (out / "input.newell").write_text(format_newell(rows, verts))
        np.save(out / "before.npy", patch_array(rows, verts))
    elif workload == "grids":
        for name, array in zip(("grids", "corners", "free"), grid_draws(seed, GRID_COUNT)):
            np.save(out / f"{name}.npy", array)
    else:
        raise ValueError(f"unknown workload {workload!r}")
