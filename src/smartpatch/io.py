"""Persistence and interchange: JSON patch sets, Newell-format files, OBJ.

The JSON document schema::

    {
      "name": str,
      "patches": [ {"x": [[...4],...4], "y": [[...]], "z": [[...]]} , ... ],
      "adjacency": [ {"a": int, "edge_a": "U0|U1|V0|V1", "reversed_a": bool,
                      "b": int, "edge_b": ..., "reversed_b": bool}, ... ]
    }

``adjacency`` is optional.  Floats are serialized with shortest
round-trip precision, so save/load is bit-exact and output is
deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from .patches import BezierPatch
from .tessellation import Adjacency, EdgeId, EdgeSide, TriangleMesh


class PatchFormatError(ValueError):
    """Malformed patch-set or mesh input."""


@dataclass
class PatchSet:
    name: str
    patches: List[BezierPatch]
    adjacency: Optional[List[Adjacency]] = None

    def __post_init__(self):
        if self.adjacency is not None:
            for rec in self.adjacency:
                for idx in (rec.a, rec.b):
                    if not (0 <= idx < len(self.patches)):
                        raise PatchFormatError(f"adjacency index {idx} out of range")
                if rec.a == rec.b and rec.edge_a.side == rec.edge_b.side:
                    raise PatchFormatError(
                        f"patch {rec.a} edge {rec.edge_a.side.value} marked adjacent to itself"
                    )


def _grid_from_json(values, patch_idx: int, coord: str):
    if (
        not isinstance(values, list)
        or len(values) != 4
        or any(not isinstance(row, list) or len(row) != 4 for row in values)
    ):
        raise PatchFormatError(f"patch {patch_idx}: grid '{coord}' must be 4 rows of 4 numbers")
    for row in values:
        for x in row:
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise PatchFormatError(f"patch {patch_idx}: grid '{coord}' has a non-numeric entry")
            if not math.isfinite(x):
                raise PatchFormatError(f"patch {patch_idx}: grid '{coord}' has a non-finite entry")
    return values


def _edge_from_json(rec: dict, which: str, idx: int) -> EdgeId:
    side = rec.get(f"edge_{which}")
    try:
        side = EdgeSide(side)
    except ValueError:
        raise PatchFormatError(f"adjacency {idx}: bad edge_{which} {side!r}") from None
    return EdgeId(side=side, reversed=bool(rec.get(f"reversed_{which}", False)))


def load_patchset(text: str) -> PatchSet:
    """Parse and fully validate a patch-set JSON document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise PatchFormatError(f"JSON parse error at line {e.lineno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise PatchFormatError("top-level JSON value must be an object")
    if "patches" not in doc or not isinstance(doc["patches"], list):
        raise PatchFormatError("document needs a 'patches' list")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise PatchFormatError("'name' must be a string")
    patches = []
    for k, entry in enumerate(doc["patches"]):
        if not isinstance(entry, dict):
            raise PatchFormatError(f"patch {k}: must be an object with x/y/z grids")
        grids = {}
        for coord in ("x", "y", "z"):
            if coord not in entry:
                raise PatchFormatError(f"patch {k}: missing grid '{coord}'")
            grids[coord] = _grid_from_json(entry[coord], k, coord)
        patches.append(BezierPatch(grids["x"], grids["y"], grids["z"]))
    adjacency = None
    if doc.get("adjacency") is not None:
        if not isinstance(doc["adjacency"], list):
            raise PatchFormatError("'adjacency' must be a list")
        adjacency = []
        for k, rec in enumerate(doc["adjacency"]):
            if not isinstance(rec, dict) or "a" not in rec or "b" not in rec:
                raise PatchFormatError(f"adjacency {k}: must be an object with 'a' and 'b'")
            adjacency.append(
                Adjacency(
                    a=int(rec["a"]),
                    edge_a=_edge_from_json(rec, "a", k),
                    b=int(rec["b"]),
                    edge_b=_edge_from_json(rec, "b", k),
                )
            )
    return PatchSet(name=name, patches=patches, adjacency=adjacency)


def _num(x: float):
    # ints inside grids survive as ints in JSON; normalize to float for
    # deterministic shortest-round-trip output
    return float(x)


def dump_patchset(ps: PatchSet) -> str:
    doc = {
        "name": ps.name,
        "patches": [
            {
                coord: [[_num(v) for v in row] for row in grid.tolist()]
                for coord, grid in zip("xyz", p.grids)
            }
            for p in ps.patches
        ],
    }
    if ps.adjacency is not None:
        doc["adjacency"] = [
            {
                "a": rec.a,
                "edge_a": rec.edge_a.side.value,
                "reversed_a": rec.edge_a.reversed,
                "b": rec.b,
                "edge_b": rec.edge_b.side.value,
                "reversed_b": rec.edge_b.reversed,
            }
            for rec in ps.adjacency
        ]
    return json.dumps(doc, indent=1)


def read_patchset(path) -> PatchSet:
    return load_patchset(Path(path).read_text())


def write_patchset(ps: PatchSet, path) -> None:
    Path(path).write_text(dump_patchset(ps) + "\n")


# ---------------------------------------------------------------------------
# Newell-format ingestion


def load_newell(text: str, name: str = "newell") -> PatchSet:
    """Parse the classic teapot interchange format.

    A patch count, then one line of 16 comma-separated one-based vertex
    indices per patch (row-major in u), then a vertex count, then one
    comma-separated x,y,z line per vertex.
    """
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

    no, ln = take("patch count")
    try:
        patch_count = int(ln)
    except ValueError:
        raise PatchFormatError(f"line {no}: expected patch count, got {ln!r}") from None
    index_rows = []
    for _ in range(patch_count):
        no, ln = take("patch indices")
        parts = ln.split(",")
        if len(parts) != 16:
            raise PatchFormatError(f"line {no}: expected 16 indices, got {len(parts)}")
        try:
            idx = [int(p) for p in parts]
        except ValueError:
            raise PatchFormatError(f"line {no}: non-integer patch index") from None
        index_rows.append((no, idx))
    no, ln = take("vertex count")
    try:
        vertex_count = int(ln)
    except ValueError:
        raise PatchFormatError(f"line {no}: expected vertex count, got {ln!r}") from None
    vertices = np.empty((vertex_count, 3))
    for k in range(vertex_count):
        no, ln = take("vertex coordinates")
        parts = ln.split(",")
        if len(parts) != 3:
            raise PatchFormatError(f"line {no}: expected 3 coordinates, got {len(parts)}")
        try:
            vertices[k] = [float(p) for p in parts]
        except ValueError:
            raise PatchFormatError(f"line {no}: non-numeric coordinate") from None
    if pos != len(lines):
        raise PatchFormatError(f"line {lines[pos][0]}: trailing content after vertex table")

    patches = []
    for no, idx in index_rows:
        for i in idx:
            if not (1 <= i <= vertex_count):
                raise PatchFormatError(f"line {no}: vertex index {i} out of range 1..{vertex_count}")
        pts = vertices[np.array(idx) - 1].reshape(4, 4, 3)
        patches.append(BezierPatch(pts[:, :, 0], pts[:, :, 1], pts[:, :, 2]))
    return PatchSet(name=name, patches=patches)


def read_newell(path) -> PatchSet:
    p = Path(path)
    return load_newell(p.read_text(), name=p.stem)


# ---------------------------------------------------------------------------
# OBJ export


def _rows(a: np.ndarray):
    """Rows of ``a`` as lists of Python numbers, converted a block at a time
    so the whole array never exists as Python objects at once."""
    for start in range(0, len(a), 1024):
        yield from a[start : start + 1024].tolist()


def export_obj(mesh: TriangleMesh) -> str:
    """Serialize a mesh as ASCII OBJ (one-based indices, deterministic)."""
    out = [f"v {x!r} {y!r} {z!r}" for x, y, z in _rows(mesh.vertices)]
    faces = _rows(mesh.triangles + 1)
    if mesh.normals is not None:
        out += [f"vn {x!r} {y!r} {z!r}" for x, y, z in _rows(mesh.normals)]
        out += [f"f {i}//{i} {j}//{j} {k}//{k}" for i, j, k in faces]
    else:
        out += [f"f {i} {j} {k}" for i, j, k in faces]
    return "\n".join(out) + ("\n" if out else "")


def write_obj(mesh: TriangleMesh, path) -> None:
    Path(path).write_text(export_obj(mesh))
