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

from .patches import BezierPatch, bezier_patches
from .tessellation import Adjacency, EdgeId, EdgeSide, TriangleMesh


class PatchFormatError(ValueError):
    """Malformed patch-set or mesh input."""


# ---------------------------------------------------------------------------
# Float text: repr(x) for every value, with the digits decided in array passes

# built from Python ints: exact, and no numpy ufunc runs at import
_POW10 = np.array([float(10**k) for k in range(23)])
_IPOW10 = np.array([10**k for k in range(18)], dtype=np.int64)
# Indexed by sign, whole part (0-9 written out, 10 for a "%d" field) and
# width w of the digits after the point: a "%0{w}d" field, or "%d" (w = 0)
# when the first of them is not a zero.
_FRAGMENTS = np.array(
    [
        f"{sign}{whole}.%0{w}d" if w else f"{sign}{whole}.%d"
        for sign in ("", "-")
        for whole in [*"0123456789", "%d"]
        for w in range(21)
    ],
    dtype=object,
).reshape(2, 11, 21)


def _split(v):
    """Dekker's split of doubles into two halves of at most 26 bits."""
    t = v * 134217729.0
    hi = t - (t - v)
    return hi, v - hi


def _two_product(a, b):
    """hi + lo == a·b exactly, with hi = fl(a·b) (Dekker's TwoProduct)."""
    (ah, al), (bh, bl) = _split(a), _split(b)
    hi = a * b
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _shortest(a):
    """The digits D, the count of digits after the point and a "decided"
    mask for each of ``a``'s values (|x|), with |x| = D·10^-point.

    With e the decimal exponent of |x| and s = 16 - e, X = |x|·10^s is
    formed exactly as hi + lo (10^s is exact for s <= 22), so hi is a
    17-digit integer.  The 17-, 16- and 15-digit candidates are X rounded
    to a multiple of 1, 10 and 100.  The shortest one strictly inside x's
    half-ulp interval, scaled by 10^s, less its trailing zeros, is
    ``repr``'s digit string (Gay's shortest round trip: the nearest of the
    shortest).  Shorter forms need no more candidates: the interval is
    narrower than 100, so it holds at most one multiple of 100, and every
    shorter form is one.  Undecided: zeros, non-finite values, exponents
    outside repr's positional range -4 <= e < 16 (subnormals included),
    exponents log10 misjudged, powers of two (whose interval is not
    symmetric) and any decision within 1e-9 of its threshold."""
    mantissa, exponent = np.frexp(a)
    fast = (a >= 1e-4) & (a < 1e16) & (mantissa != 0.5)
    a = np.where(fast, a, 3.0)
    s = 16 - np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _two_product(a, _POW10[s])
    fast &= (hi > 1e16) & (hi < 1e17)  # log10 may misjudge e by one
    half_ulp = np.ldexp(_POW10[s], exponent - 54)  # > 0.55: the 17-digit candidate is inside
    f100, r100 = np.divmod(hi.astype(np.int64), 100)
    t = r100 + lo  # X - 100·f100
    digits, point = 0, s + 1
    for unit in (1, 10, 100):
        n = np.rint(t / unit)  # the nearest multiple, in units
        d = np.abs(t - n * unit)
        inside = d < half_ulp
        fast &= (np.abs(d - half_ulp) > 1e-9) & ~(inside & (np.abs(d - unit / 2) <= 1e-9))
        n = f100 * (100 // unit) + n.astype(np.int64)
        digits = np.where(inside, n, digits)
        point -= inside
    short = n.astype(float)  # the 15-digit candidate, < 2**53, so exact
    for z in (8, 4, 2, 1):  # strip its trailing zeros
        q = short / _POW10[z]
        strip = inside & (q == np.floor(q))
        short = np.where(strip, q, short)
        point -= z * strip
    return np.where(inside, short.astype(np.int64), digits), point, fast


def _fields(x):
    """One fragment of ``_FRAGMENTS`` per value of the float64 vector ``x``
    (its literal repr where ``_shortest`` leaves it undecided), and the
    "%d" values that fill them, as lists."""
    digits, point, fast = _shortest(np.abs(x))
    zero = x == 0
    digits[zero], point[zero] = 0, 1
    fast |= zero
    whole, frac = np.divmod(digits, _IPOW10[np.clip(point, 0, 17)])
    whole *= _IPOW10[np.clip(-point, 0, 17)]  # point <= 0: "D0.0"
    width = np.clip(point, 1, 20)
    padded = frac < _IPOW10[np.minimum(width - 1, 17)]
    frags = _FRAGMENTS[np.signbit(x).astype(np.intp), np.minimum(whole, 10), padded * width]
    slow = np.flatnonzero(~fast)
    frags[slow] = [repr(v) for v in x[slow].tolist()]
    ints = np.stack((whole, frac), axis=1)[np.stack((fast & (whole > 9), fast), axis=1)]
    return frags.tolist(), ints.tolist()


def _reprs(values) -> list:
    """``[repr(x) for x in values.ravel().tolist()]`` for a float64 array.

    ``_shortest`` decides the digits in array passes and ``_fields``
    turns them into fragments; one %-format fills them all.  The arrays
    are freed when ``_fields`` returns, before the text is built."""
    x = np.asarray(values, dtype=float).ravel()
    if not x.size:
        return []
    frags, ints = _fields(x)
    return ("\n".join(frags) % tuple(ints)).split("\n")


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


def _side_from_json(rec: dict, which: str, idx: int):
    """Record ``idx``'s patch index and edge on side ``which`` ("a" or "b")."""
    patch = rec[which]
    if isinstance(patch, bool) or not isinstance(patch, int):
        raise PatchFormatError(f"adjacency {idx}: '{which}' must be an integer, got {patch!r}")
    side = rec.get(f"edge_{which}")
    try:
        side = EdgeSide(side)
    except ValueError:
        raise PatchFormatError(f"adjacency {idx}: bad edge_{which} {side!r}") from None
    reversed_ = rec.get(f"reversed_{which}", False)
    if not isinstance(reversed_, bool):
        raise PatchFormatError(
            f"adjacency {idx}: 'reversed_{which}' must be true or false, got {reversed_!r}"
        )
    return patch, EdgeId(side=side, reversed=reversed_)


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
            (a, edge_a), (b, edge_b) = _side_from_json(rec, "a", k), _side_from_json(rec, "b", k)
            adjacency.append(Adjacency(a=a, edge_a=edge_a, b=b, edge_b=edge_b))
    return PatchSet(name=name, patches=patches, adjacency=adjacency)


# dump_patchset writes the text json.dumps(doc, indent=1) gives, from fixed
# templates: one per patch, filled with the ``_reprs`` of its 48 control
# values (json writes floats with float.__repr__), and one per adjacency
# record.
_GRID_ROWS = ",\n".join(["    [\n" + ",\n".join(["     %s"] * 4) + "\n    ]"] * 4)
_PATCH_TEMPLATE = "  {\n" + ",\n".join(f'   "{c}": [\n{_GRID_ROWS}\n   ]' for c in "xyz") + "\n  }"
_RECORD_KEYS = ("a", "edge_a", "reversed_a", "b", "edge_b", "reversed_b")
_RECORD_TEMPLATE = "  {\n" + ",\n".join(f'   "{k}": %s' for k in _RECORD_KEYS) + "\n  }"


def _json_list(items):
    """The pieces of an indent=1 JSON list at the document's second level."""
    sep = "[\n"
    for item in items:
        yield from (sep, item)
        sep = ",\n"
    yield "[]" if sep == "[\n" else "\n ]"


def _patchset_pieces(ps: PatchSet):
    """The text json.dumps(doc, indent=1) gives for the patch set, in pieces
    of at most 64 patches, so a writer never holds the whole document.

    Every control value is written as a float, so integer-valued entries
    read back as floats and the output is deterministic."""
    values = np.array([p.as_array for p in ps.patches], dtype=float).reshape(-1, 48)
    # 64 patches (3072 values) per _reprs call, like an OBJ block, so the
    # arrays stay small whatever the size of the set
    groups = (
        ",\n".join([_PATCH_TEMPLATE] * len(v)) % tuple(_reprs(v))
        for v in (values[start : start + 64] for start in range(0, len(values), 64))
    )
    yield f'{{\n "name": {json.dumps(ps.name)},\n "patches": '
    yield from _json_list(groups)
    if ps.adjacency is not None:
        yield ',\n "adjacency": '
        yield from _json_list(
            _RECORD_TEMPLATE
            % (
                int(rec.a),
                json.dumps(rec.edge_a.side.value),
                json.dumps(rec.edge_a.reversed),
                int(rec.b),
                json.dumps(rec.edge_b.side.value),
                json.dumps(rec.edge_b.reversed),
            )
            for rec in ps.adjacency
        )
    yield "\n}"


def dump_patchset(ps: PatchSet) -> str:
    """The patch set as the JSON text of json.dumps(doc, indent=1)."""
    return "".join(_patchset_pieces(ps))


def read_patchset(path) -> PatchSet:
    return load_patchset(Path(path).read_text())


def write_patchset(ps: PatchSet, path) -> None:
    """Write ``dump_patchset(ps)`` and a newline to ``path`` a piece at a time."""
    with open(path, "w") as f:
        f.writelines(_patchset_pieces(ps))
        f.write("\n")


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

    def finite_vertices():
        """The vertices parsed so far; raises for the first non-finite one's line."""
        vertices = np.array(coords, dtype=float).reshape(-1, 3)
        bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
        if bad.size:
            raise PatchFormatError(f"line {lines[first + bad[0]][0]}: non-finite coordinate")
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
        finite_vertices()  # an earlier line's error comes first
        raise
    vertices = finite_vertices()
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


def read_newell(path) -> PatchSet:
    p = Path(path)
    return load_newell(p.read_text(), name=p.stem)


# ---------------------------------------------------------------------------
# OBJ export


def _obj_blocks(mesh: TriangleMesh):
    """The OBJ text of ``mesh`` in blocks of up to 1024 newline-terminated lines.

    Rows become Python numbers a block at a time, so neither the whole
    array nor the whole text ever exists as Python objects at once.  Each
    vertex and normal block is one %-format of a repeated line template,
    filled with ``_reprs`` of its values.  A face block is filled from one
    token ("i//i" or "i") per vertex in the block's index range, taken
    with one object-array gather, so each vertex index is formatted once
    per block that uses it, not once per use."""
    for tag, a in (("v", mesh.vertices), ("vn", mesh.normals)):
        if a is None:
            continue
        for start in range(0, len(a), 1024):
            block = a[start : start + 1024]
            yield (f"{tag} %s %s %s\n" * len(block)) % tuple(_reprs(block))
    token = "%d//%d " if mesh.normals is not None else "%d "
    for start in range(0, len(mesh.triangles), 1024):
        block = mesh.triangles[start : start + 1024]
        lo = int(block.min())
        ids = np.arange(lo + 1, int(block.max()) + 2)
        tokens = (token * len(ids)) % tuple(ids.repeat(token.count("%")).tolist())
        tokens = np.array(tokens.split(), dtype=object)
        yield ("f %s %s %s\n" * len(block)) % tuple(tokens[block - lo].ravel().tolist())


def export_obj(mesh: TriangleMesh) -> str:
    """Serialize a mesh as ASCII OBJ (one-based indices, deterministic)."""
    return "".join(_obj_blocks(mesh))


def write_obj(mesh: TriangleMesh, path) -> None:
    """Write ``export_obj(mesh)`` to ``path`` a block at a time."""
    with open(path, "w") as f:
        f.writelines(_obj_blocks(mesh))
