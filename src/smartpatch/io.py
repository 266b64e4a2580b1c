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

import functools
import json
import math
from itertools import repeat
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
# A rendered value: its sign, the 22 digits (10^21 .. 10^0) of its digits
# with a "0" inserted where the point goes, a column that only the longest
# repr fills and one for a caller's separator.
_FIELD = 25


def _split(v):
    """Dekker's split of doubles into two halves of at most 26 bits."""
    hi = v * 134217729.0
    hi -= hi - v
    return hi, v - hi


def _two_product(a, b):
    """hi + lo == a·b exactly, with hi = fl(a·b) (Dekker's TwoProduct):
    lo = ((ah·bh - hi) + ah·bl + al·bh) + al·bl, summed in place."""
    (ah, al), (bh, bl) = _split(a), _split(b)
    hi = a * b
    lo = ah * bh
    lo -= hi
    lo += ah * bl
    lo += al * bh
    lo += al * bl
    return hi, lo


def _shortest(x):
    """The digits of ``repr`` for each of ``x``'s values, |x|: X, s and z
    with |x| = X·10^-s, where repr(|x|) is X's digits with a point before
    the last s of them, without its last z digits (zeros, z < s) and
    without the leading zeros before the digit next to the point; and a
    "decided" mask.

    With e the decimal exponent of |x| and s = 16 - e, |x|·10^s is formed
    exactly as hi + lo (10^s is exact for s <= 22), so hi is a 17-digit
    integer.  The 17-, 16- and 15-digit candidates are that rounded to a
    multiple of 1, 10 and 100.  The shortest one strictly inside x's
    half-ulp interval, less its trailing zeros, is ``repr``'s digit string
    (Gay's shortest round trip: the nearest of the shortest).  Shorter
    forms need no more candidates: the interval is narrower than 100, so it
    holds at most one multiple of 100, and every shorter form is one.
    Zeros are decided (X = 0, s = 1, z = 0: "0.0").  Undecided, and given
    the same X, s and z: non-finite values, exponents outside repr's
    positional range -4 <= e < 16 (subnormals included), exponents log10
    misjudged, powers of two (whose interval is not symmetric) and any
    decision within 1e-9 of its threshold."""
    a = np.abs(x)
    mantissa, exponent = np.frexp(a)
    decided = (a >= 1e-4) & (a < 1e16) & (mantissa != 0.5)
    zero = a == 0
    a = np.where(decided, a, 3.0)
    del mantissa  # every array is dropped as soon as it is used up
    s = np.log10(a)
    s = 16 - np.floor(s, out=s).astype(np.intp)
    scale = _POW10[s]
    half_ulp = np.ldexp(scale, exponent - 54)  # in (0.55, 11.1)
    del exponent
    hi, lo = _two_product(a, scale)
    del a, scale
    decided &= (hi > 1e16) & (hi < 1e17)  # log10 may misjudge e by one
    hi = hi.astype(np.int64)
    f100 = hi // 100
    t = (hi - 100 * f100) + lo  # |x|·10^s - 100·f100
    del hi, lo
    # The 17-digit candidate is always inside (|t - tail| <= 0.5); a tie
    # leaves it undecided.  Inside 100 means inside 10; no tie at 100 is.
    tail = np.rint(t)
    decided &= np.abs(np.abs(t - tail) - 0.5) > 1e-9
    z = np.zeros(len(x), dtype=np.intp)
    for unit in (10, 100):
        n = np.rint(t / unit) * unit
        d = np.abs(t - n)
        inside = d < half_ulp
        decided &= np.abs(d - half_ulp) > 1e-9
        if unit == 10:
            decided &= ~inside | (np.abs(d - 5) > 1e-9)
        tail = np.where(inside, n, tail)
        z += inside
    # The 15-digit candidate's own trailing zeros, counted 8, 4, 2, 1 at a time
    fifteen = np.flatnonzero(inside)
    short = f100[fifteen] + tail[fifteen] / 100  # < 10^15, so exact
    for k in (8, 4, 2, 1):
        q = short / _POW10[k]
        strip = q == np.floor(q)
        short = np.where(strip, q, short)
        z[fifteen] += k * strip
    digits = 100 * f100 + tail.astype(np.int64)
    return (
        digits * decided,
        np.where(decided, s, 1),
        np.where(decided, np.minimum(z, s - 1), 0),
        decided | zero,
    )


@functools.cache
def _quads():
    """"dddd" for 0..9999, as one native uint32 word each: 40 KB built on
    first use from the 100 two-digit pairs by two broadcast copies."""
    pairs = np.frombuffer(
        b"0001020304050607080910111213141516171819"
        b"2021222324252627282930313233343536373839"
        b"4041424344454647484950515253545556575859"
        b"6061626364656667686970717273747576777879"
        b"8081828384858687888990919293949596979899",
        dtype=np.uint8,
    ).reshape(100, 2)
    quads = np.empty((100, 100, 4), dtype=np.uint8)
    quads[..., :2] = pairs[:, None]
    quads[..., 2:] = pairs
    quads.flags.writeable = False  # one array for every caller
    return quads.reshape(-1).view(np.uint32)


@functools.cache
def _bands(cols):
    """Masks of ``cols`` digit columns (10^cols-1 .. 10^0), the row
    first·cols + top holding 1 for the digits first..top."""
    k = np.arange(cols - 1, -1, -1)
    mask = (np.arange(cols)[:, None, None] <= k) & (k <= np.arange(cols)[:, None])
    mask.flags.writeable = False  # one array for every caller
    return mask.view(np.uint8).reshape(-1, cols)


def _digits(m, out, first=0, at_least=0):
    """Write the decimal digits of the non-negative int64 vector ``m`` into
    the uint8 matrix ``out`` (one row per value, column j for the digit of
    10^k with k = columns - 1 - j) as ASCII, those of 10^first up to
    10^max(at_least, highest nonzero digit); the others are zero bytes.

    The digits come four at a time from ``_quads()``."""
    cols = out.shape[1]
    top = np.maximum(np.searchsorted(_IPOW10, m, side="right") - 1, at_least)
    quads = _quads()
    words = np.empty((len(m), -(-cols // 4)), dtype=np.uint32)
    for j in range(words.shape[1] - 1, -1, -1):
        q = m // 10000
        words[:, j] = quads[m - q * 10000]
        m = q
    shown = np.take(_bands(cols), first * cols + top, axis=0)
    np.multiply(words.view(np.uint8)[:, -cols:], shown, out=out)


def _float_text(x, lead=0):
    """``repr(v)`` of each value of the float64 vector ``x`` as a
    ``(len(x), lead + _FIELD)`` uint8 row whose nonzero bytes, in order,
    are that text: the rows' first ``lead`` columns and last column are
    left zero for the caller's separators.

    ``_shortest`` decides the digits X and the s after the point.  X with
    a 0 inserted before its last s digits, X + 9·10^s·(X // 10^s) < 10^18,
    is rendered by ``_digits``, and that 0 becomes the point.  A value
    ``_shortest`` leaves undecided is written from its ``repr``."""
    digits, s, z, decided = _shortest(x)
    scale = _IPOW10[np.minimum(s, 17)]  # X < 10^17, so X // 10^s is 0 for s >= 17
    digits += 9 * scale * (digits // scale)
    del scale
    text = np.zeros((len(x), lead + _FIELD), dtype=np.uint8)
    np.multiply(np.signbit(x), np.uint8(45), out=text[:, lead])  # "-"
    _digits(digits, text[:, lead + 1 : lead + 23], first=z, at_least=s + 1)
    text.reshape(-1)[np.arange(lead + 22, text.size, text.shape[1]) - s] = 46  # "."
    slow = np.flatnonzero(~decided)
    if slow.size:
        literal = b"".join(repr(v).encode().ljust(24, b"\0") for v in x[slow].tolist())
        text[slow, lead : lead + 24] = np.frombuffer(literal, dtype=np.uint8).reshape(-1, 24)
    return text


class PatchSet:
    """A named list of patches and their adjacency records (None when not given).

    Each adjacency index must name a patch of the set.  Its fields may be
    reassigned; two sets compare equal field by field, and are not hashable.
    """

    __hash__ = None

    def __init__(
        self, name: str, patches: List[BezierPatch], adjacency: Optional[List[Adjacency]] = None
    ):
        self.name, self.patches, self.adjacency = name, patches, adjacency
        if adjacency is not None:
            for rec in adjacency:
                for idx in (rec.a, rec.b):
                    if not (0 <= idx < len(patches)):
                        raise PatchFormatError(f"adjacency index {idx} out of range")
                if rec.a == rec.b and rec.edge_a.side == rec.edge_b.side:
                    raise PatchFormatError(
                        f"patch {rec.a} edge {rec.edge_a.side.value} marked adjacent to itself"
                    )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.patches, self.adjacency) == (
            other.name, other.patches, other.adjacency
        )

    def __repr__(self):
        return (
            f"PatchSet(name={self.name!r}, patches={self.patches!r}, "
            f"adjacency={self.adjacency!r})"
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


def load_patchset(text: str, name: str = "") -> PatchSet:
    """Parse and fully validate a patch-set JSON document; ``name`` names
    the set when the document gives no name or an empty one."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise PatchFormatError(f"JSON parse error at line {e.lineno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise PatchFormatError("top-level JSON value must be an object")
    if "patches" not in doc or not isinstance(doc["patches"], list):
        raise PatchFormatError("document needs a 'patches' list")
    given = doc.get("name", "")
    if not isinstance(given, str):
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
    return PatchSet(name=given or name, patches=patches, adjacency=adjacency)


# dump_patchset writes the text json.dumps(doc, indent=1) gives (json
# writes floats with float.__repr__).  Each of a patch's 48 control values
# follows its piece of the patch template; the piece before a patch's first
# value also closes the patch before it.  An adjacency record fills its own
# template; edge side names are letters and digits, so need no escaping.
_GRID_ROWS = ",\n".join(["    [\n" + ",\n".join(["     %s"] * 4) + "\n    ]"] * 4)
_PATCH_TEMPLATE = "  {\n" + ",\n".join(f'   "{c}": [\n{_GRID_ROWS}\n   ]' for c in "xyz") + "\n  }"
_RECORD_FIELDS = (("a", "%d"), ("edge_a", '"%s"'), ("reversed_a", "%s"),
                  ("b", "%d"), ("edge_b", '"%s"'), ("reversed_b", "%s"))
_RECORD_TEMPLATE = "  {\n" + ",\n".join(f'   "{k}": {v}' for k, v in _RECORD_FIELDS) + "\n  }"
_JSON_BOOL = ("false", "true")


def _json_list(items):
    """The pieces of an indent=1 JSON list at the document's second level."""
    sep = b"[\n"
    for item in items:
        yield from (sep, item)
        sep = b",\n"
    yield b"[]" if sep == b"[\n" else b"\n ]"


def _patch_groups(patches):
    """The text of the list of ``patches``, as uint8 arrays of at most 64
    patches (3072 values, like an OBJ block), so the arrays stay small
    whatever the size of the set."""
    opening, *between, closing = _PATCH_TEMPLATE.split("%s")
    pieces = ["[\n" + opening, closing + ",\n" + opening, *between]
    lead = max(map(len, pieces))
    pieces = np.frombuffer("".join(t.ljust(lead, "\0") for t in pieces).encode(), np.uint8)
    pieces = pieces.reshape(-1, lead)
    for start in range(0, len(patches), 64):
        values = np.array([p.as_array for p in patches[start : start + 64]], dtype=float)
        text = _float_text(values.ravel(), lead)
        cells = text.reshape(-1, 48, lead + _FIELD)
        cells[:, 0, :lead] = pieces[1]
        cells[:, 1:, :lead] = pieces[2:]
        if start == 0:
            cells[0, 0, :lead] = pieces[0]
        yield text[text != 0]
    yield (closing + "\n ]").encode() if patches else b"[]"


def _patchset_pieces(ps: PatchSet):
    """The bytes of the text json.dumps(doc, indent=1) gives for the patch
    set, in pieces of at most 64 patches, so a writer never holds the whole
    document.

    Every control value is written as a float, so integer-valued entries
    read back as floats and the output is deterministic."""
    yield f'{{\n "name": {json.dumps(ps.name)},\n "patches": '.encode()
    yield from _patch_groups(ps.patches)
    if ps.adjacency is not None:
        yield b',\n "adjacency": '
        records = (
            _RECORD_TEMPLATE
            % (
                rec.a,
                rec.edge_a.side.value,
                _JSON_BOOL[rec.edge_a.reversed],
                rec.b,
                rec.edge_b.side.value,
                _JSON_BOOL[rec.edge_b.reversed],
            )
            for rec in ps.adjacency
        )
        yield from _json_list(record.encode() for record in records)
    yield b"\n}"


def dump_patchset(ps: PatchSet) -> str:
    """The patch set as the JSON text of json.dumps(doc, indent=1)."""
    return b"".join(_patchset_pieces(ps)).decode()


def read_patchset(path) -> PatchSet:
    """Load the patch-set JSON or Newell file ``path``: JSON when its first
    non-blank character is "{", else Newell.  A set without a name takes
    the file's stem."""
    p = Path(path)
    text = p.read_text()
    load = load_patchset if text.lstrip()[:1] == "{" else load_newell
    return load(text, name=p.stem)


def write_patchset(ps: PatchSet, path) -> None:
    """Write ``dump_patchset(ps)`` and a newline to ``path`` a piece at a time."""
    with open(path, "wb") as f:
        f.writelines(_patchset_pieces(ps))
        f.write(b"\n")


# ---------------------------------------------------------------------------
# Newell-format ingestion


def _fields(rows, width, convert):
    """The ``width`` comma-separated fields of every line of ``rows``,
    converted in one pass over their joined text, or None when a line
    holds another number of fields or a field does not convert."""
    if not rows:
        return []
    fields = ",".join(rows).split(",")
    # width fields per line on average, and no line with more: width on each
    if len(fields) != width * len(rows) or max(map(str.count, rows, repeat(","))) >= width:
        return None
    try:
        return list(map(convert, fields))
    except ValueError:
        return None


def _first_bad_row(rows, width, convert, noun, bad, finite):
    """The position of the first of ``rows`` that does not hold ``width``
    fields that convert (and are finite, when ``finite``), and its message."""
    for k, ln in enumerate(rows):
        parts = ln.split(",")
        if len(parts) != width:
            return k, f"expected {width} {noun}, got {len(parts)}"
        try:
            values = list(map(convert, parts))
        except ValueError:
            return k, bad
        if finite and not all(map(math.isfinite, values)):
            return k, "non-finite coordinate"
    raise AssertionError("every line is well formed")


def load_newell(text: str, name: str = "newell") -> PatchSet:
    """Parse the classic teapot interchange format.

    A patch count, then one line of 16 comma-separated one-based vertex
    indices per patch (row-major in u), then a vertex count, then one
    comma-separated x,y,z line per vertex.  Blank lines are skipped.

    The index and vertex blocks are each converted in one pass over their
    joined text, with Python's ``int`` or ``float`` per field.  Only when
    that pass fails are the block's lines read one at a time, to name the
    first bad line.
    """
    lines = list(filter(None, map(str.strip, text.splitlines())))

    def fail(pos, message):
        """Raise ``message`` for the non-blank line ``pos``, named by its number."""
        numbers = [no for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        raise PatchFormatError(f"line {numbers[pos]}: {message}")

    def count(pos, what):
        if pos >= len(lines):
            raise PatchFormatError(f"unexpected end of file while reading {what}")
        try:
            value = int(lines[pos])
        except ValueError:
            value = -1
        if value < 0:
            fail(pos, f"expected {what}, got {lines[pos]!r}")
        return value

    def block(first, size, what, width, convert, noun, bad, finite=False):
        """The converted fields of the ``size`` lines from ``first`` on."""
        rows = lines[first : first + size]
        fields = _fields(rows, width, convert)
        if fields is None or finite and not all(map(math.isfinite, fields)):
            k, message = _first_bad_row(rows, width, convert, noun, bad, finite)
            fail(first + k, message)
        if len(rows) < size:
            raise PatchFormatError(f"unexpected end of file while reading {what}")
        return fields

    patch_count = count(0, "patch count")
    indices = block(1, patch_count, "patch indices", 16, int, "indices",
                    "non-integer patch index")
    vertex_count = count(1 + patch_count, "vertex count")
    first = 2 + patch_count
    coords = block(first, vertex_count, "vertex coordinates", 3, float, "coordinates",
                   "non-numeric coordinate", finite=True)
    if first + vertex_count < len(lines):
        fail(first + vertex_count, "trailing content after vertex table")
    # Python ints, so no index can overflow the check
    if indices and not (min(indices) >= 1 and max(indices) <= vertex_count):
        k = next(k for k, i in enumerate(indices) if not 1 <= i <= vertex_count)
        fail(1 + k // 16, f"vertex index {indices[k]} out of range 1..{vertex_count}")
    vertices = np.array(coords, dtype=float).reshape(-1, 3)
    pts = vertices[np.array(indices, dtype=np.intp) - 1].reshape(-1, 4, 4, 3)
    return PatchSet(name=name, patches=bezier_patches(pts.transpose(0, 3, 1, 2)))


def read_newell(path) -> PatchSet:
    p = Path(path)
    return load_newell(p.read_text(), name=p.stem)


# ---------------------------------------------------------------------------
# OBJ export


def _vector_lines(tag, rows):
    """The OBJ lines "tag x y z" of the float rows (N, 3): their
    ``_float_text`` with the tag, spaces and newline put in the columns
    left for them, less its zero bytes."""
    text = _float_text(rows.ravel(), len(tag))
    cells = text.reshape(-1, 3, text.shape[1])
    cells[:, 0, : len(tag)] = np.frombuffer(tag, dtype=np.uint8)
    cells[:, 1:, 0] = 32  # " "
    cells[:, 2, -1] = 10  # "\n"
    return text[text != 0]


def _face_lines(triangles, normals):
    """The OBJ lines "f i j k" (or "f i//i j//j k//k") of the zero-based
    triangles (N, 3).  One token (" i" or " i//i") is rendered per vertex
    in their index range and gathered by the triangles, so each vertex
    index is rendered once per block that uses it, not once per use."""
    lo, hi = int(triangles.min()), int(triangles.max())
    width = len(str(hi + 1))
    tokens = np.zeros((hi - lo + 1, 2 * width + 3 if normals else width + 1), dtype=np.uint8)
    tokens[:, 0] = 32  # " "
    _digits(np.arange(lo + 1, hi + 2), tokens[:, 1 : width + 1])
    if normals:
        tokens[:, width + 1 : width + 3] = 47  # "//"
        tokens[:, width + 3 :] = tokens[:, 1 : width + 1]
    line = np.empty((len(triangles), 3 * tokens.shape[1] + 2), dtype=np.uint8)
    line[:, 0], line[:, -1] = 102, 10  # "f", "\n"
    line[:, 1:-1] = tokens[triangles - lo].reshape(len(triangles), -1)
    return line[line != 0]


def _obj_blocks(mesh: TriangleMesh):
    """The OBJ text of ``mesh`` as uint8 arrays of up to 1024 lines each."""
    for tag, a in ((b"v ", mesh.vertices), (b"vn ", mesh.normals)):
        if a is not None:
            for start in range(0, len(a), 1024):
                yield _vector_lines(tag, a[start : start + 1024])
    for start in range(0, len(mesh.triangles), 1024):
        yield _face_lines(mesh.triangles[start : start + 1024], mesh.normals is not None)


def export_obj(mesh: TriangleMesh) -> str:
    """Serialize a mesh as ASCII OBJ (one-based indices, deterministic)."""
    return b"".join(_obj_blocks(mesh)).decode()


def write_obj(mesh: TriangleMesh, path) -> None:
    """Write ``export_obj(mesh)`` to ``path`` a block at a time."""
    with open(path, "wb") as f:
        f.writelines(_obj_blocks(mesh))
