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

from .patches import BezierPatch, _patch_array
from .tessellation import _SIDE_NAMES, TriangleMesh, _checked_records

MAX_COORDINATE = 2.0 ** 250  # the largest |coordinate| the loaders accept


class PatchFormatError(ValueError):
    """Malformed patch-set or mesh input."""


# ---------------------------------------------------------------------------
# Float text: repr(x) for every value, with the digits decided in array passes

_BLOCK = 2048  # lines per OBJ block (6144 values)
_PATCH_BLOCK = 64  # patches per patch-set piece (3072 values, in wider rows)
_RECORD_BLOCK = 1024  # adjacency records per patch-set piece


def _halves(v):
    """Dekker's split of the float ``v`` into two halves of at most 26 bits."""
    big = v * 134217729.0
    high = big - (big - v)
    return high, v - high


# 10^k split once in Python float arithmetic: exact, and no numpy ufunc runs at import
_POW10_HIGH, _POW10_LOW = map(np.array, zip(*(_halves(float(10**k)) for k in range(23))))
_IPOW10 = np.array([10**k for k in range(19)], dtype=np.int64)
_DROP = np.array([100, 10, 1], dtype=np.int64)
# 9·10^p, 0 where p > 17 and no digit is before the point
_NINES = np.array([9 * 10**k for k in range(18)] + [0] * 5, dtype=np.int64)
# the 17-, 16- and 15-digit candidates: multiples of 1, 10 and 100
_UNITS = np.array([[1.0], [10.0], [100.0]], dtype=np.float32)
_PER_UNIT = np.array([[1.0], [0.1], [0.01]], dtype=np.float32)


def _shortest(x):
    """The digits of ``repr`` for each of ``x``'s values: D, p, the length
    of repr(|x|) and a "decided" mask, where repr(|x|) is D's last
    ``length`` digits (leading zeros included), with the digit before the
    last p of them, a 0, as the point.

    With e the decimal exponent of |x| and s = 16 - e, |x|·10^s is formed
    exactly as hi + lo (10^s is split in advance, so Dekker's TwoProduct
    splits only |x|), and hi is a 17-digit integer.  The 17-, 16- and
    15-digit candidates are that rounded to a multiple of 1, 10 and 100.
    The shortest one strictly inside x's rounding interval, less its
    trailing zeros, is the digit string Y of ``repr`` (Gay's shortest round
    trip: the nearest of the shortest).  Shorter forms need no more
    candidates: the interval is narrower than 100, so it holds at most one
    multiple of 100, and every shorter form is one.  D is Y with a 0
    inserted before its last p digits, Y + 9·10^p·floor(|x|) < 10^18: the
    digits before repr's point are those of floor(|x|).

    Below a power of two the gap is half as wide as above.  Its candidates
    are decided against the half-gap below, and a candidate whose distance
    lies between the two half-gaps leaves it undecided; so do a tie between
    two 10-multiples or two 17-digit candidates and any decision within
    2e-5 of its threshold (the distances are float32).  Undecided, and
    given D = 0, p = 1 and length 3 ("0.0"): zeros, non-finite values,
    exponents outside repr's positional range -4 <= e < 16 (subnormals
    included) and exponents log10 misjudged.  Zeros alone are returned as
    decided."""
    a = np.abs(x)
    decided = (a >= 1e-4) & (a < 1e16)  # false for nan
    zero = a == 0
    a = np.where(decided, a, 3.0)  # every array is dropped as soon as it is used up
    whole = np.floor(a)  # the digits before the point, once decided
    mantissa, exponent = np.frexp(a)
    power_of_two = mantissa == 0.5
    del mantissa
    s = np.log10(a)
    s = 16 - np.floor(s, out=s).astype(np.int8)  # int8, as z below: the block's peak is smaller
    high, low = _POW10_HIGH[s], _POW10_LOW[s]
    scale = high + low  # 10^s
    # hi + lo == |x|·10^s, lo = ((ah·high - hi) + ah·low + al·high) + al·low
    hi = a * scale
    ah = a * 134217729.0
    ah -= ah - a
    a -= ah
    lo = ah * high
    lo -= hi
    ah *= low
    lo += ah
    high *= a
    lo += high
    low *= a
    lo += low
    del ah, a, high, low
    decided &= (lo >= 1e16 - hi) & (hi < 1e17)  # log10 may misjudge e by one
    # From here on t, the distances and their thresholds are float32,
    # within 5e-6 of their values (|t| < 128).  The thresholds: the
    # half-gaps above and below |x|, times 10^s (below a power of two the
    # gap is half as wide), widened by 2e-5 to the side that undecides.
    exponent -= 54
    above = np.ldexp(scale, exponent, out=np.empty(len(x), dtype=np.float32))
    exponent -= power_of_two
    below = np.ldexp(scale, exponent, out=np.empty(len(x), dtype=np.float32))
    del scale, exponent, power_of_two
    above += 2e-5
    below -= 2e-5
    hi = hi.astype(np.int64)
    f100 = hi // 100
    hi -= 100 * f100
    t = np.add(hi, lo, out=np.empty(len(x), dtype=np.float32))  # |x|·10^s - 100·f100
    del hi, lo
    # one row per candidate: t over its unit, rounded, and the distance of
    # the candidate from t, inside when below 0.5 (else a tie), the
    # half-gap below |x| and 5 (else a tie) and the half-gap below
    last = _PER_UNIT * t
    np.rint(last, out=last)
    distance = _UNITS * last
    np.subtract(t, distance, out=distance)
    t = np.abs(distance, out=distance)
    del distance
    inside = np.empty(last.shape, dtype=bool)
    np.less(t[0], 0.5 - 2e-5, out=inside[0])
    np.less(t[2], below, out=inside[2])
    np.less(t[1], np.minimum(below, 5 - 2e-5, out=below), out=inside[1])
    outside = t > above
    outside |= inside
    decided &= outside.all(axis=0)
    del t, below, above, outside
    # the digits Y of the shortest candidate inside, f100·10^(2-z) + its
    # rounded t over 10^z, with z zeros dropped: inside 100 means inside 10
    z = np.add(inside[1], inside[2], dtype=np.int8)
    pick = np.multiply(z, len(x), dtype=np.intp)
    pick += np.arange(len(x))
    digits = _DROP.take(z)
    digits *= f100
    digits += last.reshape(-1).take(pick).astype(np.int64)
    del pick
    # the 15-digit candidate's own trailing zeros: it is nonzero and at most
    # 10^15, so it has at most 15, dropped 8, 4, 2 and 1 at a time
    fifteen = np.flatnonzero(inside[2])
    del inside, last, f100
    kept, count = digits[fifteen], np.zeros(len(fifteen), dtype=np.intp)
    for k in (8, 4, 2, 1):
        cut = kept // _IPOW10[k]
        divisible = cut * _IPOW10[k] == kept
        kept = np.where(divisible, cut, kept)
        count += k * divisible
    digits[fifteen] = kept
    z[fifteen] += count
    del kept, count
    undecided = ~decided
    s[undecided] = 17
    z[undecided] = 16
    del undecided
    # one digit after the point stays: z <= s - 1
    over = np.flatnonzero(z >= s)
    digits[over] *= _IPOW10[z[over] - s[over] + 1]
    z[over] = s[over] - 1
    z -= s
    z *= -1  # the digits after the point
    digits += _NINES[z] * whole.astype(np.int64)
    digits *= decided
    # repr's length: max(e, 0) + 1 digits before the point, the point, p after it
    s = np.maximum(18 - s, 2, out=s)
    s += z
    return digits, z, s, decided | zero


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
def _shown(words):
    """For each count n of digits shown (column n), a mask of each of
    ``words`` four-digit words (row k, the highest first) that keeps the
    word's characters among the last n and zeroes the others."""
    kept = [[min(max(n - 4 * (words - 1 - k), 0), 4) for n in range(4 * words + 1)]
            for k in range(words)]
    masks = np.array([[[0] * (4 - c) + [255] * c for c in row] for row in kept], dtype=np.uint8)
    masks.flags.writeable = False  # one array for every caller
    return masks.view(np.uint32)[..., 0]


def _digits(m, shown, out):
    """Write the last ``shown`` decimal digits (leading zeros included) of
    each value of the non-negative int64 vector ``m``, as ASCII
    right-aligned in ``4·words`` columns, the others zero bytes, into
    ``out``, a (words, len(m)) native uint32 array or view: row k holds the
    columns of 10^(4(words-k)-1) down to 10^(4(words-k-1)).  No ``m`` has
    more than ``4·words`` digits and no ``shown`` is above that.

    The digits come four at a time from ``_quads()``, one row at a time
    from the lowest, so no (words, len(m)) index array is held."""
    words = len(out)
    quads, masks = _quads(), _shown(words)
    top = words - int(shown.min(initial=4 * words)) // 4  # the words with digits not shown
    for k in range(words - 1, -1, -1):
        high = m // 10000
        word = quads.take(m - 10000 * high)  # the word's own four digits
        if k < top:
            word &= masks[k].take(shown)
        out[k] = word
        m = high


def _float_text(x, frame):
    """``repr(v)`` of each value of the float64 vector ``x`` in a uint8
    row whose nonzero bytes, in order, are that text with the caller's
    separators around it.  The rows of the (k, lead + 1) uint8 ``frame``
    take turns, k dividing len(x): a row's first ``lead`` columns and its
    last one are those of its frame row, and the ``1 + 4·words`` columns
    between them hold the longest text.

    ``_shortest`` decides the digits D, the p after the point and the
    length; ``_digits`` renders D's last ``length`` digits, the 0 before
    the last p becomes the point and the column before the digits the
    sign.  A value ``_shortest`` leaves undecided is written from its
    ``repr``, once per distinct value."""
    digits, point, length, decided = _shortest(x)
    slow = np.flatnonzero(~decided)
    literals = x[slow].tolist()
    # each distinct value's repr once, as rounding residue repeats in a mesh
    # (zeros are decided, so 0.0 and -0.0 never share a key)
    distinct = {v: repr(v).encode() for v in dict.fromkeys(literals)}
    # the longest text, less a literal's first character (its sign column)
    longest = max(int(length.max(initial=3)), max(map(len, distinct.values()), default=0) - 1)
    words = -(-longest // 4)
    lead = frame.shape[1] - 1
    rows = np.zeros((len(frame), lead + 2 + 4 * words), dtype=np.uint8)
    rows[:, :lead], rows[:, -1] = frame[:, :-1], frame[:, -1]
    text = np.empty((len(x), rows.shape[1]), dtype=np.uint8)
    text.reshape(-1, *rows.shape)[...] = rows
    _digits(digits, length, text[:, lead + 1 : -1].view(np.uint32).T)
    del digits
    end = np.arange(lead + 4 * words, text.size, text.shape[1])  # the columns of 10^0
    flat = text.reshape(-1)
    flat[end - point] = 46  # "."
    flat[end - length] = np.signbit(x) * np.uint8(45)  # "-"
    if literals:
        for v, t in distinct.items():
            distinct[v] = t.ljust(1 + 4 * words, b"\0")
        literal = b"".join(map(distinct.__getitem__, literals))
        text[slow, lead:-1] = np.frombuffer(literal, dtype=np.uint8).reshape(len(slow), -1)
    return text


class PatchSet:
    """A named set of patches and their adjacency records (None when not given).

    ``points`` is the patches' read-only (N, 3, 4, 4) array; for a set made
    from an array, ``patches`` are views of it, made when first read.  A
    given array is held and frozen, or copied once if it views a writeable
    array or a buffer.  ``adjacency`` is a read-only (E, 2, 3) intp copy of
    the records given (see ``tessellation._record_array``), each index a
    patch of the set.  Only ``name`` can be reassigned.  Two sets are equal
    when their names, records and ``points`` (dtype, shape and bytes) are;
    no patch is made.  Sets are not hashable.
    """

    __hash__ = None

    def __init__(self, name: str, patches: List[BezierPatch], adjacency=None):
        points = _patch_array(patches)
        base = points.base
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        self._points = points = points if base is None else points.copy()
        points.flags.writeable = False
        self._patches = None if isinstance(patches, np.ndarray) else list(patches)
        self.name, self._adjacency = name, None
        if adjacency is not None:
            self._adjacency = _checked_records(adjacency, len(points), PatchFormatError, alone=True)
            self._adjacency.flags.writeable = False

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def adjacency(self) -> Optional[np.ndarray]:
        return self._adjacency

    @property
    def patches(self) -> List[BezierPatch]:
        if self._patches is None:
            self._patches = [BezierPatch._of(row) for row in self._points]
        return self._patches

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = ((ps.name, ps._points.dtype, ps._points.shape, ps._points.tobytes(),
                 ps._adjacency is None or ps._adjacency.tobytes()) for ps in (self, other))
        return a == b

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
            if not -MAX_COORDINATE <= x <= MAX_COORDINATE:  # exact for an int of any size
                what = ("a non-finite entry" if x != x or abs(x) == math.inf
                        else "an entry of magnitude above 2**250")
                raise PatchFormatError(f"patch {patch_idx}: grid '{coord}' has {what}")
    return values


def _record_from_json(rec, idx: int):
    """Record ``idx``'s fields: (patch, side code, reversed) of side a, then of side b."""
    if not isinstance(rec, dict) or "a" not in rec or "b" not in rec:
        raise PatchFormatError(f"adjacency {idx}: must be an object with 'a' and 'b'")
    row = []
    for which in "ab":
        patch, side = rec[which], rec.get(f"edge_{which}")
        flag = rec.get(f"reversed_{which}", False)
        if isinstance(patch, bool) or not isinstance(patch, int):
            raise PatchFormatError(f"adjacency {idx}: '{which}' must be an integer, got {patch!r}")
        if side not in _SIDE_NAMES:
            raise PatchFormatError(f"adjacency {idx}: bad edge_{which} {side!r}")
        if not isinstance(flag, bool):
            raise PatchFormatError(
                f"adjacency {idx}: 'reversed_{which}' must be true or false, got {flag!r}")
        row += patch, _SIDE_NAMES.index(side), flag
    return row


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
    grids = []
    for k, entry in enumerate(doc["patches"]):
        if not isinstance(entry, dict):
            raise PatchFormatError(f"patch {k}: must be an object with x/y/z grids")
        for coord in ("x", "y", "z"):
            if coord not in entry:
                raise PatchFormatError(f"patch {k}: missing grid '{coord}'")
            grids.append(_grid_from_json(entry[coord], k, coord))
    adjacency = None
    if doc.get("adjacency") is not None:
        if not isinstance(doc["adjacency"], list):
            raise PatchFormatError("'adjacency' must be a list")
        adjacency = [_record_from_json(rec, k) for k, rec in enumerate(doc["adjacency"])]
    values = np.array(grids, dtype=float)
    values.flags.writeable = False  # frozen whole, so the set holds its (N, 3, 4, 4) view
    return PatchSet(given or name, values.reshape(-1, 3, 4, 4), adjacency)


# dump_patchset writes the text json.dumps(doc, indent=1) gives (json
# writes floats with float.__repr__).  Each of a patch's 48 control values
# follows its piece of the patch template; the piece before a patch's first
# value also closes the patch before it.  An adjacency record fills its own
# template; edge side names are letters and digits, so need no escaping.
_GRID_ROWS = ",\n".join(["    [\n" + ",\n".join(["     %s"] * 4) + "\n    ]"] * 4)
_PATCH_TEMPLATE = "  {\n" + ",\n".join(f'   "{c}": [\n{_GRID_ROWS}\n   ]' for c in "xyz") + "\n  }"
_RECORD_KEYS = ("a", "edge_a", "reversed_a", "b", "edge_b", "reversed_b")
_RECORD_TEMPLATE = "  {\n" + ",\n".join(
    f'   "{k}": {v}' for k, v in zip(_RECORD_KEYS, ("%d", '"%s"', "%s") * 2)) + "\n  }"


def _record_fields(records, truth=(False, True)) -> np.ndarray:
    """The (E, 6) object array of the records' ``_RECORD_KEYS``: ints, side names, ``truth``."""
    fields = records.astype(object)
    fields[..., 1] = np.array(_SIDE_NAMES, dtype=object)[records[..., 1]]
    fields[..., 2] = np.array(truth, dtype=object)[records[..., 2]]
    return fields.reshape(-1, 6)


def _record_groups(records):
    """The text of the list of the (E, 2, 3) ``records``, ``_RECORD_BLOCK`` to a piece."""
    for start in range(0, len(records), _RECORD_BLOCK):
        fields = _record_fields(records[start : start + _RECORD_BLOCK], ("false", "true"))
        text = ",\n".join([_RECORD_TEMPLATE] * len(fields)) % tuple(fields.ravel().tolist())
        yield (b",\n" if start else b"[\n") + text.encode()
    yield b"\n ]" if len(records) else b"[]"


def _patch_groups(points):
    """The text of the list of the (N, 3, 4, 4) ``points``, as uint8 arrays
    of at most ``_PATCH_BLOCK`` patches, so the arrays stay small whatever
    the size of the set."""
    opening, *between, closing = _PATCH_TEMPLATE.split("%s")
    pieces = ["[\n" + opening, closing + ",\n" + opening, *between]
    lead = max(map(len, pieces)) + 1  # and a zero column after each value
    pieces = np.frombuffer("".join(t.ljust(lead, "\0") for t in pieces).encode(), np.uint8)
    pieces = pieces.reshape(-1, lead)
    for start in range(0, len(points), _PATCH_BLOCK):
        text = _float_text(points[start : start + _PATCH_BLOCK].ravel(), pieces[1:])
        if start == 0:
            text[0, : lead - 1] = pieces[0, :-1]
        yield text[text != 0]
    yield (closing + "\n ]").encode() if len(points) else b"[]"


def _patchset_pieces(ps: PatchSet):
    """The bytes of the text json.dumps(doc, indent=1) gives for the patch
    set, in pieces of at most ``_PATCH_BLOCK`` patches or ``_RECORD_BLOCK``
    records, so a writer never holds the whole document.

    Every control value is written as a float, so integer-valued entries
    read back as floats and the output is deterministic."""
    yield f'{{\n "name": {json.dumps(ps.name)},\n "patches": '.encode()
    yield from _patch_groups(ps.points)
    if ps.adjacency is not None:
        yield b',\n "adjacency": '
        yield from _record_groups(ps.adjacency)
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


def _first_bad_row(rows, width, convert, noun, bad, bounded):
    """The position of the first of ``rows`` that does not hold ``width``
    fields that convert (within MAX_COORDINATE, when ``bounded``), and its message."""
    for k, ln in enumerate(rows):
        parts = ln.split(",")
        if len(parts) != width:
            return k, f"expected {width} {noun}, got {len(parts)}"
        try:
            values = list(map(convert, parts))
        except ValueError:
            return k, bad
        if bounded and not all(abs(v) <= MAX_COORDINATE for v in values):
            finite = all(map(math.isfinite, values))
            return k, "coordinate of magnitude above 2**250" if finite else "non-finite coordinate"
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

    def block(first, size, what, width, convert, noun, bad, bounded=False):
        """The converted fields of the ``size`` lines from ``first`` on (an array when bounded)."""
        rows = lines[first : first + size]
        fields = _fields(rows, width, convert)
        if bounded and fields is not None:
            fields = np.array(fields)
        if fields is None or bounded and not (np.abs(fields) <= MAX_COORDINATE).all():  # nan: False
            k, message = _first_bad_row(rows, width, convert, noun, bad, bounded)
            fail(first + k, message)
        if len(rows) < size:
            raise PatchFormatError(f"unexpected end of file while reading {what}")
        return fields

    patch_count = count(0, "patch count")
    indices = block(1, patch_count, "patch indices", 16, int, "indices",
                    "non-integer patch index")
    vertex_count = count(1 + patch_count, "vertex count")
    first = 2 + patch_count
    vertices = block(first, vertex_count, "vertex coordinates", 3, float, "coordinates",
                     "non-numeric coordinate", bounded=True).reshape(-1, 3)
    if first + vertex_count < len(lines):
        fail(first + vertex_count, "trailing content after vertex table")
    # Python ints, so no index can overflow the check
    if indices and not (min(indices) >= 1 and max(indices) <= vertex_count):
        k = next(k for k, i in enumerate(indices) if not 1 <= i <= vertex_count)
        fail(1 + k // 16, f"vertex index {indices[k]} out of range 1..{vertex_count}")
    rows = np.array(indices, dtype=np.intp).reshape(-1, 1, 4, 4) - 1  # against x, y, z
    return PatchSet(name=name, patches=vertices[rows, np.arange(3)[:, None, None]])


def read_newell(path) -> PatchSet:
    p = Path(path)
    return load_newell(p.read_text(), name=p.stem)


# ---------------------------------------------------------------------------
# OBJ export


def _vector_lines(tag, rows):
    """The OBJ lines "tag x y z" of the float rows (N, 3): their
    ``_float_text`` framed by ``_line_frame(tag)``, less its zero bytes."""
    text = _float_text(rows.ravel(), _line_frame(tag))
    return text[text != 0]


@functools.cache
def _line_frame(tag):
    """The ``_float_text`` frame of an OBJ line "tag x y z": the tag before
    x, and " " after x and y and "\\n" after z, so each value leaves one
    run of zero bytes."""
    frame = np.zeros((3, len(tag) + 1), dtype=np.uint8)
    frame[0, :-1] = np.frombuffer(tag, dtype=np.uint8)
    frame[:, -1] = 32, 32, 10
    frame.flags.writeable = False  # one array for every caller
    return frame


def _face_lines(triangles, normals):
    """The OBJ lines "f i j k" (or "f i//i j//j k//k") of the zero-based
    triangles (N, 3).  One token, "i " (or "i//i "), is rendered per vertex
    in their index range and gathered by the triangles, so each vertex
    index is rendered once per block that uses it, not once per use."""
    lo, hi = int(triangles.min()), int(triangles.max())
    count, width = hi - lo + 1, len(str(hi + 1))
    shown = np.full(count, width)
    for k in range(len(str(lo + 1)), width):
        shown[: 10**k - lo - 1] -= 1  # the ids below 10^k have a digit less
    words = -(-width // 4)
    digits = np.empty((count, words), dtype=np.uint32)
    _digits(np.arange(lo + 1, hi + 2), shown, digits.T)
    digits = digits.view(np.uint8)[:, 4 * words - width :]
    tokens = np.empty((count, 2 * width + 3 if normals else width + 1), dtype=np.uint8)
    tokens[:, :width] = digits
    if normals:
        tokens[:, width : width + 2] = 47  # "//"
        tokens[:, width + 2 : -1] = digits
    tokens[:, -1] = 32  # " "
    tokens = tokens.view(f"V{tokens.shape[1]}").reshape(-1)
    line = np.empty((len(triangles), 2 + 3 * tokens.itemsize), dtype=np.uint8)
    line[:, 0] = 102  # "f"
    line[:, 2:].view(tokens.dtype)[...] = tokens.take(triangles - lo)
    line[:, 1], line[:, -1] = 32, 10  # " ", "\n" in place of the last token's " "
    # ids of one digit count leave no zero byte
    return line.reshape(-1) if len(str(lo + 1)) == width else line[line != 0]


def _obj_blocks(mesh: TriangleMesh):
    """The OBJ text of ``mesh`` as uint8 arrays of up to ``_BLOCK`` lines each."""
    for tag, a in ((b"v ", mesh.vertices), (b"vn ", mesh.normals)):
        if a is not None:
            for start in range(0, len(a), _BLOCK):
                yield _vector_lines(tag, a[start : start + _BLOCK])
    for start in range(0, len(mesh.triangles), _BLOCK):
        yield _face_lines(mesh.triangles[start : start + _BLOCK], mesh.normals is not None)


def export_obj(mesh: TriangleMesh) -> str:
    """Serialize a mesh as ASCII OBJ (one-based indices, deterministic)."""
    return b"".join(_obj_blocks(mesh)).decode()


def write_obj(mesh: TriangleMesh, path) -> None:
    """Write ``export_obj(mesh)`` to ``path`` a block at a time."""
    with open(path, "wb") as f:
        f.writelines(_obj_blocks(mesh))
