"""Bicubic Bezier and Hermite patches: evaluation and exact conversion.

A patch stores one 4x4 grid of control values per coordinate.  Bezier
grids hold control points; Hermite grids hold the corner/tangent/twist
block layout (see :class:`HermitePatch`).  Conversion between the two
forms is a fixed congruence by a basis-change matrix that is derived
once, exactly, from the two cubic bases.
"""

from __future__ import annotations

import functools

import numpy as np

from .linalg import RationalMatrix


class DomainError(ValueError):
    """Parameter outside the unit square."""


# Cubic Bernstein basis in monomial form: basis_i(t) = row i . [t^3,t^2,t,1].
_BB_ROWS = ((-1, 3, -3, 1), (3, -6, 3, 0), (-3, 3, 0, 0), (1, 0, 0, 0))
# Substitution 1-t: monomial vector of (1-t) = T . monomial vector of t.
_T_ROWS = ((-1, 3, -3, 1), (0, 1, -2, 1), (0, 0, -1, 1), (0, 0, 0, 1))
# Cubic Hermite basis (value at 0, value at 1, slope at 0, slope at 1).
_HB_ROWS = ((2, -3, 0, 1), (-2, 3, 0, 0), (1, -2, 1, 0), (1, -1, 0, 0))

_BB = np.array(_BB_ROWS, dtype=float)
_BB.flags.writeable = False


@functools.lru_cache(maxsize=1)
def _conversion_matrices_exact():
    # Equating u^T Mb^T Xb Mb v with u^T Mh^T Xh Mh v for all (u,v) gives
    # Xb = C^T Xh C with C = Mh Mb^-1, and Xh = D^T Xb D with D = C^-1.
    mb = RationalMatrix(_BB_ROWS)
    mh = RationalMatrix(_HB_ROWS)
    c = mh @ mb.inverse()
    return c, c.inverse()


@functools.lru_cache(maxsize=1)
def _conversion_matrices():
    c, d = _conversion_matrices_exact()
    return c.to_float(), d.to_float()


def _shaped(values, shape, message, convert=np.array) -> np.ndarray:
    """``convert(values, dtype=float)`` of ``shape``, else ValueError(``message`` with
    its shape, or "ragged rows"); a value that is not a number keeps numpy's error."""
    try:
        a = convert(values, dtype=float)
    except ValueError:
        a = np.array(values, dtype=object)  # a ragged row stays one sequence here
        ragged = any(isinstance(v, (list, tuple, np.ndarray)) for v in a.flat)
        if a.shape == shape and not ragged:
            raise
        raise ValueError(message.format("ragged rows" if ragged else a.shape)) from None
    if a.shape != shape:
        raise ValueError(message.format(a.shape))
    return a


def as_grid(values) -> np.ndarray:
    """Copy ``values`` into a read-only 4x4 float grid, rejecting non-finite entries."""
    return _frozen(_shaped(values, (4, 4), "grid must be 4x4, got {}"))


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself, made read-only once every entry is checked to be finite."""
    if not np.isfinite(a).all():
        raise ValueError("grid contains non-finite values")
    a.flags.writeable = False
    return a


class _PatchGrids:
    """Three 4x4 grids, one per coordinate: ``x``, ``y`` and ``z`` are the
    row views of one read-only (3, 4, 4) float array, ``as_array``.

    A patch is immutable.  Patches compare and hash by identity: equality of
    their float grids is the caller's choice of tolerance, and an ndarray
    field has no truth value.
    """

    def __init__(self, x, y, z):
        try:
            a = _shaped((x, y, z), (3, 4, 4), "need three 4x4 grids, got {}")
        except (TypeError, ValueError):  # as_grid's error for the first bad grid, in x, y, z order
            a = np.array([as_grid(g) for g in (x, y, z)])
        self.__dict__.update(zip("xyz", _frozen(a)), as_array=a)

    @classmethod
    def _of(cls, arr: np.ndarray):
        """A patch viewing a checked, read-only (3, 4, 4) array."""
        patch = object.__new__(cls)
        patch.__dict__.update(zip("xyz", arr), as_array=arr)
        return patch

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        return f"{type(self).__name__}(x={self.x!r}, y={self.y!r}, z={self.z!r})"

    @property
    def grids(self):
        return (self.x, self.y, self.z)


class BezierPatch(_PatchGrids):
    """Bicubic Bezier patch: one control-value grid per coordinate.

    Grid indexing is ``g[i][j]`` with ``i`` along u and ``j`` along v, so
    ``g[0][0]`` is the control point at (u,v) = (0,0) and ``g[3][0]`` the
    one at (1,0).
    """


def _patch_array(patches) -> np.ndarray:
    """The (N, 3, 4, 4) control values of a patch list, or such an array
    itself once its shape is checked and its values are finite."""
    if not isinstance(patches, np.ndarray):
        return np.stack([p.as_array for p in patches]) if patches else np.zeros((0, 3, 4, 4))
    arr = np.asarray(patches, dtype=float)
    if arr.ndim != 4 or arr.shape[1:] != (3, 4, 4):
        raise ValueError(f"patch array must be (N, 3, 4, 4), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("grid contains non-finite values")
    return arr


class HermitePatch(_PatchGrids):
    """Bicubic Hermite patch, grids in corner/tangent/twist block layout.

    Per coordinate, with rows/cols written 1..4:

    * ``h11 h12 / h21 h22``  corner values P(0,0), P(0,1), P(1,0), P(1,1)
    * ``h13 h14 / h23 h24``  v-tangents at those corners
    * ``h31 h32 / h41 h42``  u-tangents at those corners
    * ``h33 h34 / h43 h44``  twists (mixed uv second derivatives)
    """


def _check_param(t: float):
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"parameter {t} outside [0, 1]")


def bernstein_weights(t: float) -> np.ndarray:
    """The four cubic Bernstein values B_i(t)."""
    tt = t * t
    return _BB @ np.array([tt * t, tt, t, 1.0])


def bernstein_dweights(t: float) -> np.ndarray:
    """Derivatives B_i'(t)."""
    return _BB @ np.array([3.0 * t * t, 2.0 * t, 1.0, 0.0])


def bernstein_weights_many(ts: np.ndarray) -> np.ndarray:
    """Row k holds the Bernstein values at ts[k]; shape (len(ts), 4)."""
    ts = np.asarray(ts, dtype=float)
    mono = np.stack([ts ** 3, ts ** 2, ts, np.ones_like(ts)], axis=-1)
    return mono @ _BB.T


def bernstein_dweights_many(ts: np.ndarray) -> np.ndarray:
    """Row k holds the derivatives B_i'(ts[k]); shape (len(ts), 4)."""
    ts = np.asarray(ts, dtype=float)
    mono = np.stack([3.0 * ts * ts, 2.0 * ts, np.ones_like(ts), np.zeros_like(ts)], axis=-1)
    return mono @ _BB.T


def eval_patch(patch: BezierPatch, u: float, v: float) -> np.ndarray:
    """Point on the patch at (u, v) as an xyz array."""
    _check_param(u)
    _check_param(v)
    wu = bernstein_weights(u)
    wv = bernstein_weights(v)
    return patch.as_array @ wv @ wu  # (3,4,4)@(4,)->(3,4), then @(4,)->(3,)


def eval_patch_partials(patch: BezierPatch, u: float, v: float):
    """Return (point, dP/du, dP/dv) at (u, v)."""
    _check_param(u)
    _check_param(v)
    wu, wv = bernstein_weights(u), bernstein_weights(v)
    du, dv = bernstein_dweights(u), bernstein_dweights(v)
    a = patch.as_array
    return a @ wv @ wu, a @ wv @ du, a @ dv @ wu


def _convert(arr, direction: str) -> np.ndarray:
    """The grids of an (..., 4, 4) array (or a sequence of 4x4 grids)
    converted b2h (Bezier to Hermite) or h2b, as one stacked congruence
    m^T X m, unchecked."""
    c, d = _conversion_matrices()
    m = d if direction == "b2h" else c
    return m.T @ arr @ m


def hermite_to_bezier(h: HermitePatch) -> BezierPatch:
    """Convert corner/tangent/twist grids to Bezier control grids."""
    return BezierPatch._of(_frozen(_convert(h.as_array, "h2b")))


def bezier_to_hermite(b: BezierPatch) -> HermitePatch:
    """Convert Bezier control grids to corner/tangent/twist grids."""
    return HermitePatch._of(_frozen(_convert(b.as_array, "b2h")))


# Per side, in the order U0, U1, V0, V1 (``tessellation.EdgeSide``): the
# row-major grid slots 4i + j of its four control points in traversal order.
# Like _key_codes, used by both constraints and tessellation.
_SIDE_SLOTS = np.array([(0, 1, 2, 3), (12, 13, 14, 15), (0, 4, 8, 12), (3, 7, 11, 15)])


def _key_codes(table: np.ndarray, starts: np.ndarray | None = None):
    """int64 codes of the rows of the (N, 3) ``table``, and with (M, 3)
    int64 ``starts`` also the (M, 27) codes of each start's neighbours
    ``start + offset``, offsets in ``product((-1, 0, 1), repeat=3)`` order.
    Equal rows have equal codes, and a neighbour's code equals a table row's
    exactly when the two rows are equal; it is -1 when its value on some
    axis, or its first two values together, are in no table row.

    Codes ascend with the rows' lexicographic order and rows compare by
    ``==`` (0.0 equals -0.0), so the codes' np.unique ranks are the ids of
    ``np.unique(table, axis=0, return_inverse=True)``.  Per axis each
    column is replaced by its rank among its values, and the partial codes
    are re-ranked before the third axis, so no code reaches N^2 whatever
    the keys' range.  Each start's three neighbouring values are looked up
    in the same ranks (``_rank_of``) and folded in, broadcast over the
    offsets of the axes so far.
    """
    codes = np.zeros(len(table), dtype=np.int64)
    if starts is not None:
        near, miss = np.zeros((len(starts), 1), np.int64), np.zeros((len(starts), 1), bool)
    for axis, column in enumerate(table.T):
        if axis > 1:
            ranked, codes = np.unique(codes, return_inverse=True)
            if starts is not None:
                near, absent = _rank_of(ranked, near)
                miss |= absent
        values, rank = np.unique(column, return_inverse=True)
        codes = codes * len(values) + rank
        if starts is not None:
            rank, absent = _rank_of(values, starts[:, axis, None] + np.arange(-1, 2))  # (M, 3)
            shape = (len(starts), 3 ** (axis + 1))
            near = (near[..., None] * len(values) + rank[:, None]).reshape(shape)
            miss = (miss[..., None] | absent[:, None]).reshape(shape)
    return codes if starts is None else (codes, np.where(miss, -1, near))


def _rank_of(ranked: np.ndarray, values: np.ndarray):
    """The position of each of ``values`` in the sorted array ``ranked``,
    and the mask of the values that are not in it."""
    rank = np.searchsorted(ranked, values)
    return rank, ranked[np.minimum(rank, len(ranked) - 1)] != values
