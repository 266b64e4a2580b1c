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


def as_grid(values) -> np.ndarray:
    """Copy ``values`` into a read-only 4x4 float grid, rejecting non-finite entries."""
    g = np.array(values, dtype=float)
    if g.shape != (4, 4):
        raise ValueError(f"grid must be 4x4, got {g.shape}")
    if not np.isfinite(g).all():
        raise ValueError("grid contains non-finite values")
    g.flags.writeable = False
    return g


class _PatchGrids:
    """Three read-only 4x4 grids, one per coordinate.

    A patch is immutable.  Patches compare and hash by identity: equality of
    their float grids is the caller's choice of tolerance, and an ndarray
    field has no truth value.
    """

    def __init__(self, x, y, z):
        self.__dict__.update(x=as_grid(x), y=as_grid(y), z=as_grid(z))

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

    @functools.cached_property
    def as_array(self) -> np.ndarray:
        """(3,4,4) stacked view of the three coordinate grids."""
        a = np.stack(self.grids)
        a.flags.writeable = False
        return a

    def control_point(self, i: int, j: int) -> np.ndarray:
        return np.array([self.x[i, j], self.y[i, j], self.z[i, j]])


def bezier_patches(points) -> list:
    """One BezierPatch per row of an (N, 3, 4, 4) array.

    The array is copied and checked once, as ``as_grid`` checks one grid;
    each patch's grids and ``as_array`` are read-only views of that copy.
    """
    arr = np.array(points, dtype=float)
    if arr.ndim != 4 or arr.shape[1:] != (3, 4, 4):
        raise ValueError(f"patch array must be (N, 3, 4, 4), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("grid contains non-finite values")
    arr.flags.writeable = False
    out = []
    for row in arr:
        patch = object.__new__(BezierPatch)
        patch.__dict__.update(x=row[0], y=row[1], z=row[2], as_array=row)
        out.append(patch)
    return out


def _patch_array(patches) -> np.ndarray:
    """The (N, 3, 4, 4) control values of a patch list (bezier_patches' inverse)."""
    return np.stack([p.as_array for p in patches]) if patches else np.zeros((0, 3, 4, 4))


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
    m^T X m.  A grid near the end of the float range converts to inf or
    nan; the caller checks."""
    c, d = _conversion_matrices()
    m = d if direction == "b2h" else c
    return m.T @ arr @ m


def hermite_to_bezier(h: HermitePatch) -> BezierPatch:
    """Convert corner/tangent/twist grids to Bezier control grids."""
    return BezierPatch(*_convert(h.grids, "h2b"))


def bezier_to_hermite(b: BezierPatch) -> HermitePatch:
    """Convert Bezier control grids to corner/tangent/twist grids."""
    return HermitePatch(*_convert(b.grids, "b2h"))
