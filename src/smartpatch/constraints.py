"""Cubic-diagonal constraints on bicubic Bezier control grids.

Substituting v=u (or v=1-u) into a bicubic patch collapses it to a
univariate polynomial of degree up to 6.  Requiring both domain diagonals
to stay cubic imposes linear conditions on the 16 control values of each
coordinate grid.  This module derives those conditions symbolically from
the basis matrices, certifies the rank of the resulting 6x16 system
exactly, and builds solving, projection, validation and reporting on top
of it.  A Hermite-form grid is checked on its Bezier form
(``patches._convert``), against the same certified matrix.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .linalg import RationalMatrix
from .patches import (_BB_ROWS, _SIDE_SLOTS, _T_ROWS, BezierPatch, _frozen, _key_codes,
                      _patch_array, _shaped)

DEFAULT_TOL = 1e-9


class DerivationError(RuntimeError):
    """The symbolically derived constraint system failed a structural check."""


class DiagonalKind(Enum):
    MAIN = "main"  # v = u
    ANTI = "anti"  # v = 1 - u


# Corner positions within the row-major 16-vector of a grid, and the
# remaining 12 positions in row-major order (x01, x02, x10, x11, ...).
CORNER_INDICES = (0, 3, 12, 15)
NONCORNER_INDICES = tuple(k for k in range(16) if k not in CORNER_INDICES)
# Index arrays: numpy reads a tuple as one index per axis, and converts a list on every use.
_CORNERS = np.array(CORNER_INDICES)
_NONCORNERS = np.array(NONCORNER_INDICES)
_CORNERS.flags.writeable = _NONCORNERS.flags.writeable = False
_BOUNDARY = sorted(set(_SIDE_SLOTS.ravel().tolist()))  # the 12 slots on some side
_INNER = [k for k in range(16) if k not in _BOUNDARY]

# Independently tabulated copy of the 6x16 constraint matrix.  The build
# derives its own matrix from the basis matrices and must reproduce this
# table entry for entry; a mismatch on either side is a hard error.
LAMBDA_REFERENCE = (
    (1, -3, 3, -1, -3, 9, -9, 3, 3, -9, 9, -3, -1, 3, -3, 1),
    (-6, 15, -12, 3, 15, -36, 27, -6, -12, 27, -18, 3, 3, -6, 3, 0),
    (15, -30, 18, -3, -30, 54, -27, 3, 18, -27, 9, 0, -3, 3, 0, 0),
    (-1, 3, -3, 1, 3, -9, 9, -3, -3, 9, -9, 3, 1, -3, 3, -1),
    (3, -12, 15, -6, -6, 27, -36, 15, 3, -18, 27, -12, 0, 3, -6, 3),
    (-3, 18, -30, 15, 3, -27, 54, -30, 0, 9, -27, 18, 0, 0, 3, -3),
)


class Poly:
    """Univariate real polynomial, coefficients stored highest degree first.

    Immutable; equal and alike in hash when the coefficients are."""

    def __init__(self, coeffs):
        coeffs = tuple(float(c) for c in coeffs)
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        self.__dict__["coeffs"] = coeffs

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __delattr__(self, name):
        raise AttributeError("Poly is immutable")

    def __repr__(self):
        return f"Poly(coeffs={self.coeffs!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    @property
    def nominal_degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t: float) -> float:
        acc = 0.0
        for c in self.coeffs:
            acc = acc * t + c
        return acc

    def effective_degree(self, tol: float = DEFAULT_TOL) -> int:
        """Degree once leading coefficients below tol*scale are dropped."""
        scale = max(1.0, max(abs(c) for c in self.coeffs))
        for k, c in enumerate(self.coeffs):
            if abs(c) > tol * scale:
                return self.nominal_degree - k
        return 0


@functools.lru_cache(maxsize=None)
def _collapse_exact(kind: DiagonalKind) -> RationalMatrix:
    """Exact 7x16 map from a grid (row-major) to its collapsed diagonal, u^6 first.

    x(u, u) is the sum of g_ij B_i(u) B_j(u), and B_i(u) is row i of Mb times
    (u^3, u^2, u, 1), so column 4i+j convolves row i of Mb with row j of N:
    N = Mb, or Mb T on the anti diagonal, where B_j(1-u) stands for B_j(u).
    """
    mb = RationalMatrix._from_ints(_BB_ROWS, 1)
    n = mb if kind is DiagonalKind.MAIN else mb @ RationalMatrix._from_ints(_T_ROWS, 1)
    rows = [[0] * 16 for _ in range(7)]
    for c in range(16):
        bi, bj = mb.numerators[c // 4], n.numerators[c % 4]
        for a in range(4):
            for b in range(4):
                rows[a + b][c] += bi[a] * bj[b]
    return RationalMatrix._from_ints(rows, 1)


@functools.lru_cache(maxsize=None)
def _collapse_f(kind: DiagonalKind) -> np.ndarray:
    return _collapse_exact(kind).to_float()


def collapse_diagonal(g, kind: DiagonalKind) -> Poly:
    """Degree-6 polynomial of the diagonal curve of one coordinate grid: the
    float copy of the exact collapse map, whose top three rows are lam's."""
    return Poly(_collapse_f(DiagonalKind(kind)) @ _vec(g))


def _lambda_exact() -> RationalMatrix:
    """The u^6, u^5 and u^4 rows of the main, then of the anti diagonal's map."""
    rows = [row for kind in DiagonalKind for row in _collapse_exact(kind).numerators[:3]]
    return RationalMatrix._from_ints(rows, 1)


class ConstraintSystem(NamedTuple):
    """The 6x16 cubic-diagonal condition matrix, derived and certified once.

    ``pivot_cols``/``free_cols`` describe the exact reduced form of ``lam``.
    ``reduced @ xi2 == rhs @ xi1`` is its full-rank (5-row) form with the
    four corners xi1 (row-major grid order) moved to the right-hand side.
    ``particular``/``homogeneous`` give the affine solution map used by
    bs_solve; ``gain`` is the least-squares correction map used by
    bs_project (gain = reduced^T (reduced reduced^T)^-1).  These exact
    maps are certified once; bs_solve, bs_project and repair_patches run
    on the read-only float copies in the ``_f`` fields.
    """

    lam: np.ndarray
    rank: int
    pivot_cols: tuple
    free_cols: tuple
    reduced: RationalMatrix     # 5 x 12
    rhs: RationalMatrix         # 5 x 4
    solver_free_cols: tuple     # the 7 free indices into the 12-vector xi2
    particular: RationalMatrix  # 12 x 4: xi2 from corners with free values 0
    homogeneous: RationalMatrix # 12 x 7: contribution of the free values
    gain: RationalMatrix        # 12 x 5
    solve_f: np.ndarray         # 16 x 11: vec(grid) from (corners, free values)
    given_idx: np.ndarray       # the 11 positions in vec(grid) that solve_f copies
    reduced_f: np.ndarray       # 5 x 16: reduced system residual of vec(grid)
    gain_f: np.ndarray          # 12 x 5
    boundary_row: np.ndarray    # 16 ints: the left null row of reduced_f's inner columns


@functools.lru_cache(maxsize=1)
def build_lambda() -> ConstraintSystem:
    """Derive the constraint system and certify its structure exactly.

    The derived matrix must match the reference table and have rank 5; the
    corner system must be solvable for every corner choice, and the
    solution and projection maps must pass _certify, and the reduced rows
    must have rank 4 on the inner slots.  Any failure raises DerivationError.
    """
    lam_q = _lambda_exact()
    reference = RationalMatrix(LAMBDA_REFERENCE)
    if lam_q != reference:
        entries = "; ".join(
            f"entry ({i},{j}): derived {lam_q[i, j]} != reference {reference[i, j]}"
            for i in range(6) for j in range(16) if lam_q[i, j] != reference[i, j]
        )
        raise DerivationError(
            f"derived constraint matrix does not match the reference table: {entries}"
        )
    _, rank, pivots = lam_q.rref()
    if rank != 5:
        raise DerivationError(f"constraint matrix rank is {rank}, expected 5")
    # [lam2 | -lam1] is lam with its columns permuted and some negated, so
    # its rank is 5 too.  Its pivots must live in the lam2 block: the system
    # lam2 xi2 = -lam1 xi1 is solvable for every corner choice.
    lam1_neg = -lam_q.take_cols(CORNER_INDICES)
    aug, _, aug_pivots = lam_q.take_cols(NONCORNER_INDICES).hstack(lam1_neg).rref()
    if any(p >= 12 for p in aug_pivots):
        raise DerivationError("reduced corner system is not solvable for all corners")
    reduced = aug.take_rows(range(rank)).take_cols(range(12))
    rhs = aug.take_rows(range(rank)).take_cols(range(12, 16))
    free = tuple(c for c in range(12) if c not in aug_pivots)

    # 0/1 maps placing the pivot and free unknowns in the 12-vector
    place = RationalMatrix([[int(k == p) for p in aug_pivots] for k in range(12)])
    pick = RationalMatrix([[int(k == f) for f in free] for k in range(12)])
    particular = place @ rhs
    homogeneous = pick + -(place @ reduced.take_cols(free))

    gram_inv = (reduced @ reduced.transpose()).inverse()
    gain = reduced.transpose() @ gram_inv
    _certify(reduced, rhs, particular, homogeneous, gain)
    slots = reduced.hstack(-rhs).take_cols(np.argsort(NONCORNER_INDICES + CORNER_INDICES))
    boundary_row = _boundary_row(slots)

    solve_f = np.zeros((16, 11))
    solve_f[_CORNERS, :4] = np.eye(4)
    solve_f[_NONCORNERS] = particular.hstack(homogeneous).to_float()
    given_idx = np.array([*CORNER_INDICES, *(NONCORNER_INDICES[f] for f in free)])
    for m in (solve_f, given_idx, boundary_row):
        m.flags.writeable = False
    return ConstraintSystem(
        lam=lam_q.to_float(),
        rank=rank,
        pivot_cols=pivots,
        free_cols=tuple(c for c in range(16) if c not in pivots),
        reduced=reduced,
        rhs=rhs,
        solver_free_cols=free,
        particular=particular,
        homogeneous=homogeneous,
        gain=gain,
        solve_f=solve_f,
        given_idx=given_idx,
        reduced_f=slots.to_float(),
        gain_f=gain.to_float(),
        boundary_row=boundary_row,
    )


def _certify(reduced, rhs, particular, homogeneous, gain) -> None:
    """Check exactly the identities that bs_solve and bs_project rely on.

    With them every solve satisfies the reduced system, for any input, and
    every projection cancels the residual it is given."""
    if reduced @ particular != rhs:
        raise DerivationError("particular solution does not satisfy the reduced system")
    if not (reduced @ homogeneous).is_zero():
        raise DerivationError("homogeneous solutions leave the reduced system's null space")
    if reduced @ gain != RationalMatrix.identity(reduced.rows):
        raise DerivationError("projection gain is not a right inverse of the reduced system")


def _boundary_row(slots) -> np.ndarray:
    """The one left null row of the reduced rows' inner columns, as coprime integers.

    ``slots`` is the exact reduced system over the 16 slots of vec(grid);
    its inner columns must have rank 4.  ``_patch_ranks`` reads the row."""
    inner, rank, pivots = slots.take_cols(_INNER).transpose().rref()
    if rank != 4:
        raise DerivationError(f"reduced rows have rank {rank} on the inner slots, expected 4")
    (free,) = set(range(slots.rows)) - set(pivots)
    null = [inner.denominator if r == free else 0 for r in range(slots.rows)]
    for row, p in zip(inner.numerators, pivots):
        null[p] = -row[free]
    weights = (RationalMatrix._from_ints([null], 1) @ slots).numerators[0]
    return np.array(weights) // math.gcd(*weights)


def bs_free_cells() -> tuple:
    """Grid cells (i, j) owned by the 7 free parameters of bs_solve, in order."""
    return tuple(divmod(NONCORNER_INDICES[f], 4) for f in build_lambda().solver_free_cols)


class DiagonalResiduals(NamedTuple):
    """Leading collapsed-diagonal coefficients that must vanish."""

    a6: float
    a5: float
    a4: float
    rel: tuple  # the same three magnitudes divided by the grid scale

    @property
    def max_rel(self) -> float:
        return float(np.max(self.rel))  # nan when one is nan, where max() may drop it


class ConstraintReport(NamedTuple):
    per_diagonal: Mapping[DiagonalKind, DiagonalResiduals]
    max_residual: float
    compliant: bool
    tolerance_used: float


def _vec(g) -> np.ndarray:
    """Row-major 16-vector of one 4x4 coordinate grid."""
    return _shaped(g, (4, 4), "grid must be 4x4, got {}", np.asarray).reshape(-1)


def _diagonal_coefficients(flat: np.ndarray):
    """The six leading diagonal coefficients and the scale of every grid.

    ``flat`` holds row-major grids along its last axis, (..., 16), e.g. a
    patch set's (N, 3, 16) array.  Returns the (..., 6) coefficients (main
    diagonal's a6, a5, a4, then the anti diagonal's) and the (...) scales
    max(1, max |grid value|).  The certified constraint matrix is applied
    to all grids in one stacked matrix-vector product: numpy runs the same
    matrix-vector kernel on every grid, so each grid's coefficients equal
    its one-grid bs_residuals() values bit for bit, whatever set it is in.
    """
    coeffs = (build_lambda().lam @ flat[..., None])[..., 0]
    return coeffs, np.abs(flat).max(axis=-1, initial=1.0)


def bs_residuals(g, tol: float = DEFAULT_TOL) -> ConstraintReport:
    """Compliance report for one coordinate grid.

    The six leading diagonal coefficients, read as the certified constraint
    matrix applied to the grid, are reported relative to
    max(1, max |grid value|); the grid complies when the largest relative
    magnitude stays within ``tol``.  The one-grid case of the set-wide
    coefficients that validation reads.
    """
    coeffs, scale = _diagonal_coefficients(_vec(g))
    values, scale = coeffs.tolist(), float(scale)
    rel = [abs(v) / scale for v in values]  # the division numpy does, on six floats
    worst = max(rel) if all(r == r for r in rel) else math.nan  # max() may drop a nan
    return ConstraintReport(
        {DiagonalKind.MAIN: DiagonalResiduals(*values[:3], tuple(rel[:3])),
         DiagonalKind.ANTI: DiagonalResiduals(*values[3:], tuple(rel[3:]))},
        worst, worst <= tol, tol,
    )


def bs_solve(corners: Sequence[float], free: Sequence[float]) -> np.ndarray:
    """Construct a compliant grid from 4 corners and 7 free values.

    ``corners`` is (x00, x03, x30, x33); ``free`` feeds the non-pivot
    columns of the reduced system (grid cells given by bs_free_cells()).
    The solution map is derived and certified once in exact rational
    arithmetic; each call is one float product with it, and the corners
    and free values are copied into the grid bit-exact.
    """
    corners = _shaped(corners, (4,), "need exactly 4 corner values", np.asarray)
    free = _shaped(free, (7,), "need exactly 7 free values", np.asarray)
    s = build_lambda()
    given = np.concatenate((corners, free))
    flat = s.solve_f @ given
    flat[s.given_idx] = given
    return _frozen(flat).reshape(4, 4)


def bs_project(g) -> np.ndarray:
    """Closest compliant grid with the same corners (least squares).

    Minimizes the summed squared change of the 12 non-corner values
    subject to the reduced constraint system; corners pass through
    bit-exact.  The float gain, certified once in exact arithmetic, is
    applied to the grid's residual, so a compliant grid moves only by
    rounding and projecting twice is the identity to the same accuracy.
    """
    flat = _vec(g)
    s = build_lambda()
    out = flat.copy()
    out[_NONCORNERS] -= s.gain_f @ (s.reduced_f @ flat)
    return _frozen(out).reshape(4, 4)


def bs_inner_identity(g) -> float:
    """Residual of the certified inner-point identity.

    For every compliant grid, (x11 - x12 - x21 + x22) equals one ninth of
    (x00 - x03 - x30 + x33); see resolve_inner_identity() for the exact
    certification, including the rejected sign variant.
    """
    x = _vec(g).tolist()
    inner = x[5] - x[6] - x[9] + x[10]
    corner = x[0] - x[3] - x[12] + x[15]
    return inner - corner / 9.0


class InnerIdentityResolution(NamedTuple):
    """Row-space membership of the two sign variants of the inner identity."""

    plus_variant_holds: bool   # x11 - x12 - x21 + x22 == (corner combo)/9
    minus_variant_holds: bool  # x11 - x12 - x21 - x22 == (corner combo)/9
    corner_coefficient: Fraction


@functools.lru_cache(maxsize=1)
def resolve_inner_identity() -> InnerIdentityResolution:
    """Certify which sign of the inner-point identity the system implies.

    A candidate identity holds for every compliant grid exactly when its
    coefficient vector lies in the row space of the constraint matrix,
    i.e. when appending it as a column to lam^T keeps the rank; lam^T is
    reduced once and every rank is exact.
    """
    base = _lambda_exact().transpose()
    rank = base.rank()
    ninth = Fraction(1, 9)

    def holds(x22_sign: int) -> bool:
        w = [0] * 16
        w[5], w[6], w[9], w[10] = 1, -1, -1, x22_sign
        w[0], w[3], w[12], w[15] = -ninth, ninth, ninth, -ninth
        return base.hstack(RationalMatrix.column(w)).rank() == rank

    return InnerIdentityResolution(
        plus_variant_holds=holds(+1),
        minus_variant_holds=holds(-1),
        corner_coefficient=ninth,
    )


# ---------------------------------------------------------------------------
# Joint repair of patch sets


class RepairError(ValueError):
    """A connected component of the joint repair system has no exact solution.

    Raised when its constraint rows are rank-deficient over the free
    variables (decided exactly for each patch's own rows, or found when the
    component's Gram matrix is not positive definite) or when its residual
    stays above the stop bound, or not a number, after the refinement steps.
    ``patches`` holds the component's patch indices.
    """

    def __init__(self, patches, reason: str):
        self.patches = tuple(int(p) for p in patches)
        super().__init__(f"joint repair of patches {list(self.patches)} {reason}")


class RepairSystemStats(NamedTuple):
    """Size and health of the system a joint repair solved."""

    rows: int = 0              # 5 reduced constraint rows per patch
    free_variables: int = 0    # unknowns of the solve
    shared_variables: int = 0  # free variables named by two or more patches
    fixed_variables: int = 0   # corner variables, held at their input
    components: int = 0        # independent blocks of patches coupled by shared variables
    levels: int = 0            # most breadth-first levels in one factored component
    max_level_patches: int = 0  # patches in the widest factored level
    step_residuals: tuple = ()  # per step: worst reduced residual over its component's scale


class RepairResult(NamedTuple):
    points: np.ndarray               # (N, 3, 4, 4) repaired control values
    displacement: np.ndarray         # (N,) largest move of a non-corner control value
    corner_displacement: np.ndarray  # (N,) largest move of a corner control value
    max_displacement: float
    residual: float  # worst post-repair row of the 6-row system over the set's scale
    system: RepairSystemStats = RepairSystemStats()

    @property
    def patches(self) -> list:
        """One BezierPatch viewing each row of ``points``, made on each read."""
        return [BezierPatch._of(row) for row in self.points]


_REFINEMENT_STEPS = 3


def _pairs_on_one_variable(var: np.ndarray):
    """All ordered pairs (i, j) of entries of ``var`` with the same value.

    Pairs come grouped by ascending value and, within a group, in the
    entries' own order, so a subset whose values keep their relative order
    enumerates its pairs in the same order alone as inside a larger set.
    """
    order = np.argsort(var, kind="stable")
    starts = np.flatnonzero(np.r_[True, var[order][1:] != var[order][:-1]])
    counts = np.diff(np.r_[starts, len(var)])
    group_size = np.repeat(counts, counts)  # per sorted entry
    left = np.repeat(np.arange(len(var)), group_size)
    first = np.repeat(np.repeat(starts, counts), group_size)
    offset = np.arange(len(left)) - np.repeat(np.cumsum(group_size) - group_size, group_size)
    return order[left], order[first + offset]


def _components(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Smallest node index of each of ``n`` nodes' component under edges (a, b).

    Min-label propagation with pointer jumping; ``a``/``b`` must list every
    edge in both directions.
    """
    label = np.arange(n)
    while True:
        new = label.copy()
        np.minimum.at(new, a, label[b])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _bfs_levels(roots: np.ndarray, a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Breadth-first distance of each of ``n`` nodes from its component's root.

    All roots grow at once; nodes no root reaches read -1.  ``a``/``b`` must
    list every edge in both directions.
    """
    level = np.full(n, -1)
    level[roots] = 0
    frontier = level == 0
    depth = 0
    while True:
        reach = np.zeros(n, dtype=bool)
        reach[b[frontier[a]]] = True
        frontier = reach & (level < 0)
        if not frontier.any():
            return level
        depth += 1
        level[frontier] = depth


def _level_sets(a: np.ndarray, b: np.ndarray, comp: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Level of each node in a rooted level structure of its component.

    The root is pseudo-peripheral (George & Liu, 1981, ch. 4): starting
    from ``roots[c]``, each component moves its root to the least-degree,
    then lowest-index node of its deepest level for as long as that
    deepens the structure.  Edges join only nodes of one level or of
    adjacent levels, and each component's levels depend on it alone.
    """
    n = len(comp)
    degree = np.bincount(a, minlength=n)
    level = _bfs_levels(roots, a, b, n)
    depth = np.zeros(len(roots), dtype=level.dtype)
    np.maximum.at(depth, comp, level)
    searching = np.ones(len(roots), dtype=bool)
    while searching.any():
        last = np.flatnonzero((level == depth[comp]) & searching[comp])
        last = last[np.lexsort((last, degree[last], comp[last]))]
        _, first = np.unique(comp[last], return_index=True)
        trial = _bfs_levels(last[first], a, b, n)
        trial_depth = np.full(len(roots), -1)
        np.maximum.at(trial_depth, comp, trial)
        searching = trial_depth > depth
        level = np.where(searching[comp], trial, level)
        depth = np.maximum(depth, trial_depth)
    return level


def _patch_ranks(slot_var, fixed, comp, needed) -> None:
    """Raise RepairError on the first ``needed`` component holding a patch whose
    five reduced rows have exact rank below 5 over its own free variables.

    A patch's inner slots are private and free, and its rows have rank 4 on
    them, so its rank is 5 exactly when the certified ``boundary_row``,
    summed per free variable of the patch, is not all 0, and 4 otherwise."""
    row = build_lambda().boundary_row
    slots = np.flatnonzero(row)
    var = slot_var[:, slots]
    sums = (var[:, :, None] == var[:, None, :]) @ row[slots]  # per slot: its variable's sum
    deficient = needed[comp] & ~((sums != 0) & ~fixed[var]).any(axis=1)
    if deficient.any():
        c = comp[deficient].min()
        p = np.flatnonzero(deficient & (comp == c))[0]
        raise RepairError(np.flatnonzero(comp == c), f"is rank-deficient: patch {p}'s five "
                          "constraint rows have exact rank 4 over its free variables")


def _variables(pts: np.ndarray):
    """The variable of each of the (n, 16) slots of ``pts``, and which variables are fixed.

    Boundary slots with bit-identical coordinates (the ranks of their
    ``patches._key_codes``, without starts) name one variable, inner slots are
    private to their patch, and corner variables are fixed.
    """
    n = len(pts)
    boundary = np.unique(_key_codes(pts[:, _BOUNDARY].reshape(-1, 3)), return_inverse=True)[1]
    slot_var = np.empty((n, 16), dtype=np.intp)
    slot_var[:, _BOUNDARY] = boundary.reshape(n, 12)
    slot_var[:, _INNER] = boundary.max() + 1 + np.arange(4 * n).reshape(n, 4)
    fixed = np.zeros(boundary.max() + 1 + 4 * n, dtype=bool)
    fixed[slot_var[:, _CORNERS]] = True
    return slot_var, fixed


def _defects(out: np.ndarray, comp: np.ndarray, comp_scale: np.ndarray):
    """The reduced defect of each patch of ``out`` and, per component, its
    worst reduced row, its worst 6-row row, and whether the two together are
    not within the stop bound, 1e-13 times ``comp_scale``; a NaN is not."""
    system = build_lambda()
    defect = system.reduced_f @ out  # (n, 5, 3)
    worst, six = np.zeros((2, len(comp_scale)))
    np.maximum.at(worst, comp, np.abs(defect).max(axis=(1, 2)))
    np.maximum.at(six, comp, np.abs(system.lam @ out).max(axis=(1, 2)))
    return defect, worst, six, ~(np.maximum(worst, six) <= 1e-13 * comp_scale)


def _assemble(i, j, p_idx, coef, link, comp, roots, needed) -> list:
    """The Gram blocks, level by level, of the ``needed`` components of the patch graph ``link``.

    Free slots ``i`` and ``j`` on one variable add ``coef[i] coef[j]^T`` to
    A A^T.  Ordered by component, then level (``_level_sets``), then index,
    A A^T is block tridiagonal; only its diagonal and sub-diagonal blocks
    are summed, in one pass.  Returns ``(component, patches in row order,
    diagonal block, sub-diagonal block or None at a component's first level)``
    for each level in that order.
    """
    n = len(comp)
    level_key, group, count = np.unique(
        comp * n + _level_sets(link // n, link % n, comp, roots),
        return_inverse=True, return_counts=True,
    )
    order = np.argsort(group, kind="stable")
    offset = np.empty(n, dtype=np.intp)  # first row of each patch within its level
    offset[order] = 5 * (np.arange(n) - np.repeat(np.cumsum(count) - count, count))
    level_comp, level = np.divmod(level_key, n)
    width = 5 * count
    solved = needed[level_comp]
    sizes = solved[:, None] * width[:, None] * np.c_[width, np.r_[0, width[:-1]] * (level > 0)]
    base = (np.cumsum(sizes) - sizes.ravel()).reshape(-1, 2)
    gi, gj = group[p_idx[i]], group[p_idx[j]]
    keep = (gj <= gi) & solved[gi]
    i, j, gi, gj = i[keep], j[keep], gi[keep], gj[keep]
    cell = (
        base[gi, (gj < gi).astype(np.intp), None, None]
        + (offset[p_idx[i], None, None] + np.arange(5)[:, None]) * width[gj, None, None]
        + offset[p_idx[j], None, None] + np.arange(5)
    )
    blocks = np.bincount(
        cell.ravel(), (coef[i, :, None] * coef[j, None, :]).ravel(), minlength=int(sizes.sum())
    )
    levels, end, width, base = [], np.cumsum(count).tolist(), width.tolist(), base.tolist()
    for g in np.flatnonzero(solved).tolist():
        w, (diag, sub) = width[g], base[g]
        levels.append((level_comp[g], order[end[g] - w // 5:end[g]],
                       blocks[diag:sub].reshape(w, w),  # a block ends where the next starts
                       None if not level[g] else blocks[sub:sub + w * width[g - 1]].reshape(w, -1)))
    return levels


def _factor(levels, comp) -> list:
    """Block Cholesky of ``levels``, one after another.

    L_k = chol(G_kk - B_k B_k^T) with B_k = G_k,k-1 L_k-1^-T.  Returns each
    level as ``(component, patches, L_k^-1, B_k)``, B_k None where the level
    starts its component.  A level whose Schur complement is not positive
    definite raises RepairError on its component.
    """
    factored = []
    for c, rows, diag, sub in levels:
        below = None if sub is None else sub @ factored[-1][2].T
        schur = diag if below is None else diag - below @ below.T
        try:
            factored.append((c, rows, np.linalg.inv(np.linalg.cholesky(schur)), below))
        except np.linalg.LinAlgError:
            reason = "is rank-deficient: its Gram matrix is not positive definite"
            raise RepairError(np.flatnonzero(comp == c), reason) from None
    return factored


def _refine(out, defects, comp, comp_scale, factored, p_idx, k_idx, var, coef):
    """Correct ``out``, whose ``_defects`` are ``defects``, in place.

    Each of up to ``_REFINEMENT_STEPS`` steps moves the components still
    open by x = A^T (A A^T)^-1 r: one forward and one backward block
    substitution, then the sum per variable.  One still open after the
    last step raises RepairError.  Returns the worst reduced residual over
    the scale before each step, and ``_defects``' last 6-row maxima.
    """
    defect, worst, six, open_comps = defects
    history = []
    for step in range(_REFINEMENT_STEPS + 1):
        history.append(float(np.max(worst / comp_scale)))
        if not open_comps.any():
            return history, six
        if step == _REFINEMENT_STEPS:
            c = np.flatnonzero(open_comps)[0]
            raise RepairError(
                np.flatnonzero(comp == c),
                f"is infeasible: its residual is still "
                f"{np.maximum(worst, six)[c] / comp_scale[c]:.3e} "
                f"of its scale after {_REFINEMENT_STEPS} refinement steps (bound 1e-13)",
            )
        levels = [level for level in factored if open_comps[level[0]]]
        order = np.concatenate([rows for _, rows, _, _ in levels])
        r, lo = defect[order].reshape(-1, 3), 0
        z = [r[lo:(lo := lo + 5 * len(rows))] for _, rows, _, _ in levels]  # views of r, by level
        for k, (_, _, inv_factor, below) in enumerate(levels):
            z[k][:] = inv_factor @ (z[k] if below is None else z[k] - below @ z[k - 1])
        after = [below for *_, below in levels[1:]] + [None]  # B of the next level, or None
        for k in reversed(range(len(levels))):
            z[k][:] = levels[k][2].T @ (z[k] if after[k] is None else z[k] - after[k].T @ z[k + 1])
        y = np.zeros_like(defect)
        y[order] = r.reshape(-1, 5, 3)
        delta = np.zeros((var.max() + 1, 3))
        np.add.at(delta, var, np.einsum("sa,sad->sd", coef, y[p_idx]))
        out[p_idx, k_idx] -= delta[var]
        defect, worst, six, open_comps = _defects(out, comp, comp_scale)


def repair_patches(patches: Sequence[BezierPatch]) -> RepairResult:
    """Minimally move control points so every patch becomes compliant.

    Boundary control points with bit-identical coordinates in several
    patches are one shared variable, so exactly-shared edges stay exactly
    shared.  Corner variables are held fixed, and every slot on one keeps
    its own input bit-exact, sign of zero included.  Inner control points
    stay private to their patch.  The constraints are the certified
    full-rank reduced rows, five per patch; patches coupled by shared free
    variables form components, each corrected on its own by the least
    change.  A component whose reduced and 6-row residuals are already
    within 1e-13 times its scale, max(1, max |coordinate|), is returned
    untouched.  Any other component with rank-deficient rows, or whose
    residual stays above that bound or is not a number, raises RepairError
    naming its patches.  The method is in the stages' docstrings:
    ``_variables``, ``_patch_ranks``, ``_assemble``, ``_factor`` and
    ``_refine``.

    ``points``, ``displacement`` and ``corner_displacement`` are read-only
    arrays that view no writeable one.  ``residual`` is the worst
    post-repair row of the 6-row system over max(1, max |coordinate|) of
    the whole set; ``system`` reports the size of the solve, its level
    structure and the residual before each refinement step.
    bs_project() is the one-patch case.
    """
    arr = _patch_array(patches)
    n = len(arr)
    if not n:
        points, none = np.zeros((0, 3, 4, 4)), np.zeros(0)
        points.flags.writeable = none.flags.writeable = False
        return RepairResult(points, none, none, max_displacement=0.0, residual=0.0)

    pts = arr.reshape(n, 3, 16).transpose(0, 2, 1)
    slot_var, fixed = _variables(pts)
    p_idx, k_idx = np.nonzero(~fixed[slot_var])
    var = slot_var[p_idx, k_idx]
    coef = build_lambda().reduced_f[:, k_idx].T  # each free slot's coefficients in its rows
    # Two free slots on one variable couple their patches; a variable
    # repeated within one patch (a collapsed edge) couples it to itself.
    i, j = _pairs_on_one_variable(var)
    link = np.unique(p_idx[i] * n + p_idx[j])
    link = link[link // n != link % n]
    roots, comp = np.unique(_components(link // n, link % n, n), return_inverse=True)
    comp_scale = np.ones(len(roots))
    np.maximum.at(comp_scale, comp, np.abs(pts).max(axis=(1, 2)))

    # A component within the stop bound is neither rank-checked nor factored.
    # The defect is taken on a contiguous copy, as in every refinement step.
    out = pts.copy()
    defects = _defects(out, comp, comp_scale)
    needed = defects[3]
    _patch_ranks(slot_var, fixed, comp, needed)
    levels = _assemble(i, j, p_idx, coef, link, comp, roots, needed)
    factored = _factor(levels, comp)
    history, six = _refine(out, defects, comp, comp_scale, factored, p_idx, k_idx, var, coef)

    moved = np.max(np.abs(out - pts), axis=2)
    disp, corner_disp = moved[:, _NONCORNERS].max(axis=1), moved[:, _CORNERS].max(axis=1)
    points = out.transpose(0, 2, 1).reshape(n, 3, 4, 4).copy()  # C order, as a loader gives
    points.flags.writeable = disp.flags.writeable = corner_disp.flags.writeable = False
    patch_count = np.bincount(np.unique(var * n + p_idx) // n, minlength=len(fixed))
    return RepairResult(
        points, disp, corner_disp,
        max_displacement=float(disp.max()),
        residual=float(six.max() / comp_scale.max()),
        system=RepairSystemStats(
            rows=5 * n,
            free_variables=int(np.count_nonzero(~fixed)),
            shared_variables=int(np.count_nonzero(patch_count > 1)),
            fixed_variables=int(np.count_nonzero(fixed)),
            components=len(roots),
            levels=int(np.unique([c for c, *_ in levels], return_counts=True)[1].max(initial=0)),
            max_level_patches=max((len(rows) for _, rows, *_ in levels), default=0),
            step_residuals=tuple(history),
        ),
    )
