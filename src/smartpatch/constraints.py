"""Cubic-diagonal constraints on bicubic Bezier control grids.

Substituting v=u (or v=1-u) into a bicubic patch collapses it to a
univariate polynomial of degree up to 6.  Requiring both domain diagonals
to stay cubic imposes linear conditions on the 16 control values of each
coordinate grid.  This module derives those conditions symbolically from
the basis matrices, certifies the rank of the resulting 6x16 system
exactly, and builds solving, projection, validation and reporting on top
of it.  A matching set of checks for the Hermite form (corner phi, twist
sums, the tangent condition and the alpha/beta twist parameters) lives
here as well.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np

from .linalg import RationalMatrix
from .patches import _BB_ROWS, _T_ROWS, BezierPatch, HermitePatch, as_grid
from .patches import bezier_basis, reparam_T

__all__ = [
    "DiagonalKind",
    "Poly",
    "ConstraintSystem",
    "ConstraintReport",
    "DiagonalResiduals",
    "HsReport",
    "InnerIdentityResolution",
    "DerivationError",
    "DEFAULT_TOL",
    "LAMBDA_REFERENCE",
    "diagonal_matrix",
    "collapse_diagonal",
    "build_omega",
    "build_lambda",
    "bs_residuals",
    "bs_solve",
    "bs_free_cells",
    "bs_project",
    "bs_inner_identity",
    "resolve_inner_identity",
    "hs_phi",
    "hs_twists",
    "hs_alpha_beta",
    "hs_validate",
    "repair_patches",
    "RepairError",
    "grid_scale",
]

DEFAULT_TOL = 1e-9
PHI_DEGENERACY_TOL = 1e-12


class DerivationError(RuntimeError):
    """The symbolically derived constraint system failed a structural check."""


class DiagonalKind(Enum):
    MAIN = "main"  # v = u
    ANTI = "anti"  # v = 1 - u


# Corner positions within the row-major 16-vector of a grid, and the
# remaining 12 positions in row-major order (x01, x02, x10, x11, ...).
CORNER_INDICES = (0, 3, 12, 15)
NONCORNER_INDICES = tuple(k for k in range(16) if k not in CORNER_INDICES)
_NONCORNERS = list(NONCORNER_INDICES)  # numpy reads a tuple index as one index per axis

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


@dataclass(frozen=True)
class Poly:
    """Univariate real polynomial, coefficients stored highest degree first."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("polynomial needs at least one coefficient")

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


def grid_scale(g) -> float:
    """Relative-residual scale for a grid: max(1, max |value|)."""
    return max(1.0, float(np.max(np.abs(np.asarray(g, dtype=float)))))


def diagonal_matrix(g, kind: DiagonalKind) -> np.ndarray:
    """Quadratic-form matrix R of the diagonal curve: x(u) = u^T R u.

    R = Mb^T X Mb for the v=u diagonal; the v=1-u diagonal picks up the
    1-u substitution matrix on the right.
    """
    g = np.asarray(g, dtype=float)
    mb = bezier_basis()
    r = mb.T @ g @ mb
    if kind is DiagonalKind.ANTI:
        r = r @ reparam_T()
    return r


def collapse_diagonal(g, kind: DiagonalKind) -> Poly:
    """Degree-6 polynomial of the diagonal curve of one coordinate grid.

    Coefficient of u^d is the sum of R entries with i+j == 6-d (0-based),
    i.e. the anti-diagonals of R from the top-left corner down.
    """
    r = diagonal_matrix(g, kind)
    flipped = np.fliplr(r)
    coeffs = [float(np.trace(flipped, offset=3 - (6 - d))) for d in range(6, -1, -1)]
    return Poly(coeffs)


_MB_Q = RationalMatrix(_BB_ROWS)
_T_Q = RationalMatrix(_T_ROWS)


@functools.lru_cache(maxsize=None)
def _omega_exact(kind: DiagonalKind) -> RationalMatrix:
    """Exact 16x16 map from grid values (row-major) to R entries (row-major).

    Derived by pushing each basis grid E_ij through the R construction,
    never hand-typed: column 4i+j of the result is vec(R(E_ij)).
    """
    cols = []
    for i in range(4):
        for j in range(4):
            e = [[0] * 4 for _ in range(4)]
            e[i][j] = 1
            r = _MB_Q.transpose() @ RationalMatrix(e) @ _MB_Q
            if kind is DiagonalKind.ANTI:
                r = r @ _T_Q
            cols.append([r[a, b] for a in range(4) for b in range(4)])
    return RationalMatrix(list(zip(*cols)))


def build_omega(kind: DiagonalKind) -> np.ndarray:
    """Float view of the exact grid-to-R coefficient map (integer entries)."""
    return _omega_exact(kind).to_float()


# R-entry groups (0-based flat indices into vec(R)) whose sums form the
# u^6, u^5 and u^4 coefficients of the collapsed diagonal.
_LEADING_GROUPS = (
    ((0, 0),),
    ((0, 1), (1, 0)),
    ((0, 2), (1, 1), (2, 0)),
)


@functools.lru_cache(maxsize=1)
def _lambda_exact() -> RationalMatrix:
    rows = []
    for kind in (DiagonalKind.MAIN, DiagonalKind.ANTI):
        omega = _omega_exact(kind)
        for group in _LEADING_GROUPS:
            acc = [Fraction(0)] * 16
            for (a, b) in group:
                row = omega.row(4 * a + b)
                acc = [s + v for s, v in zip(acc, row)]
            rows.append(acc)
    return RationalMatrix(rows)


@dataclass(frozen=True)
class ConstraintSystem:
    """The 6x16 cubic-diagonal condition matrix with certified structure.

    ``lam1`` holds the four corner columns, ``lam2`` the remaining twelve
    (row-major grid order); ``rref``/``pivot_cols``/``free_cols`` describe
    the exact reduced form of the full matrix.
    """

    lam: np.ndarray
    lam1: np.ndarray
    lam2: np.ndarray
    rank: int
    rref: RationalMatrix
    pivot_cols: tuple
    free_cols: tuple


@dataclass(frozen=True)
class _Solver:
    """Reduced machinery shared by bs_solve and bs_project.

    ``reduced @ xi2 == rhs @ xi1`` is the full-rank (5-row) form of the
    constraint system with corners moved to the right-hand side.
    ``particular``/``homogeneous`` give the affine solution map used by
    bs_solve; ``gain`` is the least-squares correction map used by
    bs_project (gain = reduced^T (reduced reduced^T)^-1).  These exact
    maps are derived and certified once; bs_solve and bs_project run on
    the read-only float copies in the ``_f`` fields.
    """

    reduced: RationalMatrix     # 5 x 12
    rhs: RationalMatrix         # 5 x 4
    pivot_cols: tuple           # pivots of lam2, indices into the 12-vector
    free_cols: tuple            # the 7 free indices into the 12-vector
    particular: RationalMatrix  # 12 x 4: xi2 from corners with free values 0
    homogeneous: RationalMatrix # 12 x 7: contribution of the free values
    gain: RationalMatrix        # 12 x 5
    solve_f: np.ndarray         # 16 x 11: vec(grid) from (corners, free values)
    given_idx: list             # the 11 positions in vec(grid) that solve_f copies
    reduced_f: np.ndarray       # 5 x 16: reduced system residual of vec(grid)
    gain_f: np.ndarray          # 12 x 5


@functools.lru_cache(maxsize=1)
def build_lambda() -> ConstraintSystem:
    """Derive the constraint system and certify its structure exactly."""
    lam_q = _lambda_exact()
    reference = RationalMatrix(LAMBDA_REFERENCE)
    if lam_q != reference:
        raise DerivationError("derived constraint matrix does not match the reference table")
    red, rank, pivots = lam_q.rref()
    if rank != 5:
        raise DerivationError(f"constraint matrix rank is {rank}, expected 5")
    lam = lam_q.to_float()
    return ConstraintSystem(
        lam=lam,
        lam1=lam_q.take_cols(CORNER_INDICES).to_float(),
        lam2=lam_q.take_cols(NONCORNER_INDICES).to_float(),
        rank=rank,
        rref=red,
        pivot_cols=pivots,
        free_cols=tuple(c for c in range(16) if c not in pivots),
    )


@functools.lru_cache(maxsize=1)
def _solver() -> _Solver:
    build_lambda()  # certify first
    lam_q = _lambda_exact()
    lam2 = lam_q.take_cols(NONCORNER_INDICES)
    lam1_neg = -lam_q.take_cols(CORNER_INDICES)
    aug, rank, pivots = lam2.hstack(lam1_neg).rref()
    # Pivots of the augmented reduction must live in the lam2 block: the
    # system lam2 xi2 = -lam1 xi1 is solvable for every corner choice.
    if rank != 5 or any(p >= 12 for p in pivots):
        raise DerivationError("reduced corner system is not solvable for all corners")
    reduced = aug.take_rows(range(rank)).take_cols(range(12))
    rhs = aug.take_rows(range(rank)).take_cols(range(12, 16))
    free = tuple(c for c in range(12) if c not in pivots)

    zero = Fraction(0)
    part = [[zero] * 4 for _ in range(12)]
    homo = [[zero] * 7 for _ in range(12)]
    for r, p in enumerate(pivots):
        part[p] = list(rhs.row(r))
        homo[p] = [-reduced[r, f] for f in free]
    for k, f in enumerate(free):
        homo[f][k] = Fraction(1)
    particular, homogeneous = RationalMatrix(part), RationalMatrix(homo)

    gram_inv = (reduced @ reduced.transpose()).inverse()
    gain = reduced.transpose() @ gram_inv
    _certify(reduced, rhs, particular, homogeneous, gain)

    solve_f = np.zeros((16, 11))
    solve_f[list(CORNER_INDICES), :4] = np.eye(4)
    solve_f[_NONCORNERS] = particular.hstack(homogeneous).to_float()
    reduced_f = np.zeros((5, 16))
    reduced_f[:, _NONCORNERS] = reduced.to_float()
    reduced_f[:, list(CORNER_INDICES)] = -rhs.to_float()
    for m in (solve_f, reduced_f):
        m.flags.writeable = False
    return _Solver(
        reduced=reduced,
        rhs=rhs,
        pivot_cols=pivots,
        free_cols=free,
        particular=particular,
        homogeneous=homogeneous,
        gain=gain,
        solve_f=solve_f,
        given_idx=[*CORNER_INDICES, *(NONCORNER_INDICES[f] for f in free)],
        reduced_f=reduced_f,
        gain_f=gain.to_float(),
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


def bs_free_cells() -> tuple:
    """Grid cells (i, j) owned by the 7 free parameters of bs_solve, in order."""
    s = _solver()
    return tuple(divmod(NONCORNER_INDICES[f], 4) for f in s.free_cols)


@dataclass(frozen=True)
class DiagonalResiduals:
    """Leading collapsed-diagonal coefficients that must vanish."""

    a6: float
    a5: float
    a4: float
    rel: tuple  # the same three magnitudes divided by the grid scale

    @property
    def max_rel(self) -> float:
        return max(self.rel)


@dataclass(frozen=True)
class ConstraintReport:
    per_diagonal: Mapping[DiagonalKind, DiagonalResiduals]
    max_residual: float
    compliant: bool
    tolerance_used: float


def _vec(g) -> np.ndarray:
    """Row-major 16-vector of one 4x4 coordinate grid."""
    g = np.asarray(g, dtype=float)
    if g.shape != (4, 4):
        raise ValueError(f"grid must be 4x4, got {g.shape}")
    return g.reshape(-1)


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
    coeffs, scale = coeffs.tolist(), float(scale)
    per = {}
    for kind, (a6, a5, a4) in zip(DiagonalKind, (coeffs[:3], coeffs[3:])):
        rel = tuple(abs(c) / scale for c in (a6, a5, a4))
        per[kind] = DiagonalResiduals(a6=a6, a5=a5, a4=a4, rel=rel)
    worst = max(d.max_rel for d in per.values())
    return ConstraintReport(
        per_diagonal=per, max_residual=worst, compliant=worst <= tol, tolerance_used=tol
    )


def bs_solve(corners: Sequence[float], free: Sequence[float]) -> np.ndarray:
    """Construct a compliant grid from 4 corners and 7 free values.

    ``corners`` is (x00, x03, x30, x33); ``free`` feeds the non-pivot
    columns of the reduced system (grid cells given by bs_free_cells()).
    The solution map is derived and certified once in exact rational
    arithmetic; each call is one float product with it, and the corners
    and free values are copied into the grid bit-exact.
    """
    if len(corners) != 4:
        raise ValueError("need exactly 4 corner values")
    if len(free) != 7:
        raise ValueError("need exactly 7 free values")
    s = _solver()
    given = np.array([*corners, *free], dtype=float)
    flat = s.solve_f @ given
    flat[s.given_idx] = given
    return as_grid(flat.reshape(4, 4))


def bs_project(g) -> np.ndarray:
    """Closest compliant grid with the same corners (least squares).

    Minimizes the summed squared change of the 12 non-corner values
    subject to the reduced constraint system; corners pass through
    bit-exact.  The float gain, certified once in exact arithmetic, is
    applied to the grid's residual, so a compliant grid moves only by
    rounding and projecting twice is the identity to the same accuracy.
    """
    flat = _vec(g)
    s = _solver()
    out = flat.copy()
    out[_NONCORNERS] -= s.gain_f @ (s.reduced_f @ flat)
    return as_grid(out.reshape(4, 4))


def bs_inner_identity(g) -> float:
    """Residual of the certified inner-point identity.

    For every compliant grid, (x11 - x12 - x21 + x22) equals one ninth of
    (x00 - x03 - x30 + x33); see resolve_inner_identity() for the exact
    certification, including the rejected sign variant.
    """
    g = np.asarray(g, dtype=float)
    inner = g[1, 1] - g[1, 2] - g[2, 1] + g[2, 2]
    corner = g[0, 0] - g[0, 3] - g[3, 0] + g[3, 3]
    return float(inner - corner / 9.0)


@dataclass(frozen=True)
class InnerIdentityResolution:
    """Row-space membership of the two sign variants of the inner identity."""

    plus_variant_holds: bool   # x11 - x12 - x21 + x22 == (corner combo)/9
    minus_variant_holds: bool  # x11 - x12 - x21 - x22 == (corner combo)/9
    corner_coefficient: Fraction


def _in_row_space(lam_q: RationalMatrix, vec) -> bool:
    base = lam_q.transpose()
    augmented = base.hstack(RationalMatrix.column(vec))
    return augmented.rref()[1] == base.rref()[1]


@functools.lru_cache(maxsize=1)
def resolve_inner_identity() -> InnerIdentityResolution:
    """Certify which sign of the inner-point identity the system implies.

    A candidate identity holds for every compliant grid exactly when its
    coefficient vector lies in the row space of the constraint matrix;
    both membership tests run in exact rational arithmetic.
    """
    lam_q = _lambda_exact()
    ninth = Fraction(1, 9)

    def candidate(x22_sign: int):
        w = [Fraction(0)] * 16
        w[5], w[6], w[9], w[10] = Fraction(1), Fraction(-1), Fraction(-1), Fraction(x22_sign)
        w[0], w[3], w[12], w[15] = -ninth, ninth, ninth, -ninth
        return w

    return InnerIdentityResolution(
        plus_variant_holds=_in_row_space(lam_q, candidate(+1)),
        minus_variant_holds=_in_row_space(lam_q, candidate(-1)),
        corner_coefficient=ninth,
    )


# ---------------------------------------------------------------------------
# Hermite-form conditions


def hs_phi(h_grid) -> float:
    """Corner combination h11 - h12 - h21 + h22 of a Hermite-layout grid."""
    h = np.asarray(h_grid, dtype=float)
    return float(h[0, 0] - h[0, 1] - h[1, 0] + h[1, 1])


def hs_twists(phi: float, alpha: float, beta: float):
    """Twist block (h33, h34, h43, h44) from phi and the two twist weights."""
    return (
        2.0 * phi * (1.0 - alpha),
        2.0 * phi * (1.0 - beta),
        2.0 * phi * beta,
        2.0 * phi * alpha,
    )


def _hs_tangent_sums(h: np.ndarray):
    # a couples the v-tangents at (0,1)/(1,1) with the u-tangents at u=1;
    # b does the same for the v-tangents at (0,0)/(1,0); c is the pure
    # u-tangent combination entering the third twist equation.
    a = h[0, 3] - h[1, 3] + h[3, 0] - h[3, 1]
    b = h[0, 2] - h[1, 2] + h[3, 0] - h[3, 1]
    c = h[2, 0] - h[2, 1] - h[3, 0] + h[3, 1]
    return float(a), float(b), float(c)


def hs_alpha_beta(h_grid, degeneracy_tol: float = PHI_DEGENERACY_TOL) -> Optional[tuple]:
    """Twist weights (alpha, beta) implied by the boundary data.

    Returns None when phi is degenerate (|phi| <= tol * scale): the twist
    equations divide by 2*phi, so the weights are undetermined there.
    """
    h = np.asarray(h_grid, dtype=float)
    phi = hs_phi(h)
    if abs(phi) <= degeneracy_tol * grid_scale(h):
        return None
    a, b, _ = _hs_tangent_sums(h)
    return (-(a + phi) / (2.0 * phi), -(b + phi) / (2.0 * phi))


@dataclass(frozen=True)
class HsReport:
    """Residuals of the Hermite-form smoothness conditions for one grid."""

    phi: float
    twist_sum_residuals: tuple  # (h33 + h44 - 2 phi, h34 + h43 - 2 phi)
    tangent_residual: float     # tangent combination + 4 phi
    alpha: Optional[float]
    beta: Optional[float]
    degenerate_phi: bool
    compliant: bool


def _hs_report(h: np.ndarray, tol: float) -> HsReport:
    scale = grid_scale(h)
    phi = hs_phi(h)
    twist1 = float(h[2, 2] + h[3, 3] - 2.0 * phi)
    twist2 = float(h[2, 3] + h[3, 2] - 2.0 * phi)
    a, b, c = _hs_tangent_sums(h)
    tangent = a + b + c + 4.0 * phi
    ab = hs_alpha_beta(h)
    degenerate = ab is None
    compliant = max(abs(twist1), abs(twist2), abs(tangent)) <= tol * scale
    return HsReport(
        phi=phi,
        twist_sum_residuals=(twist1, twist2),
        tangent_residual=tangent,
        alpha=None if degenerate else ab[0],
        beta=None if degenerate else ab[1],
        degenerate_phi=degenerate,
        compliant=compliant,
    )


def hs_validate(h: HermitePatch, tol: float = DEFAULT_TOL) -> dict:
    """Per-coordinate Hermite-form reports, keyed 'x', 'y', 'z'."""
    return {name: _hs_report(g, tol) for name, g in zip("xyz", h.grids)}


# ---------------------------------------------------------------------------
# Joint repair of patch sets


class RepairError(ValueError):
    """A connected component of the joint repair system has no exact solution.

    Raised when its constraint rows are rank-deficient over the free
    variables (decided exactly for each patch's own rows, or found when the
    component's Gram matrix is not positive definite) or when its residual
    stays above the stop bound after the refinement steps.  ``patches``
    holds the component's patch indices.
    """

    def __init__(self, patches, reason: str):
        self.patches = tuple(int(p) for p in patches)
        super().__init__(f"joint repair of patches {list(self.patches)} {reason}")


@dataclass(frozen=True)
class PatchRepairStats:
    max_displacement: float
    corner_displacement: float


@dataclass(frozen=True)
class RepairSystemStats:
    """Size and health of the system a joint repair solved."""

    rows: int = 0              # 5 reduced constraint rows per patch
    free_variables: int = 0    # unknowns of the solve
    shared_variables: int = 0  # free variables named by two or more patches
    fixed_variables: int = 0   # corner variables, held at their input
    components: int = 0        # independent blocks of patches coupled by shared variables
    step_residuals: tuple = ()  # per step: worst reduced residual over its component's scale


@dataclass(frozen=True)
class RepairResult:
    patches: list
    per_patch: list
    max_displacement: float
    residual: float  # worst post-repair row of the 6-row system over the set's scale
    system: RepairSystemStats = RepairSystemStats()


_BOUNDARY = [k for k in range(16) if k // 4 in (0, 3) or k % 4 in (0, 3)]
_INNER = [k for k in range(16) if k not in _BOUNDARY]
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


@functools.lru_cache(maxsize=256)
def _pattern_rank(pattern: tuple) -> int:
    """Exact rank of one patch's reduced rows over its free variables.

    ``pattern`` holds, for each of the 12 non-corner slots, -1 when the slot
    is on a fixed variable, else the first non-corner slot of the patch on
    the same variable.  A free variable's column is the sum of its slots'
    columns of the certified reduced system.
    """
    reduced = _solver().reduced
    columns = {}
    for k, first in enumerate(pattern):
        if first >= 0:
            col = columns.setdefault(first, [Fraction(0)] * reduced.rows)
            for r in range(reduced.rows):
                col[r] += reduced[r, k]
    return RationalMatrix(list(columns.values())).rank() if columns else 0


def _patch_ranks(slot_var: np.ndarray, fixed: np.ndarray) -> np.ndarray:
    """Exact rank of each patch's five reduced rows over its own free variables.

    Patches with the same coincidence pattern share one cached rank."""
    var = slot_var[:, _NONCORNERS]
    first = np.argmax(var[:, :, None] == var[:, None, :], axis=2)
    patterns, which = np.unique(np.where(fixed[var], -1, first), axis=0, return_inverse=True)
    ranks = np.array([_pattern_rank(tuple(p)) for p in patterns.tolist()])
    return ranks[which.reshape(-1)]


def repair_patches(patches: Sequence[BezierPatch]) -> RepairResult:
    """Minimally move control points so every patch becomes compliant.

    Boundary control points with bit-identical coordinates in several
    patches are one shared variable, so exactly-shared edges stay exactly
    shared.  Corner variables are held fixed, and every slot on one keeps
    its own input bit-exact, sign of zero included.  Inner control points
    stay private to their patch.

    The constraints are the certified full-rank reduced rows, five per
    patch.  Patches coupled by shared free variables form connected
    components, each solved on its own as a minimum-norm correction
    x = A^T (A A^T)^-1 r: the Gram matrix A A^T of a component is assembled
    from its free-slot incidences, factored once by Cholesky and reused in
    up to three refinement steps, which stop once the reduced residual is
    within 1e-13 times the component's scale, max(1, max |coordinate|).
    A component already within that bound is returned untouched.  Any
    other component with rank-deficient rows or whose residual stays above
    that bound (infeasible constraints) raises RepairError naming its patches.
    Deficiency within one patch's rows, which comes from which of its slots
    share a variable, is decided exactly before any float work; deficiency
    across patches shows as a Gram matrix that is not positive definite.

    ``residual`` is the worst post-repair row of the 6-row system over
    max(1, max |coordinate|) of the whole set; ``system`` reports the size
    of the solve and the residual before each refinement step.
    bs_project() is the one-patch case.
    """
    if not patches:
        return RepairResult(patches=[], per_patch=[], max_displacement=0.0, residual=0.0)

    n = len(patches)
    pts = np.stack([p.as_array for p in patches]).reshape(n, 3, 16).transpose(0, 2, 1)
    shared, inverse = np.unique(pts[:, _BOUNDARY].reshape(-1, 3), axis=0, return_inverse=True)
    slot_var = np.empty((n, 16), dtype=np.intp)
    slot_var[:, _BOUNDARY] = inverse.reshape(n, 12)
    slot_var[:, _INNER] = len(shared) + np.arange(4 * n).reshape(n, 4)
    fixed = np.zeros(len(shared) + 4 * n, dtype=bool)
    fixed[slot_var[:, list(CORNER_INDICES)]] = True
    p_idx, k_idx = np.nonzero(~fixed[slot_var])
    var = slot_var[p_idx, k_idx]
    reduced = _solver().reduced_f
    coef = reduced[:, k_idx].T  # each free slot's coefficients in its patch's five rows

    # Two free slots on one variable couple their patches' rows in A A^T; a
    # variable repeated within one patch (a collapsed edge) couples it to itself.
    i, j = _pairs_on_one_variable(var)
    _, comp = np.unique(_components(p_idx[i], p_idx[j], n), return_inverse=True)
    members = np.split(np.argsort(comp, kind="stable"), np.cumsum(np.bincount(comp))[:-1])
    local = np.empty(n, dtype=np.intp)
    for m in members:
        local[m] = np.arange(len(m))
    comp_scale = np.ones(len(members))
    np.maximum.at(comp_scale, comp, np.abs(pts).max(axis=(1, 2)))
    # A component already within the stop bound needs no correction: it is
    # neither rank-checked nor factored, and comes back untouched.
    worst = np.zeros(len(members))
    np.maximum.at(worst, comp, np.abs(reduced @ pts).max(axis=(1, 2)))
    needed = worst > 1e-13 * comp_scale
    rank = np.full(n, 5)
    rank[needed[comp]] = _patch_ranks(slot_var[needed[comp]], fixed)
    if (rank < 5).any():
        c = comp[rank < 5].min()
        p = np.flatnonzero((rank < 5) & (comp == c))[0]
        reason = (
            f"is rank-deficient: patch {p}'s five constraint rows have exact rank "
            f"{rank[p]} over its free variables"
        )
        raise RepairError(members[c], reason)
    by_comp = np.argsort(comp[p_idx[i]], kind="stable")
    cuts = np.cumsum(np.bincount(comp[p_idx[i]], minlength=len(members)))[:-1]
    factors = {}
    pairs = zip(np.split(i[by_comp], cuts), np.split(j[by_comp], cuts))
    for c, (ic, jc) in enumerate(pairs):
        if not needed[c]:
            continue
        m = members[c]
        size = 5 * len(m)
        row = 5 * local[p_idx[ic], None, None] + np.arange(5)[:, None]
        col = 5 * local[p_idx[jc], None, None] + np.arange(5)
        gram = np.bincount(
            (row * size + col).ravel(),
            (coef[ic, :, None] * coef[jc, None, :]).ravel(),
            minlength=size * size,
        ).reshape(size, size)
        try:
            factors[c] = np.linalg.inv(np.linalg.cholesky(gram))
        except np.linalg.LinAlgError:
            reason = "is rank-deficient: its Gram matrix is not positive definite"
            raise RepairError(m, reason) from None

    out = pts.copy()
    history = []
    for step in range(_REFINEMENT_STEPS + 1):
        defect = reduced @ out  # (n, 5, 3)
        worst = np.zeros(len(members))
        np.maximum.at(worst, comp, np.abs(defect).max(axis=(1, 2)))
        history.append(float(np.max(worst / comp_scale)))
        open_comps = np.flatnonzero(worst > 1e-13 * comp_scale)
        if not open_comps.size:
            break
        if step == _REFINEMENT_STEPS:
            c = open_comps[0]
            raise RepairError(
                members[c],
                f"is infeasible: its reduced residual is still {worst[c] / comp_scale[c]:.3e} "
                f"of its scale after {_REFINEMENT_STEPS} refinement steps (bound 1e-13)",
            )
        y = np.zeros_like(defect)
        for c in open_comps:
            w, m = factors[c], members[c]
            y[m] = (w.T @ (w @ defect[m].reshape(-1, 3))).reshape(-1, 5, 3)
        delta = np.zeros((len(fixed), 3))
        np.add.at(delta, var, np.einsum("sa,sad->sd", coef, y[p_idx]))
        out[p_idx, k_idx] -= delta[var]

    moved = np.max(np.abs(out - pts), axis=2)
    disp = moved[:, _NONCORNERS].max(axis=1)
    corner_disp = moved[:, list(CORNER_INDICES)].max(axis=1)
    patch_count = np.bincount(np.unique(var * n + p_idx) // n, minlength=len(fixed))
    scale = max(1.0, float(np.max(np.abs(pts))))
    return RepairResult(
        patches=[BezierPatch(*g) for g in out.transpose(0, 2, 1).reshape(n, 3, 4, 4)],
        per_patch=[
            PatchRepairStats(max_displacement=d, corner_displacement=c)
            for d, c in zip(disp.tolist(), corner_disp.tolist())
        ],
        max_displacement=float(disp.max()),
        residual=float(np.max(np.abs(build_lambda().lam @ out))) / scale,
        system=RepairSystemStats(
            rows=5 * n,
            free_variables=int(np.count_nonzero(~fixed)),
            shared_variables=int(np.count_nonzero(patch_count > 1)),
            fixed_variables=int(np.count_nonzero(fixed)),
            components=len(members),
            step_residuals=tuple(history),
        ),
    )
