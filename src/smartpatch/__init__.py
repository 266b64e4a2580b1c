"""Bicubic Bezier/Hermite patch kernel with cubic-diagonal constraints."""

from .constraints import (
    ConstraintReport,
    ConstraintSystem,
    DiagonalKind,
    HsReport,
    Poly,
    bs_free_cells,
    bs_inner_identity,
    bs_project,
    bs_residuals,
    bs_solve,
    build_lambda,
    build_omega,
    collapse_diagonal,
    diagonal_matrix,
    hs_alpha_beta,
    hs_phi,
    hs_twists,
    hs_validate,
    repair_patches,
    resolve_inner_identity,
)
from .io import PatchFormatError, PatchSet, dump_patchset, export_obj, load_newell, load_patchset
from .linalg import RationalMatrix
from .patches import (
    BezierPatch,
    DomainError,
    HermitePatch,
    bezier_basis,
    bezier_to_hermite,
    eval_patch,
    hermite_to_bezier,
    reparam_T,
)
from .tessellation import (
    Adjacency,
    ContinuityReport,
    EdgeId,
    EdgeSide,
    TessPattern,
    TriangleMesh,
    continuity_report,
    continuity_reports,
    detect_adjacency,
    sample_grid,
    surface_normal,
    tessellate,
    tessellate_set,
)

__version__ = "0.1.0"
