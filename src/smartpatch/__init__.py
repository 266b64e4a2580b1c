"""Bicubic Bezier/Hermite patch kernel with cubic-diagonal constraints."""

from .constraints import (
    ConstraintReport,
    ConstraintSystem,
    DiagonalKind,
    Poly,
    bs_free_cells,
    bs_inner_identity,
    bs_project,
    bs_residuals,
    bs_solve,
    build_lambda,
    collapse_diagonal,
    repair_patches,
    resolve_inner_identity,
)
from .io import PatchFormatError, PatchSet, dump_patchset, export_obj, load_newell, load_patchset
from .linalg import RationalMatrix
from .patches import (
    BezierPatch,
    DomainError,
    HermitePatch,
    bezier_to_hermite,
    eval_patch,
    hermite_to_bezier,
)
from .tessellation import (
    Adjacency,
    ContinuityReport,
    EdgeId,
    EdgeSide,
    TessPattern,
    TriangleMesh,
    continuity_report,
    detect_adjacency,
    surface_normal,
    tessellate,
    tessellate_set,
)

__version__ = "0.1.0"
