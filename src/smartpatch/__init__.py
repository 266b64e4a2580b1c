"""Bicubic Bezier/Hermite patch kernel with cubic-diagonal constraints.

Importing the package loads none of its modules: each name in ``__all__``
imports its module on first use (PEP 562), so the exact derivation alone
loads ``linalg``, ``patches`` and ``constraints``.
"""

import importlib

# Each public name, by the module that defines it.
_MODULES = {
    "constraints": ("ConstraintReport", "ConstraintSystem", "DiagonalKind", "Poly",
                    "bs_free_cells", "bs_inner_identity", "bs_project", "bs_residuals", "bs_solve",
                    "build_lambda", "collapse_diagonal", "repair_patches", "resolve_inner_identity"),
    "io": ("PatchFormatError", "PatchSet", "dump_patchset", "export_obj", "load_newell",
           "load_patchset"),
    "linalg": ("RationalMatrix",),
    "patches": ("BezierPatch", "DomainError", "HermitePatch", "bezier_to_hermite", "eval_patch",
                "hermite_to_bezier"),
    "tessellation": ("Adjacency", "ContinuityReport", "EdgeId", "EdgeSide", "TessPattern",
                     "TriangleMesh", "continuity_report", "detect_adjacency", "surface_normal",
                     "tessellate", "tessellate_set"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
