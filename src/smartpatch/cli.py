"""Command-line front end.

One binary, subcommand style::

    smartpatch <lambda|validate|repair|convert|tessellate|continuity|teapot>
               [--in PATH] [--out PATH] [--tol FLOAT] [--n INT]
               [--pattern main|anti|alt|zigzag] [--direction b2h|h2b]
               [--json] [--normals] [--merge]

Every command but ``lambda`` loads ``--in`` with ``io.read_patchset``;
continuity and teapot measure the file's adjacency records, else the
detected ones.  Only the commands that read ``--tol`` take it.

Exit codes: 0 success/compliant, 1 validation failure, 2 input error,
3 internal assertion failure, 4 a JSON report holding a non-finite number.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import constraints, io, tessellation
from .constraints import DerivationError, RepairError
from .patches import DomainError, _checked_tol, _convert

EXIT_OK = 0
EXIT_NONCOMPLIANT = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_NONFINITE = 4


class NonFiniteReport(ValueError):
    """A report holds a NaN or an infinity, which JSON (RFC 8259) cannot hold."""


def _nonfinite_field(value, path="report"):
    """(path, value) of the first non-finite number in a report, else None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (path, value)
    if isinstance(value, dict):
        items = ((f"{path}.{k}", v) for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((f"{path}[{k}]", v) for k, v in enumerate(value))
    else:
        return None
    return next(filter(None, (_nonfinite_field(v, sub) for sub, v in items)), None)


def _json_text(report: dict) -> str:
    """The report as strict JSON; a non-finite number raises NonFiniteReport."""
    try:
        return json.dumps(report, indent=2, allow_nan=False)
    except ValueError:
        found = _nonfinite_field(report)
        if found is None:
            raise
        raise NonFiniteReport(f"{found[0]} is {found[1]}, which JSON cannot hold") from None


def _emit(report: dict, args, render):
    try:  # one print: every render yields at least one line
        print(_json_text(report) if args.json else "\n".join(render(report)), flush=True)
    except BrokenPipeError:  # the reader left: the rest goes to the null device, exit code kept
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())


# ---------------------------------------------------------------------------
# lambda


def cmd_lambda(args) -> int:
    system = constraints.build_lambda()  # raises DerivationError on a mismatch or a wrong rank
    res = constraints.resolve_inner_identity()
    report = {
        "command": "lambda",
        "rank": system.rank,
        "matches_reference": True,
        "matrix": [[int(v) for v in row] for row in system.lam],
        "pivot_cols": list(system.pivot_cols),
        "free_cols": list(system.free_cols),
        "solver_free_cells": [list(c) for c in constraints.bs_free_cells()],
        "inner_identity": {
            "certified": "x11 - x12 - x21 + x22 == (x00 - x03 - x30 + x33)/9",
            "corner_coefficient": str(res.corner_coefficient),
            "plus_variant_in_row_space": res.plus_variant_holds,
            "minus_variant_in_row_space": res.minus_variant_holds,
        },
    }

    def render(rep):
        yield "constraint matrix (6 x 16, integer entries):"
        for row in rep["matrix"]:
            yield " ".join(map(str, row))
        yield f"rank = {rep['rank']}"
        yield "pivot columns: " + " ".join(map(str, rep["pivot_cols"]))
        yield "free columns: " + " ".join(map(str, rep["free_cols"]))
        yield "solver free cells (row, col): " + " ".join(
            f"({i},{j})" for i, j in rep["solver_free_cells"]
        )
        ident = rep["inner_identity"]
        yield (
            f"inner identity (coefficient {ident['corner_coefficient']} on the corner"
            f" combination): {ident['certified']}"
        )
        yield (
            "sign certification: +x22 variant in row space: "
            f"{ident['plus_variant_in_row_space']}; -x22 variant: "
            f"{ident['minus_variant_in_row_space']}"
        )

    _emit(report, args, render)
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate


def _validation(arr: np.ndarray, tol: float):
    """Validation stage, in one pass over an (N, 3, 4, 4) Bezier-form array:
    each patch's six diagonal coefficients per coordinate (N, 3, 6) and
    their largest magnitude relative to the grid's scale (N, 3), the indices
    of the noncompliant patches (a nan residual is one) and the worst
    residual (0.0 for no patches)."""
    coeffs, scale = constraints._diagonal_coefficients(arr.reshape(len(arr), 3, 16))
    residual = np.max(np.abs(coeffs), axis=-1) / scale
    bad = np.flatnonzero(~(residual.max(axis=1) <= tol))
    return coeffs, residual, bad, float(residual.max(initial=0.0))


def cmd_validate(args) -> int:
    ps = io.read_patchset(args.in_path)
    # a Hermite set is decided on its Bezier form, relative to that form's scale
    arr = ps.points if args.form == "bezier" else _convert(ps.points, "h2b")
    coeffs, residual, bad, _ = _validation(arr, args.tol)
    bad = bad.tolist()
    noncompliant = set(bad)
    worst = residual.max(axis=1).tolist()  # NaN stays NaN, where max() of a list may drop it
    patches_report = []
    for k, (c, w) in enumerate(zip(coeffs.tolist(), residual.tolist())):
        coords = {
            name: {"main": cc[:3], "anti": cc[3:], "max_residual": ww}
            for name, cc, ww in zip("xyz", c, w)
        }
        patches_report.append(
            {"max_residual": worst[k], "compliant": k not in noncompliant,
             "coords": coords, "index": k}
        )
    report = {
        "command": "validate",
        "name": ps.name,
        "form": args.form,
        "tolerance": args.tol,
        "patch_count": len(ps.points),
        "noncompliant_patches": bad,
        "compliant": not bad,
        "patches": patches_report,
    }

    def render(rep):
        for r in rep["patches"]:
            verdict = "ok" if r["compliant"] else "NONCOMPLIANT"
            yield f"patch {r['index']:3d}: max residual {r['max_residual']:.3e}  {verdict}"
        yield (
            f"{rep['patch_count'] - len(rep['noncompliant_patches'])} of "
            f"{rep['patch_count']} patches compliant at tol {rep['tolerance']:g}"
        )

    _emit(report, args, render)
    return EXIT_OK if not bad else EXIT_NONCOMPLIANT


# ---------------------------------------------------------------------------
# repair


def _system_line(system: dict) -> str:
    steps = " ".join(f"{r:.3e}" for r in system["step_residuals"]) or "none"
    return (
        f"repair system: {system['rows']} rows, {system['free_variables']} free variables "
        f"({system['shared_variables']} shared), {system['fixed_variables']} fixed, "
        f"{system['components']} components, factored in up to {system['levels']} levels "
        f"of at most {system['max_level_patches']} patches; residual before each step: {steps}"
    )


def _repair(ps: io.PatchSet, tol: float):
    """Repair stage: the RepairResult, the repaired set, its largest corner
    displacement, its system statistics as a dict, and its validation."""
    result = constraints.repair_patches(ps.points)
    repaired = io.PatchSet(ps.name, result.points, ps.adjacency)
    corner = float(result.corner_displacement.max(initial=0.0))
    return result, repaired, corner, result.system._asdict(), _validation(repaired.points, tol)


def cmd_repair(args) -> int:
    ps = io.read_patchset(args.in_path)
    result, repaired, corner, system, (*_, worst_after) = _repair(ps, args.tol)
    io.write_patchset(repaired, args.out_path)
    report = {
        "command": "repair",
        "name": ps.name,
        "tolerance": args.tol,
        "patch_count": len(ps.points),
        "output": str(args.out_path),
        "max_displacement": result.max_displacement,
        "max_corner_displacement": corner,
        "max_residual_after": worst_after,
        "compliant_after": worst_after <= args.tol,
        "repair": system,
        "patches": [
            {"index": k, "max_displacement": d}
            for k, d in enumerate(result.displacement.tolist())
        ],
    }

    def render(rep):
        for r in rep["patches"]:
            yield f"patch {r['index']:3d}: moved control points by up to {r['max_displacement']:.3e}"
        yield f"wrote {rep['output']}"
        yield _system_line(rep["repair"])
        yield (
            f"max displacement {rep['max_displacement']:.3e}; corner displacement "
            f"{rep['max_corner_displacement']:.3e}; max residual after {rep['max_residual_after']:.3e}"
        )

    _emit(report, args, render)
    return EXIT_OK if report["compliant_after"] else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# convert


def cmd_convert(args) -> int:
    ps = io.read_patchset(args.in_path)
    out = _convert(ps.points, args.direction)
    io.write_patchset(io.PatchSet(name=ps.name, patches=out), args.out_path)
    report = {
        "command": "convert",
        "direction": args.direction,
        "patch_count": len(ps.points),
        "output": str(args.out_path),
    }
    if args.roundtrip:
        back = _convert(out, "h2b" if args.direction == "b2h" else "b2h")
        report["roundtrip_max_error"] = float(np.max(np.abs(ps.points - back), initial=0.0))

    def render(rep):
        yield f"converted {rep['patch_count']} patches ({rep['direction']}) -> {rep['output']}"
        if "roundtrip_max_error" in rep:
            yield f"roundtrip max error: {rep['roundtrip_max_error']:.3e}"

    _emit(report, args, render)
    return EXIT_OK


# ---------------------------------------------------------------------------
# tessellate


def cmd_tessellate(args) -> int:
    ps = io.read_patchset(args.in_path)
    pattern = tessellation.TessPattern(args.pattern)
    mesh = tessellation.tessellate_set(ps.points, args.n, pattern, with_normals=args.normals)
    files = []
    if args.merge:
        io.write_obj(mesh, args.out_path)
        files.append(str(args.out_path))
    else:
        out_dir = Path(args.out_path)
        out_dir.mkdir(parents=True, exist_ok=True)
        # patch k's mesh is vertex block k of the set mesh with patch 0's triangles
        size, triangles = (args.n + 1) ** 2, mesh.triangles[: 2 * args.n**2]
        for k in range(len(ps.points)):
            block = slice(k * size, (k + 1) * size)
            normals = None if mesh.normals is None else mesh.normals[block]
            part = tessellation.TriangleMesh(mesh.vertices[block], triangles, normals)
            path = out_dir / f"patch_{k:03d}.obj"
            io.write_obj(part, path)
            files.append(str(path))
    report = {
        "command": "tessellate",
        "name": ps.name,
        "n": args.n,
        "pattern": args.pattern,
        "patch_count": len(ps.points),
        "vertices": len(mesh.vertices),
        "triangles": len(mesh.triangles),
        "normals": args.normals,
        "files": files,
    }

    def render(rep):
        yield (
            f"tessellated {rep['patch_count']} patches at n={rep['n']} "
            f"({rep['pattern']}): {rep['vertices']} vertices, {rep['triangles']} triangles"
        )
        for f in rep["files"]:
            yield f"wrote {f}"

    _emit(report, args, render)
    return EXIT_OK


# ---------------------------------------------------------------------------
# continuity


def _records(ps: io.PatchSet, tol: float):
    """Adjacency stage: the (E, 2, 3) array of the set's own records when
    its file gives them, even none, else of those detected at ``tol``."""
    return tessellation._adjacency(ps.points, tol) if ps.adjacency is None else ps.adjacency


_MEASURES = ("c0_max_gap", "c1_max_mismatch", "g1_max_angle")


def _continuity(points, records, n: int):
    """Continuity stage: the (records, 3) array of each record's C0 gap, C1
    mismatch and G1 angle, and the worst of each by name (0.0 for no
    records)."""
    measures = tessellation.continuity_measures(points, records, n)
    return measures, dict(zip(_MEASURES, measures.max(axis=0, initial=0.0).tolist()))


def cmd_continuity(args) -> int:
    ps = io.read_patchset(args.in_path)
    records = _records(ps, args.tol)
    measures, worst = _continuity(ps.points, records, args.n)
    pairs = [dict(zip(io._RECORD_KEYS + _MEASURES, fields + row), samples=args.n + 1)
             for fields, row in zip(io._record_fields(records).tolist(), measures.tolist())]
    report = {
        "command": "continuity",
        "name": ps.name,
        "samples": args.n + 1,
        "pair_count": len(pairs),
        "pairs": pairs,
        "worst": worst,
    }

    def render(rep):
        for p in rep["pairs"]:
            yield (
                f"patch {p['a']} {p['edge_a']}{'*' if p['reversed_a'] else ''} | "
                f"patch {p['b']} {p['edge_b']}{'*' if p['reversed_b'] else ''}: "
                f"C0 {p['c0_max_gap']:.3e}  C1 {p['c1_max_mismatch']:.3e}  "
                f"G1 {p['g1_max_angle']:.3e} rad"
            )
        w = rep["worst"]
        yield (
            f"worst of {rep['pair_count']} pairs: C0 {w['c0_max_gap']:.3e}  "
            f"C1 {w['c1_max_mismatch']:.3e}  G1 {w['g1_max_angle']:.3e} rad"
        )

    _emit(report, args, render)
    return EXIT_OK


# ---------------------------------------------------------------------------
# teapot pipeline


def cmd_teapot(args) -> int:
    stage = "ingest"
    try:
        ps = io.read_patchset(args.in_path)
        out_dir = Path(args.out_path)
        out_dir.mkdir(parents=True, exist_ok=True)

        stage = "validate"
        *_, bad_before, worst_before = _validation(ps.points, args.tol)

        stage = "adjacency"
        records = _records(ps, args.tol)
        gaps_before, worst_gaps_before = _continuity(ps.points, records, args.n)

        stage = "repair"
        result, repaired, corner, system, (*_, bad_after, worst_after) = _repair(ps, args.tol)

        stage = "revalidate"
        gaps_after, worst_gaps_after = _continuity(repaired.points, records, args.n)

        stage = "tessellate"
        pattern = tessellation.TessPattern(args.pattern)
        merged = tessellation.tessellate_set(
            repaired.points, args.n, pattern, with_normals=args.normals
        )

        stage = "export"
        obj_path = out_dir / "teapot.obj"
        json_path = out_dir / "teapot_repaired.json"
        report_path = out_dir / "teapot_report.json"
        c0_delta = float(np.abs(gaps_before[:, 0] - gaps_after[:, 0]).max(initial=0.0))
        report = {
            "command": "teapot",
            "name": ps.name,
            "tolerance": args.tol,
            "patch_count": len(ps.points),
            "n": args.n,
            "pattern": args.pattern,
            "before": {"noncompliant_patches": len(bad_before), "max_residual": worst_before},
            "after": {"noncompliant_patches": len(bad_after), "max_residual": worst_after},
            "max_displacement": result.max_displacement,
            "max_corner_displacement": corner,
            "shared_edges": len(records),
            "c0_before_max": worst_gaps_before["c0_max_gap"],
            "c0_after_max": worst_gaps_after["c0_max_gap"],
            "c0_max_delta": c0_delta,
            "c1_before_max": worst_gaps_before["c1_max_mismatch"],
            "c1_after_max": worst_gaps_after["c1_max_mismatch"],
            "g1_before_max": worst_gaps_before["g1_max_angle"],
            "g1_after_max": worst_gaps_after["g1_max_angle"],
            "g1_after_worst_pair": int(np.argmax(gaps_after[:, 2])) if len(records) else None,
            "repair": system,
            "mesh": {"vertices": len(merged.vertices), "triangles": len(merged.triangles)},
            "outputs": [str(obj_path), str(json_path)],
        }
        io.write_obj(merged, obj_path)
        io.write_patchset(repaired, json_path)
        io._write_over(report_path, [(_json_text(report) + "\n").encode()])
    except (io.PatchFormatError, OSError, RepairError) as e:
        print(f"stage {stage} failed: {e}", file=sys.stderr)
        return EXIT_INPUT

    report["outputs"].append(str(report_path))

    def render(rep):
        yield f"ingested {rep['patch_count']} patches from {args.in_path}"
        for when in ("before", "after"):  # the counts line up in one column
            yield (
                f"{when + ' repair:':14} {rep[when]['noncompliant_patches']} noncompliant patches, "
                f"max residual {rep[when]['max_residual']:.3e}"
            )
        yield (
            f"control points moved by up to {rep['max_displacement']:.3e}; "
            f"corner displacement {rep['max_corner_displacement']:.3e}"
        )
        yield _system_line(rep["repair"])
        yield (
            f"shared edges: {rep['shared_edges']}; C0 before {rep['c0_before_max']:.3e}, "
            f"after {rep['c0_after_max']:.3e}, max change {rep['c0_max_delta']:.3e}"
        )
        worst = rep["g1_after_worst_pair"]
        yield (
            f"C1 before {rep['c1_before_max']:.3e}, after {rep['c1_after_max']:.3e}; "
            f"G1 before {rep['g1_before_max']:.3e}, after {rep['g1_after_max']:.3e} rad"
            + ("" if worst is None else f" (shared edge {worst})")
        )
        yield f"mesh: {rep['mesh']['vertices']} vertices, {rep['mesh']['triangles']} triangles"
        for f in rep["outputs"]:
            yield f"wrote {f}"

    _emit(report, args, render)
    return EXIT_INTERNAL if len(bad_after) else EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite number >= 0 (``patches._checked_tol``)."""
    value = float(text)
    try:
        return _checked_tol(value, text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _count(minimum: int):
    """argparse type of --n: an integer >= minimum."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
        return value

    return count


def _add_common(sp, *, output=False, tol=True):
    sp.add_argument("--in", dest="in_path", required=True, help="input file")
    if output:
        sp.add_argument("--out", dest="out_path", required=True, help="output path")
    if tol:
        sp.add_argument("--tol", type=_tolerance, default=constraints.DEFAULT_TOL,
                        help="relative tolerance (default 1e-9)")
    sp.add_argument("--json", action="store_true", help="emit the report as JSON")


def _add_mesh(sp, low: int):
    sp.add_argument("--n", type=_count(low), default=16, help="subdivisions per edge (default 16)")
    sp.add_argument("--pattern", choices=[t.value for t in tessellation.TessPattern],
                    default="main")
    sp.add_argument("--normals", action="store_true", help="include vertex normals")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smartpatch",
        description="Bicubic patch toolkit: cubic-diagonal constraints, repair, "
        "conversion, tessellation and continuity analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lambda", help="derive and certify the constraint system")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("validate", help="check patches against the diagonal-degree conditions")
    _add_common(p)
    p.add_argument("--form", choices=["bezier", "hermite"], default="bezier",
                   help="interpret grids as Bezier control points or Hermite blocks")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("repair", help="minimally move control points to reach compliance")
    _add_common(p, output=True)
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("convert", help="convert between Bezier and Hermite forms")
    _add_common(p, output=True, tol=False)
    p.add_argument("--direction", choices=["b2h", "h2b"], required=True)
    p.add_argument("--roundtrip", action="store_true",
                   help="convert back as well and report the max error")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("tessellate", help="triangulate patches and write OBJ")
    _add_common(p, output=True, tol=False)
    _add_mesh(p, 1)
    p.add_argument("--merge", action="store_true",
                   help="write one merged OBJ instead of one file per patch")
    p.set_defaults(func=cmd_tessellate)

    p = sub.add_parser("continuity", help="measure C0/C1/G1 agreement along shared edges")
    _add_common(p)
    p.add_argument("--n", type=_count(2), default=16,
                   help="samples per edge minus one (default 16)")
    p.set_defaults(func=cmd_continuity)

    p = sub.add_parser("teapot", help="end-to-end pipeline on a patch set")
    _add_common(p, output=True)
    _add_mesh(p, 2)
    p.set_defaults(func=cmd_teapot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (io.PatchFormatError, DomainError, RepairError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except DerivationError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except NonFiniteReport as e:
        print(f"error: {e}; no report written", file=sys.stderr)
        return EXIT_NONFINITE


if __name__ == "__main__":
    sys.exit(main())
