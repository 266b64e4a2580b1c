"""Command-line front end.

One binary, subcommand style::

    smartpatch <lambda|validate|repair|convert|tessellate|continuity|teapot>
               [--in PATH] [--out PATH] [--tol FLOAT] [--n INT]
               [--pattern main|anti|alt|zigzag] [--direction b2h|h2b]
               [--json] [--normals] [--merge]

Exit codes: 0 success/compliant, 1 validation failure, 2 input error,
3 internal assertion failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import constraints, io, tessellation
from .constraints import DerivationError, RepairError
from .patches import BezierPatch, DomainError, HermitePatch, bezier_to_hermite, hermite_to_bezier

EXIT_OK = 0
EXIT_NONCOMPLIANT = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _load_any(path: str) -> io.PatchSet:
    """Load a patch JSON or Newell file, sniffing by leading character."""
    text = Path(path).read_text()
    head = text.lstrip()[:1]
    if head == "{":
        ps = io.load_patchset(text)
        if not ps.name:
            ps.name = Path(path).stem
        return ps
    return io.load_newell(text, name=Path(path).stem)


def _emit(report: dict, args, render):
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for line in render(report):
            print(line)


# ---------------------------------------------------------------------------
# lambda


def _fmt_row(row) -> str:
    return " ".join(str(int(v)) for v in row)


def cmd_lambda(args) -> int:
    derived = constraints._lambda_exact()
    reference = constraints.RationalMatrix(constraints.LAMBDA_REFERENCE)
    if derived != reference:
        print("derived constraint matrix does not match the reference table:", file=sys.stderr)
        for i in range(6):
            for j in range(16):
                if derived[i, j] != reference[i, j]:
                    print(
                        f"  entry ({i},{j}): derived {derived[i, j]} != reference {reference[i, j]}",
                        file=sys.stderr,
                    )
        return EXIT_INTERNAL
    system = constraints.build_lambda()
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
    if system.rank != 5:
        return EXIT_INTERNAL

    def render(rep):
        yield "constraint matrix (6 x 16, integer entries):"
        for row in rep["matrix"]:
            yield _fmt_row(row)
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


def _bezier_patch_reports(patches, tol: float) -> list:
    """Per-patch compliance reports, read from one pass over the whole set."""
    if not patches:
        return []
    flat = np.stack([p.as_array for p in patches]).reshape(len(patches), 3, 16)
    coeffs, scale = constraints._diagonal_coefficients(flat)
    worst = np.max(np.abs(coeffs), axis=-1) / scale  # (patches, xyz)
    out = []
    for c, w in zip(coeffs.tolist(), worst.tolist()):
        coords = {
            name: {"main": cc[:3], "anti": cc[3:], "max_residual": ww}
            for name, cc, ww in zip("xyz", c, w)
        }
        out.append({"max_residual": max(w), "compliant": max(w) <= tol, "coords": coords})
    return out


def _hermite_patch_report(patch: HermitePatch, tol: float) -> dict:
    coords = {}
    ok = True
    for name, rep in constraints.hs_validate(patch, tol).items():
        coords[name] = {
            "phi": rep.phi,
            "twist_sum_residuals": list(rep.twist_sum_residuals),
            "tangent_residual": rep.tangent_residual,
            "alpha": rep.alpha,
            "beta": rep.beta,
            "degenerate_phi": rep.degenerate_phi,
            "compliant": rep.compliant,
        }
        ok = ok and rep.compliant
    return {"compliant": ok, "coords": coords}


def cmd_validate(args) -> int:
    ps = _load_any(args.in_path)
    patches_report = []
    if args.form == "hermite":
        for k, p in enumerate(ps.patches):
            rep = _hermite_patch_report(HermitePatch(*p.grids), args.tol)
            rep["index"] = k
            patches_report.append(rep)
    else:
        for k, rep in enumerate(_bezier_patch_reports(ps.patches, args.tol)):
            rep["index"] = k
            patches_report.append(rep)
    bad = [r["index"] for r in patches_report if not r["compliant"]]
    report = {
        "command": "validate",
        "name": ps.name,
        "form": args.form,
        "tolerance": args.tol,
        "patch_count": len(ps.patches),
        "noncompliant_patches": bad,
        "compliant": not bad,
        "patches": patches_report,
    }

    def render(rep):
        for r in rep["patches"]:
            verdict = "ok" if r["compliant"] else "NONCOMPLIANT"
            if "max_residual" in r:
                yield f"patch {r['index']:3d}: max residual {r['max_residual']:.3e}  {verdict}"
            else:
                yield f"patch {r['index']:3d}: {verdict}"
        yield (
            f"{rep['patch_count'] - len(rep['noncompliant_patches'])} of "
            f"{rep['patch_count']} patches compliant at tol {rep['tolerance']:g}"
        )

    _emit(report, args, render)
    return EXIT_OK if not bad else EXIT_NONCOMPLIANT


# ---------------------------------------------------------------------------
# repair


def _system_line(system: dict) -> str:
    steps = " ".join(f"{r:.3e}" for r in system["step_residuals"])
    return (
        f"repair system: {system['rows']} rows, {system['free_variables']} free variables "
        f"({system['shared_variables']} shared), {system['fixed_variables']} fixed, "
        f"{system['components']} components, factored in up to {system['levels']} levels "
        f"of at most {system['max_level_patches']} patches; residual before each step: {steps}"
    )


def cmd_repair(args) -> int:
    ps = _load_any(args.in_path)
    result = constraints.repair_patches(ps.patches)
    worst_after = max(
        (r["max_residual"] for r in _bezier_patch_reports(result.patches, args.tol)), default=0.0
    )
    out = io.PatchSet(name=ps.name, patches=result.patches, adjacency=ps.adjacency)
    io.write_patchset(out, args.out_path)
    report = {
        "command": "repair",
        "name": ps.name,
        "tolerance": args.tol,
        "patch_count": len(ps.patches),
        "output": str(args.out_path),
        "max_displacement": result.max_displacement,
        "max_corner_displacement": max(
            (s.corner_displacement for s in result.per_patch), default=0.0
        ),
        "max_residual_after": worst_after,
        "compliant_after": worst_after <= args.tol,
        "repair": dataclasses.asdict(result.system),
        "patches": [
            {"index": k, "max_displacement": s.max_displacement}
            for k, s in enumerate(result.per_patch)
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
    ps = _load_any(args.in_path)
    converted = []
    roundtrip_err = 0.0
    for p in ps.patches:
        if args.direction == "b2h":
            out = bezier_to_hermite(p)
            if args.roundtrip:
                back = hermite_to_bezier(out)
        else:
            out = hermite_to_bezier(HermitePatch(*p.grids))
            if args.roundtrip:
                back = bezier_to_hermite(out)
        if args.roundtrip:
            for a, b in zip(p.grids, back.grids):
                roundtrip_err = max(roundtrip_err, float(np.max(np.abs(a - b))))
        converted.append(BezierPatch(*out.grids))
    io.write_patchset(io.PatchSet(name=ps.name, patches=converted), args.out_path)
    report = {
        "command": "convert",
        "direction": args.direction,
        "patch_count": len(ps.patches),
        "output": str(args.out_path),
    }
    if args.roundtrip:
        report["roundtrip_max_error"] = roundtrip_err

    def render(rep):
        yield f"converted {rep['patch_count']} patches ({rep['direction']}) -> {rep['output']}"
        if "roundtrip_max_error" in rep:
            yield f"roundtrip max error: {rep['roundtrip_max_error']:.3e}"

    _emit(report, args, render)
    return EXIT_OK


# ---------------------------------------------------------------------------
# tessellate


def cmd_tessellate(args) -> int:
    ps = _load_any(args.in_path)
    pattern = tessellation.TessPattern(args.pattern)
    mesh = tessellation.tessellate_set(ps.patches, args.n, pattern, with_normals=args.normals)
    files = []
    if args.merge:
        io.write_obj(mesh, args.out_path)
        files.append(str(args.out_path))
    else:
        out_dir = Path(args.out_path)
        out_dir.mkdir(parents=True, exist_ok=True)
        # patch k's mesh is vertex block k of the set mesh with patch 0's triangles
        size, triangles = (args.n + 1) ** 2, mesh.triangles[: 2 * args.n**2]
        for k in range(len(ps.patches)):
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
        "pattern": pattern.value,
        "patch_count": len(ps.patches),
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


def _continuity_pairs(ps: io.PatchSet, args):
    if ps.adjacency is not None:
        return ps.adjacency
    if args.detect:
        return tessellation.detect_adjacency(ps.patches, tol=args.tol)
    raise io.PatchFormatError(
        "input has no adjacency records; pass --detect to derive them from shared edges"
    )


def _adjacency_report(ps: io.PatchSet, records, n: int) -> list:
    reports = tessellation.continuity_reports(ps.patches, records, n)
    return [
        {
            "a": rec.a,
            "edge_a": rec.edge_a.side.value,
            "reversed_a": rec.edge_a.reversed,
            "b": rec.b,
            "edge_b": rec.edge_b.side.value,
            "reversed_b": rec.edge_b.reversed,
            "c0_max_gap": rep.c0_max_gap,
            "c1_max_mismatch": rep.c1_max_mismatch,
            "g1_max_angle": rep.g1_max_angle,
            "samples": rep.samples,
        }
        for rec, rep in zip(records, reports)
    ]


def cmd_continuity(args) -> int:
    ps = _load_any(args.in_path)
    records = _continuity_pairs(ps, args)
    pairs = _adjacency_report(ps, records, args.n)
    report = {
        "command": "continuity",
        "name": ps.name,
        "samples": args.n + 1,
        "pair_count": len(pairs),
        "pairs": pairs,
        "worst": {
            "c0_max_gap": max((p["c0_max_gap"] for p in pairs), default=0.0),
            "c1_max_mismatch": max((p["c1_max_mismatch"] for p in pairs), default=0.0),
            "g1_max_angle": max((p["g1_max_angle"] for p in pairs), default=0.0),
        },
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
        ps = io.read_newell(args.in_path)
        out_dir = Path(args.out_path)
        out_dir.mkdir(parents=True, exist_ok=True)

        stage = "validate"
        before = _bezier_patch_reports(ps.patches, args.tol)

        stage = "adjacency"
        records = tessellation.detect_adjacency(ps.patches, tol=args.tol)
        gaps_before = _adjacency_report(ps, records, args.n)

        stage = "repair"
        result = constraints.repair_patches(ps.patches)
        repaired = io.PatchSet(name=ps.name, patches=result.patches)

        stage = "revalidate"
        after = _bezier_patch_reports(result.patches, args.tol)
        gaps_after = _adjacency_report(repaired, records, args.n)

        stage = "tessellate"
        pattern = tessellation.TessPattern(args.pattern)
        merged = tessellation.tessellate_set(
            result.patches, args.n, pattern, with_normals=args.normals
        )

        stage = "export"
        obj_path = out_dir / "teapot.obj"
        io.write_obj(merged, obj_path)
        json_path = out_dir / "teapot_repaired.json"
        io.write_patchset(repaired, json_path)
    except (io.PatchFormatError, OSError, RepairError) as e:
        print(f"stage {stage} failed: {e}", file=sys.stderr)
        return EXIT_INPUT

    c0_delta = max(
        (abs(a["c0_max_gap"] - b["c0_max_gap"]) for a, b in zip(gaps_before, gaps_after)),
        default=0.0,
    )
    report = {
        "command": "teapot",
        "name": ps.name,
        "tolerance": args.tol,
        "patch_count": len(ps.patches),
        "n": args.n,
        "pattern": args.pattern,
        "before": {
            "noncompliant_patches": sum(1 for r in before if not r["compliant"]),
            "max_residual": max(r["max_residual"] for r in before),
        },
        "after": {
            "noncompliant_patches": sum(1 for r in after if not r["compliant"]),
            "max_residual": max(r["max_residual"] for r in after),
        },
        "max_displacement": result.max_displacement,
        "max_corner_displacement": max(
            (s.corner_displacement for s in result.per_patch), default=0.0
        ),
        "shared_edges": len(records),
        "c0_before_max": max((g["c0_max_gap"] for g in gaps_before), default=0.0),
        "c0_after_max": max((g["c0_max_gap"] for g in gaps_after), default=0.0),
        "c0_max_delta": c0_delta,
        "repair": dataclasses.asdict(result.system),
        "mesh": {"vertices": len(merged.vertices), "triangles": len(merged.triangles)},
        "outputs": [str(obj_path), str(json_path)],
    }
    report_path = Path(args.out_path) / "teapot_report.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    report["outputs"].append(str(report_path))

    def render(rep):
        yield f"ingested {rep['patch_count']} patches from {args.in_path}"
        yield (
            f"before repair: {rep['before']['noncompliant_patches']} noncompliant patches, "
            f"max residual {rep['before']['max_residual']:.3e}"
        )
        yield (
            f"after repair:  {rep['after']['noncompliant_patches']} noncompliant patches, "
            f"max residual {rep['after']['max_residual']:.3e}"
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
        yield f"mesh: {rep['mesh']['vertices']} vertices, {rep['mesh']['triangles']} triangles"
        for f in rep["outputs"]:
            yield f"wrote {f}"

    _emit(report, args, render)
    if report["after"]["noncompliant_patches"]:
        return EXIT_INTERNAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite number >= 0."""
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number >= 0, got {text!r}")
    return value


def _count(minimum: int):
    """argparse type of --n: an integer >= minimum."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
        return value

    return count


def _add_common(sp, *, input_required=True, output=False):
    if input_required:
        sp.add_argument("--in", dest="in_path", required=True, help="input file")
    if output:
        sp.add_argument("--out", dest="out_path", required=True, help="output path")
    sp.add_argument("--tol", type=_tolerance, default=constraints.DEFAULT_TOL,
                    help="relative tolerance (default 1e-9)")
    sp.add_argument("--json", action="store_true", help="emit the report as JSON")


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
    _add_common(p, output=True)
    p.add_argument("--direction", choices=["b2h", "h2b"], required=True)
    p.add_argument("--roundtrip", action="store_true",
                   help="convert back as well and report the max error")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("tessellate", help="triangulate patches and write OBJ")
    _add_common(p, output=True)
    p.add_argument("--n", type=_count(1), default=16, help="subdivisions per edge (default 16)")
    p.add_argument("--pattern", choices=[t.value for t in tessellation.TessPattern],
                   default="main")
    p.add_argument("--normals", action="store_true", help="include vertex normals")
    p.add_argument("--merge", action="store_true",
                   help="write one merged OBJ instead of one file per patch")
    p.set_defaults(func=cmd_tessellate)

    p = sub.add_parser("continuity", help="measure C0/C1/G1 agreement along shared edges")
    _add_common(p)
    p.add_argument("--n", type=_count(2), default=16,
                   help="samples per edge minus one (default 16)")
    p.add_argument("--detect", action="store_true",
                   help="derive adjacency from shared edge control points")
    p.set_defaults(func=cmd_continuity)

    p = sub.add_parser("teapot", help="end-to-end pipeline on a Newell-format file")
    _add_common(p, output=True)
    p.add_argument("--n", type=_count(2), default=16, help="subdivisions per edge (default 16)")
    p.add_argument("--pattern", choices=[t.value for t in tessellation.TessPattern],
                   default="main")
    p.add_argument("--normals", action="store_true")
    p.set_defaults(func=cmd_teapot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (io.PatchFormatError, DomainError, RepairError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except DerivationError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
