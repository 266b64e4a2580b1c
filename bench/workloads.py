"""The three workloads: one timed operation over generated inputs, and its checks.

Every workload object has ``items`` (checked items in one operation),
``run(k)`` (operation k, the only part that is timed) and
``check(result)`` (the number of failed items and their messages).
The constructors read only the files ``generators.write_inputs`` made;
what the checks need beyond them (the constraint matrix, the oracles, the
input control points) is built on the first ``check``, so a process that
reads its peak RSS after the first operation counts only smartpatch and
its inputs.  Calls go through module attributes
(``constraints.bs_project(...)``), so the wrappers of a traced run see
them.
"""

from __future__ import annotations

import contextlib
import functools
import io as _io
import json
from pathlib import Path

import numpy as np

import checks
from smartpatch import cli, constraints, patches


class Pipeline:
    """`smartpatch teapot` on the seeded (and optionally split) teapot.

    ``check`` keeps the last call's mesh, pair and OBJ counts in ``last``
    for the traced run's per-layer metrics.
    """

    def __init__(self, inputs: Path, split: bool):
        self.inputs = inputs
        self.out = inputs / "out"
        self.items = 1
        n, normals = (4, False) if split else (16, True)
        self.argv = ["teapot", "--in", str(inputs / "input.newell"), "--out", str(self.out),
                     "--n", str(n), "--json"] + (["--normals"] if normals else [])
        self.expect = {"n": n, "normals": normals, "shared_edges": 232 if split else 52}

    @functools.cached_property
    def oracle(self):
        """(input control points, constraint matrix, live edge count)."""
        before = np.load(self.inputs / "before.npy")
        return before, constraints.build_lambda().lam, checks.find_pairs(before)[1]

    def run(self, k: int):
        stdout, stderr = _io.StringIO(), _io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(self.argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def check(self, result):
        code, stdout, stderr = result
        if code != 0:
            return 1, [f"exit code {code}: {stderr.strip()[-200:]}"]
        before, lam, _ = self.oracle
        report = json.loads(stdout)
        obj = self.out / "teapot.obj"
        with obj.open("rb") as f:
            obj_lines = sum(1 for _ in f)
        repaired = json.loads((self.out / "teapot_repaired.json").read_text())["patches"]
        after = np.moveaxis(
            np.array([[p["x"], p["y"], p["z"]] for p in repaired], dtype=float), 1, 3
        )
        fails = checks.check_pipeline(code, report, obj_lines, before, after,
                                      {**self.expect, "patches": len(before)}, lam)
        self.last = {"pairs": report["shared_edges"], "obj_bytes": obj.stat().st_size,
                     **report["mesh"]}
        return (1 if fails else 0), fails


class Grids:
    """Per-grid exact constraint operators, in batches of BATCH grids and draws."""

    BATCH = 50
    TRIPLES = BATCH // 3  # Hermite round trips per batch, three grids each

    def __init__(self, inputs: Path):
        self.grids, self.corners, self.free = (
            np.load(inputs / f"{name}.npy") for name in ("grids", "corners", "free"))
        self.items = 2 * self.BATCH + self.TRIPLES

    @functools.cached_property
    def oracle(self):
        """(constraint matrix, free cells, projection oracle)."""
        lam = constraints.build_lambda().lam
        return lam, constraints.bs_free_cells(), checks.projection_oracle(lam)

    def run(self, k: int):
        lo = (k * self.BATCH) % len(self.grids)
        grids = self.grids[lo : lo + self.BATCH]
        before, projected, after, inner = [], [], [], []
        for g in grids:
            before.append(constraints.bs_residuals(g).max_residual)
            p = constraints.bs_project(g)
            after.append(constraints.bs_residuals(p).max_residual)
            inner.append(constraints.bs_inner_identity(p))
            projected.append(p)
        solved = [constraints.bs_solve(c, f) for c, f in
                  zip(self.corners[lo : lo + self.BATCH], self.free[lo : lo + self.BATCH])]
        back = []
        for t in range(self.TRIPLES):
            h = patches.bezier_to_hermite(patches.BezierPatch(*grids[3 * t : 3 * t + 3]))
            back.append(patches.hermite_to_bezier(h).grids)
        return lo, before, projected, after, inner, solved, back

    def check(self, result):
        lo, before, projected, after, inner, solved, back = result
        lam, free_cells, project = self.oracle
        hi = lo + self.BATCH
        grids = self.grids[lo:hi]
        groups = [
            checks.check_grids(grids, np.array(before), np.array(projected), np.array(after),
                               np.array(inner), project, lam),
            checks.check_solves(self.corners[lo:hi], self.free[lo:hi], np.array(solved),
                                free_cells, lam),
            checks.check_roundtrips(grids[: 3 * self.TRIPLES].reshape(-1, 3, 4, 4),
                                    np.array(back)),
        ]
        failed = sum(len({k for k, _ in g}) for g in groups)
        return failed, [msg for g in groups for _, msg in g]


def load(name: str, inputs: Path):
    """The workload ``name`` over the inputs in the directory ``inputs``."""
    if name == "teapot":
        return Pipeline(inputs, split=False)
    if name == "split-teapot":
        return Pipeline(inputs, split=True)
    if name == "grids":
        return Grids(inputs)
    raise ValueError(f"unknown workload {name!r}")

