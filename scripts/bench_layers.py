#!/usr/bin/env python3
"""Time smartpatch's set-up, joint repair, geometry, I/O and per-grid operator layers in fresh interpreters.

Usage::

    python scripts/bench_layers.py [--checkout LABEL=ROOT_DIR ...] [--note LABEL=TEXT ...]

Each ``ROOT_DIR`` is a repository root (default: ``change=<this checkout>``).
Every measurement is a child program in a new interpreter with one BLAS
thread, working directory ``ROOT_DIR`` and ``ROOT_DIR/src`` then
``ROOT_DIR/tests`` first on its path; a child whose ``smartpatch`` is not
``ROOT_DIR/src/smartpatch`` stops the run.  The checkouts alternate, their
order flipped every round.  Column LABEL of each file of ``LAYERS``, in the
root of this script's checkout, is replaced; other labels' columns stay.

Set-up times ``import numpy``, then ``import smartpatch`` and ``from
smartpatch import constraints`` on top of it, the exact derivation and
certification every process pays before its first operation
(``build_lambda``, ``bs_free_cells``, ``resolve_inner_identity``), ``import
smartpatch.cli`` and ``patches._conversion_matrices``.
``probe_setup`` sums the steps from ``import smartpatch`` to the derivation:
what ``bench/probe.py setup`` times, less ``import numpy``.
``gc.collect()`` runs before each step, so no step times a collection that
the allocations of earlier steps set off.  With
``PYTHONDONTWRITEBYTECODE`` set (``dont_write_bytecode``), every import
compiles smartpatch from source; ``compile_ms``, that share, is per module
the min over the runs of one ``compile()`` of its source after the steps and
an untimed one.

Joint repair and adjacency: ``repair_patches`` and ``detect_adjacency`` of
the bundled teapot, the teapot split 2x2 by de Casteljau once, twice and
three times, and seeded k x k height fields (one connected component of k^2
patches) for k = 8, 16, 24, 32, 48.  Each operation is timed over at least
REPAIR_CALLS calls and at least REPAIR_SECONDS of calls, so the small inputs
get hundreds of calls.  The untimed call also fills the caches;
tracemalloc counts numpy's arrays too.  Apart from those timed, the same
number of staged calls per input clocks each of repair's stage functions
(``STAGES``) that the checkout's ``constraints`` module has, and the whole
call beside them; ``stages_ms`` holds each one's fastest time over those
calls.  A checkout from before the staged repair has only
``_patch_ranks`` of them.  Where the checkout's ``tessellation`` has
``_adjacency``, the array core that ``detect_adjacency`` wraps, it is timed
the same way beside it.

Geometry: ``tessellate_set`` at n=16 with normals of the bundled teapot
and of the seed-10 input of the ``teapot`` benchmark workload after
``repair_patches``, and of the teapot's 2x2 de Casteljau split at n=4;
``continuity_measures`` of the teapot at n=16 and of the split at n=4, each
over its records from ``detect_adjacency`` as a ``PatchSet`` holds them.
Each set is given as its stacked array, as the ``teapot`` command gives it.

I/O: ``write_obj`` at n=16 with normals of the bundled teapot as read (not
repaired) and of the seed-10 input of the ``teapot`` benchmark workload
after ``repair_patches`` (as ``smartpatch teapot --normals`` writes it), and
of the teapot's 2x2 de Casteljau split (128 patches) at n=4 (as the
``split-teapot`` benchmark workload does), each to ``os.devnull``;
``write_obj`` of the bundled teapot and ``write_patchset`` of the split
into one file each in a temporary directory, so every call after the
untimed one writes over its last output, as a rerun of a command does;
``dump_patchset`` of that split, ``load_newell`` of the teapot text and
of the split's (one vertex per control point, 2048 vertices),
``load_patchset`` of the JSON text of the teapot split three times (2048
patches), ``dump_patchset`` of that split, ``dump_patchset`` and
``load_patchset`` of it with its 4000 adjacency records from
``detect_adjacency``, and the whole ``smartpatch teapot --n 2`` command
on the file without records (``cli.main``, stdout discarded, output
files in a temporary directory).  Each row is timed over CALLS calls per run
after an untimed one; it reports the fastest call per run, and in
``per_run_median`` the median call per run, which shows a cost that only
some calls pay.  Only public names are used, so each checkout runs the same
child.
``peak_rss_mb`` is the worker's own peak resident set size: the probe is
started from this script, which never imports numpy, so no larger parent
process raises the reading.  Each probe's input is in a new directory.

Operators: one call of each per-grid operator that the ``grids`` benchmark
workload times (``OPERATORS``), on seeded grids and draws: ``bs_residuals``,
``bs_project``, ``bs_solve``, ``bs_inner_identity``, ``BezierPatch(x, y, z)``,
``bezier_to_hermite`` and ``hermite_to_bezier``, each the fastest of
OPERATOR_CALLS timed calls, in microseconds.  Two more rows give the grids
as nested lists, which take the general path that every input other than a
float64 ndarray of the right shape takes: ``bs_residuals`` of a list of
lists and ``BezierPatch`` of three.  One more gives ``bs_residuals`` the
grid's values as a view with negative strides, which it copies.
"""

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKOUT_FILES = ("src/smartpatch/__init__.py", "data/teapot.newell", "bench/probe.py")
SETUP_RUNS = 15
REPAIR_RUNS = 3
IO_RUNS = 9
GEOMETRY_RUNS = 9
OPERATOR_RUNS = 9
CALLS = 15
OPERATOR_CALLS = 5000
REPAIR_CALLS = 5
REPAIR_SECONDS = 0.5
RSS_SECONDS = 2.0
DERIVATION = ("build_lambda", "bs_free_cells", "resolve_inner_identity")
PROBE_SETUP = ("import smartpatch", "from smartpatch import constraints", *DERIVATION)
STAGES = ("_variables", "_patch_ranks", "_assemble", "_factor", "_refine")
ALTERNATED = "checkouts alternated with the order flipped every round; one BLAS thread"
SPREAD = ("min_ms, median_ms and max_ms are the fastest, median and slowest of the runs' "
          "values; a difference that lies inside both columns' min_ms to max_ms range is not "
          "resolved")

# Every child starts with PRELUDE, fills ``result`` and ends with EPILOGUE,
# which prints it as one JSON line with the smartpatch and numpy it ran on.
# Before the set-up clock starts, only sys, time and the built-in gc are
# imported, so a step that imports json pays for it as bench/probe.py does.
PRELUDE = r"""
import sys, time
sys.path[:0] = ["src", "tests"]

def timed(op):
    start = time.perf_counter()
    op()
    return time.perf_counter() - start

def best(op, calls, seconds=0.0):
    # the fastest of at least calls timed calls, and more until they take seconds
    op()  # untimed
    times = []
    while len(times) < calls or sum(times) < seconds:
        times.append(timed(op))
    return min(times)

def traced(op):
    import tracemalloc
    tracemalloc.start()
    value = op()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return value, peak
"""
EPILOGUE = r"""
import json, numpy, smartpatch
result.update(module=smartpatch.__file__, numpy=numpy.__version__)
print(json.dumps(result))
"""

SETUP = r"""
import gc

def step(op):
    # untimed: a collection that earlier steps' allocations made due runs here
    gc.collect()
    return timed(op)

steps = {f"import {name}": step(lambda: __import__(name)) for name in ("numpy", "smartpatch")}
steps["from smartpatch import constraints"] = step(lambda: __import__("smartpatch.constraints"))
from smartpatch import constraints, patches
for name, call in (
    ("build_lambda", constraints.build_lambda),
    ("bs_free_cells", constraints.bs_free_cells),
    ("resolve_inner_identity", constraints.resolve_inner_identity),
    ("import smartpatch.cli", lambda: __import__("smartpatch.cli")),
    ("patches._conversion_matrices", patches._conversion_matrices),
):
    steps[name] = step(call)
from pathlib import Path
compile_s = {}
for path in sorted(Path("src/smartpatch").glob("*.py")):
    text = path.read_text()
    compile_s[path.name] = best(lambda: compile(text, str(path), "exec", dont_inherit=True), 1)
result = {"steps": steps, "compile_s": compile_s,
          "dont_write_bytecode": bool(sys.flags.dont_write_bytecode)}
"""

# argv: the least timed calls and the least seconds of calls per operation,
# then the stage names.
REPAIR = r"""
import numpy as np
from helpers import height_field_patches, split_patch
from smartpatch import constraints, detect_adjacency, repair_patches, tessellation
from smartpatch.io import read_newell

core = getattr(tessellation, "_adjacency", None)  # the array core, where the checkout has one

def staged(op, calls, seconds):
    # seconds in each stage function the module has, and in the whole call:
    # the fastest of at least calls staged calls and seconds of them
    spent, stages, runs = {}, {}, []
    for name in sys.argv[3:]:
        if (stage := getattr(constraints, name, None)) is not None:
            stages[name] = stage
    if not stages:
        return {}

    def clocked(name, stage):
        def call(*args):
            start = time.perf_counter()
            try:
                return stage(*args)
            finally:
                spent[name] = spent.get(name, 0.0) + time.perf_counter() - start
        return call

    for name, stage in stages.items():
        setattr(constraints, name, clocked(name, stage))
    try:
        while len(runs) < calls or sum(run["repair_patches"] for run in runs) < seconds:
            spent.clear()
            spent["repair_patches"] = timed(op)
            runs.append(dict(spent))
    finally:
        for name, stage in stages.items():
            setattr(constraints, name, stage)
    return {name: min(run[name] for run in runs) for name in runs[0]}

def build(name):
    if name.startswith("hf"):
        k = int(name[2:])
        return height_field_patches(np.random.default_rng(k).uniform(-1.0, 1.0, (3 * k + 1,) * 2))
    patches = read_newell("data/teapot.newell").patches
    for _ in range(int(name[5:]) if name.startswith("split") else 0):
        patches = [q for p in patches for q in split_patch(p)]
    return patches

calls, seconds = int(sys.argv[1]), float(sys.argv[2])
repair_patches(build("teapot"))  # derive and certify the exact maps once
result = {"inputs": {}}
for name in ["teapot", "split1", "split2", "split3", "hf8", "hf16", "hf24", "hf32", "hf48"]:
    patches = build(name)
    for p in patches:
        p.as_array  # the input's stacked grids are not the layers' work
    repair_s = best(lambda: repair_patches(patches), calls, seconds)
    adjacency_s = best(lambda: detect_adjacency(patches), calls, seconds)
    repaired, peak = traced(lambda: repair_patches(patches))
    result["inputs"][name] = {
        "patches": len(patches), "components": repaired.system.components,
        "records": len(detect_adjacency(patches)), "repair_s": repair_s,
        "adjacency_s": adjacency_s, "tracemalloc_peak_mb": round(peak / 1e6, 2),
        "adjacency_core_s": core and best(lambda: core(patches), calls, seconds),
        "stages_s": staged(lambda: repair_patches(patches), calls, seconds),
    }
"""

# argv: the timed calls per operation, and the directory that receives the
# seed-10 input of the teapot benchmark workload.
GEOMETRY = r"""
from pathlib import Path
import numpy as np
from helpers import split_patch
from smartpatch import detect_adjacency, repair_patches
from smartpatch.io import PatchSet, read_newell
from smartpatch.tessellation import continuity_measures, tessellate_set
sys.path.append("bench")
import generators

generators.write_inputs("teapot", Path.cwd(), Path(sys.argv[2]), 10)
seeded = repair_patches(read_newell(Path(sys.argv[2], "input.newell")).points).points
teapot = read_newell("data/teapot.newell")
split = np.array([q.as_array for p in teapot.patches for q in split_patch(p)])
teapot_records = PatchSet("teapot", teapot.points, detect_adjacency(teapot.points)).adjacency
split_records = PatchSet("split", split, detect_adjacency(split)).adjacency
ops = {
    "tessellate_set teapot n=16 normals":
        lambda: tessellate_set(teapot.points, 16, with_normals=True),
    "tessellate_set seed-10 teapot repaired n=16 normals":
        lambda: tessellate_set(seeded, 16, with_normals=True),
    "tessellate_set split n=4": lambda: tessellate_set(split, 4),
    "continuity_measures teapot n=16":
        lambda: continuity_measures(teapot.points, teapot_records, 16),
    "continuity_measures split n=4": lambda: continuity_measures(split, split_records, 4),
}
result = {"best": {name: best(op, int(sys.argv[1])) for name, op in ops.items()}}
"""

# argv: the timed calls per operation, and the directory that receives the
# seed-10 input of the teapot benchmark workload, for its write_obj row and
# the RSS probe.
IO = r"""
import contextlib, os, tempfile
from pathlib import Path
from helpers import newell_text, split_patch
from smartpatch import detect_adjacency, repair_patches
from smartpatch.cli import main
from smartpatch.io import (PatchSet, dump_patchset, load_newell, load_patchset, read_newell,
                           write_obj, write_patchset)
from smartpatch.tessellation import tessellate_set
sys.path.append("bench")
import generators

generators.write_inputs("teapot", Path.cwd(), Path(sys.argv[2]), 10)
seeded = repair_patches(read_newell(Path(sys.argv[2], "input.newell")).points).points
seeded_mesh = tessellate_set(seeded, 16, with_normals=True)
text = open("data/teapot.newell").read()
teapot = load_newell(text, name="teapot").patches
split = [q for p in teapot for q in split_patch(p)]
split3 = [r for p in split for q in split_patch(p) for r in split_patch(q)]
teapot_mesh = tessellate_set(teapot, 16, with_normals=True)
split_mesh = tessellate_set(split, 4)
split_set = PatchSet(name="split", patches=split)
split_text = newell_text(split)
split3_set = PatchSet(name="split3", patches=split3)
split3_text = dump_patchset(split3_set)
split3_records = PatchSet(name="split3", patches=split3, adjacency=detect_adjacency(split3))
split3_records_text = dump_patchset(split3_records)
scratch = tempfile.TemporaryDirectory()
split3_path = Path(scratch.name, "split3.json")
split3_path.write_text(split3_text)
teapot_argv = ["teapot", "--in", str(split3_path), "--out", str(Path(scratch.name, "out")),
               "--n", "2"]

def teapot_split3():
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        main(teapot_argv)

ops = {
    "write_obj teapot n=16 normals": lambda: write_obj(teapot_mesh, os.devnull),
    "write_obj teapot n=16 normals over its last output":
        lambda: write_obj(teapot_mesh, Path(scratch.name, "teapot.obj")),
    "write_obj seed-10 teapot repaired n=16 normals": lambda: write_obj(seeded_mesh, os.devnull),
    "write_obj split n=4": lambda: write_obj(split_mesh, os.devnull),
    "dump_patchset split": lambda: dump_patchset(split_set),
    "write_patchset split over its last output":
        lambda: write_patchset(split_set, Path(scratch.name, "split.json")),
    "load_newell teapot": lambda: load_newell(text),
    "load_newell split": lambda: load_newell(split_text),
    "load_patchset split3": lambda: load_patchset(split3_text),
    "dump_patchset split3": lambda: dump_patchset(split3_set),
    "dump_patchset split3 with records": lambda: dump_patchset(split3_records),
    "load_patchset split3 with records": lambda: load_patchset(split3_records_text),
    "teapot --n 2 split3": teapot_split3,
}

def fastest_and_median(op, calls):
    op()  # untimed
    times = sorted(timed(op) for _ in range(calls))
    return times[0], times[len(times) // 2]

times = {name: fastest_and_median(op, int(sys.argv[1])) for name, op in ops.items()}
result = {"best": {name: t[0] for name, t in times.items()},
          "median": {name: t[1] for name, t in times.items()},
          "tracemalloc_peak": traced(ops["write_obj teapot n=16 normals"])[1]}
scratch.cleanup()
"""


# argv: the timed calls per operator.
OPERATORS = r"""
import numpy as np
from smartpatch import (BezierPatch, bezier_to_hermite, bs_inner_identity, bs_project,
                        bs_residuals, bs_solve, hermite_to_bezier)

rng = np.random.default_rng(23)
grid, (x, y, z) = rng.uniform(-10, 10, (4, 4)), rng.uniform(-10, 10, (3, 4, 4))
corners, free = rng.uniform(-10, 10, 4), rng.uniform(-10, 10, 7)
projected, bezier = bs_project(grid), BezierPatch(x, y, z)
hermite = bezier_to_hermite(bezier)
grid_rows, xyz_rows = grid.tolist(), (x.tolist(), y.tolist(), z.tolist())
reversed_grid = np.ascontiguousarray(grid[::-1, ::-1])[::-1, ::-1]  # grid's values, strides < 0
ops = {
    "bs_residuals": lambda: bs_residuals(grid),
    "bs_residuals(list of lists)": lambda: bs_residuals(grid_rows),
    "bs_residuals(reversed view)": lambda: bs_residuals(reversed_grid),
    "bs_project": lambda: bs_project(grid),
    "bs_solve": lambda: bs_solve(corners, free),
    "bs_inner_identity": lambda: bs_inner_identity(projected),
    "BezierPatch(x, y, z)": lambda: BezierPatch(x, y, z),
    "BezierPatch(x, y, z lists)": lambda: BezierPatch(*xyz_rows),
    "bezier_to_hermite": lambda: bezier_to_hermite(bezier),
    "hermite_to_bezier": lambda: hermite_to_bezier(hermite),
}
result = {"best": {name: best(op, int(sys.argv[1])) for name, op in ops.items()}}
"""


def run(root: Path, cmd: list) -> str:
    """Stdout of ``cmd`` run in ``root`` with BLAS on one thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"error: a child program failed in {root}:\n{proc.stderr}")
    return proc.stdout


def child(root: Path, code: str, *args) -> dict:
    """The result of one child program on the checkout ``root``."""
    result = json.loads(run(root, [sys.executable, "-c", PRELUDE + code + EPILOGUE, *args]))
    module = (root / result.pop("module")).resolve()
    if (root / "src" / "smartpatch").resolve() not in module.parents:
        sys.exit(f"error: a child on {root} imported smartpatch from {module}")
    return result


def geometry_run(root: Path) -> dict:
    """One geometry child, its seed-10 input in a new directory."""
    with tempfile.TemporaryDirectory() as inputs:
        return child(root, GEOMETRY, str(CALLS), inputs)


def io_run(root: Path) -> dict:
    """One I/O child, then the RSS probe on the input that child wrote."""
    with tempfile.TemporaryDirectory() as inputs:
        result = child(root, IO, str(CALLS), inputs)
        cmd = shlex.join([sys.executable, str(root / "bench" / "probe.py"), "ops", "teapot",
                          inputs, f"{RSS_SECONDS:g}"])
        probe = run(root, ["sh", "-c", f"exec {cmd}"]).strip().splitlines()[-1]
    return result | {"peak_rss_mb": json.loads(probe)["peak_rss_mb"]}


def summary(values, unit: str = "ms") -> dict:
    scale = {"ms": 1e3, "us": 1e6}[unit]
    return {f"min_{unit}": round(scale * min(values), 3),
            f"median_{unit}": round(scale * statistics.median(values), 3),
            f"max_{unit}": round(scale * max(values), 3)}


def setup_column(runs: list) -> dict:
    return {
        "runs": len(runs),
        "dont_write_bytecode": runs[0]["dont_write_bytecode"],
        "steps": {name: summary([r["steps"][name] for r in runs]) for name in runs[0]["steps"]},
        "exact_derivation": summary([sum(r["steps"][s] for s in DERIVATION) for r in runs]),
        "probe_setup": summary([sum(r["steps"][s] for s in PROBE_SETUP) for r in runs]),
        "compile_ms": {name: round(1e3 * min(r["compile_s"][name] for r in runs), 3)
                       for name in runs[0]["compile_s"]},
    }


def repair_column(runs: list) -> dict:
    inputs = {}
    for name, first in runs[0]["inputs"].items():
        each = [r["inputs"][name] for r in runs]
        inputs[name] = {
            **{key: first[key] for key in ("patches", "components", "records")},
            "repair_patches": summary([r["repair_s"] for r in each]),
            "detect_adjacency": summary([r["adjacency_s"] for r in each]),
            "tracemalloc_peak_mb": max(r["tracemalloc_peak_mb"] for r in each),
        }
        if first.get("adjacency_core_s") is not None:
            inputs[name]["_adjacency"] = summary([r["adjacency_core_s"] for r in each])
        if first.get("stages_s"):
            inputs[name]["stages_ms"] = {stage: summary([r["stages_s"][stage] for r in each])
                                         for stage in first["stages_s"]}
    return {"runs": len(runs), "inputs": inputs}


def geometry_column(runs: list) -> dict:
    return {"runs": len(runs),
            "steps": {name: summary([r["best"][name] for r in runs]) for name in runs[0]["best"]}}


def io_column(runs: list) -> dict:
    rss = [r["peak_rss_mb"] for r in runs]
    peak = max(r["tracemalloc_peak"] for r in runs)
    return {
        "runs": len(runs),
        "steps": {name: summary([r["best"][name] for r in runs])
                  | {"per_run_median": summary([r["median"][name] for r in runs])}
                  for name in runs[0]["best"]},
        "write_obj_tracemalloc_peak_mb": round(peak / 2**20, 3),
        "peak_rss_mb": {"min": round(min(rss), 2), "median": round(statistics.median(rss), 2)},
    }


def operators_column(runs: list) -> dict:
    return {"runs": len(runs),
            "calls": {name: summary([r["best"][name] for r in runs], "us")
                      for name in runs[0]["best"]}}


# Per file: the runs per checkout, one run on a checkout root, the column
# made from one checkout's runs, and the file's method.
LAYERS = {
    "BENCH_setup.json": (
        SETUP_RUNS, lambda root: child(root, SETUP), setup_column,
        f"fresh interpreter per run, steps timed in order with perf_counter after a "
        f"gc.collect() each; {SETUP_RUNS} runs per checkout after one untimed run, "
        f"{ALTERNATED}; min, median and max per step; "
        f"exact_derivation is the sum of {', '.join(DERIVATION)} within each run, "
        f"probe_setup that of {', '.join(PROBE_SETUP)}; compile_ms per module is the min over "
        f"the runs of one compile() of its source; {SPREAD}"),
    "BENCH_repair.json": (
        REPAIR_RUNS,
        lambda root: child(root, REPAIR, str(REPAIR_CALLS), str(REPAIR_SECONDS), *STAGES),
        repair_column,
        f"repair_patches, detect_adjacency and, where the checkout has it, its array core "
        f"_adjacency in process, fresh interpreter per run: one "
        f"untimed call, then the min of at least {REPAIR_CALLS} timed calls and at least "
        f"{REPAIR_SECONDS:g} s of calls per operation; {REPAIR_RUNS} runs per checkout, "
        f"{ALTERNATED}; min, median and max of the per-run minima, of which the minima are the "
        "ones to compare, since medians carry host drift; tracemalloc peak of one more "
        f"repair_patches call, the largest over the runs; stages_ms: at least {REPAIR_CALLS} "
        f"more calls and {REPAIR_SECONDS:g} s of calls per run, each of {', '.join(STAGES)} "
        "that the checkout has clocked through a wrapper on its module attribute, and the whole "
        "call as repair_patches, the min over those calls per run; a checkout before the staged "
        f"repair has _patch_ranks only; {SPREAD}"),
    "BENCH_geometry.json": (
        GEOMETRY_RUNS, geometry_run, geometry_column,
        f"fresh interpreter per run, {CALLS} calls per operation after one untimed call, min per "
        f"run; {GEOMETRY_RUNS} runs per checkout, {ALTERNATED}; min, median and max of the "
        f"per-run minima; {SPREAD}"),
    "BENCH_io.json": (
        IO_RUNS, io_run, io_column,
        f"fresh interpreter per run, {CALLS} calls per operation after one untimed call, min "
        f"and median per run; {IO_RUNS} runs per checkout, {ALTERNATED}; min, median and max of "
        "the per-run minima, and in per_run_median those of the per-run medians, which show a "
        "cost that only some calls pay; OBJ written to os.devnull, except in the rows 'over its "
        "last output', which write one file in a temporary directory, so each timed call "
        "writes over the output of the call before; the teapot --n 2 command on the 2048-patch split "
        "writes into a temporary directory, stdout discarded; tracemalloc peak of one teapot "
        "write_obj; "
        f"peak_rss_mb from bench/probe.py ops teapot (seed 10, {RSS_SECONDS:g} s) started "
        f"through sh; {SPREAD}"),
    "BENCH_operators.json": (
        OPERATOR_RUNS, lambda root: child(root, OPERATORS, str(OPERATOR_CALLS)),
        operators_column,
        f"fresh interpreter per run, one untimed call, then the min of {OPERATOR_CALLS} timed "
        f"calls per operator on one seeded input, in microseconds; {OPERATOR_RUNS} runs per "
        f"checkout, {ALTERNATED}; min, median and max of the per-run minima; "
        f"{SPREAD.replace('_ms', '_us')}"),
}


def write_record(path: Path, method: str, columns: dict, hosts: dict) -> None:
    """Set ``method``, and each label's column and host, in the JSON file ``path``."""
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["method"] = method
    doc.setdefault("host", {}).update(hosts)
    doc.setdefault("columns", {}).update(columns)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def cpu_model() -> str:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.machine()


def label_value(item: str) -> tuple:
    label, sep, value = item.partition("=")
    if not sep or not label:
        raise argparse.ArgumentTypeError(f"must be LABEL=VALUE, got {item!r}")
    return label, value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", action="append", type=label_value,
                    help="LABEL=ROOT_DIR, repeatable (default: change=<this checkout>)")
    ap.add_argument("--note", action="append", type=label_value, default=[],
                    help="LABEL=TEXT stored with that label's columns, repeatable")
    args = ap.parse_args(argv)
    checkouts = {label: Path(root).resolve()
                 for label, root in args.checkout or [("change", REPO_ROOT)]}
    for label, root in checkouts.items():
        missing = [name for name in CHECKOUT_FILES if not (root / name).is_file()]
        if missing:
            ap.error(f"--checkout {label}={root} is not a smartpatch repository root (no "
                     f"{', '.join(missing)}); give the root, not its src directory")

    labels = list(checkouts)
    runs = {name: {label: [] for label in labels} for name in LAYERS}
    for label in labels:
        child(checkouts[label], SETUP)  # untimed: compiles bytecode where it may be written
    for k in range(max(count for count, *_ in LAYERS.values())):
        for label in labels if k % 2 == 0 else labels[::-1]:
            for name, (count, measure, *_) in LAYERS.items():
                if k < count:
                    runs[name][label].append(measure(checkouts[label]))

    host = {"cpu": cpu_model(), "cores": os.cpu_count(), "python": platform.python_version()}
    first = next(iter(runs.values()))  # every child reports its numpy
    hosts = {label: host | {"numpy": first[label][0]["numpy"]} for label in labels}
    for name, (_, _, column, method) in LAYERS.items():
        columns = {label: {"note": dict(args.note).get(label, "")} | column(runs[name][label])
                   for label in labels}
        write_record(REPO_ROOT / name, method, columns, hosts)
        print(f"wrote {name}: {', '.join(labels)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
