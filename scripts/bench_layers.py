#!/usr/bin/env python3
"""Time smartpatch's set-up, joint repair and I/O layers in fresh interpreters.

Usage::

    python scripts/bench_layers.py [--checkout LABEL=ROOT_DIR ...] [--note LABEL=TEXT ...]

Each ``ROOT_DIR`` is a repository root (default: ``change=<this checkout>``).
Every measurement is a child program in a new interpreter with one BLAS
thread, working directory ``ROOT_DIR`` and ``ROOT_DIR/src`` then
``ROOT_DIR/tests`` first on its path; a child whose ``smartpatch`` is not
``ROOT_DIR/src/smartpatch`` stops the run.  The checkouts alternate, their
order flipped every round.  Column LABEL of each file of ``LAYERS``, in the
root of this script's checkout, is replaced; other labels' columns stay.

Set-up times ``import numpy``, then ``import smartpatch`` and ``import
smartpatch.cli`` on top of it, the exact derivation and certification every
process pays before its first operation (``build_lambda``, ``bs_free_cells``,
``resolve_inner_identity``), ``patches._conversion_matrices`` and the first
``_pattern_rank`` (a patch whose 12 non-corner slots are 12 free variables).
``gc.collect()`` runs before each step, so no step times a collection that
the allocations of earlier steps set off.  With
``PYTHONDONTWRITEBYTECODE`` set (``dont_write_bytecode``), every import
compiles smartpatch from source; ``compile_ms``, that share, is the min over
the runs of one ``compile()`` of each module after the steps and an untimed one.

Joint repair and adjacency: ``repair_patches`` and ``detect_adjacency`` of
the bundled teapot, the teapot split 2x2 by de Casteljau once, twice and
three times, and seeded k x k height fields (one connected component of k^2
patches) for k = 8, 16, 24, 32, 48.  Each operation is timed over at least
REPAIR_CALLS calls and at least REPAIR_SECONDS of calls, so the small inputs
get hundreds of calls.  The untimed call also fills the exact-rank caches;
tracemalloc counts numpy's arrays too.  One more call per input, apart from
those timed, clocks each of repair's stage functions (``STAGES``) that the
checkout's ``constraints`` module has, and the whole call beside them:
``stages_ms``.  A checkout from before the staged repair has only
``_patch_ranks`` of them.

I/O: ``write_obj`` of the bundled teapot at n=16 with normals (as
``smartpatch teapot --normals`` writes it) and of its 2x2 de Casteljau split
(128 patches) at n=4 (as the ``split-teapot`` benchmark workload does),
``dump_patchset`` of that split, ``load_newell`` of the teapot text and
of the split's (one vertex per control point, 2048 vertices),
``load_patchset`` of the JSON text of the teapot split three times (2048
patches), and the whole ``smartpatch teapot --n 2`` command on that
file (``cli.main``, stdout discarded, output files in a temporary
directory).  Only public names are used, so each checkout runs the same
child.
``peak_rss_mb`` is the worker's own peak resident set size: the probe is
started from this script, which never imports numpy, so no larger parent
process raises the reading.  Each probe's input is in a new directory.
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
CALLS = 15
REPAIR_CALLS = 5
REPAIR_SECONDS = 0.5
RSS_SECONDS = 2.0
DERIVATION = ("build_lambda", "bs_free_cells", "resolve_inner_identity")
STAGES = ("_variables", "_patch_ranks", "_assemble", "_factor", "_refine")
ALTERNATED = "checkouts alternated with the order flipped every round; one BLAS thread"
SPREAD = ("min_ms, median_ms and max_ms are the fastest, median and slowest of the runs' "
          "values; a difference that lies inside both columns' min_ms to max_ms range is not "
          "resolved")

# Every child starts with PRELUDE, fills ``result`` and ends with EPILOGUE,
# which prints it as one JSON line with the smartpatch and numpy it ran on.
# Before the set-up clock starts, only json, sys, time and the built-in gc
# are imported.
PRELUDE = r"""
import json, sys, time
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
import smartpatch
result.update(module=smartpatch.__file__, numpy=sys.modules["numpy"].__version__)
print(json.dumps(result))
"""

SETUP = r"""
import gc

def step(op):
    # untimed: a collection that earlier steps' allocations made due runs here
    gc.collect()
    return timed(op)

steps = {f"import {name}": step(lambda: __import__(name))
         for name in ("numpy", "smartpatch", "smartpatch.cli")}
from smartpatch import constraints, patches
for name, call in (
    ("build_lambda", constraints.build_lambda),
    ("bs_free_cells", constraints.bs_free_cells),
    ("resolve_inner_identity", constraints.resolve_inner_identity),
    ("patches._conversion_matrices", patches._conversion_matrices),
    ("first _pattern_rank", lambda: constraints._pattern_rank(tuple(range(12)))),
):
    steps[name] = step(call)
from pathlib import Path
sources = [(p, p.read_text()) for p in sorted(Path("src/smartpatch").glob("*.py"))]
compile_all = lambda: [compile(text, str(p), "exec", dont_inherit=True) for p, text in sources]
result = {"steps": steps, "compile_s": best(compile_all, 1),
          "dont_write_bytecode": bool(sys.flags.dont_write_bytecode)}
"""

# argv: the least timed calls and the least seconds of calls per operation,
# then the stage names.
REPAIR = r"""
import numpy as np
from helpers import height_field_patches, split_patch
from smartpatch import constraints, detect_adjacency, repair_patches
from smartpatch.io import read_newell

def staged(op):
    # seconds in each stage function the module has, and in the whole call
    spent, stages = {}, {}
    for name in sys.argv[3:]:
        if (stage := getattr(constraints, name, None)) is not None:
            stages[name] = stage

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
        spent["repair_patches"] = timed(op)
    finally:
        for name, stage in stages.items():
            setattr(constraints, name, stage)
    return spent if stages else {}

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
        "stages_s": staged(lambda: repair_patches(patches)),
    }
"""

# argv: the timed calls per operation, and the directory that receives the
# seed-10 input of the teapot benchmark workload for the RSS probe.
IO = r"""
import contextlib, os, tempfile
from pathlib import Path
from helpers import newell_text, split_patch
from smartpatch.cli import main
from smartpatch.io import PatchSet, dump_patchset, load_newell, load_patchset, write_obj
from smartpatch.tessellation import tessellate_set

text = open("data/teapot.newell").read()
teapot = load_newell(text, name="teapot").patches
split = [q for p in teapot for q in split_patch(p)]
split3 = [r for p in split for q in split_patch(p) for r in split_patch(q)]
teapot_mesh = tessellate_set(teapot, 16, with_normals=True)
split_mesh = tessellate_set(split, 4)
split_set = PatchSet(name="split", patches=split)
split_text = newell_text(split)
split3_text = dump_patchset(PatchSet(name="split3", patches=split3))
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
    "write_obj split n=4": lambda: write_obj(split_mesh, os.devnull),
    "dump_patchset split": lambda: dump_patchset(split_set),
    "load_newell teapot": lambda: load_newell(text),
    "load_newell split": lambda: load_newell(split_text),
    "load_patchset split3": lambda: load_patchset(split3_text),
    "teapot --n 2 split3": teapot_split3,
}
result = {"best": {name: best(op, int(sys.argv[1])) for name, op in ops.items()},
          "tracemalloc_peak": traced(ops["write_obj teapot n=16 normals"])[1]}
scratch.cleanup()
sys.path.append("bench")
import generators
generators.write_inputs("teapot", Path.cwd(), Path(sys.argv[2]), 10)
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


def io_run(root: Path) -> dict:
    """One I/O child, then the RSS probe on the input that child wrote."""
    with tempfile.TemporaryDirectory() as inputs:
        result = child(root, IO, str(CALLS), inputs)
        cmd = shlex.join([sys.executable, str(root / "bench" / "probe.py"), "ops", "teapot",
                          inputs, f"{RSS_SECONDS:g}"])
        probe = run(root, ["sh", "-c", f"exec {cmd}"]).strip().splitlines()[-1]
    return result | {"peak_rss_mb": json.loads(probe)["peak_rss_mb"]}


def summary(values) -> dict:
    return {"min_ms": round(1e3 * min(values), 3),
            "median_ms": round(1e3 * statistics.median(values), 3),
            "max_ms": round(1e3 * max(values), 3)}


def setup_column(runs: list) -> dict:
    return {
        "runs": len(runs),
        "dont_write_bytecode": runs[0]["dont_write_bytecode"],
        "steps": {name: summary([r["steps"][name] for r in runs]) for name in runs[0]["steps"]},
        "exact_derivation": summary([sum(r["steps"][s] for s in DERIVATION) for r in runs]),
        "compile_ms": round(1e3 * min(r["compile_s"] for r in runs), 3),
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
        if first.get("stages_s"):
            inputs[name]["stages_ms"] = {stage: summary([r["stages_s"][stage] for r in each])
                                         for stage in first["stages_s"]}
    return {"runs": len(runs), "inputs": inputs}


def io_column(runs: list) -> dict:
    rss = [r["peak_rss_mb"] for r in runs]
    peak = max(r["tracemalloc_peak"] for r in runs)
    return {
        "runs": len(runs),
        "steps": {name: summary([r["best"][name] for r in runs]) for name in runs[0]["best"]},
        "write_obj_tracemalloc_peak_mb": round(peak / 2**20, 3),
        "peak_rss_mb": {"min": round(min(rss), 2), "median": round(statistics.median(rss), 2)},
    }


# Per file: the runs per checkout, one run on a checkout root, the column
# made from one checkout's runs, and the file's method.
LAYERS = {
    "BENCH_setup.json": (
        SETUP_RUNS, lambda root: child(root, SETUP), setup_column,
        f"fresh interpreter per run, steps timed in order with perf_counter after a "
        f"gc.collect() each; {SETUP_RUNS} runs per checkout after one untimed run, "
        f"{ALTERNATED}; min, median and max per step; "
        f"exact_derivation is the sum of {', '.join(DERIVATION)} within each run; {SPREAD}"),
    "BENCH_repair.json": (
        REPAIR_RUNS,
        lambda root: child(root, REPAIR, str(REPAIR_CALLS), str(REPAIR_SECONDS), *STAGES),
        repair_column,
        f"repair_patches and detect_adjacency in process, fresh interpreter per run: one "
        f"untimed call, then the min of at least {REPAIR_CALLS} timed calls and at least "
        f"{REPAIR_SECONDS:g} s of calls per operation; {REPAIR_RUNS} runs per checkout, "
        f"{ALTERNATED}; min, median and max of the per-run minima, of which the minima are the "
        "ones to compare, since medians carry host drift; tracemalloc peak of one more "
        f"repair_patches call, the largest over the runs; stages_ms: one more call per run, "
        f"each of {', '.join(STAGES)} that the checkout has clocked through a wrapper on its "
        "module attribute, and the whole call as repair_patches; a checkout before the staged "
        f"repair has _patch_ranks only; {SPREAD}"),
    "BENCH_io.json": (
        IO_RUNS, io_run, io_column,
        f"fresh interpreter per run, {CALLS} calls per operation after one untimed call, min per "
        f"run; {IO_RUNS} runs per checkout, {ALTERNATED}; min, median and max of the per-run "
        "minima; OBJ written to os.devnull; the teapot --n 2 command on the 2048-patch split "
        "writes into a temporary directory, stdout discarded; tracemalloc peak of one teapot "
        "write_obj; "
        f"peak_rss_mb from bench/probe.py ops teapot (seed 10, {RSS_SECONDS:g} s) started "
        f"through sh; {SPREAD}"),
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
    hosts = {label: host | {"numpy": runs["BENCH_setup.json"][label][0]["numpy"]}
             for label in labels}
    for name, (_, _, column, method) in LAYERS.items():
        columns = {label: {"note": dict(args.note).get(label, "")} | column(runs[name][label])
                   for label in labels}
        write_record(REPO_ROOT / name, method, columns, hosts)
        print(f"wrote {name}: {', '.join(labels)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
