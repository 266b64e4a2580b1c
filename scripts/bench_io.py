#!/usr/bin/env python3
"""Time smartpatch's I/O layer in process, checkouts alternated.

Usage::

    python scripts/bench_io.py [--checkout LABEL=ROOT_DIR ...] [--note LABEL=TEXT ...]
                               [--out BENCH_io.json]

Each of 9 runs per checkout starts a new interpreter with one BLAS thread
and ``ROOT_DIR/src`` on its path and calls every operation 15 times after
one untimed call, keeping its minimum:

- ``write_obj`` of the bundled teapot tessellated at n=16 with normals
  (``tessellate_set``, as ``smartpatch teapot --normals`` does);
- ``write_obj`` of the teapot split 2x2 by de Casteljau (128 patches,
  ``tests/helpers.split_patch``) at n=4, as the ``split-teapot`` benchmark
  workload tessellates;
- ``dump_patchset`` of that split;
- ``load_newell`` of the bundled teapot text.

OBJ files go to ``os.devnull``, so the disk is not timed.  A last call of
the teapot ``write_obj`` under ``tracemalloc`` gives its allocation peak.
Each operation is reported as the min and the median over the runs of
those per-run minima, in milliseconds.

``peak_rss_mb`` is the worker's own peak resident set size: each run also
launches ``ROOT_DIR/bench/probe.py ops teapot`` for 2 seconds through
``sh`` on the seed-10 benchmark input, from this script, which never
imports numpy, so the reading is not raised by a larger parent process.
The input is written to a new temporary directory for each probe.

With several checkouts the runs alternate between them, and the order
flips every round.  The numbers go into column LABEL of the JSON file
``--out``; columns already in that file under other labels are kept.
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

from bench_setup import cpu_model, one_blas_thread, pairs, summary

REPO_ROOT = Path(__file__).resolve().parent.parent
RUNS = 9
CALLS = 15
RSS_SECONDS = 2.0

# Runs in the fresh interpreter with ROOT_DIR as its working directory.
CHILD = r"""
import json, os, sys, time, tracemalloc
sys.path[:0] = ["src", "tests"]
from helpers import split_patch
from smartpatch.io import PatchSet, dump_patchset, load_newell, write_obj
from smartpatch.tessellation import tessellate_set

calls = int(sys.argv[1])
text = open("data/teapot.newell").read()
teapot = load_newell(text, name="teapot").patches
split = [q for p in teapot for q in split_patch(p)]
teapot_mesh = tessellate_set(teapot, 16, with_normals=True)
split_mesh = tessellate_set(split, 4)
split_set = PatchSet(name="split", patches=split)
ops = {
    "write_obj teapot n=16 normals": lambda: write_obj(teapot_mesh, os.devnull),
    "write_obj split n=4": lambda: write_obj(split_mesh, os.devnull),
    "dump_patchset split": lambda: dump_patchset(split_set),
    "load_newell teapot": lambda: load_newell(text),
}
best = {}
for name, op in ops.items():
    op()
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        op()
        times.append(time.perf_counter() - start)
    best[name] = min(times)
tracemalloc.start()
write_obj(teapot_mesh, os.devnull)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps({"best": best, "tracemalloc_peak": peak,
                  "numpy": sys.modules["numpy"].__version__}))
"""

# Writes the seeded benchmark input of the teapot workload into argv[1].
INPUTS = r"""
import sys
from pathlib import Path
sys.path[:0] = ["bench", "src"]
import generators
generators.write_inputs("teapot", Path.cwd(), Path(sys.argv[1]), 10)
"""


def python(root: Path, code: str, *args) -> str:
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], cwd=root,
                         env=one_blas_thread(), capture_output=True, text=True, check=True)
    return out.stdout


def rss_probe(root: Path) -> float:
    # A new input directory each time: the reading moves by up to ≈0.7 MB
    # with the name of the input path alone, so one fixed name would bias it.
    with tempfile.TemporaryDirectory() as inputs:
        python(root, INPUTS, inputs)
        cmd = " ".join(shlex.quote(str(a)) for a in (sys.executable, root / "bench" / "probe.py",
                                                     "ops", "teapot", inputs, RSS_SECONDS))
        out = subprocess.run(["sh", "-c", f"exec {cmd}"], cwd=root, env=one_blas_thread(),
                             capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["peak_rss_mb"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", action="append", default=[],
                    help="LABEL=ROOT_DIR, repeatable (default: change=<this checkout>)")
    ap.add_argument("--note", action="append", default=[],
                    help="LABEL=TEXT stored with that column, repeatable")
    ap.add_argument("--out", default=str(REPO_ROOT / "BENCH_io.json"))
    args = ap.parse_args(argv)
    checkouts = {label: Path(root).resolve() for label, root in
                 pairs(args.checkout or [f"change={REPO_ROOT}"], "--checkout", ap).items()}
    notes = pairs(args.note, "--note", ap)

    labels = list(checkouts)
    runs = {label: [] for label in labels}
    rss = {label: [] for label in labels}
    for k in range(RUNS):
        for label in labels if k % 2 == 0 else labels[::-1]:
            runs[label].append(json.loads(python(checkouts[label], CHILD, CALLS)))
            rss[label].append(rss_probe(checkouts[label]))

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["method"] = (
        f"fresh interpreter per run, {CALLS} calls per operation after one untimed "
        f"call, min per run; {RUNS} runs per checkout, checkouts alternated with the "
        "order flipped every round; min and median of the per-run minima; OBJ "
        "written to os.devnull; one BLAS thread; tracemalloc peak of one teapot write_obj; "
        f"peak_rss_mb from bench/probe.py ops teapot (seed 10, {RSS_SECONDS:g} s) "
        "started through sh"
    )
    for label in labels:
        results = runs[label]
        doc.setdefault("host", {})[label] = {
            "cpu": cpu_model(),
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": results[0]["numpy"],
        }
        column = {
            "note": notes.get(label, ""),
            "runs": len(results),
            "steps": {name: summary([r["best"][name] for r in results])
                      for name in results[0]["best"]},
            "write_obj_tracemalloc_peak_mb": round(
                max(r["tracemalloc_peak"] for r in results) / 2**20, 3),
            "peak_rss_mb": {"min": round(min(rss[label]), 2),
                            "median": round(statistics.median(rss[label]), 2)},
        }
        doc.setdefault("columns", {})[label] = column
        teapot = column["steps"]["write_obj teapot n=16 normals"]
        print(f"{label}: teapot write_obj min {teapot['min_ms']:.1f} / median "
              f"{teapot['median_ms']:.1f} ms, tracemalloc peak "
              f"{column['write_obj_tracemalloc_peak_mb']:.2f} MB, peak RSS "
              f"{column['peak_rss_mb']['median']:.2f} MB")
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
