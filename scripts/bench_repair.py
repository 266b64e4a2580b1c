#!/usr/bin/env python3
"""Time ``repair_patches`` in process on patch sets from 32 to 2304 patches.

Usage::

    python scripts/bench_repair.py [--src DIR] [--label NAME] [--note TEXT]
                                   [--inputs teapot,split1,...] [--out BENCH_repair.json]

Each input is repaired once untimed (which also fills the exact-rank caches),
then three times timed; the minimum is kept.  A fourth call under
``tracemalloc`` gives the peak of Python-visible allocations (numpy arrays
included).  BLAS runs on one thread.  The inputs are the bundled teapot, the
teapot split 2x2 by de Casteljau once, twice and three times, and seeded
k x k height fields (one connected component of k^2 patches) for
k = 8, 16, 24, 32, 48.

The numbers go into column ``--label`` of the JSON file ``--out``; other
columns already in that file are kept, so two checkouts can be compared by
running the script once with each ``--src``.
"""

import argparse
import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

from bench_setup import cpu_model

REPO_ROOT = Path(__file__).resolve().parent.parent
INPUTS = ["teapot", "split1", "split2", "split3", "hf8", "hf16", "hf24", "hf32", "hf48"]


def build(name: str):
    from helpers import height_field_patches, split_patch
    from smartpatch.io import read_newell

    import numpy as np

    if name.startswith("hf"):
        k = int(name[2:])
        rng = np.random.default_rng(k)
        return height_field_patches(rng.uniform(-1.0, 1.0, (3 * k + 1, 3 * k + 1)))
    patches = read_newell(REPO_ROOT / "data" / "teapot.newell").patches
    for _ in range(int(name[5:]) if name.startswith("split") else 0):
        patches = [q for p in patches for q in split_patch(p)]
    return patches


def measure(patches, repair) -> dict:
    for p in patches:
        p.as_array  # the input's stacked grids are not the repair's work
    result = repair(patches)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        repair(patches)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        repair(patches)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "patches": len(patches),
        "components": result.system.components,
        "min_s": round(min(times), 6),
        "tracemalloc_peak_mb": round(peak / 1e6, 2),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(REPO_ROOT / "src"),
                    help="the src directory of the checkout to time")
    ap.add_argument("--label", default="change", help="column name in the output file")
    ap.add_argument("--note", default="", help="free text stored with the column")
    ap.add_argument("--inputs", default=",".join(INPUTS),
                    help=f"comma-separated subset of {','.join(INPUTS)}")
    ap.add_argument("--out", default=str(REPO_ROOT / "BENCH_repair.json"))
    args = ap.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # before numpy loads its BLAS
    sys.path[:0] = [str(Path(args.src).resolve()), str(REPO_ROOT / "tests")]
    import numpy as np
    from smartpatch import repair_patches

    names = [s for s in args.inputs.split(",") if s]
    unknown = set(names) - set(INPUTS)
    if unknown:
        ap.error(f"unknown inputs: {sorted(unknown)}")
    repair_patches(build("teapot"))  # derive and certify the exact maps once
    column = {"note": args.note, "inputs": {}}
    for name in names:
        column["inputs"][name] = row = measure(build(name), repair_patches)
        print(f"{name:8s} {row['patches']:5d} patches  {row['components']} components  "
              f"{row['min_s']:.4f} s  peak {row['tracemalloc_peak_mb']:.1f} MB", flush=True)

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["method"] = (
        "repair_patches in process: one untimed call, then min of 3 timed calls; "
        "tracemalloc peak of a fourth call; one BLAS thread"
    )
    doc.setdefault("host", {})[args.label] = {
        "cpu": cpu_model(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    doc.setdefault("columns", {})[args.label] = column
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
