#!/usr/bin/env python3
"""Time smartpatch's set-up in fresh interpreters, one step at a time.

Usage::

    python scripts/bench_setup.py [--checkout LABEL=SRC_DIR ...] [--runs N]
                                  [--note LABEL=TEXT ...] [--out BENCH_setup.json]

Each run starts a new interpreter with one BLAS thread and ``SRC_DIR`` on
its path and times, in order: ``import smartpatch`` (numpy's import
included), ``build_lambda``, ``bs_free_cells``, ``resolve_inner_identity``,
``patches._conversion_matrices`` and the first ``_pattern_rank`` (a patch
whose 12 non-corner slots are 12 free variables).  The three calls after
the import are the exact derivation and certification every process pays
before its first operation.  With several checkouts the runs alternate
between them, and the order flips every round.  Each step is reported as
the min and median over the runs, in milliseconds.

Whether the interpreters write bytecode is recorded: with
``PYTHONDONTWRITEBYTECODE`` set, every run compiles smartpatch from source
as part of its import.  That share is reported too, as ``compile_ms``: the
min over the runs of compiling every module of the checkout's package with
``compile()`` in this process.

The numbers go into column LABEL of the JSON file ``--out``; columns
already in that file under other labels are kept.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DERIVATION = ("build_lambda", "bs_free_cells", "resolve_inner_identity")

# Runs in the fresh interpreter; nothing but the standard library is
# imported before the first clock reading.
CHILD = r"""
import json, sys, time
clock = time.perf_counter
steps = {}
start = clock()
import smartpatch
steps["import smartpatch"] = clock() - start
from smartpatch import constraints, patches
for name, call in (
    ("build_lambda", constraints.build_lambda),
    ("bs_free_cells", constraints.bs_free_cells),
    ("resolve_inner_identity", constraints.resolve_inner_identity),
    ("patches._conversion_matrices", patches._conversion_matrices),
    ("first _pattern_rank", lambda: constraints._pattern_rank(tuple(range(12)))),
):
    start = clock()
    call()
    steps[name] = clock() - start
print(json.dumps({"steps": steps, "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
                  "module": smartpatch.__file__, "numpy": sys.modules["numpy"].__version__}))
"""


def cpu_model() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def one_blas_thread(**extra) -> dict:
    """This process's environment plus ``extra``, with BLAS on one thread."""
    env = dict(os.environ, **extra)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_once(src: Path) -> dict:
    out = subprocess.run([sys.executable, "-c", CHILD], env=one_blas_thread(PYTHONPATH=str(src)),
                         cwd=src, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def compile_seconds(src: Path) -> float:
    sources = [(p, p.read_text()) for p in sorted((src / "smartpatch").glob("*.py"))]
    start = time.perf_counter()
    for path, text in sources:
        compile(text, str(path), "exec", dont_inherit=True)
    return time.perf_counter() - start


def pairs(spec: list, what: str, ap) -> dict:
    out = {}
    for item in spec:
        label, sep, value = item.partition("=")
        if not sep or not label:
            ap.error(f"{what} must be LABEL=VALUE, got {item!r}")
        out[label] = value
    return out


def summary(values) -> dict:
    return {"min_ms": round(1e3 * min(values), 3),
            "median_ms": round(1e3 * statistics.median(values), 3)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", action="append", default=[],
                    help="LABEL=SRC_DIR, repeatable (default: change=<this checkout>/src)")
    ap.add_argument("--runs", type=int, default=15, help="fresh interpreters per checkout")
    ap.add_argument("--note", action="append", default=[],
                    help="LABEL=TEXT stored with that column, repeatable")
    ap.add_argument("--out", default=str(REPO_ROOT / "BENCH_setup.json"))
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    checkouts = {label: Path(src).resolve() for label, src in
                 pairs(args.checkout or [f"change={REPO_ROOT / 'src'}"], "--checkout", ap).items()}
    notes = pairs(args.note, "--note", ap)

    labels = list(checkouts)
    results = {label: [] for label in labels}
    for label in labels:
        run_once(checkouts[label])  # untimed: compiles bytecode where it may be written
    for k in range(args.runs):
        for label in labels if k % 2 == 0 else labels[::-1]:
            results[label].append(run_once(checkouts[label]))

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["method"] = (
        "fresh interpreter per run, steps timed in order with perf_counter; "
        f"{args.runs} runs per checkout after one untimed run, checkouts alternated "
        "with the order flipped every round; min and median per step; one BLAS thread; "
        "exact_derivation is the sum of " + ", ".join(DERIVATION) + " within each run"
    )
    for label in labels:
        runs = results[label]
        steps = {name: summary([r["steps"][name] for r in runs]) for name in runs[0]["steps"]}
        derivation = summary([sum(r["steps"][s] for s in DERIVATION) for r in runs])
        doc.setdefault("host", {})[label] = {
            "cpu": cpu_model(),
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": runs[0]["numpy"],
        }
        doc.setdefault("columns", {})[label] = {
            "note": notes.get(label, ""),
            "runs": len(runs),
            "dont_write_bytecode": runs[0]["dont_write_bytecode"],
            "steps": steps,
            "exact_derivation": derivation,
            "compile_ms": round(1e3 * min(compile_seconds(checkouts[label])
                                          for _ in range(args.runs)), 3),
        }
        print(f"{label}: import {steps['import smartpatch']['median_ms']:.1f} ms, "
              f"exact derivation min {derivation['min_ms']:.2f} / median "
              f"{derivation['median_ms']:.2f} ms "
              f"(bytecode {'not ' if runs[0]['dont_write_bytecode'] else ''}written)")
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
