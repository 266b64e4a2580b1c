"""The smartpatch benchmark: three workloads, checked outputs, one JSON result.

    python3 bench/run.py --workload teapot|split-teapot|grids --seed N \
        --seconds S --trace 0|1

Run it from the repository root; it imports smartpatch from ./src.  With
--trace 0 it reports the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run.  The last line of standard output is the result
object; the line before it holds the details (machine, sample counts,
quartiles, failure messages).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
OUT = BENCH / ".out"
SETUP_RUNS = 9
# The untraced loop is split over fresh worker processes: run-to-run spread
# of the long split-teapot operation comes partly from the process itself.
WORKERS = 3
PROBE_TIMEOUT_S = 150

END_TO_END = {"op_over_ref": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: spans summed per operation, then the median over
# traced operations.  "self" is the span time minus its wrapped children.
SPAN_METRICS = (
    "tessellation.tessellate", "tessellation.continuity_report",
    "tessellation.detect_adjacency", "tessellation.merge_meshes",
    "constraints.repair_patches", "constraints.bs_residuals", "constraints.bs_project",
    "constraints.bs_solve", "constraints.bs_inner_identity",
    "io.read_newell", "io.write_obj", "io.write_patchset",
)
CALL_METRICS = ("tessellation.tessellate", "tessellation.continuity_report",
                "constraints.repair_patches", "constraints.bs_residuals",
                "constraints.bs_project", "constraints.bs_solve", "patches.convert")
PER_LAYER = {
    **{f"{name}.s": "s" for name in SPAN_METRICS},
    **{f"{name}.calls": "count" for name in CALL_METRICS},
    "tessellation.vertices": "count",
    "tessellation.triangles": "count",
    "tessellation.adjacency.edges": "count",
    "tessellation.adjacency.pairs": "count",
    "tessellation.adjacency.hit_ratio": "ratio",
    "constraints.bs_project.p99_us": "us",
    "constraints.build_lambda.s": "s",
    "linalg.ops": "count",
    "linalg.s": "s",
    "linalg.setup_ops": "count",
    "linalg.setup_s": "s",
    "patches.convert.s": "s",
    "io.obj_bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}
ROOT_SPAN = {"teapot": "cli", "split-teapot": "cli", "grids": "grids"}


def probe(*args) -> dict:
    """Run bench/probe.py in a fresh interpreter and return its JSON object."""
    proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"samples": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def setup_probes(count: int) -> list:
    """``count`` set-up probes between set-up references.

    Returns (raw seconds, mean of the references just before and after)
    for each probe.
    """
    refs = [probe("setup-ref")["ref_s"]]
    raws = []
    for _ in range(count):
        raws.append(probe("setup")["setup_s"])
        refs.append(probe("setup-ref")["ref_s"])
    return [(raw, (a + b) / 2) for raw, a, b in zip(raws, refs, refs[1:])]


def end_to_end(args, counts: Counts, inputs: Path, details: dict) -> dict:
    """Fresh worker processes run the paired loop; set-up probes run between them.

    Set-up time drifts with the host's speed like the operations do, so
    each probe is divided by the set-up reference timed around it and
    reported in seconds of the reference host (see reference.py).
    """
    from reference import SETUP_UNIT_S

    probe("setup")  # first import in a fresh checkout also compiles bytecode
    times, ratios, refs, setups, rss = [], [], [], [], []
    for _ in range(WORKERS):
        run = probe("ops", args.workload, str(inputs), str(args.seconds / WORKERS))
        counts.add(run["attempted"], run["failed"], run["messages"])
        times += run["times"]
        ratios += run["ratios"]
        refs += run["refs"]
        rss.append(run["peak_rss_mb"])
        setups += setup_probes(SETUP_RUNS // WORKERS)
    scaled = [raw / ref * SETUP_UNIT_S for raw, ref in setups]
    details.update(op_s=spread(times), op_over_ref=spread(ratios), ref_s=spread(refs),
                   setup_raw_s=spread([raw for raw, _ in setups]), setup_s=spread(scaled),
                   peak_rss_mb=rss, op_times=times, ref_times=refs, setups=setups)
    return {"op_over_ref": statistics.median(ratios), "setup_s": statistics.median(scaled),
            "peak_rss_mb": statistics.median(rss)}


def per_layer(args, counts: Counts, inputs: Path, details: dict) -> dict:
    """One process alternates untraced and traced operations."""
    import tracing
    import workloads
    from measure import timed_loop

    w = workloads.load(args.workload, inputs)

    setup = probe("setup", "--trace")
    setup_table = tracing.per_iteration(setup["spans"])
    setup_cells = setup_table[-1]
    metrics = dict.fromkeys(PER_LAYER, 0)
    metrics["constraints.build_lambda.s"] = setup_cells["constraints.build_lambda"][1]
    linalg = [c for name, c in setup_cells.items() if name.startswith("linalg.")]
    metrics["linalg.setup_ops"] = sum(c[0] for c in linalg)
    metrics["linalg.setup_s"] = sum(c[1] for c in linalg)

    counts.op(w, lambda: w.run(0))  # warm-up
    tracer = tracing.Tracer()
    root = ROOT_SPAN[args.workload]
    plain, traced = [], []

    def step(k):
        if k % 2:
            plain.append(counts.op(w, lambda: w.run(k)))
            return
        tracer.install()
        try:
            traced.append(counts.op(w, lambda: tracer.root(root, k, w.run, k)))
        finally:
            tracer.restore()

    timed_loop(args.seconds, step)
    table = tracing.per_iteration(tracer.spans)
    rows = [table[it] for it in sorted(table)]

    def median_of(fn):
        return statistics.median(fn(cells) for cells in rows) if rows else 0.0

    def layer(cells, prefix, idx):
        return sum(c[idx] for name, c in cells.items() if name.startswith(prefix))

    for name in SPAN_METRICS:
        metrics[f"{name}.s"] = median_of(lambda c: c[name][1] if name in c else 0.0)
    for name in CALL_METRICS:
        metrics[f"{name}.calls"] = median_of(lambda c: c[name][0] if name in c else 0)
    metrics["patches.convert.calls"] = median_of(lambda c: layer(c, "patches.", 0))
    metrics["patches.convert.s"] = median_of(lambda c: layer(c, "patches.", 1))
    metrics["linalg.ops"] = median_of(lambda c: layer(c, "linalg.", 0))
    metrics["linalg.s"] = median_of(lambda c: layer(c, "linalg.", 1))
    if root == "cli":
        metrics["cli.self_s"] = median_of(lambda c: c["cli"][1])
    project = [s[2] - s[1] for s in tracer.spans if s[0] == "constraints.bs_project"]
    metrics["constraints.bs_project.p99_us"] = tracing.quantile(project, 0.99) * 1e6
    plain = [t for t in plain if t == t]
    traced = [t for t in traced if t == t]
    if plain and traced:
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    if root == "cli":
        last = w.last
        _, _, edges = w.oracle
        metrics.update({
            "tessellation.vertices": last["vertices"],
            "tessellation.triangles": last["triangles"],
            "tessellation.adjacency.edges": edges,
            "tessellation.adjacency.pairs": last["pairs"],
            "tessellation.adjacency.hit_ratio": last["pairs"] / (edges * (edges - 1) / 2),
            "io.obj_bytes": last["obj_bytes"],
        })
    OUT.joinpath(f"spans-{args.workload}-{args.seed}.json").write_text(
        json.dumps({"fields": ["name", "start", "end", "parent", "iteration"],
                    "setup_spans": setup["spans"], "spans": tracer.spans}))
    details.update(traced_ops=len(traced), untraced_ops=len(plain), spans=len(tracer.spans))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("teapot", "split-teapot", "grids"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS thread, fixed before numpy loads (here and in the probes), so
    # runs do not depend on how busy the other core is.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    package = ROOT / "src" / "smartpatch"
    if not (package / "__init__.py").is_file() or not (ROOT / "data" / "teapot.newell").is_file():
        print(f"error: no smartpatch sources under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import smartpatch

    if Path(smartpatch.__file__).resolve().parent != package.resolve():
        print(f"error: imported smartpatch from {smartpatch.__file__}, not {package}",
              file=sys.stderr)
        return 2
    from measure import Counts

    OUT.mkdir(exist_ok=True)
    counts = Counts()
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "machine": machine()}
    import generators

    inputs = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        generators.write_inputs(args.workload, ROOT, inputs, args.seed)
        values = (per_layer if args.trace else end_to_end)(args, counts, inputs, details)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    details["failures"] = counts.messages
    print(json.dumps(details))
    print(json.dumps({
        "correct": counts.failed == 0,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
