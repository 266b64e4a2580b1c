"""Fresh-process measurements, started by run.py.

    python3 bench/probe.py setup [--trace]
        time `import smartpatch` plus the exact derivation and certification
        (build_lambda, bs_free_cells, resolve_inner_identity); with --trace,
        also the spans of those three calls
    python3 bench/probe.py setup-ref
        time the set-up reference: import numpy (through reference.py) and
        a fixed Fraction sum, without smartpatch
    python3 bench/probe.py ops WORKLOAD INPUTS SECONDS
        run one warm-up operation of WORKLOAD on the generated files in the
        directory INPUTS and report the peak resident set size so far; then
        run the paired loop of measure.py for SECONDS and report its times
        and check counts

Each prints one JSON object.  Nothing is imported before the setup clock
starts except the standard library, so numpy's import counts as set-up.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def setup(trace: bool) -> dict:
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import smartpatch
    from smartpatch import constraints

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install({"constraints": ("build_lambda",)})
    constraints.build_lambda()
    constraints.bs_free_cells()
    constraints.resolve_inner_identity()
    out = {"setup_s": time.perf_counter() - start, "module": smartpatch.__file__}
    if tracer is not None:
        tracer.restore()
        out["spans"] = tracer.spans
    return out


def setup_ref() -> dict:
    start = time.perf_counter()
    from reference import SETUP_TERMS, fraction_sum

    fraction_sum(SETUP_TERMS)
    return {"ref_s": time.perf_counter() - start}


def ops(workload: str, inputs: Path, seconds: float) -> dict:
    import resource

    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from measure import Counts, paired_loop
    from reference import reference_seconds

    counts = Counts()
    w = workloads.load(workload, inputs)
    result = w.run(0)
    # before the checks build their oracles, so the reading is the program's
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    counts.add(w.items, *w.check(result))
    reference_seconds()  # warm-up
    out = paired_loop(w, seconds, counts)
    return {"peak_rss_mb": peak_kib / 1024, "attempted": counts.attempted,
            "failed": counts.failed, "messages": counts.messages, **out}


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        print(json.dumps(setup("--trace" in sys.argv[2:])))
    elif sys.argv[1] == "setup-ref":
        print(json.dumps(setup_ref()))
    elif sys.argv[1] == "ops":
        print(json.dumps(ops(sys.argv[2], Path(sys.argv[3]), float(sys.argv[4]))))
    else:
        sys.exit(f"unknown probe {sys.argv[1]!r}")
