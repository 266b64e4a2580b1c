"""The per-layer benchmark script: its arguments, its record writer, and its
set-up, geometry and operator children (the latter two with 1 and 3 calls
per operation).  No repair or I/O child runs here; each takes seconds."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_layers", REPO_ROOT / "scripts" / "bench_layers.py"
)
bench_layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_layers)


@pytest.mark.parametrize("spec, message", [
    ("parent", "must be LABEL=VALUE"),
    ("=.", "must be LABEL=VALUE"),
    ("old={src}", "is not a smartpatch repository root"),
    ("empty={empty}", "is not a smartpatch repository root"),
])
def test_a_checkout_that_is_not_a_repository_root_is_a_usage_error(capsys, tmp_path, spec,
                                                                     message):
    spec = spec.format(src=REPO_ROOT / "src", empty=tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        bench_layers.main(["--checkout", spec])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and message in err


def test_writing_a_column_keeps_the_other_labels(tmp_path):
    path = tmp_path / "BENCH_x.json"
    parent_host = {"cpu": "a", "cores": 1, "python": "3", "numpy": "1"}
    path.write_text(json.dumps({
        "method": "old",
        "host": {"parent": parent_host, "change": {"cpu": "stale"}},
        "columns": {"parent": {"note": "kept"}, "change": {"note": "stale"}},
    }))
    change_host = dict(parent_host, cpu="b")
    bench_layers.write_record(path, "new", {"change": {"note": "fresh"}}, {"change": change_host})
    doc = json.loads(path.read_text())
    assert doc == {
        "method": "new",
        "host": {"parent": parent_host, "change": change_host},
        "columns": {"parent": {"note": "kept"}, "change": {"note": "fresh"}},
    }
    bench_layers.write_record(tmp_path / "new.json", "m", {"a": {}}, {"a": {}})
    assert json.loads((tmp_path / "new.json").read_text()) == {
        "method": "m", "host": {"a": {}}, "columns": {"a": {}}
    }


def test_setup_child_reports_the_committed_step_names():
    run = bench_layers.child(REPO_ROOT, bench_layers.SETUP)
    committed = json.loads((REPO_ROOT / "BENCH_setup.json").read_text())["columns"]
    assert set(run) == {"steps", "compile_s", "dont_write_bytecode", "numpy"}
    for column in committed.values():
        assert list(run["steps"]) == list(column["steps"])
        assert bench_layers.setup_column([run]).keys() == column.keys() - {"note"}


def test_a_child_that_imports_another_smartpatch_stops_the_run(tmp_path):
    code = f"sys.path[:0] = [{str(REPO_ROOT / 'src')!r}]\nresult = {{}}\n"
    with pytest.raises(SystemExit, match="imported smartpatch from"):
        bench_layers.child(tmp_path, code)


def test_repair_column_summarises_each_input_over_the_runs():
    runs = [{"inputs": {"teapot": {"patches": 32, "components": 4, "records": 52,
                                   "repair_s": s, "adjacency_s": s / 10,
                                   "tracemalloc_peak_mb": mb}}}
            for s, mb in ((0.003, 0.5), (0.002, 0.49), (0.004, 0.48))]
    assert bench_layers.repair_column(runs) == {"runs": 3, "inputs": {"teapot": {
        "patches": 32, "components": 4, "records": 52,
        "repair_patches": {"min_ms": 2.0, "median_ms": 3.0, "max_ms": 4.0},
        "detect_adjacency": {"min_ms": 0.2, "median_ms": 0.3, "max_ms": 0.4},
        "tracemalloc_peak_mb": 0.5,
    }}}


def test_repair_column_summarises_the_stages_a_checkout_has():
    runs = [{"inputs": {"teapot": {"patches": 32, "components": 4, "records": 52,
                                   "repair_s": s, "adjacency_s": s, "tracemalloc_peak_mb": 0.5,
                                   "stages_s": {"_factor": s / 2, "repair_patches": s}}}}
            for s in (0.003, 0.002, 0.004)]
    assert bench_layers.repair_column(runs)["inputs"]["teapot"]["stages_ms"] == {
        "_factor": {"min_ms": 1.0, "median_ms": 1.5, "max_ms": 2.0},
        "repair_patches": {"min_ms": 2.0, "median_ms": 3.0, "max_ms": 4.0},
    }
    runs[0]["inputs"]["teapot"]["stages_s"] = {}
    assert "stages_ms" not in bench_layers.repair_column(runs)["inputs"]["teapot"]


def test_repair_column_summarises_the_adjacency_core_where_a_checkout_has_one():
    runs = [{"inputs": {"teapot": {"patches": 32, "components": 4, "records": 52,
                                   "repair_s": s, "adjacency_s": s, "tracemalloc_peak_mb": 0.5,
                                   "adjacency_core_s": core}}}
            for s, core in ((0.003, 0.001), (0.002, 0.0005), (0.004, 0.002))]
    assert bench_layers.repair_column(runs)["inputs"]["teapot"]["_adjacency"] == {
        "min_ms": 0.5, "median_ms": 1.0, "max_ms": 2.0}
    for run in runs:
        run["inputs"]["teapot"]["adjacency_core_s"] = None  # a checkout without the core
    assert "_adjacency" not in bench_layers.repair_column(runs)["inputs"]["teapot"]


def test_operators_child_reports_the_committed_operator_names():
    run = bench_layers.child(REPO_ROOT, bench_layers.OPERATORS, "3")
    committed = json.loads((REPO_ROOT / "BENCH_operators.json").read_text())["columns"]
    assert set(run) == {"best", "numpy"}
    assert list(run["best"]) == ["bs_residuals", "bs_residuals(list of lists)",
                                 "bs_residuals(reversed view)", "bs_project", "bs_solve",
                                 "bs_inner_identity", "BezierPatch(x, y, z)",
                                 "BezierPatch(x, y, z lists)", "bezier_to_hermite",
                                 "hermite_to_bezier"]
    assert all(0.0 < seconds < 0.1 for seconds in run["best"].values())
    for column in committed.values():
        assert list(run["best"]) == list(column["calls"])
        assert bench_layers.operators_column([run]).keys() == column.keys() - {"note"}


def test_geometry_child_reports_the_committed_row_names(tmp_path):
    run = bench_layers.child(REPO_ROOT, bench_layers.GEOMETRY, "1", str(tmp_path))
    committed = json.loads((REPO_ROOT / "BENCH_geometry.json").read_text())["columns"]
    assert set(run) == {"best", "numpy"}
    assert list(run["best"]) == [
        "tessellate_set teapot n=16 normals",
        "tessellate_set seed-10 teapot repaired n=16 normals",
        "tessellate_set split n=4",
        "continuity_measures teapot n=16",
        "continuity_measures split n=4",
    ]
    assert all(0.0 < seconds < 1.0 for seconds in run["best"].values())
    assert set(committed) == {"parent", "change"}
    for column in committed.values():
        assert list(run["best"]) == list(column["steps"])
        assert bench_layers.geometry_column([run]).keys() == column.keys() - {"note"}


def test_operators_column_summarises_microseconds_over_the_runs():
    runs = [{"best": {"bs_project": s, "bs_solve": s / 2}} for s in (3e-6, 2e-6, 4e-6)]
    assert bench_layers.operators_column(runs) == {"runs": 3, "calls": {
        "bs_project": {"min_us": 2.0, "median_us": 3.0, "max_us": 4.0},
        "bs_solve": {"min_us": 1.0, "median_us": 1.5, "max_us": 2.0},
    }}


def test_io_column_reports_each_rows_per_run_median_beside_its_minimum():
    runs = [{"best": {"write_obj": s}, "median": {"write_obj": 10 * s},
             "tracemalloc_peak": 2**20, "peak_rss_mb": mb}
            for s, mb in ((0.003, 35.0), (0.002, 36.0), (0.004, 35.5))]
    assert bench_layers.io_column(runs) == {
        "runs": 3,
        "steps": {"write_obj": {"min_ms": 2.0, "median_ms": 3.0, "max_ms": 4.0,
                                "per_run_median": {"min_ms": 20.0, "median_ms": 30.0,
                                                   "max_ms": 40.0}}},
        "write_obj_tracemalloc_peak_mb": 1.0,
        "peak_rss_mb": {"min": 35.0, "median": 35.5},
    }
    committed = json.loads((REPO_ROOT / "BENCH_io.json").read_text())["columns"]
    for column in committed.values():
        assert all(row.keys() == {"min_ms", "median_ms", "max_ms", "per_run_median"}
                   for row in column["steps"].values())
