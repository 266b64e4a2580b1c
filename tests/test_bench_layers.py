"""The per-layer benchmark script: its arguments, its record writer and its
set-up child.  No repair or I/O child runs here; each takes seconds."""

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
