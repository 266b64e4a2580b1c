"""The names the benchmark's tracer and set-up probe reach into smartpatch by.

bench/tracing.py wraps module attributes by name and bench/probe.py calls
the exact derivation by name, so a renamed or deleted function would only
show when the benchmark runs.  Both files are read here, not changed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from smartpatch.linalg import RationalMatrix

REPO_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("tracing", REPO_ROOT / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def traced_attributes():
    """(owner, attribute) for every name Tracer().install() wraps."""
    return [
        (importlib.import_module(f"smartpatch.{module}"), attr)
        for module, attrs in tracing.FUNCTIONS.items()
        for attr in attrs
    ] + [(RationalMatrix, attr) for attr in tracing.LINALG_METHODS]


def probe_setup_calls():
    """The ``constraints.<name>()`` calls in bench/probe.py's set-up probe."""
    tree = ast.parse((REPO_ROOT / "bench" / "probe.py").read_text())
    setup = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "setup")
    return [
        node.func.attr
        for node in ast.walk(setup)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "constraints"
    ]


def test_every_traced_and_probed_name_exists():
    constraints = importlib.import_module("smartpatch.constraints")
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in traced_attributes()
        if not callable(getattr(owner, attr, None))
    ]
    calls = probe_setup_calls()
    assert calls, "bench/probe.py's setup() makes no constraints.<name>() call"
    missing += [f"constraints.{c}" for c in calls if not callable(getattr(constraints, c, None))]
    assert missing == []


def test_install_then_restore_puts_back_the_same_objects():
    owners = traced_attributes()
    before = [getattr(owner, attr) for owner, attr in owners]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [getattr(owner, attr) for owner, attr in owners]
        assert all(w is not b for w, b in zip(wrapped, before))
    finally:
        tracer.restore()
    assert all(getattr(owner, attr) is b for (owner, attr), b in zip(owners, before))
