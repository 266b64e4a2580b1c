"""Spans around smartpatch's public functions, installed from outside.

The wrappers replace module attributes (and RationalMatrix methods) for
the length of a traced run and put the originals back afterwards; no file
under src/ changes.  Callers inside smartpatch look these names up on
their module at call time, so every call goes through a wrapper.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

# (module name, attribute) pairs wrapped in a traced run, by layer.
FUNCTIONS = {
    "io": ("read_newell", "write_obj", "write_patchset"),
    "constraints": ("bs_residuals", "repair_patches", "bs_project", "bs_solve",
                    "bs_inner_identity"),
    "tessellation": ("detect_adjacency", "continuity_report", "tessellate", "merge_meshes"),
    "patches": ("bezier_to_hermite", "hermite_to_bezier"),
}
LINALG_METHODS = ("__matmul__", "__add__", "__neg__", "rref", "inverse")


class Tracer:
    """Records (name, start, end, parent, iteration) for each wrapped call."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index or -1, iteration]
        self._stack = []
        self._undo = []
        self.iteration = -1

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` and record its span under the innermost open span."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, self.iteration])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.span(name, original, *args, **kwargs)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self, functions=FUNCTIONS):
        """Wrap ``functions`` ({module: attributes}) and the RationalMatrix methods."""
        for module, attrs in functions.items():
            mod = importlib.import_module(f"smartpatch.{module}")
            for attr in attrs:
                self.wrap(mod, attr, f"{module}.{attr}")
        matrix = importlib.import_module("smartpatch.linalg").RationalMatrix
        for attr in LINALG_METHODS:
            self.wrap(matrix, attr, f"linalg.{attr}")

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def root(self, name: str, iteration: int, fn, *args):
        """Run ``fn`` as the root span of one iteration; returns its result."""
        self.iteration = iteration
        return self.span(name, fn, *args)


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def per_iteration(spans):
    """{iteration: {name: [calls, self seconds]}}."""
    table = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
    for s, t in zip(spans, self_times(spans)):
        cell = table[s[4]][s[0]]
        cell[0] += 1
        cell[1] += t
    return table


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q)) if len(values) else 0.0
