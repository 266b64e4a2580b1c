"""The closed loop shared by the untraced workers and the traced run."""

import time
import traceback

from reference import reference_gap

MIN_OPS = 3
REF_SHARE = 0.15  # reference work after each operation, as a share of its time


class Counts:
    """Checked items attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.messages = []

    def add(self, items: int, failed: int, messages):
        self.attempted += items
        self.failed += failed
        self.messages.extend(messages[: 20 - len(self.messages)])

    def op(self, w, run):
        """Run one operation through ``run`` and check it; returns its seconds."""
        try:
            start = time.perf_counter()
            result = run()
            seconds = time.perf_counter() - start
            self.add(w.items, *w.check(result))
        except Exception:  # a crash is a failed operation, never a lost one
            self.add(w.items, w.items, [traceback.format_exc(limit=3)[-500:]])
            seconds = float("nan")
        return seconds


def timed_loop(seconds: float, step):
    """Call step(k) for k = 1, 2, ... until ``seconds`` pass (at least MIN_OPS)."""
    deadline = time.perf_counter() + seconds
    k = 1
    while k <= MIN_OPS or time.perf_counter() < deadline:
        step(k)
        k += 1


def paired_loop(w, seconds: float, counts: Counts) -> dict:
    """Operations back to back, each followed by a gap of reference work.

    Each operation's ratio divides its time by the mean of the reference
    gaps just before and after it; see reference.py for why.
    """
    refs = [reference_gap(0.0)]
    times, ratios = [], []

    def step(k):
        seconds = counts.op(w, lambda: w.run(k))
        refs.append(reference_gap(REF_SHARE * seconds if seconds == seconds else 0.0))
        if seconds == seconds:  # NaN marks a crashed operation
            times.append(seconds)
            ratios.append(seconds / ((refs[-2] + refs[-1]) / 2))

    timed_loop(seconds, step)
    return {"times": times, "ratios": ratios, "refs": refs}
