"""A fixed piece of reference work that does not touch smartpatch.

The host this benchmark runs on is shared: its speed drifts by a quarter
or more within seconds as other tenants load it.  run.py times this work
in the gaps between operations and reports each operation's time as a
multiple of the reference time around it, which cancels most of the drift.  The
mix follows the program's: exact Fraction arithmetic, many small numpy
products and one dense least-squares solve.  Never change it between two
runs that are compared.

Set-up time is mostly ``import numpy`` in a fresh interpreter, which the
host's drift moves less than it moves arithmetic.  Its reference is
therefore a fresh interpreter that imports this module (and with it
numpy) and runs SETUP_TERMS terms of the Fraction sum; see probe.py.
"""

import time
from fractions import Fraction

import numpy as np

SETUP_TERMS = 3000
# The set-up reference's time on the 2-core Xeon the benchmark was defined
# on.  setup_s is the set-up time in set-up reference units times this, so
# it reads as seconds on that host.  A constant, so it never moves a result.
SETUP_UNIT_S = 0.09


def fraction_sum(terms: int) -> Fraction:
    acc = Fraction(0)
    for i in range(1, terms):
        acc += Fraction(i % 97, i % 89 + 1)
    return acc


def reference_seconds() -> float:
    """Wall time of one unit of reference work (about 50 ms on a 2-core Xeon)."""
    start = time.perf_counter()
    fraction_sum(8000)
    a = np.linspace(0.0, 1.0, 256).reshape(16, 16)
    for _ in range(4000):
        a = a @ a.T
        a /= np.abs(a).max()
    m = np.linspace(-1.0, 1.0, 160 * 120).reshape(160, 120)
    np.linalg.lstsq(m, np.ones(160), rcond=None)
    return time.perf_counter() - start


def reference_gap(at_least: float) -> float:
    """Mean time of one unit, over as many units as fill ``at_least`` seconds (one or more)."""
    units = [reference_seconds()]
    while sum(units) < at_least:
        units.append(reference_seconds())
    return sum(units) / len(units)
