"""Exact rational matrices.

Everything that certifies structure - ranks, pivot sets, reduced systems,
inverses - runs on exact rational matrices so the answers are exact
instead of tolerance-based.  Run-time paths use float copies made with
``to_float`` once the exact matrices are certified.

A matrix is stored as Python-integer numerators over one positive common
denominator, in lowest terms, so every operation is integer arithmetic:
sums and products of numerators, one gcd per result, and fraction-free
Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968) for ``rref``.
``Fraction`` appears only where entries are read: ``m[i, j]``, ``row``
and ``data``.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np


def _ratio(x) -> tuple:
    """(numerator, positive denominator) of one entry; binary floats convert exactly."""
    if isinstance(x, (int, np.integer)):
        return int(x), 1
    if isinstance(x, (float, np.floating)):
        return float(x).as_integer_ratio()
    if isinstance(x, (Fraction, str)):
        f = Fraction(x)
        return f.numerator, f.denominator
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


class RationalMatrix:
    """Immutable matrix over exact rationals.

    Entry (i, j) is ``numerators[i][j] / denominator``: a tuple of row
    tuples of ints over one positive int, with no common factor left
    between the denominator and all numerators, so equal matrices have
    equal fields.  Every operation returns a new matrix, so instances can
    be shared freely.
    """

    __slots__ = ("rows", "cols", "numerators", "denominator")

    def __init__(self, rows_of_entries):
        entries = [[_ratio(x) for x in row] for row in rows_of_entries]
        if any(len(row) != len(entries[0]) for row in entries):
            raise ValueError("inconsistent row width")
        den = math.lcm(*(d for row in entries for _, d in row))
        self._set(tuple(tuple(n * (den // d) for n, d in row) for row in entries), den)

    def _set(self, numerators: tuple, denominator: int) -> None:
        """Store ``numerators / denominator`` (any nonzero denominator) in lowest terms."""
        if not numerators or not numerators[0]:
            raise ValueError("matrix must be nonempty")
        g = math.gcd(denominator, *(n for row in numerators for n in row))
        if denominator < 0:
            g = -g
        if g != 1:
            numerators = tuple(tuple(n // g for n in row) for row in numerators)
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", denominator // g)
        object.__setattr__(self, "rows", len(numerators))
        object.__setattr__(self, "cols", len(numerators[0]))

    @classmethod
    def _from_ints(cls, numerators, denominator: int) -> "RationalMatrix":
        """The matrix ``numerators / denominator`` from int rows, without converting entries."""
        m = object.__new__(cls)
        m._set(tuple(map(tuple, numerators)), denominator)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def column(cls, entries) -> "RationalMatrix":
        return cls([[x] for x in entries])

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return Fraction(self.numerators[i][j], self.denominator)

    def row(self, i):
        d = self.denominator
        return tuple(Fraction(n, d) for n in self.numerators[i])

    @property
    def data(self):
        """Entries as a tuple of row tuples of ``Fraction``."""
        return tuple(self.row(i) for i in range(self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __hash__(self):
        return hash((self.numerators, self.denominator))

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        cols = tuple(zip(*other.numerators))
        return RationalMatrix._from_ints(
            [[sum(map(operator.mul, row, col)) for col in cols] for row in self.numerators],
            self.denominator * other.denominator,
        )

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        den = math.lcm(self.denominator, other.denominator)
        fa, fb = den // self.denominator, den // other.denominator
        return RationalMatrix._from_ints(
            [
                [a * fa + b * fb for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.numerators, other.numerators)
            ],
            den,
        )

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix._from_ints(
            [[-n for n in row] for row in self.numerators], self.denominator
        )

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix._from_ints(zip(*self.numerators), self.denominator)

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        den = math.lcm(self.denominator, other.denominator)
        fa, fb = den // self.denominator, den // other.denominator
        return RationalMatrix._from_ints(
            [
                [n * fa for n in r1] + [n * fb for n in r2]
                for r1, r2 in zip(self.numerators, other.numerators)
            ],
            den,
        )

    def take_cols(self, indices) -> "RationalMatrix":
        return RationalMatrix._from_ints(
            [[row[j] for j in indices] for row in self.numerators], self.denominator
        )

    def take_rows(self, indices) -> "RationalMatrix":
        return RationalMatrix._from_ints(
            [self.numerators[i] for i in indices], self.denominator
        )

    def to_float(self) -> np.ndarray:
        # int / int is correctly rounded, as float(Fraction(n, d)) is
        d = self.denominator
        out = np.array([[n / d for n in row] for row in self.numerators], dtype=float)
        out.flags.writeable = False
        return out

    def is_zero(self) -> bool:
        return not any(n for row in self.numerators for n in row)

    def rref(self):
        """Reduced row-echelon form by fraction-free Gauss-Jordan elimination.

        The pivot in each column is the first row (top to bottom) with a
        nonzero entry; no magnitude pivoting is needed with exact
        arithmetic, and this keeps the pivot column set deterministic.
        Each step replaces every other row by (p * row - f * pivot row) / q,
        with p the new pivot, f the row's entry in the pivot column and q
        the previous pivot; the division is exact, since every entry is a
        minor of the numerators (Bareiss, 1968).  At the end each pivot row
        holds the last pivot in its pivot column, and dividing by it gives
        the reduced form.

        Returns (rref, rank, pivot_cols).
        """
        m = [list(row) for row in self.numerators]
        nrows, ncols = self.rows, self.cols
        pivot_cols = []
        prev = 1
        r = 0
        for c in range(ncols):
            if r == nrows:
                break
            pivot = next((i for i in range(r, nrows) if m[i][c]), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            top = m[r]
            pv = top[c]
            for i in range(nrows):
                if i != r:
                    f = m[i][c]
                    m[i] = [(pv * x - f * y) // prev for x, y in zip(m[i], top)]
            prev = pv
            pivot_cols.append(c)
            r += 1
        return RationalMatrix._from_ints(m, prev), len(pivot_cols), tuple(pivot_cols)

    def rank(self) -> int:
        return self.rref()[1]

    def inverse(self) -> "RationalMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse needs a square matrix")
        n = self.rows
        aug, _, pivots = self.hstack(RationalMatrix.identity(n)).rref()
        if pivots[:n] != tuple(range(n)) or len(pivots) != n:
            raise ValueError("matrix is singular")
        return aug.take_cols(range(n, 2 * n))
