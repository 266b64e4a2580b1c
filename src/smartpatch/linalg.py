"""Exact rational matrices.

Everything that certifies structure - ranks, pivot sets, reduced systems,
inverses - runs on Fraction-valued matrices so the answers are exact
instead of tolerance-based.  Run-time paths use float copies made with
``to_float`` once the exact matrices are certified.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, (float, np.floating)):
        # binary floats convert exactly
        return Fraction(float(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


class RationalMatrix:
    """Immutable matrix over exact rationals.

    Entries are stored as a tuple of row tuples of ``Fraction``; every
    operation returns a new matrix, so instances can be shared freely.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows_of_entries):
        data = tuple(tuple(_frac(x) for x in row) for row in rows_of_entries)
        if not data or not data[0]:
            raise ValueError("matrix must be nonempty")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("inconsistent row width")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)

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
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        cols = tuple(zip(*other.data))
        return RationalMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.data]
        )

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return RationalMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)]
        )

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix([[-x for x in row] for row in self.data])

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(list(zip(*self.data)))

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return RationalMatrix([r1 + r2 for r1, r2 in zip(self.data, other.data)])

    def take_cols(self, indices) -> "RationalMatrix":
        return RationalMatrix([[row[j] for j in indices] for row in self.data])

    def take_rows(self, indices) -> "RationalMatrix":
        return RationalMatrix([self.data[i] for i in indices])

    def to_float(self) -> np.ndarray:
        out = np.array([[float(x) for x in row] for row in self.data], dtype=float)
        out.flags.writeable = False
        return out

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def rref(self):
        """Reduced row-echelon form by exact Gauss-Jordan elimination.

        The pivot in each column is the first row (top to bottom) with a
        nonzero entry; no magnitude pivoting is needed with exact
        arithmetic, and this keeps the pivot column set deterministic.

        Returns (rref, rank, pivot_cols).
        """
        m = [list(row) for row in self.data]
        nrows, ncols = self.rows, self.cols
        pivot_cols = []
        r = 0
        for c in range(ncols):
            if r == nrows:
                break
            pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            pv = m[r][c]
            m[r] = [x / pv for x in m[r]]
            for i in range(nrows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [x - f * y for x, y in zip(m[i], m[r])]
            pivot_cols.append(c)
            r += 1
        return RationalMatrix(m), len(pivot_cols), tuple(pivot_cols)

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
