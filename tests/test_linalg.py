from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartpatch.constraints import LAMBDA_REFERENCE
from smartpatch.linalg import RationalMatrix

from helpers import nullspace


def test_rref_zero_matrix():
    _, rank, pivots = RationalMatrix.zeros(6, 16).rref()
    assert rank == 0 and pivots == ()


def test_rref_identity():
    red, rank, pivots = RationalMatrix.identity(4).rref()
    assert rank == 4
    assert pivots == (0, 1, 2, 3)
    assert red == RationalMatrix.identity(4)


def test_rref_lambda_rank_is_five():
    _, rank, _ = RationalMatrix(LAMBDA_REFERENCE).rref()
    assert rank == 5


def test_inverse_of_singular_raises():
    singular = RationalMatrix([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        singular.inverse()


def test_nullspace_vectors_annihilate():
    m = RationalMatrix(LAMBDA_REFERENCE)
    basis = nullspace(m)
    assert len(basis) == 16 - 5
    for v in basis:
        col = RationalMatrix.column(v)
        assert (m @ col).is_zero()


small_ints = st.integers(min_value=-9, max_value=9)


@st.composite
def int_matrices(draw, max_rows=5, max_cols=6):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    entries = draw(
        st.lists(st.lists(small_ints, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
    return RationalMatrix(entries)


@given(int_matrices())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(m):
    red, rank, pivots = m.rref()
    red2, rank2, pivots2 = red.rref()
    assert red2 == red and rank2 == rank and pivots2 == pivots


@given(int_matrices())
@settings(max_examples=60, deadline=None)
def test_rref_rank_bounds_and_pivots_increase(m):
    red, rank, pivots = m.rref()
    assert 0 <= rank <= min(m.rows, m.cols)
    assert list(pivots) == sorted(pivots)
    for r, p in enumerate(pivots):
        assert red[r, p] == 1
        assert all(red[i, p] == 0 for i in range(red.rows) if i != r)


@given(int_matrices())
@settings(max_examples=60, deadline=None)
def test_rref_preserves_row_space(m):
    # In reduced form the pivot columns carry an identity block, so the
    # combination reproducing an original row is read off directly.
    red, rank, pivots = m.rref()
    for row in m.data:
        coeffs = [row[p] for p in pivots]
        recombined = [
            sum(c * red[r, j] for r, c in enumerate(coeffs)) for j in range(m.cols)
        ]
        assert recombined == list(row)


def test_fraction_entries_stay_exact():
    m = RationalMatrix([[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 6), Fraction(5, 6)]])
    inv = m.inverse()
    assert (m @ inv) == RationalMatrix.identity(2)
