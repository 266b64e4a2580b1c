from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartpatch.constraints import LAMBDA_REFERENCE
from smartpatch.linalg import RationalMatrix

from helpers import FractionMatrix, nullspace


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


# ---------------------------------------------------------------------------
# RationalMatrix against the Fraction-entry oracle, entry for entry

rationals = st.builds(
    Fraction,
    st.integers(-30, 30) | st.just(0),
    st.integers(1, 12),
)


@st.composite
def rational_rows(draw, rows=None, cols=None):
    """Entry lists with zero rows, repeated and combined rows (singular squares)."""
    rows = rows or draw(st.integers(1, 6))
    cols = cols or draw(st.integers(1, 8))
    out = [draw(st.lists(rationals, min_size=cols, max_size=cols)) for _ in range(rows)]
    for r in range(rows):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "combine"]))
        if kind == "zero":
            out[r] = [Fraction(0)] * cols
        elif kind == "combine" and r >= 1:
            a, b = draw(rationals), draw(rationals)
            i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
            out[r] = [a * x + b * y for x, y in zip(out[i], out[j])]
    return out


def both(rows):
    return RationalMatrix(rows), FractionMatrix(rows)


def same(m: RationalMatrix, oracle: FractionMatrix) -> bool:
    return (m.rows, m.cols) == (oracle.rows, oracle.cols) and m.data == oracle.data


@given(rational_rows())
@settings(max_examples=150, deadline=None)
def test_reading_and_unary_operations_match_the_oracle(rows):
    m, o = both(rows)
    assert same(m, o)
    assert all(m.row(i) == o.row(i) for i in range(m.rows))
    assert all(m[i, j] == o[i, j] for i in range(m.rows) for j in range(m.cols))
    assert same(-m, -o) and same(m.transpose(), o.transpose())
    assert m.is_zero() == o.is_zero()
    assert m.to_float().tobytes() == o.to_float().tobytes()
    assert not m.to_float().flags.writeable
    cols = list(range(m.cols))[::-2]
    assert same(m.take_cols(cols), o.take_cols(cols))
    assert same(m.take_rows(range(m.rows - 1, -1, -1)), o.take_rows(range(o.rows - 1, -1, -1)))


@given(rational_rows())
@settings(max_examples=150, deadline=None)
def test_rref_matches_the_oracle(rows):
    red, rank, pivots = RationalMatrix(rows).rref()
    red_o, rank_o, pivots_o = FractionMatrix(rows).rref()
    assert same(red, red_o) and rank == rank_o and pivots == pivots_o


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_binary_operations_match_the_oracle(data):
    rows = data.draw(rational_rows())
    m, o = both(rows)
    other_rows = data.draw(rational_rows(rows=m.rows, cols=m.cols))
    n, p = both(other_rows)
    assert same(m + n, o + p)
    assert same(m.hstack(n), o.hstack(p))
    right = data.draw(rational_rows(rows=m.cols))
    r, q = both(right)
    assert same(m @ r, o @ q)


@given(st.integers(1, 6).flatmap(lambda n: rational_rows(rows=n, cols=n)))
@settings(max_examples=150, deadline=None)
def test_inverse_matches_the_oracle(rows):
    m, o = both(rows)
    try:
        expect = o.inverse()
    except ValueError:
        with pytest.raises(ValueError):
            m.inverse()
    else:
        inv = m.inverse()
        assert same(inv, expect)
        assert m @ inv == RationalMatrix.identity(m.rows)


@given(rational_rows())
@settings(max_examples=100, deadline=None)
def test_equal_values_give_equal_matrices_and_hashes(rows):
    m = RationalMatrix(rows)
    half = RationalMatrix([[Fraction(int(i == j), 2) for j in range(m.cols)] for i in range(m.cols)])
    halved = (m + m) @ half
    # through a larger common denominator and back
    roundtrip = m.hstack(RationalMatrix([["1/11"]] * m.rows)).take_cols(range(m.cols))
    for same_value in (halved, roundtrip, m + RationalMatrix.zeros(m.rows, m.cols)):
        assert same_value == m and hash(same_value) == hash(m)


def test_unreduced_entries_compare_and_hash_equal():
    a = RationalMatrix([["2/4", Fraction(6, 3), 4], [0, "-3/6", 0.25]])
    b = RationalMatrix([[Fraction(1, 2), 2, "8/2"], ["0/5", -0.5, "1/4"]])
    assert a == b and hash(a) == hash(b)
    assert a.denominator == 4 and a.numerators == ((2, 8, 16), (0, -2, 1))
    assert RationalMatrix([["3/6"]]) != RationalMatrix([["1/3"]])


def test_to_float_rounds_large_numerators_as_fraction_does():
    entries = [[Fraction(2**60 + 1, 3), Fraction(-(3**40), 2**70 + 7)],
               [Fraction(3, 10**320), Fraction(10**300 + 1, 7)]]
    m, o = both(entries)
    assert m.to_float().tobytes() == o.to_float().tobytes()


def test_zero_matrices_share_one_representation():
    z = RationalMatrix([["0/7", 0.0], [0, Fraction(0, 3)]])
    assert z == RationalMatrix.zeros(2, 2) and z.denominator == 1
    assert (z @ RationalMatrix([["1/3"], ["2/9"]])).denominator == 1
