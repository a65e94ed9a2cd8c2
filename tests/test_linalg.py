"""The sparse entry points of linalg against the oracle, the definition of
the reduced row echelon form and the integer path."""

from fractions import Fraction
from math import lcm

from hypothesis import given, settings, strategies as st
from oracle import _row_basis

from nilg2 import linalg
from nilg2.scalars import ParameterContext

RATIONAL = ParameterContext(())
SYMBOLIC = ParameterContext(("t",))
_RATIONAL_ENTRIES = (0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3))
_SYMBOLIC_ENTRIES = ("0", "0", "0", "1", "-2", "t", "t + 1", "1/t", "t^2 - 1", "2/(t - 1)")


@st.composite
def _sparse_matrices(draw, symbolic):
    """(rows as {column: Scalar} without zeros, column order): a few rows over
    sorted, non-contiguous column keys."""
    pctx = SYMBOLIC if symbolic else RATIONAL
    entries = st.sampled_from(_SYMBOLIC_ENTRIES if symbolic else _RATIONAL_ENTRIES)
    size = 4 if symbolic else 6
    cols = sorted(draw(st.sets(st.integers(0, 63), min_size=1, max_size=size)))
    rows = []
    for _ in range(draw(st.integers(0, size))):
        row = {c: pctx.parse(str(draw(entries))) for c in cols}
        rows.append({c: x for c, x in row.items() if x})
    return pctx, rows, cols


def _check_against_dense(pctx, rows, cols):
    """The sparse results are the reduced row echelon form and its rank, and
    leave the rows alone."""
    copies = [dict(row) for row in rows]
    red, pivots = linalg._eliminate(rows, cols)
    rank = linalg.sparse_rank(rows, cols)
    assert rows == copies  # the inputs are not modified
    assert rank == len(pivots)
    assert pivots == sorted(pivots, key=cols.index)
    for row, pc in zip(red, pivots):
        assert all(x for x in row.values())
        assert row[pc] == 1 and not any(row.get(p) for p in pivots if p != pc)
        assert all(cols.index(c) >= cols.index(pc) for c in row)
    # each row is the combination of the reduced rows read off its pivot entries
    for row in rows:
        rebuilt = {}
        for r, pc in zip(red, pivots):
            for c, x in r.items():
                rebuilt[c] = rebuilt.get(c, pctx.zero) + row.get(pc, pctx.zero) * x
        assert {c: x for c, x in rebuilt.items() if x} == row
    densified = [[row.get(c, pctx.zero) for c in cols] for row in red]
    return densified, pivots


@settings(max_examples=150, deadline=None)
@given(_sparse_matrices(symbolic=False))
def test_sparse_rational_matches_dense_and_oracle(matrix):
    pctx, rows, cols = matrix
    densified, pivots = _check_against_dense(pctx, rows, cols)
    vectors = [[row.get(c, pctx.zero).as_fraction() for c in cols] for row in rows]
    basis, oracle_pivots = _row_basis(vectors)
    assert [[x.as_fraction() for x in row] for row in densified] == basis
    assert pivots == [cols[p] for p in oracle_pivots]


@settings(max_examples=40, deadline=None)
@given(_sparse_matrices(symbolic=True))
def test_sparse_symbolic_matches_dense(matrix):
    _check_against_dense(*matrix)


@settings(max_examples=100, deadline=None)
@given(_sparse_matrices(symbolic=False), st.integers(1, 6))
def test_integer_rows_reduce_fraction_free(matrix, scale):
    """Int rows keep their values in the ints and give the pivots and rank of
    the same rows as Scalars; each reduced row is a nonzero multiple of the
    matching row of the reduced row echelon form, and the inputs are left
    unmodified."""
    pctx, rows, cols = matrix
    ints = []
    for row in rows:
        den = lcm(*(x.as_fraction().denominator for x in row.values()))
        ints.append({c: int(x.as_fraction() * den * scale) for c, x in row.items()})
    copies = [dict(row) for row in ints]
    red, pivots = linalg._eliminate(rows, cols)
    int_red, int_pivots = linalg._eliminate(ints, cols)
    assert ints == copies
    assert int_pivots == pivots and linalg.sparse_rank(ints, cols) == len(pivots)
    assert all(type(x) is int and x for row in int_red for x in row.values())
    for row, int_row, pc in zip(red, int_red, pivots):
        assert {c: Fraction(x, int_row[pc]) for c, x in int_row.items()} == \
            {c: x.as_fraction() for c, x in row.items()}


def test_invert_in_ints_and_over_the_field():
    """invert gives (A, a) with rows A = a I: ints in lowest terms over a
    positive a, or Scalars over 1 for Scalar rows; None when singular."""
    rows = [[2, 1, 0], [0, 3, -1], [4, 0, 6]]
    A, a = linalg.invert(rows)
    assert a > 0 and all(type(x) is int for row in A for x in row)
    product = [[sum(rows[i][k] * A[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    assert product == [[a if i == j else 0 for j in range(3)] for i in range(3)]
    assert (a, A) == (32, [[18, -6, -1], [-4, 12, 2], [-12, 4, 6]])  # det 32, the adjugate
    assert linalg.invert([[-2, 0], [0, -3]]) == ([[-3, 0], [0, -2]], 6)
    assert linalg.invert([[1, 2], [2, 4]]) is None
    t = SYMBOLIC.param("t")
    scalar_rows = [[t, SYMBOLIC.one], [SYMBOLIC.zero, t]]
    inverse, one = linalg.invert(scalar_rows)
    assert one == 1
    assert inverse == [[1 / t, -1 / (t * t)], [SYMBOLIC.zero, 1 / t]]
    assert linalg.invert([[t, t], [t, t]]) is None
