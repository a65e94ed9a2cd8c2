"""The sparse entry points of linalg against the dense ones and the oracle."""

from fractions import Fraction

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
    copies = [dict(row) for row in rows]
    dense = [[row.get(c, pctx.zero) for c in cols] for row in rows]
    red, pivots = linalg.sparse_rref(rows, cols, pctx)
    rank = linalg.sparse_rank(rows, cols)
    kernel = linalg.sparse_kernel(rows, cols, pctx)
    assert rows == copies  # the inputs are not modified
    assert rank == len(pivots) == linalg.rank(dense, pctx)
    dense_red, dense_pivots = linalg.rref(dense, pctx)
    assert pivots == [cols[p] for p in dense_pivots]
    densified = [[row.get(c, pctx.zero) for c in cols] for row in red]
    assert dense_red == densified + [[pctx.zero] * len(cols)] * (len(rows) - rank)
    assert all(x for row in red for x in row.values())
    assert len(kernel) == len(cols) - rank
    for vec in kernel:
        for row in rows:
            assert sum((x * vec[c] for c, x in row.items() if c in vec), pctx.zero) == 0
    if rows:
        assert linalg.kernel(dense, pctx) == [[v.get(c, pctx.zero) for c in cols] for v in kernel]
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
