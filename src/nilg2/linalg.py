"""Exact dense linear algebra over the scalar field.

Everything here works on lists of lists of :class:`~nilg2.scalars.Scalar`
(rows).  Sizes in this package never exceed a few dozen, so plain Gaussian
elimination with exact arithmetic is entirely adequate.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .scalars import ParameterContext, Scalar

Row = List[Scalar]


def _eliminate(rows: Sequence[Sequence[Scalar]]) -> Tuple[list, List[int], bool]:
    """The elimination loop: (reduced rows, pivot columns, demoted).

    Parameter-free matrices are reduced as plain Fractions (``demoted``),
    which the same loop handles; the rows are then left as Fractions.
    """
    demoted = all(x.is_rational for row in rows for x in row)
    if demoted:
        m = [[x.as_fraction() for x in row] for row in rows]
    else:
        m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        # rows are sparse: zero entries are skipped, not multiplied
        row = m[r] = [x * inv if x else x for x in m[r]]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                m[i] = [a - f * b if b else a for a, b in zip(m[i], row)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots, demoted


def rref(rows: Sequence[Sequence[Scalar]], ctx: ParameterContext) -> Tuple[List[Row], List[int]]:
    """Reduced row echelon form and pivot column list.

    Parameter-free matrices are reduced as plain Fractions and returned as
    Scalars again.
    """
    m, pivots, demoted = _eliminate(rows)
    if demoted:
        m = [[Scalar(ctx, x) for x in row] for row in m]
    return m, pivots


def rank(rows: Sequence[Sequence[Scalar]], ctx: ParameterContext) -> int:
    """Number of pivots; the reduced rows are not copied back to Scalars."""
    return len(_eliminate(rows)[1])


def kernel(rows: Sequence[Sequence[Scalar]], ctx: ParameterContext) -> List[Row]:
    """Basis of the right kernel of the matrix."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows, ctx)
    free = [c for c in range(ncols) if c not in pivots]
    basis: List[Row] = []
    for fc in free:
        vec = [ctx.zero] * ncols
        vec[fc] = ctx.one
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def solve(
    rows: Sequence[Sequence[Scalar]],
    rhs: Sequence[Scalar],
    ctx: ParameterContext,
) -> Optional[Row]:
    """One exact solution of ``rows @ x = rhs``, or None if inconsistent.

    Free variables are set to zero.
    """
    if not rows:
        return [] if all(b.is_zero for b in rhs) else None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, ctx)
    for r in range(len(red)):
        if all(red[r][c].is_zero for c in range(ncols)) and not red[r][ncols].is_zero:
            return None
    x = [ctx.zero] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = red[r][ncols]
    return x


def invert(rows: Sequence[Sequence[Scalar]], ctx: ParameterContext) -> Optional[List[Row]]:
    """Exact inverse of a square matrix, or None if singular."""
    n = len(rows)
    aug = [list(r) + [ctx.one if i == j else ctx.zero for j in range(n)]
           for i, r in enumerate(rows)]
    red, pivots = rref(aug, ctx)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]
