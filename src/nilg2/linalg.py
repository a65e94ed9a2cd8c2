"""Exact dense linear algebra over the scalar field.

Everything here works on lists of lists of :class:`~nilg2.scalars.Scalar`
(rows).  Sizes in this package never exceed a few dozen, so plain Gaussian
elimination with exact arithmetic is entirely adequate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .scalars import ParameterContext, Scalar

Row = List[Scalar]


def _clone(rows: Sequence[Sequence[Scalar]]) -> List[Row]:
    return [list(r) for r in rows]


def _rref_fractions(m: List[List[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    ncols = len(m[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rref(rows: Sequence[Sequence[Scalar]], ctx: ParameterContext) -> Tuple[List[Row], List[int]]:
    """Reduced row echelon form and pivot column list.

    Parameter-free matrices take a plain-Fraction fast path.
    """
    if not rows:
        return [], []
    if all(x.is_rational for row in rows for x in row):
        frac = [[x.as_fraction() for x in row] for row in rows]
        red, pivots = _rref_fractions(frac)
        return [[ctx.scalar(x) for x in row] for row in red], pivots
    m = _clone(rows)
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if not m[i][c].is_zero:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = ctx.one / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][c].is_zero:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank_fractions(rows: Sequence[Sequence[Fraction]]) -> int:
    if not rows:
        return 0
    m = [list(r) for r in rows]
    return len(_rref_fractions(m)[1])


def rank(rows: Sequence[Sequence[Scalar]], ctx: ParameterContext) -> int:
    if rows and all(x.is_rational for row in rows for x in row):
        return rank_fractions([[x.as_fraction() for x in row] for row in rows])
    return len(rref(rows, ctx)[1])


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
