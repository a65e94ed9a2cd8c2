"""Exact sparse linear algebra over the scalar field.

The ``sparse_*`` functions take rows as mappings ``{column: Scalar}`` without
zero entries plus a column order (a Form's ``comps`` is one, with basis masks
as columns); ``rref``, ``rank``, ``kernel``, ``solve`` and ``invert`` take dense
rows (lists of Scalars).  All run the one Gauss-Jordan loop, with exact arithmetic.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

from .scalars import ParameterContext, Scalar

Row = List[Scalar]


def _eliminate(rows: Sequence[Mapping], cols: Sequence, full: bool = True):
    """The elimination loop: (pivot rows, pivot columns, demoted).

    A pivot row is cleared from the later rows and, with ``full`` (the reduced
    row echelon form; the rank needs none of it), from the earlier pivot rows.
    Parameter-free matrices are reduced, and left, as plain Fractions (``demoted``).
    """
    demoted = all(x.is_rational for row in rows for x in row.values())
    if demoted:
        pending = [{c: x.as_fraction() for c, x in row.items()} for row in rows if row]
    else:
        pending = [dict(row) for row in rows if row]
    done: List[dict] = []
    pivots: list = []
    for c in cols:
        pivot = next((i for i, row in enumerate(pending) if c in row), None)
        if pivot is None:
            continue
        row = pending.pop(pivot)
        if row[c] != 1:
            inv = 1 / row[c]
            row = {k: x * inv for k, x in row.items()}
        for other in pending + done if full else pending:
            f = other.get(c)
            if f is None:
                continue
            for k, b in row.items():
                a = other.get(k)
                a = -(f * b) if a is None else a - f * b
                if a:
                    other[k] = a
                else:
                    del other[k]
        done.append(row)
        pivots.append(c)
    return done, pivots, demoted


def sparse_rref(rows: Sequence[Mapping], cols: Sequence, ctx: ParameterContext):
    """(nonzero rows of the reduced row echelon form, their pivot columns)."""
    red, pivots, demoted = _eliminate(rows, cols)
    if demoted:
        red = [{c: Scalar(ctx, x) for c, x in row.items()} for row in red]
    return red, pivots


def sparse_rank(rows: Sequence[Mapping], cols: Sequence) -> int:
    """Number of pivots, read off the echelon form."""
    return len(_eliminate(rows, cols, full=False)[1])


def sparse_kernel(rows: Sequence[Mapping], cols: Sequence, ctx: ParameterContext):
    """Basis of the right kernel: one vector per free column, in column order."""
    red, pivots = sparse_rref(rows, cols, ctx)
    return [
        {fc: ctx.one, **{pc: -row[fc] for row, pc in zip(red, pivots) if fc in row}}
        for fc in cols if fc not in pivots
    ]


def _sparse(rows: Sequence[Sequence[Scalar]]) -> List[dict]:
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def _dense(rows: Sequence[Mapping], ncols: int, ctx: ParameterContext) -> List[Row]:
    return [[row.get(c, ctx.zero) for c in range(ncols)] for row in rows]


def rref(rows: Sequence[Sequence[Scalar]], ctx: ParameterContext) -> Tuple[List[Row], List[int]]:
    """Reduced row echelon form (zero rows last) and pivot column list."""
    if not rows:
        return [], []
    red, pivots = sparse_rref(_sparse(rows), range(len(rows[0])), ctx)
    return _dense(red + [{}] * (len(rows) - len(red)), len(rows[0]), ctx), pivots


def rank(rows: Sequence[Sequence[Scalar]], ctx: ParameterContext) -> int:
    """Number of pivots."""
    return sparse_rank(_sparse(rows), range(len(rows[0]))) if rows else 0


def kernel(rows: Sequence[Sequence[Scalar]], ctx: ParameterContext) -> List[Row]:
    """Basis of the right kernel of the matrix."""
    if not rows:
        return []
    n = len(rows[0])
    return _dense(sparse_kernel(_sparse(rows), range(n), ctx), n, ctx)


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
    n = len(rows[0])
    aug = _sparse([list(r) + [b] for r, b in zip(rows, rhs)])
    red, pivots = sparse_rref(aug, range(n + 1), ctx)
    if n in pivots:
        return None
    return _dense([{pc: row[n] for row, pc in zip(red, pivots) if n in row}], n, ctx)[0]


def invert(rows: Sequence[Sequence[Scalar]], ctx: ParameterContext) -> Optional[List[Row]]:
    """Exact inverse of a square matrix, or None if singular."""
    n = len(rows)
    aug = [{**row, n + i: ctx.one} for i, row in enumerate(_sparse(rows))]
    red, pivots = sparse_rref(aug, range(2 * n), ctx)
    if pivots[:n] != list(range(n)):
        return None
    return [[row.get(n + c, ctx.zero) for c in range(n)] for row in red]
