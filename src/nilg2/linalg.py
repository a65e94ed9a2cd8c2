"""Exact sparse linear algebra.

Rows are mappings ``{column: value}`` without zero entries, given with a
column order (a Form's ``comps`` is one, with basis masks as columns); all
functions run the one elimination loop on copies of the rows.  Int rows
reduce fraction-free: a pivot p clears the entry f of another row by
row := (p*row - f*pivot_row)/gcd(p, f), and the row is then divided by its
content (Bareiss, Math. Comp. 22, 1968, without his exact division), so
every value stays an int; ``liealg``'s invariants run this way.  Scalar
rows are pivoted over the field, so their full elimination is the reduced
row echelon form.  ``invert`` takes dense rows, of ints or of Scalars, and
returns the inverse as an int matrix over one positive int, or as Scalars
over 1.  ``liealg`` is the one client: its invariants and ``BasisChange``,
whose inverse ``invert`` computes from the rows scaled to ints.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import List, Mapping, Sequence


def _eliminate(rows: Sequence[Mapping], cols: Sequence, full: bool = True):
    """(pivot rows, pivot columns) of the echelon form of copies of ``rows``,
    whose values are all ints or all Scalars.

    A pivot row is cleared from the later rows and, with ``full`` (the
    reduced row echelon form up to the scale of each int row; a rank or a
    basis of the row space needs none of it), from the earlier pivot rows.
    """
    pending = [dict(row) for row in rows if row]
    done: List[dict] = []
    pivots: list = []
    for c in cols:
        for pivot, row in enumerate(pending):
            if c in row:
                break
        else:
            continue
        del pending[pivot]
        p = row[c]
        integer = type(p) is int
        if not integer and p != 1:
            inv = 1 / p
            row = {k: x * inv for k, x in row.items()}
        for other in pending + done if full else pending:
            f = other.get(c)
            if f is None:
                continue
            if integer:
                g = gcd(p, f) if p > 0 else -gcd(p, f)
                s, f = p // g, f // g
                if s != 1:
                    for k in other:
                        other[k] *= s
            for k, b in row.items():
                a = other.get(k)
                a = -(f * b) if a is None else a - f * b
                if a:
                    other[k] = a
                else:
                    del other[k]
            if integer and other:
                g = gcd(*other.values())
                if g > 1:
                    for k in other:
                        other[k] //= g
        done.append(row)
        pivots.append(c)
    return done, pivots


def sparse_rank(rows: Sequence[Mapping], cols: Sequence) -> int:
    """Number of pivots, read off the echelon form; rows of ints or Scalars."""
    return len(_eliminate(rows, cols, full=False)[1])


def invert(rows: Sequence[Sequence]):
    """(A, a) with A/a the inverse of the square matrix ``rows``, or None if
    it is singular.  The rows are dense, all ints or all Scalars.

    [rows | I] is reduced by ``_eliminate``.  Int rows end fraction-free as
    [D | M] with D diagonal, so A = a D^-1 M over a, the lcm of the pivots,
    in lowest terms with a > 0.  Scalar rows are pivoted over the field: A
    is the inverse itself, over a = 1.
    """
    n = len(rows)
    one = 1 if type(rows[0][0]) is int else rows[0][0].ctx.one
    aug = [{**{c: x for c, x in enumerate(row) if x}, n + i: one}
           for i, row in enumerate(rows)]
    red, pivots = _eliminate(aug, range(2 * n))
    if pivots[:n] != list(range(n)):
        return None
    if type(one) is not int:
        return [[row.get(n + c, one.ctx.zero) for c in range(n)] for row in red], 1
    a = lcm(*(row[i] for i, row in enumerate(red)))
    A = [[row.get(n + c, 0) * (a // row[i]) for c in range(n)] for i, row in enumerate(red)]
    g = gcd(a, *(x for row in A for x in row))
    if g > 1:
        a //= g
        A = [[x // g for x in row] for row in A]
    return A, a
