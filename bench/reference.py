"""Independent references for the benchmark's output checks.

Forms here are plain dictionaries ``{sorted index tuple: Fraction}`` and
tables are ``{i: form}``, the format of ``tests/oracle.py``, which is loaded
read-only from the checkout and shares no code with the package.  Only the
conversion of package objects into that format calls the package.
"""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from pathlib import Path

F = Fraction

ORACLE_PATH = Path(__file__).resolve().parent.parent / "tests" / "oracle.py"


def _load_oracle():
    spec = importlib.util.spec_from_file_location("nilg2_bench_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()

# phi = omega ^ dt + psi+ with omega = 12+34+56 and psi+ = 135-146-236-245
PHI = {
    (1, 2, 7): F(1), (3, 4, 7): F(1), (5, 6, 7): F(1),
    (1, 3, 5): F(1), (1, 4, 6): F(-1), (2, 3, 6): F(-1), (2, 4, 5): F(-1),
}


def form_dict(form, binding):
    """A package form at a binding, as an oracle dictionary."""
    out = {}
    for indices, coeff in form.terms():
        value = coeff.evaluate(binding)
        if value:
            out[indices] = value
    return out


def table_dict(algebra, binding):
    """An algebra's d-table at a binding, as an oracle table."""
    table = {}
    for i, f in enumerate(algebra.d_table, start=1):
        converted = form_dict(f, binding)
        if converted:
            table[i] = converted
    return table


def oracle_torsion(table):
    """Characteristic torsion of the product structure, from the oracle."""
    return oracle.characteristic_torsion(table, PHI)


def gauge_rotation(c, s):
    """The structure-preserving rotation of the (e1,e2),(e3,e4) lines; 7x7 rows."""
    rows = [[F(int(i == j)) for j in range(7)] for i in range(7)]
    for a, b in ((0, 2), (1, 3)):
        rows[a][a], rows[a][b] = F(c), F(s)
        rows[b][a], rows[b][b] = -F(s), F(c)
    return rows


def transform(form, rows):
    """Rewrite a form in the coframe f = rows . e, for orthogonal ``rows``."""
    n = len(rows)
    images = [
        {(k + 1,): rows[k][i] for k in range(n) if rows[k][i]} for i in range(n)
    ]
    out = {}
    for key, value in form.items():
        acc = {(): value}
        for i in key:
            acc = oracle.wedge(acc, images[i - 1])
        out = oracle.add(out, acc)
    return out


def transform_table(table, rows):
    """The d-table in the coframe f = rows . e, for orthogonal ``rows``."""
    out = {}
    for i in range(1, len(rows) + 1):
        d_f = {}
        for j, dj in table.items():
            if rows[i - 1][j - 1]:
                d_f = oracle.add(d_f, oracle.scale(dj, rows[i - 1][j - 1]))
        d_f = transform(d_f, rows)
        if d_f:
            out[i] = d_f
    return out


def contraction(table, exponents, direction):
    """Termwise limit of the rescaled coframe t^e_i e^i, or None if it diverges.

    Under f^i = t^e_i e^i a term c e^{ab} of d e^i picks up t^(e_i - e_a - e_b).
    """
    out = {}
    for i, form in table.items():
        kept = {}
        for (a, b), c in form.items():
            power = exponents[i - 1] - exponents[a - 1] - exponents[b - 1]
            if (power > 0) if direction == "to-infinity" else (power < 0):
                return None
            if power == 0:
                kept[(a, b)] = c
        if kept:
            out[i] = kept
    return out

