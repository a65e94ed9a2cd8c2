"""Nilpotent Lie algebras presented by coframe derivatives.

An algebra is given by the 2-forms d e^i (Salamon notation); the bracket is
recovered by the Chevalley-Eilenberg convention d e^i(X, Y) = -e^i([X, Y]).
The differential extends to all grades as the unique degree +1 derivation,
and rank computations over parameterized tables follow a generic-evaluation
policy: ranks are taken at two disjoint prime bindings and must agree.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import linalg
from .exterior import Form, FrameContext, ExteriorError, _bits, _mask
from .scalars import ParameterContext, Scalar, ScalarSyntaxError, _fold_unicode

__all__ = [
    "LieAlgebra",
    "BasisChange",
    "Fingerprint",
    "JacobiError",
    "NilpotencyError",
    "SalamonSyntaxError",
    "parse_salamon",
    "extend_d",
    "check_jacobi",
    "jacobi_certificates",
    "betti",
    "series_dims",
    "fingerprint",
    "change_basis",
    "is_isomorphic_via",
    "NAMED_ALGEBRAS",
    "load_algebra_list",
]


class JacobiError(ValueError):
    def __init__(self, index: int, certificate: Form):
        super().__init__(f"d(d e^{index}) != 0; certificate {certificate}")
        self.index = index
        self.certificate = certificate


class NilpotencyError(ValueError):
    pass


class SalamonSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _d_on_form(d_table: Sequence[Form], a: Form) -> Form:
    ctx = a.ctx
    out = ctx.zero_form()
    for mask, coeff in a.comps.items():
        indices = _bits(mask)
        for j, idx in enumerate(indices):
            di = d_table[idx - 1]
            if di.is_zero:
                continue
            rest_sign, rest_mask = _mask([i for i in indices if i != idx])
            rest = Form(ctx, {rest_mask: ctx.params.one})
            term = di.wedge(rest).scale(coeff)
            if (j % 2 == 1) != (rest_sign < 0):
                term = -term
            out = out + term
    return out


def jacobi_certificates(d_table: Sequence[Form]) -> List[Tuple[int, Form]]:
    """All indices i with d(d e^i) != 0, with the offending 3-forms."""
    bad = []
    for i, di in enumerate(d_table, start=1):
        certificate = _d_on_form(d_table, di)
        if not certificate.is_zero:
            bad.append((i, certificate))
    return bad


class LieAlgebra:
    """A Lie algebra presented by its coframe derivatives.

    Construction verifies d^2 = 0 (raising :class:`JacobiError`) and, unless
    ``require_nilpotent=False``, the existence of the nilpotent filtration
    V_1 c V_2 c ... with d V_{j+1} c Lambda^2 V_j.
    """

    __slots__ = ("ctx", "d_table", "_nilpotent")

    def __init__(self, ctx: FrameContext, d_table: Sequence[Form], require_nilpotent: bool = True):
        d_table = tuple(d_table)
        if len(d_table) != ctx.dim:
            raise ValueError(f"expected {ctx.dim} coframe derivatives, got {len(d_table)}")
        for i, f in enumerate(d_table, start=1):
            if f.ctx != ctx:
                raise ExteriorError("frame context mismatch in d-table")
            if f.grades() not in ((), (2,)):
                raise ExteriorError(f"d e^{i} must be a 2-form")
        bad = jacobi_certificates(d_table)
        if bad:
            raise JacobiError(*bad[0])
        self.ctx = ctx
        self.d_table = d_table
        self._nilpotent = None
        if require_nilpotent and not self.is_nilpotent_presentation():
            raise NilpotencyError("not presented nilpotently (no admissible filtration)")

    def d(self, a: Form) -> Form:
        return _d_on_form(self.d_table, a)

    def is_nilpotent_presentation(self) -> bool:
        if self._nilpotent is None:
            self._nilpotent = self._support_is_acyclic() or self._check_filtration()
        return self._nilpotent

    def _support_is_acyclic(self) -> bool:
        """Cheap certificate: the digraph i -> j (e^j occurs in d e^i) has no cycle.

        A topological order of an acyclic support is itself an admissible
        filtration (Salamon's ordered-basis convention), so this implies
        nilpotency; a self-loop counts as a cycle.  False means only "not
        certified here".
        """
        succ = [set() for _ in self.d_table]
        for i, f in enumerate(self.d_table):
            for mask in f.comps:
                succ[i].update(j - 1 for j in _bits(mask))
        # Kahn's algorithm: repeatedly drop vertices without successors
        remaining = set(range(len(succ)))
        while remaining:
            sinks = {i for i in remaining if not succ[i] & remaining}
            if not sinks:
                return False
            remaining -= sinks
        return True

    def _check_filtration(self) -> bool:
        """V_{j+1} = {x : d x in Lambda^2 V_j} must exhaust Lambda^1."""
        ctx = self.ctx
        pctx = ctx.params
        n = ctx.dim
        v_basis: List[List[Scalar]] = []
        while True:
            forms = [Form(ctx, {1 << i: c for i, c in enumerate(vec) if not c.is_zero})
                     for vec in v_basis]
            span_rows = []
            masks2 = [sum(1 << (i - 1) for i in combo)
                      for combo in itertools.combinations(range(1, n + 1), 2)]
            for f1, f2 in itertools.combinations_with_replacement(forms, 2):
                w = f1.wedge(f2)
                span_rows.append([w.comps.get(m, pctx.zero) for m in masks2])
            # x = sum c_i e^i with d x inside that span: kernel computation
            d_cols = []
            for i in range(1, n + 1):
                d_cols.append([self.d_table[i - 1].comps.get(m, pctx.zero) for m in masks2])
            # {x : dx in Lambda^2 V} is the kernel of x -> dx mod the span
            if span_rows:
                red, pivots = linalg.rref(span_rows, pctx)
                red = [r for r in red if any(not c.is_zero for c in r)]
            else:
                red, pivots = [], []
            def reduce_vec(vec: List[Scalar]) -> List[Scalar]:
                vec = list(vec)
                for r, pc in enumerate(pivots):
                    f = vec[pc]
                    if not f.is_zero:
                        vec = [a - f * b for a, b in zip(vec, red[r])]
                return vec
            residual_cols = [reduce_vec(d_cols[i]) for i in range(n)]
            kernel_rows = []
            for comp in range(len(masks2)):
                row = [residual_cols[i][comp] for i in range(n)]
                if any(not c.is_zero for c in row):
                    kernel_rows.append(row)
            new_v = linalg.kernel(kernel_rows, pctx) if kernel_rows else [
                [pctx.one if i == j else pctx.zero for j in range(n)] for i in range(n)
            ]
            if len(new_v) == n:
                return True
            if len(new_v) <= len(v_basis):
                return False
            v_basis = new_v

    def params(self) -> frozenset:
        used = set()
        for f in self.d_table:
            for c in f.comps.values():
                used |= c.params()
        return frozenset(used)

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.ctx == other.ctx and self.d_table == other.d_table

    def __hash__(self):
        return hash((self.ctx, self.d_table))

    def __repr__(self):
        return f"LieAlgebra({salamon_str(self)})"


def extend_d(g: LieAlgebra, a: Form) -> Form:
    if a.ctx != g.ctx:
        raise ExteriorError("frame context mismatch")
    return g.d(a)


def check_jacobi(g_or_table) -> Tuple[bool, Optional[Form]]:
    """(True, None) if d^2 = 0; else (False, first offending 3-form)."""
    table = g_or_table.d_table if isinstance(g_or_table, LieAlgebra) else g_or_table
    bad = jacobi_certificates(table)
    if bad:
        return False, bad[0][1]
    return True, None


# ---------------------------------------------------------------------------
# Salamon notation
# ---------------------------------------------------------------------------

def _split_signed_terms(text: str):
    """Split on top-level +/- into (sign, chunk) pairs."""
    terms = []
    sign = 1
    depth = 0
    start = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise SalamonSyntaxError("unbalanced ')'", i)
        elif ch in "+-" and depth == 0:
            prev = text[:i].rstrip()
            if prev and prev[-1] not in "+-*/^(":
                terms.append((sign, text[start:i]))
                sign = 1 if ch == "+" else -1
                start = i + 1
            elif not prev:
                sign = sign * (1 if ch == "+" else -1)
                start = i + 1
        i += 1
    if depth != 0:
        raise SalamonSyntaxError("unbalanced '('", len(text))
    terms.append((sign, text[start:]))
    return terms


_INDEX_PAIR = re.compile(r"^(?:e)?(\d\d)$")


def _last_top_level_star(chunk: str):
    depth = 0
    for i in range(len(chunk) - 1, -1, -1):
        ch = chunk[i]
        if ch == ")":
            depth += 1
        elif ch == "(":
            depth -= 1
        elif ch == "*" and depth == 0:
            if _INDEX_PAIR.match(chunk[i + 1 :].strip()):
                return i
            return None
    return None


def parse_salamon(text: str, params: ParameterContext, dim: Optional[int] = None) -> LieAlgebra:
    """Parse comma-separated coframe derivatives, e.g. ``0,0,12,13,23,14``.

    Each entry is 0 or a signed sum of terms ``[scalar*]ij`` with two index
    digits (possibly out of order, e.g. ``42`` for e4^e2).
    """
    raw = _fold_unicode(text).strip()
    entries = [chunk.strip() for chunk in raw.split(",")]
    n = dim if dim is not None else len(entries)
    if len(entries) != n or n not in (6, 7):
        raise SalamonSyntaxError(
            f"expected {dim or '6 or 7'} comma-separated entries, got {len(entries)}", 0
        )
    ctx = FrameContext(n, params)
    table = []
    offset = 0
    for entry_index, entry in enumerate(entries, start=1):
        position = raw.find(entry, offset)
        offset = position + len(entry) if position >= 0 else offset
        if entry == "0":
            table.append(ctx.zero_form())
            continue
        if not entry:
            raise SalamonSyntaxError(f"empty entry {entry_index}", position)
        form = ctx.zero_form()
        for sign, chunk in _split_signed_terms(entry):
            chunk = chunk.strip()
            if not chunk:
                raise SalamonSyntaxError(
                    f"empty term in entry {entry_index}", position
                )
            star = _last_top_level_star(chunk)
            if star is None:
                scalar_text, index_text = None, chunk
            else:
                scalar_text, index_text = chunk[:star], chunk[star + 1 :].strip()
            m = _INDEX_PAIR.match(index_text)
            if not m:
                raise SalamonSyntaxError(
                    f"expected a two-digit index word in entry {entry_index}: {chunk!r}",
                    position,
                )
            i, j = int(m.group(1)[0]), int(m.group(1)[1])
            if i == j:
                raise SalamonSyntaxError(
                    f"repeated index {i} in entry {entry_index}", position
                )
            if not (1 <= i <= n and 1 <= j <= n):
                raise SalamonSyntaxError(
                    f"index out of range in entry {entry_index}", position
                )
            try:
                coeff = params.parse(scalar_text) if scalar_text else params.one
            except ScalarSyntaxError as exc:
                raise SalamonSyntaxError(
                    f"bad scalar in entry {entry_index}: {exc}", position
                ) from None
            if sign < 0:
                coeff = -coeff
            form = form + ctx.basis(i, j).scale(coeff)
        table.append(form)
    return LieAlgebra(ctx, table)


def salamon_str(g: LieAlgebra) -> str:
    """Render the d-table back into Salamon notation."""
    entries = []
    for f in g.d_table:
        if f.is_zero:
            entries.append("0")
            continue
        pieces = []
        ordered = sorted(f.comps.items(), key=lambda mc: _bits(mc[0]))
        for mask, coeff in ordered:
            idx = "".join(str(i) for i in _bits(mask))
            text = str(coeff)
            if text == "1":
                body = idx
            elif text == "-1":
                body = f"-{idx}"
            else:
                if any(op in text for op in (" + ", " - ")) or (
                    text.startswith("-") and pieces
                ):
                    text = f"({text})"
                body = f"{text}*{idx}"
            pieces.append(body)
        out = pieces[0]
        for body in pieces[1:]:
            if body.startswith("-"):
                out += f"-{body[1:]}"
            else:
                out += f"+{body}"
        entries.append(out)
    return ",".join(entries)


# ---------------------------------------------------------------------------
# generic evaluation policy
# ---------------------------------------------------------------------------

_PRIMES_A = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
_PRIMES_B = (31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


class GenericEvaluationError(ArithmeticError):
    pass


def _generic_bindings(names: Sequence[str], seed: int = 0):
    names = sorted(names)
    shift = seed % len(_PRIMES_A)
    a = {nm: Fraction(_PRIMES_A[(i + shift) % len(_PRIMES_A)]) for i, nm in enumerate(names)}
    b = {nm: Fraction(_PRIMES_B[(i + shift) % len(_PRIMES_B)]) for i, nm in enumerate(names)}
    return a, b


def _bound_tables(g: LieAlgebra, bindings: Optional[Mapping[str, Fraction]], seed: int = 0):
    """One or two parameter-free copies of the d-table, per the rank policy."""
    names = g.params()
    if not names:
        return [g.d_table], g.ctx
    ref_a, ref_b = _generic_bindings(sorted(names), seed)
    chosen = [dict(bindings) if bindings else ref_a]
    second = ref_b if (not bindings or any(bindings.get(k) != ref_b[k] for k in names)) else ref_a
    chosen.append(second)
    target = ParameterContext(())
    tables = []
    for bind in chosen:
        try:
            tables.append(tuple(f.evaluate(bind) for f in g.d_table))
        except Exception as exc:
            raise GenericEvaluationError(f"binding failed: {exc}") from None
    return tables, FrameContext(g.ctx.dim, target)


def _table_fractions(d_table: Sequence[Form]):
    """[{mask: Fraction}] when the table is parameter-free, else None."""
    out = []
    for f in d_table:
        comps = {}
        for m, c in f.comps.items():
            if not c.is_rational:
                return None
            comps[m] = c.as_fraction()
        out.append(comps)
    return out


def _merge_sign_int(a: int, b: int) -> int:
    inversions = 0
    bb = b
    while bb:
        low = bb & -bb
        pos = low.bit_length()
        inversions += bin(a >> pos).count("1")
        bb ^= low
    return -1 if inversions % 2 else 1


def _d_monomial_fractions(table, mask: int):
    """d e^I on a parameter-free table, as {mask: Fraction}.

    Leibniz sign for the j-th index (0-based) is (-1)^j, which equals the
    parity of the lower set bits.
    """
    out = {}
    bit, idx = 1, 1
    position = 0
    while bit <= mask:
        if mask & bit:
            di = table[idx - 1]
            if di:
                rest = mask & ~bit
                leibniz = -1 if position % 2 else 1
                for m2, c2 in di.items():
                    if m2 & rest:
                        continue
                    s2 = _merge_sign_int(m2, rest)
                    key = m2 | rest
                    out[key] = out.get(key, 0) + c2 * s2 * leibniz
            position += 1
        bit <<= 1
        idx += 1
    return {m: c for m, c in out.items() if c}


def _rank_d_on_grade(d_table: Sequence[Form], ctx: FrameContext, k: int) -> int:
    pctx = ctx.params
    n = ctx.dim
    source = list(itertools.combinations(range(1, n + 1), k))
    target = list(itertools.combinations(range(1, n + 1), k + 1))
    tpos = {sum(1 << (i - 1) for i in combo): col for col, combo in enumerate(target)}
    frac_table = _table_fractions(d_table)
    if frac_table is not None:
        rows = []
        for combo in source:
            mask = sum(1 << (i - 1) for i in combo)
            da = _d_monomial_fractions(frac_table, mask)
            row = [Fraction(0)] * len(target)
            for m, c in da.items():
                row[tpos[m]] = c
            rows.append(row)
        return linalg.rank_fractions(rows) if rows else 0
    rows = []
    for combo in source:
        sign, mask = _mask(combo)
        da = _d_on_form(d_table, Form(ctx, {mask: pctx.one}))
        row = [pctx.zero] * len(target)
        for m, c in da.comps.items():
            row[tpos[m]] = c
        rows.append(row)
    return linalg.rank(rows, pctx) if rows else 0


def betti(
    g: LieAlgebra,
    k: int,
    bindings: Optional[Mapping[str, Fraction]] = None,
    seed: int = 0,
) -> int:
    """dim ker(d|Lambda^k) - rank(d|Lambda^{k-1}), by exact elimination."""
    if not 0 <= k <= g.ctx.dim:
        raise ValueError(f"degree {k} out of range")
    tables, ctx = _bound_tables(g, bindings, seed)
    values = []
    for table in tables:
        from math import comb
        dim_k = comb(g.ctx.dim, k)
        rank_k = _rank_d_on_grade(table, ctx, k) if k < g.ctx.dim else 0
        rank_km1 = _rank_d_on_grade(table, ctx, k - 1) if k >= 1 else 0
        values.append(dim_k - rank_k - rank_km1)
    if len(set(values)) > 1:
        raise GenericEvaluationError("non-generic evaluation")
    return values[0]


# ---------------------------------------------------------------------------
# brackets and characteristic series
# ---------------------------------------------------------------------------


def _frac_rref(vectors):
    if not vectors:
        return [], []
    m = [list(v) for v in vectors]
    return linalg._rref_fractions(m)


def _frac_span(vectors):
    red, pivots = _frac_rref(vectors)
    return [red[r] for r in range(len(pivots))]


def _frac_kernel(rows, n):
    if not rows:
        return [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
                for i in range(n)]
    red, pivots = _frac_rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def _frac_brackets(table, n):
    """[e_a, e_b] = -sum_i c^i_{ab} e_i on a fraction table."""
    pairs = {}
    for i, comps in enumerate(table, start=1):
        for mask, coeff in comps.items():
            a = (mask & -mask).bit_length()
            b = mask.bit_length()
            vec = pairs.setdefault((a, b), [Fraction(0)] * n)
            vec[i - 1] -= coeff

    def bracket(x, y):
        out = [Fraction(0)] * n
        for (a, b), vec in pairs.items():
            coeff = x[a - 1] * y[b - 1] - x[b - 1] * y[a - 1]
            if coeff:
                for idx, v in enumerate(vec):
                    if v:
                        out[idx] += coeff * v
        return out

    return bracket


def _series_dims_bound(d_table: Sequence[Form], ctx: FrameContext):
    n = ctx.dim
    frac_table = _table_fractions(d_table)
    if frac_table is None:
        raise GenericEvaluationError("series require a parameter-free table")
    bracket = _frac_brackets(frac_table, n)
    unit = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]

    def bracket_span(xs, ys):
        vecs = []
        for x in xs:
            for y in ys:
                w = bracket(x, y)
                if any(w):
                    vecs.append(w)
        return _frac_span(vecs)

    lower = [unit]
    while True:
        nxt = bracket_span(unit, lower[-1])
        lower.append(nxt)
        if len(nxt) == 0:
            break
    derived = [unit]
    while True:
        nxt = bracket_span(derived[-1], derived[-1])
        derived.append(nxt)
        if len(nxt) == 0:
            break

    upper_dims = []
    z_basis = []
    while True:
        red, pivots = _frac_rref(z_basis) if z_basis else ([], [])

        def reduce_vec(vec):
            vec = list(vec)
            for r, pc in enumerate(pivots):
                f = vec[pc]
                if f:
                    vec = [a - f * b for a, b in zip(vec, red[r])]
            return vec

        rows = []
        for j in range(n):
            imgs = [reduce_vec(bracket(unit[i], unit[j])) for i in range(n)]
            for comp in range(n):
                row = [imgs[i][comp] for i in range(n)]
                if any(row):
                    rows.append(row)
        new_z = _frac_kernel(rows, n) if rows else unit
        dim = len(new_z)
        if upper_dims and dim == upper_dims[-1]:
            break
        upper_dims.append(dim)
        z_basis = new_z
        if dim == n:
            break

    return (
        tuple(len(level) for level in lower),
        tuple(len(level) for level in derived),
        tuple(upper_dims),
    )


def series_dims(
    g: LieAlgebra,
    bindings: Optional[Mapping[str, Fraction]] = None,
    seed: int = 0,
):
    """(lower central, derived, upper central) dimension sequences."""
    tables, ctx = _bound_tables(g, bindings, seed)
    results = [_series_dims_bound(t, ctx) for t in tables]
    if len(set(results)) > 1:
        raise GenericEvaluationError("non-generic evaluation")
    return results[0]


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fingerprint:
    betti: Tuple[int, ...]
    lower_central: Tuple[int, ...]
    derived: Tuple[int, ...]
    upper_central: Tuple[int, ...]
    exact_two_forms_decomposable: bool
    wedge_data: Tuple[int, int, int]
    """(rank of d on 1-forms, dim span{x^y : x,y exact}, dim of the wedge radical)."""


def _wedge2_fractions(x, y):
    out = {}
    for ma, ca in x.items():
        for mb, cb in y.items():
            if ma & mb:
                continue
            s = _merge_sign_int(ma, mb)
            key = ma | mb
            out[key] = out.get(key, 0) + ca * cb * s
    return {m: c for m, c in out.items() if c}


def _exact_two_form_data(d_table: Sequence[Form], ctx: FrameContext):
    n = ctx.dim
    frac_table = _table_fractions(d_table)
    if frac_table is None:
        raise GenericEvaluationError("wedge data requires a parameter-free table")
    masks2 = [sum(1 << (i - 1) for i in c) for c in itertools.combinations(range(1, n + 1), 2)]
    pos2 = {m: i for i, m in enumerate(masks2)}
    rows = []
    for comps in frac_table:
        if comps:
            row = [Fraction(0)] * len(masks2)
            for m, c in comps.items():
                row[pos2[m]] = c
            rows.append(row)
    basis_rows = _frac_span(rows)
    basis = [
        {masks2[i]: row[i] for i in range(len(masks2)) if row[i]}
        for row in basis_rows
    ]
    masks4 = [sum(1 << (i - 1) for i in c) for c in itertools.combinations(range(1, n + 1), 4)]
    pos4 = {m: i for i, m in enumerate(masks4)}
    wedge_rows = []
    decomposable = True
    for i, x in enumerate(basis):
        for j in range(i, len(basis)):
            w = _wedge2_fractions(x, basis[j])
            if w:
                decomposable = False
            row = [Fraction(0)] * len(masks4)
            for m, c in w.items():
                row[pos4[m]] = c
            wedge_rows.append(row)
    wedge_span = linalg.rank_fractions(wedge_rows) if wedge_rows else 0
    radical_rows = []
    for y in basis:
        products = [_wedge2_fractions(x, y) for x in basis]
        for m4 in masks4:
            row = [p.get(m4, Fraction(0)) for p in products]
            if any(row):
                radical_rows.append(row)
    if basis:
        radical_dim = len(_frac_kernel(radical_rows, len(basis)))
    else:
        radical_dim = 0
    return len(basis), wedge_span, radical_dim, decomposable


def fingerprint(
    g: LieAlgebra,
    bindings: Optional[Mapping[str, Fraction]] = None,
    seed: int = 0,
) -> Fingerprint:
    tables, ctx = _bound_tables(g, bindings, seed)
    results = []
    from math import comb
    for table in tables:
        ranks = {k: _rank_d_on_grade(table, ctx, k) for k in range(0, ctx.dim + 1)}
        b = tuple(
            comb(ctx.dim, k) - ranks[k] - ranks[k - 1]
            for k in range(1, ctx.dim + 1)
        )
        series = _series_dims_bound(table, ctx)
        rank_d, wedge_span, radical, decomposable = _exact_two_form_data(table, ctx)
        results.append(
            Fingerprint(
                betti=b,
                lower_central=series[0],
                derived=series[1],
                upper_central=series[2],
                exact_two_forms_decomposable=decomposable,
                wedge_data=(rank_d, wedge_span, radical),
            )
        )
    if len(set(results)) > 1:
        raise GenericEvaluationError("non-generic evaluation")
    return results[0]


# ---------------------------------------------------------------------------
# basis changes
# ---------------------------------------------------------------------------


class BasisChange:
    """An invertible coframe substitution f = B e (rows express the new coframe)."""

    __slots__ = ("params", "rows", "_inverse")

    def __init__(self, params: ParameterContext, rows: Sequence[Sequence]):
        n = len(rows)
        self.params = params
        self.rows = tuple(
            tuple(params.scalar(v) for v in row) for row in rows
        )
        for row in self.rows:
            if len(row) != n:
                raise ValueError("basis change matrix must be square")
        self._inverse = None

    @classmethod
    def identity(cls, params: ParameterContext, n: int) -> "BasisChange":
        return cls(params, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, params: ParameterContext, entries: Sequence) -> "BasisChange":
        n = len(entries)
        return cls(
            params,
            [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)],
        )

    @property
    def dim(self) -> int:
        return len(self.rows)

    def inverse_rows(self):
        if self._inverse is None:
            inv = linalg.invert([list(r) for r in self.rows], self.params)
            if inv is None:
                raise ValueError("singular basis change")
            self._inverse = tuple(tuple(r) for r in inv)
        return self._inverse

    def compose(self, first: "BasisChange") -> "BasisChange":
        """The change applying ``first`` then ``self`` (matrix product self @ first)."""
        n = self.dim
        rows = [
            [
                sum((self.rows[i][k] * first.rows[k][j] for k in range(n)),
                    self.params.zero)
                for j in range(n)
            ]
            for i in range(n)
        ]
        return BasisChange(self.params, rows)

    def is_orthogonal(self) -> bool:
        n = self.dim
        for i in range(n):
            for j in range(i, n):
                dot = sum(
                    (self.rows[i][k] * self.rows[j][k] for k in range(n)),
                    self.params.zero,
                )
                expected = self.params.one if i == j else self.params.zero
                if dot != expected:
                    return False
        return True

    def transform(self, a: Form, target_ctx: Optional[FrameContext] = None) -> Form:
        """Rewrite a form given in the old coframe in the new coframe."""
        ctx = target_ctx or a.ctx
        inv = self.inverse_rows()
        return substitute_coframe(a, inv, ctx)

    def pull_standard(self, a: Form, source_ctx: Optional[FrameContext] = None) -> Form:
        """Express a form written in the *new* coframe in the old one (f^i -> rows)."""
        ctx = source_ctx or a.ctx
        return substitute_coframe(a, self.rows, ctx)

    def __repr__(self):
        body = "; ".join(
            " ".join(str(v) for v in row) for row in self.rows
        )
        return f"BasisChange([{body}])"


def substitute_coframe(a: Form, matrix_rows, ctx: FrameContext) -> Form:
    """Substitute e^i -> sum_j matrix_rows[i][j] f^j throughout the form."""
    pctx = ctx.params
    out: Dict[int, Scalar] = {}
    n = ctx.dim
    for mask, coeff in a.comps.items():
        words = [(0, coeff)]
        for idx in _bits(mask):
            row = matrix_rows[idx - 1]
            new_words = []
            for wmask, wcoeff in words:
                for j in range(n):
                    c = row[j]
                    if c.is_zero:
                        continue
                    bit = 1 << j
                    if wmask & bit:
                        continue
                    swaps = bin(wmask >> (j + 1)).count("1")
                    term = wcoeff * c
                    if swaps % 2:
                        term = -term
                    new_words.append((wmask | bit, term))
            words = new_words
        for wmask, wcoeff in words:
            prev = out.get(wmask)
            out[wmask] = wcoeff if prev is None else prev + wcoeff
    return Form(ctx, out)


def change_basis(g: LieAlgebra, B: BasisChange, require_nilpotent: bool = False) -> LieAlgebra:
    """The algebra in the coframe f = B e; Jacobi is re-verified on build."""
    if B.dim != g.ctx.dim:
        raise ValueError("dimension mismatch")
    inv = B.inverse_rows()  # raises on singular input
    new_table = []
    for i in range(g.ctx.dim):
        df = g.ctx.zero_form()
        for j in range(g.ctx.dim):
            c = B.rows[i][j]
            if not c.is_zero:
                df = df + g.d_table[j].scale(c)
        new_table.append(substitute_coframe(df, inv, g.ctx))
    return LieAlgebra(g.ctx, new_table, require_nilpotent=require_nilpotent)


def is_isomorphic_via(
    g: LieAlgebra,
    B: BasisChange,
    target: LieAlgebra,
    bindings: Optional[Mapping[str, Fraction]] = None,
) -> bool:
    """True iff change_basis(g, B) has exactly the target d-table."""
    if g.ctx.dim != target.ctx.dim:
        raise ValueError("dimension mismatch")
    moved = change_basis(g, B)
    if bindings is None:
        return moved.d_table == target.d_table
    lhs = tuple(f.evaluate(bindings) for f in moved.d_table)
    rhs = tuple(f.evaluate(bindings) for f in target.d_table)
    return lhs == rhs


# ---------------------------------------------------------------------------
# named algebras
# ---------------------------------------------------------------------------

NAMED_ALGEBRAS: Dict[str, str] = {
    # the six classified entries
    "entry_14": "0,0,12,13,23,14",
    "entry_14p25": "0,0,12,13,23,14+25",
    "entry_14m25": "0,0,12,13,23,14-25",
    "entry_14p35": "0,0,0,12,23,14+35",
    "entry_14m35": "0,0,0,12,23,14-35",
    "entry_121323": "0,0,0,12,13,23",
    # auxiliary examples
    "iwasawa": "0,0,0,0,13+42,14+23",
    "torus": "0,0,0,0,0,0",
    "entry_0000_1213": "0,0,0,0,12,13",
}


def load_algebra_list(path, params: ParameterContext) -> Dict[str, LieAlgebra]:
    """Load ``name : salamon`` lines; '#' starts a comment."""
    out: Dict[str, LieAlgebra] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if ":" not in line:
                raise SalamonSyntaxError(f"line {lineno}: expected 'name : algebra'", 0)
            name, body = line.split(":", 1)
            out[name.strip()] = parse_salamon(body.strip(), params)
    return out
