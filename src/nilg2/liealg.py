"""Nilpotent Lie algebras presented by coframe derivatives.

An algebra is given by the 2-forms d e^i (Salamon notation); the bracket is
recovered by the Chevalley-Eilenberg convention d e^i(X, Y) = -e^i([X, Y]).
The differential extends to all grades as the unique degree +1 derivation.
``parse_salamon`` reads a table as comma-separated 2-form literals of
``exterior.parse_form``, and ``salamon_str`` prints each entry's
``form_str`` without spaces, so tables and forms share one term grammar.

A polynomial table is held in Python ints as the numerators of L*d, L the
lcm of its denominators: {mask: {exponent: int}} per entry, a parameter-free
table having every numerator at exponent 0 alone, and then also its int
table {mask: int} over L.  The numerators are the data: an algebra that
``change_basis``, ``bind`` or ``g2.build_product`` builds holds them alone
and builds its Scalar ``d_table`` only when something reads it.  The
Jacobi check, and ``d`` of a form with polynomial coefficients, sum the
Leibniz rule on them (a parameter-free table's Jacobi check on its int
table); a basis change by a parameter-free matrix slices them by exponent,
L*d = sum_e t^e D_e, for its one pull-back.  ``LieAlgebra._integers_at``
is the one place a table is evaluated, as ints over one denominator: a
parameter-free table's kept int table, a polynomial table's numerators by
``scalars._evaluate``, a table with a rational-function entry, which has
no numerators, entry by entry by ``Scalar.evaluate`` at the point folded
once.  ``bind`` hands the result on as numerators; a binding that leaves a
parameter unbound or makes a denominator vanish raises ``ScalarError``.
The invariants (``betti_numbers``, ``fingerprint``) and the nilpotency
check run fraction-free elimination on it.  No invariant changes: d enters
linearly, and a rank or a span is that of any nonzero multiple.  The
fingerprint section lists which elimination gives which field.  An
invariant of a table with unbound parameters is evaluated at two points
with disjoint prime coordinates, moved by ``seed``; the two values must
agree, else :class:`GenericEvaluationError` is raised.  That is a sampled
generic value, not an identity in the parameters.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import linalg
from .exterior import (
    ExteriorError,
    Form,
    FrameContext,
    _as_numerators,
    _basis_masks,
    _bits,
    _letters,
    _linear_combination,
    _merge_sign,
    _pull_back,
    _wedge,
    form_str,
    parse_form,
)
from .scalars import (ParameterContext, Scalar, ScalarError, ScalarSyntaxError, _evaluate,
                      _point, _reduced)

__all__ = [
    "LieAlgebra",
    "BasisChange",
    "Fingerprint",
    "JacobiError",
    "NilpotencyError",
    "SalamonSyntaxError",
    "parse_salamon",
    "jacobi_certificates",
    "betti_numbers",
    "fingerprint",
    "change_basis",
    "is_isomorphic_via",
    "NAMED_ALGEBRAS",
]


class JacobiError(ValueError):
    def __init__(self, index: int, certificate: Form):
        super().__init__(f"d(d e^{index}) != 0; certificate {certificate}")
        self.index = index
        self.certificate = certificate


class NilpotencyError(ValueError):
    pass


class SalamonSyntaxError(ScalarSyntaxError):
    """Malformed Salamon table; carries the offending position."""


def _leibniz(table: Sequence[Mapping], comps: Mapping) -> dict:
    """Leibniz rule: d e^I = sum_j (-1)^j d e^{i_j} ^ e^{I - i_j} (j from 0).

    ``table`` holds the components of the d e^i and ``comps`` those of the
    form, with Scalar or int values.  A coefficient equal to 1 multiplies
    nothing: d on a basis word takes the table entries with their signs.  A
    sum that cancels is kept as a zero."""
    out: dict = {}
    for mask, coeff in comps.items():
        unit = coeff == 1
        for i, rest, odd in _letters(mask):
            for m2, c2 in table[i].items():
                if m2 & rest:
                    continue
                m = m2 | rest
                term = c2 if unit else c2 * coeff
                prev = out.get(m)
                if odd == (_merge_sign(m2, rest) < 0):
                    out[m] = term if prev is None else prev + term
                else:
                    out[m] = -term if prev is None else prev - term
    return out


def _leibniz_numerators(table: Sequence[Mapping], comps: Mapping, zero: tuple) -> dict:
    """``_leibniz`` on numerators {exponent: int}, ``zero`` the zero exponent
    tuple: sums are taken in place, and a constant numerator, {zero: c},
    scales the table's numerators without adding exponents.  A sum that
    cancels is kept as a zero."""
    out: dict = {}
    sums: Dict[tuple, tuple] = {}  # exponent sums e + f, by (e, f)
    for mask, coeff in comps.items():
        const = coeff.get(zero) if len(coeff) == 1 else None
        for i, rest, odd in _letters(mask):
            for m2, c2 in table[i].items():
                if m2 & rest:
                    continue
                m = m2 | rest
                acc = out.get(m)
                if acc is None:
                    acc = out[m] = {}
                minus = odd != (_merge_sign(m2, rest) < 0)
                if const is not None:
                    k = -const if minus else const
                    for e, x in c2.items():
                        acc[e] = acc.get(e, 0) + k * x
                    continue
                for f, y in coeff.items():
                    if minus:
                        y = -y
                    for e, x in c2.items():
                        s = sums.get((e, f))
                        if s is None:
                            s = sums[e, f] = tuple(map(operator.add, e, f))
                        acc[s] = acc.get(s, 0) + x * y
    return out


def _d_on_form(d_table: Sequence[Form], a: Form) -> Form:
    return Form(a.ctx, _leibniz([f.comps for f in d_table], a.comps))


def _nonzero(comps: Mapping) -> dict:
    return {m: c for m, c in comps.items() if c}


def _slices_of(numerators: Sequence[Mapping], zero: tuple) -> Dict[tuple, List[dict]]:
    """The exponent slices {e: D_e} of a table of numerators: D_e holds the
    coefficients of t^e, one {mask: int} map per entry."""
    slices: Dict[tuple, List[dict]] = {}
    for i, row in enumerate(numerators):
        for m, numer in row.items():
            for e, x in numer.items():
                rows = slices.get(e) or slices.setdefault(e, [{} for _ in numerators])
                rows[i][m] = x
    return slices or {zero: [{} for _ in numerators]}


def _constant_table(numerators: Sequence[Mapping], zero: tuple) -> Optional[List[dict]]:
    """The int table {mask: int} of numerators that are all constants,
    {zero: c}; None when one has a parameter."""
    table = []
    for row in numerators:
        ints = {}
        for m, numer in row.items():
            x = numer.get(zero)
            if x is None or len(numer) != 1:
                return None
            ints[m] = x
        table.append(ints)
    return table


def _jacobi_holds(numerators: Sequence[Mapping], zero: Optional[tuple]) -> bool:
    """Whether d(d e^i) = 0 for every i, in ints, on the numerators of L*d:
    this is L^2 d^2, one entry at a time.  With ``zero`` None the table is
    an int table, {mask: int} per entry."""
    for row in numerators:
        if zero is None:
            if any(_leibniz(numerators, row).values()):
                return False
        elif any(x for numer in _leibniz_numerators(numerators, row, zero).values()
                 for x in numer.values()):
            return False
    return True


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
    V_1 c V_2 c ... with d V_{j+1} c Lambda^2 V_j.  A polynomial table,
    parameter-free or not, is held in ints: ``_numerators`` is (N, L), N
    the numerators {mask: {exponent: int}} of L*d per entry, canonical (L
    the least such int).  It is derived here from a table of Forms, or it
    is the table itself: ``change_basis``, ``bind`` and ``g2.build_product``
    hand on numerators alone, and the Scalar ``d_table`` is then built on
    first read.  A parameter-free table also keeps its int table {mask:
    int} over L, which its Jacobi check, nilpotency check and invariants
    read.  The Jacobi check and ``d`` run on the numerators,
    ``change_basis`` slices them by exponent and ``_integers_at`` evaluates
    them.  The Scalar certificate of a failing Jacobi check is computed only
    to be raised.
    """

    __slots__ = ("ctx", "_d_table", "_nilpotent", "_numerators", "_ints", "_params")

    def __init__(self, ctx: FrameContext, d_table: Optional[Sequence[Form]],
                 require_nilpotent: bool = True, *, _numerators=None):
        """``_numerators`` is (numerators, L) when the caller has them; None
        derives them here from ``d_table``, which may be None only when they
        are given."""
        zero = ctx.params._zero_monom
        if d_table is None:
            rows = _numerators[0]
        else:
            d_table = tuple(d_table)
            rows = d_table
        if len(rows) != ctx.dim:
            raise ValueError(f"expected {ctx.dim} coframe derivatives, got {len(rows)}")
        two_forms = _two_forms(ctx.dim)
        for i, row in enumerate(rows, start=1):
            if d_table is not None:
                if row.ctx != ctx:
                    raise ExteriorError("frame context mismatch in d-table")
                row = row.comps
            if not row.keys() <= two_forms:
                raise ExteriorError(f"d e^{i} must be a 2-form")
        if _numerators is None:
            _numerators = _as_numerators([f.comps for f in d_table], zero)
        self.ctx = ctx
        self._d_table = d_table
        self._numerators = _numerators
        self._nilpotent = self._ints = self._params = None
        if _numerators is None:
            holds = False
        else:
            constant = _constant_table(_numerators[0], zero)
            if constant is None:
                holds = _jacobi_holds(_numerators[0], zero)
            else:
                self._ints, self._params = (constant, _numerators[1]), frozenset()
                holds = _jacobi_holds(constant, None)
        if not holds:
            bad = jacobi_certificates(self.d_table)
            if bad:
                raise JacobiError(*bad[0])
        if require_nilpotent and not self.is_nilpotent_presentation():
            raise NilpotencyError("not presented nilpotently (no admissible filtration)")

    @property
    def d_table(self) -> Tuple[Form, ...]:
        """The d e^i as Forms; an algebra built from numerators builds them
        from N/L on first read."""
        if self._d_table is None:
            params = self.ctx.params
            zero = params._zero_monom
            rows, den = self._numerators
            self._d_table = tuple(
                Form._unchecked(self.ctx, {m: Scalar(params, _reduced(numer, den, zero))
                                           for m, numer in row.items()}) for row in rows)
        return self._d_table

    def d(self, a: Form) -> Form:
        """d a.  A polynomial table runs in ints when no coefficient of ``a``
        is a rational function: a is written as numerators over one int M
        (``Form._scaled``, computed once per form), d is summed on them and
        its table's numerators over L, and each component is reduced once,
        over L*M; the image keeps those numerators as its own.  Otherwise on
        Scalars.  A form of another frame raises ExteriorError."""
        if a.ctx != self.ctx:
            raise ExteriorError("frame context mismatch")
        if self._numerators is not None:
            scaled = a._scaled()
            if scaled is not None:
                numerators, scale = scaled
                params = self.ctx.params
                zero = params._zero_monom
                table, den = self._numerators
                den *= scale
                comps, numers = {}, {}
                for m, numer in _leibniz_numerators(table, numerators, zero).items():
                    if not all(numer.values()):
                        numer = {e: x for e, x in numer.items() if x}
                        if not numer:
                            continue
                    numers[m] = numer
                    comps[m] = Scalar(params, _reduced(numer, den, zero))
                image = Form._unchecked(a.ctx, comps)
                image._numerators = numers, den  # over L*M, for a later d or projection
                return image
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
        rows = self._numerators[0] if self._numerators is not None else \
            [f.comps for f in self.d_table]
        succ = [set() for _ in rows]
        for i, row in enumerate(rows):
            for mask in row:
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
        """The lower central series must reach 0; a parameter-free table
        descends in ints, on its int table, as the invariants do."""
        table = self._ints[0] if self._ints is not None else [f.comps for f in self.d_table]
        brackets, n = _structure(table)[0], self.ctx.dim
        return _lower_central(brackets, n, _commutator(brackets, n))[-1] == 0

    def bind(self, bindings: Mapping[str, Fraction]) -> "LieAlgebra":
        """The algebra at ``bindings``, over the empty parameter context, with
        the table's value T/D, divided by gcd(D, T), as its numerators;
        Jacobi and nilpotency are checked again.  The first parameter of the
        table left unbound, in context order, raises ScalarError."""
        point = _point(bindings)
        used = self.params()
        for name in self.ctx.params.names:
            if name in used and name not in point:
                raise ScalarError(f"unbound parameter {name!r}")
        table, den = self._integers_at(point)
        common = gcd(den, *(x for row in table for x in row.values()))
        numerators = [{m: {(): x // common} for m, x in row.items()} for row in table]
        ctx = FrameContext(self.ctx.dim, ParameterContext(()))
        return LieAlgebra(ctx, None, _numerators=(numerators, den // common))

    def _integers_at(self, point: Mapping[str, Fraction]) -> Tuple[List[Dict[int, int]], int]:
        """(T, D), the table at ``point`` (folded names) as T/D, one {mask:
        int} map per entry: the int table of a parameter-free table, the
        numerators summed by ``_evaluate``, over L, or else each entry's
        ``Scalar.evaluate`` at the point folded once, which raises
        ScalarError at a pole, scaled over the lcm of the values'
        denominators.  The result is shared: callers do not change it."""
        if self._ints is not None:
            return self._ints
        if self._numerators is not None:
            table, den = _evaluate(self._numerators[0], self.ctx.params.names, point)
            return table, den * self._numerators[1]
        point = _point(point)
        values = [{m: c.evaluate(point) for m, c in f.comps.items()} for f in self.d_table]
        den = lcm(*{x.denominator for row in values for x in row.values()})
        return [{m: x.numerator * (den // x.denominator) for m, x in row.items() if x}
                for row in values], den

    def params(self) -> frozenset:
        """The parameters of the table: those whose exponents occur in its
        numerators, else those of its Scalars; found once."""
        if self._params is None:
            if self._numerators is not None:
                exponents = {e for row in self._numerators[0] for numer in row.values()
                             for e in numer}
                self._params = frozenset(nm for i, nm in enumerate(self.ctx.params.names)
                                         if any(e[i] for e in exponents))
            else:
                self._params = frozenset().union(*(c.params() for f in self.d_table
                                                   for c in f.comps.values()))
        return self._params

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        if self.ctx != other.ctx:
            return False
        if self._numerators is not None and other._numerators is not None:
            return self._numerators == other._numerators  # canonical, so equal tables agree
        return self.d_table == other.d_table

    def __hash__(self):
        return hash((self.ctx, self.d_table))

    def __repr__(self):
        return f"LieAlgebra({salamon_str(self)})"


@functools.lru_cache(maxsize=None)
def _two_forms(dim: int) -> frozenset:
    return frozenset(_basis_masks(dim, 2))


# ---------------------------------------------------------------------------
# Salamon notation
# ---------------------------------------------------------------------------

def parse_salamon(text: str, params: ParameterContext, dim: Optional[int] = None) -> LieAlgebra:
    """Parse comma-separated coframe derivatives, e.g. ``0,0,12,13,23,14``.

    Each entry is a 2-form literal, read by ``parse_form`` (``42`` is
    e4^e2).  An error in entry K reads ``entry K: <message>``, at its
    position in the whole text as typed; an entry of another grade, such as
    ``123``, is rejected by ``LieAlgebra`` (ExteriorError).
    """
    entries = text.split(",")
    n = dim if dim is not None else len(entries)
    if len(entries) != n or n not in (6, 7):
        raise SalamonSyntaxError(
            f"expected {dim or '6 or 7'} comma-separated entries, got {len(entries)}", 0)
    ctx = FrameContext(n, params)
    table = []
    start = 0  # where the entry starts in ``text``; parse_form counts in the entry as typed
    for k, entry in enumerate(entries, start=1):
        if not entry.strip():
            raise SalamonSyntaxError(f"empty entry {k}", start + len(entry))
        try:
            table.append(parse_form(ctx, entry))
        except ScalarSyntaxError as exc:
            raise SalamonSyntaxError(f"entry {k}: {exc.message}", start + exc.position) from None
        start += len(entry) + 1
    return LieAlgebra(ctx, table)


def salamon_str(g: LieAlgebra) -> str:
    """The d-table in Salamon notation: each entry's ``form_str``, without spaces."""
    return ",".join(form_str(f).replace(" ", "") for f in g.d_table)


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
    a = {nm: _PRIMES_A[(i + shift) % len(_PRIMES_A)] for i, nm in enumerate(names)}
    b = {nm: _PRIMES_B[(i + shift) % len(_PRIMES_B)] for i, nm in enumerate(names)}
    return a, b


def _generic_value(g: LieAlgebra, seed: int, compute):
    """``compute(table, n)`` on the integer table of ``g._integers_at``:
    once, at the empty point, when the table has no parameters, else at the
    two seeded points, where the values must agree.  No algebra is built at
    a point, so nothing is checked again there; a vanishing denominator is a
    non-generic evaluation."""
    n = g.ctx.dim
    used = g.params()
    values = set()
    for point in _generic_bindings(used, seed) if used else ({},):
        try:
            table = g._integers_at(point)[0]
        except ScalarError as exc:
            raise GenericEvaluationError(f"binding failed: {exc}") from None
        values.add(compute(table, n))
    if len(values) > 1:
        raise GenericEvaluationError("non-generic evaluation")
    return values.pop()


def _rank_d_on_grade(table: Sequence[Mapping], n: int, k: int) -> int:
    images = [_nonzero(_leibniz(table, {m: 1})) for m in _basis_masks(n, k)]
    return linalg.sparse_rank(images, _basis_masks(n, k + 1))


def _betti_of_table(table: Sequence[Mapping], n: int, rank_1: Optional[int] = None):
    """(b_1, ..., b_n) of an integer table; rank(d|Lambda^1) may be given.

    Each rank of d is computed at most once: rank d_0 = rank d_n = 0, and
    when rank d_{n-1} = 0 the algebra is unimodular and Poincare duality
    gives rank d_k = rank d_{n-1-k} (Koszul, Bull. SMF 78, 1950).
    """
    ranks = [0] * (n + 1)
    ranks[1] = _rank_d_on_grade(table, n, 1) if rank_1 is None else rank_1
    ranks[n - 1] = _rank_d_on_grade(table, n, n - 1)
    for k in range(2, n - 1):
        if ranks[n - 1] == 0 and n - 1 - k < k:
            ranks[k] = ranks[n - 1 - k]
        else:
            ranks[k] = _rank_d_on_grade(table, n, k)
    return tuple(comb(n, k) - ranks[k] - ranks[k - 1] for k in range(1, n + 1))


def betti_numbers(g: LieAlgebra, seed: int = 0) -> Tuple[int, ...]:
    """(b_1, ..., b_n): dim ker(d|Lambda^k) - rank(d|Lambda^{k-1}), by exact
    elimination."""
    return _generic_value(g, seed, _betti_of_table)


# ---------------------------------------------------------------------------
# characteristic series, from one descending chain of spans
#
# Each series is a chain V_0 > V_1 > ... with V_{k+1} the span of one step
# applied to V_k, a span being the echelon basis of one n-column elimination
# over the masks of Lambda^1 (vectors e_i of g, or 1-forms e^i):
# - lower central, g^{k+1} = [g, g^k]: the brackets [e_a, v];
# - derived, g^(k+1) = [g^(k), g^(k)]: the brackets [u, v] within V_k;
# - upper central, by ann Z_{k+1} = span{e_a _| d x : x in ann Z_k} in Lambda^1.
# The values are ints for the invariants, the context's Scalars for the
# nilpotency check of a table with parameters.
# ---------------------------------------------------------------------------


def _structure(table: Sequence[Mapping]):
    """The e^{ab} components C(i, a, b) = d e^i(e_a, e_b) of the d e^i,
    antisymmetric in a, b, keyed by masks of Lambda^1 as brackets
    {a: {b: {i: C}}}, which is -[e_a, e_b] (d e^i(X, Y) = -e^i([X, Y])), and
    as contractions {i: {a: {b: C}}}, which is e_a _| d e^i."""
    brackets: Dict[int, dict] = {}
    contractions: Dict[int, dict] = {}
    for i, row in enumerate(table):
        for mask, c in row.items():
            a = mask & -mask
            for x, y, value in ((a, mask ^ a, c), (mask ^ a, a, -c)):
                brackets.setdefault(x, {}).setdefault(y, {})[1 << i] = value
                contractions.setdefault(1 << i, {}).setdefault(x, {})[y] = value
    return brackets, contractions


def _contract(structure: Mapping, x: Mapping) -> Dict[int, dict]:
    """{a: sum_b x_b structure[b][a]} over the keys b of x, in one pass."""
    out: Dict[int, dict] = {}
    for b, xb in x.items():
        for a, vec in structure.get(b, {}).items():
            row = out.setdefault(a, {})
            for i, c in vec.items():
                row[i] = row.get(i, 0) + xb * c
    return out


def _span(rows: Sequence[Mapping], n: int) -> List[dict]:
    """An echelon basis of the span of ``rows`` in Lambda^1."""
    return linalg._eliminate(rows, _basis_masks(n, 1), full=False)[0]


def _chain(step, v: Sequence[Mapping], n: int, dims: Tuple[int, ...] = ()) -> Tuple[int, ...]:
    """``dims``, then those of V_k > V_{k+1} > ... from the echelon basis ``v``
    of V_k and V_{j+1} = span step(V_j), up to the first V that does not shrink."""
    dims = list(dims)
    while not dims or len(v) != dims[-1]:
        dims.append(len(v))
        if not v:
            break
        v = _span(step(v), n)
    return tuple(dims)


def _rows(structure: Mapping, v: Sequence[Mapping]) -> List[dict]:
    """The vectors sum_b x_b structure[b][a], for x in v and every a: the
    brackets [e_a, x], or the contractions e_a _| d x."""
    return [_nonzero(row) for x in v for row in _contract(structure, x).values()]


def _bracket(brackets: Mapping, x: Mapping, y: Mapping) -> dict:
    """[x, y] = sum_a x_a [e_a, y]."""
    out: dict = {}
    for a, row in _contract(brackets, y).items():
        if a in x:
            for i, c in row.items():
                out[i] = out.get(i, 0) + x[a] * c
    return _nonzero(out)


def _commutator(brackets: Mapping, n: int) -> List[dict]:
    """The echelon basis of [g, g], spanned by the brackets of e_a, e_b, a < b."""
    return _span([vec for a, row in brackets.items() for b, vec in row.items() if a < b], n)


def _lower_central(brackets: Mapping, n: int, commutator: Sequence[Mapping]) -> Tuple[int, ...]:
    return _chain(lambda v: _rows(brackets, v), commutator, n, (n,))


def _series(table: Sequence[Mapping], n: int):
    """(lower central, derived, upper central) dimensions of an integer table."""
    brackets, contractions = _structure(table)
    commutator = _commutator(brackets, n)
    derived = _chain(lambda v: [_bracket(brackets, x, y)
                                for x, y in itertools.combinations(v, 2)], commutator, n, (n,))
    ann_z1 = _span([vec for row in contractions.values() for vec in row.values()], n)
    upper = _chain(lambda v: _rows(contractions, v), ann_z1, n)
    return _lower_central(brackets, n, commutator), derived, tuple(n - k for k in upper)


# ---------------------------------------------------------------------------
# fingerprints
#
# Invariants are computed in Python ints on D*d(p), the table at a point p
# times one int D, which ``LieAlgebra._integers_at`` gives: the kept int
# table when the table has no parameters, else at two points.  A
# polynomial table sums its numerators, L*d by entry, at p; a
# rational-function table evaluates each entry there and scales the values
# over the lcm of their denominators.  No invariant changes: the Leibniz
# rule is linear in the table, so D*d is D times d on every grade, and a
# rank or a span is the same for a nonzero multiple of a map (the algebra
# with brackets D[.,.] is isomorphic to g through x -> D*x).  Every
# elimination runs fraction-free in ``linalg``.
#
# The eliminations of one table and the fields they give:
# - the rows d e^i over Lambda^2: wedge_data[0] = rank d|Lambda^1, and a
#   basis of d Lambda^1 whose products give two ranks, wedge_data[1:], and
#   exact_two_forms_decomposable;
# - [g, g], one n-column span, the first step of lower_central and derived;
# - one n-column span per later chain step: lower_central, derived, upper_central;
# - d on Lambda^{n-1} and on each grade duality does not give: betti.
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


def _transpose(forms: Sequence[Mapping]) -> List[dict]:
    """Sparse rows of the matrix whose column j holds the components of forms[j]."""
    rows: Dict[int, dict] = {}
    for j, f in enumerate(forms):
        for mask, c in f.items():
            rows.setdefault(mask, {})[j] = c
    return list(rows.values())


def _exact_two_form_data(basis: Sequence[Mapping], n: int):
    """Rank d|Lambda^1, dim span{x ^ y}, dim of the wedge radical and
    decomposability, from a basis of the exact 2-forms d Lambda^1."""
    m = len(basis)  # 2-forms commute: each unordered pair is wedged once
    pairs = {(i, j): _nonzero(_wedge(basis[i], basis[j])) for i in range(m) for j in range(i, m)}
    products = [[pairs[min(i, j), max(i, j)] for j in range(m)] for i in range(m)]
    decomposable = not any(pairs.values())
    wedge_span = linalg.sparse_rank(list(pairs.values()), _basis_masks(n, 4))
    # the radical: combinations y of the basis with x ^ y = 0 for every x
    radical_rows = [row for x_products in products for row in _transpose(x_products)]
    radical_dim = len(basis) - linalg.sparse_rank(radical_rows, range(len(basis)))
    return len(basis), wedge_span, radical_dim, decomposable


def fingerprint(g: LieAlgebra, seed: int = 0) -> Fingerprint:
    return _generic_value(g, seed, _fingerprint_of_table)


def _fingerprint_of_table(table: Sequence[Mapping], n: int) -> Fingerprint:
    image = linalg._eliminate(table, _basis_masks(n, 2), full=False)[0]
    rank_d, wedge_span, radical, decomposable = _exact_two_form_data(image, n)
    series = _series(table, n)
    return Fingerprint(
        betti=_betti_of_table(table, n, rank_d),
        lower_central=series[0],
        derived=series[1],
        upper_central=series[2],
        exact_two_forms_decomposable=decomposable,
        wedge_data=(rank_d, wedge_span, radical),
    )


# ---------------------------------------------------------------------------
# basis changes
# ---------------------------------------------------------------------------


class BasisChange:
    """An invertible coframe substitution f = B e (rows express the new coframe).

    ``rows`` and ``inverse_rows()`` are Scalars.  The arithmetic runs on a
    private form: B = R/q and B^-1 = A/a, built on first use, with R and A
    int matrices over positive ints q and a when B is parameter-free (q the
    lcm of the denominators, A/a from ``linalg.invert`` on R, or R^T/q once
    ``is_orthogonal`` holds), and the Scalar rows and inverse over 1
    otherwise.  A parameter-free B holds (R, q) alone, read off its entries
    as given, and builds its Scalar ``rows`` on first read.
    """

    __slots__ = ("params", "_rows", "_inverse", "_scaled", "_scaled_inverse")

    def __init__(self, params: ParameterContext, rows: Sequence[Sequence]):
        n = len(rows)
        self.params = params
        values = []
        rational = True
        for row in rows:
            out = []
            for v in row:
                kind = type(v)  # an int or a Fraction is read directly
                if kind is Fraction:
                    x = v
                elif kind is int:
                    x = Fraction(v)
                else:
                    x = params.scalar(v)
                    if type(x.raw) is Fraction:
                        x = x.raw
                    else:
                        rational = False
                out.append(x)
            values.append(out)
        for row in values:
            if len(row) != n:
                raise ValueError("basis change matrix must be square")
        if rational:
            q = lcm(*(x.denominator for row in values for x in row))
            self._scaled = tuple(tuple(x.numerator * (q // x.denominator) for x in row)
                                 for row in values), q
            self._rows = None
        else:
            self._scaled = None
            self._rows = tuple(tuple(Scalar(params, x) if type(x) is Fraction else x for x in row)
                               for row in values)
        self._inverse = None
        self._scaled_inverse = None

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
    def rows(self) -> Tuple[Tuple[Scalar, ...], ...]:
        """The rows as Scalars; a parameter-free B builds them from R/q on first read."""
        if self._rows is None:
            R, q = self._scaled
            params = self.params
            self._rows = tuple(tuple(Scalar(params, Fraction(x, q)) if x else params.zero
                                     for x in row) for row in R)
        return self._rows

    @property
    def dim(self) -> int:
        return len(self._rows if self._scaled is None else self._scaled[0])

    def _scaled_rows(self):
        """(R, q) with B = R/q: int rows over the lcm q of the denominators
        when B is parameter-free, else the Scalar rows over 1."""
        return self._scaled or (self._rows, 1)

    def _scaled_inverse_rows(self):
        """(A, a) with B^-1 = A/a, of the kind of ``_scaled_rows()``; a singular B
        raises ValueError."""
        if self._scaled_inverse is None:
            R, q = self._scaled_rows()
            inverse = linalg.invert(R)
            if inverse is None:
                raise ValueError("singular basis change")
            A, a = inverse
            if q > 1:  # R^-1 = A/a, so B^-1 = q A/a
                g = gcd(q, a)
                A, a = [[x * (q // g) for x in row] for row in A], a // g
            self._scaled_inverse = tuple(map(tuple, A)), a
        return self._scaled_inverse

    def inverse_rows(self):
        if self._inverse is None:
            A, a = self._scaled_inverse_rows()
            zero = self.params.zero
            self._inverse = tuple(tuple(x if type(x) is Scalar else Scalar(self.params, Fraction(x, a))
                                        if x else zero for x in row) for row in A)
        return self._inverse

    def is_orthogonal(self) -> bool:
        """True iff B B^T = I, that is R R^T = q^2 I; the transpose is then
        recorded as the inverse."""
        n = self.dim
        R, q = self._scaled_rows()
        nonzero = [{k: x for k, x in enumerate(row) if x} for row in R]
        for i in range(n):
            for j in range(i, n):
                ri, rj = nonzero[i], nonzero[j]
                dot = sum(x * rj[k] for k, x in ri.items() if k in rj)
                if dot != (q * q if i == j else 0):
                    return False
        self._scaled_inverse = tuple(zip(*R)), q
        return True

    def __repr__(self):
        body = "; ".join(
            " ".join(str(v) for v in row) for row in self.rows
        )
        return f"BasisChange([{body}])"


def change_basis(g: LieAlgebra, B: BasisChange) -> LieAlgebra:
    """The algebra in the coframe f = B e, d f^i = sum_j B_ij (B^-1)^* d e^j,
    each d e^j pulled back once; Jacobi is re-verified.

    With B = R/q and B^-1 = A/a, a polynomial table runs in ints on its
    numerators, sliced by exponent as L*d = sum_e t^e D_e, since the map is
    linear in the table: every slice is pulled back through A in one call,
    so each word's image is built once, and combined with R's rows.  That
    gives q a^2 L times the new table, which is divided by one gcd and
    handed to the new algebra as its numerators, its only table until its
    Scalar ``d_table`` is read.  A rational-function table or a matrix with
    parameters runs on the Scalar rows.
    """
    if B.dim != g.ctx.dim:
        raise ValueError("dimension mismatch")
    if B.params is not g.ctx.params:  # ints would not notice
        raise ScalarError("mixed parameter contexts")
    if g._numerators is None or B._scaled is None:  # a rational function in the table, or parameters in B
        pulled = _pull_back([f.comps for f in g.d_table], B.inverse_rows())
        new_table = [Form(g.ctx, _linear_combination((c, d) for c, d in zip(row, pulled) if c))
                     for row in B.rows]
        return LieAlgebra(g.ctx, new_table, require_nilpotent=False)
    R, q = B._scaled
    A, a = B._scaled_inverse_rows()
    numerators, scale = g._numerators
    slices = _slices_of(numerators, g.ctx.params._zero_monom)
    n = g.ctx.dim
    pulled = _pull_back([row for rows in slices.values() for row in rows], A)
    combined = [_linear_combination((c, d) for c, d in zip(row, images) if c)
                for images in (pulled[k:k + n] for k in range(0, len(pulled), n)) for row in R]
    den = q * a * a * scale
    common = gcd(den, *(x for row in combined for x in row.values()))
    moved: List[Dict[int, dict]] = [{} for _ in range(n)]
    for k, e in enumerate(slices):
        for entries, row in zip(moved, combined[k * n:(k + 1) * n]):
            for m, x in row.items():
                if x:
                    entries.setdefault(m, {})[e] = x // common
    return LieAlgebra(g.ctx, None, require_nilpotent=False, _numerators=(moved, den // common))


def is_isomorphic_via(g: LieAlgebra, B: BasisChange, target: LieAlgebra) -> bool:
    """True iff change_basis(g, B) has exactly the target d-table (compared
    on numerators when both tables have them)."""
    if g.ctx.dim != target.ctx.dim:
        raise ValueError("dimension mismatch")
    return change_basis(g, B) == target


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
