"""Exact scalar arithmetic: rationals and rational functions in named parameters.

Every coefficient in this package is a ``Scalar``: an element of the field
Q(p1, ..., pn) of rational functions over the rationals in the parameters
declared by a :class:`ParameterContext`.  Values are immutable and kept in
a canonical form, so ``==`` is decidable, syntactic equality.  The raw
value of a Scalar is one of three kinds, fixed by the value itself:

* a ``Fraction``, for a parameter-free value;
* a ``_Poly``, for a non-constant polynomial (a value with a constant
  denominator): a sparse integer polynomial, a dict from exponent tuple to
  nonzero int, over a positive int denominator coprime to the gcd of the
  coefficients;
* an element of sympy's fraction field Q(p1, ..., pn) in graded-lex order,
  reduced by the field's ``cancel``, for a value whose denominator is not
  constant.

A ``_Poly`` is the (numerator, denominator) pair that ``cancel`` builds
for the same value.  Printing, ``params`` and ``evaluate`` read its
coefficient dict and int denominator directly.  ``evaluate`` sums a
``_Poly``, or a field value's numerator and denominator, with
``_evaluate``, the one polynomial evaluator, which evaluates Lie algebra
tables too.

Each arithmetic operator makes one dispatch on the kinds of the two raw
values, in this order.  Two Fractions combine as Fractions.  A rational
operand 0, 1 or -1 next to a symbolic one gives the result by its
identity, without arithmetic: ``x + 0``, ``0 + x``, ``x - 0``, ``x * 1``,
``1 * x`` and ``x / 1`` return ``x`` itself, ``x * 0`` and ``0 * x`` the
context's zero and ``0 / x`` its zero operand, while ``0 - x``, ``x * -1``,
``-1 * x`` and ``x / -1`` give ``-x``.  These are identities on canonical
values and negation keeps a value canonical, so the result is the one the
arithmetic would build.  Then Fractions and ``_Poly``s combine as pairs
in Python ints (``+``, ``-``, ``*`` and division by a constant):
numerators are scaled by ints and added or multiplied, denominators
combine by lcm or product, and the result is reduced by the gcd of its
denominator and its numerator's content.  Everything else, an operand of
the third kind or division by a non-constant value, goes through the
fraction field and its ``cancel``, and a result with a constant
denominator is turned back into a Fraction or a ``_Poly``.

sympy is imported, and a context's field built, only when an operation
first takes the field path.  Every torsion quantity of the paper's
families is a polynomial in the parameters, so such runs never load it;
rational-function values, such as the basis-change witnesses
(``1/(k*lam)``) that ``families.verify_theorem`` replays, do.

One recursive-descent parser reads text, with ASCII digits:
``ParameterContext.parse`` a scalar, and ``exterior.parse_form`` a form
literal, from the same tokens and the same loop over signed terms.
"""

from __future__ import annotations

import functools
import operator
import re
from fractions import Fraction
from math import gcd, prod
from typing import Iterable, Mapping, Sequence, Union

__all__ = [
    "Scalar",
    "ParameterContext",
    "ScalarError",
    "ScalarSyntaxError",
]


class ScalarError(ArithmeticError):
    """Raised for domain errors: zero divisors, unbound parameters."""


class ScalarSyntaxError(ValueError):
    """Raised on malformed scalar text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# ASCII aliases for the unicode spellings accepted on input.
_UNICODE_MAP = {
    "λ": "lam",   # lambda
    "ϑ": "vth",
    "₀": "0", "₁": "1", "₂": "2", "₃": "3", "₄": "4",
    "₅": "5", "₆": "6", "₇": "7", "₈": "8", "₉": "9",
}


def _fold_unicode(text: str) -> str:
    return _fold_with_origins(text)[0]


def _fold_with_origins(text: str):
    """The folded text, and for each of its positions and its end the
    position in ``text`` it comes from, so errors count characters as typed."""
    if text.isascii():  # every alias is non-ASCII
        return text, range(len(text) + 1)
    pieces, origins = [], []
    for i, ch in enumerate(text):
        piece = _UNICODE_MAP.get(ch, ch)
        pieces.append(piece)
        origins.extend([i] * len(piece))
    origins.append(len(text))
    return "".join(pieces), origins


def _qq_to_fraction(value) -> Fraction:
    """An int or a sympy rational as a Fraction."""
    return Fraction(int(value.numerator), int(value.denominator))


def _grlex(term):
    monom = term[0]
    return sum(monom), monom


class _IntPoly:
    """A sparse integer polynomial, read the way sympy's ``PolyElement`` is
    read: ``is_ground``.  Only ``_Poly.denom`` builds one."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        self.coeffs = coeffs

    @property
    def is_ground(self) -> bool:
        return not any(map(any, self.coeffs))


class _Poly:
    """A non-constant polynomial value: ``coeffs`` (exponent tuple -> nonzero
    int) over the positive int ``den``, which is coprime to the gcd of the
    coefficients.  Never mutated once built."""

    __slots__ = ("coeffs", "den")

    def __init__(self, coeffs: dict, den: int):
        self.coeffs = coeffs
        self.den = den

    # The benchmark's tracer reads ``raw.denom.is_ground`` of every symbolic
    # result, a field value or a ``_Poly``; nothing in the package does.
    @property
    def denom(self) -> _IntPoly:
        zero = (0,) * len(next(iter(self.coeffs)))
        return _IntPoly({zero: self.den})

    def __neg__(self):
        return _Poly({m: -c for m, c in self.coeffs.items()}, self.den)

    def __eq__(self, other):
        return type(other) is _Poly and self.den == other.den and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((frozenset(self.coeffs.items()), self.den))


def _reduced(numer: dict, denom: int, zero: tuple):
    """The canonical raw value of numer/denom, numer an integer polynomial
    without zero coefficients and denom a positive int."""
    if not numer:
        return Fraction(0)
    if zero in numer and len(numer) == 1:
        return Fraction(numer[zero], denom)
    if denom > 1:
        g = gcd(denom, *numer.values())
        if g > 1:
            numer, denom = {m: c // g for m, c in numer.items()}, denom // g
    return _Poly(numer, denom)


def _lincomb(p, s: int, q, t: int, zero: tuple) -> dict:
    """p*s + q*t for nonzero ints s, t and polynomials p, q, each a
    coefficient dict or a nonzero int (not both ints)."""
    if type(p) is int:
        p, s, q, t = q, t, p, s
    out = {m: c * s for m, c in p.items()} if s != 1 else dict(p)
    for m, c in ({zero: q} if type(q) is int else q).items():
        v = out.get(m, 0) + c * t
        if v:
            out[m] = v
        else:
            del out[m]
    return out


def _product(p: dict, q: dict) -> dict:
    """The product of two coefficient dicts."""
    out = {}
    q_terms = list(q.items())
    for m, c in p.items():
        for n, e in q_terms:
            k = tuple(map(operator.add, m, n))
            out[k] = out.get(k, 0) + c * e
    return {m: c for m, c in out.items() if c}


_CONTEXTS: dict = {}


class ParameterContext:
    """The set of parameter names available in one session.

    Parameters are global to a session; arithmetic is only defined between
    scalars of the same context.  Contexts are interned by name set so that
    two contexts with identical names are the same object.
    """

    def __new__(cls, names: Iterable[str] = ()):
        key = tuple(sorted(set(names)))
        cached = _CONTEXTS.get(key)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        for name in key:
            if not _IDENT.fullmatch(name):
                raise ValueError(f"invalid parameter name {name!r}")
            if _INDEX_WORD.fullmatch(name):
                raise ValueError(
                    f"parameter name {name!r} collides with coframe index notation"
                )
        self.names = key
        self._zero_monom = (0,) * len(key)
        self._gens = {
            name: _Poly({tuple(int(j == i) for j in range(len(key))): 1}, 1)
            for i, name in enumerate(key)
        }
        self._field = None
        self.zero = Scalar(self, Fraction(0))
        self.one = Scalar(self, Fraction(1))
        _CONTEXTS[key] = self
        return self

    def __repr__(self):
        return f"ParameterContext({list(self.names)!r})"

    def param(self, name: str) -> "Scalar":
        name = _fold_unicode(name)
        try:
            return Scalar(self, self._gens[name])
        except KeyError:
            raise ScalarError(f"unbound parameter {name!r}") from None

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, str or Scalar into this context."""
        if isinstance(value, Scalar):
            if value.ctx is not self:
                raise ScalarError("scalar from a different parameter context")
            return value
        if isinstance(value, str):
            return self.parse(value)
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise TypeError(f"expected int or Fraction, got {type(value).__name__}")
        return Scalar(self, value if type(value) is Fraction else Fraction(value))

    def parse(self, text: str) -> "Scalar":
        folded, origins = _fold_with_origins(text)
        literal = _RATIONAL.fullmatch(folded)
        if literal:  # an integer or p/q, read as the parser reads it
            sign, p, q = literal.groups()
            q = int(q or 1)
            if q:
                return Scalar(self, Fraction(-int(p) if sign == "-" else int(p), q))
        try:
            return _Parser(self, folded).parse()
        except ScalarSyntaxError as exc:
            raise ScalarSyntaxError(exc.message, origins[exc.position]) from None

    def _to_field(self, raw):
        """``raw`` as an element of the fraction field, which is built, and
        sympy imported, on first use.  A Fraction here is nonzero."""
        if self._field is None:
            from sympy.polys.domains import QQ
            from sympy.polys.fields import field

            self._field = field(",".join(self.names), QQ, order="grlex")[0]
        if isinstance(raw, Fraction):
            numer, den = {self._zero_monom: raw.numerator}, raw.denominator
        elif type(raw) is _Poly:
            numer, den = raw.coeffs, raw.den
        else:
            return raw
        poly, coeff = self._field.ring.dtype, self._field.domain.dtype
        return self._field.raw_new(poly({m: coeff(c) for m, c in numer.items()}),
                                   poly({self._zero_monom: coeff(den)}))

    def _from_field(self, value):
        """The canonical raw value of a field element reduced by cancel: the
        element itself, unless its denominator is constant.  cancel leaves
        integer coefficients over a positive integer constant."""
        if not value.denom.is_ground:
            return value
        return _reduced({m: int(c.numerator) for m, c in value.numer.items()},
                        int(value.denom.LC.numerator), self._zero_monom)

    def _sum(self, a, b, t: int):
        """The canonical raw value of a + t*b, t = 1 or -1, for raw values
        ``a`` and ``b`` that are not both Fractions.

        Two Fractions or ``_Poly``s add as pairs (p, d) of a numerator, an
        int or a coefficient dict, and a positive int denominator: both
        numerators are brought over the lcm of the denominators and the sum
        is reduced by the gcd of its denominator and the content of its
        numerator, which gives the pair that the field's ``cancel`` builds.
        """
        if type(a) in _PAIR_KINDS and type(b) in _PAIR_KINDS:
            p, d = (a.coeffs, a.den) if type(a) is _Poly else (a.numerator, a.denominator)
            q, e = (b.coeffs, b.den) if type(b) is _Poly else (b.numerator, b.denominator)
            denom = d * e // gcd(d, e)
            zero = self._zero_monom
            return _reduced(_lincomb(p, denom // d, q, t * (denom // e), zero), denom, zero)
        return self._via_field(operator.add if t > 0 else operator.sub, a, b)

    def _mul(self, a, b):
        """The canonical raw value of a*b, for a raw value ``a`` that is not
        a Fraction and a raw value ``b`` that is not 0, 1 or -1.  Two
        ``_Poly``s multiply numerators and denominators."""
        if type(a) is _Poly:
            if type(b) is Fraction:
                return _scaled(a, b.numerator, b.denominator)
            if type(b) is _Poly:
                return _reduced(_product(a.coeffs, b.coeffs), a.den * b.den, self._zero_monom)
        return self._via_field(operator.mul, a, b)

    def _via_field(self, op, a, b):
        """``op(a, b)`` in the fraction field, as a canonical raw value."""
        return self._from_field(op(self._to_field(a), self._to_field(b)))


_PAIR_KINDS = (Fraction, _Poly)


def _scaled(p: _Poly, q: int, e: int) -> _Poly:
    """The canonical raw value of p*q/e, for a nonzero int q and a positive
    int e coprime to it."""
    # p is canonical and q/e reduced, so the gcd of the content of q*p and
    # of p.den*e is gcd(q, p.den) * gcd(content(p), e)
    g = gcd(q, p.den)
    h = gcd(e, *p.coeffs.values()) if e > 1 else 1
    k = q // g
    if h > 1:
        coeffs = {m: c // h * k for m, c in p.coeffs.items()}
    elif k != 1:
        coeffs = {m: c * k for m, c in p.coeffs.items()}
    else:
        coeffs = p.coeffs
    return _Poly(coeffs, p.den // g * (e // h))


def _operand(ctx: ParameterContext, other):
    """The raw value of ``other`` as an operand in ``ctx``: a Scalar's own,
    an int or a Fraction as a Fraction; None for any other type."""
    if isinstance(other, Scalar):
        if other.ctx is not ctx:
            raise ScalarError("mixed parameter contexts")
        return other.raw
    if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
        return Fraction(other)
    return None


class Scalar:
    """An element of the rational function field of a :class:`ParameterContext`.

    Internally a plain Fraction (parameter-free values), a ``_Poly``
    (polynomials) or a reduced fraction-field element; construction
    canonicalizes, so equality is syntactic.
    """

    __slots__ = ("ctx", "raw")

    def __init__(self, ctx: ParameterContext, raw):
        self.ctx = ctx
        self.raw = raw

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.raw

    @property
    def is_rational(self) -> bool:
        return isinstance(self.raw, Fraction)

    def params(self) -> frozenset:
        if isinstance(self.raw, Fraction):
            return frozenset()
        monos = self.raw.coeffs if type(self.raw) is _Poly else [*self.raw.numer, *self.raw.denom]
        return frozenset(name for mono in monos
                         for name, exp in zip(self.ctx.names, mono) if exp)

    # -- arithmetic ---------------------------------------------------------

    # Each operator reads the other operand's raw value and dispatches once
    # on the two kinds, in the order of the module docstring.

    def __add__(self, other):
        ctx = self.ctx
        b = other.raw if type(other) is Scalar and other.ctx is ctx else _operand(ctx, other)
        if b is None:
            return NotImplemented
        a = self.raw
        if type(a) is Fraction:
            if type(b) is Fraction:
                return Scalar(ctx, a + b)
            if not a:
                return other
        elif type(b) is Fraction and not b:
            return self
        return Scalar(ctx, ctx._sum(a, b, 1))

    __radd__ = __add__

    def __sub__(self, other):
        ctx = self.ctx
        b = other.raw if type(other) is Scalar and other.ctx is ctx else _operand(ctx, other)
        if b is None:
            return NotImplemented
        a = self.raw
        if type(a) is Fraction:
            if type(b) is Fraction:
                return Scalar(ctx, a - b)
            if not a:
                return Scalar(ctx, -b)
        elif type(b) is Fraction and not b:
            return self
        return Scalar(ctx, ctx._sum(a, b, -1))

    def __rsub__(self, other):
        b = _operand(self.ctx, other)
        return NotImplemented if b is None else Scalar(self.ctx, b) - self

    def __mul__(self, other):
        ctx = self.ctx
        b = other.raw if type(other) is Scalar and other.ctx is ctx else _operand(ctx, other)
        if b is None:
            return NotImplemented
        a, x = self.raw, self
        if type(a) is Fraction:
            if type(b) is Fraction:
                return Scalar(ctx, a * b)
            a, b, x = b, a, other  # the rational operand second
        if type(b) is Fraction:
            if not b:
                return ctx.zero
            if b == 1:
                return x
            if b == -1:
                return Scalar(ctx, -a)
        return Scalar(ctx, ctx._mul(a, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        ctx = self.ctx
        b = other.raw if type(other) is Scalar and other.ctx is ctx else _operand(ctx, other)
        if b is None:
            return NotImplemented
        a = self.raw
        if type(b) is Fraction:
            if not b:
                raise ScalarError("division by zero scalar")
            if type(a) is Fraction:
                return Scalar(ctx, a / b)
            if b == 1:
                return self
            if b == -1:
                return Scalar(ctx, -a)
            if type(a) is _Poly:  # times e/q for b = q/e
                q, e = b.numerator, b.denominator
                return Scalar(ctx, _scaled(a, e if q > 0 else -e, abs(q)))
        elif type(a) is Fraction and not a:
            return self
        return Scalar(ctx, ctx._via_field(operator.truediv, a, b))

    def __rtruediv__(self, other):
        b = _operand(self.ctx, other)
        return NotImplemented if b is None else Scalar(self.ctx, b) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        ctx = self.ctx
        if exponent < 0:
            return ctx.one / self ** -exponent
        raw = self.raw
        if type(raw) is Fraction:
            return Scalar(ctx, raw ** exponent)
        if not exponent:
            return ctx.one
        result = None  # square and multiply, from the lowest bit of the exponent
        while True:
            if exponent & 1:
                result = raw if result is None else ctx._mul(result, raw)
            exponent >>= 1
            if not exponent:
                return Scalar(ctx, result)
            raw = ctx._mul(raw, raw)

    def __neg__(self):
        return Scalar(self.ctx, -self.raw)

    def __eq__(self, other):
        if type(other) is int:  # the form kernels compare coefficients with 1
            return type(self.raw) is Fraction and self.raw == other
        if isinstance(other, Scalar):
            return self.ctx is other.ctx and self.raw == other.raw
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return type(self.raw) is Fraction and self.raw == other
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx.names, self.raw))

    def __bool__(self):
        return bool(self.raw)

    # -- conversions --------------------------------------------------------

    def as_fraction(self) -> Fraction:
        if not isinstance(self.raw, Fraction):
            raise ScalarError(f"scalar {self} is not parameter-free")
        return self.raw

    def evaluate(self, bindings: Mapping[str, Union[int, Fraction]]) -> Fraction:
        """Exact value at the binding; every occurring parameter must be bound.
        A ``_Point`` is read as it is, so a caller that evaluates many values
        at one binding folds and converts it once."""
        if isinstance(self.raw, Fraction):
            return self.raw
        point = _point(bindings)
        names = self.ctx.names
        missing = [name for name in names if name not in point]  # sorted, not by hashing
        if missing:
            used = self.params()
            for name in missing:
                if name in used:
                    raise ScalarError(f"unbound parameter {name!r}")
        if type(self.raw) is _Poly:
            (value,), den = _evaluate([{0: self.raw.coeffs}], names, point)
            return Fraction(value.get(0, 0), den * self.raw.den)
        # numerator and denominator over one common denominator, which cancels
        (num, den), _ = _evaluate([{0: {m: _qq_to_fraction(c) for m, c in poly.items()}}
                                   for poly in (self.raw.numer, self.raw.denom)],
                                  names, point)
        if not den:
            raise ScalarError("denominator vanishes at binding")
        return Fraction(num.get(0, 0)) / den[0]

    # -- printing -----------------------------------------------------------

    def __str__(self):
        return _render(self)

    def __repr__(self):
        return f"Scalar({_render(self)})"


class _Point(dict):
    """A binding folded once: ASCII parameter names to Fractions."""


def _point(bindings: Mapping) -> _Point:
    """``bindings`` as a ``_Point``: names folded, values made Fractions;
    a ``_Point`` is returned as it is."""
    if type(bindings) is _Point:
        return bindings
    return _Point({_fold_unicode(k): Fraction(v) for k, v in bindings.items()})


def _evaluate(rows: Sequence[Mapping], names: Sequence[str], point: Mapping) -> tuple:
    """(T, D): the polynomials {exponent tuple: coefficient} of ``rows``, one
    {key: polynomial} map per row, at ``point``, as {key: value} maps T over
    one int D, a vanishing value left out; a name ``point`` leaves out counts
    as 1.  A value p/q whose name has highest exponent E in the rows enters
    a term of exponent e as p^e q^(E-e), over D, the product of the q^E, so
    int coefficients sum in ints; each exponent's weight is computed once."""
    values = [point.get(nm, 1) for nm in names]
    den, fractions = 1, None
    if Fraction in map(type, values):
        exponents = {e for row in rows for poly in row.values() for e in poly}
        tops = list(map(max, zip(*exponents))) or [0] * len(names)
        fractions = [(i, v.denominator, tops[i]) for i, v in enumerate(values)
                     if v.denominator != 1 and tops[i]]
        den = prod(q ** top for _, q, top in fractions)
        values = [v.numerator for v in values]
    weights: dict = {}
    out = []
    for row in rows:
        totals = {}
        for key, poly in row.items():
            total = 0
            for e, c in poly.items():
                weight = weights.get(e)
                if weight is None:
                    weight = 1
                    for v, k in zip(values, e):
                        if k:
                            weight *= v ** k
                    if fractions:
                        for i, q, top in fractions:
                            weight *= q ** (top - e[i])
                    weights[e] = weight
                total += weight * c
            if total:
                totals[key] = total
        out.append(totals)
    return out, den


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def _mono_str(names, mono) -> str:
    pieces = []
    for name, exp in zip(names, mono):
        if exp == 1:
            pieces.append(name)
        elif exp > 1:
            pieces.append(f"{name}^{exp}")
    return "*".join(pieces)


def _poly_str(terms, names) -> str:
    """(monomial, coefficient) terms, each coefficient an int or a Fraction,
    as text in the given order."""
    out = []
    for mono, c in terms:
        m = _mono_str(names, mono)
        if out:
            out.append(" - " if c < 0 else " + ")
        elif c < 0:
            out.append("-")
        c = abs(c)
        out.append(str(c) if not m else m if c == 1 else f"{c}*{m}")
    return "".join(out)


def _render(s: Scalar) -> str:
    raw = s.raw
    if type(raw) is Fraction:
        return str(raw)
    names = s.ctx.names
    if type(raw) is _Poly:
        num_str = _poly_str(sorted(raw.coeffs.items(), key=_grlex, reverse=True), names)
        if raw.den == 1:
            return num_str
        if len(raw.coeffs) > 1 or num_str.startswith("-"):
            num_str = f"({num_str})"
        return f"{num_str}/{raw.den}"
    # a field element: its denominator is not constant
    num, den = ([(m, _qq_to_fraction(c)) for m, c in poly.terms()]
                for poly in (raw.numer, raw.denom))
    num_str, den_str = _poly_str(num, names), _poly_str(den, names)
    if len(num) > 1 or num_str.startswith("-"):
        num_str = f"({num_str})"
    if len(den) > 1 or "*" in den_str or "^" in den_str:
        den_str = f"({den_str})"
    return f"{num_str}/{den_str}"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# An optionally signed integer or p/q: ``ParameterContext.parse`` reads one
# with q nonzero itself and leaves every other text to ``_Parser``.
_RATIONAL = re.compile(r"\s*([-+]?)\s*([0-9]+)\s*(?:/\s*([0-9]+)\s*)?")

# Parentheses nested deeper than this are a syntax error: each level costs
# the recursive descent five stack frames.
_MAX_NESTING = 100

# An index word of the form-literal syntax: digits, optionally after 'e', or
# 'dt'.  No parameter may be named like one.
_INDEX_WORD = re.compile(r"e?[0-9]+|dt")

# A number, a name, an operator, or any other non-space character, which
# is an error.  Numbers and names are read whole in any script, and are an
# error at their first non-ASCII character: digits are ASCII.
_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<ident>[^\W\d]\w*)|(?P<op>[-+*/^()])|(?P<bad>\S))")


class _Parser:
    """Recursive descent over the tokens of one text: a sum of signed
    terms, each a product and quotient of factors, a factor an optionally
    negated number, parameter or parenthesized sum, raised to an integer.
    ``terms`` reads the text as a form literal, whose top-level terms may
    end in an index word."""

    def __init__(self, ctx: ParameterContext, text: str):
        self.ctx = ctx
        self.text = text
        self.tokens, self.bad = [], None  # the tokens before the first bad character
        for m in _TOKEN.finditer(text):
            kind, value = m.lastgroup, m.group(m.lastgroup)
            if kind == "bad" or not value.isascii():
                at = next((i for i, ch in enumerate(value) if not ch.isascii()), 0)
                self.bad = (value[at], m.start(kind) + at)
                break
            self.tokens.append((kind, value, m.start(kind)))
        self.index = 0
        self.depth = 0  # open parentheses around the current token
        self.words = False  # whether the top level reads index words

    def _peek(self, k: int = 0):
        """The token ``k`` places ahead, or None past the end.  The bad
        character raises where the tokens end, so an error left of it wins."""
        i = self.index + k
        if i >= len(self.tokens) and self.bad:
            raise ScalarSyntaxError(f"unexpected character {self.bad[0]!r}", self.bad[1])
        return self.tokens[i] if i < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            message = "unbalanced '('" if self.depth else "unexpected end of input"
            raise ScalarSyntaxError(message, len(self.text))
        self.index += 1
        return tok

    def terms(self):
        """Each term of a form literal as (sign, coefficient, word, start,
        end): the coefficient a Scalar or None, the index word's text or
        None (a 0-form term), and ``text[start:end]`` the term after its
        separating sign.  A number, eN or dt is an index word when it ends
        its term and stands right after '*' or alone in its term; a sign
        after an operator or '(' belongs to the term."""
        self.words = True
        return self._terms()

    def _is_word(self, k: int) -> bool:
        """Whether the token ``k`` places ahead, at the top level, is a
        number, eN or dt that ends its term."""
        tok = self._peek(k)
        if tok is None or not _INDEX_WORD.fullmatch(tok[1]):
            return False
        after = self._peek(k + 1)
        return after is None or after[1] in ("+", "-")

    def _terms(self):
        """The one signed-term loop: an optional sign, then terms separated
        by + or -; at the top level nothing may follow the last term."""
        top = self.words and not self.depth
        sign = 1
        tok = self._peek()
        if tok is not None and tok[1] in ("+", "-"):
            self.index += 1
            sign = -1 if tok[1] == "-" else 1
        while True:
            tok = self._peek()
            start = tok[2] if tok else len(self.text)
            coeff = word = None
            if top:
                if tok is None:
                    raise ScalarSyntaxError("empty term", start)
                if tok[1] == "+":  # a second sign: the term is not alone
                    self.index += 1
                elif self._is_word(0):
                    word = tok[1]
                    self.index += 1
            if word is None:
                coeff = self._term()
                if top and self.index < len(self.tokens) and self.tokens[self.index][1] == "*":
                    word = self.tokens[self.index + 1][1]  # _term stops before '*' and a word
                    self.index += 2
            tok = self._peek()
            more = tok is not None and tok[1] in ("+", "-")
            if tok is not None and not more and not self.depth:
                if tok[1] == ")":
                    raise ScalarSyntaxError("unbalanced ')'", tok[2])
                shown = int(tok[1]) if tok[0] == "num" else tok[1]
                raise ScalarSyntaxError(f"trailing input {shown!r}", tok[2])
            yield sign, coeff, word, start, tok[2] if tok else len(self.text)
            if not more:
                return
            self.index += 1
            sign = -1 if tok[1] == "-" else 1

    def parse(self) -> Scalar:
        """The value of the text, or of a parenthesized sum."""
        value = None
        for sign, term, _, _, _ in self._terms():
            if value is None:
                value = -term if sign < 0 else term
            else:
                value = value + term if sign > 0 else value - term
        return value

    def _term(self) -> Scalar:
        value = self._factor()
        while True:
            tok = self._peek()
            if tok and tok[0] == "op" and tok[1] in "*/":
                if tok[1] == "*" and self.words and not self.depth and self._is_word(1):
                    return value
                self._next()
                rhs = self._factor()
                if tok[1] == "*":
                    value = value * rhs
                else:
                    if rhs.is_zero:
                        raise ScalarSyntaxError("division by zero scalar", tok[2])
                    value = value / rhs
            else:
                return value

    def _factor(self) -> Scalar:
        negate = False
        while (tok := self._peek()) and tok[:2] == ("op", "-"):
            self._next()
            negate = not negate
        value = self._atom()
        tok = self._peek()
        if tok and tok[:2] == ("op", "^"):
            self._next()
            exp_tok = self._next()
            sign = 1
            if exp_tok[:2] == ("op", "-"):
                sign = -1
                exp_tok = self._next()
            if exp_tok[0] != "num":
                raise ScalarSyntaxError("exponent must be an integer", exp_tok[2])
            exponent = sign * int(exp_tok[1])
            if exponent < 0 and value.is_zero:
                raise ScalarSyntaxError("division by zero scalar", exp_tok[2])
            value = value ** exponent
        return -value if negate else value

    def _atom(self) -> Scalar:
        kind, value, pos = self._next()
        if kind == "num":
            return Scalar(self.ctx, Fraction(int(value)))
        if kind == "ident":
            gen = self.ctx._gens.get(value)
            if gen is None:
                raise ScalarSyntaxError(f"unknown parameter {value!r}", pos)
            return Scalar(self.ctx, gen)
        if value == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ScalarSyntaxError("expression nested too deeply", pos)
            inner = self.parse()
            closing = self._next()  # at the end of the text: unbalanced '('
            if closing[1] != ")":
                raise ScalarSyntaxError("expected ')'", closing[2])
            self.depth -= 1
            return inner
        if value == ")" and not self.depth:
            raise ScalarSyntaxError("unbalanced ')'", pos)
        raise ScalarSyntaxError(f"unexpected token {value!r}", pos)
