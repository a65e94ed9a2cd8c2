"""Exterior algebra over an orthonormal coframe in dimension 6 or 7.

Forms are sparse maps from index subsets (stored as bitmasks, index ``i`` at
bit ``i-1``) to scalars.  The positively oriented volume form is
``e^{1...n}``; in dimension 7 the seventh coframe element is ``dt`` and all
product formulas in this package write it as the last factor.

Conventions fixed here (and pinned by tests):

* Hodge star: ``*e^I = sign(I, I^c) e^{I^c}`` with the permutation-parity
  sign of the concatenation ``(I, I^c)`` relative to ``(1..n)``; this gives
  ``a ^ *b = <a,b> vol`` on orthonormal monomials.
* Inner product: ``<e^I, e^J> = delta_IJ``, bilinear.
* Almost complex structure on 1-forms: ``J e^{2m-1} = -e^{2m}``,
  ``J e^{2m} = e^{2m-1}``; its factor-wise extension sends the standard
  ``psi_plus`` to ``psi_minus``.
* Contraction is metric-adjoint: ``<x _| a, b> = <a, x ^ b>``.

A coframe substitution, a basis change or J, is one routine,
``substitute_coframe``: the algebra map sending e^i to a given 1-form and
each index word to the wedge product of the images of its letters.

The splitting of a 4-form as c0 omega^2 + gamma ^ psi + W2 ^ omega,
``lefschetz_coefficients``, is an orthogonal projection on the lines
omega^2 and e^i ^ psi, which ``line_norms`` checks orthogonal once per frame.
One kernel, ``_projections``, computes every <a, l>/<l, l> of a family of
fixed lines in one pass over a's components: the lines are held transposed,
by mask, as ints over one denominator (``_Lines``, built once per frame),
and a form with polynomial coefficients is summed in ints on its numerators.

A form's components as numerators over one int, ``Form._scaled``, are
computed once per form and kept, so a frame's cached forms (omega, psi+-,
phi, *phi) are converted once.  ``Form.__init__`` drops zero components;
producers that cannot make one (``hodge``, negation, scaling by a nonzero
factor, ``LieAlgebra.d`` on numerators) build through ``Form._unchecked``.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .scalars import (
    ParameterContext,
    Scalar,
    ScalarSyntaxError,
    _fold_with_origins,
    _Parser,
    _Poly,
    _reduced,
)

__all__ = [
    "FrameContext",
    "Form",
    "ExteriorError",
    "hodge",
    "inner",
    "interior",
    "j_apply",
    "lefschetz_coefficients",
    "parse_form",
    "standard_su3_forms",
    "substitute_coframe",
]


class ExteriorError(ValueError):
    """Contract violations: context mismatch, grade errors, module errors."""


@functools.lru_cache(maxsize=None)
def _bits(mask: int) -> Tuple[int, ...]:
    """The indices of a bitmask, ascending."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _letters(mask: int) -> Tuple[Tuple[int, int, bool], ...]:
    """The letters of an index word, as the Leibniz rule splits it: (i,
    rest, odd) per letter, i its index less 1, rest the word without it and
    odd whether its place (from 0) is odd."""
    return tuple((idx - 1, mask & ~(1 << (idx - 1)), j % 2 == 1)
                 for j, idx in enumerate(_bits(mask)))


def _mask(indices: Iterable[int]) -> Tuple[int, int]:
    """(sign, bitmask) of a possibly unsorted index word; sign 0 on repeats."""
    sign = 1
    mask = 0
    for idx in indices:
        bit = 1 << (idx - 1)
        if mask & bit:
            return 0, 0
        sign *= _merge_sign(mask, bit)
        mask |= bit
    return sign, mask


@functools.lru_cache(maxsize=None)
def _merge_sign(a: int, b: int) -> int:
    """Parity sign of sorting the concatenation (bits of a, bits of b).

    Called on disjoint masks of a frame, so the cache holds at most 3^7
    entries."""
    inversions = 0
    bb = b
    while bb:
        low = bb & -bb
        pos = low.bit_length()  # index value
        inversions += bin(a >> pos).count("1")
        bb ^= low
    return -1 if inversions % 2 else 1


def _wedge(a: Mapping, b: Mapping) -> dict:
    """The components of a ^ b from those of a and b, whatever their values
    (Scalars or ints); a sum that cancels is kept as a zero.  A coefficient
    of ``a`` equal to 1 multiplies nothing."""
    comps: dict = {}
    for ma, ca in a.items():
        unit = ca == 1
        for mb, cb in b.items():
            if ma & mb:
                continue
            m = ma | mb
            term = cb if unit else ca * cb
            prev = comps.get(m)
            if _merge_sign(ma, mb) > 0:
                comps[m] = term if prev is None else prev + term
            else:
                comps[m] = -term if prev is None else prev - term
    return comps


def _as_numerators(forms: Sequence[Mapping], zero: tuple) -> Optional[Tuple[List[dict], int]]:
    """(N, M): the components of ``forms`` as numerators {exponent: int}
    over one positive int M, the lcm of their denominators, one {mask:
    numerator} map per form; a Fraction is a numerator at ``zero`` alone.
    A rational-function coefficient gives None."""
    dens = set()
    for comps in forms:
        for c in comps.values():
            kind = type(c.raw)
            if kind is Fraction:
                dens.add(c.raw.denominator)
            elif kind is _Poly:
                dens.add(c.raw.den)
            else:
                return None
    scale = lcm(*dens)
    out = []
    for comps in forms:
        row = {}
        for m, c in comps.items():
            raw = c.raw
            if type(raw) is Fraction:
                row[m] = {zero: raw.numerator * (scale // raw.denominator)}
            else:
                k = scale // raw.den
                row[m] = raw.coeffs if k == 1 else {e: x * k for e, x in raw.coeffs.items()}
        out.append(row)
    return out, scale


class FrameContext:
    """An orthonormal coframe e^1..e^n, n in {6, 7}; for n = 7, e^7 = dt."""

    __slots__ = ("dim", "params", "full_mask")

    def __init__(self, dim: int, params: ParameterContext):
        if dim not in (6, 7):
            raise ExteriorError(f"frame dimension must be 6 or 7, got {dim}")
        self.dim = dim
        self.params = params
        self.full_mask = (1 << dim) - 1

    def __eq__(self, other):
        return (
            isinstance(other, FrameContext)
            and self.dim == other.dim
            and self.params is other.params
        )

    def __hash__(self):
        return hash((self.dim, self.params.names))

    def __repr__(self):
        return f"FrameContext(dim={self.dim})"

    def zero_form(self) -> "Form":
        return Form(self, {})

    def basis(self, *indices: int) -> "Form":
        for idx in indices:
            if not 1 <= idx <= self.dim:
                raise ExteriorError(f"index {idx} out of range for dim {self.dim}")
        sign, mask = _mask(indices)
        if sign == 0:
            return self.zero_form()
        coeff = self.params.one if sign == 1 else -self.params.one
        return Form(self, {mask: coeff})

    def volume(self) -> "Form":
        return Form(self, {self.full_mask: self.params.one})


class Form:
    """A sparse exterior form; mixed grades are allowed."""

    __slots__ = ("ctx", "comps", "_numerators")

    def __init__(self, ctx: FrameContext, comps: Mapping[int, Scalar]):
        self.ctx = ctx
        self.comps = {m: c for m, c in comps.items() if c.raw}
        self._numerators = None

    @classmethod
    def _unchecked(cls, ctx: FrameContext, comps: dict) -> "Form":
        """The form with components ``comps``, taken as they are: for
        producers whose components cannot be zero."""
        form = cls.__new__(cls)
        form.ctx = ctx
        form.comps = comps
        form._numerators = None
        return form

    def _scaled(self) -> Optional[Tuple[dict, int]]:
        """(N, M): the components as numerators {exponent: int} over one
        positive int M, or None when a coefficient is a rational function;
        computed on first use (``_as_numerators``) and kept, or handed on by
        the producer (``LieAlgebra.d``)."""
        scaled = self._numerators
        if scaled is None:
            found = _as_numerators([self.comps], self.ctx.params._zero_monom)
            scaled = self._numerators = False if found is None else (found[0][0], found[1])
        return scaled or None

    # -- basic structure ----------------------------------------------------

    def grades(self) -> Tuple[int, ...]:
        return tuple(sorted({bin(m).count("1") for m in self.comps}))

    @property
    def is_zero(self) -> bool:
        return not self.comps

    def homogeneous_grade(self) -> Optional[int]:
        """The grade if homogeneous (None for the zero form); error if mixed."""
        gs = self.grades()
        if len(gs) > 1:
            raise ExteriorError(f"mixed-grade form (grades {gs})")
        return gs[0] if gs else None

    def coefficient(self, *indices: int) -> Scalar:
        sign, mask = _mask(indices)
        if sign == 0:
            return self.ctx.params.zero
        c = self.comps.get(mask)
        if c is None:
            return self.ctx.params.zero
        return c if sign == 1 else -c

    def items(self):
        """Deterministic iteration: ascending bitmask."""
        return [(m, self.comps[m]) for m in sorted(self.comps)]

    def terms(self) -> List[Tuple[Tuple[int, ...], Scalar]]:
        return [(tuple(_bits(m)), c) for m, c in self.items()]

    # -- ring operations ----------------------------------------------------

    def _require_same(self, other: "Form"):
        if self.ctx != other.ctx:
            raise ExteriorError("frame context mismatch")

    def __add__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        self._require_same(other)
        comps = dict(self.comps)
        for m, c in other.comps.items():
            prev = comps.get(m)
            comps[m] = c if prev is None else prev + c
        return Form(self.ctx, comps)

    def __sub__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        self._require_same(other)
        comps = dict(self.comps)
        for m, c in other.comps.items():
            prev = comps.get(m)
            comps[m] = -c if prev is None else prev - c
        return Form(self.ctx, comps)

    def __neg__(self) -> "Form":
        return Form._unchecked(self.ctx, {m: -c for m, c in self.comps.items()})

    def scale(self, factor) -> "Form":
        factor = self.ctx.params.scalar(factor)
        if factor == 1:
            return self
        if not factor.raw:
            return self.ctx.zero_form()
        return Form._unchecked(self.ctx, {m: c * factor for m, c in self.comps.items()})

    def __mul__(self, factor):
        if isinstance(factor, (int, Fraction, Scalar)):
            return self.scale(factor)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self.ctx == other.ctx and self.comps == other.comps

    def __hash__(self):
        return hash((self.ctx, tuple(sorted((m, c) for m, c in self.comps.items()))))

    def wedge(self, other: "Form") -> "Form":
        self._require_same(other)
        return Form(self.ctx, _wedge(self.comps, other.comps))

    def __str__(self):
        return form_str(self)

    def __repr__(self):
        return f"Form({form_str(self)})"


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------


def hodge(a: Form) -> Form:
    """Hodge star; requires a homogeneous form."""
    a.homogeneous_grade()
    full = a.ctx.full_mask
    comps: Dict[int, Scalar] = {}
    for m, c in a.comps.items():
        comp = full & ~m
        sign = _merge_sign(m, comp)
        comps[comp] = c if sign == 1 else -c
    return Form._unchecked(a.ctx, comps)


def inner(a: Form, b: Form) -> Scalar:
    """<a, b> with orthonormal monomials; grades pair off diagonally."""
    if a.ctx != b.ctx:
        raise ExteriorError("frame context mismatch")
    total = a.ctx.params.zero
    small, large = (a, b) if len(a.comps) <= len(b.comps) else (b, a)
    for m, c in small.comps.items():
        other = large.comps.get(m)
        if other is not None:
            total = total + c * other
    return total


def interior(x: Form, a: Form) -> Form:
    """Metric contraction x _| a defined by <x _| a, d> = <a, x ^ d>."""
    if x.ctx != a.ctx:
        raise ExteriorError("frame context mismatch")
    gx, ga = x.homogeneous_grade(), a.homogeneous_grade()
    if gx is None or ga is None:
        return a.ctx.zero_form()
    if ga < gx:
        raise ExteriorError("cannot contract: form degree lower than contractor")
    comps: Dict[int, Scalar] = {}
    for mx, cx in x.comps.items():
        for ma, ca in a.comps.items():
            if mx & ma != mx:
                continue
            rest = ma & ~mx
            term = cx * ca
            prev = comps.get(rest)
            if _merge_sign(mx, rest) > 0:
                comps[rest] = term if prev is None else prev + term
            else:
                comps[rest] = -term if prev is None else prev - term
    return Form(a.ctx, comps)


# J e^{2m-1} = -e^{2m}, J e^{2m} = e^{2m-1} as int substitution rows: row i
# sends e^{i+1} (i = 0..5) to -e^{i+2} for even i and to e^i for odd i
_J_ROWS = tuple(tuple((1 if i & 1 else -1) if j == i ^ 1 else 0 for j in range(6))
                for i in range(6))


def j_apply(a: Form) -> Form:
    """The standard almost complex structure of a's 6-dimensional frame,
    applied to ``a`` factor-wise."""
    if a.ctx.dim != 6:
        raise ExteriorError("complex structure requires a 6-dimensional frame")
    return substitute_coframe(a, _J_ROWS)


def _linear_combination(terms) -> dict:
    """The components of sum c * a over the (c, a) of ``terms``; a sum that
    cancels is kept as a zero.  A unit c multiplies nothing.  When c is a
    Scalar and the values of a are ints, each term is the Scalar c * x, and
    c or -c for x = 1 or -1, so no int reaches a Form."""
    comps: dict = {}
    for c, a in terms:
        mixed = type(c) is Scalar and type(next(iter(a.values()), c)) is int
        unit = not mixed and c == 1
        for m, x in a.items():
            if mixed:
                term = c if x == 1 else -c if x == -1 else c * x
            else:
                term = x if unit else c * x
            prev = comps.get(m)
            comps[m] = term if prev is None else prev + term
    return comps


def _pull_back(tables: Sequence[Mapping], rows: Sequence[Sequence]) -> List[dict]:
    """The components of the images of the forms with components ``tables``
    under the algebra map e^i -> sum_j rows[i-1][j-1] e^j; each index word's
    image is built once per call, as the image of the word less its last
    letter wedged with that letter's row."""
    words = {1 << i: {1 << j: c for j, c in enumerate(row) if c} for i, row in enumerate(rows)}
    words[0] = {0: 1}  # the empty word: the 0-form 1

    def image(mask: int) -> dict:
        if mask not in words:
            last = 1 << (mask.bit_length() - 1)
            words[mask] = _wedge(image(mask ^ last), words[last])
        return words[mask]

    return [_linear_combination((c, image(m)) for m, c in table.items()) for table in tables]


def substitute_coframe(a: Form, rows: Sequence[Sequence]) -> Form:
    """The algebra map e^i -> sum_j rows[i-1][j-1] e^j applied to ``a``.

    Each e^I = e^{i1} ^ ... ^ e^{ik} goes to the wedge product of the rows
    it names, so the signs are those of ``_wedge``; each word's image is
    built once, by ``_pull_back``.  The rows are Scalars, or ints: a matrix
    R/q scaled to the int matrix R over a positive int q, whose word images
    are then computed in ints and send a k-form to q^k times its image
    under R/q (the images are Scalars all the same).  A basis change
    f = B e pulls a form written in the f^i back to the e^i with the rows
    of B, and the volume goes to det(B) times itself.
    """
    return Form(a.ctx, _pull_back([a.comps], rows)[0])


# ---------------------------------------------------------------------------
# Lefschetz-style decomposition of a 4-form
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _basis_masks(dim: int, grade: int) -> Tuple[int, ...]:
    return tuple(sum(1 << i for i in combo) for combo in itertools.combinations(range(dim), grade))


def line_norms(lines: Sequence[Form], labels: Sequence[str], error=ExteriorError):
    """The squared norms <l, l> of ``lines``, checked mutually orthogonal
    and nonzero, so that a form's component along the line of l is
    <a, l>/<l, l> l.  Raises ``error`` naming the first pair of lines that
    is not orthogonal, or the first line of zero norm."""
    norms = []
    for i, line in enumerate(lines):
        for j in range(i + 1, len(lines)):
            value = inner(line, lines[j])
            if not value.is_zero:
                raise error(f"lines {labels[i]} and {labels[j]} are not orthogonal: "
                            f"inner product {value}")
        norm = inner(line, line)
        if norm.is_zero:
            raise error(f"line {labels[i]} has zero norm")
        norms.append(norm)
    return tuple(norms)


def _line_table(lines: Sequence[Tuple[Form, Scalar]]) -> Tuple[Dict[int, tuple], int]:
    """(C, W): the components l[m]/<l, l> of the rational lines (l,
    1/<l, l>) of ``lines`` transposed, {mask: ((i, K), ...)} with l_i[m] *
    inv_i = K/W, ints over one positive int W."""
    weights = [(m, i, c.as_fraction() * inv.as_fraction())
               for i, (line, inv) in enumerate(lines) for m, c in line.comps.items()]
    den = lcm(*(w.denominator for _, _, w in weights))
    table: Dict[int, list] = {}
    for m, i, w in weights:
        table.setdefault(m, []).append((i, w.numerator * (den // w.denominator)))
    return {m: tuple(cells) for m, cells in table.items()}, den


class _Lines(tuple):
    """Lines (l, 1/<l, l>), with their transposed table ``_line_table``,
    built once with them."""

    def __new__(cls, pairs):
        self = super().__new__(cls, pairs)
        self.table = _line_table(self)
        return self


def _projections(a: Form, lines: Sequence[Tuple[Form, Scalar]]) -> List[Scalar]:
    """<a, l>/<l, l> for every (l, 1/<l, l>) of ``lines``, in one pass over
    a's components through the transposed table (that of a ``_Lines``, else
    built here).  Numerators of a over M are summed in ints, each value
    reduced once over M*W; a rational-function coefficient sums Scalars."""
    table, den = lines.table if isinstance(lines, _Lines) else _line_table(lines)
    params = a.ctx.params
    scaled = a._scaled()
    if scaled is None:
        totals = [params.zero] * len(lines)
        for m, x in a.comps.items():
            for i, k in table.get(m, ()):
                totals[i] = totals[i] + x * k
        return [x / den for x in totals]
    numerators, scale = scaled
    sums: List[dict] = [{} for _ in lines]
    for m, numer in numerators.items():
        for i, k in table.get(m, ()):
            acc = sums[i]
            for e, x in numer.items():
                acc[e] = acc.get(e, 0) + k * x
    den *= scale
    zero = params._zero_monom
    out = []
    for acc in sums:
        numer = {e: x for e, x in acc.items() if x}
        out.append(Scalar(params, _reduced(numer, den, zero)) if numer else params.zero)
    return out


@functools.lru_cache(maxsize=32)
def _omega_squared(ctx: FrameContext) -> Form:
    """omega ^ omega of the standard forms, once per frame."""
    omega = standard_su3_forms(ctx)[0]
    return omega.wedge(omega)


@functools.lru_cache(maxsize=32)
def _lefschetz_solver(ctx: FrameContext, slot: str) -> _Lines:
    """The lines omega^2 and e^i ^ psi_slot of the standard forms, each with
    the inverse of its squared norm (1/12 and 1/2), checked orthogonal once
    per frame and slot."""
    psi = standard_su3_forms(ctx)[1 if slot == "plus" else 2]
    lines = (_omega_squared(ctx),) + tuple(ctx.basis(i).wedge(psi) for i in range(1, 7))
    labels = ("omega^2",) + tuple(f"e^{i} ^ psi_{slot}" for i in range(1, 7))
    return _Lines((line, 1 / norm) for line, norm in zip(lines, line_norms(lines, labels)))


def lefschetz_coefficients(a: Form, slot: str = "plus") -> Tuple[Scalar, Form, Form]:
    """Split a = c0 omega^2 + gamma ^ psi_slot + W2 ^ omega in Lambda^4.

    The forms are the standard ones of ``a.ctx``; ``slot`` selects whether
    the 1-form coefficient multiplies psi_plus or psi_minus.  The three
    summands are orthogonal (Chiossi and Salamon, "The intrinsic torsion of
    SU(3) and G2 structures", 2002), so c0 and gamma are projections on the
    lines omega^2 and e^i ^ psi, and W2 = -*(a - c0 omega^2 - gamma ^ psi),
    primitive of type (1,1).
    """
    ctx = a.ctx
    if ctx.dim != 6:
        raise ExteriorError("lefschetz decomposition requires a 6-dimensional frame")
    if a.homogeneous_grade() not in (None, 4):
        raise ExteriorError("lefschetz decomposition expects a 4-form")
    omega, psi_plus, psi_minus = standard_su3_forms(ctx)
    psi = psi_plus if slot == "plus" else psi_minus
    c0, *coords = _projections(a, _lefschetz_solver(ctx, slot))
    gamma = Form(ctx, {1 << i: c for i, c in enumerate(coords)})
    # omega^2 comes from its own cache, not from the solver's first line, so
    # the check below also catches a wrong cached line
    rest = a - _omega_squared(ctx).scale(c0) - gamma.wedge(psi)
    w2 = -hodge(rest)
    # The reconstruction a = c0 omega^2 + gamma ^ psi + W2 ^ omega, that is
    # W2 ^ omega = rest.  As -L* (L = ^ omega) is +1 on Lambda^2_8 ^ omega,
    # -1 on Lambda^1 ^ psi and -2 on omega^2, it holds exactly when the
    # projections left rest in Lambda^2_8 ^ omega: it certifies all three.
    if w2.wedge(omega) != rest:
        raise ExteriorError("form outside expected module")
    return c0, gamma, w2


# ---------------------------------------------------------------------------
# standard model forms
# ---------------------------------------------------------------------------


# omega, psi_plus and psi_minus of the standard model, in form-literal syntax
_STANDARD_SU3 = ("12 + 34 + 56", "135 - 146 - 236 - 245", "136 + 145 + 235 - 246")


@functools.lru_cache(maxsize=32)
def standard_su3_forms(ctx: FrameContext) -> Tuple[Form, Form, Form]:
    """(omega, psi_plus, psi_minus) of the standard model in this frame.

    omega = e12 + e34 + e56 and psi_plus + i psi_minus is the product of the
    complex 1-forms (e1 + i e2)(e3 + i e4)(e5 + i e6).  The identity
    psi+ ^ psi- = (2/3) omega^3 = 4 e^{123456} is checked once per frame, when
    the forms are first built; a coframe substitution multiplies both sides
    alike, so no adaptation can break it.
    """
    om, psip, psim = (parse_form(ctx, text) for text in _STANDARD_SU3)
    volume = psip.wedge(psim)
    for name, value in (("(2/3) omega^3", om.wedge(om).wedge(om).scale(Fraction(2, 3))),
                        ("4 e^{123456}", ctx.basis(1, 2, 3, 4, 5, 6).scale(4))):
        if volume != value:
            raise ExteriorError(f"standard forms broken: psi+ ^ psi- - {name} "
                                f"residual {volume - value}")
    return om, psip, psim


# ---------------------------------------------------------------------------
# form literal syntax
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _word(mask: int) -> Tuple[Tuple[int, Tuple[int, ...]], str]:
    """The sort key (grade, indices) and the index word of a mask, for
    ``form_str``; a frame has at most 2^7 masks."""
    bits = _bits(mask)
    return (len(bits), bits), "".join(map(str, bits))


def _sort_key(item) -> Tuple[int, Tuple[int, ...]]:
    return _word(item[0])[0]


def form_str(a: Form) -> str:
    """Render in the form-literal syntax, e.g. ``12 + 34 - 3/2*56``."""
    if not a.comps:
        return "0"
    pieces = []
    for mask, coeff in sorted(a.comps.items(), key=_sort_key):
        text = str(coeff)
        negated = text.startswith("-") and " + " not in text and " - " not in text
        if negated:
            text = text[1:]
        # a 0-form term is always parenthesized: a bare 2 would read as e^2
        if not mask or " + " in text or " - " in text:
            text = f"({text})"
        idx = _word(mask)[1]
        body = text if not mask else idx if text == "1" else f"{text}*{idx}"
        pieces.append(f"-{body}" if negated else body)
    out = pieces[0]
    for body in pieces[1:]:
        if body.startswith("-"):
            out += f" - {body[1:]}"
        else:
            out += f" + {body}"
    return out


class FormSyntaxError(ScalarSyntaxError):
    """Malformed form-literal text; carries the offending position."""


def parse_form(ctx: FrameContext, text: str) -> Form:
    """Parse the form-literal syntax, e.g. ``12 + 34 - 3/2*56``.

    The scalar parser reads the literal as a sum of signed terms, each an
    optional scalar expression followed by '*' and an index word.  An index
    word is a digit string, optionally after 'e', with no digit 0 or
    repeated, or 'dt' (dimension 7 only); it ends its term and stands right
    after '*' or alone in its term, so a bare integer is an index word:
    '1' is e^1, and the 0-form 1 is written '(1)', as ``form_str`` prints
    it.  A term without an index word is a 0-form; the bare term '0'
    denotes the zero form.  Every error raises FormSyntaxError, at a
    position counted in ``text`` as typed.
    """
    if text.strip() == "0":  # the commonest entry of a Salamon table
        return ctx.zero_form()
    folded, origins = _fold_with_origins(text)
    params = ctx.params
    comps: Dict[int, Scalar] = {}
    try:
        for sign, coeff, word, start, end in _Parser(params, folded).terms():
            mask = 0
            if word is not None:
                digits = word.lstrip("e")
                if digits == "0" and coeff is None:
                    continue
                indices = (7,) if word == "dt" else tuple(map(int, digits))
                term = folded[start:end].rstrip()
                if 0 in indices:
                    raise FormSyntaxError(f"index 0 in term {term!r}", start)
                if len(set(indices)) < len(indices):
                    raise FormSyntaxError(f"repeated index in term {term!r}", start)
                if max(indices) > ctx.dim:
                    idx = next(i for i in indices if i > ctx.dim)
                    raise FormSyntaxError(f"index {idx} out of range for dimension {ctx.dim}", start)
                perm, mask = _mask(indices)
                sign *= perm
            value = params.one if coeff is None else coeff
            prev = comps.get(mask, params.zero)
            comps[mask] = prev + value if sign > 0 else prev - value
    except ScalarSyntaxError as exc:
        raise FormSyntaxError(exc.message, origins[exc.position]) from None
    return Form(ctx, comps)
