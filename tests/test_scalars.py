import functools
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, strategies as st
from sympy import symbols
from sympy.parsing.sympy_parser import parse_expr
from sympy.polys.domains import QQ
from sympy.polys.fields import field

from nilg2.scalars import (
    ParameterContext,
    ScalarError,
    ScalarSyntaxError,
    _Parser,
    _evaluate,
)


@pytest.fixture(scope="module")
def ctx():
    return ParameterContext(("a1", "k", "lam", "z"))


def test_ring_commutativity_cancel(ctx):
    lam, k = ctx.param("lam"), ctx.param("k")
    assert (lam * k - k * lam).is_zero
    assert (lam ** 2 / 2) / (lam / 2) == lam
    assert (2 * k ** 2 * lam) / k == 2 * k * lam


def test_construction_canonicalizes(ctx):
    """Construction already reduces: equal values have equal raw forms and
    hashes, whichever way they were written."""
    s = ctx.parse("(lam^2 - k^2)/(lam + k)")
    assert s == ctx.parse("lam - k")
    assert s.raw == ctx.parse("lam - k").raw and hash(s) == hash(ctx.parse("lam - k"))
    t = ctx.parse("lam/(2*z + 2*a1)")
    assert t == ctx.parse("lam/2") / ctx.parse("z + a1")
    assert t.raw == (ctx.parse("lam/2") / ctx.parse("z + a1")).raw


def test_mixed_paths_reach_the_same_canonical_value(ctx):
    """A field quotient that is a polynomial, or a constant, has the raw
    value and hash of the same value built without the field."""
    s = ctx.parse("(lam^2-k^2)/(lam+k)")
    direct = ctx.param("lam") - ctx.param("k")
    assert s.raw == direct.raw and hash(s) == hash(direct) and str(s) == "-k + lam"
    one = (1 / ctx.param("k")) * ctx.param("k")
    assert type(one.raw) is Fraction and one.raw == 1 and one == 1
    assert hash(one) == hash(ctx.one)


def test_evaluate_examples(ctx):
    assert ctx.parse("lam^2/2").evaluate({"lam": 2}) == Fraction(2)
    assert ctx.parse("3/2*lam^2").evaluate({"lam": 1}) == Fraction(3, 2)
    assert ctx.parse("a1^2 + 2*z^2").evaluate({"a1": 1, "z": 2}) == 9


def test_evaluate_errors(ctx):
    with pytest.raises(ScalarError):
        ctx.parse("lam + k").evaluate({"lam": 1})
    with pytest.raises(ScalarError):
        ctx.parse("1/(lam - 1)").evaluate({"lam": 1})


def test_evaluate_sums_rows_over_one_denominator():
    """``_evaluate`` on Fraction coefficients: a value p/q enters over q^E,
    E the name's highest exponent in the rows, a vanishing value is left
    out, and a name the point leaves out counts as 1."""
    names = ("x", "y", "z")
    rows = [{1: {(1, 0, 0): Fraction(1, 2), (0, 2, 0): Fraction(1, 3), (0, 0, 0): Fraction(-3, 4)},
             2: {(0, 1, 0): Fraction(2, 3)}},
            {4: {(1, 1, 0): Fraction(5, 7)}, 8: {(0, 0, 1): 7}}]
    assert _evaluate(rows, names, {"x": 0, "y": Fraction(3, 2)}) == ([{2: 4}, {8: 28}], 4)
    for point in ({"x": Fraction(-2, 5), "y": Fraction(3, 2), "z": 2}, {"x": 3, "y": -1},
                  {"x": Fraction(7, 3), "y": 0, "z": Fraction(-1, 9)}):
        table, den = _evaluate(rows, names, point)
        direct = [{key: value for key, poly in row.items()
                   if (value := sum(c * prod(Fraction(point.get(nm, 1)) ** k
                                             for nm, k in zip(names, e))
                                    for e, c in poly.items()))} for row in rows]
        assert [{key: Fraction(v) / den for key, v in row.items()} for row in table] == direct, point


def test_division_by_zero(ctx):
    with pytest.raises(ScalarError, match="division by zero scalar"):
        ctx.one / ctx.zero
    with pytest.raises(ScalarError, match="division by zero scalar"):
        ctx.param("lam") / (ctx.param("k") - ctx.param("k"))


def test_unicode_aliases(ctx):
    assert ctx.parse("λ^2") == ctx.parse("lam^2")
    assert ctx.parse("a₁") == ctx.param("a1")


def test_reserved_names_rejected():
    with pytest.raises(ValueError):
        ParameterContext(("e12",))
    with pytest.raises(ValueError):
        ParameterContext(("dt",))
    with pytest.raises(ValueError):
        ParameterContext(("17",))
    for name in ("lam\n", "e12\n"):  # a name is the whole string
        with pytest.raises(ValueError):
            ParameterContext((name,))


def test_scalar_coerces_into_the_context(ctx):
    """A Fraction is taken as it is, an int becomes a Fraction; a bool and a
    Scalar of another context are rejected."""
    value = Fraction(3, 7)
    assert ctx.scalar(value).raw is value
    five = ctx.scalar(5)
    assert type(five.raw) is Fraction and five.raw == 5
    with pytest.raises(TypeError):
        ctx.scalar(True)
    with pytest.raises(ScalarError, match="different parameter context"):
        ctx.scalar(ParameterContext(("lam",)).one)


def test_parse_errors_carry_positions(ctx):
    with pytest.raises(ScalarSyntaxError) as err:
        ctx.parse("lam + ?")
    assert err.value.position == 6
    with pytest.raises(ScalarSyntaxError):
        ctx.parse("lam + unknown_par")
    with pytest.raises(ScalarSyntaxError):
        ctx.parse("(lam + 1")
    # the text ending right after '(' is an unbalanced '(' too
    with pytest.raises(ScalarSyntaxError, match=r"unbalanced '\('") as err:
        ctx.parse("lam*(")
    assert err.value.position == 5


def test_deep_nesting_raises_a_syntax_error(ctx):
    """Parentheses past the nesting limit are a syntax error at the opening
    parenthesis; unary signs are counted, not recursed on."""
    with pytest.raises(ScalarSyntaxError, match="expression nested too deeply") as err:
        ctx.parse("(" * 300 + "1" + ")" * 300)
    assert err.value.position == 100
    assert ctx.parse("(" * 100 + "lam" + ")" * 100) == ctx.param("lam")
    assert ctx.parse("-" * 2000 + "lam") == ctx.param("lam")
    assert ctx.parse("-" * 2001 + "lam^2") == -ctx.param("lam") ** 2
    assert ctx.parse("2*--k") == ctx.parse("2*k")


def test_str_roundtrip(ctx):
    for text in ("lam", "-3/4", "lam^2/2 + k/3", "(3*lam^2 - 1)/(z + a1)",
                 "1/(k^2*lam)", "0", "a1*k*z"):
        s = ctx.parse(text)
        assert ctx.parse(str(s)) == s


small_fracs = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
)


def _scalars(ctx):
    names = st.sampled_from(["lam", "k", "z", "a1"])

    def build(draw_result):
        coeff, name, exponent = draw_result
        base = ctx.scalar(coeff)
        if name is not None:
            base = base * ctx.param(name) ** exponent
        return base

    atoms = st.tuples(
        small_fracs, st.one_of(st.none(), names), st.integers(0, 2)
    ).map(build)
    return st.lists(atoms, min_size=1, max_size=3).map(
        lambda parts: sum(parts[1:], parts[0])
    )


@given(data=st.data())
def test_field_axioms(ctx, data):
    sc = _scalars(ctx)
    a, b, c = data.draw(sc), data.draw(sc), data.draw(sc)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == ctx.zero
    if not a.is_zero:
        assert a * (ctx.one / a) == ctx.one


@given(data=st.data())
def test_evaluate_is_ring_homomorphism(ctx, data):
    sc = _scalars(ctx)
    a, b = data.draw(sc), data.draw(sc)
    binding = {
        name: data.draw(small_fracs) for name in ("lam", "k", "z", "a1")
    }
    assert (a * b).evaluate(binding) == a.evaluate(binding) * b.evaluate(binding)
    assert (a + b).evaluate(binding) == a.evaluate(binding) + b.evaluate(binding)


# ---------------------------------------------------------------------------
# pair arithmetic and printing against sympy's fraction field and its cancel
# ---------------------------------------------------------------------------

_NAMES = ("a1", "k", "lam", "z")
# Q(a1, k, lam, z) in graded-lex order, built here and not taken from nilg2
_FIELD = field(",".join(_NAMES), QQ, order="grlex")[0]
_SYMBOLS = dict(zip(_NAMES, symbols(_NAMES)))


def _to_field(value):
    """A Scalar, Fraction or int as an element of ``_FIELD``, read from its
    text by sympy's parser; the field's constructor reduces it by cancel."""
    return _FIELD.from_expr(parse_expr(str(value).replace("^", "**"), local_dict=_SYMBOLS))


def _poly_text(poly) -> str:
    chunks = []
    for monom, coeff in poly.terms():  # sympy's descending grlex order
        c = Fraction(int(coeff.numerator), int(coeff.denominator))
        m = "*".join(name if e == 1 else f"{name}^{e}"
                     for name, e in zip(_NAMES, monom) if e)
        body = str(abs(c)) if not m else m if abs(c) == 1 else f"{abs(c)}*{m}"
        chunks.append(("-" if c < 0 else "+", body))
    out = ("-" if chunks[0][0] == "-" else "") + chunks[0][1]
    return out + "".join(f" {sign} {body}" for sign, body in chunks[1:])


def _cancel_text(value) -> str:
    """How nilg2 prints the field element ``value``: the (numer, denom)
    pair of cancel, a constant as its Fraction."""
    numer, denom = value.numer, value.denom
    if numer.is_ground and denom.is_ground:
        return str(value.as_expr())  # sympy prints a Rational as Fraction does
    num_text, den_text = _poly_text(numer), _poly_text(denom)
    if den_text == "1":
        return num_text
    if len(numer) > 1 or num_text.startswith("-"):
        num_text = f"({num_text})"
    if len(denom) > 1 or "*" in den_text or "^" in den_text:
        den_text = f"({den_text})"
    return f"{num_text}/{den_text}"


def _assert_cancels_to(ctx, got, expected):
    """``got`` is the canonical value of the field element ``expected``:
    printed as cancel's pair, rational exactly when constant, and equal,
    with an equal hash, to the same value parsed from text."""
    text = _cancel_text(expected)
    assert str(got) == text
    assert got.is_rational == (expected.numer.is_ground and expected.denom.is_ground)
    reparsed = _parsed(ctx, text)
    assert got == reparsed and hash(got) == hash(reparsed)


@functools.lru_cache(maxsize=None)
def _parsed(ctx, text):
    return ctx.parse(text)


_MONOMS = st.tuples(*[st.integers(0, 2)] * len(_NAMES))
_COEFFS = st.dictionaries(_MONOMS, small_fracs.filter(bool), max_size=4)


def _from_coeffs(ctx, coeffs):
    """The Scalar sum of c * params^monom, built by arithmetic."""
    value = ctx.zero
    for monom, c in coeffs.items():
        term = ctx.scalar(c)
        for name, e in zip(_NAMES, monom):
            term = term * ctx.param(name) ** e
        value = value + term
    return value


def _polynomials(ctx):
    """Polynomial-valued scalars (constants included)."""
    return _COEFFS.map(lambda coeffs: _from_coeffs(ctx, coeffs))


def _field_element(coeffs):
    ring = _FIELD.ring
    return _FIELD.field_new(ring.from_dict(
        {m: QQ(c.numerator, c.denominator) for m, c in coeffs.items()}))


@given(data=st.data())
def test_printing_matches_sympy_grlex_terms(ctx, data):
    """str() of a polynomial, and of a quotient of two, is the rendering of
    sympy's grlex terms() of the same value built in sympy's own ring."""
    p, q = data.draw(_COEFFS), data.draw(_COEFFS.filter(bool))
    x, y = _from_coeffs(ctx, p), _from_coeffs(ctx, q)
    assert str(x) == _cancel_text(_field_element(p))
    assert str(x / y) == _cancel_text(_field_element(p) / _field_element(q))


_FAST_OPS = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
}


@given(data=st.data())
def test_fast_path_matches_field_cancel(ctx, data):
    polys = _polynomials(ctx)
    a = data.draw(polys)
    name = data.draw(st.sampled_from(sorted(_FAST_OPS)))
    # division takes the pair path only for a constant divisor
    b = data.draw(small_fracs.filter(bool).map(ctx.scalar) if name == "div" else polys)
    op = _FAST_OPS[name]
    pairs = [(a, b)] if name == "div" else [(a, b), (b, a)]
    for x, y in pairs:
        expected = op(_to_field(x), _to_field(y))
        # a constant operand also enters as a plain Fraction (the reflected ops)
        results = [op(x, y)]
        if x.is_rational:
            results.append(op(x.as_fraction(), y))
        if y.is_rational:
            results.append(op(x, y.as_fraction()))
        for got in results:
            _assert_cancels_to(ctx, got, expected)


_PAIR_CASES = [
    # numerator content sharing a factor with the denominator
    ("6*lam/4", "mul", Fraction(2, 3)),
    ("6*lam/4", "mul", "2/3"),
    ("6*lam/4", "div", Fraction(-3, 2)),
    ("lam/6", "add", "lam/6 + k/3"),
    ("9*lam/4 + 3*k", "mul", Fraction(4, 15)),
    # negative rationals on either side
    ("3*lam/10 + 1/4", "mul", Fraction(-5, 6)),
    ("3*lam/2", "div", Fraction(-9, 4)),
    ("-lam/4 + k", "sub", Fraction(-7, 8)),
    # Fraction - poly and poly + Fraction
    (Fraction(1, 6), "sub", "lam/6 + k/3"),
    ("lam/4 - k/6", "add", Fraction(5, 12)),
    # sums that cancel to a constant or to 0
    ("lam/3 + 1", "sub", "lam/3"),
    ("lam/2 + k/3", "sub", "lam/2 + k/3 - 1/5"),
    ("lam/3 - k", "sub", "lam/3 - k"),
    ("-lam/3 + k", "add", "lam/3 - k"),
    # products of non-monic polynomials
    ("2*lam + 4*k", "mul", "3*lam - 6*z"),
    ("2*lam/3 + 4*k/9", "mul", "3*lam/4 - 6*z"),
    # products whose content meets both denominators
    ("3*lam/2 + 3/2", "mul", "2*k/9 - 4/9"),
    # the field path: a non-constant divisor, and quotients whose result
    # is a polynomial again or a constant
    ("lam^2 - k^2", "div", "lam + k"),
    ("1/k", "mul", "k"),
    ("1/(k*lam)", "mul", "2*k*lam/3"),
    ("1/(z + a1)", "add", "lam/(z + a1)"),
    ("lam/(z + a1)", "sub", "(lam - 2)/(z + a1)"),
]


def _operand(ctx, value):
    return ctx.parse(value) if isinstance(value, str) else value


@pytest.mark.parametrize("left, name, right", _PAIR_CASES)
def test_pair_arithmetic_matches_field_cancel(ctx, left, name, right):
    """Each reduction of the (numerator, denominator) arithmetic, and of the
    field path with its return to a polynomial or a constant, in both
    operand orders where the op allows, prints as the (numer, denom) pair
    of sympy's cancel and has its value and hash."""
    x, y = _operand(ctx, left), _operand(ctx, right)
    op = _FAST_OPS[name]
    orders = [(x, y)] if name == "div" else [(x, y), (y, x)]
    for a, b in orders:
        _assert_cancels_to(ctx, op(a, b), op(_to_field(a), _to_field(b)))


def test_pair_arithmetic_demotes_constants(ctx):
    for text in ("lam - lam + 1", "lam/3 + k/2 - (k/2 + lam/3)", "(2*lam + 4)/6 - lam/3"):
        value = ctx.parse(text)
        assert value.is_rational and type(value.raw) is Fraction
    assert ctx.parse("lam - lam + 1") == 1
    assert ctx.parse("(2*lam + 4)/6 - lam/3") == Fraction(2, 3)


def _symbolic(ctx):
    """Non-constant polynomials and quotients of polynomials, the fixed
    non-polynomial example among them."""
    polys = _polynomials(ctx)
    quotients = st.tuples(polys, polys.filter(bool)).map(lambda pq: pq[0] / pq[1])
    fixed = st.just(ctx.parse("(2 - lam*k)/(3*z)"))
    return st.one_of(fixed, polys, quotients).filter(lambda s: not s.is_rational)


@given(data=st.data())
def test_identity_operands_match_field_cancel(ctx, data):
    """0, 1 and -1, as Scalars and as plain Fractions, on either side of a
    symbolic operand give the value, hash and printed (numer, denom) pair of
    the fraction field and its cancel."""
    x = data.draw(_symbolic(ctx))
    fx = _to_field(x)
    for unit in (Fraction(0), Fraction(1), Fraction(-1)):
        fu = _to_field(unit)
        for u in (unit, ctx.scalar(unit)):
            for name, op in _FAST_OPS.items():
                for a, b, expected in ((x, u, (fx, fu)), (u, x, (fu, fx))):
                    if name == "div" and b is u and not unit:
                        with pytest.raises(ScalarError, match="division by zero"):
                            op(a, b)
                        continue
                    _assert_cancels_to(ctx, op(a, b), op(*expected))


def test_negative_powers_are_canonical(ctx):
    lam = ctx.param("lam")
    assert (-lam) ** -1 == ctx.one / (-lam)
    assert hash((-lam) ** -1) == hash(ctx.parse("-1/lam"))
    s = ctx.parse("(2 - lam*k)/(3*z)")
    for n in (1, 2, 3):
        assert s ** -n == ctx.one / s ** n
    with pytest.raises(ScalarError, match="division by zero scalar"):
        ctx.zero ** -1


def test_powers_square_and_multiply(ctx, monkeypatch):
    """``x ** n`` is the value repeated multiplication gives, with at most
    two products per bit of n, so lam^100000000 is immediate."""
    lam = ctx.param("lam")
    for x in (lam, ctx.parse("(2 - lam*k)/3"), ctx.parse("1/(lam - 2)")):
        product = x
        for n in range(2, 12):
            product = product * x
            assert x ** n == product and str(x ** n) == str(product)
    calls = []
    mul = ParameterContext._mul
    monkeypatch.setattr(ParameterContext, "_mul", lambda self, a, b: (
        calls.append(1), mul(self, a, b))[1])
    for n in (1, 2, 5, 1000, 2 ** 20 - 1, 100000000):
        calls.clear()
        value = lam ** n
        assert len(calls) <= 2 * n.bit_length(), n
    assert str(value) == "lam^100000000"
    assert (value.raw.coeffs, value.raw.den) == ({(0, 0, 100000000, 0): 1}, 1)
    assert value.evaluate({"lam": -1}) == 1


# ---------------------------------------------------------------------------
# rational literals: ParameterContext.parse reads them before the parser
# ---------------------------------------------------------------------------

_SPACE = st.sampled_from(["", " ", "  ", "\t"])
_DIGITS = st.tuples(st.sampled_from(["", "0", "00"]), st.integers(0, 10 ** 6)).map(
    lambda zeros_n: zeros_n[0] + str(zeros_n[1]))


@st.composite
def _literals(draw):
    """An integer or p/q with spaces, leading zeros and up to two signs in
    front of either number; a denominator may be 0."""
    def number():
        signs = draw(st.text("+-", max_size=2))
        return "".join(sign + draw(_SPACE) for sign in signs) + draw(_DIGITS)

    text = draw(_SPACE) + number()
    if draw(st.booleans()):
        text += draw(_SPACE) + "/" + draw(_SPACE) + number()
    return text + draw(_SPACE)


def _outcome(parse):
    """The value parsed, with its raw kind, or the error's message and position."""
    try:
        value = parse()
    except ScalarSyntaxError as exc:
        return "error", exc.message, exc.position
    return "value", value, type(value.raw)


@given(text=_literals())
@example(text="1/0")
@example(text="3/-5")
@example(text="--4")
@example(text="1e3")
@example(text="007/0010")
@example(text=" - 0 / 5 ")
@example(text="٣")
@example(text="1٣/2")
@example(text="１２")
@example(text="-3/０")
@example(text="3/+٣")
def test_rational_literals_parse_as_the_parser_does(ctx, text):
    outcome = _outcome(lambda: ctx.parse(text))
    assert outcome == _outcome(lambda: _Parser(ctx, text).parse())
    if not text.isascii():  # digits are ASCII: no other decimal digit is a number
        # the leftmost error wins: at the first non-ASCII character, or left of it
        first = next(i for i, ch in enumerate(text) if not ch.isascii())
        assert outcome[0] == "error" and outcome[2] <= first
        if outcome[2] == first:
            assert outcome[1] == f"unexpected character {text[first]!r}"
