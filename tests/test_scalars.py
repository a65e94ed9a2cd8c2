from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nilg2.scalars import (
    ParameterContext,
    Scalar,
    ScalarError,
    ScalarSyntaxError,
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


def test_evaluate_examples(ctx):
    assert ctx.parse("lam^2/2").evaluate({"lam": 2}) == Fraction(2)
    assert ctx.parse("3/2*lam^2").evaluate({"lam": 1}) == Fraction(3, 2)
    assert ctx.parse("a1^2 + 2*z^2").evaluate({"a1": 1, "z": 2}) == 9


def test_evaluate_errors(ctx):
    with pytest.raises(ScalarError):
        ctx.parse("lam + k").evaluate({"lam": 1})
    with pytest.raises(ScalarError):
        ctx.parse("1/(lam - 1)").evaluate({"lam": 1})


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


def test_parse_errors_carry_positions(ctx):
    with pytest.raises(ScalarSyntaxError) as err:
        ctx.parse("lam + ?")
    assert err.value.position == 6
    with pytest.raises(ScalarSyntaxError):
        ctx.parse("lam + unknown_par")
    with pytest.raises(ScalarSyntaxError):
        ctx.parse("(lam + 1")


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
# ring fast path against the fraction field and its cancel
# ---------------------------------------------------------------------------


def _via_field(ctx, raw):
    """The canonical Scalar of a field element, built only by sympy's cancel."""
    value = ctx._field.new(raw.numer, raw.denom)
    if value.numer.is_ground and value.denom.is_ground:
        num = Fraction(int(value.numer.LC.numerator), int(value.numer.LC.denominator)) \
            if value.numer else Fraction(0)
        den = Fraction(int(value.denom.LC.numerator), int(value.denom.LC.denominator))
        return Scalar(ctx, num / den)
    return Scalar(ctx, value)


def _field_raw(ctx, s):
    if s.is_rational:
        q = s.as_fraction()
        return ctx._field(q.numerator) / ctx._field(q.denominator)
    return s.raw


def _polynomials(ctx):
    """Polynomial-valued scalars (constants included), canonicalized by cancel."""
    ring = ctx._field.ring
    monoms = st.tuples(*[st.integers(0, 2)] * len(ctx.names))
    terms = st.dictionaries(monoms, small_fracs.filter(bool), max_size=4)

    def build(coeffs):
        poly = ring.from_dict({m: ring.domain(c.numerator, c.denominator)
                               for m, c in coeffs.items()})
        return _via_field(ctx, ctx._field.raw_new(poly, ring.one))

    return terms.map(build)


_FAST_OPS = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
}


def _assert_same_canonical(got, expected):
    assert got == expected
    assert type(got.raw) is type(expected.raw)
    assert hash(got) == hash(expected)
    if not got.is_rational:
        assert (got.raw.numer, got.raw.denom) == (expected.raw.numer, expected.raw.denom)


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
        expected = _via_field(ctx, op(_field_raw(ctx, x), _field_raw(ctx, y)))
        # a constant operand also enters as a plain Fraction (the reflected ops)
        results = [op(x, y)]
        if x.is_rational:
            results.append(op(x.as_fraction(), y))
        if y.is_rational:
            results.append(op(x, y.as_fraction()))
        for got in results:
            _assert_same_canonical(got, expected)


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
]


def _operand(ctx, value):
    return ctx.parse(value) if isinstance(value, str) else value


@pytest.mark.parametrize("left, name, right", _PAIR_CASES)
def test_pair_arithmetic_matches_field_cancel(ctx, left, name, right):
    """Each reduction of the (numerator, denominator) arithmetic, in both
    operand orders where the op allows, gives the value, raw type, hash and
    (numer, denom) pair of the fraction field and its cancel."""
    x, y = _operand(ctx, left), _operand(ctx, right)
    op = _FAST_OPS[name]
    orders = [(x, y)] if name == "div" else [(x, y), (y, x)]
    for a, b in orders:
        expected = _via_field(ctx, op(_field_raw(ctx, ctx.scalar(a)),
                                      _field_raw(ctx, ctx.scalar(b))))
        _assert_same_canonical(op(a, b), expected)


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
    quotients = st.tuples(polys, polys.filter(bool)).map(
        lambda pq: _via_field(ctx, _field_raw(ctx, pq[0]) / _field_raw(ctx, pq[1])))
    fixed = st.just(ctx.parse("(2 - lam*k)/(3*z)"))
    return st.one_of(fixed, polys, quotients).filter(lambda s: not s.is_rational)


@given(data=st.data())
def test_identity_operands_match_field_cancel(ctx, data):
    """0, 1 and -1, as Scalars and as plain Fractions, on either side of a
    symbolic operand give the value, type, hash and (numer, denom) pair of
    the fraction field and its cancel."""
    x = data.draw(_symbolic(ctx))
    for unit in (Fraction(0), Fraction(1), Fraction(-1)):
        for u in (unit, ctx.scalar(unit)):
            for name, op in _FAST_OPS.items():
                for a, b in ((x, u), (u, x)):
                    if name == "div" and b is u and not unit:
                        with pytest.raises(ScalarError, match="division by zero"):
                            op(a, b)
                        continue
                    expected = _via_field(ctx, op(_field_raw(ctx, ctx.scalar(a)),
                                                  _field_raw(ctx, ctx.scalar(b))))
                    _assert_same_canonical(op(a, b), expected)


def test_negative_powers_are_canonical(ctx):
    lam = ctx.param("lam")
    assert (-lam) ** -1 == ctx.one / (-lam)
    assert hash((-lam) ** -1) == hash(ctx.parse("-1/lam"))
    s = ctx.parse("(2 - lam*k)/(3*z)")
    for n in (1, 2, 3):
        assert s ** -n == ctx.one / s ** n
    with pytest.raises(ScalarError, match="division by zero scalar"):
        ctx.zero ** -1
