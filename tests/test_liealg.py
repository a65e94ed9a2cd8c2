import random
from fractions import Fraction
from math import lcm

import pytest

from nilg2.exterior import (ExteriorError, FormSyntaxError, FrameContext, _basis_masks, _wedge,
                            form_str, parse_form, substitute_coframe)
from nilg2 import families, liealg, linalg
from nilg2.families import FAMILIES, case2_gauge_rotation
from nilg2.liealg import (
    NAMED_ALGEBRAS,
    BasisChange,
    GenericEvaluationError,
    JacobiError,
    LieAlgebra,
    NilpotencyError,
    SalamonSyntaxError,
    betti_numbers,
    change_basis,
    fingerprint,
    is_isomorphic_via,
    jacobi_certificates,
    parse_salamon,
    salamon_str,
)
from nilg2.scalars import ParameterContext, Scalar, ScalarError, ScalarSyntaxError, _Poly


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_examples(pctx):
    g = parse_salamon("0,0,12,13,23,14", pctx)
    assert g.d_table[5] == g.ctx.basis(1, 4)
    iw = parse_salamon("0,0,0,0,13+42,14+23", pctx)
    assert iw.d_table[4] == iw.ctx.basis(1, 3) - iw.ctx.basis(2, 4)
    fam = parse_salamon("0,lam*35,k*15,-lam*15+k*25,0,lam*13", pctx)
    lam = pctx.param("lam")
    assert fam.d_table[1] == fam.ctx.basis(3, 5).scale(lam)


def test_parse_errors(pctx):
    with pytest.raises(SalamonSyntaxError):
        parse_salamon("0,0,12", pctx)
    with pytest.raises(SalamonSyntaxError):
        parse_salamon("0,0,12,13,23,1x", pctx)
    with pytest.raises(SalamonSyntaxError):
        parse_salamon("0,0,12,13,23,11", pctx)  # repeated index
    with pytest.raises(SalamonSyntaxError):
        parse_salamon("0,0,12,13,23,19", pctx)  # out of range
    # an entry of another grade is a well-formed literal, rejected by LieAlgebra
    with pytest.raises(ExteriorError, match="d e\\^6 must be a 2-form"):
        parse_salamon("0,0,12,13,23,123", pctx)
    # so is one that mixes a 2-form with a 0-, 1- or 3-form
    for entry in ("12+3", "12+(2)", "12+345"):
        with pytest.raises(ExteriorError, match="d e\\^6 must be a 2-form"):
            parse_salamon(f"0,0,12,13,23,{entry}", pctx)


def test_salamon_and_form_parsers_split_terms_alike(pctx, frame6):
    """A table entry is read by parse_form; parse_salamon names the entry
    and counts the position in the whole text."""
    entry = "-(lam+1)*13 - 2*24 + -3*15+e34"
    g = parse_salamon(f"0,0,0,0,0,{entry}", pctx)
    assert g.d_table[5] == parse_form(frame6, entry)
    # the Salamon position counts in the whole text, whose last entry
    # starts at 10
    for text, message, position in (("(lam*12", "unbalanced '('", 7),
                                    ("12 + (", "unbalanced '('", 6),
                                    ("lam)*12", "unbalanced ')'", 3)):
        with pytest.raises(FormSyntaxError) as form_error:
            parse_form(frame6, text)
        with pytest.raises(SalamonSyntaxError) as salamon_error:
            parse_salamon(f"0,0,0,0,0,{text}", pctx)
        assert str(form_error.value) == f"{message} (at position {position})"
        assert str(salamon_error.value) == f"entry 6: {message} (at position {10 + position})"


@pytest.mark.parametrize("text, message, position", [
    # splitter error: the unclosed parenthesis runs to the end of the text
    ("0,0,0,0,0,(lam*12", "unbalanced '('", 17),
    ("0,0,0,0,12,13+(", "unbalanced '('", 15),
    ("0, 0,12,13,23,14 - lam)*25", "unbalanced ')'", 22),
    # term errors: at the term, and inside a bad scalar at the bad token
    ("0,0,12,13,23,14 +  11", "repeated index in term '11'", 19),
    # 1x is no index word, so the whole term 2*1x is read as a scalar
    ("0,0,12,13,23,14+2*1x", "trailing input 'x'", 19),
    ("0,0,12,13,23,14-(lam+$)*25", "unexpected character '$'", 21),
    (" 0,0,,13,23,14", "empty entry 3", 5),
])
def test_salamon_errors_at_whole_text_positions(pctx, text, message, position):
    """An error inside an entry reads ``entry K: <parse_form's message>``,
    K the entry holding the position; an empty entry names itself."""
    with pytest.raises(SalamonSyntaxError) as err:
        parse_salamon(text, pctx)
    entry = text[:position].count(",") + 1
    prefix = "" if message.startswith("empty entry") else f"entry {entry}: "
    assert err.value.position == position
    assert str(err.value) == f"{prefix}{message} (at position {position})"


def test_error_positions_count_characters_as_typed(pctx, frame6):
    """λ folds to the three characters of lam and a subscript digit to one;
    all three parsers count positions in the text as given."""
    cases = [
        # λ0 *1 a2 ₁3 4 +5 6 ?7
        (ScalarSyntaxError, lambda: pctx.parse("λ*a₁ + ?"), 7),
        # the unclosed parenthesis runs to the end of the 15 characters
        (SalamonSyntaxError, lambda: parse_salamon("0,0,0,0,0,(λ*12", pctx), 15),
        # entry 6 starts at 16, its bad scalar token at 18
        (SalamonSyntaxError, lambda: parse_salamon("0,0,0,0,a₁*λ*13,λ*$*12", pctx), 18),
        (FormSyntaxError, lambda: parse_form(frame6, "λ*12 + a₁*(34"), 13),
        # a term error at its term, a bad scalar at its token
        (FormSyntaxError, lambda: parse_form(frame6, "λ*12 + 19"), 7),
        (ScalarSyntaxError, lambda: parse_form(frame6, "λ*12 - a₁*$*34"), 10),
    ]
    for error, parse, position in cases:
        with pytest.raises(error) as err:
            parse()
        assert err.value.position == position, err.value


def test_parse_rejects_non_jacobi(pctx):
    with pytest.raises(JacobiError):
        parse_salamon("0,0,12,13,23,15", pctx)


def test_jacobi_failure_in_ints_reports_the_unscaled_certificate(pctx):
    """A parameter-free table is checked on its integer table, here 6 d;
    the error still names the first failing index and d(d e^i) of the table
    as given, as jacobi_certificates computes it."""
    ctx = FrameContext(6, pctx)
    table = [parse_form(ctx, t) for t in "0,0,1/2*12,0,0,2/3*34".split(",")]
    assert all(c.is_rational for f in table for c in f.comps.values())
    with pytest.raises(JacobiError) as err:
        LieAlgebra(ctx, table)
    assert (err.value.index, str(err.value.certificate)) == (6, "1/3*124")
    assert str(err.value) == "d(d e^6) != 0; certificate 1/3*124"
    assert jacobi_certificates(table) == [(6, err.value.certificate)]
    two = [parse_form(ctx, t) for t in "0,0,12,0,1/2*34,3*35".split(",")]
    with pytest.raises(JacobiError) as err:
        LieAlgebra(ctx, two)
    assert (err.value.index, str(err.value.certificate)) == (5, "1/2*124")
    assert [i for i, _ in jacobi_certificates(two)] == [5, 6]


def _two_step_tables(seed: int, count: int):
    """Seeded 2-step nilpotent tables, d e^i in Lambda^2<e1..e4> for i >= 5,
    in dimension 6 or 7, with coefficients of both signs: rational,
    symbolic, multi-term and rational-function."""
    rng = random.Random(seed)
    coeffs = ["1", "2", "3/2", "1/7", "lam", "k^2", "(a1+z)", "(lam*k - 1/2)",
              "1/(lam-1)", "(z+1)/(k+2)", "(2*lam)/3"]
    pairs = [f"{i}{j}" for i in range(1, 5) for j in range(1, 5) if i != j]
    for _ in range(count):
        entries = ["0"] * 4
        for _ in range(rng.choice((2, 3))):
            terms = [f"{rng.choice('+-')}{rng.choice(coeffs)}*{word}"
                     for word in rng.sample(pairs, rng.randint(1, 3))]
            entries.append("".join(terms))
        yield ",".join(entries)


def test_salamon_roundtrip(pctx):
    """salamon_str prints each entry's form_str without spaces, and
    parse_salamon reads it back."""
    texts = ["0,0,12,13,23,14", "0,0,0,0,13+42,14+23",
             "0,lam*35,k*15,-lam*15+k*25,0,lam*13",
             "0,lam*35,0,-lam*15,(z+a1)*13,a1*14+z*23+lam*13",
             "0,0,0,0,-1/2*12+3*34,(-lam)*13-k*24+(lam-k)*14,1/(lam-1)*12-z*23"]
    for text in texts + list(_two_step_tables(seed=24, count=40)):
        g = parse_salamon(text, pctx)
        printed = salamon_str(g)
        assert printed == ",".join(form_str(f).replace(" ", "") for f in g.d_table)
        assert parse_salamon(printed, pctx) == g, (text, printed)
    # a negative coefficient after the first term prints as a difference
    assert salamon_str(parse_salamon("0,0,0,0,12,13-lam*24", pctx)) == "0,0,0,0,12,13-lam*24"
    assert salamon_str(parse_salamon("0,0,0,0,0,(z+a1)*13", pctx)) == "0,0,0,0,0,(a1+z)*13"


# ---------------------------------------------------------------------------
# differential
# ---------------------------------------------------------------------------


def test_extend_d_leibniz_by_hand(iwasawa):
    ctx = iwasawa.ctx
    e5, e6 = ctx.basis(5), ctx.basis(6)
    d_e56 = iwasawa.d(ctx.basis(5, 6))
    manual = iwasawa.d_table[4].wedge(e6) - e5.wedge(iwasawa.d_table[5])
    assert d_e56 == manual
    assert d_e56 == parse_form(ctx, "136-145-235-246")


def test_d_squared_zero(iwasawa, pctx):
    for text in ("0,0,12,13,23,14+25", "0,lam*35,0,-lam*15,0,a1*14-a1*23+lam*13"):
        g = parse_salamon(text, pctx)
        for k in range(1, 5):
            probe = g.ctx.basis(*range(1, k + 1))
            assert g.d(g.d(probe)).is_zero


def test_d_rejects_a_form_of_another_frame(pctx):
    """A form of another dimension, or of a frame with other parameters,
    is a frame context mismatch, as in the Form operations."""
    g = parse_salamon("0,0,lam*12,13,23,14", ParameterContext(["lam"]))
    for ctx in (FrameContext(7, g.ctx.params), FrameContext(6, ParameterContext(["mu"]))):
        with pytest.raises(ExteriorError, match="frame context mismatch"):
            g.d(parse_form(ctx, "4"))
    assert g.d(parse_form(g.ctx, "4")) == parse_form(g.ctx, "13")


def test_check_jacobi_certificate(pctx):
    """Reinstating independent diagonal coefficients on the pre-gauge middle
    family breaks d^2 = 0 with a certificate proportional to their
    difference (z2 - a3, with z and a1 standing in for the two)."""
    ctx6 = parse_salamon("0,0,0,0,0,0", pctx).ctx
    z2 = pctx.param("z")
    a3 = pctx.param("a1")
    lam = pctx.param("lam")
    e = ctx6.basis
    d_table = [
        ctx6.zero_form(),
        e(3, 5).scale(lam),
        ctx6.zero_form(),
        -e(1, 5).scale(lam),
        ctx6.zero_form(),
        e(1, 2).scale(z2) - e(3, 4).scale(a3) + e(1, 3).scale(lam),
    ]
    bad = jacobi_certificates(d_table)
    assert bad and bad[0][0] == 6
    certificate = bad[0][1]
    expected = e(1, 3, 5).scale(-lam * (z2 - a3))
    assert certificate == expected
    assert bad == [(6, certificate)]
    # with z2 = a3 the table passes
    fixed = list(d_table)
    fixed[5] = e(1, 2).scale(a3) - e(3, 4).scale(a3) + e(1, 3).scale(lam)
    assert jacobi_certificates(fixed) == []


def test_abelian_jacobi(pctx):
    g = parse_salamon("0,0,0,0,0,0", pctx)
    assert jacobi_certificates(g.d_table) == []


def test_nilpotency_rejected(pctx):
    # d e^1 = e^{12} is solvable but not nilpotent
    with pytest.raises((NilpotencyError, JacobiError)):
        parse_salamon("12,0,0,0,0,0", pctx)


# ---------------------------------------------------------------------------
# betti numbers and series
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "table,b1,b2",
    [
        ("0,0,12,13,23,14", 2, 4),
        ("0,0,0,12,23,14+35", 3, 5),
        ("0,0,0,12,23,14-35", 3, 5),
        ("0,0,0,12,13,23", 3, 8),
        ("0,0,0,0,0,0", 6, 15),
        ("0,0,0,0,13+42,14+23", 4, 8),
    ],
)
def test_betti_golden(pctx, table, b1, b2):
    g = parse_salamon(table, pctx)
    assert betti_numbers(g)[:2] == (b1, b2)


def test_betti_parameterized_generic(pctx):
    g = parse_salamon("0,lam*35,k*15,-lam*15+k*25,0,lam*13", pctx)
    assert betti_numbers(g)[:2] == (2, 4)
    assert betti_numbers(g.bind({"lam": Fraction(5), "k": Fraction(9)}))[0] == 2


def test_betti_non_generic_binding(pctx):
    """A binding is evaluated exactly, also off the generic locus: at
    lam = k = 0 the table is the abelian one, b1 = 6, while the generic
    value is 2.  Unbound tables are still sampled at two seeded points."""
    g = parse_salamon("0,lam*35,k*15,-lam*15+k*25,0,lam*13", pctx)
    assert betti_numbers(g.bind({"lam": Fraction(0), "k": Fraction(0)}))[0] == 6
    assert betti_numbers(g.bind({"lam": Fraction(0), "k": Fraction(1)}))[0] == 4
    assert betti_numbers(g)[0] == 2
    # seed 0 samples lam = 2, a zero of the coefficient; seed 1 does not
    h = parse_salamon("0,0,0,0,0,(lam-2)*12", pctx)
    with pytest.raises(GenericEvaluationError):
        betti_numbers(h)
    assert betti_numbers(h, seed=1)[0] == 5


def test_euler_characteristic_vanishes(pctx):
    for table in ("0,0,12,13,23,14", "0,0,0,12,13,23", "0,0,0,0,13+42,14+23",
                  "0,0,0,0,0,0", "0,0,12,13,23,14-25"):
        g = parse_salamon(table, pctx)
        total = 1  # b0
        for k, b in enumerate(betti_numbers(g), start=1):
            total += (-1) ** k * b
        assert total == 0


def test_b1_at_least_two_nonabelian(pctx):
    for table in ("0,0,12,13,23,14", "0,0,0,12,23,14+35", "0,0,0,0,13+42,14+23"):
        assert betti_numbers(parse_salamon(table, pctx))[0] >= 2


def test_series_dims_golden(pctx):
    case2 = fingerprint(parse_salamon("0,lam*35,0,-lam*15,(z+a1)*13,a1*14+z*23+lam*13", pctx))
    assert case2.lower_central == (6, 4, 3, 1, 0)
    assert case2.derived == (6, 4, 0)
    assert case2.upper_central == (1, 3, 4, 6)
    case3 = parse_salamon("0,lam*35,0,-lam*15,0,a1*14-a1*23+lam*13", pctx)
    assert fingerprint(case3).lower_central == (6, 3, 1, 0)
    torus = parse_salamon("0,0,0,0,0,0", pctx)
    assert fingerprint(torus).lower_central == (6, 0)


# ---------------------------------------------------------------------------
# binding
# ---------------------------------------------------------------------------


def test_bind_gives_the_table_at_the_binding(pctx):
    case1 = parse_salamon(FAMILIES["case1"].table, pctx)
    bound = case1.bind({"lam": Fraction(1), "k": Fraction(2)})
    expected = parse_salamon("0,35,2*15,-15+2*25,0,13", ParameterContext(()))
    assert bound.d_table == expected.d_table
    assert not bound.params()


def test_bind_errors_are_scalar_errors(pctx):
    case1 = parse_salamon(FAMILIES["case1"].table, pctx)
    with pytest.raises(ScalarError, match="^unbound parameter 'k'$"):
        case1.bind({"lam": Fraction(1)})
    g = parse_salamon("0,0,0,0,0,1/(lam-1)*12", pctx)
    with pytest.raises(ScalarError, match="denominator vanishes at binding"):
        g.bind({"lam": Fraction(1)})
    # the first unbound parameter of the whole table in the context's order,
    # not the first met in the table
    g = parse_salamon("0,0,0,0,z*12,a1*13+1/(lam-1)*12", pctx)
    with pytest.raises(ScalarError, match="^unbound parameter 'a1'$"):
        g.bind({"lam": Fraction(1)})


def test_bind_hands_on_the_numerators_of_the_table_at_the_binding(pctx):
    """``bind`` at fractional points of the three families, of seeded basis
    changes of them and of a rational-function table gives each entry's
    ``Scalar.evaluate``, with the numerators that the constructor derives
    from the bound table."""
    rng = random.Random(3131)
    empty = ParameterContext(())
    points = [{"lam": Fraction(1, 2), "k": Fraction(-3, 5), "z": Fraction(-2, 3),
               "a1": Fraction(5, 4)},
              {"lam": Fraction(7, 3), "k": Fraction(2), "z": Fraction(1, 6),
               "a1": Fraction(-9, 8)}]
    cases = []
    for spec in FAMILIES.values():
        g = parse_salamon(spec.table, pctx)
        cases += [g] + [change_basis(g, random_invertible(rng, pctx)) for _ in range(4)]
    cases.append(parse_salamon("0,0,0,0,0,1/(lam-2)*12+k^2/3*13", pctx))
    for g in cases:
        for point in points:
            bound = g.bind(point)
            assert [f.comps for f in bound.d_table] == [
                {m: Scalar(empty, c.evaluate(point)) for m, c in f.comps.items()
                 if c.evaluate(point)} for f in g.d_table], (g, point)
            assert bound._numerators == LieAlgebra(bound.ctx, bound.d_table)._numerators
            assert not bound.params()


def test_invariants_build_no_algebra_at_a_point(pctx, monkeypatch):
    """The invariants evaluate a table at each point without building an
    algebra there, so they check nothing again: a rational-function table
    given with ``require_nilpotent=False`` keeps its sampled values."""
    ctx = FrameContext(6, pctx)
    g = LieAlgebra(ctx, [parse_form(ctx, t) for t in "0,1/(lam-2)*13,12,0,0,0".split(",")],
                   require_nilpotent=False)
    assert g._numerators is None and not g.is_nilpotent_presentation()

    def no_algebra(*args, **kwargs):
        raise AssertionError("an algebra was built")

    monkeypatch.setattr(LieAlgebra, "__init__", no_algebra)
    assert betti_numbers(g, seed=1) == (4, 7, 8, 7, 4, 1)
    assert fingerprint(g, seed=1) == liealg.Fingerprint(
        betti=(4, 7, 8, 7, 4, 1), lower_central=(6, 2), derived=(6, 2, 0),
        upper_central=(3,), exact_two_forms_decomposable=True, wedge_data=(2, 0, 2))


def test_bound_instantiate_binds_the_cached_family(pctx, monkeypatch):
    """A bound family is the memoized symbolic one, bound: once that is
    cached, binding parses no table."""
    binding = {"lam": Fraction(1), "k": Fraction(2)}
    first, _ = families.instantiate("case1", binding, params=pctx)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return parse_salamon(*args, **kwargs)

    monkeypatch.setattr(families, "parse_salamon", counting)
    again, _ = families.instantiate("case1", binding, params=pctx)
    assert calls == []
    assert again == first == families.instantiate("case1", params=pctx)[0].bind(binding)


# ---------------------------------------------------------------------------
# basis changes
# ---------------------------------------------------------------------------


def test_change_basis_identity(pctx, iwasawa):
    B = BasisChange.identity(pctx, 6)
    assert change_basis(iwasawa, B).d_table == iwasawa.d_table


def test_change_basis_case1_golden(pctx):
    """e4 -> lam e3 + k e4 turns the 14-entry family table into the squared one."""
    g = parse_salamon("0,lam*35,k*15,-lam*15+k*25,0,lam*13", pctx)
    lam, k = pctx.param("lam"), pctx.param("k")
    rows = [[0] * 6 for _ in range(6)]
    for i in range(6):
        rows[i][i] = 1
    B = BasisChange(pctx, [
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, lam, k, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
    ])
    moved = change_basis(g, B)
    expected = parse_salamon("0,lam*35,k*15,k^2*25,0,lam*13", pctx)
    assert moved.d_table == expected.d_table


def test_is_isomorphic_via_case3_swap(pctx):
    """Swapping the second and fifth coframe axes at a1 = 0 lands on the
    (0,0,0,12,13,23)-type presentation up to scale."""
    case3 = parse_salamon("0,lam*35,0,-lam*15,0,lam*13", pctx)
    witness = BasisChange(pctx, [
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [1, 0, 0, 0, 0, 0],
        [0, "1/lam", 0, 0, 0, 0],
        [0, 0, 0, 0, 0, "-1/lam"],
        [0, 0, 0, "1/lam", 0, 0],
    ])
    target = parse_salamon("0,0,0,12,13,23", pctx)
    assert is_isomorphic_via(case3, witness, target)


def test_is_isomorphic_via_negative(pctx):
    g = parse_salamon("0,0,12,13,23,14", pctx)
    h = parse_salamon("0,0,0,12,13,23", pctx)
    B = BasisChange.identity(pctx, 6)
    assert not is_isomorphic_via(g, B, h)


def random_invertible(rng: random.Random, pctx, n=6) -> BasisChange:
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for i, p in enumerate(perm):
        rows[i][p] = rng.choice([1, -1, 2, Fraction(1, 2), 3])
    # a couple of shears (single multiplier per row: elementary, so invertible)
    for _ in range(3):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.choice([-2, -1, 1, 2])
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return BasisChange(pctx, rows)


def test_fingerprint_basis_invariance(pctx, iwasawa):
    rng = random.Random(7)
    base = {
        "iwasawa": iwasawa,
        "entry14": parse_salamon("0,0,12,13,23,14", pctx),
        "entry_14m35": parse_salamon("0,0,0,12,23,14-35", pctx),
    }
    for name, g in base.items():
        fp = fingerprint(g)
        for _ in range(8):
            B = random_invertible(rng, pctx)
            assert fingerprint(change_basis(g, B)) == fp, name


def _witness_style(rng: random.Random, pctx) -> BasisChange:
    """A monomial matrix with parameter denominators plus one elementary row
    operation: its inverse takes the fraction-field path."""
    entries = ("1/k", "1/(k*lam)", "-1/(k*lam)", "k", "lam", "1", "-1/2")
    perm = list(range(6))
    rng.shuffle(perm)
    rows = [[0] * 6 for _ in range(6)]
    for i, p in enumerate(perm):
        rows[i][p] = pctx.parse(rng.choice(entries))
    i, j = rng.sample(range(6), 2)
    rows[i][perm[j]] = pctx.parse(rng.choice(entries))
    return BasisChange(pctx, rows)


def test_change_basis_matches_substituting_each_combined_entry(pctx):
    """change_basis pulls each d e^j back once and combines the images with
    B's rows; the route it replaced substitutes B^-1 into each combined
    entry sum_j B_ij d e^j, one entry at a time."""
    rng = random.Random(26)
    tables = list(NAMED_ALGEBRAS.values()) + [f.table for f in FAMILIES.values()]
    rotations = [case2_gauge_rotation(pctx, c, s) for c, s in (
        (Fraction(3, 5), Fraction(4, 5)), (Fraction(-5, 13), Fraction(12, 13)),
        (Fraction(8, 17), Fraction(-15, 17)))]
    for table in tables:
        g = parse_salamon(table, pctx)
        changes = ([random_invertible(rng, pctx) for _ in range(3)] + rotations
                   + [_witness_style(rng, pctx) for _ in range(2)])
        for B in changes:
            inverse = B.inverse_rows()
            expected = []
            for row in B.rows:
                entry = g.ctx.zero_form()
                for c, d_ej in zip(row, g.d_table):
                    entry = entry + d_ej.scale(c)
                expected.append(substitute_coframe(entry, inverse))
            assert change_basis(g, B).d_table == tuple(expected), (table, B)


def test_wedge_radical_of_entry_14m25_in_a_seeded_basis(pctx):
    """entry_14m25 in a seeded basis has wedge data (4, 3, 1).  A rank that
    reduced the shared wedge-product rows in place gave radical 0 here; the
    integer path must leave its input rows as they were."""
    g = parse_salamon("4*16+(-2)*26+2*46,-12+14+8*16+(-4)*26+4*46,"
                      "-1/2*14+1/4*24+56,-12+14,-1/4*16,0", pctx)
    assert fingerprint(g).wedge_data == (4, 3, 1)
    assert fingerprint(g) == fingerprint(parse_salamon(NAMED_ALGEBRAS["entry_14m25"], pctx))
    table, scale = g._integers_at({})
    assert all(type(x) is int for row in table for x in row.values())
    values = [{m: c.evaluate({}) for m, c in f.comps.items()} for f in g.d_table]
    assert scale == g._numerators[1] == lcm(*(x.denominator for row in values
                                               for x in row.values()))
    assert table == [{m: x * scale for m, x in row.items()} for row in values]
    copies = [dict(row) for row in table]
    image = linalg._eliminate(table, _basis_masks(6, 2), full=False)[0]
    image_copies = [dict(row) for row in image]
    assert liealg._exact_two_form_data(image, 6) == (4, 3, 1, False)
    products = [liealg._nonzero(_wedge(x, y)) for x in image for y in image]
    product_copies = [dict(p) for p in products]
    assert linalg.sparse_rank(products, _basis_masks(6, 4)) == 3
    assert products == product_copies
    assert liealg._series(table, 6) == (
        fingerprint(g).lower_central, fingerprint(g).derived, fingerprint(g).upper_central)
    assert (table, image) == (copies, image_copies)


def test_jacobi_preserved_by_change_basis(pctx, iwasawa):
    rng = random.Random(11)
    for _ in range(8):
        B = random_invertible(rng, pctx)
        moved = change_basis(iwasawa, B)   # constructor re-checks d^2 = 0
        assert jacobi_certificates(moved.d_table) == []


def _seeded_orthogonal(rng, pctx):
    """A signed permutation times a gauge rotation at a seeded circle point."""
    m = rng.randint(2, 9)
    n = rng.randint(1, m - 1)
    hyp = m * m + n * n
    R = case2_gauge_rotation(pctx, Fraction(m * m - n * n, hyp), Fraction(2 * m * n, hyp))
    perm = list(range(6))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(6)]
    return [[R.rows[perm[i]][j] * signs[i] for j in range(6)] for i in range(6)]


def test_is_orthogonal_records_transpose_as_inverse(pctx):
    """After is_orthogonal, the inverse is R^T/q; the same matrix as the
    inverse by elimination, in ints and in lowest terms alike."""
    rng = random.Random(4242)
    for _ in range(12):
        rows = _seeded_orthogonal(rng, pctx)
        B = BasisChange(pctx, rows)
        assert B.is_orthogonal()
        eliminated = BasisChange(pctx, rows)
        assert B.inverse_rows() == eliminated.inverse_rows()
        assert B.inverse_rows() == tuple(zip(*B.rows))
        R, q = B._scaled_rows()
        assert B._scaled_inverse_rows() == (tuple(zip(*R)), q)
        assert eliminated._scaled_inverse_rows() == B._scaled_inverse_rows()


def test_is_orthogonal_rejects_every_one_entry_perturbation(pctx):
    rng = random.Random(4243)
    rows = _seeded_orthogonal(rng, pctx)
    norm_only = 0
    for i in range(6):
        for j in range(6):
            bumped = [list(r) for r in rows]
            bumped[i][j] = bumped[i][j] + Fraction(rng.randint(1, 9), 13)
            # opposite zeros in every other row: no dot product between two
            # rows changes, only the norm of row i
            norm_only += all(rows[k][j].is_zero for k in range(6) if k != i)
            B = BasisChange(pctx, bumped)
            R, _ = B._scaled_rows()
            assert all(type(x) is int for row in R for x in row)
            assert not B.is_orthogonal(), (i, j)
            inverse = B.inverse_rows()  # by elimination, as the check failed
            assert all(sum((x * inverse[k][c] for k, x in enumerate(B.rows[r])), pctx.zero)
                       == (1 if r == c else 0) for r in range(6) for c in range(6))
    assert norm_only >= 2


def test_singular_basis_change_in_ints_and_with_parameters(pctx):
    """A singular B says so from inverse_rows and from change_basis, on the
    integer path and on the Scalar one."""
    g = parse_salamon(NAMED_ALGEBRAS["entry_14"], pctx)
    rational = [[Fraction(1, 2) if i == j else 0 for j in range(6)] for i in range(6)]
    rational[5] = [Fraction(2, 3) * x + y for x, y in zip(rational[4], rational[1])]
    symbolic = [[pctx.parse("lam") if i == j else pctx.zero for j in range(6)] for i in range(6)]
    symbolic[0] = [x * pctx.parse("1/k") for x in symbolic[3]]
    for rows in (rational, symbolic):
        with pytest.raises(ValueError, match="singular basis change"):
            change_basis(g, BasisChange(pctx, rows))
        with pytest.raises(ValueError, match="singular basis change"):
            BasisChange(pctx, rows).inverse_rows()
    R, q = BasisChange(pctx, rational)._scaled_rows()
    assert q == 6 and all(type(x) is int for row in R for x in row)


def test_change_basis_rejects_another_parameter_context(pctx):
    g = parse_salamon(NAMED_ALGEBRAS["entry_14"], pctx)
    with pytest.raises(ScalarError, match="mixed parameter contexts"):
        change_basis(g, BasisChange.identity(ParameterContext(()), 6))


def test_basis_change_entries_read_as_scalar_coerces_them(pctx):
    """Int and Fraction entries become the Scalars ``ParameterContext.scalar``
    gives, with (R, q) read off them; a bool is a TypeError and a Scalar of
    another context a ScalarError, as there."""
    entries = [2, Fraction(-3, 4), "5/6", pctx.parse("1/3"), 0, -1]
    rows = [entries[i:] + entries[:i] for i in range(6)]
    B = BasisChange(pctx, rows)
    assert B.rows == tuple(tuple(pctx.scalar(v) for v in row) for row in rows)
    R, q = B._scaled_rows()
    assert q == 12 and all(type(x) is int for row in R for x in row)
    assert [[Fraction(x, q) for x in row] for row in R] == [
        [pctx.scalar(v).as_fraction() for v in row] for row in rows]
    with pytest.raises(TypeError):
        BasisChange(pctx, [[True if i == j else 0 for j in range(6)] for i in range(6)])
    other = ParameterContext(("u",)).one
    with pytest.raises(ScalarError, match="different parameter context"):
        BasisChange(pctx, [[other if i == j else 0 for j in range(6)] for i in range(6)])


_GAUGE_POINTS = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-5, 13), Fraction(12, 13)),
                 (Fraction(8, 17), Fraction(-15, 17)))


def _family_basis_changes(pctx):
    """Each family under 20 seeded rational matrices and the three case2
    gauge rotations, as (family, changed algebra)."""
    rng = random.Random(2828)
    out = []
    for name, spec in FAMILIES.items():
        g = parse_salamon(spec.table, pctx)
        changes = [random_invertible(rng, pctx) for _ in range(20)]
        changes += [case2_gauge_rotation(pctx, c, s) for c, s in _GAUGE_POINTS]
        out += [(name, g, B, change_basis(g, B)) for B in changes]
    return out


def test_symbolic_change_basis_carries_the_slices_of_its_own_table(pctx):
    """A family changed by a rational matrix runs on its exponent slices:
    the new table is the one B's rows give on the pulled-back Scalar
    entries, and the numerators it hands on are those of that table."""
    for name, g, B, moved in _family_basis_changes(pctx):
        pulled = [substitute_coframe(f, B.inverse_rows()) for f in g.d_table]
        expected = tuple(sum((d.scale(c) for c, d in zip(row, pulled)), g.ctx.zero_form())
                         for row in B.rows)
        assert moved.d_table == expected, (name, B)
        rebuilt = LieAlgebra(moved.ctx, moved.d_table, require_nilpotent=False)
        assert moved._numerators == rebuilt._numerators, (name, B)
        assert moved.params() and len(liealg._slices_of(moved._numerators[0],
                                                        pctx._zero_monom)) > 1


def test_symbolic_invariants_match_the_bound_table_route(pctx):
    """At each seeded point the numerators evaluate to L times the table
    that ``Scalar.evaluate`` gives entry by entry there, and ``fingerprint``
    and ``betti_numbers`` equal the values of that table scaled to ints over
    the lcm of its denominators."""
    for name, _, B, moved in _family_basis_changes(pctx):
        scale = moved._numerators[1]
        fp, betti = fingerprint(moved), betti_numbers(moved)
        for point in liealg._generic_bindings(moved.params()):
            bound = [{m: c.evaluate(point) for m, c in f.comps.items()} for f in moved.d_table]
            assert moved._integers_at(point) == (
                [{m: x * scale for m, x in row.items() if x} for row in bound], scale)
            lowest = lcm(*(x.denominator for row in bound for x in row.values()))
            table = [{m: int(x * lowest) for m, x in row.items() if x} for row in bound]
            assert liealg._fingerprint_of_table(table, 6) == fp, (name, B)
            assert liealg._betti_of_table(table, 6) == betti, (name, B)


def test_polynomial_jacobi_failure_reports_the_unscaled_certificate(pctx):
    """A table with parameters is checked on the numerators of its entries,
    here over L = 6; the error still names the first failing index and
    d(d e^i) of the table as given, as jacobi_certificates computes it."""
    ctx = FrameContext(6, pctx)
    table = [parse_form(ctx, t) for t in "0,0,lam/2*12,0,0,2/3*k*34".split(",")]
    numerators, scale = liealg._as_numerators([f.comps for f in table], pctx._zero_monom)
    assert scale == 6 and len(liealg._slices_of(numerators, pctx._zero_monom)) == 2
    assert not liealg._jacobi_holds(numerators, pctx._zero_monom)
    with pytest.raises(JacobiError) as err:
        LieAlgebra(ctx, table)
    assert (err.value.index, str(err.value.certificate)) == (6, "k*lam/3*124")
    assert str(err.value) == "d(d e^6) != 0; certificate k*lam/3*124"
    assert jacobi_certificates(table) == [(6, err.value.certificate)]
    two = [parse_form(ctx, t) for t in "0,0,12,0,(a1+z)/2*34,3*lam*35".split(",")]
    with pytest.raises(JacobiError) as err:
        LieAlgebra(ctx, two)
    assert (err.value.index, str(err.value.certificate)) == (5, "((a1 + z)/2)*124")
    assert [i for i, _ in jacobi_certificates(two)] == [5, 6]


def test_parameters_in_the_matrix_or_a_rational_function_keep_the_scalar_path(pctx, monkeypatch):
    """A matrix with parameters, or a table with a rational-function entry,
    is pulled back through Scalar rows; such a table has no numerators, so its
    invariants evaluate the Scalar table at both points.  A polynomial table
    under a rational matrix pulls back through int rows and evaluates no
    Scalar."""
    pulled_through, bindings = [], set()
    pull_back, evaluate = liealg._pull_back, Scalar.evaluate
    monkeypatch.setattr(liealg, "_pull_back", lambda tables, rows: (
        pulled_through.append(type(rows[0][0])), pull_back(tables, rows))[1])
    monkeypatch.setattr(Scalar, "evaluate", lambda c, point: (
        bindings.add(tuple(sorted(point.items()))), evaluate(c, point))[1])
    rng = random.Random(29)
    family = parse_salamon(FAMILIES["case2"].table, pctx)
    rational_function = parse_salamon("0,0,0,0,(1/lam)*12,k*13+15", pctx)
    assert rational_function._numerators is None
    cases = [(family, _witness_style(rng, pctx), liealg.Scalar),
             (rational_function, random_invertible(rng, pctx), liealg.Scalar),
             (family, random_invertible(rng, pctx), int)]
    for g, B, kind in cases:
        pulled_through.clear()
        moved = change_basis(g, B)
        assert pulled_through == [kind]
        expected = fingerprint(g)
        bindings.clear()
        assert fingerprint(moved) == expected
        assert len(bindings) == (0 if moved._numerators else 2)
    assert moved._numerators is not None


_POLYNOMIAL_COEFFICIENTS = ("1", "-1", "3/2", "-5/7", "2/9", "lam", "k*z/3", "(a1+z)^2/2",
                            "-lam^2*k/5", "t + 1/3", "3*a1*lam - 2/9", "k - lam/4")


def _seeded_forms(rng, ctx, coefficients=_POLYNOMIAL_COEFFICIENTS):
    """One form of every grade 0..n, each on up to five seeded basis words
    with coefficients drawn from ``coefficients`` and read in the frame's
    parameter context, and one mixed-grade form."""
    forms = []
    for k in range(ctx.dim + 1):
        masks = rng.sample(_basis_masks(ctx.dim, k), min(5, len(_basis_masks(ctx.dim, k))))
        forms.append(liealg.Form(ctx, {m: ctx.params.parse(rng.choice(coefficients))
                                       for m in masks}))
    forms.append(sum(forms[1:4], ctx.zero_form()))
    return forms


def _product(g):
    """The seven-dimensional algebra g x R, d(e^7) = 0."""
    ctx7 = FrameContext(7, g.ctx.params)
    return LieAlgebra(ctx7, [liealg.Form(ctx7, dict(f.comps)) for f in g.d_table]
                      + [ctx7.zero_form()], require_nilpotent=False)


def _scalar_hashes(form):
    return {m: (hash(c), type(c.raw)) for m, c in form.comps.items()}


def test_numerator_d_matches_the_scalar_route(pctx, monkeypatch):
    """On a polynomial table, d of a form with polynomial and rational
    coefficients runs on numerators in ints; it equals d on Scalars
    (``_d_on_form``), Scalar by Scalar, for every grade, on the three
    families, 20 seeded basis changes and the gauge rotations of each, and
    their seven-dimensional products.  So does a parameter-free table: every
    named algebra, each family bound at a rational point, and their
    products, with forms in each table's own parameter context."""
    scalar_route = liealg._d_on_form
    fallbacks = []
    monkeypatch.setattr(liealg, "_d_on_form", lambda table, a: (
        fallbacks.append(a), scalar_route(table, a))[1])
    rng = random.Random(2929)
    algebras = []
    for _, _, _, moved in _family_basis_changes(pctx):
        algebras += [moved, _product(moved)]
    for spec in FAMILIES.values():
        g = parse_salamon(spec.table, pctx)
        algebras += [g, _product(g)]
    assert all(g.params() for g in algebras)
    point = {"lam": Fraction(1, 2), "k": 3, "z": Fraction(-2, 3), "a1": Fraction(5, 4)}
    plain = [parse_salamon(text, pctx) for text in NAMED_ALGEBRAS.values()]
    plain += [parse_salamon(spec.table, pctx).bind(point) for spec in FAMILIES.values()]
    plain += [_product(g) for g in plain]
    assert not any(g.params() for g in plain)
    for g in algebras + plain:
        assert g._numerators is not None
        # the first five coefficients are rational: a bound table's frame has no parameters
        coefficients = _POLYNOMIAL_COEFFICIENTS[:None if g.ctx.params is pctx else 5]
        for a in _seeded_forms(rng, g.ctx, coefficients):
            fast, slow = g.d(a), scalar_route(g.d_table, a)
            assert fast == slow, (salamon_str(g), form_str(a))
            assert _scalar_hashes(fast) == _scalar_hashes(slow)
    assert fallbacks == []


def test_numerators_are_the_slices_of_the_table_by_entry(pctx):
    """The numerators an algebra holds, derived in its constructor or handed
    on by ``change_basis``, are the entries of L*d, {mask: {exponent: int}},
    and its exponent slices by entry; a parameter-free table holds each at
    exponent 0 alone, which bind at the empty point to its int table."""
    zero = pctx._zero_monom
    for _, _, _, moved in _family_basis_changes(pctx)[::7]:
        numerators, scale = moved._numerators
        for e, rows in liealg._slices_of(numerators, zero).items():
            assert rows == [{m: numer[e] for m, numer in row.items() if e in numer}
                            for row in numerators]
        rebuilt = LieAlgebra(moved.ctx, moved.d_table, require_nilpotent=False)
        assert rebuilt._numerators == (numerators, scale)
        assert liealg._as_numerators([f.comps for f in moved.d_table], zero) == (
            numerators, scale)
    plain = parse_salamon("0,0,1/2*12,13,23,14", pctx)
    numerators, scale = plain._numerators
    assert scale == 2 and numerators == [{}, {}, {3: {zero: 1}}, {5: {zero: 2}}, {6: {zero: 2}},
                                         {9: {zero: 2}}]
    assert plain._integers_at({}) == ([{}, {}, {3: 1}, {5: 2}, {6: 2}, {9: 2}], 2)


def test_rational_functions_keep_the_scalar_d(pctx, monkeypatch):
    """A witness-style table with a rational-function entry holds no
    numerators, and a form with a rational-function coefficient
    is differentiated on Scalars by a polynomial table too."""
    scalar_route = liealg._d_on_form
    fallbacks = []
    monkeypatch.setattr(liealg, "_d_on_form", lambda table, a: (
        fallbacks.append(a), scalar_route(table, a))[1])
    rng = random.Random(31)
    family = parse_salamon(FAMILIES["case1"].table, pctx)
    witnesses = [change_basis(family, _witness_style(rng, pctx)) for _ in range(6)]
    witnesses = [g for g in witnesses if g._numerators is None]
    assert witnesses
    for g in witnesses + [parse_salamon("0,0,0,0,(1/lam)*12,k*13+15", pctx)]:
        assert g._numerators is None
        for a in _seeded_forms(rng, g.ctx):
            fallbacks.clear()
            assert g.d(a) == scalar_route(g.d_table, a)
            assert fallbacks == [a]
    rational = _seeded_forms(rng, family.ctx, ("1/lam", "k/(z+a1)", "lam"))
    for a in rational[1:]:
        fallbacks.clear()
        family.d(a)
        assert fallbacks == ([a] if any(type(c.raw) not in (Fraction, _Poly)
                                        for c in a.comps.values()) else [])


def test_is_orthogonal_rejects_singular(pctx):
    rows = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    rows[5] = list(rows[4])
    B = BasisChange(pctx, rows)
    assert not B.is_orthogonal()
    with pytest.raises(ValueError, match="singular basis change"):
        B.inverse_rows()


def test_twin_entries_distinct_fingerprint_blind(pctx):
    """The 14+-35 twins share every fingerprint field (they are separated
    only by a finer real invariant); guard that we know this."""
    plus = parse_salamon("0,0,0,12,23,14+35", pctx)
    minus = parse_salamon("0,0,0,12,23,14-35", pctx)
    assert fingerprint(plus) == fingerprint(minus)


# ---------------------------------------------------------------------------
# nilpotency: acyclic-support certificate against the exact filtration
# ---------------------------------------------------------------------------


def _named_and_family_algebras(pctx):
    algebras = {name: parse_salamon(text, pctx) for name, text in NAMED_ALGEBRAS.items()}
    for name, spec in FAMILIES.items():
        algebras[name] = parse_salamon(spec.table, pctx)
    return algebras


def test_support_certificate_on_named_algebras_and_families(pctx):
    for name, g in _named_and_family_algebras(pctx).items():
        assert g._support_is_acyclic(), name
        assert g._check_filtration(), name


def test_support_certificate_fallback_on_cyclic_supports(pctx):
    """Basis changes smear the support into cycles; the certificate then
    declines and the exact filtration must still find the algebra nilpotent."""
    rng = random.Random(23)
    cyclic = 0
    for name, g in _named_and_family_algebras(pctx).items():
        for _ in range(4):
            moved = change_basis(g, random_invertible(rng, pctx))
            certified = moved._support_is_acyclic()
            exact = moved._check_filtration()
            assert exact, name
            assert moved.is_nilpotent_presentation() is True
            cyclic += not certified
    assert cyclic >= 20


@pytest.mark.parametrize("table", ["0,12,0,0,0,0", "0,13,12,0,0,0"])
def test_support_certificate_rejects_non_nilpotent(pctx, table):
    # a self-loop (d e^2 = e^12) and a two-cycle (e^2 <-> e^3); both satisfy
    # Jacobi, neither is nilpotent
    with pytest.raises(NilpotencyError):
        parse_salamon(table, pctx)
    ctx = FrameContext(6, pctx)
    d_table = [ctx.zero_form() if t == "0" else parse_form(ctx, t) for t in table.split(",")]
    g = LieAlgebra(ctx, d_table, require_nilpotent=False)
    assert not g._support_is_acyclic()
    assert not g._check_filtration()
    assert not g.is_nilpotent_presentation()
    rng = random.Random(5)
    for _ in range(4):
        moved = change_basis(g, random_invertible(rng, pctx))
        assert not moved._support_is_acyclic()
        assert not moved.is_nilpotent_presentation()
