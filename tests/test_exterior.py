import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import form_to_oracle, is_primitive_11, primitive_11_basis
from oracle import is_type_22

from nilg2 import linalg
from nilg2 import exterior
from nilg2.exterior import (
    ExteriorError,
    Form,
    FormSyntaxError,
    FrameContext,
    _lefschetz_solver,
    _pull_back,
    form_str,
    hodge,
    inner,
    interior,
    j_apply,
    lefschetz_coefficients,
    parse_form,
    standard_su3_forms,
    substitute_coframe,
)
from nilg2.families import FAMILIES, instantiate
from nilg2.g2 import build_product, drop_dt, torsion
from nilg2.liealg import _leibniz
from nilg2.scalars import ParameterContext, Scalar


def vol(ctx):
    return ctx.volume()


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------


def test_wedge_basics(frame6, pctx):
    e = frame6.basis
    assert e(1).wedge(e(2)) == e(1, 2)
    assert e(2).wedge(e(1)) == -e(1, 2)
    assert e(1).wedge(e(1)).is_zero


def test_volume_identities(std_forms, frame6):
    om, psip, psim = std_forms
    assert psip.wedge(psim) == vol(frame6).scale(4)
    assert om.wedge(om).wedge(om) == vol(frame6).scale(6)
    assert psip.wedge(psim) == om.wedge(om).wedge(om).scale(Fraction(2, 3))
    assert om.wedge(psip).is_zero and om.wedge(psim).is_zero


def test_standard_forms_checked_once_per_frame(frame6):
    standard_su3_forms(frame6)
    before = standard_su3_forms.cache_info()
    assert standard_su3_forms(FrameContext(6, frame6.params)) == standard_su3_forms(frame6)
    after = standard_su3_forms.cache_info()
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)


@pytest.mark.parametrize("forms, message", [
    # psi- with one sign flipped: psi+ ^ psi- = 2 e^{123456}
    (("12 + 34 + 56", "135 - 146 - 236 - 245", "136 + 145 + 235 + 246"),
     r"psi\+ \^ psi- - \(2/3\) omega\^3 residual -2\*123456"),
    # both sides scaled alike, away from 4 e^{123456}
    (("2*12 + 2*34 + 2*56", "8*135 - 8*146 - 8*236 - 8*245", "136 + 145 + 235 - 246"),
     r"psi\+ \^ psi- - 4 e\^\{123456\} residual 28\*123456"),
], ids=["psi-minus-sign-flipped", "both-sides-scaled"])
def test_broken_standard_forms_raise(monkeypatch, forms, message):
    """A frame not built before (its own parameter context) runs the check."""
    monkeypatch.setattr(exterior, "_STANDARD_SU3", forms)
    ctx = FrameContext(6, ParameterContext(("broken",)))
    for _ in range(2):  # a raising call leaves no cache entry
        with pytest.raises(ExteriorError, match="standard forms broken: " + message):
            standard_su3_forms(ctx)


def test_context_mismatch():
    a = FrameContext(6, ParameterContext(()))
    b = FrameContext(7, ParameterContext(()))
    with pytest.raises(ExteriorError):
        a.basis(1).wedge(b.basis(2))


# ---------------------------------------------------------------------------
# hodge
# ---------------------------------------------------------------------------


def test_hodge_examples(frame6, std_forms):
    om, psip, psim = std_forms
    assert hodge(frame6.basis(1, 2)) == frame6.basis(3, 4, 5, 6)
    assert hodge(om) == om.wedge(om).scale(Fraction(1, 2))
    assert hodge(psip) == psim
    assert hodge(psim) == -psip


def test_hodge_product_model(frame7, pctx):
    om, psip, psim = standard_su3_forms_dim7(frame7)
    dt = frame7.basis(7)
    phi = om.wedge(dt) + psip
    assert hodge(phi) == psim.wedge(dt) + om.wedge(om).scale(Fraction(1, 2))


def standard_su3_forms_dim7(frame7):
    """The standard triple written on the product frame."""
    e = frame7.basis
    om = e(1, 2) + e(3, 4) + e(5, 6)
    psip = e(1, 3, 5) - e(1, 4, 6) - e(2, 3, 6) - e(2, 4, 5)
    psim = e(1, 3, 6) + e(1, 4, 5) + e(2, 3, 5) - e(2, 4, 6)
    return om, psip, psim


def test_hodge_rejects_mixed_grade(frame6):
    mixed = frame6.basis(1) + frame6.basis(1, 2)
    with pytest.raises(ExteriorError):
        hodge(mixed)


# ---------------------------------------------------------------------------
# inner and interior
# ---------------------------------------------------------------------------


def test_inner_examples(frame6, std_forms):
    om, psip, psim = std_forms
    assert inner(frame6.basis(1, 2), frame6.basis(1, 2)) == 1
    assert inner(psim, psim) == 4
    assert inner(psip, psip) == 4
    assert inner(psip, psim) == 0


def test_interior_basics(frame6):
    e = frame6.basis
    assert interior(e(1), e(1, 2)) == e(2)
    assert interior(e(2), e(1, 2)) == -e(1)
    assert interior(e(3), e(1, 2)).is_zero
    with pytest.raises(ExteriorError):
        interior(e(1, 2), e(3))


def test_interior_k_form_brute_force(frame6, std_forms):
    """omega _| (psi- ^ e1) must match the defining adjoint property.

    The contraction of a 2-form into a 4-form has degree 2; every
    component is pinned by the adjoint identity, solved independently.
    """
    om, psip, psim = std_forms
    target = psim.wedge(frame6.basis(1))
    contracted = interior(om, target)
    assert not contracted.is_zero
    assert contracted.homogeneous_grade() == 2
    for i, j in combinations(range(1, 7), 2):
        lhs = inner(contracted, frame6.basis(i, j))
        rhs = inner(target, om.wedge(frame6.basis(i, j)))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# almost complex structure and types
# ---------------------------------------------------------------------------


def test_j_apply(std_forms, frame6):
    """J on each of the 64 basis words is the wedge product of J on its
    letters, J e^{2m-1} = -e^{2m} and J e^{2m} = e^{2m-1}."""
    om, psip, psim = std_forms
    assert j_apply(psip) == psim
    assert j_apply(om) == om
    e = frame6.basis
    J_letter = {i: -e(i + 1) if i % 2 else e(i - 1) for i in range(1, 7)}
    words = [word for k in range(7) for word in combinations(range(1, 7), k)]
    assert len(words) == 64
    for word in words:
        expected = e()
        for i in word:
            expected = expected.wedge(J_letter[i])
        assert j_apply(e(*word)) == expected, word
        assert j_apply(j_apply(e(*word))) == e(*word).scale((-1) ** len(word))


def test_j_invariance_is_type_22_on_random_4_forms(frame6, pctx):
    """On real 4-forms J acts on type (p,q) as i^(p-q), p-q in {-2,0,2}, so
    J-invariance is the (2,2) test; it agrees with the oracle, which uses no
    J (orthogonality to Lambda^1 ^ psi+).  a + J a and a - J a are the (2,2)
    and the (3,1)+(1,3) parts up to a factor 2, so both answers are
    exercised."""
    rng = random.Random(17)
    words = list(combinations(range(1, 7), 4))
    seen = set()
    for _ in range(30):
        a = frame6.zero_form()
        for word in rng.sample(words, rng.randint(1, 6)):
            coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            a = a + frame6.basis(*word).scale(pctx.scalar(coeff))
        for b in (a, a + j_apply(a), a - j_apply(a)):
            if b.is_zero:
                continue
            invariant = j_apply(b) == b
            assert invariant == is_type_22(form_to_oracle(b)), form_str(b)
            seen.add(invariant)
    assert seen == {True, False}


def test_j_invariance_is_type_22_on_family_dT(pctx):
    """Exact in the parameters: the oracle reads the symbolic coefficients."""
    for name in FAMILIES:
        _, structure = instantiate(name, params=pctx)
        g = build_product(structure)
        pure, rest = drop_dt(torsion(g).dT, structure.omega.ctx)
        assert rest.is_zero and not pure.is_zero, name
        assert j_apply(pure) == pure, name
        assert is_type_22(dict(pure.terms())), name


def test_j_equals_hodge_on_psi_line(iwasawa_structure):
    """On the structure with d omega = psi-, J(d omega) = *(d omega)."""
    s = iwasawa_structure
    d_om = s.d(s.omega)
    assert d_om == s.psi_minus
    assert j_apply(d_om) == hodge(d_om)


# ---------------------------------------------------------------------------
# lefschetz coefficients
# ---------------------------------------------------------------------------


def test_lefschetz_trivial_slots(std_forms, frame6):
    om, psip, psim = std_forms
    om2 = om.wedge(om)
    c0, gamma, w2 = lefschetz_coefficients(om2)
    assert c0 == 1 and gamma.is_zero and w2.is_zero
    one = frame6.basis(1)
    c0, gamma, w2 = lefschetz_coefficients(one.wedge(psip))
    assert c0 == 0 and gamma == one and w2.is_zero


def test_lefschetz_iwasawa_value(std_forms, frame6):
    om, psip, psim = std_forms
    a = frame6.basis(1, 2, 3, 4).scale(4)
    c0, gamma, w2 = lefschetz_coefficients(a)
    assert c0 == Fraction(2, 3)
    assert gamma.is_zero
    e = frame6.basis
    assert w2 == (e(1, 2) + e(3, 4) - e(5, 6).scale(2)).scale(Fraction(4, 3))
    # reconstruction is exact
    assert gamma.wedge(psip) + w2.wedge(om) + om.wedge(om).scale(c0) == a


def test_lefschetz_mixed_grade_rejected(frame6):
    with pytest.raises(ExteriorError):
        lefschetz_coefficients(frame6.basis(1, 2))


def _dense_lefschetz(a, om, psi):
    """The 15x15 system a = c0 omega^2 + gamma ^ psi + W2 ^ omega over the
    primitive (1,1) basis, solved densely."""
    ctx, pctx = a.ctx, a.ctx.params
    w2_basis = primitive_11_basis(ctx)
    columns = [om.wedge(om)] + [ctx.basis(i).wedge(psi) for i in range(1, 7)]
    columns += [w.wedge(om) for w in w2_basis]
    masks = [ctx.basis(*combo) for combo in combinations(range(1, 7), 4)]
    n = len(columns)
    rows = [{j: x for j, x in enumerate([inner(col, m) for col in columns] + [inner(a, m)]) if x}
            for m in masks]
    red, pivots = linalg._eliminate(rows, range(n + 1))
    assert n not in pivots
    x = [pctx.zero] * n
    for row, pc in zip(red, pivots):
        x[pc] = row.get(n, pctx.zero)
    gamma = sum((ctx.basis(i + 1).scale(x[1 + i]) for i in range(6)), ctx.zero_form())
    w2 = sum((w.scale(c) for w, c in zip(w2_basis, x[7:])), ctx.zero_form())
    return x[0], gamma, w2


@pytest.mark.parametrize("slot", ["plus", "minus"])
@pytest.mark.parametrize("symbolic", [False, True])
def test_lefschetz_sparse_solve_matches_dense(std_forms, frame6, pctx, slot, symbolic):
    """The projections give the parts a was built from, as the dense solve
    of the whole system does; the lines are built once per frame and slot."""
    om, psip, psim = std_forms
    psi = psip if slot == "plus" else psim
    w2_basis = primitive_11_basis(frame6)
    params = [pctx.param(name) for name in ("lam", "k", "z")]
    rng = random.Random(f"lefschetz/{slot}/{symbolic}")

    def coeff():
        value = pctx.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        if symbolic and rng.random() < 0.5:
            value = value * rng.choice(params) + rng.choice((0, 1, -2))
        return value

    for _ in range(6):
        # sparse inputs too: each part is left out now and then
        c0 = coeff() if rng.random() < 0.7 else pctx.zero
        gamma = sum((frame6.basis(i).scale(coeff()) for i in range(1, 7)
                     if rng.random() < 0.5), frame6.zero_form())
        w2 = sum((w.scale(coeff()) for w in w2_basis if rng.random() < 0.4),
                 frame6.zero_form())
        a = gamma.wedge(psi) + w2.wedge(om) + om.wedge(om).scale(c0)
        got = lefschetz_coefficients(a, slot)
        assert got == (c0, gamma, w2)
        assert got == _dense_lefschetz(a, om, psi)
        before = _lefschetz_solver.cache_info()
        assert lefschetz_coefficients(a, slot) == got
        after = _lefschetz_solver.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)


@pytest.mark.parametrize("slot", ["plus", "minus"])
@pytest.mark.parametrize("symbolic", [False, True])
def test_lefschetz_certificate_on_arbitrary_4_forms(std_forms, frame6, pctx, slot, symbolic):
    """Every 4-form splits: the reconstruction is exact and W2 is primitive
    of type (1,1)."""
    om, psip, psim = std_forms
    psi = psip if slot == "plus" else psim
    masks = list(combinations(range(1, 7), 4))
    params = [pctx.param(name) for name in ("lam", "k", "a1")]
    rng = random.Random(f"lefschetz-certificate/{slot}/{symbolic}")
    for _ in range(150):
        a = frame6.zero_form()
        for word in rng.sample(masks, rng.randint(0, 15)):
            value = pctx.scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            if symbolic and rng.random() < 0.5:
                value = value * rng.choice(params) + rng.randint(-2, 2)
            a = a + frame6.basis(*word).scale(value)
        c0, gamma, w2 = lefschetz_coefficients(a, slot)
        assert gamma.wedge(psi) + w2.wedge(om) + om.wedge(om).scale(c0) == a
        assert gamma.homogeneous_grade() in (None, 1)
        assert is_primitive_11(w2)


def test_lefschetz_corrupted_lines_rejected(std_forms, frame6, monkeypatch):
    """The reconstruction check does not trust the cached lines: lines built
    from -psi+, or a line 2 omega^2 with the inverse of its own norm,
    project consistently but give the wrong parts, and the check raises."""
    om, psip, _ = std_forms
    e = frame6.basis
    a = e(1).wedge(psip) + e(1, 2, 3, 4)
    good = _lefschetz_solver(frame6, "plus")
    corrupted = {
        "-psi": good[:1] + tuple((-line, norm) for line, norm in good[1:]),
        "2 omega^2": ((good[0][0].scale(2), good[0][1] / 4),) + good[1:],
    }
    for lines in corrupted.values():
        monkeypatch.setattr(exterior, "_lefschetz_solver", lambda ctx, slot, lines=lines: lines)
        with pytest.raises(ExteriorError, match="outside expected module"):
            lefschetz_coefficients(a)
    monkeypatch.undo()
    assert lefschetz_coefficients(a)[1] == e(1)


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------


def test_parse_form_literals(frame6, frame7, pctx):
    om = parse_form(frame6, "12+34+56")
    assert om == standard_su3_forms(frame6)[0]
    psi = parse_form(frame6, "135-146-236-245")
    assert psi == standard_su3_forms(frame6)[1]
    assert parse_form(frame6, "0").is_zero
    withdt = parse_form(frame7, "127 + 3/2*dt - lam*135")
    assert withdt.coefficient(7) == Fraction(3, 2)
    assert withdt.coefficient(1, 3, 5) == -pctx.param("lam")
    # out-of-order indices carry the permutation sign
    assert parse_form(frame6, "13+42") == frame6.basis(1, 3) - frame6.basis(2, 4)


@pytest.mark.parametrize("text, term, position", [
    ("11", "11", 0),
    ("12 + 11", "11", 5),
    ("3*122", "3*122", 0),
    # λ folds to lam: the position counts the characters as typed
    ("λ*12 + 3*122", "3*122", 7),
    ("e1 - lam*e1231", "lam*e1231", 5),
    # the leftmost error wins: the parser never reaches the bad character
    ("11 + $", "11", 0),
])
def test_parse_form_rejects_repeated_index(frame6, text, term, position):
    """A repeated index is an error at its term, as in ``parse_salamon``,
    not a zero term; the basis word itself is still zero."""
    with pytest.raises(FormSyntaxError) as err:
        parse_form(frame6, text)
    assert str(err.value) == f"repeated index in term {term!r} (at position {position})"
    assert frame6.basis(1, 1).is_zero


@given(name=st.text("edt0123456789ax", min_size=1, max_size=4))
def test_index_words_are_defined_once(frame7, name):
    """ParameterContext rejects a name exactly when parse_form reads it as
    an index word or rejects it with an index error, or when it is no
    identifier (it starts with a digit)."""
    try:
        word = 0 not in parse_form(frame7, name).comps
    except FormSyntaxError as exc:
        word = exc.message.startswith(("index", "repeated index"))
    try:
        ParameterContext((name,))
    except ValueError:
        rejected = True
    else:
        rejected = False
    assert rejected == (word or name[0].isdigit()), name


def test_form_str_roundtrip(frame6, frame7, pctx):
    samples = [
        "12 + 34 + 56",
        "135 - 146 - 236 - 245",
        "4*1234",
        "lam*35 - 1/2*13",
        "(z + a1)*13",
    ]
    for text in samples:
        f = parse_form(frame6, text)
        assert parse_form(frame6, form_str(f)) == f
    f7 = parse_form(frame7, "127+347+567+135-146-236-245")
    assert parse_form(frame7, form_str(f7)) == f7


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------

_coeffs = st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4)


def _forms(ctx, grade=None, max_terms=4):
    grades = st.just(grade) if grade is not None else st.integers(0, ctx.dim)

    @st.composite
    def build(draw):
        k = draw(grades)
        masks = list(combinations(range(1, ctx.dim + 1), k))
        chosen = draw(st.lists(st.sampled_from(masks), min_size=0,
                               max_size=min(max_terms, len(masks))))
        f = ctx.zero_form()
        for combo in chosen:
            f = f + ctx.basis(*combo).scale(ctx.params.scalar(draw(_coeffs)))
        return f

    return build()


@given(data=st.data())
def test_wedge_associative_anticommutative(frame6, data):
    ga = data.draw(st.integers(0, 3))
    gb = data.draw(st.integers(0, 3))
    gc = data.draw(st.integers(0, 2))
    a = data.draw(_forms(frame6, ga))
    b = data.draw(_forms(frame6, gb))
    c = data.draw(_forms(frame6, gc))
    assert a.wedge(b.wedge(c)) == a.wedge(b).wedge(c)
    sign = (-1) ** (ga * gb)
    assert a.wedge(b) == b.wedge(a).scale(sign)


@given(data=st.data())
def test_hodge_involution(frame6, frame7, data):
    for ctx in (frame6, frame7):
        k = data.draw(st.integers(0, ctx.dim))
        a = data.draw(_forms(ctx, k))
        sign = (-1) ** (k * (ctx.dim - k))
        assert hodge(hodge(a)) == a.scale(sign)


_symbolic_coeffs = st.sampled_from(
    ["lam", "-lam", "lam + 1", "-k - 2", "1/3*z*a1", "(lam - k)^2", "-3/2*lam^2 + k", "lam/(k + 1)"])


@given(data=st.data())
def test_form_str_roundtrip_mixed_grades(frame6, frame7, data):
    """parse_form reads form_str back on every grade, the 0-forms included
    (a bare integer is an index word), with rational and symbolic coefficients
    and, in dimension 7, the dt direction."""
    for ctx in (frame6, frame7):
        masks = st.integers(0, ctx.dim).flatmap(
            lambda k: st.sampled_from(exterior._basis_masks(ctx.dim, k)))
        terms = data.draw(st.lists(st.tuples(masks, st.one_of(
            _coeffs.map(ctx.params.scalar), _symbolic_coeffs.map(ctx.params.parse))), max_size=5))
        a = ctx.zero_form()
        for mask, c in terms:
            a = a + Form(ctx, {mask: c})
        assert parse_form(ctx, form_str(a)) == a, form_str(a)


@given(data=st.data())
def test_wedge_star_is_inner(frame6, frame7, data):
    for ctx in (frame6, frame7):
        k = data.draw(st.integers(0, ctx.dim))
        a = data.draw(_forms(ctx, k))
        b = data.draw(_forms(ctx, k))
        assert a.wedge(hodge(b)) == ctx.volume().scale(inner(a, b))


@given(data=st.data())
def test_interior_adjunction(frame6, data):
    k = data.draw(st.integers(1, 5))
    x = data.draw(_forms(frame6, 1))
    a = data.draw(_forms(frame6, k))
    b = data.draw(_forms(frame6, k - 1))
    assert inner(interior(x, a), b) == inner(a, x.wedge(b))


_SIGNED_PERMUTATIONS = [
    (perm, (-1) ** sum(perm[i] > perm[j] for i, j in combinations(range(6), 2)))
    for perm in permutations(range(6))
]


def _leibniz_det(rows, pctx):
    """det M as the sum over permutations p of sign(p) M[0][p0] ... M[5][p5]."""
    total = pctx.zero
    for perm, sign in _SIGNED_PERMUTATIONS:
        term = pctx.scalar(sign)
        for row, j in zip(rows, perm):
            term = term * row[j]
            if term.is_zero:
                break
        total = total + term
    return total


@st.composite
def _matrices(draw, pctx):
    """6x6 matrices, sparse or dense, with rational entries and entries in a
    family parameter; a singular one repeats a multiple of another row."""
    lam, k, z, a1 = (pctx.param(name) for name in ("lam", "k", "z", "a1"))
    rational = [pctx.scalar(c) for c in (1, -1, 2, Fraction(1, 2), Fraction(-3, 4), 3)]
    symbolic = [lam, -k, z / 2 + 1, a1 - 1, lam * 3 - k]
    sparse = draw(st.booleans())
    pool = rational + symbolic + [pctx.zero] * (12 if sparse else 2)
    entries = draw(st.lists(st.sampled_from(pool), min_size=36, max_size=36))
    rows = [entries[6 * i:6 * i + 6] for i in range(6)]
    if draw(st.booleans()):
        i, j = draw(st.permutations(range(6)))[:2]
        rows[i] = [x * draw(st.sampled_from(rational)) for x in rows[j]]
    return rows


@settings(max_examples=100)
@given(data=st.data())
def test_substitute_coframe_is_the_algebra_map(frame6, pctx, data):
    """It is multiplicative, sends e^i to row i and the volume to det(M) vol."""
    rows = data.draw(_matrices(pctx))
    ga = data.draw(st.integers(0, 4))
    a = data.draw(_forms(frame6, ga))
    b = data.draw(_forms(frame6, data.draw(st.integers(0, 6 - ga))))
    sub = lambda f: substitute_coframe(f, rows)  # noqa: E731
    assert sub(a.wedge(b)) == sub(a).wedge(sub(b))
    for i, row in enumerate(rows, start=1):
        image = sum((frame6.basis(j).scale(x) for j, x in enumerate(row, start=1)),
                    frame6.zero_form())
        assert sub(frame6.basis(i)) == image
    assert sub(vol(frame6)) == vol(frame6).scale(_leibniz_det(rows, pctx))


@settings(max_examples=100)
@given(data=st.data())
def test_substitute_coframe_of_several_forms_is_each_alone(frame6, pctx, data):
    """One ``_pull_back`` call over several forms, whose words share one
    image table, gives each form's image by itself, in order."""
    rows = data.draw(_matrices(pctx))
    forms = data.draw(st.lists(_forms(frame6), max_size=4))
    images = _pull_back([f.comps for f in forms], rows)
    assert [Form(frame6, comps) for comps in images] == [
        substitute_coframe(f, rows) for f in forms]


@settings(max_examples=100)
@given(data=st.data())
def test_substitute_coframe_with_int_rows_is_scaled_and_scalar(frame6, pctx, data):
    """Int rows R stand for R/q: a k-form goes to q^k times its image under
    the Scalar rows R/q, and every component is a Scalar."""
    R = [data.draw(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3)), min_size=6, max_size=6))
         for _ in range(6)]
    q = data.draw(st.sampled_from((1, 2, 3, 6)))
    k = data.draw(st.integers(0, 6))
    a = data.draw(_forms(frame6, k))
    image = substitute_coframe(a, R)
    assert all(type(c) is Scalar for c in image.comps.values())
    scalar_rows = [[pctx.scalar(Fraction(x, q)) for x in row] for row in R]
    assert image == substitute_coframe(a, scalar_rows).scale(q ** k)


def test_j_apply_keeps_scalars(pctx):
    """J's rows are ints; its images hold Scalars only, symbolic or not."""
    for name in FAMILIES:
        _, structure = instantiate(name, params=pctx)
        forms = list(structure.adapted.d_table) + [structure.omega, structure.psi_plus]
        for a in forms:
            image = j_apply(a)
            assert all(type(c) is Scalar for c in image.comps.values()), (name, a)
            assert j_apply(image) == (a if a.homogeneous_grade() in (0, 2, 4, 6, None) else -a)


def test_scale_by_zero_is_the_zero_form(frame6, pctx):
    a = parse_form(frame6, "lam*12 + 3/2*34")
    for zero in (0, Fraction(0), pctx.zero):
        assert a.scale(zero) == frame6.zero_form()
        assert a.scale(zero).ctx is frame6
    assert a.scale(1) is a


# ---------------------------------------------------------------------------
# memoized index helpers; unit coefficients in the form kernels
# ---------------------------------------------------------------------------


def _indices(mask):
    return [i + 1 for i in range(7) if mask >> i & 1]


def _sign(a, b):
    """(-1)^(number of inversions of the index word (indices of a, indices of b))."""
    return (-1) ** sum(i > j for i in _indices(a) for j in _indices(b))


def test_merge_sign_on_every_disjoint_pair():
    pairs = [(a, b) for a in range(128) for b in range(128) if not a & b]
    assert len(pairs) == 3 ** 7
    for a, b in pairs:
        assert exterior._merge_sign(a, b) == _sign(a, b), (a, b)


def test_mask_on_every_word_up_to_length_4():
    """Every index word of length at most 4 in dimension 7, repeats
    included: the parity of its inversions and its bitmask, or (0, 0)."""
    words = [word for k in range(5) for word in product(range(1, 8), repeat=k)]
    assert len(words) == 1 + 7 + 7 ** 2 + 7 ** 3 + 7 ** 4
    for word in words:
        expected = (0, 0)
        if len(set(word)) == len(word):
            inversions = sum(i > j for k, i in enumerate(word) for j in word[k + 1:])
            expected = ((-1) ** inversions, sum(1 << (i - 1) for i in word))
        assert exterior._mask(word) == expected, word


def test_bits_on_every_mask():
    for mask in range(128):
        bits = exterior._bits(mask)
        assert type(bits) is tuple and bits == tuple(_indices(mask))


def _reference_wedge(a, b):
    """The components of a ^ b, every product taken."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            if not ma & mb:
                out[ma | mb] = out.get(ma | mb, 0) + ca * cb * _sign(ma, mb)
    return out


def _reference_leibniz(table, comps):
    """d of the form ``comps`` by the Leibniz rule, every product taken."""
    out = {}
    for mask, coeff in comps.items():
        for j, idx in enumerate(_indices(mask)):
            rest = mask & ~(1 << (idx - 1))
            for m2, c2 in table[idx - 1].items():
                if not m2 & rest:
                    term = c2 * coeff * (-1) ** j * _sign(m2, rest)
                    out[m2 | rest] = out.get(m2 | rest, 0) + term
    return out


def _nonzero(comps):
    return {m: c for m, c in comps.items() if c}


def _unit_inputs(pctx, kind):
    """Three coefficients of the kind, and the units that can reach a kernel
    with them: the context's one, a freshly built one and -1 for Scalars,
    1 and -1 for the ints of the integer fingerprint."""
    lam, k = pctx.param("lam"), pctx.param("k")
    if kind == "int":
        return [3, -2, 5], [1, -1]
    if kind == "symbolic":
        values = [lam, k * lam + Fraction(1, 2), lam * -3]
    else:
        values = [pctx.scalar(Fraction(3, 2)), pctx.scalar(-2), pctx.scalar(5)]
    return values, [pctx.one, Scalar(pctx, Fraction(1)), -pctx.one]


@pytest.mark.parametrize("kind", ["symbolic", "rational", "int"])
def test_unit_coefficients_in_wedge_and_leibniz(pctx, kind):
    """``_wedge`` and ``_leibniz`` give the components of the plain products
    when a coefficient is a unit, however the unit was built."""
    values, units = _unit_inputs(pctx, kind)
    b = {0b000110: values[0], 0b001000: values[1], 0b110001: values[2]}
    table = [{}, {}, {0b11: values[0]}, {0b101: units[0]},
             {0b110: values[1]}, {0b1001: values[2], 0b10010: units[-1]}]
    for unit in units:
        # a unit on the lowest index and beyond it, next to a general coefficient
        for a in ({0b1: unit, 0b10000: values[1]}, {0b100: unit, 0b11000: unit}):
            assert exterior._wedge(a, b) == _reference_wedge(a, b)
            assert exterior._wedge(b, a) == _reference_wedge(b, a)
        comps = {0b111000: unit, 0b100100: values[0], 0b10100: unit}
        assert _leibniz(table, comps) == _reference_leibniz(table, comps)


@pytest.mark.parametrize("kind", ["symbolic", "rational"])
def test_unit_coefficients_in_form_operations(frame6, pctx, kind):
    """Form.wedge, LieAlgebra.d, Form.scale and Form.__sub__ give the
    components of the plain products and differences on unit coefficients."""
    values, units = _unit_inputs(pctx, kind)
    g = instantiate("case1", params=pctx)[0]
    table = [f.comps for f in g.d_table]
    b = Form(frame6, {0b000110: values[0], 0b001000: values[1], 0b110001: values[2]})
    for unit in units:
        a = Form(frame6, {0b1: unit, 0b10000: values[1], 0b1100: unit})
        assert a.wedge(b).comps == _nonzero(_reference_wedge(a.comps, b.comps))
        assert g.d(a).comps == _nonzero(_reference_leibniz(table, a.comps))
        for factor in (unit, 1, -1, values[0]):
            assert a.scale(factor).comps == {m: c * factor for m, c in a.comps.items()}
        for x, y in ((a, b), (b, a), (a, a), (a, frame6.zero_form())):
            difference = {m: x.comps.get(m, 0) - y.comps.get(m, 0) for m in {*x.comps, *y.comps}}
            assert (x - y).comps == _nonzero(difference)
