"""Integer forms as the data: tables held as numerators, Scalars built on read.

An algebra built from numerators (``change_basis``, ``bind``,
``g2.build_product``) builds its Scalar ``d_table`` on first read; a
parameter-free table keeps its int table; the line projections of the
Lefschetz split, the Lee form and the V7 test run through one kernel,
``exterior._projections``; ``d``, ``hodge``, negation, scaling and ``lift``
build their forms unfiltered, so they must never make a zero; a binding is
folded once per point.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nilg2 import exterior, liealg
from nilg2.exterior import (Form, FrameContext, _Lines, _basis_masks, _lefschetz_solver,
                            _projections, hodge, inner, substitute_coframe)
from nilg2.families import FAMILIES, case2_gauge_rotation, instantiate
from nilg2.g2 import _product_frame, build_product, lift
from nilg2.liealg import (NAMED_ALGEBRAS, BasisChange, LieAlgebra, betti_numbers, change_basis,
                          fingerprint, parse_salamon)
from nilg2.scalars import Scalar, ScalarError, _Point, _point
from nilg2.su3 import load_structure_file, standard_structure

_GAUGE = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-5, 13), Fraction(12, 13)))


def _random_rational(rng, pctx):
    """A signed scaled permutation plus two row operations: invertible."""
    perm = list(range(6))
    rng.shuffle(perm)
    rows = [[Fraction(0)] * 6 for _ in range(6)]
    for i, p in enumerate(perm):
        rows[i][p] = Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 2, 3)))
    for _ in range(2):
        i, j = rng.sample(range(6), 2)
        rows[i] = [a + 2 * b for a, b in zip(rows[i], rows[j])]
    return BasisChange(pctx, rows)


def _moved_algebras(pctx):
    rng = random.Random(3232)
    out = []
    for spec in FAMILIES.values():
        g = parse_salamon(spec.table, pctx)
        changes = [_random_rational(rng, pctx) for _ in range(4)]
        changes += [case2_gauge_rotation(pctx, c, s) for c, s in _GAUGE]
        out += [(g, B) for B in changes]
    for text in NAMED_ALGEBRAS.values():
        out.append((parse_salamon(text, pctx), _random_rational(rng, pctx)))
    return out


def test_change_basis_builds_its_scalar_table_on_first_read(pctx):
    """The table ``change_basis`` hands on as numerators reads as the table
    the Scalar route gives, sum_j B_ij (B^-1)^* d e^j, once its d_table is
    read, and an algebra built eagerly from it holds the same numerators."""
    for g, B in _moved_algebras(pctx):
        moved = change_basis(g, B)
        assert moved._d_table is None
        pulled = [substitute_coframe(f, B.inverse_rows()) for f in g.d_table]
        expected = tuple(sum((d.scale(c) for c, d in zip(row, pulled)), g.ctx.zero_form())
                         for row in B.rows)
        assert moved.d_table == expected
        eager = LieAlgebra(moved.ctx, expected, require_nilpotent=False)
        assert eager._numerators == moved._numerators and eager == moved


def test_bind_builds_its_scalar_table_on_first_read(pctx):
    point = {"lam": Fraction(3, 2), "k": Fraction(-2), "z": Fraction(1, 3), "a1": Fraction(5, 7)}
    for g, B in _moved_algebras(pctx)[::3]:
        for algebra in (g, change_basis(g, B)):
            bound = algebra.bind(point)
            assert bound._d_table is None
            empty = bound.ctx.params
            expected = tuple(Form(bound.ctx, {m: Scalar(empty, c.evaluate(point))
                                              for m, c in f.comps.items()})
                             for f in algebra.d_table)
            assert bound.d_table == expected
            assert LieAlgebra(bound.ctx, expected)._numerators == bound._numerators


def test_build_product_appends_an_empty_row_to_the_base_numerators(pctx):
    """The product's table is the base's numerators and an empty d(dt) row;
    read as Scalars it is the lifted base table with a zero seventh entry."""
    structures = [instantiate(name, params=pctx)[1] for name in FAMILIES]
    structures += [instantiate(name, {"lam": 2, "k": 3, "z": 1, "a1": -3}, pctx)[1]
                   for name in FAMILIES]
    for g, B in _moved_algebras(pctx)[:6]:
        structures.append(standard_structure(change_basis(g, B)))
    for s in structures:
        product = build_product(s).product
        rows, den = s.adapted._numerators
        assert product._numerators == (rows + [{}], den)
        assert product._d_table is None
        ctx7 = product.ctx
        expected = tuple(lift(f, ctx7) for f in s.adapted.d_table) + (ctx7.zero_form(),)
        assert product.d_table == expected
        assert LieAlgebra(ctx7, expected, require_nilpotent=False)._numerators == \
            product._numerators


def test_a_rational_function_base_keeps_the_scalar_product(pctx):
    g = parse_salamon("0,0,0,0,(1/lam)*12,k*13", pctx)
    product = build_product(standard_structure(g)).product
    assert g._numerators is None and product._numerators is None
    assert product.d_table[:6] == tuple(lift(f, product.ctx) for f in g.d_table)


def test_a_rational_basis_change_builds_its_scalar_rows_on_first_read(pctx):
    rows = [[Fraction(1, 2) if i == j else Fraction(i == j + 1) for j in range(6)]
            for i in range(6)]
    B = BasisChange(pctx, rows)
    assert B._rows is None and B._scaled == (tuple(tuple(int(2 * x) for x in row)
                                                   for row in rows), 2)
    assert B.rows == tuple(tuple(pctx.scalar(x) for x in row) for row in rows)
    symbolic = BasisChange.diagonal(pctx, ["lam", 1, 1, 1, 1, 1])
    assert symbolic._scaled is None and symbolic._scaled_rows() == (symbolic.rows, 1)


def test_a_parameter_free_table_keeps_its_int_table(pctx, monkeypatch):
    """Parsed, moved and bound parameter-free tables hold their int table:
    the invariants and the nilpotency check read it and evaluate nothing."""
    algebras = [parse_salamon(text, pctx) for text in NAMED_ALGEBRAS.values()]
    rng = random.Random(77)
    algebras += [change_basis(g, _random_rational(rng, pctx)) for g in algebras[:6]]
    algebras += [parse_salamon(spec.table, pctx).bind({"lam": 2, "k": 3, "z": 1, "a1": -1})
                 for spec in FAMILIES.values()]
    expected = [(fingerprint(g), betti_numbers(g), g._check_filtration()) for g in algebras]

    def no_evaluation(*args):
        raise AssertionError("a parameter-free table was evaluated")

    monkeypatch.setattr(liealg, "_evaluate", no_evaluation)
    for g, values in zip(algebras, expected):
        assert g._ints is not None and g.params() == frozenset()
        table, den = g._ints
        assert g._integers_at({}) is g._ints
        assert (table, den) == ([{m: numer[g.ctx.params._zero_monom] for m, numer in row.items()}
                                 for row in g._numerators[0]], g._numerators[1])
        assert (fingerprint(g), betti_numbers(g), g._check_filtration()) == values


_COEFFICIENTS = ("1", "-1", "2", "3/2", "-5/4", "lam", "k*z/3", "(a1 + z)^2/2", "lam - 1/3",
                 "1/lam", "k/(z + a1)")


def _coefficient(pctx, rational_functions):
    pool = _COEFFICIENTS if rational_functions else _COEFFICIENTS[:9]
    return st.sampled_from(pool).map(pctx.parse)


@st.composite
def _forms(draw, ctx, rational_functions=True, grade=None):
    """A form on up to eight basis words, of mixed grades or of ``grade``."""
    grades = st.integers(0, ctx.dim) if grade is None else st.just(grade)
    masks = grades.flatmap(lambda k: st.sampled_from(_basis_masks(ctx.dim, k)))
    terms = draw(st.lists(st.tuples(masks, _coefficient(ctx.params, rational_functions)),
                          max_size=8))
    return Form(ctx, dict(terms))


def _line_families(frame6):
    frame = _product_frame(frame6)
    return [_lefschetz_solver(frame6, "plus"), _lefschetz_solver(frame6, "minus"),
            frame.lee_lines, frame.v7_lines]


@given(data=st.data())
def test_projection_kernel_equals_inner_times_inverse_norm(frame6, frame7, data):
    """For every family of fixed lines, held as ``_Lines`` or as a plain
    tuple, the kernel gives <a, l> * 1/<l, l> for each line, Scalar by
    Scalar, on polynomial, rational and rational-function coefficients."""
    for lines in _line_families(frame6):
        ctx = lines[0][0].ctx
        a = data.draw(_forms(ctx))
        # the sum of the lines puts a's components on them
        a = a + Form(ctx, {m: c for line, _ in lines for m, c in line.comps.items()
                           if data.draw(st.booleans())})
        expected = [inner(a, line) * inv for line, inv in lines]
        assert _projections(a, lines) == expected
        assert _projections(a, tuple(lines)) == expected


def test_line_families_are_held_transposed(frame6):
    for lines in _line_families(frame6):
        assert isinstance(lines, _Lines)
        table, den = lines.table
        for i, (line, inv) in enumerate(lines):
            weights = {m: Fraction(k, den) for m, cells in table.items()
                       for j, k in cells if j == i}
            assert weights == {m: c.as_fraction() * inv.as_fraction()
                               for m, c in line.comps.items()}


@given(data=st.data())
def test_unfiltered_producers_never_make_a_zero(pctx, data):
    """d on numerators, hodge, negation, scaling by a nonzero factor and
    lift keep no zero component, so skipping the filter loses nothing."""
    g = change_basis(parse_salamon(FAMILIES["case2"].table, pctx),
                     case2_gauge_rotation(pctx, Fraction(3, 5), Fraction(4, 5)))
    product = build_product(standard_structure(g)).product
    for algebra in (g, product):
        ctx = algebra.ctx
        a = data.draw(_forms(ctx, False, data.draw(st.integers(0, ctx.dim))))
        factor = data.draw(_coefficient(pctx, True))
        results = [algebra.d(a), hodge(a), -a, a.scale(factor)]
        if ctx.dim == 6:
            results.append(lift(a, product.ctx))
        for form in results:
            assert all(c.raw for c in form.comps.values())
            assert Form(form.ctx, form.comps).comps == form.comps


def test_form_keeps_its_numerators_once_computed(frame6, pctx):
    a = Form(frame6, {0b11: pctx.parse("lam/2"), 0b1100: pctx.parse("3")})
    scaled = a._scaled()
    assert scaled == ({0b11: {(0, 0, 1, 0, 0): 1}, 0b1100: {(0, 0, 0, 0, 0): 6}}, 2)
    assert a._scaled() is scaled
    assert Form(frame6, {0b11: pctx.parse("1/lam")})._scaled() is None


def test_a_point_is_folded_once(pctx):
    point = _point({"λ": 2, "k": Fraction(1, 3)})
    assert type(point) is _Point and point == {"lam": Fraction(2), "k": Fraction(1, 3)}
    assert _point(point) is point
    value = pctx.parse("lam*k + 1/(lam - k)")
    assert value.evaluate(point) == value.evaluate({"λ": 2, "k": Fraction(1, 3)}) == \
        Fraction(2, 3) + Fraction(3, 5)


def test_evaluate_names_the_first_unbound_parameter_in_context_order(pctx):
    value = pctx.parse("z*lam + a1 + k")
    with pytest.raises(ScalarError, match="^unbound parameter 'a1'$"):
        value.evaluate(_point({"lam": 1}))
    with pytest.raises(ScalarError, match="^unbound parameter 'z'$"):
        value.evaluate({"lam": 1, "a1": 2, "k": 3})
    with pytest.raises(ScalarError, match="^denominator vanishes at binding$"):
        pctx.parse("1/(lam - 1)").evaluate(_point({"lam": 1}))


def _structure_file(tmp_path, algebra, params="", adaptation=None):
    lines = ["[algebra]", algebra]
    if adaptation is not None:
        lines += ["[adaptation]"] + adaptation
    if params:
        lines += ["[params]", params]
    path = tmp_path / "s.su3"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_structure_file_binding_messages(tmp_path, pctx):
    """A file's binding is folded once for its table and its adaptation
    cells; an unbound table parameter is named first in context order, an
    unbound cell in reading order, and a pole says so."""
    path = _structure_file(tmp_path, "0,0,0,0,z*12,a1*13+lam*12", "lam = 1")
    with pytest.raises(ScalarError, match="^unbound parameter 'a1'$"):
        load_structure_file(path, pctx)
    diagonal = [" ".join("z" if (i, j) == (0, 0) else "k" if (i, j) == (1, 1) else
                         str(int(i == j)) for j in range(6)) for i in range(6)]
    path = _structure_file(tmp_path, "0,0,0,0,12,13", "lam = 1", diagonal)
    with pytest.raises(ScalarError, match="^unbound parameter 'z'$"):
        load_structure_file(path, pctx)
    path = _structure_file(tmp_path, "0,0,0,0,0,1/(lam-1)*12", "lam = 1")
    with pytest.raises(ScalarError, match="^denominator vanishes at binding$"):
        load_structure_file(path, pctx)
    path = _structure_file(tmp_path, "0,0,0,0,0,1/(lam-1)*12", "λ = 3")
    structure, bindings = load_structure_file(path, pctx)
    assert bindings == {"lam": Fraction(3)}
    assert structure.algebra.d_table[5] == Form(FrameContext(6, structure.algebra.ctx.params),
                                                {0b11: structure.algebra.ctx.params.scalar(
                                                    Fraction(1, 2))})


def test_rational_function_table_is_evaluated_at_one_folded_point(pctx, monkeypatch):
    """``_integers_at`` of a table with a rational-function entry folds the
    point once and hands the same ``_Point`` to every entry."""
    g = parse_salamon("0,0,0,0,1/(lam-2)*12,k^2/3*13+1/(lam-2)*12", pctx)
    seen = []
    evaluate = Scalar.evaluate
    monkeypatch.setattr(Scalar, "evaluate", lambda c, point: (seen.append(point),
                                                              evaluate(c, point))[1])
    table, den = g._integers_at({"lam": 3, "k": Fraction(1, 2)})
    assert (table, den) == ([{}, {}, {}, {}, {0b11: 12}, {0b11: 12, 0b101: 1}], 12)
    assert len(seen) == 3 and all(p is seen[0] for p in seen) and type(seen[0]) is _Point
    with pytest.raises(ScalarError, match="^denominator vanishes at binding$"):
        g._integers_at({"lam": 2, "k": 1})


def test_form_str_words_are_cached_and_unchanged(frame7, pctx):
    """``form_str`` orders components by grade, then indices, and writes
    each mask's index word: the cached words give the text the direct
    computation gives."""
    for mask in range(1 << 7):
        key, word = exterior._word(mask)
        bits = exterior._bits(mask)
        assert key == (bin(mask).count("1"), bits)
        assert word == "".join(str(i) for i in bits)
    a = Form(frame7, {m: pctx.parse("lam - 2") if m % 3 else pctx.scalar(-1)
                      for m in range(1, 1 << 7, 5)})
    assert exterior.parse_form(frame7, exterior.form_str(a)) == a
