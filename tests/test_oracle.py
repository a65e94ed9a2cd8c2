"""The derived oracle checks against values the package tests already pin."""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ORACLE_OMEGA, oracle_family_table, oracle_table, table_to_oracle
from oracle import (
    PSI_PLUS,
    add,
    annihilator_series,
    betti_numbers,
    codifferential,
    contraction,
    d_of,
    double_bracket_real_lines,
    exact_two_form_data,
    is_type_22,
    laplacian,
    scale,
    wedge,
)
from oracle import change_basis as oracle_change_basis
from oracle import series_dims as oracle_series_dims
from test_liealg import _witness_style, random_invertible

from nilg2.exterior import FrameContext, parse_form
from nilg2.families import (
    FAMILIES,
    ContractionError,
    case2_gauge_rotation,
    contraction_limit,
    instantiate,
)
from nilg2.liealg import (
    NAMED_ALGEBRAS,
    BasisChange,
    LieAlgebra,
    change_basis,
    fingerprint,
    parse_salamon,
    salamon_str,
)


@pytest.mark.parametrize(
    "name,binding",
    [
        ("case1", {"lam": Fraction(1, 2), "k": -5}),
        ("case2", {"lam": 2, "z": 3, "a1": 5}),
        ("case3", {"lam": 3, "a1": Fraction(-2, 7)}),
    ],
)
def test_hand_family_tables_match_package(pctx, name, binding):
    algebra, _ = instantiate(name, binding, params=pctx)
    assert oracle_family_table(name, **binding) == table_to_oracle(algebra)


def test_codifferential_is_adjoint_of_d():
    """<d a, b> = <a, d* b> on the product, every grade."""
    rng = random.Random(3)
    table = oracle_family_table("case2", lam=2, z=3, a1=5)

    def random_form(grade):
        keys = list(combinations(range(1, 8), grade))
        return {key: Fraction(rng.randint(1, 4)) * rng.choice((1, -1))
                for key in rng.sample(keys, min(4, len(keys)))}

    def inner(x, y):
        return sum(v * y.get(key, 0) for key, v in x.items())

    for grade in range(1, 8):
        for _ in range(4):
            a, b = random_form(grade - 1), random_form(grade)
            assert inner(d_of(table, a), b) == inner(a, codifferential(table, b))


def test_is_type_22_pins():
    """e1234 and omega^2 are of type (2,2); a (3,1)+(1,3) part is not."""
    assert is_type_22({(1, 2, 3, 4): Fraction(1)})
    assert is_type_22(wedge(ORACLE_OMEGA, ORACLE_OMEGA))
    assert is_type_22({})
    assert not is_type_22({(1, 2, 3, 7): Fraction(1)})


@pytest.mark.parametrize("i", range(1, 7))
def test_is_type_22_false_on_each_psi_line(i):
    """Every one of the six conditions is needed: e^i ^ psi+ fails, also
    with a (2,2) form added."""
    line = wedge({(i,): Fraction(1)}, PSI_PLUS)
    assert not is_type_22(line)
    assert not is_type_22(add(line, {(1, 2, 3, 4): Fraction(3)}))


@pytest.mark.parametrize(
    "lam,k", [(1, 1), (2, 3), (Fraction(1, 2), -5)]
)
def test_laplacian_case1_matches_pinned(lam, k):
    """su3 pins Delta omega = 3 lam^2 omega + 2 k^2 e34 on case1."""
    lam, k = Fraction(lam), Fraction(k)
    delta = laplacian(oracle_family_table("case1", lam=lam, k=k), ORACLE_OMEGA)
    assert delta == add(scale(ORACLE_OMEGA, 3 * lam * lam), {(3, 4): 2 * k * k})


def test_laplacian_torus_and_case3_slice():
    assert laplacian({}, ORACLE_OMEGA) == {}
    for lam in (Fraction(1), Fraction(2), Fraction(-3, 4)):
        table = oracle_family_table("case3", lam=lam, a1=0)
        assert laplacian(table, ORACLE_OMEGA) == scale(ORACLE_OMEGA, 3 * lam * lam)


def test_real_lines_invariant_under_basis_change(pctx):
    """3 on 14+35 and 1 on 14-35 in every seeded random rational coframe."""
    rng = random.Random(7)
    for twin, sign, count in (("14+35", 1, 3), ("14-35", -1, 1)):
        algebra = parse_salamon(f"0,0,0,12,23,{twin}", pctx)
        table = oracle_table({4: {(1, 2): 1}, 5: {(2, 3): 1}, 6: {(1, 4): 1, (3, 5): sign}})
        assert double_bracket_real_lines(table) == count
        for _ in range(8):
            B = random_invertible(rng, pctx)
            moved = table_to_oracle(change_basis(algebra, B))
            assert double_bracket_real_lines(moved) == count


def test_change_basis_matches_the_oracle_basis_change(pctx):
    """change_basis against the oracle's plain-Fraction basis change (its own
    inverse, d f^i = sum_j B_ij (B^-1)^* d e^j), compared at a seeded
    binding: every named algebra, and the three families both symbolic and
    bound there, under seeded rational matrices, the three case2 gauge
    rotations and witness-style matrices with parameter entries (evaluated
    at the binding for a bound family).  The numerators of a parameter-free
    result evaluate at the empty point to the integer table of its own
    entries."""
    rng = random.Random(2727)
    rotations = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-5, 13), Fraction(12, 13)),
                 (Fraction(8, 17), Fraction(-15, 17)))

    def binding():
        return {p: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for p in ("lam", "k", "z", "a1")}

    cases = [(parse_salamon(text, pctx), binding()) for text in NAMED_ALGEBRAS.values()]
    for name, spec in FAMILIES.items():
        point = binding()
        cases += [(parse_salamon(spec.table, pctx), point), (instantiate(name, point, pctx)[0], point)]
    integer = 0
    for g, point in cases:
        params = g.ctx.params
        changes = [random_invertible(rng, params) for _ in range(3)]
        changes += [case2_gauge_rotation(params, c, s) for c, s in rotations]
        for W in (_witness_style(rng, pctx) for _ in range(2)):
            changes.append(W if params is pctx else BasisChange(
                params, [[c.evaluate(point) for c in row] for row in W.rows]))
        table = table_to_oracle(g, point)
        for B in changes:
            matrix = [[c.evaluate(point) for c in row] for row in B.rows]
            moved = change_basis(g, B)
            assert table_to_oracle(moved, point) == oracle_change_basis(table, matrix), (g, B)
            if not moved.params():
                integer += 1
                values = [{m: c.raw for m, c in f.comps.items()} for f in moved.d_table]
                scale = lcm(*(x.denominator for row in values for x in row.values()))
                assert moved._numerators[1] == scale
                assert moved._integers_at({}) == ([
                    {m: x.numerator * (scale // x.denominator) for m, x in row.items() if x}
                    for row in values], scale)
    assert integer == 9 * 6 + 3 * 8 + 2  # the torus stays parameter-free under a witness


def test_real_lines_undefined_off_three_step():
    assert double_bracket_real_lines({}) is None
    assert double_bracket_real_lines(oracle_family_table("case3", lam=1, a1=0)) is None


_SERIES_BINDINGS = {
    "case1": ({"lam": 1, "k": 2}, {"lam": Fraction(-3, 2), "k": 5}),
    "case2": ({"lam": 2, "z": 3, "a1": 5}, {"lam": -1, "z": Fraction(1, 2), "a1": 4}),
    "case3": ({"lam": 3, "a1": Fraction(-2, 7)}, {"lam": Fraction(1, 2), "a1": 0}),
}


def _series_fields(g):
    fp = fingerprint(g)
    return fp.lower_central, fp.derived, fp.upper_central


def test_series_dims_match_bracket_oracle(pctx):
    """The dual filtrations of liealg give the bracket-side series: on every
    named algebra, the families at two bindings each and seeded basis
    changes of all of them."""
    algebras = {name: parse_salamon(text, pctx) for name, text in NAMED_ALGEBRAS.items()}
    for name, bindings in _SERIES_BINDINGS.items():
        for binding in bindings:
            algebras[f"{name} {binding}"], _ = instantiate(name, binding, params=pctx)
    rng = random.Random(23)
    upper_lengths = set()
    for name, g in algebras.items():
        expected = oracle_series_dims(table_to_oracle(g))
        upper_lengths.add(len(expected[2]))
        assert _series_fields(g) == expected, name
        for _ in range(4):
            moved = change_basis(g, random_invertible(rng, g.ctx.params))
            assert _series_fields(moved) == oracle_series_dims(table_to_oracle(moved)), name
    # the set covers nilpotency steps 1 (the torus) to 4
    assert upper_lengths == {1, 2, 3, 4}


def test_series_and_nilpotency_match_both_oracle_routes(pctx):
    """fingerprint's series and _check_filtration against the oracle's
    brackets and its annihilator route (the preimage climbs under d): the
    algebras of the bracket test, each family times a circle at its two
    bindings, the Iwasawa product, non-nilpotent tables with cyclic support,
    and seeded basis changes of all of them."""
    algebras = [parse_salamon(text, pctx) for text in NAMED_ALGEBRAS.values()]
    for name, bindings in _SERIES_BINDINGS.items():
        for binding in bindings:
            g = instantiate(name, binding, params=pctx)[0]
            algebras += [g, parse_salamon(salamon_str(g) + ",0", pctx)]
    algebras.append(parse_salamon(NAMED_ALGEBRAS["iwasawa"] + ",0", pctx))
    for text in ("0,13,12,0,0,0", "0,12,0,0,0,0", "0,12,13,0,0,0", "-23,13,-12,-56,46,-45",
                 "0,13,12,0,0,0,0"):
        ctx = FrameContext(len(text.split(",")), pctx)
        d_table = [ctx.zero_form() if t == "0" else parse_form(ctx, t) for t in text.split(",")]
        algebras.append(LieAlgebra(ctx, d_table, require_nilpotent=False))
    rng = random.Random(29)
    for g in list(algebras):
        algebras += [change_basis(g, random_invertible(rng, g.ctx.params, g.ctx.dim))
                    for _ in range(3)]
    verdicts = {}
    for g in algebras:
        table = table_to_oracle(g)
        lower, derived, upper = oracle_series_dims(table, g.ctx.dim)
        fp = fingerprint(g)
        assert (fp.lower_central, fp.derived, fp.upper_central) == (lower, derived, upper), g
        assert annihilator_series(table, g.ctx.dim) == (lower, derived), g
        assert g._check_filtration() == (lower[-1] == 0), g
        key = (g.ctx.dim, lower[-1] == 0, g._support_is_acyclic())
        verdicts[key] = verdicts.get(key, 0) + 1
    # both dimensions, both verdicts, and the filtration deciding on cyclic supports
    assert {(dim, nilpotent) for dim, nilpotent, _ in verdicts} == {
        (6, True), (6, False), (7, True), (7, False)}
    assert verdicts[6, True, False] >= 20 and verdicts[7, True, False] >= 10


def test_betti_numbers_match_full_rank_oracle(pctx):
    """fingerprint's Betti numbers, which take rank d_k from rank d_{n-1-k}
    once rank d_{n-1} = 0, equal full ranks on every grade: every named
    algebra, the families at two bindings each, 60 seeded basis changes of
    them, and three non-unimodular tables, where every rank is computed."""
    algebras = [parse_salamon(text, pctx) for text in NAMED_ALGEBRAS.values()]
    for name, bindings in _SERIES_BINDINGS.items():
        algebras += [instantiate(name, binding, params=pctx)[0] for binding in bindings]
    rng = random.Random(31)
    for g in rng.choices(algebras, k=60):
        algebras.append(change_basis(g, random_invertible(rng, g.ctx.params)))
    ctx = FrameContext(6, pctx)
    for table in ("0,12,0,0,0,0", "0,12,13,0,0,0", "0,12,0,34,0,0"):
        d_table = [ctx.zero_form() if t == "0" else parse_form(ctx, t) for t in table.split(",")]
        algebras.append(LieAlgebra(ctx, d_table, require_nilpotent=False))
    for g in algebras:
        assert fingerprint(g).betti == betti_numbers(table_to_oracle(g)), g


def test_fingerprint_matches_oracle(pctx):
    """Every field of the fingerprint against the oracle: the Betti numbers
    by full ranks, the series from brackets, the exact two-form data from
    the spanning set d e^i.  On every named algebra, the families at two
    bindings each, so(3)+so(3) (where d is injective on 1-forms), the three
    non-unimodular tables and 60 seeded basis changes of them."""
    algebras = [parse_salamon(text, pctx) for text in NAMED_ALGEBRAS.values()]
    for name, bindings in _SERIES_BINDINGS.items():
        algebras += [instantiate(name, binding, params=pctx)[0] for binding in bindings]
    ctx = FrameContext(6, pctx)
    for table in ("-23,13,-12,-56,46,-45", "0,12,0,0,0,0", "0,12,13,0,0,0", "0,12,0,34,0,0"):
        d_table = [ctx.zero_form() if t == "0" else parse_form(ctx, t) for t in table.split(",")]
        algebras.append(LieAlgebra(ctx, d_table, require_nilpotent=False))
    rng = random.Random(41)
    for g in rng.choices(algebras, k=60):
        algebras.append(change_basis(g, random_invertible(rng, g.ctx.params)))
    seen = set()
    for g in algebras:
        table = table_to_oracle(g)
        fp = fingerprint(g)
        assert fp.betti == betti_numbers(table), g
        assert (fp.lower_central, fp.derived, fp.upper_central) == oracle_series_dims(table), g
        data = (*fp.wedge_data, fp.exact_two_forms_decomposable)
        assert data == exact_two_form_data(table), g
        seen.add(data)
    # so(3)+so(3); decomposable and not; a radical neither 0 nor everything
    assert (6, 9, 0, False) in seen
    assert {True, False} == {data[3] for data in seen}
    assert any(0 < data[2] < data[0] for data in seen)


_NONZERO = st.sampled_from([Fraction(p, q) for p in (1, -1, 2, -3, 5) for q in (1, 2, 3, 7)])


@st.composite
def _rational_basis_changes(draw):
    """A signed permutation scaled by fractions, then one to three shears
    with fractional multipliers: invertible by construction."""
    perm = draw(st.permutations(range(6)))
    rows = [[draw(_NONZERO) if j == perm[i] else Fraction(0) for j in range(6)]
            for i in range(6)]
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.lists(st.integers(0, 5), min_size=2, max_size=2, unique=True))
        c = draw(_NONZERO)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


@pytest.mark.parametrize("name", sorted(NAMED_ALGEBRAS))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(rows=_rational_basis_changes(), c=_NONZERO)
def test_fingerprint_invariant_under_basis_change_and_scaling(pctx, name, rows, c):
    """A rational basis change with denominators and a nonzero multiple c*d
    of the table are isomorphic algebras: each gives the fingerprint of the
    entry, and it equals the oracle's values on the moved, scaled table.  The
    integer kernel relies on this invariance under scaling (12 seeded
    examples for each of the 9 entries)."""
    g = parse_salamon(NAMED_ALGEBRAS[name], pctx)
    moved = change_basis(g, BasisChange(pctx, rows))
    scaled = [LieAlgebra(h.ctx, [f.scale(c) for f in h.d_table], require_nilpotent=False)
              for h in (g, moved)]
    fp = fingerprint(g)
    assert fingerprint(moved) == fingerprint(scaled[0]) == fingerprint(scaled[1]) == fp
    table = table_to_oracle(scaled[1])
    assert fp.betti == betti_numbers(table)
    assert (fp.lower_central, fp.derived, fp.upper_central) == oracle_series_dims(table)
    assert (*fp.wedge_data, fp.exact_two_forms_decomposable) == exact_two_form_data(table)


def _terms(g):
    """The d-table as {i: {(a, b): coefficient}}, coefficients as they are."""
    return {i: dict(f.terms()) for i, f in enumerate(g.d_table, start=1) if not f.is_zero}


def test_contraction_limit_matches_bracket_oracle(pctx):
    """contraction_limit agrees with the bracket-side oracle, divergence
    included, on every named algebra, the three symbolic families and two
    tables in a parameter named t, under seeded exponent vectors in
    [-2, 2]^6 and both directions."""
    texts = dict(NAMED_ALGEBRAS)
    texts.update({name: spec.table for name, spec in FAMILIES.items()})
    texts.update(t_only="0,0,0,0,0,t*12", t_twin="0,0,12,13,23,14+t*25")
    rng = random.Random(12)
    vectors = [(0,) * 6, (-1, 1, 0, -1, 1, -2)]
    vectors += [tuple(rng.randint(-2, 2) for _ in range(6)) for _ in range(30)]
    outcomes = set()
    for name, text in texts.items():
        g = parse_salamon(text, pctx)
        for exponents in vectors:
            for direction in ("to-zero", "to-infinity"):
                expected = contraction(_terms(g), exponents, direction)
                try:
                    got = _terms(contraction_limit(g, exponents, direction))
                except ContractionError:
                    got = None
                assert got == expected, (name, exponents, direction)
                outcomes.add("diverges" if got is None else
                             "unchanged" if got == _terms(g) else "contracts")
    assert outcomes == {"diverges", "unchanged", "contracts"}
