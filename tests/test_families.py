from fractions import Fraction

import pytest

from nilg2 import families
from nilg2.families import (
    ContractionError,
    DegenerateParameterError,
    FAMILIES,
    contraction_limit,
    instantiate,
    verify_theorem,
)
from nilg2.g2 import build_product, dT_tests, torsion
from nilg2.liealg import (
    betti_numbers,
    change_basis,
    fingerprint,
    jacobi_certificates,
    parse_salamon,
    salamon_str,
)
from nilg2.scalars import ParameterContext, ScalarError
from nilg2.su3 import g2t_residual, is_half_integrable, torsion_classes


# ---------------------------------------------------------------------------
# instantiation and family invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_identities_symbolic(pctx, name):
    algebra, s = instantiate(name, params=pctx)
    assert jacobi_certificates(algebra.d_table) == []
    assert is_half_integrable(s)
    classes = torsion_classes(s)
    first, second = g2t_residual(s, classes.lam, classes.beta)
    assert first.is_zero and second.is_zero
    assert classes.beta.is_zero   # half-integrable: Lee form vanishes


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_torsion_reports(pctx, name):
    _, s = instantiate(name, params=pctx)
    report = dT_tests(build_product(s), torsion(build_product(s)))
    assert report.d_star_T.is_zero
    assert report.dT_type_22 is True
    assert report.dT_in_R_plus_S2 is True
    assert report.is_strong is False   # dT carries -lam^2 omega^2 identically


def test_no_strong_instances_generic(pctx):
    """A nonzero scale parameter forces dT != 0: the omega^2 component of dT
    equals -lam^2 omega^2 on every family."""
    lam = pctx.param("lam")
    for name in sorted(FAMILIES):
        _, s = instantiate(name, params=pctx)
        report = torsion(build_product(s))
        # the 3456-component is touched by no family's extra term
        coeff = report.dT.coefficient(3, 4, 5, 6)
        assert coeff == -2 * lam ** 2


def test_degenerate_bindings_rejected(pctx):
    with pytest.raises(DegenerateParameterError):
        instantiate("case1", {"lam": Fraction(0), "k": Fraction(1)}, params=pctx)
    with pytest.raises(DegenerateParameterError):
        instantiate("case2", {"lam": Fraction(1), "z": Fraction(2), "a1": Fraction(-2)},
                    params=pctx)
    with pytest.raises(ScalarError, match="unbound parameter 'k'"):
        instantiate("case1", {"lam": Fraction(1)}, params=pctx)
    with pytest.raises(ValueError):
        instantiate("case9", params=pctx)


def test_symbolic_instantiate_is_memoized(pctx):
    """Bare families are parsed and adapted once per (name, context); bound
    calls build afresh, and an unknown name still raises."""
    first = instantiate("case2", params=pctx)
    second = instantiate("case2", params=pctx)
    assert second[0] is first[0] and second[1] is first[1]
    other = instantiate("case2", params=ParameterContext(pctx.names + ("w",)))
    assert other[0] is not first[0]
    binding = {"lam": Fraction(1), "z": Fraction(2), "a1": Fraction(1)}
    bound = instantiate("case2", binding, params=pctx)
    assert bound[0] is not instantiate("case2", binding, params=pctx)[0]
    with pytest.raises(ValueError, match="unknown family 'case9'"):
        instantiate("case9", params=pctx)


def test_case3_a1_zero_matches_reference_entry(pctx):
    algebra, _ = instantiate("case3", {"lam": Fraction(1), "a1": Fraction(0)},
                             params=pctx)
    target = parse_salamon("0,0,0,12,13,23", pctx)
    assert fingerprint(algebra) == fingerprint(target)


def test_case2_a1_zero_matches_entry_14(pctx):
    algebra, _ = instantiate("case2", {"lam": Fraction(1), "z": Fraction(1), "a1": Fraction(0)},
                             params=pctx)
    target = parse_salamon("0,0,12,13,23,14", pctx)
    assert fingerprint(algebra) == fingerprint(target)


def test_b1_at_most_three_on_families(pctx):
    bindings = [
        ("case1", {"lam": Fraction(1), "k": Fraction(2)}),
        ("case2", {"lam": Fraction(1), "z": Fraction(2), "a1": Fraction(3)}),
        ("case3", {"lam": Fraction(2), "a1": Fraction(-1)}),
        ("case3", {"lam": Fraction(2), "a1": Fraction(0)}),
    ]
    for name, binding in bindings:
        algebra, _ = instantiate(name, binding, params=pctx)
        assert betti_numbers(algebra)[0] <= 3


# ---------------------------------------------------------------------------
# theorem replay
# ---------------------------------------------------------------------------


def test_verify_theorem_rows():
    """Five of the six listed algebras are realized by explicit witnesses;
    the 14-35 twin admits none (see the row note), so exactly that row
    fails."""
    rows = verify_theorem()
    assert len(rows) == 6
    failing = [row for row in rows if not row.passed]
    assert [row.entry for row in failing] == ["0,0,0,12,23,14-35"]
    assert "unrealizable" in failing[0].note
    for row in rows:
        if row.passed:
            assert row.fingerprint_ok and row.witness_ok


WITNESS_ROWS = [i for i, row in enumerate(families._THEOREM_ROWS) if row[4] is not None]


@pytest.mark.parametrize("index", WITNESS_ROWS, ids=lambda i: families._THEOREM_ROWS[i][0])
def test_verify_theorem_checks_each_witness(monkeypatch, index):
    """Doubling one cell of a witness (the last coframe row's first entry)
    fails that row's witness check and no other row's."""
    table = list(families._THEOREM_ROWS)
    key, family, binding, source, cells, note = table[index]
    last = dict(cells[-1])
    column = min(last)
    last[column] = f"2*({last[column]})"
    table[index] = (key, family, binding, source, cells[:-1] + (last,), note)
    monkeypatch.setattr(families, "_THEOREM_ROWS", tuple(table))
    rows = verify_theorem()
    witness_failures = {row.entry for row in rows if not row.witness_ok}
    assert witness_failures == {"0,0,0,12,23,14-35", rows[index].entry}
    assert all(row.fingerprint_ok for row in rows)


def test_sign_dichotomy_for_twins(pctx):
    """sign(a1 z) decides which of the 14+-25 twins a case2 instance hits."""
    plus = parse_salamon("0,0,12,13,23,14+25", pctx)
    minus = parse_salamon("0,0,12,13,23,14-25", pctx)
    pos, _ = instantiate("case2", {"lam": Fraction(1), "z": Fraction(1), "a1": Fraction(1)},
                         params=pctx)
    neg, _ = instantiate("case2", {"lam": Fraction(1), "z": Fraction(-4), "a1": Fraction(1)},
                         params=pctx)

    def twin_quadric_definite(algebra):
        """Definiteness of the quadratic factor of u -> ad_u^3.

        On these two-generator algebras ad_u^3(v) factors as a bilinear
        term in (u, v) times a quadratic form Q(u); Q's definiteness is a
        basis-change invariant that separates the twin pair.  Sampling
        f(u) = [ad_u^3(gen1)]-component times the gen2-coordinate of u
        recovers sign(Q) up to one overall constant.
        """
        from itertools import product

        from conftest import table_to_oracle
        from oracle import _brackets

        table = table_to_oracle(algebra)
        bracket = _brackets(table)

        def ad(u, vec):
            out = {}
            for a, ca in u.items():
                for b, cb in vec.items():
                    for i, c in bracket(a, b).items():
                        out[i] = out.get(i, Fraction(0)) + ca * cb * c
            return {i: v for i, v in out.items() if v}

        closed = [i for i in range(1, 7) if i not in table]
        assert len(closed) == 2
        signs = set()
        for x, y in product((-5, -3, -1, 1, 2, 7), repeat=2):
            if y == 0:
                continue
            u = {closed[0]: Fraction(x), closed[1]: Fraction(y)}
            w = ad(u, ad(u, ad(u, {closed[0]: Fraction(1)})))
            for val in w.values():
                probe = val * y
                if probe:
                    signs.add(1 if probe > 0 else -1)
        return len(signs) == 1

    assert twin_quadric_definite(plus) != twin_quadric_definite(minus)
    assert twin_quadric_definite(pos) == twin_quadric_definite(plus)
    assert twin_quadric_definite(neg) == twin_quadric_definite(minus)


# ---------------------------------------------------------------------------
# contraction limits
# ---------------------------------------------------------------------------


def test_contraction_realizes_degeneration(pctx):
    """The rescaling (t^-1, t, 1, t^-1, t, t^-2) kills the 25-term of the
    twin entries in exactly one direction (t to infinity)."""
    exponents = [-1, 1, 0, -1, 1, -2]
    target = parse_salamon("0,0,12,13,23,14", pctx)
    for table in ("0,0,12,13,23,14+25", "0,0,12,13,23,14-25"):
        g = parse_salamon(table, pctx)
        limit = contraction_limit(g, exponents, "to-infinity")
        assert salamon_str(limit) == "0,0,12,13,23,14"
        assert fingerprint(limit) == fingerprint(target)
        with pytest.raises(ContractionError):
            contraction_limit(g, exponents, "to-zero")


def test_contraction_trivial_scaling(pctx, iwasawa):
    limit = contraction_limit(iwasawa, [0] * 6, "to-zero")
    assert limit.d_table == iwasawa.d_table


def test_contraction_output_is_lie_algebra(pctx):
    # isolating the a1-term of case2 in the limit: scale e6 only
    g, _ = instantiate("case2", {"lam": Fraction(1), "z": Fraction(1), "a1": Fraction(1)},
                       params=pctx)
    limit = contraction_limit(g, [0, 0, 0, 0, 0, 1], "to-zero")
    assert jacobi_certificates(limit.d_table) == []
    assert limit.d_table[5].is_zero   # d e6 scaled away entirely


def test_contraction_case2_a1_slice(pctx):
    """A scaling preserving every structure term except the a1-term of d e6
    (exponents solved from the homogeneity constraints) reproduces the
    a1 = 0 fingerprint in the t -> 0 limit."""
    g, _ = instantiate("case2", {"lam": Fraction(1), "z": Fraction(1), "a1": Fraction(1)},
                       params=pctx)
    limit = contraction_limit(g, [-1, -1, 0, -2, -1, -1], "to-zero")
    assert jacobi_certificates(limit.d_table) == []
    assert limit.d_table[5].coefficient(1, 4).is_zero
    reference, _ = instantiate(
        "case2", {"lam": Fraction(1), "z": Fraction(1), "a1": Fraction(0)}, params=pctx
    )
    # the d5-entry keeps the (z + a1)-scale; fingerprints still agree
    assert fingerprint(limit) == fingerprint(reference)


def test_case2_gauge_rotation(pctx):
    """Rotating by a rational circle point preserves the structure and mixes
    the diagonal/anti-diagonal coefficients of d e6 by the double angle:
    starting from the gauge-fixed family, the inverse rotation produces an
    anti-diagonal term, and the forward rotation removes it again."""
    from nilg2.families import case2_gauge_rotation
    from nilg2.su3 import standard_structure

    R = case2_gauge_rotation(pctx, Fraction(3, 5), Fraction(4, 5))
    algebra, _ = instantiate(
        "case2", {"lam": Fraction(1), "z": Fraction(2), "a1": Fraction(1)}, params=pctx
    )
    bound_params = algebra.ctx.params
    Rb = case2_gauge_rotation(bound_params, Fraction(3, 5), Fraction(4, 5))
    Rb_inv = case2_gauge_rotation(bound_params, Fraction(3, 5), Fraction(-4, 5))
    twisted = change_basis(algebra, Rb_inv)
    # the rotation preserves the standard structure forms
    s_twisted = standard_structure(twisted)
    assert is_half_integrable(s_twisted)
    # a nonzero anti-diagonal (12 - 34)-component appears in d e6
    d6 = twisted.d_table[5]
    assert d6.coefficient(1, 2) == -d6.coefficient(3, 4)
    assert not d6.coefficient(1, 2).is_zero
    # the forward rotation restores the gauge-fixed table
    assert change_basis(twisted, Rb).d_table == algebra.d_table
    with pytest.raises(ValueError):
        case2_gauge_rotation(pctx, Fraction(1, 2), Fraction(1, 2))
