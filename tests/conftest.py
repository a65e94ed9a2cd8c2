import os
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.dirname(__file__))

from oracle import PSI_PLUS

from nilg2 import linalg
from nilg2.exterior import (
    FrameContext,
    _basis_masks,
    j_apply,
    parse_form,
    standard_su3_forms,
)
from nilg2.families import family_context
from nilg2.liealg import BasisChange, parse_salamon
from nilg2.su3 import build_structure

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def pctx():
    return family_context()


@pytest.fixture(scope="session")
def frame6(pctx):
    return FrameContext(6, pctx)


@pytest.fixture(scope="session")
def frame7(pctx):
    return FrameContext(7, pctx)


@pytest.fixture(scope="session")
def std_forms(frame6):
    return standard_su3_forms(frame6)


@pytest.fixture(scope="session")
def iwasawa(pctx):
    return parse_salamon("0,0,0,0,13+42,14+23", pctx)


@pytest.fixture(scope="session")
def iwasawa_structure(pctx, iwasawa):
    adaptation = BasisChange.diagonal(pctx, [1, -1, 1, -1, 1, 1])
    return build_structure(iwasawa, adaptation)


# A basis of the primitive (1,1)-forms, in form-literal syntax
_PRIMITIVE_11 = ("12 - 34", "34 - 56", "13 + 24", "14 - 23",
                 "15 + 26", "16 - 25", "35 + 46", "36 - 45")


def is_primitive_11(w):
    """w ^ psi+ = w ^ psi- = w ^ omega^2 = 0 and J w = w, for the standard
    forms of the 2-form's frame."""
    omega, psi_plus, psi_minus = standard_su3_forms(w.ctx)
    return (w.homogeneous_grade() in (None, 2)
            and all(w.wedge(f).is_zero for f in (psi_plus, psi_minus, omega.wedge(omega)))
            and j_apply(w) == w)


def primitive_11_basis(ctx):
    """Eight independent primitive (1,1)-forms: a basis of Lambda^{1,1}_0."""
    basis = [parse_form(ctx, text) for text in _PRIMITIVE_11]
    assert all(is_primitive_11(w) for w in basis)
    assert linalg.sparse_rank([w.comps for w in basis], _basis_masks(6, 2)) == 8
    return basis


def form_to_oracle(form, bindings=None):
    """Package form -> oracle dict, optionally binding parameters."""
    out = {}
    for indices, coeff in form.terms():
        value = coeff.evaluate(bindings or {})
        if value:
            out[indices] = value
    return out


def table_to_oracle(algebra, bindings=None):
    table = {}
    for i, f in enumerate(algebra.d_table, start=1):
        converted = form_to_oracle(f, bindings)
        if converted:
            table[i] = converted
    return table


# ---------------------------------------------------------------------------
# hand-written oracle data: plain Fractions, no package objects
# ---------------------------------------------------------------------------

# phi = omega ^ dt + psi+ with omega = 12+34+56 and psi+ = 135-146-236-245
ORACLE_OMEGA = {(1, 2): Fraction(1), (3, 4): Fraction(1), (5, 6): Fraction(1)}
ORACLE_PSI_PLUS = PSI_PLUS
ORACLE_PHI = {
    (1, 2, 7): Fraction(1), (3, 4, 7): Fraction(1), (5, 6, 7): Fraction(1),
    **ORACLE_PSI_PLUS,
}


def oracle_table(entries):
    """{i: {(a, b): coefficient}} -> oracle table, dropping zero terms."""
    table = {}
    for i, terms in entries.items():
        form = {key: Fraction(c) for key, c in terms.items() if c}
        if form:
            table[i] = form
    return table


def oracle_family_table(name, lam=0, k=0, z=0, a1=0):
    """The family d-tables of the families.py docstring, at a rational binding."""
    lam, k, z, a1 = (Fraction(v) for v in (lam, k, z, a1))
    entries = {
        "case1": {2: {(3, 5): lam}, 3: {(1, 5): k},
                  4: {(1, 5): -lam, (2, 5): k}, 6: {(1, 3): lam}},
        "case2": {2: {(3, 5): lam}, 4: {(1, 5): -lam}, 5: {(1, 3): z + a1},
                  6: {(1, 4): a1, (2, 3): z, (1, 3): lam}},
        "case3": {2: {(3, 5): lam}, 4: {(1, 5): -lam},
                  6: {(1, 4): a1, (2, 3): -a1, (1, 3): lam}},
    }
    return oracle_table(entries[name])
