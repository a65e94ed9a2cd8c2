import dataclasses
import random
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from nilg2.exterior import hodge, inner
from nilg2.families import case2_gauge_rotation, instantiate
from nilg2.liealg import BasisChange, parse_salamon
from nilg2.su3 import (
    StructureError,
    build_structure,
    codifferential,
    g2t_residual,
    is_half_integrable,
    laplacian,
    load_structure_file,
    skt_check,
    standard_structure,
    torsion_classes,
)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_standard_structure_on_torus(pctx):
    torus = parse_salamon("0,0,0,0,0,0", pctx)
    s = standard_structure(torus)
    assert is_half_integrable(s)
    classes = torsion_classes(s)
    for value in (classes.W1p, classes.W1m, classes.lam):
        assert value.is_zero
    for form in (classes.W2p, classes.W2m, classes.Omega,
                 classes.W4, classes.W5, classes.beta, classes.vartheta):
        assert form.is_zero


def test_iwasawa_adaptation(iwasawa_structure):
    s = iwasawa_structure
    ctx = s.omega.ctx
    assert s.d(s.psi_plus) == ctx.basis(1, 2, 3, 4).scale(4)
    assert s.d(s.omega) == s.psi_minus


def test_orientation_reversal_rejected(pctx, iwasawa):
    """Seeded signed permutations times gauge rotations: each is accepted
    exactly when its determinant is +1, else rejected with the residual
    4 det(B) e^{123456} - 4 e^{123456}."""
    rng = random.Random(1717)
    points = [(1, 0), (Fraction(3, 5), Fraction(4, 5)), (Fraction(-5, 13), Fraction(12, 13)),
              (Fraction(8, 17), Fraction(-15, 17))]
    cases = [([1, -1, 1, -1, 1, -1], list(range(6)), (1, 0))]
    for _ in range(24):
        perm = list(range(6))
        rng.shuffle(perm)
        cases.append(([rng.choice((1, -1)) for _ in range(6)], perm, rng.choice(points)))
    seen, denominators = set(), set()
    for signs, perm, (c, s) in cases:
        R = case2_gauge_rotation(pctx, c, s)
        B = BasisChange(pctx, [[R.rows[perm[i]][j] * signs[i] for j in range(6)]
                               for i in range(6)])
        rows, q = B._scaled_rows()  # the checks run on these int rows
        assert all(type(x) is int for row in rows for x in row)
        denominators.add(q)
        # det R = 1, so det B is the sign of the signed permutation
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(6), 2))
        det = (-1) ** inversions * prod(signs)
        seen.add(det)
        if det == 1:
            assert build_structure(iwasawa, B).adaptation is B
            continue
        with pytest.raises(StructureError, match="compatibility failure") as err:
            build_structure(iwasawa, B)
        assert str(err.value).endswith("residual -8*123456")
    assert seen == {1, -1}
    assert len(denominators) > 2


def test_non_orthogonal_rejected(pctx, iwasawa):
    shear = BasisChange(pctx, [
        [1, 1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
    ])
    with pytest.raises(StructureError, match="orthogonal"):
        build_structure(iwasawa, shear)


# ---------------------------------------------------------------------------
# torsion classes
# ---------------------------------------------------------------------------


def test_iwasawa_classes(iwasawa_structure):
    classes = torsion_classes(iwasawa_structure)
    ctx = iwasawa_structure.omega.ctx
    assert classes.W1p == Fraction(2, 3)
    assert classes.W1m.is_zero and classes.lam.is_zero
    assert classes.beta.is_zero
    assert classes.W4.is_zero and classes.W5.is_zero
    e = ctx.basis
    assert classes.W2p == (e(1, 2) + e(3, 4) - e(5, 6).scale(2)).scale(Fraction(4, 3))
    assert classes.W2m.is_zero
    # d omega = psi- is purely the nu_minus channel
    assert classes.Omega.is_zero
    assert classes.nu_minus == 1
    assert not is_half_integrable(iwasawa_structure)


def test_case3_classes_symbolic(pctx):
    _, s = instantiate("case3", params=pctx)
    classes = torsion_classes(s)
    lam = pctx.param("lam")
    assert classes.W1p.is_zero
    assert classes.W2p.is_zero
    assert classes.W4.is_zero and classes.W5.is_zero
    assert classes.W1m == lam / 2
    assert classes.lam == lam
    assert classes.W2m.is_zero
    assert is_half_integrable(s)


def test_reconstruction_identities(pctx, iwasawa_structure):
    """dpsi+ and d omega reassemble exactly from the extracted components."""
    structures = [iwasawa_structure]
    for name in ("case1", "case2", "case3"):
        structures.append(instantiate(name, params=pctx)[1])
    for s in structures:
        c = torsion_classes(s)
        om, psip, psim = s.omega, s.psi_plus, s.psi_minus
        om2 = om.wedge(om)
        assert s.d(psip) == c.beta.wedge(psip) + c.W2p.wedge(om) + om2.scale(c.W1p)
        assert s.d(psim) == c.beta.wedge(psim) + c.W2m.wedge(om) + om2.scale(c.W1m)
        d_om_expected = (
            c.beta.wedge(om).scale(Fraction(1, 2))
            + c.Omega
            + psip.scale(c.nu_plus)
            + psim.scale(c.nu_minus)
        )
        assert s.d(om) == d_om_expected


def test_balanced_when_psi_closed(pctx, iwasawa_structure):
    """Closed psi+- forces vanishing Lee forms on every embedded instance."""
    checked = 0
    for s in (iwasawa_structure, instantiate("case3", params=pctx)[1],
              standard_structure(parse_salamon("0,0,0,0,0,0", pctx))):
        if s.d(s.psi_plus).is_zero and s.d(s.psi_minus).is_zero:
            c = torsion_classes(s)
            assert c.beta.is_zero and c.vartheta.is_zero
            checked += 1
    assert checked >= 1   # the torus qualifies


def test_g2t_class_relations_symbolic(pctx):
    """When the torsion equations hold, W2- = 0, W1- = lam/2, W5 = -2 W4."""
    for name in ("case1", "case2", "case3"):
        _, s = instantiate(name, params=pctx)
        c = torsion_classes(s)
        first, second = g2t_residual(s, c.lam, c.beta)
        assert first.is_zero and second.is_zero
        assert c.W2m.is_zero
        assert c.W1m == c.lam / 2
        assert c.W5 == c.W4.scale(-2)


def test_w4_and_vartheta_on_first_access(pctx, iwasawa_structure, monkeypatch):
    """W4 and vartheta are computed when first read, from the d omega the
    classes were split from, and equal (1/4) omega _| d omega and
    -J d* omega; d omega and the structure take no part in equality or
    repr, and building the classes takes no codifferential."""
    from nilg2 import su3
    from nilg2.exterior import interior, j_apply

    calls = []
    codiff = su3.codifferential
    monkeypatch.setattr(su3, "codifferential", lambda s, a: (calls.append(a), codiff(s, a))[1])
    structures = [iwasawa_structure] + [instantiate(n, params=pctx)[1]
                                        for n in ("case1", "case2", "case3")]
    structures.append(build_structure(structures[1].algebra,
                                      case2_gauge_rotation(pctx, Fraction(3, 5), Fraction(4, 5))))
    for s in structures:
        c = torsion_classes(s)
        assert calls == [] and "W4" not in vars(c) and "vartheta" not in vars(c)
        assert c.d_omega == s.d(s.omega)
        assert c.W4 == interior(s.omega, s.d(s.omega)).scale(Fraction(1, 4))
        assert c.vartheta == -j_apply(codiff(s, s.omega))
        assert len(calls) == 1 and c.vartheta is c.vartheta and len(calls) == 1
        calls.clear()
        assert "d_omega" not in repr(c) and "structure" not in repr(c)
        other = torsion_classes(s)
        assert other == c and hash(other) == hash(c)
    # omega _| (omega ^ e^1) = 2 e^1, as |omega ^ e^1|^2 = 2: W4 = e^1/2
    e1 = s.omega.ctx.basis(1)
    moved = dataclasses.replace(c, d_omega=c.d_omega + s.omega.wedge(e1))
    assert moved.W4 == c.W4 + e1.scale(Fraction(1, 2)) and moved == c


# ---------------------------------------------------------------------------
# residuals, SKT, Laplacian
# ---------------------------------------------------------------------------


def test_g2t_residual_iwasawa(pctx, iwasawa_structure):
    s = iwasawa_structure
    zero1 = pctx.zero
    beta0 = s.omega.ctx.zero_form()
    first, second = g2t_residual(s, zero1, beta0)
    assert first.is_zero and second.is_zero
    first, second = g2t_residual(s, pctx.one, beta0)
    om2 = s.omega.wedge(s.omega)
    assert first == om2.scale(Fraction(-1, 2))
    assert second.is_zero


def test_skt_check(pctx, iwasawa_structure):
    torus = standard_structure(parse_salamon("0,0,0,0,0,0", pctx))
    assert skt_check(torus).is_zero
    _, case3 = instantiate("case3", {"lam": Fraction(1), "a1": Fraction(0)}, params=pctx)
    assert not skt_check(case3).is_zero
    # J and the star agree on d omega for the structure with d omega = psi-
    s = iwasawa_structure
    d_om = s.d(s.omega)
    assert s.d(hodge(d_om)) == skt_check(s)


def test_laplacian_case3(pctx):
    _, s = instantiate("case3", params=pctx)
    lam, a1 = pctx.param("lam"), pctx.param("a1")
    ctx = s.omega.ctx
    delta = laplacian(s, s.omega)
    expected = s.omega.scale(3 * lam ** 2) + ctx.basis(5, 6).scale(2 * a1 ** 2)
    assert delta == expected
    # at a1 = 0 the form is an exact eigenform
    _, s0 = instantiate("case3", {"lam": Fraction(2), "a1": Fraction(0)}, params=pctx)
    assert laplacian(s0, s0.omega) == s0.omega.scale(Fraction(12))


def test_laplacian_case1_not_proportional(pctx):
    _, s = instantiate("case1", params=pctx)
    lam, k = pctx.param("lam"), pctx.param("k")
    ctx = s.omega.ctx
    delta = laplacian(s, s.omega)
    assert delta == s.omega.scale(3 * lam ** 2) + ctx.basis(3, 4).scale(2 * k ** 2)


def test_laplacian_torus(pctx):
    s = standard_structure(parse_salamon("0,0,0,0,0,0", pctx))
    assert laplacian(s, s.omega).is_zero


def test_laplacian_self_adjoint(pctx, iwasawa_structure):
    """<Delta a, b> = <a, Delta b> on invariant forms (finite identity)."""
    import random

    rng = random.Random(5)
    s = iwasawa_structure
    ctx = s.omega.ctx
    from itertools import combinations

    for k in (1, 2, 3):
        masks = list(combinations(range(1, 7), k))
        for _ in range(6):
            a = ctx.zero_form()
            b = ctx.zero_form()
            for combo in rng.sample(masks, 3):
                a = a + ctx.basis(*combo).scale(pctx.scalar(rng.randint(-3, 3)))
            for combo in rng.sample(masks, 3):
                b = b + ctx.basis(*combo).scale(pctx.scalar(rng.randint(-3, 3)))
            assert inner(laplacian(s, a), b) == inner(a, laplacian(s, b))


def test_codifferential_sign(pctx):
    """d* = -*d* reproduces the stated eigen-computation chain on case3."""
    _, s = instantiate("case3", {"lam": Fraction(1), "a1": Fraction(0)}, params=pctx)
    d_om = s.d(s.omega)
    assert codifferential(s, s.omega).is_zero       # omega^2 closed
    assert codifferential(s, d_om) == s.omega.scale(3)


# ---------------------------------------------------------------------------
# structure files
# ---------------------------------------------------------------------------


def test_load_structure_file(tmp_path, pctx):
    path = tmp_path / "s.su3"
    path.write_text(
        "[algebra]\n0,0,0,0,13+42,14+23\n"
        "[adaptation]\n"
        "1 0 0 0 0 0\n0 -1 0 0 0 0\n0 0 1 0 0 0\n"
        "0 0 0 -1 0 0\n0 0 0 0 1 0\n0 0 0 0 0 1\n"
        "[params]\nlam = 3/2\n"
    )
    s, bindings = load_structure_file(path, pctx)
    assert bindings == {"lam": Fraction(3, 2)}
    assert s.d(s.psi_plus) == s.omega.ctx.basis(1, 2, 3, 4).scale(4)


def test_load_structure_file_defaults_identity(tmp_path, pctx):
    path = tmp_path / "s.su3"
    path.write_text("[algebra]\n0,lam*35,0,-lam*15,0,a1*14-a1*23+lam*13\n")
    s, bindings = load_structure_file(path, pctx)
    assert bindings == {}
    assert is_half_integrable(s)
