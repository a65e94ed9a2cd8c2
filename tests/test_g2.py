import dataclasses
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import form_to_oracle, primitive_11_basis, table_to_oracle
from oracle import characteristic_torsion
from test_cli import _CASE1_NOT_G2T

from nilg2 import g2, linalg
from nilg2.exterior import Form, FrameContext, hodge, inner, parse_form, standard_su3_forms
from nilg2.families import case2_gauge_rotation, instantiate
from nilg2.g2 import (
    G2Error,
    _lines,
    _product_frame,
    build_product,
    dT_tests,
    extract_theta,
    lift,
    strong_eigen_check,
    torsion,
)
from nilg2.liealg import parse_salamon
from nilg2.scalars import ParameterContext
from nilg2.su3 import build_structure, load_structure_file, standard_structure


@pytest.fixture(scope="module")
def torus_product(pctx):
    return build_product(standard_structure(parse_salamon("0,0,0,0,0,0", pctx)))


@pytest.fixture(scope="module")
def iwasawa_product(iwasawa_structure):
    return build_product(iwasawa_structure)


# ---------------------------------------------------------------------------
# products and the Lee form
# ---------------------------------------------------------------------------


def test_build_product_star_identity(iwasawa_product):
    g = iwasawa_product
    om7 = lift(g.base.omega, g.ctx)
    expected = lift(g.base.psi_minus, g.ctx).wedge(g.dt) + om7.wedge(om7).scale(
        Fraction(1, 2)
    )
    assert g.star_phi == expected


def test_torus_torsion_free(torus_product):
    g = torus_product
    assert g.d(g.phi).is_zero and g.d(g.star_phi).is_zero
    report = dT_tests(g, torsion(g))
    assert report.T.is_zero and report.is_strong
    assert extract_theta(g).is_zero


def test_iwasawa_cocalibrated(iwasawa_product):
    g = iwasawa_product
    assert g.d(g.star_phi).is_zero
    assert extract_theta(g).is_zero


def test_case3_theta(pctx):
    _, s = instantiate("case3", params=pctx)
    g = build_product(s)
    lam = pctx.param("lam")
    om7 = lift(s.omega, g.ctx)
    # d*phi = (lam/2) omega^2 ^ dt, solved exactly by theta = lam dt
    assert g.d(g.star_phi) == om7.wedge(om7).scale(lam / 2).wedge(g.dt)
    theta = extract_theta(g)
    assert theta == g.dt.scale(lam)


def test_case1_theta_symbolic(pctx):
    _, s = instantiate("case1", params=pctx)
    g = build_product(s)
    assert extract_theta(g) == g.dt.scale(pctx.param("lam"))


# the first pair of lines e^i ^ *phi, and of lines e^i ^ phi, that a bump
# of phi by e^word leaves non-orthogonal, with the inner product of that pair
_BUMPED_LINES = {(1, 2, 5): (("e^1 ^ *phi and e^4 ^ *phi", 1), ("e^1 ^ phi and e^4 ^ phi", -1)),
                 (1, 3, 6): (("e^1 ^ *phi and e^2 ^ *phi", -1), ("e^1 ^ phi and e^2 ^ phi", 1))}


def test_perturbed_structure_rejected(iwasawa_product):
    """A 3-form perturbation of phi breaks the orthogonality of the lines
    e^i ^ *phi that the Lee form is projected on, and of the V7 lines
    e^i ^ phi; ``line_norms`` names the first pair, with no residual."""
    g = iwasawa_product
    for word, pairs in _BUMPED_LINES.items():
        phi = g.phi + g.ctx.basis(*word)
        for form, name, (pair, value) in zip((hodge(phi), phi), ("*phi", "phi"), pairs):
            with pytest.raises(G2Error, match=re.escape(
                    f"lines {pair} are not orthogonal: inner product {value}")) as err:
                _lines(g.ctx, form, name)
            assert err.value.residual is None


# ---------------------------------------------------------------------------
# torsion: golden values and the independent oracle
# ---------------------------------------------------------------------------


def test_iwasawa_torsion_true_value(iwasawa_product):
    """The computed torsion, cross-checked against the connection solver.

    Both formula routes and the oracle agree on
    T = (4/3) phi - psi+ - 4 e567.  (An earlier reference value,
    (2/3) phi - 4 e567, does not solve the connection equations; acceptance
    criterion 01 records it and its refutation.)
    """
    g = iwasawa_product
    report = torsion(g)
    ctx = g.ctx
    expected = (
        g.phi.scale(Fraction(4, 3))
        - lift(g.base.psi_plus, ctx)
        - ctx.basis(5, 6, 7).scale(4)
    )
    assert report.T == expected
    assert report.inner_dphi_starphi == 8
    assert not report.dT.is_zero
    assert report.d_star_T.is_zero


@pytest.mark.parametrize(
    "name,binding",
    [
        ("case1", {"lam": Fraction(2), "k": Fraction(3)}),
        ("case2", {"lam": Fraction(2), "z": Fraction(3), "a1": Fraction(5)}),
        ("case3", {"lam": Fraction(2), "a1": Fraction(7)}),
        ("case3", {"lam": Fraction(3), "a1": Fraction(0)}),
    ],
)
def test_torsion_matches_connection_oracle(pctx, name, binding):
    algebra, s = instantiate(name, binding, params=pctx)
    g = build_product(s)
    report = torsion(g)
    table = table_to_oracle(g.product)
    phi = form_to_oracle(g.phi)
    oracle_T = characteristic_torsion(table, phi)
    assert oracle_T is not None
    assert form_to_oracle(report.T) == oracle_T


def test_iwasawa_matches_connection_oracle(iwasawa_product):
    g = iwasawa_product
    report = torsion(g)
    oracle_T = characteristic_torsion(table_to_oracle(g.product), form_to_oracle(g.phi))
    assert form_to_oracle(report.T) == oracle_T


def test_half_integrable_concise_route(pctx):
    """T = *6(d omega) + lam psi- on every half-integrable instance."""
    for name in ("case1", "case2", "case3"):
        _, s = instantiate(name, params=pctx)
        g = build_product(s)
        report = torsion(g)
        lam = pctx.param("lam")
        concise = hodge(s.d(s.omega)) + s.psi_minus.scale(lam)
        assert report.T == lift(concise, g.ctx)
        # star of the torsion lives entirely in the dt-slot
        star_expected = -(s.d(s.omega) + s.psi_plus.scale(lam))
        assert report.star_T == lift(star_expected, g.ctx).wedge(g.dt)


def test_family_dT_true_values(pctx):
    lam, k, z, a1 = (pctx.param(p) for p in ("lam", "k", "z", "a1"))
    expectations = {
        "case1": ("1256", 2 * k ** 2),
        "case2": ("1234", 2 * (a1 ** 2 + a1 * z + z ** 2)),
        "case3": ("1234", 2 * a1 ** 2),
    }
    for name, (extra_word, extra_coeff) in expectations.items():
        _, s = instantiate(name, params=pctx)
        g = build_product(s)
        report = torsion(g)
        om2 = lift(s.omega.wedge(s.omega), g.ctx)
        extra = parse_form(g.ctx, extra_word).scale(extra_coeff)
        assert report.dT == -om2.scale(lam ** 2) - extra
        assert report.d_star_T.is_zero


def test_dT_tests_flags(pctx, iwasawa_product):
    for name in ("case1", "case2", "case3"):
        _, s = instantiate(name, params=pctx)
        g = build_product(s)
        report = dT_tests(g, torsion(g))
        assert report.dT_type_22 is True
        assert report.dT_in_R_plus_S2 is True
        assert report.is_strong is False
    report = dT_tests(iwasawa_product, torsion(iwasawa_product))
    assert report.dT_in_R_plus_S2 is True
    assert report.dT_type_22 is False       # dT has a dt-component here
    assert report.is_strong is False


def test_strong_eigen_check(pctx, torus_product):
    assert strong_eigen_check(torus_product) == 0
    _, s0 = instantiate("case3", {"lam": Fraction(1), "a1": Fraction(0)}, params=pctx)
    assert strong_eigen_check(build_product(s0)) == 3
    _, s_sym = instantiate("case3", params=pctx)
    lam = pctx.param("lam")
    # symbolic family: Delta omega is not proportional to omega (a1 term)
    assert strong_eigen_check(build_product(s_sym)) is None
    _, s1 = instantiate("case1", params=pctx)
    assert strong_eigen_check(build_product(s1)) is None
    # the iwasawa base is not half-integrable: precondition violation
    from nilg2.liealg import BasisChange
    from nilg2.su3 import build_structure

    iw = parse_salamon("0,0,0,0,13+42,14+23", pctx)
    s_iw = build_structure(iw, BasisChange.diagonal(pctx, [1, -1, 1, -1, 1, 1]))
    with pytest.raises(G2Error):
        strong_eigen_check(build_product(s_iw))


def test_a_report_differentiates_eight_times(pctx, monkeypatch):
    """A torsion report takes d omega for route B from the torsion classes:
    three base derivatives (omega, psi+, psi-), d*phi and d theta for the
    Lee form, dphi for route A, and dT and d*T, eight in all; the routes are
    still compared."""
    from nilg2.liealg import LieAlgebra

    calls = []
    d = LieAlgebra.d
    monkeypatch.setattr(LieAlgebra, "d", lambda g, a: (calls.append(g.ctx.dim), d(g, a))[1])
    rotation = case2_gauge_rotation(pctx, Fraction(3, 5), Fraction(4, 5))
    for name in ("case1", "case2", "case3"):
        algebra, structure = instantiate(name, params=pctx)
        for s in (structure, build_structure(algebra, rotation)):
            product = build_product(s)
            calls.clear()
            report = dT_tests(product, torsion(product))
            assert sorted(calls) == [6, 6, 6, 7, 7, 7, 7, 7], name
            assert report.dT_type_22 is True
    real = g2.torsion_classes
    monkeypatch.setattr(g2, "torsion_classes", lambda s: dataclasses.replace(
        real(s), d_omega=real(s).d_omega + s.psi_plus))
    with pytest.raises(G2Error, match="torsion route disagreement"):
        torsion(build_product(structure))


def test_route_identity_on_formal_components(pctx):
    """The component route reproduces the Lee-form route as pure form algebra.

    Random torsion data (beta, W2+, W1+-, primitive Omega) are assembled
    into d omega, d psi+-; no closure conditions are needed for the identity
    between the two torsion expressions, so random data exercise it,
    including nonzero beta.
    """
    rng = random.Random(42)
    ctx6 = FrameContext(6, pctx)
    ctx7 = FrameContext(7, pctx)
    from nilg2.exterior import standard_su3_forms

    om, psip, psim = standard_su3_forms(ctx6)
    om2 = om.wedge(om)
    dt = ctx7.basis(7)
    w2_basis = primitive_11_basis(ctx6)

    def rand_scalar():
        return pctx.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))

    for _ in range(25):
        beta = ctx6.zero_form()
        for i in range(1, 7):
            beta = beta + ctx6.basis(i).scale(rand_scalar())
        W2p = ctx6.zero_form()
        for b in w2_basis:
            W2p = W2p + b.scale(rand_scalar())
        W1p, lam = rand_scalar(), rand_scalar()
        # a primitive (2,1)+(1,2) part for d omega
        omega3 = (ctx6.basis(1, 3, 5) - psip.scale(Fraction(1, 4))).scale(rand_scalar())
        d_om = (
            beta.wedge(om).scale(Fraction(1, 2))
            + omega3
            - psip.scale(lam * Fraction(3, 4))
            + psim.scale(W1p * Fraction(3, 2))
        )
        d_psip = beta.wedge(psip) + W2p.wedge(om) + om2.scale(W1p)
        theta = lift(beta, ctx7) + dt.scale(lam)
        phi = lift(om, ctx7).wedge(dt) + lift(psip, ctx7)
        star_phi = lift(psim, ctx7).wedge(dt) + lift(om2, ctx7).scale(Fraction(1, 2))
        d_phi = lift(d_om, ctx7).wedge(dt) + lift(d_psip, ctx7)
        pairing = inner(d_phi, star_phi)
        assert pairing == W1p * 12
        route_a = (
            phi.scale(pairing * Fraction(1, 6))
            - hodge(d_phi)
            + hodge(theta.wedge(phi))
        )
        route_b = (
            lift(hodge(d_om), ctx7)
            - lift(hodge(beta.wedge(om)), ctx7)
            + lift(psip, ctx7).scale(W1p * 2)
            + lift(psim, ctx7).scale(lam)
            - lift(hodge(W2p.wedge(om)), ctx7).wedge(dt)
        )
        assert route_a == route_b


def test_v7_projector_sanity(iwasawa_product):
    """The seven projector forms have diagonal Gram, norm 4 each (and the
    Lee-form lines norm 3); the contraction identity (X _| *phi) ^ omega^2 = 0
    holds for every coframe direction."""
    g = iwasawa_product
    from nilg2.exterior import interior

    frame = _product_frame(g.base.adapted.ctx)
    assert frame.v7_lines == tuple((g.ctx.basis(i).wedge(g.phi), Fraction(1, 4))
                                   for i in range(1, 8))
    assert frame.lee_lines == tuple((g.ctx.basis(i).wedge(g.star_phi), Fraction(1, 3))
                                    for i in range(1, 8))
    om7 = lift(g.base.omega, g.ctx)
    om7_sq = om7.wedge(om7)
    for i in range(1, 8):
        assert interior(g.ctx.basis(i), g.star_phi).wedge(om7_sq).is_zero


# ---------------------------------------------------------------------------
# the per-frame cache: Lee-form solver, product forms and their checks
# ---------------------------------------------------------------------------


def _full_system(g):
    """The 21x7 Lee-form system d*phi = theta ^ *phi as sparse augmented rows:
    columns 0 to 6 hold the unknowns' coefficients, column 7 the right side."""
    columns = [g.ctx.basis(i).wedge(g.star_phi) for i in range(1, 8)] + [g.d(g.star_phi)]
    masks = sorted(set().union(*[set(c.comps) for c in columns]))
    return [{j: col.comps[m] for j, col in enumerate(columns) if m in col.comps} for m in masks]


def _rotated_products(pctx, seed, count):
    """Products of the families in seeded gauge-rotated adapted coframes."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        m = rng.randint(2, 12)
        n = rng.randint(1, m - 1)
        hyp = m * m + n * n
        c, s = Fraction(m * m - n * n, hyp), Fraction(2 * m * n, hyp)
        algebra, _ = instantiate(("case1", "case2", "case3")[k % 3], params=pctx)
        rotation = case2_gauge_rotation(pctx, c * rng.choice((1, -1)), s * rng.choice((1, -1)))
        out.append(build_product(build_structure(algebra, rotation)))
    return out


def _not_g2t_product(pctx, tmp_path):
    """The product over case1 in a coframe where the system is inconsistent."""
    path = tmp_path / "case1_not_g2t.su3"
    path.write_text(_CASE1_NOT_G2T, encoding="utf-8")
    return build_product(load_structure_file(path, pctx)[0])


def test_lee_solver_matches_full_solve(pctx, tmp_path):
    """The projection gives the theta that the reduced whole 21x7 system
    gives, and fails exactly where that system is inconsistent."""
    repo = Path(__file__).resolve().parents[1]
    products = [build_product(instantiate(name, params=pctx)[1])
                for name in ("case1", "case2", "case3")]
    products.append(build_product(load_structure_file(repo / "scripts" / "iwasawa.su3", pctx)[0]))
    products += _rotated_products(pctx, seed=20261018, count=9)
    products.append(_not_g2t_product(pctx, tmp_path))
    outcomes = set()
    for g in products:
        red, pivots = linalg._eliminate(_full_system(g), range(8))
        if 7 in pivots:
            with pytest.raises(G2Error, match="not a G2T-structure"):
                extract_theta(g)
        else:
            theta = {1 << pc: row[7] for row, pc in zip(red, pivots) if 7 in row}
            assert extract_theta(g) == Form(g.ctx, theta)
        outcomes.add(7 in pivots)
    assert outcomes == {True, False}


def test_lee_error_residual_is_obstruction(pctx, tmp_path):
    """A structure outside the G2T class, where the whole 21x7 system is
    inconsistent, reports the obstruction: the residual d*phi - theta ^ *phi
    of the projection is orthogonal to all seven lines e^i ^ *phi."""
    g = _not_g2t_product(pctx, tmp_path)
    red, pivots = linalg._eliminate(_full_system(g), range(8))
    assert 7 in pivots          # inconsistent
    with pytest.raises(G2Error) as err:
        extract_theta(g)
    residual = err.value.residual
    lines = [g.ctx.basis(i).wedge(g.star_phi) for i in range(1, 8)]
    assert all(inner(residual, line) == 0 for line in lines)
    d_star_phi = g.d(g.star_phi)
    theta = Form(g.ctx, {1 << i: inner(d_star_phi, line) / inner(line, line)
                         for i, line in enumerate(lines)})
    assert d_star_phi - residual == theta.wedge(g.star_phi) and not theta.is_zero
    assert str(err.value) == f"not a G2T-structure; residual {residual}"


def test_build_product_cache_hit(iwasawa_structure):
    """A second product over a frame, and its whole report, reuse the
    frame's entry."""
    build_product(iwasawa_structure)
    before = _product_frame.cache_info()
    g = build_product(iwasawa_structure)
    dT_tests(g, torsion(g))
    after = _product_frame.cache_info()
    assert after.misses == before.misses and after.hits > before.hits


def test_structure_forms_are_the_frames(pctx, tmp_path):
    """Every form of a structure and of its product is the cached object of
    its frame; structures over one frame share them."""
    repo = Path(__file__).resolve().parents[1]
    structures = [instantiate(name, params=pctx)[1] for name in ("case1", "case2", "case3")]
    structures.append(load_structure_file(repo / "scripts" / "iwasawa.su3", pctx)[0])
    structures.append(instantiate("case1", {"lam": Fraction(2), "k": Fraction(3)},
                                  params=pctx)[1])
    products = [build_product(s) for s in structures] + _rotated_products(pctx, 7, 3)
    products.append(_not_g2t_product(pctx, tmp_path))
    frames = set()
    for g in products:
        s, ctx6 = g.base, g.base.adapted.ctx
        forms = standard_su3_forms(ctx6)
        assert all(a is b for a, b in zip((s.omega, s.psi_plus, s.psi_minus), forms))
        frame = _product_frame(ctx6)
        assert all(a is b for a, b in zip((g.ctx, g.dt, g.phi, g.star_phi),
                                          (frame.ctx, frame.dt, frame.phi, frame.star_phi)))
        frames.add(id(frame))
    assert len(frames) == 2     # the family context and a bound one


def _corrupt(monkeypatch, omega, psi_plus, psi_minus):
    """Make g2 read the given forms as the standard ones, on a frame no
    cache has seen (its own parameter context)."""
    texts = (omega, psi_plus, psi_minus)
    monkeypatch.setattr(g2, "standard_su3_forms",
                        lambda ctx: tuple(parse_form(ctx, text) for text in texts))
    return FrameContext(6, ParameterContext(("corrupt",)))


def _raises_uncached(ctx6, message):
    """The frame builder raises on every call: a raising call leaves no
    cache entry."""
    before = _product_frame.cache_info()
    for _ in range(2):
        with pytest.raises(G2Error, match=message) as err:
            _product_frame(ctx6)
    after = _product_frame.cache_info()
    assert (after.hits, after.misses, after.currsize) == \
        (before.hits, before.misses + 2, before.currsize)
    return err.value


def test_cached_builder_checks_orientation(monkeypatch):
    """With psi- negated the *phi check fails, with the mismatch as residual."""
    ctx6 = _corrupt(monkeypatch, "12 + 34 + 56", "135 - 146 - 236 - 245",
                    "-136 - 145 - 235 + 246")
    error = _raises_uncached(ctx6, r"orientation convention broken: \*phi mismatch")
    assert not error.residual.is_zero


@pytest.mark.parametrize("psi_plus, psi_minus, message", [
    # e^125 = e^5 ^ e^12 has a component along e^5 ^ omega
    ("135 - 146 - 236 - 245 + 125", "136 + 145 + 235 - 246 + 346",
     r"\(X _\| \*phi\) \^ omega\^2 != 0 \(convention bug\)"),
    ("135 - 146 - 236 - 245 + 136", "136 + 145 + 235 + 245 - 246",
     r"lines e\^1 \^ \*phi and e\^2 \^ \*phi are not orthogonal: inner product -1"),
    # phi = omega ^ dt lies in e^7 ^ Lambda^2, so e^7 ^ phi = 0
    ("0", "0", r"line e\^7 \^ phi has zero norm"),
], ids=["contraction", "lee-lines", "v7-lines"])
def test_cached_builder_checks_lines_and_contraction(monkeypatch, psi_plus, psi_minus, message):
    """Each psi- here is the one that passes the *phi check, so the later
    checks are reached: each raises and caches nothing."""
    ctx6 = _corrupt(monkeypatch, "12 + 34 + 56", psi_plus, psi_minus)
    assert _raises_uncached(ctx6, message).residual is None
