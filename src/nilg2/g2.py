"""The product G2-structure on (nilmanifold) x S^1 and its skew torsion.

With base forms (omega, psi+, psi-) and the closed circle coordinate dt as
the seventh coframe element, phi = omega ^ dt + psi+ and
*phi = psi- ^ dt + (1/2) omega ^ omega (this pins the orientation
convention).  The base forms are the standard ones of the adapted frame, so
all that depends on them alone (dt, phi, *phi, the lines e^i ^ *phi that
the Lee form is projected on, the V7 lines e^i ^ phi, each family with its
transposed table for ``exterior._projections``, and the checks: the *phi
identity, the (X _| *phi) ^ omega^2 identity and both families of lines
orthogonal) is built and checked once per frame, and cached.  The product
algebra is the base's numerators with an empty d(dt) row.

The torsion 3-form of the unique metric connection preserving phi with
totally skew torsion is computed two ways and cross-checked:

* route A:  T = (1/6) <dphi, *phi> phi - *dphi + *(theta ^ phi), with the
  Lee form theta read off d*phi = theta ^ *phi by orthogonal projection on
  the lines e^i ^ *phi (Gram 3 I) and the identity then checked exactly;
* route B, from the six-dimensional torsion components:
  T = *6 d omega - *6 (beta ^ omega) + 2 W1p psi+ + lambda psi-
      - [*6 (W2p ^ omega)] ^ dt,
  with d omega the one the torsion classes were split from (route A
  differentiates phi on the product, so the routes share no derivative).

Route A is validated in the test suite against an independent oracle that
solves the connection equations directly.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .exterior import (
    Form,
    FrameContext,
    _Lines,
    _projections,
    hodge,
    inner,
    interior,
    j_apply,
    line_norms,
    standard_su3_forms,
)
from .liealg import LieAlgebra
from .scalars import Scalar
from .su3 import SU3Structure, is_half_integrable, laplacian, torsion_classes

__all__ = [
    "G2Structure",
    "TorsionReport",
    "G2Error",
    "build_product",
    "extract_theta",
    "torsion",
    "dT_tests",
    "strong_eigen_check",
]


class G2Error(ValueError):
    def __init__(self, message: str, residual: Optional[Form] = None):
        super().__init__(message if residual is None else f"{message}; residual {residual}")
        self.residual = residual


def lift(a: Form, ctx7: FrameContext) -> Form:
    """A 6-dimensional form viewed on the product."""
    return Form._unchecked(ctx7, dict(a.comps))


def drop_dt(a: Form, ctx6: FrameContext) -> Tuple[Form, Form]:
    """Split a product form as pure + (rest ^ dt); both returned on the base."""
    dt_bit = 1 << 6
    pure: Dict[int, Scalar] = {}
    rest: Dict[int, Scalar] = {}
    for m, c in a.comps.items():
        if m & dt_bit:
            rest[m & ~dt_bit] = c
        else:
            pure[m] = c
    return Form(ctx6, pure), Form(ctx6, rest)


@dataclass(frozen=True)
class _ProductFrame:
    ctx: FrameContext                               # seven-dimensional
    dt: Form
    phi: Form
    star_phi: Form
    lee_lines: _Lines       # (e^i ^ *phi, 1/<l, l>)
    v7_lines: _Lines        # (e^i ^ phi, 1/<l, l>)


def _lines(ctx7: FrameContext, form: Form, name: str) -> _Lines:
    """The lines e^i ^ form, checked orthogonal, with their inverse norms
    and their transposed table."""
    lines = tuple(ctx7.basis(i).wedge(form) for i in range(1, 8))
    labels = tuple(f"e^{i} ^ {name}" for i in range(1, 8))
    return _Lines((line, 1 / norm)
                  for line, norm in zip(lines, line_norms(lines, labels, G2Error)))


@functools.lru_cache(maxsize=32)
def _product_frame(ctx6: FrameContext) -> _ProductFrame:
    """The product forms over the standard forms of ``ctx6``.  Checks
    *phi = psi- ^ dt + (1/2) omega^2, the identity behind the V7 statement,
    (X _| *phi) ^ omega^2 = 0, and both families of lines."""
    omega, psi_plus, psi_minus = standard_su3_forms(ctx6)
    ctx7 = FrameContext(7, ctx6.params)
    dt = ctx7.basis(7)
    om7 = lift(omega, ctx7)
    om7_sq = om7.wedge(om7)
    phi = om7.wedge(dt) + lift(psi_plus, ctx7)
    expected = lift(psi_minus, ctx7).wedge(dt) + om7_sq.scale(Fraction(1, 2))
    star_phi = hodge(phi)
    if star_phi != expected:
        raise G2Error("orientation convention broken: *phi mismatch", star_phi - expected)
    for i in range(1, 8):
        if not interior(ctx7.basis(i), star_phi).wedge(om7_sq).is_zero:
            raise G2Error("(X _| *phi) ^ omega^2 != 0 (convention bug)")
    return _ProductFrame(ctx7, dt, phi, star_phi,
                         _lines(ctx7, star_phi, "*phi"), _lines(ctx7, phi, "phi"))


@dataclass(frozen=True)
class G2Structure:
    """A structure times a circle; its forms are those of the base's frame."""

    base: SU3Structure
    product: LieAlgebra           # seven-dimensional, d(dt) = 0

    @property
    def ctx(self) -> FrameContext:
        return self.product.ctx

    @property
    def phi(self) -> Form:
        return _product_frame(self.base.adapted.ctx).phi

    @property
    def star_phi(self) -> Form:
        return _product_frame(self.base.adapted.ctx).star_phi

    @property
    def dt(self) -> Form:
        return _product_frame(self.base.adapted.ctx).dt

    def d(self, a: Form) -> Form:
        return self.product.d(a)


@dataclass(frozen=True)
class TorsionReport:
    T: Form
    star_T: Form
    dT: Form
    d_star_T: Form
    inner_dphi_starphi: Scalar
    theta: Form
    lam: Scalar
    beta: Form
    is_strong: Optional[bool] = None
    dT_type_22: Optional[bool] = None
    dT_in_R_plus_S2: Optional[bool] = None


def build_product(s: SU3Structure) -> G2Structure:
    """The base algebra times a circle, d(dt) = 0: the base's numerators
    with an empty seventh row, else (a rational-function table) its lifted
    Scalar table with a zero one."""
    ctx7 = _product_frame(s.adapted.ctx).ctx
    base = s.adapted
    if base._numerators is None:
        d_table, numerators = [lift(f, ctx7) for f in base.d_table] + [ctx7.zero_form()], None
    else:
        rows, den = base._numerators
        d_table, numerators = None, (rows + [{}], den)
    # nilpotency is inherited from the (already verified) base algebra
    product = LieAlgebra(ctx7, d_table, require_nilpotent=False, _numerators=numerators)
    return G2Structure(base=s, product=product)


def extract_theta(g: G2Structure) -> Form:
    """The unique 1-form with d*phi = theta ^ *phi, by projection.

    The projection of d*phi on Lambda^1 ^ *phi is theta ^ *phi with
    theta_i = <d*phi, e^i ^ *phi>/<e^i ^ *phi, e^i ^ *phi>, all seven read
    by ``exterior._projections`` in one pass over d*phi.  Raises
    G2Error when theta ^ *phi != d*phi (the structure is then not of
    skew-torsion type), with the obstruction d*phi - theta ^ *phi as the
    residual: the part of d*phi orthogonal to every line e^i ^ *phi, which
    no 1-form removes.  Asserts d theta = 0 on success.
    """
    frame = _product_frame(g.base.adapted.ctx)
    target = g.d(frame.star_phi)
    coords = _projections(target, frame.lee_lines)
    theta = Form(frame.ctx, {1 << i: c for i, c in enumerate(coords)})
    if theta.wedge(frame.star_phi) != target:
        raise G2Error("not a G2T-structure", target - theta.wedge(frame.star_phi))
    if not g.d(theta).is_zero:
        raise G2Error("extracted Lee form is not closed (convention bug)", g.d(theta))
    return theta


def torsion(g: G2Structure) -> TorsionReport:
    """The skew torsion 3-form, its star and exterior derivatives.

    Both computation routes must agree exactly; a mismatch raises with the
    difference form.
    """
    ctx6 = g.base.adapted.ctx
    frame = _product_frame(ctx6)
    ctx7 = frame.ctx
    theta = extract_theta(g)
    lam = theta.coefficient(7)
    beta6 = Form(ctx6, {m: c for m, c in theta.comps.items() if not m & (1 << 6)})

    dphi = g.d(frame.phi)
    pairing = inner(dphi, frame.star_phi)
    T = (
        frame.phi.scale(pairing * Fraction(1, 6))
        - hodge(dphi)
        + hodge(theta.wedge(frame.phi))
    )

    classes = torsion_classes(g.base)
    if classes.beta != beta6:
        raise G2Error("Lee form mismatch between theta and the base torsion classes")
    if pairing != classes.W1p * 12:
        raise G2Error("<dphi, *phi> != 12 W1+ (convention bug)")
    s = g.base
    route_b_pure = (
        hodge(classes.d_omega)
        - hodge(classes.beta.wedge(s.omega))
        + s.psi_plus.scale(classes.W1p * 2)
        + s.psi_minus.scale(lam)
    )
    route_b = lift(route_b_pure, ctx7) - lift(
        hodge(classes.W2p.wedge(s.omega)), ctx7
    ).wedge(frame.dt)
    if T != route_b:
        raise G2Error("torsion route disagreement", T - route_b)

    star_T = hodge(T)
    dT = g.d(T)
    d_star_T = g.d(star_T)
    return TorsionReport(
        T=T,
        star_T=star_T,
        dT=dT,
        d_star_T=d_star_T,
        inner_dphi_starphi=pairing,
        theta=theta,
        lam=lam,
        beta=beta6,
    )


def dT_tests(g: G2Structure, report: TorsionReport) -> TorsionReport:
    """Fill the representation-theoretic flags of the report."""
    pure, rest = drop_dt(report.dT, g.base.adapted.ctx)

    # (2,2)-ness: the derivative must live on the base and be pure type (2,2).
    # J acts on a real 4-form of type (p,q) + (q,p) as i^(p-q) with p-q in
    # {-2, 0, 2}, so a 4-form is of type (2,2) exactly when it is J-invariant.
    type22 = rest.is_zero and j_apply(pure) == pure

    # V7-component: <dT, e^i ^ phi> = 0 for all i
    in_r_s2 = not any(_projections(report.dT, _product_frame(g.base.adapted.ctx).v7_lines))

    return dataclasses.replace(
        report,
        is_strong=report.dT.is_zero,
        dT_type_22=type22,
        dT_in_R_plus_S2=in_r_s2,
    )


def strong_eigen_check(g: G2Structure) -> Optional[Scalar]:
    """Laplace eigenvalue of omega when omega is an exact eigenform.

    For a closed torsion form the declared eigenvalue lambda^2/2 is asserted
    and returned; otherwise the eigenvalue is returned only when Delta omega
    is exactly proportional to omega, else None.
    """
    if not is_half_integrable(g.base):
        raise G2Error("strong_eigen_check requires a half-integrable base")
    report = torsion(g)
    delta_omega = laplacian(g.base, g.base.omega)
    lam = report.lam
    if report.dT.is_zero:
        expected = lam * lam * Fraction(1, 2)
        if delta_omega != g.base.omega.scale(expected):
            raise G2Error(
                "closed torsion but Delta omega != (lambda^2/2) omega",
                delta_omega - g.base.omega.scale(expected),
            )
        return expected
    if delta_omega.is_zero:
        return g.ctx.params.zero
    # proportionality test against omega
    coeff = delta_omega.coefficient(1, 2)
    if delta_omega == g.base.omega.scale(coeff):
        return coeff
    return None
