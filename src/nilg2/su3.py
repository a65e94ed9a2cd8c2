"""SU(3)-structures on six-dimensional nilpotent Lie algebras.

A structure is an algebra together with an orthogonal, orientation-preserving
coframe adaptation in which the defining forms take the standard shape
omega = e12 + e34 + e56, psi_plus + i psi_minus = (e1+ie2)(e3+ie4)(e5+ie6).
All geometric operations run in the adapted coframe, where the declared
metric is the flat one.  There the forms depend on the frame alone: a
structure holds its algebra, adaptation and adapted algebra, and its
omega, psi+ and psi- are ``exterior.standard_su3_forms`` of the adapted
frame, built and checked once per frame.

Intrinsic torsion conventions pinned here (see the class relations below):

* dpsi+ = beta ^ psi+ + W2p ^ omega + W1p omega^2 and
  dpsi- = beta ^ psi- + W2m ^ omega + W1m omega^2 share the same 1-form
  slot coefficient: the Lambda^{3,1}+Lambda^{1,3} parts of dPsi are locked
  together (dPsi has no (1,3) component), so both extractions must agree;
  this common 1-form is the Lee form beta.
* W4 = (1/4) omega _| d omega and W5 = (1/4) psi+ _| dpsi+ with the
  metric-adjoint contraction; with these normalizations the torsion
  equations imply W4 = beta/4, W5 = -beta/2, i.e. W5 = -2 W4 and
  beta = -2 W5.
* lambda is read off as 2 W1m when not supplied externally.
* The splittings of dpsi+ and dpsi- are orthogonal projections on
  R omega^2 + Lambda^1 ^ psi + [[Lambda^{1,1}_0]] ^ omega
  (``exterior.lefschetz_coefficients``); the projections are certified by
  reconstructing the 4-form exactly.

The displayed expansion of d omega used throughout is
d omega = (1/2) beta ^ omega + Omega + nu_plus psi+ + nu_minus psi- with
Omega the primitive (2,1)+(1,2) part, nu_plus = -(3/4) lambda and
nu_minus = (3/2) W1p.  (A common alternative display drops the Omega
symbol; the primitive part is what is meant.)
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Tuple

from .exterior import (
    ExteriorError,
    Form,
    _omega_squared,
    hodge,
    interior,
    j_apply,
    lefschetz_coefficients,
    standard_su3_forms,
    substitute_coframe,
)
from .liealg import BasisChange, LieAlgebra, change_basis, parse_salamon
from .scalars import ParameterContext, Scalar, _fold_unicode, _point

__all__ = [
    "SU3Structure",
    "TorsionClasses",
    "StructureError",
    "StructureFileError",
    "build_structure",
    "standard_structure",
    "torsion_classes",
    "is_half_integrable",
    "g2t_residual",
    "skt_check",
    "codifferential",
    "laplacian",
]


class StructureError(ValueError):
    pass


class StructureFileError(ValueError):
    """A malformed structure file: bad input, not a failed structure check."""


@dataclass(frozen=True)
class SU3Structure:
    """An algebra with an adapted orthonormal coframe carrying the standard forms."""

    algebra: LieAlgebra
    adaptation: BasisChange
    adapted: LieAlgebra

    @property
    def omega(self) -> Form:
        return standard_su3_forms(self.adapted.ctx)[0]

    @property
    def psi_plus(self) -> Form:
        return standard_su3_forms(self.adapted.ctx)[1]

    @property
    def psi_minus(self) -> Form:
        return standard_su3_forms(self.adapted.ctx)[2]

    def d(self, a: Form) -> Form:
        return self.adapted.d(a)


def build_structure(g: LieAlgebra, adaptation: BasisChange) -> SU3Structure:
    """Adapt the algebra; the adaptation must be orthogonal and orientation-preserving.

    The standard forms satisfy psi+ ^ psi- = 4 e^{123456} in every frame
    (``standard_su3_forms`` checks it once per frame), and the adaptation
    pulls 4 e^{123456} back to 4 det(B) e^{123456}.  So the orientation is
    read off the pulled-back volume: a reflection (det B = -1, e.g. the sign
    flip of a single coframe axis) is rejected with the residual
    4 det(B) e^{123456} - 4 e^{123456} = -8 e^{123456}.
    """
    if g.ctx.dim != 6:
        raise StructureError("SU(3)-structures require a 6-dimensional algebra")
    if adaptation.dim != 6:
        raise StructureError("adaptation must be a 6x6 basis change")
    if not adaptation.is_orthogonal():
        raise StructureError("adaptation is not orthogonal under the declared metric")
    volume = g.ctx.volume().scale(4)
    rows, q = adaptation._scaled_rows()  # B = R/q pulls the volume back to det(R)/q^6 times it
    residual = substitute_coframe(volume, rows).scale(Fraction(1, q ** 6)) - volume
    if not residual.is_zero:
        raise StructureError(
            "compatibility failure: the adaptation reverses the orientation; "
            f"pulled-back 4 e^123456 - 4 e^123456 residual {residual}"
        )
    return SU3Structure(algebra=g, adaptation=adaptation, adapted=change_basis(g, adaptation))


def standard_structure(g: LieAlgebra) -> SU3Structure:
    """The structure whose adapted coframe is the presentation coframe itself."""
    return build_structure(g, BasisChange.identity(g.ctx.params, 6))


# ---------------------------------------------------------------------------
# intrinsic torsion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorsionClasses:
    """The torsion components of a structure.  W4 and vartheta are computed
    on first access, from d omega and the structure, which are kept out of
    equality and repr: both are functions of the other fields."""

    W1p: Scalar
    W1m: Scalar
    W2p: Form
    W2m: Form
    Omega: Form            # the primitive (2,1)+(1,2) component of d omega
    W5: Form
    beta: Form             # Lee form; equals the common psi-slot 1-form
    lam: Scalar            # 2 W1m
    d_omega: Form = field(compare=False, repr=False)
    structure: SU3Structure = field(compare=False, repr=False)

    @functools.cached_property
    def W4(self) -> Form:
        """(1/4) omega _| d omega."""
        om = self.structure.omega
        return interior(om, self.d_omega).scale(Fraction(1, 4))

    @functools.cached_property
    def vartheta(self) -> Form:
        """The six-dimensional Lee form -J d* omega."""
        return -j_apply(codifferential(self.structure, self.structure.omega))

    @property
    def nu_plus(self) -> Scalar:
        return -self.lam * Fraction(3, 4)

    @property
    def nu_minus(self) -> Scalar:
        return self.W1p * Fraction(3, 2)


def torsion_classes(s: SU3Structure) -> TorsionClasses:
    ctx = s.adapted.ctx
    pctx = ctx.params
    om, psip, psim = standard_su3_forms(ctx)
    d_om = s.d(om)
    d_psip = s.d(psip)
    d_psim = s.d(psim)

    # W1 via dpsi ^ omega = W1 omega^3 (coefficient of the volume over 6)
    vol_mask = ctx.full_mask
    W1p = d_psip.wedge(om).comps.get(vol_mask, pctx.zero) / 6
    W1m = d_psim.wedge(om).comps.get(vol_mask, pctx.zero) / 6

    try:
        c_plus, gamma_plus, W2p = lefschetz_coefficients(d_psip, slot="plus")
        c_minus, gamma_minus, W2m = lefschetz_coefficients(d_psim, slot="minus")
    except ExteriorError as exc:
        raise StructureError(f"dpsi outside SU(3) module: {exc}") from None
    if c_plus != W1p or c_minus != W1m:
        raise StructureError("inconsistent W1 extraction (convention bug)")
    if gamma_plus != gamma_minus:
        raise StructureError(
            "psi-slot 1-forms of dpsi+ and dpsi- disagree (convention bug)"
        )
    beta = gamma_plus

    W5 = interior(psip, d_psip).scale(Fraction(1, 4))
    if W5 != beta.scale(Fraction(-1, 2)):
        raise StructureError("W5 does not match the Lee form channel (convention bug)")

    lam = W1m * 2
    nu_plus = -lam * Fraction(3, 4)
    nu_minus = W1p * Fraction(3, 2)
    Omega = (
        d_om
        - beta.wedge(om).scale(Fraction(1, 2))
        - psip.scale(nu_plus)
        - psim.scale(nu_minus)
    )
    if not Omega.wedge(om).is_zero:
        raise StructureError(
            "W3 component is not primitive: omega ^ d omega != 1/2 beta ^ omega^2 "
            "(the second G2T equation fails)"
        )

    return TorsionClasses(
        W1p=W1p,
        W1m=W1m,
        W2p=W2p,
        W2m=W2m,
        Omega=Omega,
        W5=W5,
        beta=beta,
        lam=lam,
        d_omega=d_om,
        structure=s,
    )


def is_half_integrable(s: SU3Structure) -> bool:
    """True iff dpsi+ = 0 and d(omega^2) = 0, exactly."""
    if not s.d(s.psi_plus).is_zero:
        return False
    return s.d(_omega_squared(s.adapted.ctx)).is_zero


def g2t_residual(s: SU3Structure, lam: Scalar, beta: Form) -> Tuple[Form, Form]:
    """Residuals of dpsi- = beta^psi- + (lam/2) omega^2 and om^dom = (1/2) beta^om^2."""
    om2 = _omega_squared(s.adapted.ctx)
    first = s.d(s.psi_minus) - beta.wedge(s.psi_minus) - om2.scale(lam * Fraction(1, 2))
    second = s.omega.wedge(s.d(s.omega)) - beta.wedge(om2).scale(Fraction(1, 2))
    return first, second


def skt_check(s: SU3Structure) -> Form:
    """d(J d omega); vanishes exactly when the structure is strong KT."""
    return s.d(j_apply(s.d(s.omega)))


def codifferential(s: SU3Structure, a: Form) -> Form:
    """d* = -*d* (uniform sign in six dimensions)."""
    return -hodge(s.d(hodge(a)))


def laplacian(s: SU3Structure, a: Form) -> Form:
    """Hodge Laplacian d d* + d* d on a homogeneous invariant form."""
    a.homogeneous_grade()
    return s.d(codifferential(s, a)) + codifferential(s, s.d(a))


# ---------------------------------------------------------------------------
# structure description files
# ---------------------------------------------------------------------------

_SECTIONS = ("algebra", "adaptation", "params")


def load_structure_file(path, params, bindings=None) -> Tuple[SU3Structure, dict]:
    """Read a structure description: [algebra], optional [adaptation], [params].

    The file is parsed in ``params`` extended by the names its [params]
    section binds.  It is bound at those values, overridden by
    ``bindings`` (name -> Fraction), before the structure is built, so an
    adaptation needs to be orthogonal only at the binding; with nothing
    bound the structure stays symbolic.  Returns the structure and the
    bindings applied.  An unbound parameter or a vanishing denominator at
    the binding raises ScalarError; a malformed file (content before a
    header, an unknown or repeated section, a missing [algebra], a bad
    [params] line, an [adaptation] that is not 6x6, an empty one among
    them) raises StructureFileError.
    """
    sections: dict = {}
    current: Optional[str] = None
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip().lower()
                if current not in _SECTIONS:
                    raise StructureFileError(f"line {number}: unknown section {line}")
                if current in sections:
                    raise StructureFileError(f"line {number}: repeated section {line}")
                sections[current] = []
                continue
            if current is None:
                raise StructureFileError(
                    f"line {number}: content before any section header: {line!r}")
            sections[current].append(line)
    if not sections.get("algebra"):
        raise StructureFileError("missing [algebra] section")
    values = {}
    for line in sections.get("params", []):
        name, eq, value = line.partition("=")
        name = _fold_unicode(name.strip())
        if not eq:
            raise StructureFileError(f"bad [params] line: {line!r}")
        if name in values:
            raise StructureFileError(f"parameter {name!r} bound twice in [params]")
        values[name] = value.strip()
    params = ParameterContext(params.names + tuple(values))
    algebra = parse_salamon(" ".join(sections["algebra"]), params, dim=6)
    if "adaptation" in sections:
        rows = []
        for line in sections["adaptation"]:
            parts = [p for chunk in line.split(",") for p in chunk.split()]
            rows.append([params.parse(p) for p in parts])
        if len(rows) != 6 or any(len(r) != 6 for r in rows):
            raise StructureFileError("[adaptation] must contain a 6x6 matrix")
        adaptation = BasisChange(params, rows)
    else:
        adaptation = BasisChange.identity(params, 6)
    bindings = {
        **{name: params.parse(value).as_fraction() for name, value in values.items()},
        **(bindings or {}),
    }
    if bindings:
        point = _point(bindings)  # folded once for the table and the 36 cells
        algebra = algebra.bind(point)
        adaptation = BasisChange(
            algebra.ctx.params, [[c.evaluate(point) for c in row] for row in adaptation.rows]
        )
    return build_structure(algebra, adaptation), bindings
