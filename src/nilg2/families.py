"""The classified families of half-integrable torsion structures.

Three parameterized nilpotent families carry the standard structure in
their presentation coframe and satisfy the torsion equations identically:

* case1:  (0, lam*35, k*15, -lam*15 + k*25, 0, lam*13),   lam, k nonzero;
* case2:  (0, lam*35, 0, -lam*15, (z+a1)*13, a1*14 + z*23 + lam*13),
          lam nonzero and z + a1 nonzero (else the first Betti number jumps);
* case3:  (0, lam*35, 0, -lam*15, 0, a1*(14 - 23) + lam*13),  lam nonzero.

For the middle family the d e^5 coefficient is forced: with
d e^6 = a1*14 + z*23 + lam*13 the closure constraint pins
d e^5 = (z + a1) e^{13} (any other multiple leaves d psi+ proportional to
e^{1234} and nonzero), and that is the table instantiated here.

Each classified algebra from the matching list is reached from a family by
an explicit, frozen basis-change witness.  The table ``_THEOREM_ROWS``
holds these witnesses, and ``verify_theorem`` replays them and returns one
row per listed algebra.  The sign dichotomy among the 14+-25 twins is
decided by sign(a1*z); the 14-35 twin admits no realization (the two twins
are distinguished by the count of real zero lines of the cubic
u -> [u,[u,.]], which every family instance gets wrong for 14-35), so its
row fails with that analysis.

The twins 14+25 and 14-25 are linked to 14 by a contraction, the diagonal
degeneration of nilpotent Lie algebras (Grunewald and O'Halloran, J. Algebra
112, 1988).  In the coframe t^{e_i} e^i a structure constant c^i_{ab} scales
by t^{e_i - e_a - e_b}, so ``contraction_limit`` reads the limit off these
integer powers in the algebra's own parameter context.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .exterior import Form, _bits
from .liealg import (
    BasisChange,
    LieAlgebra,
    NAMED_ALGEBRAS,
    fingerprint,
    is_isomorphic_via,
    parse_salamon,
)
from .scalars import ParameterContext, Scalar
from .su3 import SU3Structure, standard_structure

__all__ = [
    "FamilySpec",
    "FAMILIES",
    "case2_gauge_rotation",
    "DegenerateParameterError",
    "TheoremRow",
    "instantiate",
    "verify_theorem",
    "contraction_limit",
    "ContractionError",
    "family_context",
]


class DegenerateParameterError(ValueError):
    pass


@dataclass(frozen=True)
class FamilySpec:
    name: str
    table: str
    parameters: Tuple[str, ...]
    nonzero: Tuple[str, ...]          # scalar expressions that must not vanish


FAMILIES: Dict[str, FamilySpec] = {
    "case1": FamilySpec(
        name="case1",
        table="0,lam*35,k*15,-lam*15+k*25,0,lam*13",
        parameters=("lam", "k"),
        nonzero=("lam", "k"),
    ),
    "case2": FamilySpec(
        name="case2",
        table="0,lam*35,0,-lam*15,(z+a1)*13,a1*14+z*23+lam*13",
        parameters=("lam", "z", "a1"),
        nonzero=("lam", "z+a1"),
    ),
    "case3": FamilySpec(
        name="case3",
        table="0,lam*35,0,-lam*15,0,a1*14-a1*23+lam*13",
        parameters=("lam", "a1"),
        nonzero=("lam",),
    ),
}

_FAMILY_PARAMS = ("a1", "k", "lam", "t", "z")


def family_context() -> ParameterContext:
    return ParameterContext(_FAMILY_PARAMS)


def instantiate(
    name: str,
    bindings: Optional[Mapping[str, Fraction]] = None,
    params: Optional[ParameterContext] = None,
) -> Tuple[LieAlgebra, SU3Structure]:
    """A family algebra with its standard adapted structure.

    Symbolic in the family parameters when no bindings are given (built once
    per name and parameter context, and shared); with bindings, which must
    respect the nondegeneracy constraints, the shared algebra is bound.
    """
    try:
        spec = FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; choose from {sorted(FAMILIES)}") from None
    ctx = params or family_context()
    if bindings is None:
        return _symbolic_family(name, ctx)
    symbolic, _ = _symbolic_family(name, ctx)
    bindings = {k: Fraction(v) for k, v in bindings.items()}
    for expr in spec.nonzero:
        if ctx.parse(expr).evaluate(bindings) == 0:
            raise DegenerateParameterError(f"degenerate parameter: {expr} = 0")
    algebra = symbolic.bind(bindings)
    return algebra, standard_structure(algebra)


@functools.lru_cache(maxsize=32)
def _symbolic_family(name: str, ctx: ParameterContext) -> Tuple[LieAlgebra, SU3Structure]:
    algebra = parse_salamon(FAMILIES[name].table, ctx)
    return algebra, standard_structure(algebra)


def case2_gauge_rotation(params: ParameterContext, c, s) -> BasisChange:
    """The structure-preserving rotation used to gauge-fix the middle family.

    Rotates the two complex lines spanned by (e1, e2) and (e3, e4) by a
    common angle with cosine ``c`` and sine ``s`` (a rational point on the
    circle, e.g. 3/5 and 4/5); this preserves the standard structure forms
    and mixes the diagonal 2-form coefficients of d e^6 by the double
    angle, which is how a nonzero anti-diagonal term is eliminated.  Exact
    arithmetic only reaches rational circle points, so full gauge fixing of
    arbitrary inputs is left to the caller's choice of point.
    """
    c = params.scalar(c) if not isinstance(c, Scalar) else c
    s = params.scalar(s) if not isinstance(s, Scalar) else s
    if c * c + s * s != params.one:
        raise ValueError("gauge rotation needs c^2 + s^2 = 1")
    zero, one = params.zero, params.one
    return BasisChange(params, [
        [c, zero, s, zero, zero, zero],
        [zero, c, zero, s, zero, zero],
        [-s, zero, c, zero, zero, zero],
        [zero, -s, zero, c, zero, zero],
        [zero, zero, zero, zero, one, zero],
        [zero, zero, zero, zero, zero, one],
    ])


# ---------------------------------------------------------------------------
# contraction limits
# ---------------------------------------------------------------------------


class ContractionError(ValueError):
    pass


def contraction_limit(
    g: LieAlgebra,
    exponents: Sequence[int],
    direction: str,
) -> LieAlgebra:
    """The limit of g in the rescaled coframe f^i = t^{e_i} e^i as t -> 0 or infinity.

    A term c e^{ab} of d e^i becomes c t^p f^{ab} with the integer power
    p = e_i - e_a - e_b: it is kept at p = 0, dropped when t^p tends to 0,
    and otherwise the limit does not exist and :class:`ContractionError`
    names the entry and the term.  Parameters of g, whatever their names,
    are ordinary coefficients.  The limit is built as a LieAlgebra, so
    Jacobi and nilpotency are checked again.
    """
    if direction not in ("to-zero", "to-infinity"):
        raise ValueError("direction must be 'to-zero' or 'to-infinity'")
    if len(exponents) != g.ctx.dim:
        raise ValueError("one exponent per coframe axis required")
    # t^p -> 0 as t -> 0 for p > 0, and as t -> infinity for p < 0
    vanishing = 1 if direction == "to-zero" else -1
    table = []
    for i, f in enumerate(g.d_table, start=1):
        kept = {}
        for mask, coeff in f.comps.items():
            power = exponents[i - 1] - sum(exponents[a - 1] for a in _bits(mask))
            if power == 0:
                kept[mask] = coeff
            elif power * vanishing < 0:
                raise ContractionError(
                    f"d e^{i}: contraction undefined in this direction: term "
                    f"{Form(g.ctx, {mask: coeff})} scales by t^{power}, which "
                    f"diverges as t tends to {direction[3:]}"
                )
        table.append(Form(g.ctx, kept))
    return LieAlgebra(g.ctx, tuple(table))


# ---------------------------------------------------------------------------
# theorem replay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremRow:
    entry: str
    family: str
    binding: Optional[Dict[str, Fraction]]
    witness: Optional[BasisChange]
    witness_ok: bool
    fingerprint_ok: bool
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.witness_ok and self.fingerprint_ok


# The listed algebras in listing order.  Each row: NAMED_ALGEBRAS key, family,
# binding at which the family's fingerprint is compared with the entry's,
# source table in the family parameters, frozen witness (the new coframe
# rows as {column: scalar text}) carrying the source onto the entry, note.
_THEOREM_ROWS = (
    ("entry_14", "case1", {"lam": 1, "k": 1}, FAMILIES["case1"].table,
     ({5: "1"}, {1: "1"}, {3: "-1/k"}, {2: "1/(k*lam)"}, {6: "-1/(k*lam)"},
      {4: "-1/(k^2*lam)", 3: "-1/k^3"}),
     "witness verified identically in lam, k"),
    ("entry_14m25", "case2", {"lam": 1, "z": -4, "a1": 1},
     "0,35,0,-15,-3*13,14-4*23+13",
     ({1: "1"}, {3: "2"}, {5: "-2/3"}, {4: "2/3"}, {2: "-4/3"}, {6: "2/3", 5: "2/9"}),
     "realized exactly when a1*z < 0"),
    ("entry_14p25", "case2", {"lam": 1, "z": 1, "a1": 1},
     "0,35,0,-15,2*13,14+23+13",
     ({1: "1"}, {3: "1"}, {5: "1/2"}, {4: "-1/2"}, {2: "1/2"}, {6: "-1/2", 5: "1/4"}),
     "realized exactly when a1*z > 0"),
    ("entry_14p35", "case3", {"lam": 1, "a1": 1}, FAMILIES["case3"].table,
     ({1: "1"}, {5: "-a1*lam"}, {3: "1"}, {4: "a1", 3: "lam"}, {2: "a1"}, {6: "1"}),
     "witness valid for every nonzero a1, either sign"),
    # The 14-35 twin: no family instance is isomorphic to it.  The cubic
    # u -> [u,[u,.]] has three real projective zero lines on every case3
    # instance and on the 14+35 entry, but only one on 14-35; the count is a
    # basis-change invariant, so no witness exists and the row fails.  Its
    # binding serves only the fingerprint comparison; the row reports none.
    ("entry_14m35", "case3", {"lam": 1, "a1": 1}, FAMILIES["case3"].table, None,
     "unrealizable: the real zero-line count of the double-bracket "
     "cubic is 3 on every case3 instance but 1 on this algebra"),
    ("entry_121323", "case3", {"lam": 1, "a1": 0}, "0,lam*35,0,-lam*15,0,lam*13",
     ({3: "1"}, {5: "1"}, {1: "1"}, {2: "1/lam"}, {6: "-1/lam"}, {4: "1/lam"}),
     "case3 at a1 = 0; witness valid for every nonzero lam"),
)


def verify_theorem() -> Tuple[TheoremRow, ...]:
    """Replay the classification witnesses, one row per listed algebra.

    A row passes when its witness carries the source table onto the entry
    and the family's fingerprint at the binding matches the entry's.
    """
    ctx = family_context()
    rows = []
    for key, family, binding, source, cells, note in _THEOREM_ROWS:
        target = parse_salamon(NAMED_ALGEBRAS[key], ctx)
        binding = {name: Fraction(v) for name, v in binding.items()}
        witness = None if cells is None else BasisChange(
            ctx, [[ctx.parse(row.get(j, "0")) for j in range(1, 7)] for row in cells]
        )
        rows.append(TheoremRow(
            entry=NAMED_ALGEBRAS[key],
            family=family,
            binding=None if witness is None else binding,
            witness=witness,
            witness_ok=witness is not None
            and is_isomorphic_via(parse_salamon(source, ctx), witness, target),
            fingerprint_ok=fingerprint(instantiate(family, binding, params=ctx)[0])
            == fingerprint(target),
            note=note,
        ))
    return tuple(rows)
