"""Acceptance criteria, one test per criterion, one printed verdict line each.

Arithmetic is exact throughout, so every tolerance is literal equality of
canonical forms.  Criteria 01, 06, 07 and 08 once asserted reference values
that exact recomputation contradicts.  Each now asserts the recomputed
value, backs it by a computation in oracle.py (plain fractions, no shared
code with the package), and keeps the old value only to show that the
same computation refutes it:

* 01, Iwasawa product torsion.  Old: T = (2/3) phi - 4 e567.  The
  connection solver returns (4/3) phi - psi+ - 4 e567, the value of the
  Friedrich-Ivanov formula; the old value solves the connection equations
  for no sign of the brackets or of phi.
* 06, classification replay.  Old: all six rows pass.  The 14-35 row
  cannot: the real zero lines of the double-bracket cubic number 1 on
  0,0,0,12,23,14-35 and 3 on every case3 instance with a1 != 0 (the a1 = 0
  slice is 2-step and has no such cubic), so no case3 witness exists.
* 07, dT of the families.  Old: (3/2) lam^2 omega^2 - 2 k^2 e1256,
  (3/2) lam^2 omega^2 - (a1^2 + 2 z^2) e1234, (3/2) lam^2 omega^2.
  d of the solver's torsion gives -lam^2 omega^2 - 2 k^2 e1256,
  -lam^2 omega^2 - 2 (a1^2 + a1 z + z^2) e1234, -lam^2 omega^2 - 2 a1^2 e1234.
* 08, Laplace eigenform.  Old: Delta omega = 3 lam^2 omega on all of case3.
  The oracle Laplacian d d* + d* d gives 3 lam^2 omega + 2 a1^2 e56, an
  eigenform only on the slice a1 = 0.
"""

import os
import random
from fractions import Fraction
from itertools import combinations

from conftest import (
    ORACLE_OMEGA,
    ORACLE_PHI,
    ORACLE_PSI_PLUS,
    form_to_oracle,
    oracle_family_table,
    oracle_table,
    table_to_oracle,
)
from oracle import (
    add,
    characteristic_torsion,
    double_bracket_real_lines,
    laplacian as oracle_laplacian,
    scale,
    torsion_derivative,
)

from nilg2.exterior import (
    form_str,
    hodge,
    inner,
    interior,
    parse_form,
)
from nilg2.families import (
    ContractionError,
    FAMILIES,
    contraction_limit,
    instantiate,
    verify_theorem,
)
from nilg2.g2 import build_product, dT_tests, extract_theta, lift, torsion
from nilg2.liealg import (
    BasisChange,
    betti_numbers,
    change_basis,
    fingerprint,
    parse_salamon,
)
from nilg2.su3 import laplacian, standard_structure, torsion_classes

SEED = int(os.environ.get("NILG2_SEED", "0"))
CASES = int(os.environ.get("NILG2_PROPERTY_CASES", "1000"))


def _verdict(number: int, name: str, failures, notes=()):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number:02d} [{status}] {name}")
    for note in notes:
        print(f"    note: {note}")
    for failure in failures:
        print(f"    failed: {failure}")
    assert not failures, f"criterion {number}: {len(failures)} sub-check(s) failed"


# ---------------------------------------------------------------------------


def test_criterion_01_iwasawa_golden_set(pctx, iwasawa_structure):
    failures, notes = [], []
    s = iwasawa_structure
    ctx6 = s.omega.ctx
    if s.d(s.psi_plus) != ctx6.basis(1, 2, 3, 4).scale(4):
        failures.append("d psi+ != 4 e1234")
    if s.d(s.omega) != s.psi_minus:
        failures.append("d omega != psi-")
    g = build_product(s)
    theta = extract_theta(g)
    if not theta.is_zero:
        failures.append(f"theta != 0 (got {form_str(theta)})")
    report = torsion(g)
    # T = (1/6) <dphi, *phi> phi - *dphi + *(theta ^ phi) with theta = 0:
    # dphi = d omega ^ dt + d psi+ = psi- ^ dt + 4 e1234, so *dphi =
    # psi+ + 4 e567 and <dphi, *phi> = |psi-|^2 + <4 e1234, omega^2 / 2> = 8.
    expected = (
        g.phi.scale(Fraction(4, 3))
        - lift(s.psi_plus, g.ctx)
        - g.ctx.basis(5, 6, 7).scale(4)
    )
    if report.T != expected:
        failures.append(
            f"T = {form_str(report.T)} != (4/3) phi - psi+ - 4 e567"
        )
    # the adapted coframe of 0,0,0,0,13+42,14+23 (e2, e4 reversed), by hand
    table = oracle_table({5: {(1, 3): 1, (2, 4): -1}, 6: {(1, 4): -1, (2, 3): -1}})
    if table != table_to_oracle(g.product):
        failures.append("hand-written adapted table != the package's table")
    oracle_T = characteristic_torsion(table, ORACLE_PHI)
    oracle_expected = add(
        add(scale(ORACLE_PHI, Fraction(4, 3)), scale(ORACLE_PSI_PLUS, Fraction(-1))),
        {(5, 6, 7): Fraction(-4)},
    )
    if oracle_T != oracle_expected:
        failures.append(f"connection solver: T = {oracle_T}")
    if form_to_oracle(report.T) != oracle_T:
        failures.append("computed T disagrees with the connection solver")
    # the old stated value solves the connection equations for no choice
    # of sign of the brackets or of phi
    for bracket_sign in (1, -1):
        for phi_sign in (1, -1):
            flipped = {i: scale(f, Fraction(bracket_sign)) for i, f in table.items()}
            phi = scale(ORACLE_PHI, Fraction(phi_sign))
            stated = add(scale(phi, Fraction(2, 3)), {(5, 6, 7): Fraction(-4)})
            if characteristic_torsion(flipped, phi) == stated:
                failures.append(
                    f"old value (2/3) phi - 4 e567 solves the connection "
                    f"equations at signs {bracket_sign}, {phi_sign}"
                )
    notes.append("old value (2/3) phi - 4 e567 refuted by the connection solver")
    if report.dT.is_zero:
        failures.append("dT vanished")
    _verdict(1, "product torsion golden set on the complex Heisenberg base",
             failures, notes)


def test_criterion_02_volume_identities(frame6, std_forms):
    failures = []
    om, psip, psim = std_forms
    vol = frame6.volume()
    if om.wedge(om).wedge(om) != vol.scale(6):
        failures.append("omega^3 != 6 vol")
    if psip.wedge(psim) != vol.scale(4):
        failures.append("psi+ ^ psi- != 4 vol")
    if psip.wedge(psim) != om.wedge(om).wedge(om).scale(Fraction(2, 3)):
        failures.append("psi+ ^ psi- != (2/3) omega^3")
    _verdict(2, "volume identities", failures)


def test_criterion_03_pairing_is_12_w1(pctx, iwasawa_structure):
    failures = []
    g = build_product(iwasawa_structure)
    report = torsion(g)
    if report.inner_dphi_starphi != 8:
        failures.append(f"<dphi,*phi> = {report.inner_dphi_starphi} != 8")
    w1p = torsion_classes(iwasawa_structure).W1p
    if report.inner_dphi_starphi != w1p * 12:
        failures.append("pairing != 12 W1+")
    for name in sorted(FAMILIES):
        _, s = instantiate(name, params=pctx)
        rep = torsion(build_product(s))
        if not rep.inner_dphi_starphi.is_zero:
            failures.append(f"{name}: <dphi,*phi> != 0")
    _verdict(3, "<dphi, *phi> = 12 W1+ (value 8; identically 0 on families)",
             failures)


def test_criterion_04_class_relations(pctx):
    failures = []
    for name in sorted(FAMILIES):
        _, s = instantiate(name, params=pctx)
        c = torsion_classes(s)
        if not c.W2m.is_zero:
            failures.append(f"{name}: W2- != 0")
        if c.W1m != c.lam / 2:
            failures.append(f"{name}: W1- != lam/2")
        if not (c.W5 == c.W4.scale(-2) and c.W5.is_zero and c.W4.is_zero):
            failures.append(f"{name}: W5 = -2 W4 = 0 violated")
    _verdict(4, "torsion-class relations, symbolic in the parameters", failures)


def test_criterion_05_betti_golden_set(pctx):
    failures = []
    golden = [
        ("0,0,12,13,23,14", 2, 4),
        ("0,0,0,12,23,14+35", 3, 5),
        ("0,0,0,12,23,14-35", 3, 5),
        ("0,0,0,12,13,23", 3, 8),
        ("0,0,0,0,0,0", 6, 15),
    ]
    for table, b1, b2 in golden:
        g = parse_salamon(table, pctx)
        for seed in (0, 1):   # two independent generic evaluation points
            got = betti_numbers(g, seed=seed)[:2]
            if got != (b1, b2):
                failures.append(f"{table}: (b1,b2) = {got} != ({b1},{b2})")
    _verdict(5, "Betti golden set at two generic bindings", failures)


def test_criterion_06_theorem_replay(pctx):
    failures, notes = [], []
    rows = verify_theorem()
    if all(row.passed for row in rows):
        failures.append("replay passed every row, 14-35 included")
    realizable = {
        "0,0,12,13,23,14", "0,0,12,13,23,14+25", "0,0,12,13,23,14-25",
        "0,0,0,12,23,14+35", "0,0,0,12,13,23",
    }
    for row in rows:
        status = "ok" if row.passed else "FAILED"
        notes.append(f"{row.entry:22s} via {row.family} [{status}] {row.note}")
        if row.entry in realizable and not (row.witness_ok and row.fingerprint_ok):
            failures.append(f"row {row.entry}: {row.note}")
    if sorted(row.entry for row in rows) != sorted(realizable | {"0,0,0,12,23,14-35"}):
        failures.append(f"rows {[row.entry for row in rows]}")
    failing = [row.entry for row in rows if not row.passed]
    if failing != ["0,0,0,12,23,14-35"]:
        failures.append(f"failing rows {failing} != [0,0,0,12,23,14-35]")
    # The old stated value had every row pass, 14-35 realized by case3.  The
    # real zero lines of D(v) = det(u -> [u,[u,v]]) are a basis invariant;
    # by hand D ~ b(a^2 - c^2) on 14+35, D ~ -b(a^2 + c^2) on 14-35 and
    # D ~ c(a^2 - b^2) on case3 with a1 != 0 (coordinates of g/gamma2).
    lines = {}
    for twin, sign in (("14+35", 1), ("14-35", -1)):
        table = oracle_table(
            {4: {(1, 2): 1}, 5: {(2, 3): 1}, 6: {(1, 4): 1, (3, 5): sign}}
        )
        if table != table_to_oracle(parse_salamon(f"0,0,0,12,23,{twin}", pctx)):
            failures.append(f"hand-written {twin} table != the listed entry")
        lines[twin] = double_bracket_real_lines(table)
    for lam, a1 in ((1, 1), (1, -1), (2, 3), (Fraction(1, 2), -5)):
        lines[f"case3 lam={lam} a1={a1}"] = double_bracket_real_lines(
            oracle_family_table("case3", lam=lam, a1=a1)
        )
    # at a1 = 0 the algebra is 2-step: gamma3 = 0 and the cubic is undefined
    lines["case3 lam=1 a1=0"] = double_bracket_real_lines(
        oracle_family_table("case3", lam=1, a1=0)
    )
    expected_lines = {name: 3 for name in lines}
    expected_lines["14-35"] = 1
    expected_lines["case3 lam=1 a1=0"] = None
    if lines != expected_lines:
        failures.append(f"real zero lines {lines} != {expected_lines}")
    notes.append(f"real zero lines of the double-bracket cubic: {lines}")
    _verdict(6, "classification replay: five witness rows, 14-35 unrealizable",
             failures, notes)


def test_criterion_07_dT_golden_set(pctx):
    failures, notes = [], []
    lam, k, z, a1 = (pctx.param(p) for p in ("lam", "k", "z", "a1"))
    # name -> (word, c, c_old): the derived dT = -lam^2 omega^2 + c e_word,
    # the old stated display (3/2) lam^2 omega^2 + c_old e_word
    displays = {
        "case1": ("1256", -2 * k ** 2, -2 * k ** 2),
        "case2": ("1234", -2 * (a1 ** 2 + a1 * z + z ** 2), -(a1 ** 2 + 2 * z ** 2)),
        "case3": ("1234", -2 * a1 ** 2, 0),
    }
    # rational bindings for d of the connection solver's T on the
    # hand-written tables; three for the quadratic in (a1, z) of case2
    bindings = {
        "case1": ({"lam": 2, "k": 3}, {"lam": Fraction(1, 2), "k": -5}),
        "case2": ({"lam": 2, "z": 3, "a1": 5},
                  {"lam": Fraction(3, 2), "z": -4, "a1": 1},
                  {"lam": 1, "z": Fraction(2, 3), "a1": -3}),
        "case3": ({"lam": 2, "a1": 7}, {"lam": Fraction(1, 3), "a1": -2}),
    }
    for name, (word, c, c_old) in displays.items():
        _, s = instantiate(name, params=pctx)
        g = build_product(s)
        om2 = lift(s.omega.wedge(s.omega), g.ctx)
        e_word = parse_form(g.ctx, word)
        expected = om2.scale(-lam ** 2) + e_word.scale(c)
        stated = om2.scale(Fraction(3, 2) * lam ** 2) + e_word.scale(c_old)
        dT = torsion(g).dT
        if dT != expected:
            failures.append(f"{name}: dT = {form_str(dT)} != {form_str(expected)}")
        for b in bindings[name]:
            oracle_dT = torsion_derivative(oracle_family_table(name, **b), ORACLE_PHI)
            if oracle_dT != form_to_oracle(expected, b):
                failures.append(f"{name} at {b}: connection solver dT = {oracle_dT}")
            if oracle_dT == form_to_oracle(stated, b):
                failures.append(f"{name} at {b}: old stated dT not refuted")
            _, s_b = instantiate(name, b, params=pctx)
            if form_to_oracle(torsion(build_product(s_b)).dT) != oracle_dT:
                failures.append(f"{name} at {b}: computed dT != connection solver")
    notes.append("old (3/2) lam^2 omega^2 displays refuted by d of the "
                 "connection solver's T at rational bindings")
    _verdict(7, "dT golden set, symbolic", failures, notes)


def test_criterion_08_eigenform_and_no_strong(pctx):
    failures, notes = [], []
    lam, a1 = pctx.param("lam"), pctx.param("a1")
    # the a1 = 0 slice of case3, symbolic in lam
    s0 = standard_structure(parse_salamon("0,lam*35,0,-lam*15,0,lam*13", pctx))
    if laplacian(s0, s0.omega) != s0.omega.scale(3 * lam ** 2):
        failures.append("case3 (a1 = 0): Delta omega != 3 lam^2 omega")
    _, s3 = instantiate("case3", params=pctx)
    excess = laplacian(s3, s3.omega) - s3.omega.scale(3 * lam ** 2)
    if excess != s3.omega.ctx.basis(5, 6).scale(2 * a1 ** 2):
        failures.append(
            f"case3: Delta omega - 3 lam^2 omega = {form_str(excess)} != 2 a1^2 e56"
        )
    # the oracle Laplacian d d* + d* d on the hand-written case3 tables; the
    # old stated identity Delta omega = 3 lam^2 omega fails wherever a1 != 0
    for L, A in ((2, 7), (Fraction(1, 2), -5), (3, 0), (Fraction(2, 3), 0)):
        L, A = Fraction(L), Fraction(A)
        delta = oracle_laplacian(oracle_family_table("case3", lam=L, a1=A), ORACLE_OMEGA)
        eigen = scale(ORACLE_OMEGA, 3 * L * L)
        if delta != add(eigen, {(5, 6): 2 * A * A}):
            failures.append(f"case3 at lam={L}, a1={A}: oracle Delta omega = {delta}")
        if A and delta == eigen:
            failures.append(f"case3 at lam={L}, a1={A}: old identity not refuted")
    notes.append("eigenform exactly on the a1 = 0 slice; old full-family "
                 "identity refuted by the oracle Laplacian")
    # no strong instance: dT != 0 identically for every family
    for name in sorted(FAMILIES):
        _, s = instantiate(name, params=pctx)
        report = torsion(build_product(s))
        if report.dT.coefficient(3, 4, 5, 6).is_zero:
            failures.append(f"{name}: dT omega^2-component vanished")
    # the closed-torsion branch of the eigenvalue check runs on the torus
    from nilg2.g2 import strong_eigen_check

    torus = build_product(standard_structure(parse_salamon("0,0,0,0,0,0", pctx)))
    if strong_eigen_check(torus) != 0:
        failures.append("torus: strong eigenvalue branch != lam^2/2 at lam = 0")
    _verdict(8, "Laplace eigenform on case3 and absence of strong instances",
             failures, notes)


def test_criterion_09_coclosed_torsion(pctx):
    failures = []
    for name in sorted(FAMILIES):
        _, s = instantiate(name, params=pctx)
        report = torsion(build_product(s))
        if not report.d_star_T.is_zero:
            failures.append(f"{name}: d*T != 0")
    _verdict(9, "d*T = 0 on all half-integrable families, symbolic", failures)


def test_criterion_10_representation_tests(pctx):
    failures = []
    for name in sorted(FAMILIES):
        _, s = instantiate(name, params=pctx)
        g = build_product(s)
        report = dT_tests(g, torsion(g))
        if report.dT_type_22 is not True:
            failures.append(f"{name}: dT not of type (2,2)")
        if report.dT_in_R_plus_S2 is not True:
            failures.append(f"{name}: dT has a V7-component")
    _verdict(10, "dT is type (2,2) with vanishing V7-component", failures)


# ---------------------------------------------------------------------------
# criterion 11: randomized property suites (seeded, 1000 cases each)
# ---------------------------------------------------------------------------


def _random_scalar(rng, pctx, symbolic=False):
    value = pctx.scalar(Fraction(rng.randint(-8, 8), rng.randint(1, 5)))
    if symbolic and rng.random() < 0.4:
        name = rng.choice(("lam", "k", "z", "a1"))
        value = value * pctx.param(name) ** rng.randint(1, 2)
    return value


def _random_form(rng, ctx, grade, max_terms=3):
    masks = list(combinations(range(1, ctx.dim + 1), grade))
    f = ctx.zero_form()
    for combo in rng.sample(masks, min(max_terms, len(masks))):
        f = f + ctx.basis(*combo).scale(_random_scalar(rng, ctx.params))
    return f


def _random_invertible(rng, pctx, n=6):
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for i, p in enumerate(perm):
        rows[i][p] = rng.choice([1, -1, 2, -2, Fraction(1, 2)])
    for _ in range(2):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.choice([-1, 1, 2])
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return BasisChange(pctx, rows)


def test_criterion_11_property_suites(pctx, frame6, frame7):
    failures, notes = [], []
    notes.append(f"seed {SEED}, {CASES} cases per suite")

    rng = random.Random(SEED)
    for _ in range(CASES):
        a = _random_scalar(rng, pctx, symbolic=True)
        b = _random_scalar(rng, pctx, symbolic=True)
        c = _random_scalar(rng, pctx, symbolic=True)
        ok = (
            (a + b) + c == a + (b + c)
            and a * (b + c) == a * b + a * c
            and (a * b) * c == a * (b * c)
            and (a.is_zero or a * (pctx.one / a) == pctx.one)
        )
        if not ok:
            failures.append(f"field axioms: {a}, {b}, {c}")
            break

    rng = random.Random(SEED + 1)
    for _ in range(CASES):
        ctx = frame6 if rng.random() < 0.5 else frame7
        k = rng.randint(0, ctx.dim)
        f = _random_form(rng, ctx, k)
        sign = (-1) ** (k * (ctx.dim - k))
        if hodge(hodge(f)) != f.scale(sign):
            failures.append(f"hodge involution: {form_str(f)}")
            break

    rng = random.Random(SEED + 2)
    for _ in range(CASES):
        ctx = frame6 if rng.random() < 0.5 else frame7
        k = rng.randint(0, ctx.dim)
        a = _random_form(rng, ctx, k)
        b = _random_form(rng, ctx, k)
        if a.wedge(hodge(b)) != ctx.volume().scale(inner(a, b)):
            failures.append(f"a ^ *b != <a,b> vol: {form_str(a)}, {form_str(b)}")
            break

    rng = random.Random(SEED + 3)
    for _ in range(CASES):
        k = rng.randint(1, 5)
        x = _random_form(rng, frame6, 1)
        a = _random_form(rng, frame6, k)
        b = _random_form(rng, frame6, k - 1)
        if inner(interior(x, a), b) != inner(a, x.wedge(b)):
            failures.append("interior adjunction")
            break

    rng = random.Random(SEED + 4)
    bases = [
        parse_salamon("0,0,0,0,13+42,14+23", pctx),
        parse_salamon("0,0,12,13,23,14-25", pctx),
        parse_salamon("0,0,0,12,23,14+35", pctx),
    ]
    probes = [(1, 4, 6), (2, 3, 5, 6), (1, 2, 3)]
    for case in range(CASES):
        g = bases[case % len(bases)]
        B = _random_invertible(rng, pctx)
        moved = change_basis(g, B)     # constructor verifies d^2 = 0
        probe = moved.ctx.basis(*probes[case % len(probes)])
        if not moved.d(moved.d(probe)).is_zero:
            failures.append("d^2 != 0 after basis change")
            break

    rng = random.Random(SEED + 5)
    fp_bases = [
        (parse_salamon("0,0,12,13,23,14", pctx), None),
        (parse_salamon("0,0,0,0,13+42,14+23", pctx), None),
    ]
    fp_bases = [(g, fingerprint(g)) for g, _ in fp_bases]
    for case in range(CASES):
        g, fp = fp_bases[case % len(fp_bases)]
        B = _random_invertible(rng, pctx)
        if fingerprint(change_basis(g, B)) != fp:
            failures.append("fingerprint changed under basis change")
            break

    rng = random.Random(SEED + 6)
    names = sorted(FAMILIES)
    for case in range(CASES):
        name = names[case % len(names)]
        binding = {
            "lam": Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice([-1, 1]),
            "k": Fraction(rng.randint(1, 9)) * rng.choice([-1, 1]),
            "z": Fraction(rng.randint(-6, 6)),
            "a1": Fraction(rng.randint(-6, 6)),
        }
        spec = FAMILIES[name]
        binding = {p: binding[p] for p in spec.parameters}
        try:
            _, s = instantiate(name, binding, params=pctx)
        except Exception:
            continue   # nondegeneracy rejected the draw
        g = build_product(s)
        report = torsion(g)   # raises on any route disagreement
        bound_params = s.omega.ctx.params
        concise = hodge(s.d(s.omega)) + s.psi_minus.scale(
            bound_params.scalar(binding["lam"])
        )
        if report.T != lift(concise, g.ctx):
            failures.append(f"torsion route mismatch on {name} at {binding}")
            break

    _verdict(11, "randomized property suites", failures, notes)


def test_criterion_12_contraction(pctx):
    failures, notes = [], []
    exponents = [-1, 1, 0, -1, 1, -2]
    target_fp = fingerprint(parse_salamon("0,0,12,13,23,14", pctx))
    for table in ("0,0,12,13,23,14+25", "0,0,12,13,23,14-25"):
        g = parse_salamon(table, pctx)
        converged = {}
        for direction in ("to-zero", "to-infinity"):
            try:
                converged[direction] = contraction_limit(g, exponents, direction)
            except ContractionError:
                pass
        if set(converged) != {"to-infinity"}:
            failures.append(f"{table}: converged in {sorted(converged)}")
            continue
        limit = converged["to-infinity"]
        if fingerprint(limit) != target_fp:
            failures.append(f"{table}: limit fingerprint mismatch")
        notes.append(f"{table}: realized direction is t -> infinity")
    _verdict(12, "contraction limit of the twin entries", failures, notes)
