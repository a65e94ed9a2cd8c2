"""Independent cross-check machinery for the torsion computations.

Everything here works on plain dictionaries {sorted index tuple: Fraction}
over an orthonormal 7-frame with plain-Fraction Gaussian elimination, kept
deliberately separate from the package data structures.  The main entry
point solves the connection equations directly: it finds the unique totally
skew torsion 3-form T such that the metric connection with torsion T (i.e.
Levi-Civita plus half the torsion) annihilates the defining 3-form, with
the Levi-Civita part obtained from the Koszul formula for the flat metric
and the brackets recovered from the coframe derivatives.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Dict, List, Optional, Tuple

N = 7
Key = Tuple[int, ...]
OForm = Dict[Key, Fraction]


def sort_sign(indices) -> Tuple[int, Key]:
    idx = list(indices)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return 0, tuple(idx)
    return sign, tuple(idx)


def clean(form: OForm) -> OForm:
    return {k: v for k, v in form.items() if v}


def add(a: OForm, b: OForm) -> OForm:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
    return clean(out)


def scale(a: OForm, c: Fraction) -> OForm:
    return clean({k: v * c for k, v in a.items()})


def wedge(a: OForm, b: OForm) -> OForm:
    out: OForm = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            if set(ka) & set(kb):
                continue
            s, key = sort_sign(ka + kb)
            out[key] = out.get(key, Fraction(0)) + s * va * vb
    return clean(out)


def hodge7(a: OForm) -> OForm:
    full = tuple(range(1, N + 1))
    out: OForm = {}
    for k, v in a.items():
        comp = tuple(i for i in full if i not in k)
        s, _ = sort_sign(k + comp)
        out[comp] = out.get(comp, Fraction(0)) + s * v
    return clean(out)


def d_of(table: Dict[int, OForm], a: OForm) -> OForm:
    out: OForm = {}
    for k, v in a.items():
        for pos, idx in enumerate(k):
            di = table.get(idx)
            if not di:
                continue
            rest = tuple(x for x in k if x != idx)
            term = wedge(di, {rest: Fraction(1)})
            sgn = -1 if pos % 2 else 1
            for kk, vv in term.items():
                out[kk] = out.get(kk, Fraction(0)) + sgn * v * vv
    return clean(out)


def _brackets(table: Dict[int, OForm]):
    """[e_a, e_b] components from d e^i(X, Y) = -e^i([X, Y])."""
    pairs: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for i, form in table.items():
        for (a, b), c in form.items():
            pairs.setdefault((a, b), {})[i] = pairs.get((a, b), {}).get(i, Fraction(0)) - c

    def bracket(a: int, b: int) -> Dict[int, Fraction]:
        if a == b:
            return {}
        s = 1
        if a > b:
            a, b = b, a
            s = -1
        return {i: s * v for i, v in pairs.get((a, b), {}).items()}

    return bracket


def solve_linear(rows: List[List[Fraction]], rhs: List[Fraction]) -> Optional[List[Fraction]]:
    m = [row + [b] for row, b in zip(rows, rhs) if any(row) or b]
    if not m:
        return [Fraction(0)] * (len(rows[0]) if rows else 0)
    ncols = len(m[0]) - 1
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    for i in range(r, len(m)):
        if not any(m[i][:ncols]) and m[i][ncols]:
            return None
    x = [Fraction(0)] * ncols
    for row_idx, c in enumerate(pivots):
        x[c] = m[row_idx][ncols]
    return x


def characteristic_torsion(table: Dict[int, OForm], phi: OForm) -> Optional[OForm]:
    """The unique skew torsion of a connection preserving phi, or None.

    Connection coefficients: Koszul for the flat metric on the coframe,
    plus half the unknown torsion; the annihilation of phi is linear in
    the torsion components.
    """
    bracket = _brackets(table)

    def br(a: int, b: int, c: int) -> Fraction:
        return bracket(a, b).get(c, Fraction(0))

    gamma = {}
    half = Fraction(1, 2)
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            for c in range(1, N + 1):
                gamma[(a, b, c)] = half * (br(a, b, c) - br(b, c, a) + br(c, a, b))

    triples = list(combinations(range(1, N + 1), 3))
    tpos = {t: i for i, t in enumerate(triples)}

    def phic(a, b, c) -> Fraction:
        s, k = sort_sign((a, b, c))
        if s == 0:
            return Fraction(0)
        return s * phi.get(k, Fraction(0))

    rows: List[List[Fraction]] = []
    rhs: List[Fraction] = []
    for a in range(1, N + 1):
        for (b, c, d) in triples:
            row = [Fraction(0)] * len(triples)
            const = Fraction(0)
            for x in range(1, N + 1):
                # nabla_a acting on each slot of phi
                const += gamma[(a, b, x)] * phic(x, c, d)
                const += gamma[(a, c, x)] * phic(b, x, d)
                const += gamma[(a, d, x)] * phic(b, c, x)
                for (i, j, k), weight in (((a, b, x), phic(x, c, d)),
                                          ((a, c, x), phic(b, x, d)),
                                          ((a, d, x), phic(b, c, x))):
                    if weight == 0:
                        continue
                    s, key = sort_sign((i, j, k))
                    if s == 0:
                        continue
                    row[tpos[key]] += half * s * weight
            rows.append(row)
            rhs.append(-const)
    sol = solve_linear(rows, rhs)
    if sol is None:
        return None
    return clean({t: sol[i] for t, i in tpos.items()})


# ---------------------------------------------------------------------------
# derived checks: dT, the Hodge Laplacian, the double-bracket invariant
# ---------------------------------------------------------------------------


def torsion_derivative(table: Dict[int, OForm], phi: OForm) -> Optional[OForm]:
    """dT for the solved characteristic torsion T, or None if there is none."""
    T = characteristic_torsion(table, phi)
    return None if T is None else d_of(table, T)


def codifferential(table: Dict[int, OForm], a: OForm) -> OForm:
    """d* = (-1)^k *d* on k-forms over the 7-frame (flat metric, unimodular).

    A 6-dimensional table is read on the product with a closed seventh
    coframe element, so forms of the base keep their base Laplacian.
    """
    grades = {len(k) for k in a}
    if len(grades) > 1:
        raise ValueError("codifferential needs a homogeneous form")
    sign = -1 if grades and grades.pop() % 2 else 1
    return scale(hodge7(d_of(table, hodge7(a))), Fraction(sign))


def laplacian(table: Dict[int, OForm], a: OForm) -> OForm:
    """Hodge Laplacian d d* + d* d of a homogeneous form."""
    return add(d_of(table, codifferential(table, a)),
               codifferential(table, d_of(table, a)))


# psi+ = Re (e1 + i e2)(e3 + i e4)(e5 + i e6) on the first six coframe elements
PSI_PLUS: OForm = {
    (1, 3, 5): Fraction(1), (1, 4, 6): Fraction(-1),
    (2, 3, 6): Fraction(-1), (2, 4, 5): Fraction(-1),
}


def is_type_22(form: OForm) -> bool:
    """True iff a real 4-form on the first six coframe elements is of type (2,2).

    Lambda^4 splits orthogonally as [[Lambda^{2,2}]] + [[Lambda^{3,1}]] with
    [[Lambda^{3,1}]] = Lambda^1 ^ psi+ (Chiossi and Salamon, "The intrinsic
    torsion of SU(3) and G2 structures", 2002), so the (2,2) forms are those
    orthogonal to the six forms e^i ^ psi+; no complex structure is applied.
    A form of another grade or with a seventh-coframe component is not of
    type (2,2) on the base.  Coefficients are only multiplied by integers
    and added, so they may be of any ring type.
    """
    if any(len(key) != 4 or max(key) > N - 1 for key in form):
        return False
    for i in range(1, N):
        probe = wedge({(i,): Fraction(1)}, PSI_PLUS)
        if sum(v * int(probe[key]) for key, v in form.items() if key in probe):
            return False
    return True


def _cleared(row: List[Fraction], c: int, pivot: List[Fraction]) -> List[Fraction]:
    f = row[c]
    return [x - f * y if y else x for x, y in zip(row, pivot)]


def _row_basis(vectors: List[List[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon basis of the span, with its pivot columns."""
    rows = [list(v) for v in vectors if any(v)]
    basis: List[List[Fraction]] = []
    pivots: List[int] = []
    for c in range(len(vectors[0]) if vectors else 0):
        pivot = next((r for r in rows if r[c]), None)
        if pivot is None:
            continue
        pivot = [x / pivot[c] for x in pivot]
        rows = [_cleared(r, c, pivot) if r[c] else r for r in rows]
        rows = [r for r in rows if any(r)]
        basis = [_cleared(b, c, pivot) if b[c] else b for b in basis]
        basis.append(pivot)
        pivots.append(c)
    return basis, pivots


def betti_numbers(table: Dict[int, OForm], dim: int = N - 1) -> Tuple[int, ...]:
    """(b_1, ..., b_dim) from the full rank of d on every grade; no duality."""
    ranks = []
    for k in range(dim + 1):
        keys = list(combinations(range(1, dim + 1), k + 1))
        images = [d_of(table, {word: Fraction(1)}) for word in combinations(range(1, dim + 1), k)]
        basis, _ = _row_basis([[image.get(key, Fraction(0)) for key in keys] for image in images])
        ranks.append(len(basis))
    return tuple(comb(dim, k) - ranks[k] - ranks[k - 1] for k in range(1, dim + 1))


def exact_two_form_data(table: Dict[int, OForm], dim: int = N - 1) -> Tuple[int, int, int, bool]:
    """(rank of d on 1-forms, dim span{x ^ y : x, y exact}, dim of the wedge
    radical {y exact : x ^ y = 0 for every exact x}, whether every exact
    2-form is decomposable).

    Works on the spanning set d e^1, ..., d e^dim, not on a basis: the radical
    is the space of coefficient vectors c with d e^k ^ sum_i c_i d e^i = 0 for
    every k, less those with sum_i c_i d e^i = 0.  A 2-form x is decomposable
    iff x ^ x = 0, which holds on every exact x iff it holds on each d e^i and
    each d e^i + d e^j.
    """
    exact = [table.get(i, {}) for i in range(1, dim + 1)]
    keys2 = list(combinations(range(1, dim + 1), 2))
    keys4 = list(combinations(range(1, dim + 1), 4))

    def rank(vectors: List[List[Fraction]]) -> int:
        return len(_row_basis(vectors)[0])

    rank_d = rank([[x.get(key, Fraction(0)) for key in keys2] for x in exact])
    products = [[wedge(x, y) for y in exact] for x in exact]
    wedge_span = rank([[p.get(key, Fraction(0)) for key in keys4] for row in products for p in row])
    conditions = [[products[k][i].get(key, Fraction(0)) for i in range(dim)]
                  for k in range(dim) for key in keys4]
    radical = (dim - rank(conditions)) - (dim - rank_d)
    squares = [wedge(x, x) for x in exact]
    squares += [wedge(add(x, y), add(x, y)) for x, y in combinations(exact, 2)]
    return rank_d, wedge_span, radical, not any(squares)


def _unit(dim: int) -> List[List[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]


def _vector_bracket(table: Dict[int, OForm], dim: int):
    """The bracket of coordinate vectors, from the basis brackets."""
    bracket = _brackets(table)

    def br(u: List[Fraction], v: List[Fraction]) -> List[Fraction]:
        out = [Fraction(0)] * dim
        for a, ua in enumerate(u, start=1):
            if not ua:
                continue
            for b, vb in enumerate(v, start=1):
                if vb:
                    for i, c in bracket(a, b).items():
                        out[i - 1] += ua * vb * c
        return out

    return br


def series_dims(table: Dict[int, OForm], dim: int = N - 1):
    """(lower central, derived, upper central) dimension sequences.

    Straight from the definitions on coordinate vectors: g^{k+1} = [g, g^k]
    and g^(k+1) = [g^(k), g^(k)] down to where they stop shrinking, and
    Z_{k+1} = {x : [x, g] c Z_k} from Z_0 = 0 up to where it stops growing.
    """
    br = _vector_bracket(table, dim)
    unit = _unit(dim)

    def descend(step):
        spaces = [unit]
        while spaces[-1]:
            nxt, _ = _row_basis([br(x, y) for x in step(spaces[-1]) for y in spaces[-1]])
            if len(nxt) == len(spaces[-1]):
                break
            spaces.append(nxt)
        return tuple(len(space) for space in spaces)

    upper: List[int] = []
    center: List[List[Fraction]] = []
    while True:
        basis, pivots = _row_basis(center)

        def modulo_center(v):
            for b, p in zip(basis, pivots):
                v = [x - v[p] * y for x, y in zip(v, b)]
            return v

        # x in Z_{k+1} iff every [x, e_j] vanishes modulo Z_k; linear in x
        images = [[modulo_center(br(ea, ej)) for ea in unit] for ej in unit]
        rows = [[img[a][c] for a in range(dim)] for img in images for c in range(dim)]
        reduced, bound = _row_basis(rows)
        center = []
        for f in range(dim):
            if f in bound:
                continue
            v = [Fraction(0)] * dim
            v[f] = Fraction(1)
            for r, p in zip(reduced, bound):
                v[p] = -r[f]
            center.append(v)
        if upper and len(center) == upper[-1]:
            break
        upper.append(len(center))
        if len(center) == dim:
            break
    return descend(lambda space: unit), descend(lambda space: space), tuple(upper)


def annihilator_series(table: Dict[int, OForm], dim: int = N - 1):
    """(lower central, derived) dimension sequences by the annihilator route
    on 1-forms, a second method beside the brackets of ``series_dims``:

    ann g^{k+1} = {a : da in Lambda^2 ann g^k},
    ann g^(k+1) = {a : da in ann g^(k) ^ Lambda^1},

    each a preimage under d, climbing from ann g^1 = ann g^(0) = 0 to where
    it stops growing or fills Lambda^1; dim g^k = dim - dim ann g^k.
    """
    keys2 = list(combinations(range(1, dim + 1), 2))
    units = [{(i,): Fraction(1)} for i in range(1, dim + 1)]
    # rows [d e^i | e_i], below the rows [s | 0] of a span; the rows left
    # without a Lambda^2 part span {a : da in span}
    d_rows = [[d_of(table, e).get(key, Fraction(0)) for key in keys2] + u
              for e, u in zip(units, _unit(dim))]

    def preimage(span: List[OForm]) -> List[OForm]:
        rows = [[s.get(key, Fraction(0)) for key in keys2] for s in span]
        rows = [row + [Fraction(0)] * dim for row in _row_basis(rows)[0]] + d_rows
        basis, pivots = _row_basis(rows)
        return [{(i,): x for i, x in enumerate(row[len(keys2):], start=1) if x}
                for row, p in zip(basis, pivots) if p >= len(keys2)]

    def climb(generators) -> Tuple[int, ...]:
        w: List[OForm] = []
        dims = [0]
        while True:
            w = preimage(generators(w))
            if len(w) == dims[-1]:
                break
            dims.append(len(w))
            if len(w) == dim:
                break
        return tuple(dim - k for k in dims)

    lower = climb(lambda w: [wedge(a, b) for a, b in combinations(w, 2)])
    derived = climb(lambda w: [wedge(a, e) for a in w for e in units])
    return lower, derived


def _binary_cubic_discriminant(a, b, c, d) -> Fraction:
    return (b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d
            - 27 * a * a * d * d + 18 * a * b * c * d)


# Fixed rational lines v = s P + t Q of the projective plane g/gamma2.
_PROBE_LINES = (
    ((1, 3, -2), (2, -1, 5)),
    ((3, 1, 4), (-1, 5, 2)),
    ((2, 7, 1), (5, -3, 4)),
    ((4, -2, 7), (1, 6, -3)),
)


def double_bracket_real_lines(table: Dict[int, OForm]) -> Optional[int]:
    """Number of real lines in the zero set of the double-bracket cubic D.

    For a 3-step algebra (gamma4 = 0) with dim g/gamma2 = 3 and dim
    gamma3 = 1, q(u)(v) = [u,[u,v]] is well defined on g/gamma2 x g/gamma2
    with values in gamma3; D(v) is the determinant of the conic u -> q(u)(v),
    a ternary cubic.  A coframe change acts on D by a linear substitution
    and a nonzero factor, so the real zero lines are counted up to basis.
    Where D splits into lines, a line in general position meets each real
    component in a real point and each conjugate pair in conjugate points;
    the count is read from the sign of the discriminant of D restricted to
    fixed rational lines (lines meeting a double point are skipped).

    Returns None where the invariant is not defined; raises ValueError when
    the fixed lines disagree (D = 0 is then no union of three lines).
    """
    dim = N - 1
    br = _vector_bracket(table, dim)
    unit = _unit(dim)
    gamma2, pivots2 = _row_basis([br(x, y) for x in unit for y in unit])
    gamma3, _ = _row_basis([br(x, w) for x in unit for w in gamma2])
    gamma4, _ = _row_basis([br(x, w) for x in unit for w in gamma3])
    quotient = [unit[j] for j in range(dim) if j not in pivots2]
    if gamma4 or len(gamma3) != 1 or len(quotient) != 3:
        return None
    w = gamma3[0]
    p = next(i for i, x in enumerate(w) if x)

    def q(u, u2, v) -> Fraction:
        return br(u, br(u2, v))[p] / w[p]

    # D(v) = det M(v), M(v)_ij the symmetrised coefficient of x_i x_j
    slices = [
        [[(q(ui, uj, vk) + q(uj, ui, vk)) / 2 for uj in quotient] for ui in quotient]
        for vk in quotient
    ]

    def D(v) -> Fraction:
        m = [[sum(vk * s[i][j] for vk, s in zip(v, slices)) for j in range(3)]
             for i in range(3)]
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    counts = set()
    for P, Q in _PROBE_LINES:
        # D(s P + Q) = a s^3 + b s^2 + c s + d, from four values
        values = [D([s * x + y for x, y in zip(P, Q)]) for s in range(4)]
        rows = [[Fraction(s ** e) for e in (3, 2, 1, 0)] for s in range(4)]
        coeffs = solve_linear(rows, values)
        disc = _binary_cubic_discriminant(*coeffs)
        if disc:
            counts.add(3 if disc > 0 else 1)
    if len(counts) != 1:
        raise ValueError(f"double-bracket cubic is not a union of lines: {counts}")
    return counts.pop()


def contraction(table: Dict[int, OForm], exponents, direction: str):
    """Limit of the d-table in the coframe f^i = t^(e_i) e^i as t tends to 0
    ("to-zero") or infinity ("to-infinity"); None when it diverges.

    Worked on the bracket side: the dual frame is f_a = t^(-e_a) e_a, so
    [f_a, f_b] = sum_i t^(e_i - e_a - e_b) c^i_ab f_i, and each power tends
    to 0, stays 1 or diverges.  Coefficients are only negated, so they may
    be of any ring type.
    """
    if direction not in ("to-zero", "to-infinity"):
        raise ValueError(direction)
    bracket = _brackets(table)
    limit: Dict[int, OForm] = {}
    for a, b in combinations(range(1, len(exponents) + 1), 2):
        for i, c in bracket(a, b).items():
            power = exponents[i - 1] - exponents[a - 1] - exponents[b - 1]
            if power == 0:
                # d f^i (f_a, f_b) = -f^i([f_a, f_b])
                limit.setdefault(i, {})[(a, b)] = -c
            elif (power < 0) == (direction == "to-zero"):
                return None
    return limit


def inverse(matrix: List[List[Fraction]]) -> Optional[List[List[Fraction]]]:
    """Gauss-Jordan inverse of a square Fraction matrix; None if singular."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return None
        m[c], m[pivot] = m[pivot], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def pull_back(form: OForm, rows: List[List[Fraction]]) -> OForm:
    """The algebra map e^i -> sum_j rows[i-1][j-1] e^j on a form: each index
    word goes to the wedge product of the rows it names, in its order."""
    out: OForm = {}
    for key, value in form.items():
        image: OForm = {(): value}
        for i in key:
            image = wedge(image, {(j,): c for j, c in enumerate(rows[i - 1], start=1) if c})
        out = add(out, image)
    return out


def change_basis(table: Dict[int, OForm], matrix: List[List[Fraction]],
                 dim: int = N - 1) -> Dict[int, OForm]:
    """The table in the coframe f = B e for B = ``matrix``:
    d f^i = sum_j B_ij (B^-1)^* d e^j, with e^k = sum_l (B^-1)_kl f^l."""
    inv = inverse(matrix)
    if inv is None:
        raise ValueError("singular matrix")
    pulled = {j: pull_back(form, inv) for j, form in table.items()}
    out: Dict[int, OForm] = {}
    for i in range(1, dim + 1):
        entry: OForm = {}
        for j, c in enumerate(matrix[i - 1], start=1):
            if c and j in pulled:
                entry = add(entry, scale(pulled[j], c))
        if entry:
            out[i] = entry
    return out
