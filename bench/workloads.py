"""The four benchmark workloads: seeded inputs, the timed operation, the checks.

Each workload draws its inputs from ``random.Random`` streams derived from
the seed, so one seed always gives the same input sequence.  ``run`` is the
timed operation and goes through the public API (or the CLI) only.  The
callable returned by ``checker`` checks each output right after its
operation, outside the timed region, so no output is kept.  References come
from ``tests/oracle.py``, which shares no code with the package, and from
the plain-``Fraction`` helpers in ``reference.py``.

Why these four:

* ``g2t-symbolic``: the documented user path, ``nilg2 g2t`` through
  ``cli.main``, on bare families (repeated inputs) and on structure files
  with distinct seeded gauge rotations; the only workload that runs ``cli``.
* ``g2t-bound``: instantiate -> build_product -> torsion -> dT_tests at
  seeded rational bindings; the same layers on the rational path, where the
  nilpotency check inside ``instantiate`` dominates.
* ``classify``: fingerprint of a seeded rational basis change; the rational
  ``liealg``/``linalg`` stack without ``exterior``/``su3``/``g2``.
* ``witness``: symbolic basis change with parameter denominators, its
  inverse round trip and one contraction attempt; the one genuine
  rational-function use of ``scalars``.

BENCHMARK.json lists only ``g2t-symbolic`` and ``classify``; ``g2t-bound``
and ``witness`` run by name.  On a shared 2-CPU host the run medians follow
the host's speed, which drifts over minutes, so longer runs do not steady
them and every listed workload is one more chance for a set of runs to
straddle a slow spell.  These two still reach every layer
(``g2t-symbolic`` reaches all eight) and pair a workload that exercises
each planned optimization with one that bypasses it.

Each workload cycles through its kinds of operation in a fixed order, so
every run has the same mix.  The mixes are chosen so that the median and
p90 fall inside a cluster of similar operations rather than in the gap
between two clusters, where a quantile would jump from run to run.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import shutil
import zlib
from fractions import Fraction
from math import gcd
from pathlib import Path

from nilg2 import cli, exterior, families, g2, liealg

import reference

F = Fraction

# Criterion 12 of the acceptance suite: this exponent vector contracts both
# 14+-25 twins to 0,0,12,13,23,14 as t -> infinity.
CRITERION_12_EXPONENTS = (-1, 1, 0, -1, 1, -2)
TWINS = ("0,0,12,13,23,14+25", "0,0,12,13,23,14-25")
TWIN_LIMIT = "0,0,12,13,23,14"

FAMILY_NAMES = ("case1", "case2", "case3")

# Operations checked directly against the oracle are drawn from this many
# first operations, which every run completes.
SAMPLE_RANGE = 64

OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"


def _nonzero_fraction(rng, num_max, den_max):
    return F(rng.randint(1, num_max), rng.randint(1, den_max)) * rng.choice((-1, 1))


def family_binding(rng, name):
    """A nondegenerate rational binding of the family's parameters."""
    while True:
        values = {
            "lam": _nonzero_fraction(rng, 9, 4),
            "k": _nonzero_fraction(rng, 9, 3),
            "z": _nonzero_fraction(rng, 6, 3),
            "a1": _nonzero_fraction(rng, 6, 3),
        }
        if values["z"] + values["a1"] != 0:
            return {p: values[p] for p in families.FAMILIES[name].parameters}


def circle_points(max_hypotenuse):
    """Rational points (c, s) with c^2 + s^2 = 1 from primitive triples."""
    points = []
    m = 2
    while m * m + 1 <= max_hypotenuse:
        for n in range(1, m):
            hyp = m * m + n * n
            if (m - n) % 2 == 0 or gcd(m, n) != 1 or hyp > max_hypotenuse:
                continue
            a, b = m * m - n * n, 2 * m * n
            for c, s in ((a, b), (b, a)):
                for sc in (1, -1):
                    for ss in (1, -1):
                        points.append((F(sc * c, hyp), F(ss * s, hyp)))
        m += 1
    return sorted(points)


def random_invertible(rng, n=6):
    """A signed scaled permutation plus two elementary row operations."""
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[F(0)] * n for _ in range(n)]
    for i, p in enumerate(perm):
        rows[i][p] = F(rng.choice((1, -1, 2, -2))) / rng.choice((1, 2))
    for _ in range(2):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


def _rotate(seq, rng):
    """``seq`` as an endless cycle from a seeded starting point."""
    start = rng.randrange(len(seq))
    return itertools.cycle(tuple(seq[start:]) + tuple(seq[:start]))


class Workload:
    name = ""
    warmup_ops = 6

    def __init__(self, seed, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.ctx = families.family_context()

    def rng(self, stream):
        """A random stream per (seed, workload, purpose); stable across runs."""
        return random.Random(zlib.crc32(f"{self.seed}/{self.name}/{stream}".encode()))

    def _stream(self, rng):
        """The endless input sequence drawn from ``rng``."""
        raise NotImplementedError

    def warmup_inputs(self):
        return list(itertools.islice(self._stream(self.rng("warmup")), self.warmup_ops))

    def inputs(self):
        return self._stream(self.rng("ops"))

    def describe(self, inp):
        """A canonical text form of one input, for determinism checks."""
        return repr(inp)

    def key(self, inp):
        """Equal for repeated inputs."""
        return self.describe(inp)


class G2tSymbolic(Workload):
    name = "g2t-symbolic"
    # Two bare families (repeated inputs) per three distinct rotations; the
    # median then falls among rotated case3 reports and p90 among rotated
    # case1 reports.
    SCHEDULE = ("bare", "bare", "rotated", "rotated", "rotated")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.ctx7 = exterior.FrameContext(7, self.ctx)
        rng = self.rng("bindings")
        self.bindings = {f: family_binding(rng, f) for f in FAMILY_NAMES}
        self._file_count = 0

    def _write(self, family, c, s):
        rotation = families.case2_gauge_rotation(self.ctx, c, s)
        lines = ["[algebra]", families.FAMILIES[family].table, "[adaptation]"]
        lines += [" ".join(str(x) for x in row) for row in rotation.rows]
        self._file_count += 1
        path = self.workdir / f"rot{self._file_count:05d}.su3"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def _stream(self, rng):
        points = {}
        for family in FAMILY_NAMES:
            pool = circle_points(401)
            rng.shuffle(pool)
            points[family] = itertools.cycle(pool)
        bare, rotated = _rotate(FAMILY_NAMES, rng), _rotate(FAMILY_NAMES, rng)
        for kind in itertools.cycle(self.SCHEDULE):
            if kind == "bare":
                family = next(bare)
                yield {"family": family, "c": F(1), "s": F(0), "arg": family}
            else:
                family = next(rotated)
                c, s = next(points[family])
                yield {"family": family, "c": c, "s": s, "arg": self._write(family, c, s)}

    def warmup_inputs(self):
        """Each bare family once and one rotated structure file."""
        inputs = list(itertools.islice(self._stream(self.rng("warmup")), 8))
        return [inp for inp in inputs if inp["arg"] in FAMILY_NAMES][:3] + inputs[2:3]

    def describe(self, inp):
        text = inp["arg"]
        if text not in FAMILY_NAMES:
            text = Path(text).read_text(encoding="utf-8")
        return f"{inp['family']} {inp['c']} {inp['s']}\n{text}"

    def key(self, inp):
        return (inp["family"], inp["c"], inp["s"])

    def run(self, inp):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(["--format", "structured", "g2t", inp["arg"]])
        return status, buf.getvalue()

    def _table(self, family, binding):
        algebra, _ = families.instantiate(family, params=self.ctx)
        return reference.table_dict(algebra, binding)

    def checker(self, rng):
        oracle_T = {
            f: reference.oracle_torsion(self._table(f, self.bindings[f]))
            for f in FAMILY_NAMES
        }
        rotated = [i for i in range(SAMPLE_RANGE)
                   if self.SCHEDULE[i % len(self.SCHEDULE)] == "rotated"]
        direct = set(rng.sample(rotated, 3))

        def check(i, inp, out):
            status, text = out
            doc = json.loads(text)
            if status != 0 or doc["passed"] is not True:
                return False
            checks = {c["name"]: c["data"] for c in doc["checks"]}
            tests = checks["tests"]
            if (tests["is_strong"], tests["dT_type_22"], tests["dT_in_R_plus_S2"]) \
                    != ("False", "True", "True"):
                return False
            family, binding = inp["family"], self.bindings[inp["family"]]
            got = reference.form_dict(exterior.parse_form(self.ctx7, checks["torsion"]["T"]),
                                      binding)
            rotation = reference.gauge_rotation(inp["c"], inp["s"])
            # T is a tensor and the rotation preserves the structure, so a
            # rotated report is the bare family's torsion in the new coframe.
            if got != reference.transform(oracle_T[family], rotation):
                return False
            if i in direct:
                table = reference.transform_table(self._table(family, binding), rotation)
                return got == reference.oracle_torsion(table)
            return True
        return check


class G2tBound(Workload):
    name = "g2t-bound"

    def _stream(self, rng):
        for family in _rotate(FAMILY_NAMES, rng):
            yield {"family": family, "binding": family_binding(rng, family)}

    def key(self, inp):
        return (inp["family"], tuple(sorted(inp["binding"].items())))

    def run(self, inp):
        _, structure = families.instantiate(inp["family"], inp["binding"], params=self.ctx)
        product = g2.build_product(structure)
        return g2.dT_tests(product, g2.torsion(product))

    def checker(self, rng):
        # Symbolic torsion of each family from the package, itself checked
        # against the oracle at one seeded binding per family.
        symbolic_T, good = {}, {}
        brng = self.rng("check-bindings")
        for family in FAMILY_NAMES:
            algebra, structure = families.instantiate(family, params=self.ctx)
            symbolic_T[family] = g2.torsion(g2.build_product(structure)).T
            binding = family_binding(brng, family)
            good[family] = reference.form_dict(symbolic_T[family], binding) == \
                reference.oracle_torsion(reference.table_dict(algebra, binding))
        direct = set(rng.sample(range(SAMPLE_RANGE), 4))

        def check(i, inp, report):
            family, binding = inp["family"], inp["binding"]
            got = reference.form_dict(report.T, {})
            ok = (
                good[family]
                and report.is_strong is False
                and report.dT_type_22 is True
                and report.dT_in_R_plus_S2 is True
                and got == reference.form_dict(symbolic_T[family], binding)
            )
            if ok and i in direct:
                algebra, _ = families.instantiate(family, params=self.ctx)
                ok = got == reference.oracle_torsion(reference.table_dict(algebra, binding))
            return ok
        return check


class Classify(Workload):
    name = "classify"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # The torus is left out: its fingerprint costs nothing.
        bases = [(k, v) for k, v in liealg.NAMED_ALGEBRAS.items() if k != "torus"]
        bases += [(f, families.FAMILIES[f].table) for f in FAMILY_NAMES]
        self.bases = {k: liealg.parse_salamon(v, self.ctx) for k, v in bases}
        self.warmup_ops = len(self.bases)

    def _stream(self, rng):
        # Families (the symbolic, two-prime path) weigh twice: the median then
        # falls among the 14, 14+25 and 14-25 entries and p90 inside case2.
        order = sorted(self.bases) + list(FAMILY_NAMES)
        rng.shuffle(order)
        for base in itertools.cycle(order):
            yield {"base": base, "rows": random_invertible(rng)}

    def run(self, inp):
        B = liealg.BasisChange(self.ctx, inp["rows"])
        return liealg.fingerprint(liealg.change_basis(self.bases[inp["base"]], B))

    def checker(self, rng):
        expected = {name: liealg.fingerprint(g) for name, g in self.bases.items()}

        def check(i, inp, fp):
            return fp == expected[inp["base"]]
        return check


class Witness(Workload):
    name = "witness"
    # Witness-style entries per family, with parameter denominators.
    ENTRIES = {
        "case1": ("1/k", "1/(k*lam)", "-1/(k*lam)", "-1/(k^2*lam)", "-1/k^3", "k", "lam", "1"),
        "case2": ("1/(z+a1)", "-1/lam", "1/(lam*(z+a1))", "a1", "z+a1", "lam", "1/2", "1"),
        "case3": ("1/lam", "-1/lam", "a1", "-a1*lam", "lam", "1/(a1*lam)", "1"),
    }

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.algebras = {
            f: families.instantiate(f, params=self.ctx)[0] for f in FAMILY_NAMES
        }
        self.twins = {t: liealg.parse_salamon(t, self.ctx) for t in TWINS}

    def _matrix(self, rng, family):
        """A monomial matrix plus one elementary row operation; invertible."""
        entries = self.ENTRIES[family]
        perm = list(range(6))
        rng.shuffle(perm)
        cells = [["0"] * 6 for _ in range(6)]
        for i, p in enumerate(perm):
            cells[i][p] = rng.choice(entries)
        i, j = rng.sample(range(6), 2)
        cells[i][perm[j]] = rng.choice(entries)
        return cells

    def _stream(self, rng):
        # Every other contraction uses the criterion-12 vector, which converges.
        kinds = itertools.cycle(("criterion-12", "seeded"))
        for family, kind in zip(_rotate(FAMILY_NAMES, rng), kinds):
            cells = self._matrix(rng, family)
            twin = rng.choice(TWINS)
            if kind == "criterion-12":
                exponents, direction = CRITERION_12_EXPONENTS, "to-infinity"
            else:
                exponents = tuple(rng.randint(-2, 2) for _ in range(6))
                direction = rng.choice(("to-zero", "to-infinity"))
            yield {
                "family": family,
                "cells": cells,
                "matrix": liealg.BasisChange(
                    self.ctx, [[self.ctx.parse(c) for c in row] for row in cells]
                ),
                "twin": twin,
                "exponents": exponents,
                "direction": direction,
            }

    def describe(self, inp):
        return repr({k: v for k, v in inp.items() if k != "matrix"})

    def run(self, inp):
        W = inp["matrix"]
        moved = liealg.change_basis(self.algebras[inp["family"]], W)
        back = liealg.change_basis(moved, liealg.BasisChange(self.ctx, W.inverse_rows()))
        try:
            limit = families.contraction_limit(
                self.twins[inp["twin"]], inp["exponents"], inp["direction"]
            )
        except families.ContractionError:
            limit = None
        return back.d_table, limit

    def checker(self, rng):
        target_fp = liealg.fingerprint(liealg.parse_salamon(TWIN_LIMIT, self.ctx))
        twin_tables = {t: reference.table_dict(g, {}) for t, g in self.twins.items()}
        fp_ok = {}

        def check(i, inp, out):
            back_table, limit = out
            if back_table != self.algebras[inp["family"]].d_table:
                return False
            expected = reference.contraction(
                twin_tables[inp["twin"]], inp["exponents"], inp["direction"]
            )
            if limit is None or expected is None:
                return limit is None and expected is None
            if reference.table_dict(limit, {}) != expected:
                return False
            if inp["exponents"] == CRITERION_12_EXPONENTS:
                text = liealg.salamon_str(limit)
                if text not in fp_ok:
                    fp_ok[text] = liealg.fingerprint(limit) == target_fp
                return fp_ok[text]
            return True
        return check


WORKLOADS = {w.name: w for w in (G2tSymbolic, G2tBound, Classify, Witness)}


@contextlib.contextmanager
def workdir(name, seed):
    """A private directory for generated input files, removed afterwards."""
    path = OUT_DIR / "inputs" / f"{name}-{seed}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def warm_up(workload):
    """Run the untimed warm-up operations (lazy set-up, caches of the program)."""
    for inp in workload.warmup_inputs():
        workload.run(inp)
