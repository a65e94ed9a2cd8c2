"""Command-line front end: batch checks with text or structured reports.

Exit status: 0 when every requested check passes, 1 when a check fails
(reports carry the residuals), 2 on bad input (syntax errors, algebras that
fail the Jacobi identity or are not presented nilpotently, malformed
structure files, a --param binding that leaves a parameter unbound, makes
a denominator vanish or violates a family's nonzero condition, a --param
given to ``theorem``, malformed options), with a one-line message on
standard error.  The shared options ``--param``, ``--format`` and
``--seed`` may stand before or after the subcommand.  An algebra whose
first entry starts with '-' follows ``--``, as in
``nilg2 check -- "-34-36,0,24+26,-1/2*23,-23+(-4)*26,1/2*23"``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_str  # a str as json.dumps writes it
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .exterior import form_str
from .families import (
    ContractionError,
    FAMILIES,
    contraction_limit,
    family_context,
    instantiate,
    verify_theorem,
)
from .g2 import G2Error, build_product, dT_tests, torsion
from .liealg import (
    GenericEvaluationError,
    JacobiError,
    LieAlgebra,
    NilpotencyError,
    betti_numbers,
    fingerprint,
    parse_salamon,
    salamon_str,
)
from .scalars import ParameterContext, ScalarError, ScalarSyntaxError, _fold_unicode
from .su3 import (
    StructureError,
    is_half_integrable,
    load_structure_file,
    torsion_classes,
)

SCHEMA_VERSION = 1


def _json_atom(value) -> str:
    """None, a bool, an int or a finite float as ``json.dumps`` writes it."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return repr(value)


@dataclass
class CheckResult:
    name: str
    passed: Optional[bool]
    detail: str = ""
    data: Dict[str, str] = field(default_factory=dict)


@dataclass
class Report:
    command: str
    input_description: str
    checks: List[CheckResult] = field(default_factory=list)
    timing_ms: float = 0.0
    seed: Optional[int] = None

    def add(self, name: str, passed: Optional[bool], detail: str = "", **data) -> None:
        self.checks.append(
            CheckResult(name=name, passed=passed, detail=detail,
                        data={k: str(v) for k, v in data.items()})
        )

    @property
    def passed(self) -> bool:
        return all(c.passed is not False for c in self.checks)

    def to_json(self) -> str:
        """The report as ``json.dumps(doc, indent=2)`` writes its fixed
        schema, byte for byte, with the C string encoder: ``indent`` alone
        would switch ``json`` to its pure-Python encoder."""
        checks = ",\n".join(
            "    {\n"
            f'      "name": {_json_str(c.name)},\n'
            f'      "passed": {_json_atom(c.passed)},\n'
            f'      "detail": {_json_str(c.detail)},\n'
            '      "data": ' + (
                "{\n" + ",\n".join(f"        {_json_str(k)}: {_json_str(v)}"
                                   for k, v in c.data.items()) + "\n      }"
                if c.data else "{}") + "\n    }"
            for c in self.checks
        )
        return (
            "{\n"
            f'  "schema_version": {SCHEMA_VERSION},\n'
            f'  "tool": {_json_str(f"nilg2 {__version__}")},\n'
            f'  "command": {_json_str(self.command)},\n'
            f'  "input": {_json_str(self.input_description)},\n'
            f'  "passed": {_json_atom(self.passed)},\n'
            f'  "seed": {_json_atom(self.seed)},\n'
            f'  "timing_ms": {_json_atom(round(self.timing_ms, 3))},\n'
            '  "checks": ' + (f"[\n{checks}\n  ]" if checks else "[]") + "\n}"
        )

    def to_text(self) -> str:
        lines = [
            f"nilg2 {__version__} | {self.command} | {self.input_description}",
        ]
        for c in self.checks:
            if c.passed is None:
                mark = "info"
            else:
                mark = "pass" if c.passed else "FAIL"
            line = f"  [{mark}] {c.name}"
            if c.detail:
                line += f": {c.detail}"
            lines.append(line)
            for key, value in c.data.items():
                lines.append(f"         {key} = {value}")
        lines.append(
            f"  => {'all checks passed' if self.passed else 'CHECKS FAILED'}"
            f" ({self.timing_ms:.1f} ms)"
        )
        return "\n".join(lines)


def _parse_param_args(pairs: Sequence[str]) -> Tuple[ParameterContext, Dict[str, Fraction]]:
    names = set(family_context().names)
    bindings: Dict[str, Fraction] = {}
    raw: List[Tuple[str, str]] = []
    for pair in pairs or ():
        if "=" not in pair:
            raise ScalarSyntaxError(f"--param expects name=value, got {pair!r}", 0)
        name, value = pair.split("=", 1)
        name = _fold_unicode(name.strip())
        names.add(name)
        raw.append((name, value.strip()))
    ctx = ParameterContext(tuple(sorted(names)))
    for name, value in raw:
        scalar = ctx.parse(value)
        if not scalar.is_rational:
            raise ScalarSyntaxError(
                f"--param {name} needs a rational value, got {value!r}", 0)
        bindings[name] = scalar.as_fraction()
    return ctx, bindings


# Destination prefix of the shared options when given after the subcommand;
# main() merges them into the values given before it.
_AFTER = "after_"


def _add_shared_options(parser: argparse.ArgumentParser, prefix: str = "") -> None:
    """--param, --format and --seed, accepted before and after the subcommand."""
    def default(value):
        # after the subcommand an option that is not given must not mask
        # the value given before it
        return argparse.SUPPRESS if prefix else value

    parser.add_argument("--param", dest=prefix + "param", action="append",
                        default=default([]),
                        metavar="NAME=VALUE", help="bind a parameter (repeatable)")
    parser.add_argument("--format", dest=prefix + "format",
                        choices=("text", "structured"), default=default("text"))
    parser.add_argument("--seed", dest=prefix + "seed", type=int, default=default(0),
                        metavar="SEED", help="seed for randomized evaluation points")


class _Parser(argparse.ArgumentParser):
    """Malformed options exit 2 with one line on standard error, without the usage text."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The option parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="nilg2",
        description="exact torsion geometry checks on nilpotent Lie algebras",
    )
    _add_shared_options(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        p = sub.add_parser(name, help=summary)
        _add_shared_options(p, _AFTER)
        return p

    command("check", "Jacobi and nilpotency of an algebra").add_argument("algebra")
    command("betti", "Betti numbers of an algebra").add_argument("algebra")
    command("fingerprint", "isomorphism fingerprint of an algebra").add_argument("algebra")
    command("su3", "torsion components of a structure file or family").add_argument(
        "structure_file")
    command("g2t", "product torsion report of a structure file or family").add_argument(
        "structure_file")
    command("theorem", "replay the classification witnesses")
    p = command("contract", "contraction limit of an algebra")
    p.add_argument("algebra")
    p.add_argument("--exponents", required=True,
                   help="comma-separated integer exponent per coframe axis")
    p.add_argument("--direction", choices=("to-zero", "to-infinity"), required=True)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    # a new list: the parser's shared default must not collect bindings
    args.param = args.param + getattr(args, _AFTER + "param", [])
    args.format = getattr(args, _AFTER + "format", args.format)
    args.seed = getattr(args, _AFTER + "seed", args.seed)
    started = time.perf_counter()
    try:
        ctx, bindings = _parse_param_args(args.param)
        report = _dispatch(args, ctx, bindings)
    except ScalarSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, ScalarError) as exc:
        # unreadable or malformed files; JacobiError, NilpotencyError and the
        # other input checks; unbound parameters and vanishing denominators
        # of a binding
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    report.timing_ms = (time.perf_counter() - started) * 1000.0
    report.seed = args.seed
    try:
        print(report.to_json() if args.format == "structured" else report.to_text())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (``nilg2 theorem | head -1``): no failed check; what is
        # still buffered goes to devnull, as in the SIGPIPE note of Python's docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report.passed else 1


def _dispatch(args, ctx: ParameterContext, bindings: Dict[str, Fraction]) -> Report:
    command = args.command
    if command == "check":
        return _cmd_check(args.algebra, ctx, bindings)
    if command == "betti":
        return _cmd_betti(args.algebra, ctx, bindings, args.seed)
    if command == "fingerprint":
        return _cmd_fingerprint(args.algebra, ctx, bindings, args.seed)
    if command == "su3":
        return _cmd_su3(args.structure_file, ctx, bindings)
    if command == "g2t":
        return _cmd_g2t(args.structure_file, ctx, bindings)
    if command == "theorem":
        if bindings:
            raise ValueError("theorem replays fixed rows; --param does not apply")
        return _cmd_theorem()
    if command == "contract":
        return _cmd_contract(args.algebra, args.exponents, args.direction, ctx, bindings)
    raise AssertionError(command)


def _load_algebra(text: str, ctx: ParameterContext, bindings: Dict[str, Fraction]) -> LieAlgebra:
    """The algebra of a Salamon table, bound by --param when it binds anything."""
    g = parse_salamon(text, ctx)
    return g.bind(bindings) if bindings else g


def _cmd_check(text: str, ctx: ParameterContext,
               bindings: Dict[str, Fraction]) -> Report:
    report = Report(command="check", input_description=text)
    try:
        g = _load_algebra(text, ctx, bindings)
    except JacobiError as exc:
        report.add("jacobi", False, "d^2 != 0",
                   index=exc.index, certificate=form_str(exc.certificate))
        return report
    except NilpotencyError as exc:
        report.add("jacobi", True)
        report.add("nilpotency", False, str(exc))
        return report
    report.add("jacobi", True, "d^2 = 0 identically")
    report.add("nilpotency", True, "admissible filtration found",
               algebra=salamon_str(g))
    return report


def _cmd_betti(text: str, ctx: ParameterContext,
               bindings: Dict[str, Fraction], seed: int) -> Report:
    report = Report(command="betti", input_description=text)
    g = _load_algebra(text, ctx, bindings)
    try:
        values = dict(enumerate(betti_numbers(g, seed), start=1))
    except GenericEvaluationError as exc:
        report.add("betti", False, str(exc))
        return report
    report.add("betti", True, " ".join(f"b{k}={v}" for k, v in values.items()),
               **{f"b{k}": v for k, v in values.items()})
    return report


def _cmd_fingerprint(text: str, ctx: ParameterContext,
                     bindings: Dict[str, Fraction], seed: int) -> Report:
    report = Report(command="fingerprint", input_description=text)
    g = _load_algebra(text, ctx, bindings)
    try:
        fp = fingerprint(g, seed)
    except GenericEvaluationError as exc:
        report.add("fingerprint", False, str(exc))
        return report
    report.add(
        "fingerprint", True,
        detail=f"betti {fp.betti}",
        betti=fp.betti,
        lower_central=fp.lower_central,
        derived=fp.derived,
        upper_central=fp.upper_central,
        exact_two_forms_decomposable=fp.exact_two_forms_decomposable,
        wedge_data=fp.wedge_data,
    )
    return report


def _load_input_structure(path: str, ctx: ParameterContext, bindings):
    """A family name or a structure file, bound by --param.

    A file is bound at its [params] section overridden by --param; it stays
    symbolic when neither binds anything.
    """
    if path in FAMILIES:
        _, structure = instantiate(path, bindings or None, params=ctx)
        return structure
    return load_structure_file(path, ctx, bindings)[0]


def _cmd_su3(path: str, ctx: ParameterContext, bindings) -> Report:
    report = Report(command="su3", input_description=path)
    try:
        structure = _load_input_structure(path, ctx, bindings)
    except StructureError as exc:
        report.add("structure", False, str(exc))
        return report
    report.add("structure", True, "compatible SU(3)-structure",
               algebra=salamon_str(structure.algebra))
    try:
        classes = torsion_classes(structure)
    except StructureError as exc:
        report.add("torsion-classes", False, str(exc))
        return report
    report.add(
        "torsion-classes", True,
        detail=f"half-integrable: {is_half_integrable(structure)}",
        W1_plus=classes.W1p, W1_minus=classes.W1m,
        W2_plus=form_str(classes.W2p), W2_minus=form_str(classes.W2m),
        W3=form_str(classes.Omega),
        W4=form_str(classes.W4), W5=form_str(classes.W5),
        beta=form_str(classes.beta), vartheta=form_str(classes.vartheta),
        lam=classes.lam,
    )
    return report


def _cmd_g2t(path: str, ctx: ParameterContext, bindings) -> Report:
    report = Report(command="g2t", input_description=path)
    try:
        structure = _load_input_structure(path, ctx, bindings)
        product = build_product(structure)
        result = dT_tests(product, torsion(product))
    except (StructureError, G2Error) as exc:
        residual = getattr(exc, "residual", None)
        report.add("g2t", False, str(exc),
                   **({"residual": form_str(residual)} if residual is not None else {}))
        return report
    report.add("lee-form", True, theta=form_str(result.theta),
               lam=result.lam, beta=form_str(result.beta))
    report.add("torsion", True, "both torsion routes agree",
               T=form_str(result.T), star_T=form_str(result.star_T),
               inner_dphi_starphi=result.inner_dphi_starphi)
    report.add("derivatives", True,
               dT=form_str(result.dT), d_star_T=form_str(result.d_star_T))
    report.add("tests", True,
               detail=(
                   f"strong={result.is_strong} type22={result.dT_type_22} "
                   f"V7Free={result.dT_in_R_plus_S2}"
               ),
               is_strong=result.is_strong,
               dT_type_22=result.dT_type_22,
               dT_in_R_plus_S2=result.dT_in_R_plus_S2)
    return report


def _cmd_theorem() -> Report:
    report = Report(command="theorem", input_description="classification replay")
    for row in verify_theorem():
        report.add(
            f"entry {row.entry}", row.passed,
            detail=row.note,
            family=row.family,
            binding="" if row.binding is None else
            " ".join(f"{k}={v}" for k, v in sorted(row.binding.items())),
            witness="none" if row.witness is None else repr(row.witness),
            fingerprint_match=row.fingerprint_ok,
        )
    return report


def _cmd_contract(text: str, exponents: str, direction: str,
                  ctx: ParameterContext, bindings: Dict[str, Fraction]) -> Report:
    report = Report(command="contract", input_description=text)
    g = _load_algebra(text, ctx, bindings)
    try:
        exps = [int(x) for x in exponents.split(",")]
    except ValueError:
        raise ScalarSyntaxError(f"bad exponent list {exponents!r}", 0) from None
    try:
        limit = contraction_limit(g, exps, direction)
    except ContractionError as exc:
        report.add("contract", False, str(exc))
        return report
    report.add("contract", True, f"direction {direction}",
               limit=salamon_str(limit))
    return report


if __name__ == "__main__":
    sys.exit(main())
