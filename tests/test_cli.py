import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nilg2
from nilg2.cli import SCHEMA_VERSION, Report, _build_parser, main
from nilg2.exterior import FrameContext, parse_form
from nilg2.families import FAMILIES, family_context
from nilg2.liealg import NAMED_ALGEBRAS, SalamonSyntaxError, parse_salamon
from nilg2.scalars import ParameterContext, ScalarSyntaxError


def _main(argv):
    """main's exit status, also when argparse exits on its own."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def run_cli(capsys, *argv):
    code = _main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_pass(capsys):
    code, out, _ = run_cli(capsys, "check", "0,0,12,13,23,14")
    assert code == 0
    assert "[pass] jacobi" in out and "[pass] nilpotency" in out


def test_check_jacobi_failure(capsys):
    code, out, _ = run_cli(capsys, "check", "0,0,12,13,23,15")
    assert code == 1
    assert "[FAIL] jacobi" in out
    assert "certificate" in out


def test_check_jacobi_failure_prints_the_unscaled_certificate(capsys):
    """The check runs on the table scaled to ints (6 d here); the report
    names d(d e^6) of the table as typed."""
    code, out, err = run_cli(capsys, "check", "0,0,1/2*12,0,0,2/3*34")
    assert (code, err) == (1, "")
    lines = [line.strip() for line in out.splitlines()]
    assert lines[1:4] == ["[FAIL] jacobi: d^2 != 0", "index = 6", "certificate = 1/3*124"]


def test_check_syntax_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "check", "0,0,12,13,23,")
    assert code == 2
    assert "syntax error" in err


def test_betti_golden(capsys):
    code, out, _ = run_cli(capsys, "betti", "0,0,0,12,13,23")
    assert code == 0
    assert "b1=3" in out and "b2=8" in out


def test_structured_output_roundtrip(capsys, tmp_path):
    structure = tmp_path / "iw.su3"
    structure.write_text(
        "[algebra]\n0,0,0,0,13+42,14+23\n"
        "[adaptation]\n"
        "1 0 0 0 0 0\n0 -1 0 0 0 0\n0 0 1 0 0 0\n"
        "0 0 0 -1 0 0\n0 0 0 0 1 0\n0 0 0 0 0 1\n"
    )
    code, out, _ = run_cli(capsys, "--format", "structured", "g2t", str(structure))
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["passed"] is True
    by_name = {c["name"]: c for c in doc["checks"]}
    # forms printed in the report re-parse to equal values
    ctx = ParameterContext(("a1", "k", "lam", "t", "z"))
    frame7 = FrameContext(7, ctx)
    T = parse_form(frame7, by_name["torsion"]["data"]["T"])
    expected = parse_form(frame7, "4/3*127 + 1/3*135 - 1/3*146 - 1/3*236 - 1/3*245 + 4/3*347 - 8/3*567")
    assert T == expected
    dT = parse_form(frame7, by_name["derivatives"]["data"]["dT"])
    assert not dT.is_zero
    assert by_name["lee-form"]["data"]["theta"] == "0"


def test_su3_report(capsys, tmp_path):
    structure = tmp_path / "c3.su3"
    structure.write_text("[algebra]\n0,lam*35,0,-lam*15,0,a1*14-a1*23+lam*13\n")
    code, out, _ = run_cli(capsys, "su3", str(structure))
    assert code == 0
    assert "half-integrable: True" in out
    assert "W1_minus = 1/2*lam" in out or "W1_minus = lam/2" in out


def test_theorem_exit_code_and_rows(capsys):
    code, out, _ = run_cli(capsys, "--format", "structured", "theorem")
    assert code == 1   # the unrealizable twin row is honestly red
    doc = json.loads(out)
    rows = {c["name"]: c["passed"] for c in doc["checks"]}
    assert rows["entry 0,0,12,13,23,14"] is True
    assert rows["entry 0,0,12,13,23,14+25"] is True
    assert rows["entry 0,0,12,13,23,14-25"] is True
    assert rows["entry 0,0,0,12,23,14+35"] is True
    assert rows["entry 0,0,0,12,13,23"] is True
    assert rows["entry 0,0,0,12,23,14-35"] is False
    assert sum(1 for v in rows.values() if v) == 5
    code, out, _ = run_cli(capsys, "theorem")
    assert code == 1
    fails = [line.split()[2].rstrip(":") for line in out.splitlines()
             if line.lstrip().startswith("[FAIL]")]
    assert fails == ["0,0,0,12,23,14-35"]


def test_contract_command(capsys):
    code, out, _ = run_cli(
        capsys, "contract", "0,0,12,13,23,14+25",
        "--exponents=-1,1,0,-1,1,-2", "--direction", "to-infinity",
    )
    assert code == 0
    assert "0,0,12,13,23,14" in out
    code, out, _ = run_cli(
        capsys, "contract", "0,0,12,13,23,14+25",
        "--exponents=-1,1,0,-1,1,-2", "--direction", "to-zero",
    )
    assert code == 1
    assert "undefined in this direction" in out


@pytest.mark.parametrize("direction", ["to-zero", "to-infinity"])
def test_contract_parameter_named_t(capsys, direction):
    """A parameter named t is an ordinary coefficient: the identity scaling
    keeps the algebra in both directions."""
    code, out, _ = run_cli(capsys, "contract", "0,0,0,0,0,t*12",
                           "--exponents=0,0,0,0,0,0", "--direction", direction)
    assert code == 0
    assert "limit = 0,0,0,0,0,t*12" in out


_CONTRACT_TABLES = (list(NAMED_ALGEBRAS.values())
                    + [spec.table for spec in FAMILIES.values()] + ["0,0,0,0,0,t*12"])


@st.composite
def _edited_tables(draw, tables=_CONTRACT_TABLES):
    """A table from ``tables`` with up to two single-character edits."""
    text = draw(st.sampled_from(tables))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(("insert", "replace", "delete")))
        ch = "" if kind == "delete" else draw(st.sampled_from(",+-*/^() 0123456789tλ₁x"))
        text = text[:i] + ch + text[i + (kind != "insert"):]
    return text


_EXPONENT_LISTS = st.one_of(
    st.lists(st.integers(-2, 2), min_size=6, max_size=6).map(lambda xs: ",".join(map(str, xs))),
    st.lists(st.integers(-3, 3), max_size=8).map(lambda xs: ",".join(map(str, xs))),
    st.text(alphabet="0123456789,-+ .x", max_size=14),
)


def _assert_exit_contract(argv):
    """Exit status 0, 1 or 2, one stderr line and no report on 2, nothing on
    stderr otherwise, and never a traceback (an uncaught exception fails)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1
    else:
        assert err.getvalue() == ""


@settings(max_examples=200)
@given(algebra=_edited_tables(), exponents=_EXPONENT_LISTS,
       direction=st.sampled_from(("to-zero", "to-infinity")))
def test_contract_fuzz_exit_status(algebra, exponents, direction):
    """Malformed exponent lists, wrong lengths and edited algebras."""
    _assert_exit_contract(["contract", f"--exponents={exponents}", "--direction", direction,
                           "--", algebra])


# tables that fail Jacobi, nilpotency or a seeded sample point
_ALGEBRA_TABLES = _CONTRACT_TABLES + [
    "0,0,12,13,23,15", "0,12,0,0,0,0", "0,0,0,0,0,1/(lam-2)*12", "0,0,lam*12,k*13,0,0"]

_PARAM_ARGS = st.one_of(
    st.sampled_from(("lam=1", "k=2", "z=-1", "a1=3/2", "t=0", "lam=2", "mu=2")),
    st.builds("{}={}".format,
              st.sampled_from(("lam", "k", "z", "a1", "t", "λ", "a₁", "x", "", " lam")),
              st.sampled_from(("0", "1", "-2", "3/2", "2", "1/0", "k", "", "2*", "(1", "½"))),
    st.text(alphabet="lamkz=0123/-*( ", max_size=8),
)


def _param_argv(params, spaced):
    """--param=VALUE, or --param VALUE as two words (a VALUE that starts
    with '-' is then an argparse error)."""
    return [a for p in params for a in (("--param", p) if spaced else (f"--param={p}",))]


@settings(max_examples=80)
@given(command=st.sampled_from(("check", "betti", "fingerprint")),
       algebra=_edited_tables(_ALGEBRA_TABLES), params=st.lists(_PARAM_ARGS, max_size=2),
       spaced=st.booleans())
def test_algebra_commands_fuzz_exit_status(command, algebra, params, spaced):
    """Edited tables and malformed or partial --param bindings."""
    argv = _param_argv(params, spaced)
    _assert_exit_contract(argv + [command, "--", algebra])


_IWASAWA_ROWS = ("1 0 0 0 0 0\n0 -1 0 0 0 0\n0 0 1 0 0 0\n"
                 "0 0 0 -1 0 0\n0 0 0 0 1 0\n0 0 0 0 0 1\n")


_STRUCTURE_FILES = (
    "[algebra]\n0,0,0,0,13+42,14+23\n[adaptation]\n" + _IWASAWA_ROWS,
    "[algebra]\n0,lam*35,0,-lam*15,0,a1*14-a1*23+lam*13\n[params]\nlam = 1\na1 = 2\n",
    "[algebra]\n0,lam*35,k*15,-lam*15+k*25,0,lam*13\n[params]\nlam = 3/2\nk = -1\n",
    # an adaptation that is not orthogonal; a structure whose g2t check fails
    "[algebra]\n0,0,0,0,13+42,14+23\n[adaptation]\n2" + _IWASAWA_ROWS[1:],
    "[algebra]\n0,lam*35,0,-lam*15,0,mu*13\n[params]\nmu = 2\nlam = 3/2\n",
)


@st.composite
def _edited_structure_files(draw):
    """A valid structure file with up to two line edits (a header renamed, a
    line dropped, doubled or moved) and up to two character edits."""
    lines = draw(st.sampled_from(_STRUCTURE_FILES)).splitlines()
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("header", "drop", "double", "move")))
        if kind == "header":
            lines[i] = draw(st.sampled_from(
                ("[algebra]", "[adaptation]", "[params]", "[adaptaton]", "[]", "[Params]")))
        elif kind == "drop":
            del lines[i]
        elif kind == "double":
            lines.insert(i, lines[i])
        else:
            lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(i))
        if not lines:
            break
    text = "\n".join(lines)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(("insert", "replace", "delete")))
        ch = "" if kind == "delete" else draw(st.sampled_from(",+-*/=[]#\n 0123456789lamkλ"))
        text = text[:i] + ch + text[i + (kind != "insert"):]
    return text


@settings(max_examples=60)
@given(command=st.sampled_from(("su3", "g2t")), text=_edited_structure_files(),
       params=st.lists(_PARAM_ARGS, max_size=1), spaced=st.booleans())
def test_structure_commands_fuzz_exit_status(tmp_path_factory, command, text, params, spaced):
    """Structure files with edited headers, rows and [params]."""
    path = tmp_path_factory.mktemp("fuzz") / "s.su3"
    path.write_text(text, encoding="utf-8")
    argv = _param_argv(params, spaced)
    _assert_exit_contract(argv + [command, str(path)])


def test_param_binding_and_unicode(capsys):
    code, out, _ = run_cli(
        capsys, "--param", "λ=2", "--param", "k=3",
        "betti", "0,λ*35,k*15,-λ*15+k*25,0,λ*13",
    )
    assert code == 0
    assert "b1=2" in out and "b2=4" in out


def test_fingerprint_command(capsys):
    code, out, _ = run_cli(capsys, "--format", "structured", "fingerprint",
                           "0,0,12,13,23,14")
    assert code == 0
    doc = json.loads(out)
    data = doc["checks"][0]["data"]
    assert data["betti"] == "(2, 4, 6, 4, 2, 1)"
    assert data["lower_central"] == "(6, 4, 3, 1, 0)"


def test_readme_param_after_subcommand(capsys):
    """The README's bound-family example, options after the subcommand."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    line = "nilg2 g2t case1 --param lam=1 --param k=2"
    assert line in readme.splitlines()
    code, after, _ = run_cli(capsys, *shlex.split(line)[1:])
    assert code == 0
    assert "lam = 1" in after and "T = 136 + 145 + 2*146" in after
    # the same options before the subcommand give the same report
    code, before, _ = run_cli(capsys, "--param", "lam=1", "--param", "k=2", "g2t", "case1")
    assert code == 0
    assert after.splitlines()[:-1] == before.splitlines()[:-1]


def test_shared_options_merge_across_subcommand(capsys):
    code, out, _ = run_cli(capsys, "--param", "lam=1", "g2t", "case1",
                           "--param", "k=2", "--format", "structured")
    assert code == 0
    data = {c["name"]: c["data"] for c in json.loads(out)["checks"]}
    assert data["lee-form"]["lam"] == "1"
    assert data["torsion"]["T"].startswith("136 + 145 + 2*146")


_DEEP = "(" * 300 + "1" + ")" * 300


@pytest.mark.parametrize("argv, message", [
    (("betti", "0,0,12,13,23,14+15"), "d(d e^6) != 0"),
    (("fingerprint", "0,12,0,0,0,0"), "not presented nilpotently"),
    (("contract", "0,0,12,13,23,14+25", "--exponents=1,2", "--direction", "to-zero"),
     "one exponent per coframe axis"),
    (("--param", "lam=k", "g2t", "case1"), "needs a rational value"),
    # a --param binding is input; only the seeded sample points of an
    # unbound table give a failed check
    (("--param", "lam=1", "fingerprint", "0,0,lam*12,k*13,0,0"), "unbound parameter 'k'"),
    (("--param", "lam=1", "betti", "0,0,lam*12,k*13,0,0"), "unbound parameter 'k'"),
    (("--param", "lam=2", "betti", "0,0,0,0,0,1/(lam-2)*12"),
     "denominator vanishes at binding"),
    (("--param", "lam=2", "fingerprint", "0,0,0,0,0,1/(lam-2)*12"),
     "denominator vanishes at binding"),
    # argparse's own errors: one line, without the usage text
    (("--param",), "argument --param: expected one argument"),
    (("--param", "-x", "g2t", "case1"), "argument --param: expected one argument"),
    (("bogus",), "invalid choice: 'bogus'"),
    (("g2t",), "nilg2 g2t: error: the following arguments are required: structure_file"),
    # a family bound at some of its parameters
    (("--param", "lam=1", "su3", "case2"), "unbound parameter 'a1'"),
    (("--param", "lam=1", "g2t", "case1"), "unbound parameter 'k'"),
    # a family bound where its nonzero condition fails
    (("--param", "lam=0", "--param", "k=1", "g2t", "case1"), "degenerate parameter: lam = 0"),
    (("--param", "lam=1", "--param", "z=1", "--param", "a1=-1", "su3", "case2"),
     "degenerate parameter: z+a1 = 0"),
    # check and contract bind the table like betti and fingerprint
    (("--param", "k=1", "check", "0,0,0,0,0,lam*12"), "unbound parameter 'lam'"),
    (("--param", "lam=2", "check", "0,0,0,0,0,1/(lam-2)*12"), "denominator vanishes at binding"),
    (("contract", "0,0,0,0,0,lam*12", "--exponents=0,0,0,0,0,0", "--direction", "to-zero",
      "--param", "k=1"), "unbound parameter 'lam'"),
    # theorem replays fixed rows
    (("--param", "lam=1", "theorem"), "theorem replays fixed rows; --param does not apply"),
    (("theorem", "--param", "k=2"), "theorem replays fixed rows; --param does not apply"),
    # parentheses nested past the parser's limit, in a table and in a binding
    (("check", f"0,0,0,0,0,{_DEEP}*12"), "entry 6: expression nested too deeply (at position 110)"),
    (("--param", f"lam={_DEEP}", "check", "0,0,0,0,0,lam*12"),
     "expression nested too deeply (at position 100)"),
    # a well-formed entry of another grade
    (("check", "0,0,12,13,23,123"), "d e^6 must be a 2-form"),
    # digits are ASCII: other decimal digits are no numbers and no index words
    (("check", "0,0,0,0,0,1٣"), "entry 6: unexpected character '٣' (at position 11)"),
    (("--param", "lam=٣", "check", "0,0,0,0,0,lam*12"),
     "unexpected character '٣' (at position 0)"),
    (("check", "0,0,0,0,0,e١٢"), "entry 6: unexpected character '١' (at position 11)"),
    (("check", "0,0,0,0,12,１２"), "entry 6: unexpected character '１' (at position 11)"),
    (("check", "0,0,0,0,0,０"), "entry 6: unexpected character '０' (at position 10)"),
])
def test_bad_input_exit_2_one_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, line", [
    (("--param", "lam=2", "contract", "0,0,0,0,0,lam*12", "--exponents=0,0,0,0,0,0",
      "--direction", "to-zero"), "limit = 0,0,0,0,0,2*12"),
    (("check", "0,0,0,0,0,lam*12", "--param", "lam=2"), "algebra = 0,0,0,0,0,2*12"),
    # 2000 unary signs are read in a loop: an even count is +1
    (("check", "0,0,0,0,0,lam*12", "--param", "lam=" + "-" * 2000 + "1"),
     "algebra = 0,0,0,0,0,12"),
])
def test_check_and_contract_bind_param(capsys, argv, line):
    """--param binds the table of check and contract before they run."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert line in [row.strip() for row in out.splitlines()]


@pytest.mark.parametrize("argv", [("-h",), ("g2t", "-h")])
def test_help_exit_0_with_seed_metavar(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: nilg2")
    assert "[--seed SEED]" in out and "AFTER" not in out


def test_parser_built_once_keeps_no_state(capsys):
    """Calls in one process share one parser; a --param binding of one call
    does not reach the next, and errors and help behave as on a fresh one."""
    assert _build_parser() is _build_parser()
    code, out, _ = run_cli(capsys, "g2t", "case1", "--param", "lam=1", "--param", "k=2")
    assert code == 0 and "theta = 7\n" in out and "lam*" not in out
    code, out, _ = run_cli(capsys, "g2t", "case1")
    assert code == 0 and "theta = lam*7\n" in out
    code, out, err = run_cli(capsys, "bogus")
    assert (code, out) == (2, "") and len(err.splitlines()) == 1
    code, out, err = run_cli(capsys, "-h")
    assert (code, err) == (0, "") and out.startswith("usage: nilg2")


def test_unbound_parameter_message_independent_of_hashing():
    """The unbound parameter named is the first in the context's order,
    whatever the string hash seed of the process."""
    argv = [sys.executable, "-m", "nilg2", "--param", "lam=0", "betti",
            "0,lam*35,0,-lam*15,(z+a1)*13,a1*14+z*23+lam*13"]
    src = str(Path(nilg2.__file__).resolve().parents[1])
    errors = set()
    for seed in "1234":
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        errors.add(proc.stderr)
    assert errors == {"input error: unbound parameter 'a1'\n"}


_FRESH_RUN = """
import contextlib, io, json, sys
from nilg2 import cli
from nilg2.scalars import ParameterContext
results = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        if argv == ["parse"]:
            print(ParameterContext(("k", "lam")).parse("1/(k*lam)"))
            status = 0
        else:
            status = cli.main(["--format", "structured", *argv])
    results.append([status, out.getvalue(), "sympy" in sys.modules])
print(json.dumps(results))
"""


def _fresh_runs(commands):
    """Each argv of ``commands`` through cli.main with structured output, in
    order, in one new interpreter: (status, output, whether sympy is loaded)
    after each.  ``["parse"]`` prints ctx.parse("1/(k*lam)") instead."""
    src = str(Path(nilg2.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_RUN, json.dumps(commands)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return json.loads(proc.stdout)


def test_closed_output_pipe_keeps_report_status():
    """A reader that leaves early is no failed check: the report's own
    status, and no traceback, whether the pipe is closed before the report
    is written or after its first line."""
    env = dict(os.environ, PYTHONPATH=str(Path(nilg2.__file__).resolve().parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "nilg2", "g2t", "case1"], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=300)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")
    for argv, status in ((["--format", "structured", "g2t", "case1"], 0), (["theorem"], 1)):
        proc = subprocess.Popen([sys.executable, "-m", "nilg2", *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env, text=True)
        assert proc.stdout.readline()
        proc.stdout.close()
        assert (proc.wait(timeout=300), proc.stderr.read()) == (status, ""), argv
        proc.stderr.close()


def _untimed(out):
    doc = json.loads(out)
    doc.pop("timing_ms")
    return doc


_IWASAWA_FILE = str(Path(__file__).resolve().parents[1] / "scripts" / "iwasawa.su3")


# case3 in a gauge-rotated adapted coframe: entries such as 3/5 and -4/5,
# which ParameterContext.parse reads as rational literals
_CASE3_ROTATED = (
    "[algebra]\n" + FAMILIES["case3"].table + "\n[adaptation]\n"
    "3/5 0 -4/5 0 0 0\n0 3/5 0 -4/5 0 0\n4/5 0 3/5 0 0 0\n0 4/5 0 3/5 0 0\n"
    "0 0 0 0 1 0\n0 0 0 0 0 1\n"
)


def test_polynomial_commands_never_import_sympy(capsys, tmp_path):
    """Every value of these commands is a polynomial in the parameters, so
    sympy is never imported; the reports equal those of this process,
    where sympy is loaded.  This holds for a failed g2t check too: its
    residual d*phi - theta ^ *phi is a polynomial form."""
    not_g2t = tmp_path / "case1_not_g2t.su3"
    not_g2t.write_text(_CASE1_NOT_G2T, encoding="utf-8")
    rotated = tmp_path / "case3_rotated.su3"
    rotated.write_text(_CASE3_ROTATED, encoding="utf-8")
    commands = [
        ["g2t", str(not_g2t)],
        ["g2t", "case1"],
        ["g2t", str(rotated)],
        ["su3", str(rotated)],
        ["g2t", _IWASAWA_FILE],
        ["su3", _IWASAWA_FILE],
        ["su3", "case3"],
        ["check", "0,0,12,13,23,14"],
        ["contract", "0,0,12,13,23,14+25", "--exponents=-1,1,0,-1,1,-2",
         "--direction", "to-infinity"],
        ["betti", FAMILIES["case2"].table],
        ["fingerprint", FAMILIES["case2"].table],
    ]
    results = _fresh_runs(commands)
    assert [status for status, _, _ in results] == [1] + [0] * (len(commands) - 1)
    for argv, (status, out, sympy_loaded) in zip(commands, results):
        assert not sympy_loaded, argv
        code, here, _ = run_cli(capsys, "--format", "structured", *argv)
        assert (status, _untimed(out)) == (code, _untimed(here)), argv


def test_rational_function_values_import_sympy(capsys):
    """The theorem's witnesses and a parsed 1/(k*lam) have non-constant
    denominators: sympy is loaded, and the results are those of this
    process."""
    (status, out, theorem_loaded), = _fresh_runs([["theorem"]])
    code, here, _ = run_cli(capsys, "--format", "structured", "theorem")
    assert theorem_loaded and status == code == 1
    assert _untimed(out) == _untimed(here)
    (_, text, parse_loaded), = _fresh_runs([["parse"]])
    assert parse_loaded and text == "1/(k*lam)\n"


def _report_body(out):
    """A text report without its input line and its timing line."""
    return out.splitlines()[1:-1]


def test_structure_file_params_bind(capsys, tmp_path):
    """[params] binds the file: the report is that of the table with the
    value written in, and --param overrides the file."""
    table = "0,lam*35,0,-lam*15,0,lam*13"
    bound = tmp_path / "bound.su3"
    bound.write_text(f"[algebra]\n{table}\n[params]\nlam = 3/2\n")
    for value in ("3/2", "2"):
        written = tmp_path / f"written{value.replace('/', '_')}.su3"
        written.write_text(f"[algebra]\n{table.replace('lam', value)}\n")
        code, expected, _ = run_cli(capsys, "g2t", str(written))
        assert code == 0
        argv = ["g2t", str(bound)] + ([] if value == "3/2" else ["--param", f"lam={value}"])
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert _report_body(out) == _report_body(expected)
        assert f"lam = {value}" in out


def _rotation_rows(t, z):
    """Rotations of the e1,e2 and e3,e4 planes in opposite senses; where
    t^2 + z^2 = 1 they are orthogonal and keep omega, psi+ and psi-."""
    return (f"{t} -{z} 0 0 0 0\n{z} {t} 0 0 0 0\n0 0 {t} {z} 0 0\n"
            f"0 0 -{z} {t} 0 0\n0 0 0 0 1 0\n0 0 0 0 0 1\n")


def test_structure_file_bound_before_build(capsys, tmp_path):
    """An adaptation orthogonal only at the file's binding is accepted, and
    the report is that of the file with the numbers written in."""
    algebra = "[algebra]\n0,0,0,0,13+42,14+23\n[adaptation]\n"
    bound = tmp_path / "bound.su3"
    bound.write_text(algebra + _rotation_rows("t", "z") + "[params]\nt = 3/5\nz = 4/5\n")
    written = tmp_path / "written.su3"
    written.write_text(algebra + _rotation_rows("3/5", "4/5"))
    for command in ("su3", "g2t"):
        code, expected, _ = run_cli(capsys, command, str(written))
        assert code == 0
        code, out, err = run_cli(capsys, command, str(bound))
        assert (code, err) == (0, "")
        assert _report_body(out) == _report_body(expected)


def test_structure_file_own_parameter_name(capsys, tmp_path):
    """A [params] name outside the default names binds like any other, and
    --param overrides it."""
    path = tmp_path / "mu.su3"
    path.write_text("[algebra]\n0,lam*35,0,-lam*15,0,mu*13\n[params]\nmu = 3/2\nlam = 3/2\n")
    for value in ("3/2", "2"):
        written = tmp_path / "written.su3"
        written.write_text(f"[algebra]\n0,3/2*35,0,-3/2*15,0,{value}*13\n")
        for command in ("su3", "g2t"):
            expected_code, expected, _ = run_cli(capsys, command, str(written))
            argv = [command, str(path)] + ([] if value == "3/2" else ["--param", f"mu={value}"])
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (expected_code, "")
            assert _report_body(out) == _report_body(expected)
    assert expected_code == 1  # at mu = 2 the g2t check fails on both files


@pytest.mark.parametrize("text, message", [
    ("[algebra]\n0,lam*35,0,-lam*15,0,a1*14-a1*23+lam*13\n[params]\nlam = 1\n",
     "unbound parameter 'a1'"),
    ("[algebra]\n0,0,1/lam*12,13,23,14\n[params]\nlam = 0\n",
     "denominator vanishes at binding"),
    ("[algebra]\n0,0,12,13,23,14\n[params]\nlam = k\n", "not parameter-free"),
])
def test_structure_file_bad_binding_exit_2(capsys, tmp_path, text, message):
    path = tmp_path / "bad.su3"
    path.write_text(text)
    code, out, err = run_cli(capsys, "su3", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    pytest.param("0,0,0,0,13+42,14+23\n[algebra]\n0,0,0,0,13+42,14+23\n",
                 "line 1: content before any section header", id="content-before-header"),
    pytest.param("[params]\nlam = 1\n", "missing [algebra] section", id="missing-algebra"),
    pytest.param("[algebra]\n0,0,0,0,0,lam*12\n[params]\nlam 1\n",
                 "bad [params] line: 'lam 1'", id="bad-params-line"),
    pytest.param("[algebra]\n0,0,0,0,13+42,14+23\n[adaptation]\n1 0 0 0 0 0\n0 -1 0 0 0 0\n",
                 "[adaptation] must contain a 6x6 matrix", id="adaptation-not-6x6"),
    pytest.param("[algebra]\n0,0,0,0,13+42,14+23\n[adaptaton]\n" + _IWASAWA_ROWS,
                 "line 3: unknown section [adaptaton]", id="unknown-section"),
    pytest.param("[algebra]\n0,0,0,0,0,0\n[algebra]\n0,0,0,0,13+42,14+23\n",
                 "line 3: repeated section [algebra]", id="repeated-section"),
    pytest.param("[algebra]\n0,0,0,0,0,lam*12\n[params]\nlam = 1\nλ = 2\n",
                 "parameter 'lam' bound twice in [params]", id="parameter-bound-twice"),
    pytest.param("[algebra]\n0,0,0,0,13+42,14+23\n[adaptation]\n[params]\n",
                 "[adaptation] must contain a 6x6 matrix", id="adaptation-empty"),
    # the first cell, 1, written 300 parentheses deep
    pytest.param("[algebra]\n0,0,0,0,13+42,14+23\n[adaptation]\n"
                 + _IWASAWA_ROWS.replace("1", _DEEP, 1),
                 "expression nested too deeply (at position 100)", id="deep-adaptation-cell"),
    pytest.param("[algebra]\n0,0,0,0,13+42,14+23\n[adaptation]\n"
                 + _IWASAWA_ROWS.replace("1", "(1", 1),
                 "unbalanced '(' (at position 2)", id="unbalanced-adaptation-cell"),
    pytest.param(f"[algebra]\n0,0,0,0,0,{_DEEP}*12\n",
                 "entry 6: expression nested too deeply (at position 110)", id="deep-algebra-entry"),
    pytest.param(f"[algebra]\n0,0,0,0,0,lam*12\n[params]\nlam = {_DEEP}\n",
                 "expression nested too deeply (at position 100)", id="deep-params-value"),
])
@pytest.mark.parametrize("command", ["su3", "g2t"])
def test_structure_file_syntax_exit_2(capsys, tmp_path, command, text, message):
    """A malformed file is bad input, not a failed structure check."""
    path = tmp_path / "bad.su3"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and message in err


@pytest.mark.parametrize("text, message, position", [
    ("(lam", "unbalanced '('", 4),
    ("lam)", "unbalanced ')'", 3),
    ("(λ*(k)", "unbalanced '('", 6),
    ("a₁-k)", "unbalanced ')'", 4),
    ("k*)", "unbalanced ')'", 2),
])
def test_parenthesis_errors_read_alike_in_every_context(capsys, tmp_path, text, message,
                                                        position):
    """A scalar, a form literal, a table entry, a --param value and a
    structure-file cell report an unbalanced parenthesis alike, at its
    position as typed; on the command line they exit 2."""
    ctx = family_context()
    at = f"{message} (at position {position})"
    in_entry = f"entry 6: {message} (at position {10 + position})"
    for parse in (ctx.parse, lambda t: parse_form(FrameContext(6, ctx), t)):
        with pytest.raises(ScalarSyntaxError) as err:
            parse(text)
        assert str(err.value) == at
    with pytest.raises(SalamonSyntaxError) as err:
        parse_salamon(f"0,0,0,0,0,{text}", ctx)
    assert str(err.value) == in_entry
    path = tmp_path / "cell.su3"
    path.write_text("[algebra]\n0,0,0,0,13+42,14+23\n[adaptation]\n"
                    + _IWASAWA_ROWS.replace("1", text, 1), encoding="utf-8")
    for argv, line in ((("check", f"0,0,0,0,0,{text}"), in_entry),
                       (("--param", f"k={text}", "check", "0,0,0,0,0,12"), at),
                       (("su3", str(path)), at)):
        assert run_cli(capsys, *argv) == (2, "", f"syntax error: {line}\n")


def test_structure_file_failed_checks_exit_1(capsys, tmp_path):
    """A non-orthogonal or orientation-reversing adaptation is a failed check."""
    algebra = "[algebra]\n0,0,0,0,13+42,14+23\n[adaptation]\n"
    for rows, message in (
        (_IWASAWA_ROWS.replace("1 0 0 0 0 0", "2 0 0 0 0 0", 1), "not orthogonal"),
        (_IWASAWA_ROWS.replace("0 -1 0 0 0 0", "0 1 0 0 0 0", 1), "compatibility failure"),
    ):
        path = tmp_path / "failed.su3"
        path.write_text(algebra + rows, encoding="utf-8")
        code, out, err = run_cli(capsys, "su3", str(path))
        assert (code, err) == (1, "")
        assert "[FAIL] structure" in out and message in out


# case1's table in a coframe where omega ^ d omega != 1/2 beta ^ omega^2
_CASE1_NOT_G2T = """[algebra]
0,lam*35,k*15,-lam*15+k*25,0,lam*13
[adaptation]
0 0 0 21/29 0 -20/29
0 -20/29 -21/29 0 0 0
0 0 0 -20/29 0 -21/29
0 -21/29 20/29 0 0 0
0 0 0 0 1 0
-1 0 0 0 0 0
"""


def test_su3_torsion_class_failure_exit_1(capsys, tmp_path):
    """A compatible structure outside the G2T class fails the primitivity
    check of W3: a failed check, as under g2t, not bad input."""
    path = tmp_path / "case1_not_g2t.su3"
    path.write_text(_CASE1_NOT_G2T, encoding="utf-8")
    code, out, err = run_cli(capsys, "su3", str(path))
    assert (code, err) == (1, "")
    assert "[pass] structure" in out
    assert "[FAIL] torsion-classes: W3 component is not primitive" in out
    assert "second G2T equation fails" in out
    code, out, err = run_cli(capsys, "g2t", str(path))
    assert (code, err) == (1, "")
    assert "[FAIL] g2t" in out


def test_unbound_table_at_sample_zero_fails_check(capsys):
    code, out, err = run_cli(capsys, "betti", "0,0,0,0,0,1/(lam-2)*12")
    assert (code, err) == (1, "")
    assert "[FAIL] betti: binding failed: denominator vanishes" in out


_README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_command_lines():
    """The `nilg2 ...` lines of the README's "Command line" block."""
    block = _README.split("## Command line", 1)[1].split("```")[1]
    return [line for line in block.splitlines()
            if line.startswith("nilg2 ") and "COMMAND" not in line]


@pytest.mark.parametrize("line", _readme_command_lines(),
                         ids=lambda line: " ".join(shlex.split(line, comments=True)[1:]))
def test_readme_command_line_runs(capsys, monkeypatch, line):
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    argv = shlex.split(line, comments=True)[1:]
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    assert code == (1 if argv[0] == "theorem" else 0), out


def test_readme_scripts_exit_status():
    """The README's family survey script runs cleanly and exits 0."""
    root = Path(__file__).resolve().parents[1]
    src = str(Path(nilg2.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "family_survey.py")], cwd=root,
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert proc.stderr == ""
    assert proc.returncode == 0
    assert not [line for line in proc.stdout.splitlines() if line.startswith("[FAIL]")]


def _json_doc(report):
    """The schema of ``Report.to_json`` as a dict, for ``json.dumps``."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": f"nilg2 {nilg2.__version__}",
        "command": report.command,
        "input": report.input_description,
        "passed": report.passed,
        "seed": report.seed,
        "timing_ms": round(report.timing_ms, 3),
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail, "data": c.data}
                   for c in report.checks],
    }


def test_structured_report_is_what_json_dumps_writes(capsys, monkeypatch, tmp_path):
    """``to_json`` writes its schema itself; the text is byte for byte
    ``json.dumps(doc, indent=2)`` on a report of every command, passing and
    failing, with non-ASCII text, an empty data map, a check without a
    verdict and no checks at all."""
    reports = []
    to_json = Report.to_json
    monkeypatch.setattr(Report, "to_json", lambda r: (reports.append(r), to_json(r))[1])
    not_g2t = tmp_path / "not_g2t.su3"
    not_g2t.write_text(_CASE1_NOT_G2T, encoding="utf-8")
    rotated = tmp_path / "case3_rotated.su3"
    rotated.write_text(_CASE3_ROTATED, encoding="utf-8")
    commands = [
        ["check", "0,0,12,13,23,14"], ["check", "0,0,12,13,23,15"], ["check", "0,13,12,0,0,0"],
        ["check", "0,0,0,0,12,13-λ*24"], ["--seed", "7", "betti", "0,0,0,12,13,23"],
        ["fingerprint", "0,0,12,13,23,14-25"], ["su3", _IWASAWA_FILE], ["su3", str(rotated)],
        ["g2t", "case3"], ["g2t", str(not_g2t)], ["g2t", str(rotated)],
        ["--param", "λ=1", "--param", "k=2", "g2t", "case1"], ["theorem"],
        ["contract", "0,0,12,13,23,14+25", "--exponents=-1,1,0,-1,1,-2",
         "--direction", "to-infinity"],
    ]
    for argv in commands:
        code, out, err = run_cli(capsys, "--format", "structured", *argv)
        assert err == "" and code in (0, 1), argv
        assert out == json.dumps(_json_doc(reports[-1]), indent=2) + "\n", argv
    assert len(reports) == len(commands)
    made = [Report(command="g2t", input_description="λ ϑ₁ é\U0001d4b3 \"\\\n\t")]
    made.append(Report(command="check", input_description="", seed=-3, timing_ms=1234.56789))
    made[1].add("verdict-free", None)
    made[1].add("non-ascii", True, "ϑ = −1", **{"λ": "ϑ\x00", "empty": ""})
    made[1].add("failed", False, "d^2 != 0")
    for report in made:
        assert report.to_json() == json.dumps(_json_doc(report), indent=2)
    assert '"checks": []' in made[0].to_json() and '"data": {}' in made[1].to_json()
