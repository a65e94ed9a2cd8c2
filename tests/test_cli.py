import json
import shlex
from pathlib import Path

import pytest

from nilg2.cli import main
from nilg2.exterior import FrameContext, parse_form
from nilg2.scalars import ParameterContext


def run_cli(capsys, *argv):
    code = main(list(argv))
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


@pytest.mark.parametrize("argv, message", [
    (("betti", "0,0,12,13,23,14+15"), "d(d e^6) != 0"),
    (("fingerprint", "0,12,0,0,0,0"), "not presented nilpotently"),
    (("contract", "0,0,12,13,23,14+25", "--exponents=1,2", "--direction", "to-zero"),
     "one exponent per coframe axis"),
    (("--param", "lam=k", "g2t", "case1"), "needs a rational value"),
])
def test_bad_input_exit_2_one_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and message in err
    assert "Traceback" not in err
