"""Golden `su3` and `g2t` reports, text and structured, compared byte for byte.

The files under ``tests/golden`` hold the reports of the three families, of
``scripts/case2_rotated.su3`` (case2 in the coframe rotated by c = 3/5,
s = 4/5) and of ``scripts/iwasawa.su3``, with the timing masked: the text
report's ``(... ms)`` and the structured report's ``timing_ms`` read 0.
"""

import re
from pathlib import Path

import pytest

from nilg2 import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

INPUTS = {
    "case1": "case1",
    "case2": "case2",
    "case3": "case3",
    "case2_rotated": "scripts/case2_rotated.su3",
    "iwasawa": "scripts/iwasawa.su3",
}


def _masked(text: str) -> str:
    text = re.sub(r'"timing_ms": [0-9.eE+-]+', '"timing_ms": 0', text)
    return re.sub(r"\([0-9.]+ ms\)\n", "(0.0 ms)\n", text)


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("structured", "json")])
@pytest.mark.parametrize("command", ["su3", "g2t"])
@pytest.mark.parametrize("stem", sorted(INPUTS))
def test_report_matches_its_golden_file(capsys, monkeypatch, stem, command, fmt, suffix):
    monkeypatch.chdir(ROOT)  # the report echoes the input path as given
    assert cli.main(["--format", fmt, command, INPUTS[stem]]) == 0
    expected = (GOLDEN / f"{command}_{stem}.{suffix}").read_text(encoding="utf-8")
    assert _masked(capsys.readouterr().out) == expected


def test_golden_timing_mask_touches_only_the_timing():
    """Each golden file differs from a live report only where the mask
    writes: one timing per report."""
    for path in GOLDEN.iterdir():
        text = path.read_text(encoding="utf-8")
        mark = '"timing_ms": 0,' if path.suffix == ".json" else "(0.0 ms)\n"
        assert text.count(mark) == 1, path.name
