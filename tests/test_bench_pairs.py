"""The per-metric verdict of ``scripts/bench_pairs.py`` on synthetic pairs."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# median 10.0, quartiles 9.925 and 10.1: IQR 0.175
PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]


def _nine_wins(parent):
    return [p + 0.5 if i == 0 else p - 1 for i, p in enumerate(parent)]


def _eight_wins(parent):
    return [p + 0.5 if i < 2 else p - 1 for i, p in enumerate(parent)]


@pytest.mark.parametrize("change, better, expected", [
    ([p * 0.7 for p in PARENT], "lower", "gain"),
    ([p * 1.3 for p in PARENT], "higher", "gain"),
    (_nine_wins(PARENT), "lower", "gain"),
    # 8 of 10 wins is not enough, however large the difference
    (_eight_wins(PARENT), "lower", "within bound"),
    # every pair won, but the medians differ by less than the parent's IQR
    ([p - 0.05 for p in PARENT], "lower", "within bound"),
    # ties count for neither side
    (list(PARENT), "lower", "within bound"),
    ([p * 1.2 for p in PARENT], "lower", "within bound"),
    ([p * 1.3 for p in PARENT], "lower", "worse"),
    ([p * 0.8 for p in PARENT], "higher", "within bound"),
    ([p * 0.7 for p in PARENT], "higher", "worse"),
])
def test_verdict(change, better, expected):
    assert bench_pairs.verdict(PARENT, change, better, 0.24) == expected


def test_summary_carries_iqr_relative_change_and_verdict():
    metrics = {"op_ms_p90": {"name": "op_ms_p90", "unit": "ms", "better": "lower",
                             "bound": 0.24}}
    pairs = [{"parent": {"metrics": {"op_ms_p90": p}},
              "change": {"metrics": {"op_ms_p90": p * 0.7}}} for p in PARENT]
    s = bench_pairs.summarize(pairs, metrics)["op_ms_p90"]
    assert s["parent_quartiles"] == pytest.approx([9.925, 10.1])
    assert s["parent_iqr"] == pytest.approx(0.175)
    assert s["relative_change"] == pytest.approx(-0.3)
    assert (s["change_wins"], s["parent_wins"], s["verdict"]) == (10, 0, "gain")
