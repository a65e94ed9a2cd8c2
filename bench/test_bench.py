"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest bench/test_bench.py
"""

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from nilg2 import cli, g2, liealg  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_gives_identical_inputs(name, tmp_path):
    def described(seed, sub):
        path = tmp_path / sub
        path.mkdir()
        workload = workloads.WORKLOADS[name](seed, path)
        warm = [workload.describe(inp) for inp in workload.warmup_inputs()]
        ops = [workload.describe(inp) for inp in itertools.islice(workload.inputs(), 16)]
        return warm, ops

    first, again, other = described(7, "a"), described(7, "b"), described(8, "c")
    assert first == again
    assert first[1] != other[1]


def _failed_with(workload, module_attrs, corrupt, n_ops):
    """Failed operations when ``corrupt`` wraps the named functions during the ops only."""
    check = workload.checker(workload.rng("sample"))
    failed = 0
    for i, inp in enumerate(itertools.islice(workload.inputs(), n_ops)):
        with pytest.MonkeyPatch.context() as mp:
            for module, attr in module_attrs:
                mp.setattr(module, attr, corrupt(getattr(module, attr)))
            out, _ = run.op(workload, inp)
        failed += not run.passed(check, i, inp, out)
    return failed


def _corrupt_torsion(torsion):
    def wrong(product):
        report = torsion(product)
        return dataclasses.replace(report, T=report.T + report.T.ctx.basis(1, 2, 3))
    return wrong


def _corrupt_fingerprint(fingerprint):
    def wrong(*args, **kwargs):
        fp = fingerprint(*args, **kwargs)
        return dataclasses.replace(fp, betti=fp.betti[::-1] + (0,))
    return wrong


def _identity(fn):
    return fn


@pytest.mark.parametrize(
    "name, targets, corrupt, n_ops",
    [
        ("g2t-bound", [(g2, "torsion")], _corrupt_torsion, 6),
        ("g2t-symbolic", [(cli, "torsion")], _corrupt_torsion, 4),
        ("classify", [(liealg, "fingerprint")], _corrupt_fingerprint, 12),
    ],
)
def test_corrupted_output_counts_as_failed(name, targets, corrupt, n_ops, tmp_path):
    workload = workloads.WORKLOADS[name](11, tmp_path)
    assert _failed_with(workload, targets, _identity, n_ops) == 0
    assert _failed_with(workload, targets, corrupt, n_ops) == n_ops


def _traced_counts(name, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {
        key: m["value"] for key, m in metrics.items()
        if m["unit"] == "count/op" or (m["unit"] == "ratio" and key != "trace.overhead_share")
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    first = _traced_counts(name, 5)
    assert first == _traced_counts(name, 5)
    assert any(value for value in first.values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(Path(BENCH.name) / "run.py"), "--workload", "classify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
