"""nilg2 benchmark: exact torsion reports, classification and witnesses.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

Workloads: g2t-symbolic, g2t-bound, classify, witness (see workloads.py for
why each exists); BENCHMARK.json lists g2t-symbolic and classify.  The
loop is closed: one process, one client, and each operation starts when the
previous one returns.  Every output is checked right after its operation,
outside the timed region; a wrong answer counts as a failed operation, makes
``correct`` false and the exit status 1.

``--trace 0`` measures for S seconds and reports the end-to-end metrics.
``--trace 1`` runs a fixed number of operations untraced, then as many
further operations with the tracer installed, and reports per-layer
counts and times per traced operation; the spans are written to
``.bench_out/``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "oracle.py"

SETUP_SAMPLES = 7
# Repeats of the host-speed loop at each end of a run; their median is printed.
HOST_LOOP_REPEATS = 9
# Operations per pass in a traced run: fixed, so counts repeat exactly, and
# whole cycles of each workload's mix, so both passes see the same mix.
TRACE_OPS = {"g2t-symbolic": 45, "g2t-bound": 99, "classify": 140, "witness": 96}

END_TO_END = {
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def host_loop_ms():
    """Median time of a fixed pure-Fraction loop that does not touch nilg2: host speed only."""
    times = []
    for _ in range(HOST_LOOP_REPEATS):
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 5001):
            acc = Fraction(i % 97 + 1, i % 89 + 1) * Fraction(3, 7) + Fraction(i, 1000) - acc / 2
            acc = Fraction(acc.numerator % 100003, acc.denominator % 100003 or 1)
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def probe_setup_s(workload, seed):
    """Wall time of a fresh interpreter importing nilg2 and warming up."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
        cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
    )  # no timeout: a timed wait polls, which rounds the time to 50 ms
    return time.perf_counter() - start


def op(workload, inp):
    """One timed operation: (its output, or the exception it raised; seconds)."""
    t0 = time.perf_counter()
    try:
        out = workload.run(inp)
    except Exception as exc:  # a raising operation is a failed operation
        out = exc
    return out, time.perf_counter() - t0


def passed(check, i, inp, out):
    """The verdict on one output; a malformed output fails its check."""
    if isinstance(out, Exception):
        return False
    try:
        return bool(check(i, inp, out))
    except Exception:
        return False


def end_to_end(workload, seconds, setup):
    check = workload.checker(workload.rng("sample"))
    latencies, verdicts, keys = [], [], []
    deadline = time.perf_counter() + seconds
    for i, inp in enumerate(workload.inputs()):
        out, dt = op(workload, inp)
        latencies.append(dt)
        verdicts.append(passed(check, i, inp, out))
        keys.append(hash(workload.key(inp)))
        if time.perf_counter() >= deadline:
            break
    lat_ms = [x * 1000.0 for x in latencies]
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    metrics = {
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_p90": deciles[8],
        "ops_per_s": len(lat_ms) / sum(latencies),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    repeated = len(keys) - len(set(keys))
    beyond = sum(1 for x in lat_ms if x > deciles[8])
    notes = [
        f"{len(lat_ms)} ops, {beyond} beyond p90; repeated inputs "
        f"{repeated}/{len(keys)} = {repeated / len(keys):.3f}",
        "setup samples (s): " + ", ".join(f"{x:.3f}" for x in setup),
    ]
    return verdicts, metrics, notes


def per_layer(workload):
    import nilg2
    import tracer as tracing
    import workloads
    from nilg2 import exterior

    n = TRACE_OPS[workload.name]
    check = workload.checker(workload.rng("sample"))
    inputs = list(itertools.islice(workload.inputs(), 2 * n))
    verdicts, plain_s = [], 0.0
    for i, inp in enumerate(inputs[:n]):
        out, dt = op(workload, inp)
        plain_s += dt
        verdicts.append(passed(check, i, inp, out))
    tracer = tracing.Tracer(nilg2)
    cache0 = exterior._lefschetz_solver.cache_info()
    outputs, traced_s = [], 0.0
    tracer.install()
    try:
        for i, inp in enumerate(inputs[n:]):
            tracer.op = i
            out, dt = op(workload, inp)
            traced_s += dt
            outputs.append(out)
    finally:
        tracer.uninstall()
    cache1 = exterior._lefschetz_solver.cache_info()
    # checks call the package too, so they run after the tracer is removed
    for i, (inp, out) in enumerate(zip(inputs[n:], outputs), start=n):
        verdicts.append(passed(check, i, inp, out))
    by_name, layer_self = tracer.summary()

    def calls(name):
        return by_name.get(name, (0, 0, 0))[0]

    def raised(name):
        return by_name.get(name, (0, 0, 0))[1]

    def per_op(count):
        return count / n

    def ms(name):
        return by_name.get(name, (0, 0, 0))[2] / 1e6 / n

    def share(part, whole):
        return part / whole if whole else 0.0

    hits, misses = cache1.hits - cache0.hits, cache1.misses - cache0.misses
    contractions = calls("families.contraction_limit")
    values = {
        "scalars.ops_rational": per_op(tracer.scalar_rational),
        "scalars.ops_symbolic": per_op(tracer.scalar_symbolic),
        "scalars.symbolic_poly_share": share(tracer.scalar_symbolic_poly, tracer.scalar_symbolic),
        "exterior.wedge_calls": per_op(calls("exterior.Form.wedge")),
        "exterior.wedge_term_pairs": per_op(tracer.wedge_term_pairs),
        "exterior.hodge_calls": per_op(calls("exterior.hodge")),
        "exterior.inner_calls": per_op(calls("exterior.inner")),
        "exterior.interior_calls": per_op(calls("exterior.interior")),
        "exterior.lefschetz_calls": per_op(calls("exterior.lefschetz_coefficients")),
        "exterior.lefschetz_cache_hit_share": share(hits, hits + misses),
        "exterior.type_decompose_ms": ms("exterior.type_decompose"),
        "linalg.rref_calls": per_op(calls("linalg.rref")),
        "linalg.rref_symbolic_share": share(tracer.rref_symbolic, calls("linalg.rref")),
        "linalg.rref_cells": per_op(tracer.rref_cells),
        "liealg.parse_calls": per_op(calls("liealg.parse_salamon")),
        "liealg.algebra_builds": per_op(calls("liealg.LieAlgebra.__init__")),
        "liealg.nilpotency_checks": per_op(calls("liealg.LieAlgebra._check_filtration")),
        "liealg.nilpotency_ms": ms("liealg.LieAlgebra._check_filtration"),
        "liealg.d_calls": per_op(calls("liealg.LieAlgebra.d")),
        "liealg.change_basis_calls": per_op(calls("liealg.change_basis")),
        "liealg.fingerprint_ms": ms("liealg.fingerprint"),
        "su3.torsion_classes_ms": ms("su3.torsion_classes"),
        "g2.extract_theta_ms": ms("g2.extract_theta"),
        "g2.torsion_ms": ms("g2.torsion"),
        "g2.dT_tests_ms": ms("g2.dT_tests"),
        "families.instantiate_ms": ms("families.instantiate"),
        "families.contraction_converged_share": share(
            contractions - raised("families.contraction_limit"), contractions
        ),
        "cli.main_ms": ms("cli.main"),
        "trace.overhead_share": 1.0 - plain_s / traced_s,
    }
    for layer, ns in layer_self.items():
        values[f"{layer}.self_ms"] = ns / 1e6 / n
    spans_path = workloads.OUT_DIR / f"spans-{workload.name}-seed{workload.seed}.tsv"
    tracer.write(spans_path)
    notes = [f"{n} ops untraced, {n} traced; {len(tracer.s_name)} spans in {spans_path}"]
    return verdicts, values, notes


def unit(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_ms"):
        return "ms/op"
    if name.endswith("_share"):
        return "ratio"
    return "count/op"


def run_one(args):
    setup = []
    if not args.trace:
        setup = [probe_setup_s(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    host_start = host_loop_ms()
    import nilg2
    import workloads

    if Path(nilg2.__file__).resolve().parent != SRC / "nilg2":
        print(f"benchmark: imported nilg2 from {nilg2.__file__}, not {SRC}", file=sys.stderr)
        return 2
    with workloads.workdir(args.workload, args.seed) as path:
        workload = workloads.WORKLOADS[args.workload](args.seed, path)
        workloads.warm_up(workload)
        if args.trace:
            verdicts, values, notes = per_layer(workload)
        else:
            verdicts, values, notes = end_to_end(workload, args.seconds, setup)
    host_end = host_loop_ms()

    attempted = len(verdicts)
    failed = verdicts.count(False)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} attempted, {failed} failed, failed_share {failed / attempted} ratio")
    for note in notes:
        print("  " + note)
    print(f"  host Fraction loop (ms, median of {HOST_LOOP_REPEATS}): "
          f"start {host_start:.2f}, end {host_end:.2f}")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {unit(name)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args, names):
    """Each workload in its own process, one after another."""
    status, combined = 0, {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines() or [""]
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            combined[name] = json.loads(lines[-1])
        except ValueError:
            combined[name] = None
    print(json.dumps(combined))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p) for p in (SRC / "nilg2" / "__init__.py", ORACLE) if not p.is_file()]
    if missing:
        print(f"benchmark: missing {', '.join(missing)}; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = list(workloads.WORKLOADS)
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
