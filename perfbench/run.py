#!/usr/bin/env python3
"""Run one orthosign benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {exact-verify,hunt,census} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src.  The
workload's input list is built from --seed, then passes over the whole list
repeat until --seconds have elapsed (at least MIN_PASSES of them).  Every
answer is checked against an independent oracle, and every pass must
reproduce the first pass's deterministic results exactly.

Every pass repeats the same deterministic work, and time taken by other
tenants of a shared host only ever adds to it, so each op's latency is its
fastest repeat in the run; wall_s is the sum of those (one pass without
interference) and op_p50_ms/op_tail_ms are taken over them.  setup_s is
likewise the fastest of SETUP_REPEATS fresh-interpreter set-ups spread over
the run.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics from the traced ones, plus the traced/untraced wall-time ratio.

The second-to-last stdout line is a JSON object {"detail": ...} with the
environment, input-list sizes, budgets, sample counts, every span table and
counter, and the determinism digest; the last line is the result
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only
when every answer is right and every pass agrees.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# one process, one thread: pin BLAS before numpy is first imported
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("exact-verify", "hunt", "census")
MIN_PASSES = 2
MIN_TRACE_PASSES = 2  # of each kind, untraced and traced
SETUP_REPEATS = 12
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# fresh interpreter: import the package and parse every bundled fixture
SETUP_PROBE = (
    "import time; t0 = time.perf_counter(); import orthosign; "
    "from orthosign.fixtures import FIXTURE_NAMES, get_fixture; "
    "[get_fixture(name) for name in FIXTURE_NAMES]; print(time.perf_counter() - t0)"
)


def tail_percentile(n: int):
    """Highest listed percentile with at least 10 of n samples beyond it."""
    return next((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= 10), None)


def percentile(values, p) -> float:
    """Nearest-rank percentile; p=None gives the maximum."""
    xs = sorted(values)
    if p is None:
        return xs[-1]
    rank = max(1, -(-len(xs) * p // 100))
    return xs[int(rank) - 1]


def setup_sample() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_pass(workload, tracer=None) -> dict:
    """One pass over the input list: per-op latencies, outcomes, the digest of
    the deterministic records and, when traced, the span tables."""
    latencies, wrong, record = [], [], []
    sought = found = 0
    extra = {}
    if tracer is not None:
        tracer.reset()
        tracer.__enter__()
    t_start = time.perf_counter()
    try:
        for op in workload.ops:
            t0 = time.perf_counter()
            try:
                outcome = op.run()
            except Exception as e:  # an exception is a wrong answer; keep measuring
                latencies.append(time.perf_counter() - t0)
                wrong.append(f"{op.label}: {type(e).__name__}: {e}")
                record.append((op.label, "exception"))
                continue
            latencies.append(time.perf_counter() - t0)
            if outcome.wrong:
                wrong.append(outcome.wrong)
            sought += outcome.sought
            found += outcome.found
            record.append(outcome.record)
            for k, v in outcome.extra.items():
                extra.setdefault(k, []).append(v)
    finally:
        wall = time.perf_counter() - t_start
        if tracer is not None:
            tracer.__exit__(None, None, None)
    out = {"wall": wall, "latencies": latencies, "wrong": wrong, "sought": sought, "found": found,
           "digest": hashlib.sha256(repr(record).encode()).hexdigest(), "extra": extra}
    if tracer is not None:
        out.update(stats=dict(tracer.stats), layer_stats=dict(tracer.layer_stats), counters=dict(tracer.counters))
    return out


def measure(workload, seconds: float, trace: bool) -> tuple:
    """(untraced passes, traced passes, fixture probes, set-up samples) for
    one run.  Untraced runs spread SETUP_REPEATS fresh-interpreter set-ups
    over the run, so that no single slow spell of the host sets them all."""
    import spans

    untraced, traced, probes, setup = [], [], [], []
    tracer = spans.Tracer()
    start = time.perf_counter()
    while True:
        share = min(1.0, (time.perf_counter() - start) / seconds) if seconds > 0 else 1.0
        while not trace and len(setup) < 1 + SETUP_REPEATS * share:
            setup.append(setup_sample())
        untraced.append(run_pass(workload))
        if trace:
            probes.append(fixture_probe())
            traced.append(run_pass(workload, tracer))
        enough = len(traced) >= MIN_TRACE_PASSES if trace else len(untraced) >= MIN_PASSES
        if enough and time.perf_counter() - start >= seconds:
            break
    while not trace and len(setup) < SETUP_REPEATS:
        setup.append(setup_sample())
    return untraced, traced, probes, setup


def best_latencies(passes: list) -> list:
    """Each op's fastest repeat over the passes."""
    return [min(ts) for ts in zip(*(p["latencies"] for p in passes))]


def end_to_end(workload, passes: list, setup: list) -> tuple:
    best = best_latencies(passes)
    p_tail = tail_percentile(len(best))
    wall = sum(best)
    sought, found = passes[0]["sought"], passes[0]["found"]
    metrics = {
        "setup_s": (min(setup), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (len(best) / wall, "1/s"),
        "op_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "op_tail_ms": (percentile(best, p_tail) * 1e3, "ms"),
        "found_ratio": (found / sought if sought else 1.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"op_tail_percentile": "max" if p_tail is None else p_tail, "samples_per_pass": len(best),
             "passes": len(passes), "setup_samples": len(setup),
             "median_pass_wall_s": statistics.median(p["wall"] for p in passes)}
    for cat, key in (("positive", "realizable_p50_ms"), ("negative", "excluded_p50_ms")):
        xs = [t for t, op in zip(best, workload.ops) if op.category == cat]
        extra[key] = statistics.median(xs) * 1e3 if xs else None
    for key in passes[0]["extra"]:
        extra[key] = statistics.median(min(ts) for ts in zip(*(p["extra"][key] for p in passes)))
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, extra


def per_layer(traced: list, untraced: list, probes: list) -> tuple:
    """Span tables and counters of the traced passes: calls and counters from
    the first (the determinism gate holds them equal), times the fastest."""
    import spans

    def fastest(table_key, name, field):
        return min(t[table_key].get(name, {}).get(field, 0.0) for t in traced)

    def table(table_key, names):
        return {k: {"calls": traced[0][table_key].get(k, {}).get("calls", 0),
                    "busy_s": fastest(table_key, k, "busy_s"), "self_s": fastest(table_key, k, "self_s")}
                for k in names}

    bounds = table("stats", sorted({k for t in traced for k in t["stats"]}))
    layers = table("layer_stats", spans.LAYERS)
    c = Counter(traced[0]["counters"])
    wall = min(t["wall"] for t in traced)
    probe = {"calls": probes[0]["fixtures.get_fixture"]["calls"],
             **{f: min(p["fixtures.get_fixture"][f] for p in probes) for f in ("busy_s", "self_s")}}

    def calls(key):
        return bounds.get(key, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {f"{k}.calls": (calls(k), "count") for k in (
        "exact.parse_matrix_json", "exact.is_orthogonal.rat", "exact.is_orthogonal.quad", "exact.det_sign.rat",
        "exact.det_sign.quad", "realize.search_realization", "realize.refine_from", "realize.rational_certify",
        "signpat.orbit_of", "signpat.necessary_check", "signpat.sign_pattern_of", "hunt.classify_det_sign",
        "hunt.census", "cli.main")}
    metrics.update({
        "exact.entry_bits_max": (c["entry_bits_max"], "bits"),
        "realize.rational_certify.ok_ratio": (ratio(c["certify_ok"], calls("realize.rational_certify")), "ratio"),
        "realize.restarts_to_find": (c["restarts_to_find"], "count"),
        "realize.iters_to_find": (c["iters_to_find"], "count"),
        "realize.exhausted_calls": (c["exhausted_calls"], "count"),
        "signpat.orbit_patterns": (c["orbit_patterns"], "count"),
        "signpat.necessary_check.pass_ratio": (ratio(c["necessary_pass"], calls("signpat.necessary_check")), "ratio"),
        "fixtures.get_fixture.calls": (probe["calls"], "count"),
        "fixtures.get_fixture.busy_ms": (probe["busy_s"] * 1e3, "ms"),
        "realize.self_ms": (layers["realize"]["self_s"] * 1e3, "ms"),
        "signpat.self_ms": (layers["signpat"]["self_s"] * 1e3, "ms"),
        "trace.overhead_ratio": (sum(best_latencies(traced)) / sum(best_latencies(untraced)), "ratio"),
    })
    for L in ("cli", "hunt", "realize", "signpat", "exact"):
        metrics[f"{L}.self_share"] = (layers[L]["self_s"] / wall, "ratio")

    exhausted_s = min(t["counters"].get("exhausted_s", 0.0) for t in traced)

    def ms(rows):
        return {k: {"calls": v["calls"], "busy_ms": v["busy_s"] * 1e3, "self_ms": v["self_s"] * 1e3}
                for k, v in rows.items()}

    detail = {
        "boundaries": ms(bounds), "layers": ms(layers), "setup_probe": ms({"fixtures.get_fixture": probe}),
        "realize.exhausted_us_per_iter": (ratio(1e6 * exhausted_s, c["exhausted_iter_budget"])
                                          if c["exhausted_iter_budget"] else None),
        "counters": dict(c), "traced_passes": len(traced), "untraced_passes": len(untraced),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def fixture_probe() -> dict:
    """In-process share of set-up: parse every fixture through get_fixture."""
    import spans
    from orthosign import fixtures

    fixtures.get_fixture.cache_clear()
    tracer = spans.Tracer()
    with tracer:
        for name in fixtures.FIXTURE_NAMES:
            fixtures.get_fixture(name)
    return dict(tracer.stats)


def counters_of(traced_pass: dict) -> tuple:
    """The deterministic part of a traced pass: calls and counters, no times."""
    c = {k: v for k, v in traced_pass["counters"].items() if not k.endswith("_s")}
    return tuple(sorted((k, v["calls"]) for k, v in traced_pass["stats"].items())), tuple(sorted(c.items()))


def environment(args, workload) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_env": BLAS_ENV, "machine": platform.machine(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs": workload.info,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "orthosign" / "__init__.py").is_file():
        print(f"error: no orthosign package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import orthosign

    if Path(orthosign.__file__).resolve().parent != (SRC / "orthosign").resolve():
        print(f"error: imported orthosign from {orthosign.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.build(args.workload, args.seed)
    untraced, traced, probes, setup = measure(workload, args.seconds, bool(args.trace))

    passes = untraced + traced
    digests = {p["digest"] for p in passes}
    counts = {counters_of(p) for p in traced}
    deterministic = len(digests) == 1 and len(counts) <= 1
    if args.trace:
        metrics, extra = per_layer(traced, untraced, probes)
    else:
        metrics, extra = end_to_end(workload, untraced, setup)
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(len(p["wrong"]) for p in passes)
    correct = failed == 0 and deterministic
    detail = {
        "env": environment(args, workload),
        "digest": sorted(digests)[0] if deterministic else sorted(digests),
        "deterministic": deterministic,
        "error_ratio": failed / attempted,
        "wrong": [w for p in passes for w in p["wrong"]][:20],
        "pass_walls_s": [p["wall"] for p in passes],
        "setup_samples_s": setup,
        **extra,
    }
    if deterministic and counts:
        calls, counters = next(iter(counts))
        detail["deterministic_counters"] = {"calls": dict(calls), "counters": dict(counters)}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
