#!/usr/bin/env python3
"""Run every orthosign benchmark workload over several seeds and report.

    python3 perfbench/suite.py [--seeds 1-3] [--sets 2] [--seconds S] \
        [--workloads exact-verify,hunt,census] [--out FILE]

Run from the repository root.  Each run set runs every workload once per seed
with tracing off, and once with tracing on for the first seed, each run in a
fresh `perfbench/run.py` process.  The report prints every end-to-end metric
by name with its unit: per workload and run set the median over seeds, the
quartile spread (q3 - q1) / median, and the bound from BENCHMARK.json, and
whether the later set's median is worse than the first's by more than the
bound.  It also prints the hunt/census-specific metrics and, from the traced
runs, every layer's calls, busy ms and self ms.

Determinism gate: every run of one workload and seed must produce the same
result digest, and every traced run the same call counts and counters.

The full record (environment, every run's metrics and detail, the summary)
is written to --out.  Exit code: 0 when all is well, 1 when a run failed or
the determinism gate tripped, 3 when a spread or a set-to-set difference
exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXTRA = ("realizable_p50_ms", "excluded_p50_ms", "census_order2_s", "census_order3_s", "error_ratio")


def parse_seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    rec = {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
           "elapsed_s": time.perf_counter() - t0}
    try:
        rec["detail"] = json.loads(lines[-2])["detail"]
        rec["result"] = json.loads(lines[-1])
    except (IndexError, ValueError, KeyError):
        rec["stderr"] = proc.stderr[-4000:]
    return rec


def spread(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse_by(first: float, later: float, better: str) -> float:
    """Relative change of the later median, positive when it is worse."""
    if not first:
        return 0.0
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-3", help="seeds, e.g. 1-10 or 1,4,7 (default %(default)s)")
    ap.add_argument("--sets", type=int, default=2, help="run sets (default %(default)s)")
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--out", default=str(ROOT / "perfbench" / "results" / "latest.json"))
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    names = args.workloads.split(",")

    runs = []
    for s in range(args.sets):
        for w in names:
            for seed, trace in [(seed, 0) for seed in seeds] + [(seeds[0], 1)]:
                rec = run_one(w, seed, args.seconds, trace)
                rec["set"] = s
                runs.append(rec)
                res = rec.get("result", {})
                print(f"set {s} {w:12s} seed {seed:3d} trace {trace}: exit {rec['exit']} "
                      f"correct {res.get('correct')} {rec['elapsed_s']:.1f}s", flush=True)

    status = 0
    summary = {"end_to_end": {}, "extra": {}, "per_layer": {}, "determinism": {}}
    for rec in runs:
        if rec["exit"] != 0 or not rec.get("result", {}).get("correct"):
            status = 1
            print(f"FAILED: {rec['workload']} seed {rec['seed']} trace {rec['trace']}: "
                  f"{rec.get('detail', {}).get('wrong') or rec.get('stderr', '')}")

    print("\nend-to-end metrics (median over seeds, quartile spread / median, bound)")
    for w in names:
        for m in SPEC["end_to_end"]:
            row = {}
            medians = []
            for s in range(args.sets):
                vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs
                        if r["workload"] == w and r["set"] == s and r["trace"] == 0 and "result" in r]
                if len(vals) < 2:
                    continue
                med, q1, q3, sp = spread(vals)
                medians.append(med)
                row[f"set{s}"] = {"median": med, "q1": q1, "q3": q3, "spread": sp, "n": len(vals)}
                flag = "" if m["name"] == "setup_s" or sp <= m["bound"] else "  OVER BOUND"
                if flag:
                    status = max(status, 3)
                print(f"  {w:12s} {m['name']:12s} set {s}: {med:12.6g} {m['unit']:6s} "
                      f"spread {sp:6.3f} (bound {m['bound']}, n={len(vals)}){flag}")
            for s, later in enumerate(medians[1:], 1):
                d = worse_by(medians[0], later, m["better"])
                row[f"set{s}_worse_by"] = d
                if d > m["bound"]:
                    status = max(status, 3)
                    print(f"  {w:12s} {m['name']:12s} set {s} worse than set 0 by {d:.3f} > {m['bound']}")
            summary["end_to_end"].setdefault(w, {})[m["name"]] = row

    print("\nworkload-specific metrics (median over untraced runs)")
    for w in names:
        for key in EXTRA:
            vals = [r["detail"][key] for r in runs if r["workload"] == w and r["trace"] == 0
                    and r.get("detail", {}).get(key) is not None]
            if vals:
                summary["extra"].setdefault(w, {})[key] = statistics.median(vals)
                print(f"  {w:12s} {key:18s} {statistics.median(vals):12.6g}")

    print("\nper-layer spans (first traced run of each workload: calls, busy ms, self ms)")
    for w in names:
        traced = [r for r in runs if r["workload"] == w and r["trace"] == 1 and "detail" in r]
        if not traced:
            continue
        d = traced[0]["detail"]
        summary["per_layer"][w] = traced[0]["result"]["metrics"]
        for name, v in {**d["layers"], **d["boundaries"], **d["setup_probe"]}.items():
            print(f"  {w:12s} {name:34s} {v['calls']:8d} {v['busy_ms']:12.3f} {v['self_ms']:12.3f}")
        ratio = traced[0]["result"]["metrics"]["trace.overhead_ratio"]["value"]
        print(f"  {w:12s} trace.overhead_ratio {ratio:.4f}; "
              f"realize.exhausted_us_per_iter {d['realize.exhausted_us_per_iter']}")

    print("\ndeterminism")
    for w in names:
        for seed in seeds:
            mine = [r for r in runs if r["workload"] == w and r["seed"] == seed and "detail" in r]
            digests = {json.dumps(r["detail"]["digest"]) for r in mine}
            counters = {json.dumps(r["detail"].get("deterministic_counters"), sort_keys=True)
                        for r in mine if r["trace"] == 1}
            same = len(digests) == 1 and len(counters) <= 1 and all(r["detail"]["deterministic"] for r in mine)
            summary["determinism"][f"{w}/{seed}"] = same
            if not same:
                status = 1
            print(f"  {w:12s} seed {seed:3d}: {len(mine)} runs, {'identical' if same else 'MISMATCH'}")

    env = next((r["detail"]["env"] for r in runs if "detail" in r), {})
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"env": {k: env.get(k) for k in ("nproc", "affinity", "python", "numpy", "blas_env",
                                                                 "machine")},
                               "config": {"seeds": seeds, "sets": args.sets, "seconds": args.seconds,
                                          "workloads": names},
                               "summary": summary, "runs": runs}, indent=1) + "\n")
    print(f"\nwrote {out}; status {status}")
    return status


if __name__ == "__main__":
    sys.exit(main())
