#!/usr/bin/env python3
"""Census driver: classify every pattern of a small order up to symmetry.

Prints the per-orbit verdict table and writes the JSON report (including
wall time) to a file.
"""

import argparse
import json
import sys

from orthosign import census
from orthosign.hunt import census_default_config
from orthosign.realize import SearchConfig


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=3)
    ap.add_argument("--long-run", action="store_true",
                    help="allow order 4 (about 15 s and 1.9 GB peak memory on 2 cores)")
    ap.add_argument("--restarts", type=int, default=None)
    ap.add_argument("--max-iters", type=int, default=None)
    ap.add_argument("--margin", type=float, default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json-out", default=None, help="default census_orderN.json")
    args = ap.parse_args()

    base = census_default_config()
    cfg = SearchConfig(
        restarts=args.restarts if args.restarts is not None else base.restarts,
        max_iters=args.max_iters if args.max_iters is not None else base.max_iters,
        margin=args.margin if args.margin is not None else base.margin,
        rng_seed=args.seed,
    )
    report = census(args.order, cfg, allow_order_4=args.long_run)

    print(
        f"order {report.order}: {report.orbits_examined} orbits, "
        f"{report.ambiguous_count} ambiguous, {report.elapsed_seconds:.1f}s"
    )
    for row in report.rows:
        print(f"  {row.pattern.to_text().replace(chr(10), '/'):<12} {row.verdict}")

    out = args.json_out or f"census_order{report.order}.json"
    with open(out, "w") as fh:
        json.dump(report.to_json_dict(include_elapsed=True), fh, indent=2, sort_keys=True)
    print(f"report written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
