"""Command-line front end.

Subcommands: verify, pattern, realize, hunt, census, fixtures.  Exit codes
follow verifier conventions: 0 for an affirmative finding, 1 for a negative
mathematical finding (not orthogonal, nothing found, check failed), 2 for
usage or input errors, 141 when the output's reader closes early.  --json
emits a machine-readable report; identical invocations with the same --seed
produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import fixtures as fixture_catalog
from .exact import ParseError, det_sign, is_orthogonal, load_json, parse_matrix_json
from .hunt import CensusAmbiguityError, census, census_default_config, classify_det_sign
from .realize import SearchConfig, search_realization
from .signpat import SignPattern, UnsupportedOrderError, necessary_check, sign_pattern_of, to_float


def render_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from None


def load_pattern(path: str) -> SignPattern:
    return SignPattern.from_text(_read_text(path))


def load_exact_matrix(path: str):
    return parse_matrix_json(_read_text(path))


def load_float_matrix(path: str) -> np.ndarray:
    """Accept either the exact JSON format or a plain nested array of numbers."""
    text = _read_text(path)
    obj = load_json(text, f" in {path}")
    # checked by hand: numpy would read true and "1" as 1.0
    if not isinstance(obj, dict) and not (
            isinstance(obj, list) and obj and all(isinstance(row, list) and len(row) == len(obj)
                                                  and all(type(v) in (int, float) for v in row) for row in obj)):
        raise ParseError(f"float matrix in {path} must be a square nested array of numbers")
    try:
        M = parse_matrix_json(text) if isinstance(obj, dict) else obj
    except ParseError as e:  # an exact-format seed: name its file
        raise ParseError(f"float matrix in {path}: {e}") from None
    try:
        return to_float(M)
    except (ValueError, OverflowError):  # the shape is checked: an entry is inf, NaN or too large
        raise ParseError(f"float matrix in {path} has non-finite entries") from None


def _config_from_args(args) -> SearchConfig:
    # each search flag's dest is the name of the SearchConfig field it sets
    return SearchConfig(**{f.name: getattr(args, f.name) for f in fields(SearchConfig)})


def _add_search_flags(p: argparse.ArgumentParser, defaults: SearchConfig | None = None):
    d = defaults or SearchConfig()
    p.add_argument("--seed", type=int, dest="rng_seed", default=d.rng_seed, help="RNG seed (default %(default)s)")
    p.add_argument("--restarts", type=int, default=d.restarts, help="random restarts (default %(default)s)")
    p.add_argument("--max-iters", type=int, default=d.max_iters, help="descent iterations per restart (default %(default)s)")
    p.add_argument("--margin", type=float, default=d.margin, help="required sign clearance (default %(default)s)")
    p.add_argument("--time-budget", type=float, default=None,
                   help="wall-clock limit in seconds for the whole command, all searches of a hunt or "
                        "census together (default none)")
    p.add_argument("--denom-bound", type=int, default=None, help="certify finds with denominators up to this bound")


def _format_float(x: float) -> str:
    return f"{x:.6g}"


def _print_matrix(Q: np.ndarray, out):
    for row in Q:
        print("  " + "  ".join(f"{v: .12g}" for v in row), file=out)


def _describe_failure(f) -> str:
    axis = "row" if f.axis == "row" else "column"
    if f.i == f.j:
        return f"{axis} {f.i + 1} is all zero"
    return f"{axis}s {f.i + 1} and {f.j + 1} force a nonzero dot product"


def _result_lines(tag: str, res) -> list:
    if res is None:
        return [f"det {tag}: none found"]
    lines = [
        f"det {tag}: found (restart {res.restart_index}, {res.iterations} iterations)",
        f"  ortho residual: {res.ortho_residual:.3e}",
        f"  min margin: {_format_float(res.min_margin)}",
        f"  max zero violation: {res.max_zero_violation:.3e}",
    ]
    if res.certificate is not None:
        lines.append("  certificate: exact orthogonal matrix verified")
    return lines


def cmd_verify(args, out) -> int:
    M = load_exact_matrix(args.matrix)
    ortho = is_orthogonal(M)
    ds = det_sign(M)
    pat = sign_pattern_of(M)
    if args.json:
        out.write(render_json({
            "orthogonal": ortho,
            "det_sign": ds,
            "sign_pattern": pat.to_text().splitlines(),
        }))
    else:
        print(f"orthogonal: {str(ortho).lower()}", file=out)
        print(f"det_sign: {ds:+d}" if ds else "det_sign: 0", file=out)
        print("sign pattern:", file=out)
        print(pat.to_text(), file=out)
    return 0 if ortho else 1


def cmd_pattern(args, out) -> int:
    S = load_pattern(args.pattern)
    report = necessary_check(S)
    if args.json:
        out.write(render_json({"pattern": S.to_text().splitlines(), **report.to_json_dict()}))
    else:
        print(f"pass: {str(report.passed).lower()}", file=out)
        for f in report.failures:
            print(f"  {_describe_failure(f)}", file=out)
    return 0 if report.passed else 1


def cmd_realize(args, out) -> int:
    S = load_pattern(args.pattern)
    cfg = _config_from_args(args)
    target = {"+1": 1, "-1": -1, "any": "any"}[args.det]
    res = search_realization(S, target, cfg)
    if args.json:
        out.write(render_json({
            "pattern": S.to_text().splitlines(),
            "target": args.det,
            "found": res is not None,
            "result": None if res is None else res.to_json_dict(),
        }))
    elif res is None:
        print("no realization found within budget (not an impossibility proof)", file=out)
    else:
        print("\n".join(_result_lines(f"{res.det_sign:+d}", res)), file=out)
        print("matrix:", file=out)
        _print_matrix(res.q, out)
    return 0 if res is not None else 1


def cmd_hunt(args, out) -> int:
    S = load_pattern(args.pattern)
    cfg = _config_from_args(args)
    paths = args.seeds.split(",") if args.seeds else []
    if "" in paths:
        raise ParseError(f"--seeds has an empty file name in {args.seeds!r}")
    sides = {"any": (1, -1), "+1": (1,), "-1": (-1,)}[args.det]
    ev = classify_det_sign(S, cfg, seeds=[load_float_matrix(p) for p in paths], sides=sides)
    if args.json:
        out.write(render_json(ev.to_json_dict()))
    else:
        print(f"verdict: {ev.verdict}", file=out)
        for tag, res in (("+1", ev.plus_result), ("-1", ev.minus_result)):
            print("\n".join(_result_lines(tag, res)), file=out)
    found = {1: ev.plus_result, -1: ev.minus_result}
    return 0 if all(found[side] is not None for side in sides) else 1


def cmd_census(args, out) -> int:
    if args.order is None:
        raise ParseError("census requires --order")
    cfg = _config_from_args(args)
    report = census(args.order, cfg)
    if args.json:
        out.write(render_json(report.to_json_dict()))
    else:
        print(
            f"census order {report.order}: {report.orbits_examined} orbits, "
            f"{report.ambiguous_count} ambiguous, margin {report.margin}, "
            f"{report.elapsed_seconds:.1f}s",
            file=out,
        )
        width = max(len(r.pattern.to_text().replace("\n", "/")) for r in report.rows)
        for r in report.rows:
            name = r.pattern.to_text().replace("\n", "/").ljust(width)
            if r.evidence is None:
                detail = "pruned by necessary check"
            else:
                found = [res for res in (r.evidence.plus_result, r.evidence.minus_result) if res is not None]
                detail = "; ".join(
                    f"det {res.det_sign:+d} residual {res.ortho_residual:.1e}" for res in found
                ) or "searched, nothing found"
            print(f"  {name}  {r.verdict:<15} {detail}", file=out)
    return 0


def cmd_fixtures(args, out) -> int:
    path = target = Path(args.out)
    written = []
    try:
        target.mkdir(parents=True, exist_ok=True)
        for name in fixture_catalog.FIXTURE_NAMES:
            path = target / fixture_catalog.fixture_filename(name)
            path.write_text(fixture_catalog.fixture_text(name))
            written.append(str(path))
    except OSError as e:
        raise ParseError(f"cannot write {path}: {e.strerror}") from None
    if args.json:
        out.write(render_json({"written": written}))
    else:
        for p in written:
            print(f"wrote {p}", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthosign",
        description="Verify, search for and classify orthogonal matrices with prescribed sign patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="exact orthogonality/determinant/pattern check of an exact matrix file")
    p.add_argument("matrix", help="exact matrix JSON file")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("pattern", help="combinatorial necessary check of a sign pattern file")
    p.add_argument("pattern", help="pattern text file (+/-/0 grid)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_pattern)

    p = sub.add_parser("realize", help="search for an orthogonal realization of a pattern")
    p.add_argument("pattern", help="pattern text file")
    p.add_argument("--det", choices=["+1", "-1", "any"], default="any", help="target determinant sign")
    _add_search_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_realize)

    p = sub.add_parser("hunt", help="classify the determinant signs a pattern can realize")
    p.add_argument("pattern", help="pattern text file")
    p.add_argument("--det", choices=["+1", "-1", "any"], default="any",
                   help="hunt one side only, or both (default)")
    p.add_argument("--seeds", default=None, help="comma-separated matrix files polished before blind search")
    _add_search_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_hunt)

    p = sub.add_parser("census", help="classify all patterns of a small order up to symmetry")
    p.add_argument("--order", type=int, default=None, help="pattern order (1-4)")
    _add_search_flags(p, census_default_config())
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_census)

    p = sub.add_parser("fixtures", help="write the bundled example matrices and patterns to files")
    p.add_argument("--out", default="fixtures", help="output directory (default %(default)s)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_fixtures)

    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args, out)
        out.flush()
        return code
    except BrokenPipeError:
        # the reader closed early; on devnull, the interpreter's final flush cannot raise
        if out is sys.stdout:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 141
    except CensusAmbiguityError as e:
        print(f"CENSUS FAILURE: {e}", file=sys.stderr)
        return 1
    except (ParseError, UnsupportedOrderError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
