"""Command-line front end.

Subcommands: verify, pattern, realize, hunt, census, fixtures.  Exit codes
follow verifier conventions: 0 for an affirmative finding, 1 for a negative
mathematical finding (not orthogonal, nothing found, check failed), 2 for
usage or input errors, 141 when the output's reader closes early.

Each subcommand's handler returns one report twice over, as a JSON object
and as text lines; main alone writes it, as JSON under --json and as the
lines otherwise.  Identical invocations with the same --seed produce
byte-identical JSON.
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
from .exact import ParseError, det_sign, is_orthogonal, load_json, matrix_from_jsonable, parse_matrix_json
from .hunt import CensusAmbiguityError, census, census_default_config, classify_det_sign
from .realize import SearchConfig, search_realization
from .signpat import SignPattern, necessary_check, sign_pattern_of, to_float


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
    obj = load_json(_read_text(path), f" in {path}")
    # checked by hand: numpy would read true and "1" as 1.0
    if not isinstance(obj, dict) and not (
            isinstance(obj, list) and obj and all(isinstance(row, list) and len(row) == len(obj)
                                                  and all(type(v) in (int, float) for v in row) for row in obj)):
        raise ParseError(f"float matrix in {path} must be a square nested array of numbers")
    try:
        M = matrix_from_jsonable(obj) if isinstance(obj, dict) else obj
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


# Each cmd_* returns (exit code, JSON report, text lines); main writes one of the two.

def cmd_verify(args):
    M = load_exact_matrix(args.matrix)
    ortho = is_orthogonal(M)
    ds = det_sign(M)
    pat = sign_pattern_of(M).to_text().splitlines()
    report = {"orthogonal": ortho, "det_sign": ds, "sign_pattern": pat}
    lines = [f"orthogonal: {str(ortho).lower()}", f"det_sign: {ds:+d}" if ds else "det_sign: 0", "sign pattern:", *pat]
    return (0 if ortho else 1), report, lines


def cmd_pattern(args):
    S = load_pattern(args.pattern)
    check = necessary_check(S)
    report = {"pattern": S.to_text().splitlines(), **check.to_json_dict()}
    lines = [f"pass: {str(check.passed).lower()}", *(f"  {_describe_failure(f)}" for f in check.failures)]
    return (0 if check.passed else 1), report, lines


def cmd_realize(args):
    S = load_pattern(args.pattern)
    cfg = _config_from_args(args)
    target = {"+1": 1, "-1": -1, "any": "any"}[args.det]
    res = search_realization(S, target, cfg)
    report = {
        "pattern": S.to_text().splitlines(),
        "target": args.det,
        "found": res is not None,
        "result": None if res is None else res.to_json_dict(),
    }
    if res is None:
        return 1, report, ["no realization found within budget (not an impossibility proof)"]
    matrix = ["  " + "  ".join(f"{v: .12g}" for v in row) for row in res.q]
    return 0, report, [*_result_lines(f"{res.det_sign:+d}", res), "matrix:", *matrix]


def cmd_hunt(args):
    S = load_pattern(args.pattern)
    cfg = _config_from_args(args)
    paths = args.seeds.split(",") if args.seeds else []
    if "" in paths:
        raise ParseError(f"--seeds has an empty file name in {args.seeds!r}")
    seeds = [load_float_matrix(p) for p in paths]
    for path, Q in zip(paths, seeds):
        if len(Q) != S.n:
            raise ParseError(f"float matrix in {path} has order {len(Q)}, not the pattern's order {S.n}")
    sides = {"any": (1, -1), "+1": (1,), "-1": (-1,)}[args.det]
    ev = classify_det_sign(S, cfg, seeds=seeds, sides=sides)
    lines = [f"verdict: {ev.verdict}", *_result_lines("+1", ev.plus_result), *_result_lines("-1", ev.minus_result)]
    found = {1: ev.plus_result, -1: ev.minus_result}
    return (0 if all(found[side] is not None for side in sides) else 1), ev.to_json_dict(), lines


def cmd_census(args):
    if args.order is None:
        raise ParseError("census requires --order")
    cfg = _config_from_args(args)
    report = census(args.order, cfg)
    lines = [
        f"census order {report.order}: {report.orbits_examined} orbits, "
        f"{report.ambiguous_count} ambiguous, margin {report.margin}, "
        f"{report.elapsed_seconds:.1f}s"
    ]
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
        lines.append(f"  {name}  {r.verdict:<15} {detail}")
    return 0, report.to_json_dict(), lines


def cmd_fixtures(args):
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
    return 0, {"written": written}, [f"wrote {p}" for p in written]


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
        code, report, lines = args.handler(args)
        out.write(render_json(report) if args.json else "".join(f"{line}\n" for line in lines))
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
        sys.stderr.write(f"CENSUS FAILURE: {e}\n")
        return 1
    except ValueError as e:  # ParseError and UnsupportedOrderError among them
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
