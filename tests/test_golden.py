"""Seeded CLI runs against committed golden outputs.

Each tests/golden/<name>.json holds the exit code and the parsed --json
stdout of the command GOLDEN[name], run on the files that `orthosign
fixtures` writes.  Every non-float leaf (verdicts, restart indices,
iterations, budgets, certificates) must match exactly and every float within
1e-9, so a last-bit BLAS difference on another machine passes while a
changed search trajectory or verdict fails.  A change that moves
trajectories on purpose re-baselines the files in the same change with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import math
import tempfile
from pathlib import Path

import pytest

from orthosign.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
FLOAT_TOL = 1e-9

# {fx} is the directory the bundled fixtures are written to
GOLDEN = {
    "census_order1_seed1": ["census", "--order", "1", "--json", "--seed", "1"],
    "census_order2_seed1": ["census", "--order", "2", "--json", "--seed", "1"],
    "census_order3_seed1": ["census", "--order", "3", "--json", "--seed", "1"],
    "realize_s3_any_seed3": ["realize", "{fx}/s3.pat", "--det", "any", "--seed", "3", "--json"],
    "hunt_s3_seed3": ["hunt", "{fx}/s3.pat", "--seed", "3", "--json"],
    "hunt_t3_seed3": ["hunt", "{fx}/t3.pat", "--seed", "3", "--json"],
}


def run_golden(name: str, fx: Path) -> dict:
    buf = io.StringIO()
    code = main([a.format(fx=fx) for a in GOLDEN[name]], buf)
    return {"exit_code": code, "stdout": json.loads(buf.getvalue())}


def assert_matches(got, want, path="$"):
    """got equals want, floats within FLOAT_TOL; path names the leaf."""
    if isinstance(want, float):
        assert isinstance(got, float) and math.isclose(got, want, rel_tol=0.0, abs_tol=FLOAT_TOL), (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), (path, got, want)
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), (path, got, want)
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


@pytest.fixture(scope="module")
def fx(tmp_path_factory):
    fx = tmp_path_factory.mktemp("golden") / "fx"
    assert main(["fixtures", "--out", str(fx)], io.StringIO()) == 0
    return fx


def test_golden_files_are_the_declared_commands():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seeded_cli_output_matches_golden(name, fx):
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert_matches(run_golden(name, fx), want)


def test_float_leaves_compare_within_tolerance_only():
    assert_matches({"a": [1.0, "x", 2]}, {"a": [1.0 + 1e-12, "x", 2]})
    assert_matches(float("inf"), float("inf"))
    for got, want in ((1.0 + 1e-6, 1.0), (3, 3.0), (2, 3), ("x", "y"), ([1], [1, 2]), ({"a": 1}, {"b": 1})):
        with pytest.raises(AssertionError):
            assert_matches(got, want)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        fx = Path(tmp) / "fx"
        main(["fixtures", "--out", str(fx)], io.StringIO())
        for name in GOLDEN:
            text = json.dumps(run_golden(name, fx), indent=2, sort_keys=True) + "\n"
            (GOLDEN_DIR / f"{name}.json").write_text(text)
            print(f"wrote {GOLDEN_DIR / name}.json")
