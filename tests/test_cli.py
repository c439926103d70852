import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import orthosign
from orthosign.cli import _config_from_args, build_parser, main, render_json
from orthosign.exact import RatMatrix, matrix_to_jsonable, parse_matrix_json
from orthosign.realize import SearchConfig


@pytest.fixture()
def fixture_dir(tmp_path):
    assert main(["fixtures", "--out", str(tmp_path / "fx")]) == 0
    return tmp_path / "fx"


def test_fixtures_writes_parseable_files(fixture_dir, q1):
    files = sorted(p.name for p in fixture_dir.iterdir())
    assert files == ["pstar.pat", "q1.json", "q2.json", "r3.json", "s3.pat", "t3.pat"]
    assert parse_matrix_json((fixture_dir / "q1.json").read_text()) == q1


def test_verify_q1(fixture_dir, capsys):
    code = main(["verify", str(fixture_dir / "q1.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "orthogonal: true" in out
    assert "det_sign: +1" in out
    assert "+++--++" in out


def test_verify_q2_json(fixture_dir, capsys):
    code = main(["verify", str(fixture_dir / "q2.json"), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["orthogonal"] is True
    assert report["det_sign"] == -1
    assert report["sign_pattern"][0] == "+++--++"


def test_verify_r3(fixture_dir, capsys):
    assert main(["verify", str(fixture_dir / "r3.json")]) == 0
    assert "det_sign: +1" in capsys.readouterr().out


def test_verify_non_orthogonal_exits_1(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_to_jsonable(RatMatrix.from_rows([[1, 1], [1, 1]]))))
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "orthogonal: false" in out
    assert "det_sign: 0" in out


def test_pattern_t3_cites_columns(fixture_dir, capsys):
    code = main(["pattern", str(fixture_dir / "t3.pat")])
    out = capsys.readouterr().out
    assert code == 1
    assert "pass: false" in out
    assert "columns 1 and 2" in out


def test_pattern_s3_passes(fixture_dir, capsys):
    assert main(["pattern", str(fixture_dir / "s3.pat")]) == 0
    assert "pass: true" in capsys.readouterr().out


def test_pattern_json_failure_indices(fixture_dir, capsys):
    assert main(["pattern", str(fixture_dir / "t3.pat"), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False
    assert {"axis": "col", "i": 0, "j": 1} in report["failures"]


def test_realize_s3(fixture_dir, capsys):
    code = main(["realize", str(fixture_dir / "s3.pat"), "--det", "+1", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "det +1: found" in out


def test_realize_t3_none(fixture_dir, capsys):
    assert main(["realize", str(fixture_dir / "t3.pat")]) == 1
    assert "no realization" in capsys.readouterr().out


def test_realize_json_roundtrip(fixture_dir, capsys):
    assert main(["realize", str(fixture_dir / "s3.pat"), "--seed", "3", "--json"]) == 0
    out = capsys.readouterr().out
    assert render_json(json.loads(out)) == out


def test_hunt_pstar_seeded(fixture_dir, capsys):
    seeds = f"{fixture_dir}/q1.json,{fixture_dir}/q2.json"
    code = main([
        "hunt", str(fixture_dir / "pstar.pat"),
        "--seed", "7", "--margin", "0.01", "--det", "any", "--seeds", seeds,
        "--denom-bound", "20014",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: AmbiguousFound" in out
    assert "certificate: exact orthogonal matrix verified" in out


def test_hunt_one_sided(fixture_dir, capsys):
    code = main(["hunt", str(fixture_dir / "s3.pat"), "--det", "+1", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "det +1: found" in out
    assert "det -1: none found" in out
    assert main(["hunt", str(fixture_dir / "s3.pat"), "--det", "-1", "--seed", "1",
                 "--restarts", "5", "--max-iters", "200"]) == 1


def test_hunt_single_sign_exits_1(fixture_dir, capsys):
    assert main(["hunt", str(fixture_dir / "s3.pat"), "--seed", "1"]) == 1
    assert "verdict: OnlyPlusFound" in capsys.readouterr().out


def test_hunt_seeded_json_deterministic(fixture_dir, capsys):
    seeds = f"{fixture_dir}/q1.json,{fixture_dir}/q2.json"
    argv = [
        "hunt", str(fixture_dir / "pstar.pat"),
        "--seed", "7", "--margin", "0.01", "--seeds", seeds, "--json",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert render_json(json.loads(first)) == first


def test_census_order_2(capsys):
    assert main(["census", "--order", "2"]) == 0
    out = capsys.readouterr().out
    assert "0 ambiguous" in out


def test_census_json_roundtrip_and_determinism(capsys):
    assert main(["census", "--order", "1", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["census", "--order", "1", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert render_json(json.loads(first)) == first


def test_census_requires_order(capsys):
    assert main(["census"]) == 2


def test_census_rejects_order_5(capsys):
    assert main(["census", "--order", "5"]) == 2
    assert "order <= 4" in capsys.readouterr().err


def test_malformed_pattern_file(tmp_path, capsys):
    bad = tmp_path / "bad.pat"
    bad.write_text("+-\n+x\n")
    assert main(["pattern", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err
    assert "column 2" in err


def test_malformed_matrix_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": 1, "cols": 1, "entries": [["1/x"]]}')
    assert main(["verify", str(bad)]) == 2
    assert "(row 1, entry 1)" in capsys.readouterr().err


def test_ragged_float_seed_file(fixture_dir, tmp_path, capsys):
    seeds = tmp_path / "s.json"
    seeds.write_text("[[1, 0], [0]]")
    assert main(["hunt", str(fixture_dir / "s3.pat"), "--seeds", str(seeds)]) == 2
    err = capsys.readouterr().err
    assert f"float matrix in {seeds} must be a square nested array of numbers" in err
    assert "inhomogeneous" not in err


@pytest.mark.parametrize("text, error", [
    ("[[true, false], [false, true]]", "must be a square nested array of numbers"),
    ('[["1", "0"], ["0", "1"]]', "must be a square nested array of numbers"),
    ("[[1, 0], [0, null]]", "must be a square nested array of numbers"),
    ("[]", "must be a square nested array of numbers"),
    ("[[1, 0]]", "must be a square nested array of numbers"),
    ("[[[1]]]", "must be a square nested array of numbers"),
    ("[[1, 0], [0, NaN]]", "has non-finite entries"),
    ("[[1" + "0" * 400 + ", 0], [0, 1]]", "has non-finite entries"),
    ('{"rows": 2, "cols": 2, "entries": [["1' + "0" * 400 + '", "0"], ["0", "1"]]}', "has non-finite entries"),
    ('{"rows": 2, "cols": 2, "entries": [["1' + "0" * 400 + '+sqrt2", "0"], ["0", "1"]]}', "has non-finite entries"),
])
def test_bad_float_seed_file(fixture_dir, tmp_path, capsys, text, error):
    seeds = tmp_path / "s.json"
    seeds.write_text(text)
    assert main(["hunt", str(fixture_dir / "s3.pat"), "--seeds", str(seeds)]) == 2
    assert f"float matrix in {seeds} {error}" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["s.json,", ","])
def test_empty_seed_file_name(fixture_dir, tmp_path, capsys, seeds):
    (tmp_path / "s.json").write_text("[[1, 0, 0], [0, 1, 0], [0, 0, 1]]")
    seeds = seeds.replace("s.json", str(tmp_path / "s.json"))
    assert main(["hunt", str(fixture_dir / "s3.pat"), "--seeds", seeds]) == 2
    err = capsys.readouterr().err
    assert f"--seeds has an empty file name in {seeds!r}" in err
    assert "Is a directory" not in err


def test_invalid_json_float_seed_file(fixture_dir, tmp_path, capsys):
    seeds = tmp_path / "s.json"
    seeds.write_text("[[1, 0],\n [0, 1]")
    assert main(["hunt", str(fixture_dir / "s3.pat"), "--seeds", str(seeds)]) == 2
    err = capsys.readouterr().err
    assert f"invalid JSON in {seeds}" in err
    assert "(line 2, column 8)" in err


def test_pattern_cites_all_zero_row(tmp_path, capsys):
    path = tmp_path / "z.pat"
    path.write_text("++\n00\n")
    assert main(["pattern", str(path)]) == 1
    assert "row 2 is all zero" in capsys.readouterr().out


def test_verify_rejects_non_square_matrix(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"rows": 2, "cols": 3, "entries": [["1", "0", "0"], ["0", "1", "0"]]}')
    assert main(["verify", str(path)]) == 2
    assert '"rows" and "cols" must be equal and at least 1, got 2 and 3' in capsys.readouterr().err


def test_bad_exact_seed_file_is_named(fixture_dir, tmp_path, capsys):
    good, bad = tmp_path / "a.json", tmp_path / "b.json"
    good.write_text('{"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "1"]]}')
    bad.write_text('{"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "x"]]}')
    for seeds in (f"{good},{bad}", f"{bad},{good}"):
        assert main(["hunt", str(fixture_dir / "s3.pat"), "--seeds", seeds]) == 2
        err = capsys.readouterr().err
        assert f"error: float matrix in {bad}: bad entry 'x' (row 2, entry 2)" in err
        assert str(good) not in err


def test_seed_file_of_the_wrong_order_is_named(fixture_dir, tmp_path, capsys):
    good, bad = tmp_path / "a.json", tmp_path / "b.json"
    good.write_text("[[1, 0, 0], [0, 1, 0], [0, 0, 1]]")
    bad.write_text('{"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "1"]]}')
    assert main(["hunt", str(fixture_dir / "s3.pat"), "--seeds", f"{good},{bad}"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: float matrix in {bad} has order 2, not the pattern's order 3\n"


def test_non_square_exact_seed_file_exits_2(fixture_dir, tmp_path, capsys):
    seeds = tmp_path / "s.json"
    seeds.write_text('{"rows": 2, "cols": 3, "entries": [["1", "0", "0"], ["0", "1", "0"]]}')
    assert main(["hunt", str(fixture_dir / "s3.pat"), "--seeds", str(seeds)]) == 2
    assert '"rows" and "cols" must be equal' in capsys.readouterr().err


def test_integers_beyond_the_digit_limit_exit_2(fixture_dir, tmp_path, capsys, int_digit_limit):
    big = "1" + "0" * int_digit_limit
    path = tmp_path / "m.json"
    path.write_text('{"rows": 1, "cols": 1, "entries": [["%s"]]}' % big)
    assert main(["verify", str(path)]) == 2
    assert "too many digits (row 1, entry 1)" in capsys.readouterr().err
    path.write_text("[[1, 0],\n [0, %s]]" % big)
    assert main(["hunt", str(fixture_dir / "s3.pat"), "--seeds", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"invalid JSON in {path}: a number has more than {int_digit_limit} digits (line 2, column 6)" in err


@pytest.mark.parametrize("where", ["file", "under file", "onto directory"])
def test_fixtures_unwritable_out_exits_2(tmp_path, capsys, where):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = {"file": blocker, "under file": blocker / "fx", "onto directory": tmp_path / "fx"}[where]
    culprit = out
    if where == "onto directory":
        culprit = out / "q1.json"
        culprit.mkdir(parents=True)
    assert main(["fixtures", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {culprit}: ")
    assert "Traceback" not in captured.err


def test_fixtures_json_lists_written_files(tmp_path, capsys):
    out = tmp_path / "fx"
    assert main(["fixtures", "--out", str(out), "--json"]) == 0
    written = json.loads(capsys.readouterr().out)["written"]
    assert sorted(written) == sorted(str(p) for p in out.iterdir())
    assert len(written) == 6


def test_census_ambiguity_exits_1(monkeypatch, capsys):
    from orthosign.hunt import CensusAmbiguityError

    def ambiguous(order, cfg):
        raise CensusAmbiguityError("both signs found")

    monkeypatch.setattr("orthosign.cli.census", ambiguous)
    assert main(["census", "--order", "2"]) == 1
    assert "CENSUS FAILURE: both signs found" in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["verify", "/nonexistent/never.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_realize_rejects_negative_budget(fixture_dir, capsys):
    # zero work must not be reported as "no realization found"
    assert main(["realize", str(fixture_dir / "s3.pat"), "--max-iters", "-3"]) == 2
    assert "max_iters" in capsys.readouterr().err


def test_realize_rejects_negative_seed(fixture_dir, capsys):
    # numpy's own complaint would not name the flag
    assert main(["realize", str(fixture_dir / "s3.pat"), "--seed", "-1"]) == 2
    assert "rng_seed must be nonnegative" in capsys.readouterr().err


def test_realize_rejects_tolerance_flags(fixture_dir, capsys):
    # the success test's tolerances are engine constants, not settings
    for flag in ("--zero-tol", "--ortho-tol"):
        with pytest.raises(SystemExit) as exc:
            main(["realize", str(fixture_dir / "s3.pat"), flag, "1e-9"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


def test_search_flags_set_every_config_field():
    # a non-default value for every search flag; a SearchConfig field that no
    # flag reaches would be a hidden setting
    want = SearchConfig(restarts=7, max_iters=123, margin=0.03, rng_seed=11, time_budget=2.5, denom_bound=99)
    args = build_parser().parse_args(
        ["realize", "s3.pat", "--seed", "11", "--restarts", "7", "--max-iters", "123", "--margin", "0.03",
         "--time-budget", "2.5", "--denom-bound", "99"])
    assert _config_from_args(args) == want
    assert {f.name for f in fields(SearchConfig)} == {
        "restarts", "max_iters", "margin", "rng_seed", "time_budget", "denom_bound"}


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["realize"])
    assert exc.value.code == 2


def test_float_seed_file(fixture_dir, tmp_path, capsys):
    # seeds may also be plain nested-array JSON
    from orthosign.realize import to_float

    q1 = parse_matrix_json((fixture_dir / "q1.json").read_text())
    arr = [[float(v) for v in row] for row in to_float(q1)]
    path = tmp_path / "q1f.json"
    path.write_text(json.dumps(arr))
    code = main([
        "hunt", str(fixture_dir / "pstar.pat"),
        "--seed", "2", "--margin", "0.01", "--seeds", str(path),
        "--restarts", "2", "--max-iters", "300",
    ])
    out = capsys.readouterr().out
    assert "det +1: found" in out


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_closed_reader_exits_141_quietly(capsys):
    assert main(["census", "--order", "2"], out=_ClosedPipe()) == 141
    assert "Traceback" not in capsys.readouterr().err


def test_module_entry_point(fixture_dir):
    env = dict(os.environ, PYTHONPATH=str(Path(orthosign.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "orthosign", "pattern", str(fixture_dir / "t3.pat")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stdout.startswith("pass: false\n")
    assert proc.stderr == ""


def test_package_imports_neither_scipy_nor_sympy(fixture_dir):
    # both may be installed next to numpy, where an accidental import would
    # pass every other test
    script = ("import sys, orthosign\n"
              "from orthosign.cli import main\n"
              "main(['census', '--order', '2', '--json'])\n"
              f"main(['hunt', {str(fixture_dir / 's3.pat')!r}, '--denom-bound', '8'])\n"
              "print(sorted(m for m in ('scipy', 'sympy') if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(orthosign.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_closed_pipe_exits_141_quietly():
    # block-buffered, short output first meets the closed pipe when flushed;
    # the interpreter's own final flush must then not raise again
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(orthosign.__file__).parents[1])
    proc = subprocess.Popen([sys.executable, "-m", "orthosign", "census", "--order", "2"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == b""
