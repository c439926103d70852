"""Tiny-size smoke test of the benchmark harness.

    python3 -m pytest -q perfbench/test_smoke.py

It lives outside the tier-1 suite (pytest's testpaths is tests/).  It builds
each workload at a tiny size, runs untraced and traced passes, and checks that
every answer is right, that passes agree, that the metric names are exactly
the ones BENCHMARK.json declares, and that the runner refuses to run without
the package sources.
"""

import json
import shutil
import subprocess
import sys

import run  # sets the BLAS thread variables before numpy is imported

sys.path.insert(0, str(run.SRC))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "exact-verify": {"rat": 6, "quad": 2, "nudged": 2, "swapped": 2},
    "hunt": {"replicas": 1, "restarts": 1, "max_iters": 20, "waters_orders": range(2, 4)},
    "census": {"orders": (2,), "sweeps": 1},
}


def test_workloads_are_right_deterministic_and_report_the_declared_metrics():
    for name in TINY:
        w = workloads.build(name, 7, **TINY[name])
        untraced, traced, probes, _ = run.measure(w, 0, trace=True)
        passes = untraced + traced
        assert [x for p in passes for x in p["wrong"]] == [], name
        assert len({p["digest"] for p in passes}) == 1, name
        assert len({run.counters_of(p) for p in traced}) == 1, name
        e2e, _ = run.end_to_end(w, untraced, [0.1, 0.2, 0.3])
        assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]]
        assert all(m["value"] > 0 for m in e2e.values()), name
        layer, _ = run.per_layer(traced, untraced, probes)
        assert sorted(layer) == sorted(m["name"] for m in SPEC["per_layer"])
        assert layer["fixtures.get_fixture.calls"]["value"] == 6
        if name == "census":
            assert layer["signpat.orbit_patterns"]["value"] == 81
            assert layer["cli.main.calls"]["value"] == 1


def test_tracer_restores_the_package_functions():
    from orthosign import cli, hunt, realize

    before = (cli.census, hunt.classify_det_sign, realize.search_realization)
    with spans.Tracer():
        assert hunt.classify_det_sign is not before[1]
    assert (cli.census, hunt.classify_det_sign, realize.search_realization) == before


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_percentile(1) is None
    assert run.tail_percentile(50) == 75.0
    assert run.tail_percentile(163) == 90.0
    assert run.tail_percentile(200) == 95.0
    assert run.percentile([3, 1, 2], None) == 3
    assert run.percentile(list(range(1, 101)), 90.0) == 90


def test_runner_fails_without_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run([*SPEC["command"], "--workload", "hunt", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
