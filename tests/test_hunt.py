import numpy as np
import pytest

from orthosign.hunt import (
    AMBIGUOUS_FOUND,
    NONE_FOUND,
    ONLY_MINUS_FOUND,
    ONLY_PLUS_FOUND,
    census,
    census_default_config,
    classify_det_sign,
    exhaustive_2x2_oracle,
)
from orthosign.realize import SearchConfig, ortho_residual, rational_certify, refine_from, to_float
from orthosign.signpat import GroupElement, SignPattern, UnsupportedOrderError, act, sign_pattern_of, waters_pattern

from oracles import perturb, reference_census_rows


def test_classify_pstar_with_seeds(pstar, q1, q2):
    rng = np.random.default_rng(2)
    seeds = [perturb(to_float(q1), 1e-2, rng), perturb(to_float(q2), 1e-2, rng)]
    # seeds may come as a list of matrices or as one (k, n, n) array
    evs = [classify_det_sign(pstar, SearchConfig(margin=0.01, rng_seed=5), seeds=given)
           for given in (seeds, np.stack(seeds))]
    for ev in evs:
        assert ev.verdict == AMBIGUOUS_FOUND
        assert ev.plus_result.det_sign == 1
        assert ev.minus_result.det_sign == -1
        assert ev.budgets["seeds_polished"] == 2
        assert ev.budgets["plus"]["restarts"] == 0  # settled by the seed
    assert evs[0].to_json_dict() == evs[1].to_json_dict()


def test_classify_sides_are_plus_or_minus_one(pstar, q1):
    cfg = SearchConfig(margin=0.01, restarts=1, max_iters=1)
    for sides in (("+1",), (1, "-1"), (0,), (2, -1)):
        with pytest.raises(ValueError, match="sides must be"):
            classify_det_sign(pstar, cfg, sides=sides)
    # no side at all: the seeds are polished and nothing is searched blind
    ev = classify_det_sign(pstar, cfg, seeds=[to_float(q1)], sides=())
    assert ev.verdict == ONLY_PLUS_FOUND
    assert ev.budgets["plus"]["restarts"] == ev.budgets["minus"]["restarts"] == 0


def test_classify_sides_may_be_any_iterable(s3):
    # a generator of sides is read once, not spent by the check of its values
    cfg = SearchConfig(restarts=4, max_iters=250, rng_seed=3)
    want = classify_det_sign(s3, cfg, sides=(1, -1)).to_json_dict()
    assert (want["budgets"]["plus"]["restarts"], want["budgets"]["minus"]["restarts"]) != (0, 0)
    for sides in ((side for side in (1, -1)), np.array([1, -1])):
        assert classify_det_sign(s3, cfg, sides=sides).to_json_dict() == want


def test_classify_waters_3_unseeded():
    ev = classify_det_sign(waters_pattern(3), SearchConfig(rng_seed=9))
    assert ev.verdict == ONLY_PLUS_FOUND
    assert ev.plus_result is not None and ev.minus_result is None


def test_classify_t3(t3):
    ev = classify_det_sign(t3, SearchConfig(rng_seed=9))
    assert ev.verdict == NONE_FOUND
    assert ev.plus_result is None and ev.minus_result is None


def test_classify_pstar_certified_from_exact_seeds(pstar, q1, q2):
    cfg = SearchConfig(margin=0.01, rng_seed=0)
    plus = refine_from(to_float(q1), pstar, "any", cfg)
    minus = refine_from(to_float(q2), pstar, "any", cfg)
    assert (plus.det_sign, minus.det_sign) == (1, -1)
    assert rational_certify(plus.q, 8) == q1
    assert rational_certify(minus.q, 20014) == q2


def test_exhaustive_2x2_oracle_values():
    oracle = exhaustive_2x2_oracle()
    assert oracle[SignPattern.from_rows([[1, -1], [1, 1]])] == {1}
    assert oracle[SignPattern.from_rows([[1, 1], [1, -1]])] == {-1}
    assert oracle[SignPattern.from_rows([[1, 0], [0, 1]])] == {1}
    assert len(oracle) == 16
    # singleton sign sets throughout: the determinant sign is unique at n = 2
    assert all(len(s) == 1 for s in oracle.values())


def test_census_order_1():
    report = census(1)
    assert report.ambiguous_count == 0
    verdicts = {row.pattern.to_text(): row.verdict for row in report.rows}
    assert verdicts == {"-": ONLY_MINUS_FOUND, "0": NONE_FOUND}
    # the orbit representative of {[+], [-]} realizes only its own sign; the
    # two raw patterns classify to the two single-sign verdicts
    assert classify_det_sign(SignPattern(1, (1,))).verdict == ONLY_PLUS_FOUND
    assert classify_det_sign(SignPattern(1, (-1,))).verdict == ONLY_MINUS_FOUND


def test_census_order_2_matches_oracle():
    report = census(2)
    assert report.ambiguous_count == 0
    oracle = exhaustive_2x2_oracle()
    want_of = {frozenset({1}): ONLY_PLUS_FOUND, frozenset({-1}): ONLY_MINUS_FOUND}
    for row in report.rows:
        expected = oracle.get(row.pattern)
        want = NONE_FOUND if expected is None else want_of[expected]
        assert row.verdict == want, row.pattern.to_text()
    # coverage: every oracle pattern's orbit representative is in the report
    from orthosign.signpat import canonical_form

    reps = {row.pattern for row in report.rows}
    for pattern in oracle:
        assert canonical_form(pattern) in reps


@pytest.mark.parametrize("rng_seed", [0, 7])
def test_census_matches_side_by_side_reference(rng_seed):
    # one batch for the whole census must give every row, budget and verdict
    # of searching each orbit side on its own
    cfg = SearchConfig(restarts=4, max_iters=100, rng_seed=rng_seed)
    report = census(3, cfg)
    want = reference_census_rows(3, cfg)
    assert [row.to_json_dict() for row in report.rows] == want
    searched = [row["evidence"] for row in want if row["necessary_pass"]]
    assert any(ev["plus"] or ev["minus"] for ev in searched)
    assert any(ev["budgets"]["plus"]["restarts"] == cfg.restarts for ev in searched)


def test_census_time_budget_covers_whole_census(monkeypatch):
    # a zero budget expires before the first descent round: every row is
    # still reported, and the only finds are random bases that realize
    # their pattern outright (seed 1 draws one for the -I orbit)
    import orthosign.realize as realize

    def no_descent(*args):
        raise AssertionError("chart evaluated after the census deadline")

    monkeypatch.setattr(realize, "_chart_values", no_descent)
    report = census(3, SearchConfig(restarts=20, max_iters=500, rng_seed=1, time_budget=0.0))
    assert report.orbits_examined == 42 and report.ambiguous_count == 0
    finds = [(row.pattern, res) for row in report.rows if row.evidence is not None
             for res in (row.evidence.plus_result, row.evidence.minus_result) if res is not None]
    assert finds
    for pattern, res in finds:
        assert res.iterations == 0 and ortho_residual(res.q) == 0.0
        assert sign_pattern_of(res.q) == pattern
        assert round(np.linalg.det(res.q)) == res.det_sign


def test_census_order_4():
    # the paper's order-4 uniqueness claim, at the default budget and seed
    cfg = census_default_config()
    report = census(4, cfg)
    assert report.orbits_examined == 759 and report.ambiguous_count == 0
    assert sum(row.orbit_size for row in report.rows) == 3**16
    searched = [row for row in report.rows if row.necessary_pass]
    assert len(searched) == 17
    verdicts = [row.verdict for row in searched]
    assert verdicts.count(ONLY_PLUS_FOUND) == 12 and verdicts.count(ONLY_MINUS_FOUND) == 5
    for row in searched:
        for res in (row.evidence.plus_result, row.evidence.minus_result):
            if res is not None:
                assert sign_pattern_of(res.q) == row.pattern
                assert np.linalg.slogdet(res.q)[0] == res.det_sign
                assert ortho_residual(res.q) <= 1e-9


def test_census_rejects_large_order():
    with pytest.raises(UnsupportedOrderError):
        census(5)


def test_census_row_budgets_default():
    cfg = census_default_config()
    assert cfg.restarts == 20
    assert cfg.max_iters == 500


def test_symmetry_pushforward_on_pstar_find(pstar, q1):
    cfg = SearchConfig(margin=0.01, rng_seed=0)
    res = refine_from(to_float(q1), pstar, "any", cfg)
    assert res is not None and res.det_sign == 1
    g = GroupElement((-1,) + (1,) * 6, (1,) * 7, tuple(range(7)), tuple(range(7)))
    flipped = act(g, res.q)
    assert ortho_residual(flipped) <= 1e-9
    assert sign_pattern_of(flipped) == act(g, pstar)
    assert g.det_sign_factor() == -1
    assert np.sign(np.linalg.det(flipped)) == -res.det_sign


def test_census_report_json_shape():
    report = census(1)
    d = report.to_json_dict()
    assert d["order"] == 1
    assert d["ambiguous_count"] == 0
    assert "elapsed_seconds" not in d
    assert len(d["rows"]) == report.orbits_examined
