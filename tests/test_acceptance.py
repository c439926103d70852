"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live; the
census criterion dominates the runtime.
"""

import random
import time
from contextlib import contextmanager

import numpy as np

from orthosign.exact import RatMatrix, det, det_sign, is_orthogonal
from orthosign.hunt import (
    AMBIGUOUS_FOUND,
    NONE_FOUND,
    ONLY_MINUS_FOUND,
    ONLY_PLUS_FOUND,
    census,
    classify_det_sign,
    exhaustive_2x2_oracle,
)
from orthosign.realize import (
    SearchConfig,
    ortho_residual,
    perturb,
    rational_certify,
    refine_from,
    search_realization,
    to_float,
)
from orthosign.signpat import (
    GroupElement,
    SignPattern,
    act,
    canonical_form,
    necessary_check,
    random_group_element,
    sign_pattern_of,
    waters_forced_sign,
    waters_pattern,
)
from oracles import chart_q, chart_value_grad, det_cofactor, exact_cayley, grid_scale, rational_matrix_to_grid


@contextmanager
def criterion(num: int, limit: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nacceptance criterion {num}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    if limit is not None and elapsed >= limit:
        print(f"\nacceptance criterion {num}: FAIL (runtime {elapsed:.2f}s exceeds {limit:.0f}s)")
        raise AssertionError(f"criterion {num} runtime {elapsed:.2f}s exceeds limit {limit}s")
    print(f"\nacceptance criterion {num}: PASS ({elapsed:.2f}s)")


def test_criterion_1_exact_pair_verification(q1, q2):
    with criterion(1, limit=1.0):
        assert is_orthogonal(q1)
        assert is_orthogonal(q2)
        assert det_sign(q1) == 1
        assert det_sign(q2) == -1
        assert sign_pattern_of(q1) == sign_pattern_of(q2)


def test_criterion_2_exact_small_examples(r3, s3, t3):
    with criterion(2, limit=1.0):
        assert is_orthogonal(r3)
        report = necessary_check(t3)
        assert not report.passed
        assert ("col", 0, 1) in [(f.axis, f.i, f.j) for f in report.failures]
        assert necessary_check(s3).passed


def test_criterion_3_determinant_arithmetic(q1, q2):
    with criterion(3):
        assert det(RatMatrix.from_rows(grid_scale(rational_matrix_to_grid(q1), 8))) == 2097152
        assert det(RatMatrix.from_rows(grid_scale(rational_matrix_to_grid(q2), 20014))) == -(20014**7)
        rng = random.Random(20014)
        for _ in range(200):
            rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
            assert det(RatMatrix.from_rows(rows)) == det_cofactor(rows)


def test_criterion_4_certification_round_trip(q1, q2):
    with criterion(4):
        t0 = time.perf_counter()
        assert rational_certify(to_float(q1), 8) == q1
        t1 = time.perf_counter()
        assert rational_certify(to_float(q2), 20014) == q2
        t2 = time.perf_counter()
        assert t1 - t0 < 1.0
        assert t2 - t1 < 1.0


def test_criterion_5_seeded_ambiguity(pstar, q1, q2):
    with criterion(5, limit=30.0):
        rng = np.random.default_rng(20014)
        seeds = [perturb(to_float(q1), 1e-2, rng), perturb(to_float(q2), 1e-2, rng)]
        ev = classify_det_sign(pstar, SearchConfig(margin=0.01, rng_seed=8), seeds=seeds)
        assert ev.verdict == AMBIGUOUS_FOUND
        for res in (ev.plus_result, ev.minus_result):
            assert res.ortho_residual <= 1e-9
            assert res.max_zero_violation <= 1e-9
        assert ev.plus_result.det_sign == 1
        assert ev.minus_result.det_sign == -1


def test_criterion_6_waters_family_evidence():
    with criterion(6, limit=120.0):
        for n in (2, 3, 4, 5):
            forced = waters_forced_sign(n)
            cfg = SearchConfig()  # default budgets
            found = search_realization(waters_pattern(n), forced, cfg)
            assert found is not None, f"no realization at n={n}"
            assert found.det_sign == forced
            assert search_realization(waters_pattern(n), -forced, cfg) is None, f"spurious find at n={n}"


def test_criterion_7_census_order_2_matches_oracle():
    with criterion(7, limit=60.0):
        report = census(2)
        assert report.ambiguous_count == 0
        oracle = exhaustive_2x2_oracle()
        reps = {row.pattern for row in report.rows}
        for pattern in oracle:
            assert canonical_form(pattern) in reps
        want_of = {frozenset({1}): ONLY_PLUS_FOUND, frozenset({-1}): ONLY_MINUS_FOUND}
        for row in report.rows:
            expected = oracle.get(row.pattern)
            want = NONE_FOUND if expected is None else want_of[expected]
            assert row.verdict == want, row.pattern.to_text()


def test_criterion_8_census_order_3_no_ambiguity():
    # runtime target (<10 min) is reported, not asserted
    with criterion(8):
        report = census(3)
        assert report.ambiguous_count == 0
        assert report.orbits_examined == 42
        print(f"census order 3 elapsed: {report.elapsed_seconds:.1f}s (target < 600s)")


def test_criterion_9_property_suites(pstar, q1):
    with criterion(9):
        # Cayley orthogonality over 1000 draws, orders up to 8
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            x = rng.uniform(-5.0, 5.0, n * (n - 1) // 2)
            worst = max(worst, ortho_residual(chart_q(n, x)))
        assert worst <= 1e-12

        # analytic gradient vs central finite differences
        for n in (3, 5, 7):
            S = SignPattern(n, tuple(int(v) for v in rng.integers(-1, 2, n * n)))
            base = np.eye(n)
            for _ in range(3):
                x = rng.uniform(-1.0, 1.0, n * (n - 1) // 2)
                _, g = chart_value_grad(S, x, base, 0.05)
                fd = np.zeros_like(x)
                for k in range(x.size):
                    xp, xm = x.copy(), x.copy()
                    xp[k] += 1e-6
                    xm[k] -= 1e-6
                    fd[k] = (
                        chart_value_grad(S, xp, base, 0.05)[0]
                        - chart_value_grad(S, xm, base, 0.05)[0]
                    ) / 2e-6
                scale = max(np.max(np.abs(g)), np.max(np.abs(fd)), 1e-6)
                assert np.max(np.abs(fd - g)) / scale <= 1e-4

        # symmetry pushforward: row negation flips the realized determinant sign
        res = refine_from(to_float(q1), pstar, "any", SearchConfig(margin=0.01))
        assert res is not None and res.det_sign == 1
        g = GroupElement((-1,) + (1,) * 6, (1,) * 7, tuple(range(7)), tuple(range(7)))
        flipped = act(g, res.q)
        assert ortho_residual(flipped) <= 1e-9
        assert sign_pattern_of(flipped) == act(g, pstar)
        assert np.sign(np.linalg.det(flipped)) == -1.0

        # sign_pattern_of/act equivariance over 500 random pairs
        from fractions import Fraction

        pyrng = random.Random(500)
        for _ in range(500):
            n = pyrng.randint(1, 4)
            M = RatMatrix.from_rows(
                [[Fraction(pyrng.randint(-10, 10), pyrng.randint(1, 7)) for _ in range(n)] for _ in range(n)]
            )
            ge = random_group_element(pyrng, n)
            assert sign_pattern_of(act(ge, M)) == act(ge, sign_pattern_of(M))


def test_order_5_pattern_admits_both_determinant_signs():
    # rational Cayley certificates Q = B (I - A)(I + A)^-1; each list is the
    # strict upper triangle of the skew A, (a01, a02, a03, a04, a12, ..., a34)
    pattern = SignPattern.from_text("+-+-+\n++---\n++--+\n++++-\n+++++")
    I5 = [[int(i == j) for j in range(5)] for i in range(5)]
    flip = [[-1 if i == j == 0 else int(i == j) for j in range(5)] for i in range(5)]
    certificates = (
        (1, I5, ["1/3", "-10/19", "8/19", "3/5", "19/20", "2/9", "1/6", "5/13", "-9/17", "11/15"]),
        (-1, flip, ["-2/11", "43/13", "-6/19", "-7/5", "-1", "3/10", "2/3", "35/16", "5/6", "19/15"]),
    )
    assert necessary_check(pattern).passed
    for sign, B, a in certificates:
        Q = RatMatrix.from_rows(exact_cayley(B, a))
        assert is_orthogonal(Q)
        assert det_sign(Q) == sign
        assert sign_pattern_of(Q) == pattern
