import itertools
import math
import threading
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from orthosign.exact import QuadMatrix, QuadRational, RatMatrix
from orthosign.fixtures import get_fixture
from orthosign.realize import (
    SearchConfig,
    _best_rational,
    _penalty_terms,
    float_det_sign,
    ortho_residual,
    rational_certify,
    refine_from,
    reorthonormalize,
    search_many,
    search_realization,
    to_float,
)
from orthosign.signpat import (
    SignPattern,
    act,
    necessary_check,
    orbit_representatives,
    sign_pattern_of,
    waters_forced_sign,
    waters_pattern,
)

from oracles import (
    chart_q,
    chart_value_grad,
    exact_cayley_q,
    identity_element,
    perturb,
    reference_accept,
    reference_refine_from,
    reference_search_realization,
    sign_array,
)


# -- Cayley chart ---------------------------------------------------------------

def test_cayley_at_zero_is_base():
    assert np.allclose(chart_q(3, np.zeros(3)), np.eye(3), atol=0)
    base = np.diag([-1.0, 1.0, 1.0])
    assert np.allclose(chart_q(3, np.zeros(3), base), base, atol=0)


def test_cayley_closed_form_2x2():
    # A = [[0,1],[-1,0]]: (I-A)(I+A)^-1 = [[0,-1],[1,0]]
    Q = chart_q(2, [1.0])
    assert np.allclose(Q, np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-15)


def test_cayley_orthogonality_residual():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(300):
        n = int(rng.integers(2, 9))
        x = rng.uniform(-5, 5, n * (n - 1) // 2)
        worst = max(worst, ortho_residual(chart_q(n, x)))
    assert worst <= 1e-12


def test_cayley_preserves_base_determinant_sign():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5):
        base = np.diag([-1.0] + [1.0] * (n - 1))
        for _ in range(50):
            x = rng.uniform(-3, 3, n * (n - 1) // 2)
            assert float_det_sign(chart_q(n, x, base)) == -1


def test_chart_matches_exact_cayley_transform():
    # the closed form at n <= 3 and the LAPACK inverse at n = 4, against Q
    # computed exactly from the same float x; Q is orthogonal, so the max
    # entry error is also the error relative to |Q| = 1.  A float reference
    # (I - A) @ inv(I + A) would not do at n = 3: I + A has condition number
    # sqrt(1 + |x|^2) there, and LAPACK's result is off by ~1e-13 at
    # |x| = 1e3 and ~1e-8 at |x| = 1e8.
    rng = np.random.default_rng(314)
    for n in (1, 2, 3, 4):
        m = n * (n - 1) // 2
        points = [rng.uniform(-3, 3, m) for _ in range(200 if m else 1)]
        for scale in (1e-8, 1.0, 1e3, 1e8):
            for _ in range(10 if m else 0):
                v = rng.normal(size=m)
                points.append(v * (scale / np.linalg.norm(v)))
        for x in points:
            assert np.max(np.abs(chart_q(n, x) - exact_cayley_q(n, x))) <= 1e-13, (n, x)


# -- objective -------------------------------------------------------------------

def test_objective_zero_on_q1_with_slack(pstar, q1):
    assert _penalty_terms(sign_array(pstar), 0.2, to_float(q1))[0] == 0.0


def test_objective_positive_above_smallest_entry(pstar, q1):
    assert _penalty_terms(sign_array(pstar), 0.3, to_float(q1))[0] > 0.0


def test_objective_zero_on_q2_at_small_margin(pstar, q2):
    assert _penalty_terms(sign_array(pstar), 0.01, to_float(q2))[0] == 0.0


def test_objective_zero_implies_pattern_agreement():
    rng = np.random.default_rng(5)
    S = SignPattern.from_rows([[1, -1, 0], [1, 1, -1], [1, 1, 1]])
    res = search_realization(S, "any", SearchConfig(rng_seed=1))
    assert res is not None
    assert _penalty_terms(sign_array(S), 1e-6, res.q)[0] == 0.0
    P = sign_pattern_of(res.q)
    for i in range(3):
        for j in range(3):
            if S[i, j] != 0:
                assert P[i, j] == S[i, j]
            else:
                assert res.q[i, j] == 0.0


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(99)
    for n in (2, 3, 5):
        S = SignPattern(n, tuple(int(v) for v in rng.integers(-1, 2, n * n)))
        base = np.eye(n)
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, n * (n - 1) // 2)
            _, g = chart_value_grad(S, x, base, 0.1)
            fd = np.zeros_like(x)
            for k in range(x.size):
                xp, xm = x.copy(), x.copy()
                xp[k] += 1e-6
                xm[k] -= 1e-6
                fd[k] = (chart_value_grad(S, xp, base, 0.1)[0] - chart_value_grad(S, xm, base, 0.1)[0]) / 2e-6
            # guard the denominator: some patterns make the objective constant
            # on the manifold, and then both gradients vanish
            scale = max(np.max(np.abs(g)), np.max(np.abs(fd)), 1e-6)
            assert np.max(np.abs(fd - g)) / scale <= 1e-4


# -- reorthonormalize --------------------------------------------------------------

def test_reorthonormalize_fixed_points():
    assert np.allclose(reorthonormalize(np.eye(4)), np.eye(4), atol=1e-15)
    assert np.allclose(reorthonormalize(2.0 * np.eye(4)), np.eye(4), atol=1e-15)


def test_reorthonormalize_projects_noisy_orthogonal(q1):
    rng = np.random.default_rng(31)
    noisy = perturb(to_float(q1), 1e-3, rng)
    Q = reorthonormalize(noisy)
    assert ortho_residual(Q) <= 1e-12
    assert np.max(np.abs(Q - noisy)) <= 1e-2


def test_reorthonormalize_idempotent(q2):
    Q = reorthonormalize(to_float(q2))
    assert np.max(np.abs(reorthonormalize(Q) - Q)) <= 1e-12


def test_reorthonormalize_rejects_singular():
    with pytest.raises(ValueError):
        reorthonormalize(np.ones((3, 3)))
    for bad in (np.ones((3, 2)), np.zeros((0, 0))):
        with pytest.raises(ValueError, match="square"):
            reorthonormalize(bad)
    with pytest.raises(ValueError, match="finite"):
        reorthonormalize(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_ortho_residual_rejects_non_square_input():
    # a vector, a 3 x 2 and a 0 x 0 matrix are errors, not a residual or a
    # numpy broadcast or zero-size failure
    for bad in (np.array([1.0, 0.0]), np.ones((3, 2)), np.zeros((0, 0))):
        with pytest.raises(ValueError, match="expected a square matrix"):
            ortho_residual(bad)


# -- the float boundary ---------------------------------------------------------

_SHAPE = "expected a square matrix of order at least 1, got shape"
_FINITE = "matrix entries must be finite"


def _eye_with(v):
    M = np.eye(2)
    M[0, 1] = v
    return M


FLOAT_ENTRY_POINTS = {
    "to_float": to_float,
    "ortho_residual": ortho_residual,
    "reorthonormalize": reorthonormalize,
    "rational_certify": lambda M: rational_certify(M, 5),
    "refine_from": lambda M: refine_from(M, waters_pattern(2), "any"),
    "sign_pattern_of": sign_pattern_of,
    "act": lambda M: act(identity_element(2), M),
}
BAD_FLOAT_INPUTS = {
    "vector": (np.array([1.0, 0.0]), _SHAPE),
    "3x2": (np.ones((3, 2)), _SHAPE),
    "0x0": (np.zeros((0, 0)), _SHAPE),
    # NaN gets past any residual gate such as refine_from's, since nan > 0.5 is false
    "nan": (_eye_with(np.nan), _FINITE),
    "+inf": (_eye_with(np.inf), _FINITE),
    "-inf": (_eye_with(-np.inf), _FINITE),
    # a finite exact entry whose float image, float(a) + float(b) * sqrt2, is inf
    "exact-overflow": (QuadMatrix(1, (QuadRational(10**308, 10**308),)), _FINITE),
}


# sign_pattern_of and act read an exact matrix exactly, with no float image
@pytest.mark.parametrize("entry, bad", [
    (e, b) for e in FLOAT_ENTRY_POINTS for b in BAD_FLOAT_INPUTS
    if not (b == "exact-overflow" and e in ("sign_pattern_of", "act"))])
def test_float_boundary_refuses_bad_matrices(entry, bad):
    M, message = BAD_FLOAT_INPUTS[bad]
    with pytest.raises(ValueError, match=message):
        FLOAT_ENTRY_POINTS[entry](M)


# -- search ---------------------------------------------------------------------

def test_search_finds_s3(s3):
    res = search_realization(s3, "any", SearchConfig(rng_seed=7))
    assert res is not None
    assert res.ortho_residual <= 1e-9
    assert res.max_zero_violation <= 1e-9
    assert res.min_margin >= 0.05
    assert sign_pattern_of(res.q).entries == s3.entries


def test_search_short_circuits_on_necessary_failure(t3):
    assert search_realization(t3, "any", SearchConfig(rng_seed=7)) is None


def test_search_waters_3_determinant_sides():
    S = waters_pattern(3)
    cfg = SearchConfig(rng_seed=11)
    assert waters_forced_sign(3) == 1
    found = search_realization(S, 1, cfg)
    assert found is not None and found.det_sign == 1
    assert search_realization(S, -1, cfg) is None


def test_search_deterministic(s3):
    cfg = SearchConfig(rng_seed=123)
    a = search_realization(s3, 1, cfg)
    b = search_realization(s3, 1, cfg)
    assert a is not None and b is not None
    assert a.restart_index == b.restart_index
    assert a.iterations == b.iterations
    assert np.array_equal(a.q, b.q)
    assert a.to_json_dict() == b.to_json_dict()


def test_search_respects_target_sign(s3):
    # s3 has order 3, where the determinant sign is unique: the +1 side is
    # realizable, the -1 side must come back empty
    plus = search_realization(s3, 1, SearchConfig(rng_seed=3))
    assert plus is not None and plus.det_sign == 1
    assert search_realization(s3, -1, SearchConfig(rng_seed=3)) is None


def test_search_rejects_bad_target(s3):
    for target in (2, None, 0):
        with pytest.raises(ValueError):
            search_realization(s3, target, SearchConfig())


def test_base_find_is_equality_with_sign_array():
    # search_many accepts a random base outright exactly when it equals the
    # pattern's sign array; check that against the success test written out
    # from its definition, for every signed permutation of order 1-3 and
    # every pattern of that order that passes the necessary check
    checks = 0
    for n in (1, 2, 3):
        patterns = [SignPattern(n, e) for e in itertools.product((-1, 0, 1), repeat=n * n)]
        sarrs = [sign_array(S) for S in patterns if necessary_check(S).passed]
        bases = []
        for perm in itertools.permutations(range(n)):
            for signs in itertools.product((-1.0, 1.0), repeat=n):
                B = np.zeros((n, n))
                B[range(n), perm] = signs
                bases.append(B)
        for margin in (0.05, 0.99):
            cfg = SearchConfig(margin=margin)
            for B in bases:
                for sarr in sarrs:
                    assert np.array_equal(B, sarr) == (reference_accept(sarr, B, cfg) is not None)
                    checks += 1
    assert checks == 64776


def test_search_time_budget_zero(s3):
    assert search_realization(s3, 1, SearchConfig(rng_seed=3, time_budget=0.0)) is None


def _assert_same_result(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert np.array_equal(got.q, want.q)
    for name in ("det_sign", "objective_value", "ortho_residual", "min_margin", "max_zero_violation",
                 "certificate", "restart_index", "iterations"):
        assert getattr(got, name) == getattr(want, name), name


@pytest.mark.parametrize("rng_seed", [0, 1])
def test_lockstep_search_matches_sequential_reference(rng_seed, s3, pstar, q1, q2):
    # restarts in lock step must find exactly what one-after-another finds
    cfg = SearchConfig(restarts=4, max_iters=250, rng_seed=rng_seed)
    cases = [(waters_pattern(n), side) for n in range(2, 6) for side in (1, -1)] + [(s3, 1), (s3, -1)]
    for S, side in cases:
        _assert_same_result(search_realization(S, side, cfg), reference_search_realization(S, side, cfg))
    # a find on the last allowed iteration, and the same budget one short of it
    want = reference_search_realization(s3, 1, cfg)
    assert want is not None and want.iterations > 0
    for max_iters in (want.iterations, want.iterations - 1):
        tight = replace(cfg, max_iters=max_iters)
        _assert_same_result(search_realization(s3, 1, tight), reference_search_realization(s3, 1, tight))
    cfg = SearchConfig(restarts=4, max_iters=250, rng_seed=rng_seed, margin=0.01)
    _assert_same_result(search_realization(pstar, "any", cfg), reference_search_realization(pstar, "any", cfg))
    rng = np.random.default_rng(rng_seed)
    iterations = []
    for fixture in (q1, q2):
        seed = perturb(to_float(fixture), 5e-2, rng)
        want = reference_refine_from(seed, pstar, "any", cfg)
        assert want is not None
        iterations.append(want.iterations)
        _assert_same_result(refine_from(seed, pstar, "any", cfg), want)
    assert max(iterations) > 0


@pytest.mark.parametrize("rng_seed", [0, 1])
def test_search_many_matches_separate_searches(rng_seed, s3, t3):
    # one mixed batch: several orders, both sides, a necessary-check failure
    # and a base find after descended restarts; each problem must come out
    # exactly as its own search, and as the one-after-another reference
    cfg = SearchConfig(restarts=4, max_iters=250, rng_seed=rng_seed)
    base_find = SignPattern.from_rows([[1, 0], [0, -1]])
    orbits3 = [rep for rep, _ in orbit_representatives(3) if necessary_check(rep).passed]
    problems = ([(waters_pattern(n), side) for n in range(2, 6) for side in (1, -1)]
                + [(s3, 1), (s3, -1), (t3, "any"), (base_find, -1)]
                + [(rep, side) for rep in orbits3 for side in (1, -1)])
    got = search_many(problems, cfg)
    assert len(got) == len(problems)
    for (S, side), res in zip(problems, got):
        _assert_same_result(res, search_realization(S, side, cfg))
        _assert_same_result(res, reference_search_realization(S, side, cfg))
    assert got[problems.index((t3, "any"))] is None
    late = got[problems.index((base_find, -1))]
    assert late is not None and late.iterations == 0 and late.restart_index > 0
    # descent finds and exhausted searches both occur in the batch
    assert any(r is not None and r.iterations > 0 for r in got)
    assert any(r is None for (S, _), r in zip(problems, got) if S is not t3)
    assert search_many(problems, replace(cfg, restarts=0)) == [None] * len(problems)
    assert search_many([], cfg) == []


# the step floor is raised through the engine's module constant, a test seam:
# at the default 1e-14 no other test notices a trial taken below the floor.
# At 0.3 only steps 1 and 0.5 are valid, so rows reach the floor among one
# round's trials on descents that would otherwise go on to a find
@pytest.mark.parametrize("step_min", [0.3], ids=["step_min"])
def test_lockstep_matches_reference_under_line_search_settings(step_min, s3, pstar, q1, q2, monkeypatch):
    # each round tests several backtracking trials of a row at once; every
    # row must still move exactly as one-trial-at-a-time backtracking moves it
    import orthosign.realize as realize

    monkeypatch.setattr(realize, "_STEP_MIN", step_min)
    cfg = SearchConfig(restarts=4, max_iters=250, rng_seed=5)
    got = []
    for S, side in [(waters_pattern(n), side) for n in (3, 4) for side in (1, -1)] + [(s3, 1), (s3, -1)]:
        got.append(search_realization(S, side, cfg))
        _assert_same_result(got[-1], reference_search_realization(S, side, cfg, step_min))
    cfg = replace(cfg, margin=0.01)
    rng = np.random.default_rng(3)
    for fixture in (q1, q2):
        seed = perturb(to_float(fixture), 5e-2, rng)
        got.append(refine_from(seed, pstar, "any", cfg))
        _assert_same_result(got[-1], reference_refine_from(seed, pstar, "any", cfg, step_min))
    assert any(r is not None and r.iterations > 0 for r in got)
    assert any(r is None for r in got)


def test_deadline_ends_long_exhausted_descent():
    # the excluded side of waters(7) never succeeds, so only the deadline,
    # checked every 64 rounds, can end this budget; a daemon thread lets a
    # missed deadline fail the test instead of hanging the suite
    cfg = SearchConfig(restarts=8, max_iters=10**6, time_budget=0.3)
    got = []
    worker = threading.Thread(
        target=lambda: got.append(search_realization(waters_pattern(7), -waters_forced_sign(7), cfg)), daemon=True)
    worker.start()
    worker.join(10.0)
    assert not worker.is_alive()
    assert got == [None]


@pytest.mark.parametrize("case", ["s3 search", "pstar refined from q1"])
def test_result_fields_match_pattern_and_matrix(case, s3, pstar, q1, monkeypatch):
    # min_margin, max_zero_violation and objective_value recomputed here from
    # the pattern's entries, the reported q and the raw matrix it was snapped
    # from (recorded where the result is assembled), with none of the
    # package's masks
    import orthosign.realize as realize

    assembled = []
    assemble = realize._assemble

    def record(sarr, cfg, restart_index, Qz, Q_raw, iterations):
        res = assemble(sarr, cfg, restart_index, Qz, Q_raw, iterations)
        assembled.append((Q_raw.copy(), res))
        return res

    monkeypatch.setattr(realize, "_assemble", record)
    if case == "s3 search":
        S, cfg = s3, SearchConfig(rng_seed=7)
        res = search_realization(S, "any", cfg)
    else:
        # the projected seed's smallest entry is below this margin, so the
        # find takes descent steps
        S, cfg = pstar, SearchConfig(margin=0.22, rng_seed=1)
        res = refine_from(perturb(to_float(q1), 5e-2, np.random.default_rng(41)), S, "any", cfg)
    assert res is not None and res.iterations > 0
    raw = next(Q for Q, r in assembled if r is res)
    signed = [s * float(q) for s, q in zip(S.entries, res.q.flat) if s != 0]
    zeros = [float(q) for s, q in zip(S.entries, res.q.flat) if s == 0]
    raw_zeros = [abs(float(q)) for s, q in zip(S.entries, raw.flat) if s == 0]
    assert res.min_margin == min(signed) >= cfg.margin
    assert res.max_zero_violation == max(raw_zeros, default=0.0) <= 1e-9
    assert (0 < res.max_zero_violation) == bool(zeros)
    assert all(q == 0.0 for q in zeros)
    penalty = sum(max(cfg.margin - v, 0.0) ** 2 for v in signed) + sum(q * q for q in zeros)
    assert res.objective_value == penalty == 0.0


# -- refine_from ------------------------------------------------------------------

def test_refine_recovers_q1_from_noise(pstar, q1):
    rng = np.random.default_rng(41)
    seed = perturb(to_float(q1), 1e-2, rng)
    res = refine_from(seed, pstar, "any", SearchConfig(margin=0.01, rng_seed=1))
    assert res is not None
    assert res.det_sign == 1
    assert res.ortho_residual <= 1e-9


def test_refine_recovers_q2_from_noise(pstar, q2):
    rng = np.random.default_rng(42)
    seed = perturb(to_float(q2), 1e-2, rng)
    res = refine_from(seed, pstar, "any", SearchConfig(margin=0.01, rng_seed=1))
    assert res is not None
    assert res.det_sign == -1
    assert res.ortho_residual <= 1e-9


def test_refine_exact_q1_is_immediate(pstar, q1):
    res = refine_from(to_float(q1), pstar, "any", SearchConfig(margin=0.2))
    assert res is not None
    assert res.iterations == 0
    assert res.objective_value == 0.0
    # the smallest magnitude in q1 is exactly 0.25, so that margin is the
    # largest with objective 0 (boundary probed on the exact float image)
    assert _penalty_terms(sign_array(pstar), 0.25, to_float(q1))[0] == 0.0


def test_refine_rejects_mismatched_target(pstar, q1):
    assert refine_from(to_float(q1), pstar, -1, SearchConfig(margin=0.01)) is None


def test_refine_rejects_far_from_orthogonal(pstar):
    with pytest.raises(ValueError):
        refine_from(np.ones((7, 7)), pstar, "any", SearchConfig())
    with pytest.raises(ValueError, match="too far from orthogonal"):
        refine_from(np.full((7, 7), 1e200), pstar, "any", SearchConfig())
    with pytest.raises(ValueError, match="seed order 3 does not match pattern order 7"):
        refine_from(np.eye(3), pstar, "any", SearchConfig())


# -- rational certification ---------------------------------------------------------

def test_certify_q1(q1):
    cert = rational_certify(to_float(q1), 8)
    assert cert == q1


def test_certify_q2(q2):
    cert = rational_certify(to_float(q2), 20014)
    assert cert == q2


def test_certify_generic_rotation_fails():
    rng = np.random.default_rng(17)
    Q = chart_q(4, rng.uniform(-1, 1, 6))
    assert rational_certify(Q, 10) is None


def test_certify_rejects_orthogonal_rounding_with_another_pattern():
    # at denominator 8 a rotation by 1e-6 rounds to the identity, which is
    # exactly orthogonal but has zeros where the rotation has signs
    c, s = np.cos(1e-6), np.sin(1e-6)
    Q = np.array([[c, -s], [s, c]])
    assert [Fraction(float(q)).limit_denominator(8) for q in Q.flat] == [1, 0, 0, 1]
    assert rational_certify(Q, 8) is None


def _q2_examples(test):
    """One example per distinct entry of q2, at q2's denominator 20014."""
    for x in sorted(set(to_float(get_fixture("q2")).ravel().tolist())):
        test = example(x, 20014)(test)
    return test


# entries of an orthogonal matrix lie in [-1, 1]; the rest of the float range too
@given(st.one_of(st.floats(-1, 1), st.floats(allow_nan=False, allow_infinity=False)), st.integers(1, 10**12))
# 311/99 is a semiconvergent of pi (the convergents are 3, 22/7, 333/106)
@example(math.pi, 100)
@example(0.0, 1)
@example(-0.0, 1)
@example(5e-324, 10**12)
@example(1e300, 7)
@example(-1e300, 7)
# midway between two integers at bound 1: the tie goes to the floor
@example(0.5, 1)
@example(-0.5, 1)
@example(1.5, 1)
@_q2_examples
def test_best_rational_is_limit_denominator(x, bound):
    got = _best_rational(x, bound)
    assert type(got) is Fraction
    assert got == Fraction(x).limit_denominator(bound)


ROT_3_4_5 = np.array([[0.6, -0.8], [0.8, 0.6]])


def test_certify_takes_a_numpy_integer_bound():
    want = RatMatrix.from_rows([[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]])
    for bound in (8, np.int64(8), np.int32(8), np.uint16(8)):
        assert rational_certify(ROT_3_4_5, bound) == want
        cfg = SearchConfig(denom_bound=bound)
        assert type(cfg.denom_bound) is int and cfg.denom_bound == 8


def test_float_bound_is_a_type_error():
    for bound in (8.0, np.float64(8.0), "8"):
        for Q in (ROT_3_4_5, np.eye(2)):
            with pytest.raises(TypeError, match="denom_bound must be an integer"):
                rational_certify(Q, bound)
        with pytest.raises(TypeError, match="denom_bound must be an integer"):
            SearchConfig(denom_bound=bound)


@pytest.mark.parametrize("name", ["restarts", "max_iters", "rng_seed"])
def test_search_config_counts_are_integers(name):
    for value in (3, np.int64(3), np.int32(3), np.uint16(3)):
        cfg = SearchConfig(**{name: value})
        assert type(getattr(cfg, name)) is int and getattr(cfg, name) == 3
    for value in (2.5, 3.0, np.float64(3.0), "3", True):
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            SearchConfig(**{name: value})
    with pytest.raises(ValueError, match=f"{name} must be nonnegative"):
        SearchConfig(**{name: np.int64(-1)})


def test_certify_validates_input():
    with pytest.raises(ValueError):
        rational_certify(np.eye(3), 0)
    with pytest.raises(ValueError):
        rational_certify(np.ones((2, 3)), 5)
    for bad in (np.inf, np.nan):
        Q = np.eye(3)
        Q[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            rational_certify(Q, 5)


def test_certificate_det_sign_matches_reported(pstar, q2):
    cfg = SearchConfig(margin=0.01, denom_bound=20014)
    res = refine_from(to_float(q2), pstar, "any", cfg)
    assert res is not None
    assert res.certificate is not None
    from orthosign.exact import det_sign as exact_det_sign

    assert exact_det_sign(res.certificate) == res.det_sign == -1


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(margin=0.0)
    bad = [
        {"restarts": -1},
        {"max_iters": -3},
        {"rng_seed": -1},
        {"time_budget": -1.0},
        {"denom_bound": 0},
        # every comparison with NaN is false, so each check must fail on it
        {"margin": float("nan")},
        {"time_budget": float("nan")},
    ]
    for kw in bad:
        with pytest.raises(ValueError):
            SearchConfig(**kw)
    SearchConfig(time_budget=0.0, restarts=0, max_iters=0)
