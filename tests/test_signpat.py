import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from orthosign.exact import ParseError, RatMatrix
from orthosign.signpat import (
    GroupElement,
    SignPattern,
    UnsupportedOrderError,
    act,
    canonical_form,
    necessary_check,
    orbit_of,
    orbit_representatives,
    pair_compatible,
    perm_sign,
    sign_pattern_of,
    waters_forced_sign,
    waters_pattern,
)
from oracles import (
    apply_symmetry,
    brute_force_orbit,
    burnside_orbit_count,
    full_symmetry_group,
    identity_element,
    identity_grid,
    random_group_element,
    reference_necessary_check,
    reference_orbit_representatives,
)

sign_vectors = st.lists(st.sampled_from((-1, 0, 1)), min_size=1, max_size=6)


def random_rat_matrix(rng, n):
    return RatMatrix.from_rows(
        [[Fraction(rng.randint(-12, 12), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
    )


# -- pattern type and text format ---------------------------------------------

def test_pattern_text_roundtrip(pstar):
    assert SignPattern.from_text(pstar.to_text()) == pstar


def test_pattern_rejects_bad_entries():
    with pytest.raises(ValueError):
        SignPattern(2, (1, 0, 2, -1))
    with pytest.raises(ValueError):
        SignPattern(2, (1, 0, -1))
    with pytest.raises(ValueError):
        SignPattern.from_rows([[1, 0, 0], [0, 1], [0, 0, 0, 1]])
    # non-integral values are errors, not truncated to 0 or 1
    for bad in (0.5, 1.7, -0.9):
        with pytest.raises(ValueError):
            SignPattern(2, (bad, 1, -1, 1))
    assert SignPattern(2, (1.0, 0.0, -1.0, 1)).entries == (1, 0, -1, 1)
    with pytest.raises(ValueError, match="at least 1"):
        SignPattern(0, ())
    with pytest.raises(ParseError, match="empty pattern"):
        SignPattern.from_text("")


def test_pattern_text_errors_carry_location():
    with pytest.raises(ParseError) as exc:
        SignPattern.from_text("+-\n+x")
    assert exc.value.line == 2
    assert exc.value.col == 2
    with pytest.raises(ParseError):
        SignPattern.from_text("+-\n+")


# -- sign_pattern_of -----------------------------------------------------------

def test_sign_pattern_of_q1(q1, pstar):
    P = sign_pattern_of(q1)
    assert P == pstar
    assert P.row(0) == (1, 1, 1, -1, -1, 1, 1)


def test_sign_pattern_of_zero_matrix():
    Z = RatMatrix.from_rows([[0, 0], [0, 0]])
    assert sign_pattern_of(Z) == SignPattern(2, (0, 0, 0, 0))


def test_sign_pattern_of_float_counts_only_exact_zeros():
    Q = np.array([[0.5, 1e-12], [-1e-12, -0.5]])
    assert sign_pattern_of(Q) == SignPattern.from_rows([[1, 1], [-1, -1]])
    assert sign_pattern_of(np.array([[0.0, -0.0], [1.0, 1.0]])) == SignPattern.from_rows([[0, 0], [1, 1]])


def test_sign_pattern_of_rejects_non_finite_entries():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            sign_pattern_of(np.array([[1.0, bad], [0.0, 1.0]]))


def test_sign_pattern_of_rejects_non_square():
    for M in (RatMatrix.from_rows([[1, 0, 0], [0, 1, 0]]), np.ones((2, 3)), np.ones(4)):
        with pytest.raises(ValueError, match="square"):
            sign_pattern_of(M)


# -- pair compatibility and the necessary check --------------------------------

def test_pair_compatible_t3_columns():
    assert not pair_compatible((1, 1, 1), (1, 1, 1))


def test_pair_compatible_mixed_products():
    assert pair_compatible((1, 1), (1, -1))


def test_pair_compatible_disjoint_support():
    assert pair_compatible((1, 0), (0, 1))


def test_pair_compatible_rejects_one_sided_overlap():
    assert not pair_compatible((1, 0, 1), (1, 1, 0))
    assert not pair_compatible((1, 0, -1), (-1, 1, 0))


def test_pair_compatible_length_mismatch():
    with pytest.raises(ValueError):
        pair_compatible((1, 1), (1, 1, 1))


@given(sign_vectors, st.randoms(use_true_random=False))
def test_pair_compatible_symmetric(u, rnd):
    v = [rnd.choice((-1, 0, 1)) for _ in u]
    assert pair_compatible(u, v) == pair_compatible(v, u)


def test_necessary_check_t3(t3):
    report = necessary_check(t3)
    assert not report.passed
    assert ("col", 0, 1) in [(f.axis, f.i, f.j) for f in report.failures]


def test_necessary_check_s3(s3):
    assert necessary_check(s3).passed


def test_necessary_check_identity():
    assert necessary_check(sign_pattern_of(RatMatrix.from_rows(identity_grid(3)))).passed


def test_necessary_check_zero_row():
    S = SignPattern.from_rows([[0, 0], [1, 1]])
    report = necessary_check(S)
    assert not report.passed
    assert ("row", 0, 0) in [(f.axis, f.i, f.j) for f in report.failures]


def test_necessary_check_matches_pairwise_reference():
    patterns = [SignPattern(n, e) for n in (1, 2, 3) for e in itertools.product((-1, 0, 1), repeat=n * n)]
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(4, 8)
        # a zero-heavy draw too, so that zero lines and disjoint supports occur
        weights = rng.choice(((1, 1, 1), (1, 3, 1)))
        patterns.append(SignPattern(n, tuple(rng.choices((-1, 0, 1), weights, k=n * n))))
    outcomes = set()
    for S in patterns:
        report = necessary_check(S)
        assert (report.passed, report.failures) == reference_necessary_check(S), S
        outcomes.add(report.passed)
    assert outcomes == {True, False}


def test_necessary_check_invariant_under_symmetry(s3, t3, pstar):
    rng = random.Random(7)
    for S in (s3, t3, pstar, waters_pattern(4)):
        expected = necessary_check(S).passed
        for _ in range(25):
            g = random_group_element(rng, S.n)
            assert necessary_check(act(g, S)).passed == expected


# -- the diagonal-negated family ------------------------------------------------

def test_waters_pattern_small_orders():
    assert waters_pattern(1) == SignPattern.from_rows([[1]])
    assert waters_pattern(2) == SignPattern.from_rows([[1, 1], [1, -1]])
    assert waters_pattern(3) == SignPattern.from_rows([[1, 1, 1], [1, -1, 1], [1, 1, -1]])
    with pytest.raises(ValueError, match="at least 1"):
        waters_pattern(0)


def test_waters_forced_sign_alternates():
    assert [waters_forced_sign(n) for n in (1, 2, 3, 4, 5)] == [1, -1, 1, -1, 1]


# -- group elements and the action ----------------------------------------------

def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 2, 0)) == 1


def test_identity_action(pstar):
    assert act(identity_element(7), pstar) == pstar


def test_row_negation():
    S = SignPattern.from_rows([[1, -1], [1, 1]])
    g = GroupElement((-1, 1), (1, 1), (0, 1), (0, 1))
    assert act(g, S) == SignPattern.from_rows([[-1, 1], [1, 1]])


def test_transpose_action(pstar):
    g = GroupElement((1,) * 7, (1,) * 7, tuple(range(7)), tuple(range(7)), True)
    assert act(g, pstar).col(0) == (1, 1, 1, -1, -1, 1, 1)
    assert act(g, pstar) == pstar.transpose()


def test_group_element_validation():
    with pytest.raises(ValueError):
        GroupElement((1, 2), (1, 1), (0, 1), (0, 1))
    with pytest.raises(ValueError):
        GroupElement((1, 1), (1, 1), (0, 0), (0, 1))


def test_action_size_mismatch(pstar):
    with pytest.raises(ValueError):
        act(identity_element(3), pstar)
    for M in (RatMatrix.from_rows([[1, 0, 0], [0, 1, 0]]), np.ones((2, 3))):
        with pytest.raises(ValueError, match="square matrices only"):
            act(identity_element(2), M)


def test_action_matches_oracle():
    rng = random.Random(11)
    S = waters_pattern(3)
    grid = tuple(S.row(i) for i in range(3))
    for _ in range(50):
        g = random_group_element(rng, 3)
        expected = apply_symmetry(grid, g.row_signs, g.col_signs, g.row_perm, g.col_perm, g.transpose_flag)
        assert act(g, S) == SignPattern.from_rows(expected)


def test_action_preserves_orthogonality(q1, r3):
    from orthosign.exact import is_orthogonal

    rng = random.Random(19)
    for M in (q1, r3):
        g = random_group_element(rng, M.rows)
        assert is_orthogonal(act(g, M))


def test_sign_pattern_act_equivariance():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 4)
        M = random_rat_matrix(rng, n)
        g = random_group_element(rng, n)
        assert sign_pattern_of(act(g, M)) == act(g, sign_pattern_of(M))


def test_act_on_float_matrix():
    rng = random.Random(5)
    M = np.arange(9, dtype=float).reshape(3, 3) - 4.0
    grid = tuple(tuple(r) for r in M.tolist())
    for _ in range(20):
        g = random_group_element(rng, 3)
        out = act(g, M)
        expected = apply_symmetry(grid, g.row_signs, g.col_signs, g.row_perm, g.col_perm, g.transpose_flag)
        assert np.array_equal(out, np.array(expected))
        assert sign_pattern_of(out) == act(g, sign_pattern_of(RatMatrix.from_rows([[int(v) for v in r] for r in M])))


def test_det_sign_factor_matches_numpy():
    rng = random.Random(13)
    for _ in range(50):
        g = random_group_element(rng, 4)
        Q = np.linalg.qr(np.random.default_rng(1).normal(size=(4, 4)))[0]
        lhs = np.sign(np.linalg.det(act(g, Q)))
        rhs = g.det_sign_factor() * np.sign(np.linalg.det(Q))
        assert lhs == rhs


# -- canonical forms and orbits ---------------------------------------------------

def test_canonical_form_is_orbit_invariant(s3):
    rng = random.Random(17)
    base = canonical_form(s3)
    for _ in range(25):
        g = random_group_element(rng, 3)
        assert canonical_form(act(g, s3)) == base


def test_canonical_form_row_swap():
    S = waters_pattern(4)
    g = GroupElement((1,) * 4, (1,) * 4, (1, 0, 2, 3), (0, 1, 2, 3))
    assert canonical_form(S) == canonical_form(act(g, S))


def test_canonical_form_is_minimum_of_orbit():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 3)
        S = SignPattern(n, tuple(rng.choice((-1, 0, 1)) for _ in range(n * n)))
        orbit = orbit_of(S)
        assert canonical_form(S) == min(orbit, key=lambda p: p.entries)
        assert S in orbit


def test_orbit_of_matches_brute_force_orbit():
    # the whole group, element by element, against closure under the
    # generators: every pattern at n = 2, a sample at n = 3
    rng = random.Random(37)
    samples = [SignPattern(2, e) for e in itertools.product((-1, 0, 1), repeat=4)]
    samples += [SignPattern(3, tuple(rng.choice((-1, 0, 1)) for _ in range(9))) for _ in range(6)]
    groups = {n: full_symmetry_group(n) for n in (2, 3)}
    for S in samples:
        grid = tuple(S.row(i) for i in range(S.n))
        expected = {SignPattern.from_rows(g) for g in brute_force_orbit(grid, groups[S.n])}
        assert orbit_of(S) == expected


def test_canonical_form_matches_brute_force_at_n2():
    group = full_symmetry_group(2)
    rng = random.Random(29)
    for _ in range(15):
        S = SignPattern(2, tuple(rng.choice((-1, 0, 1)) for _ in range(4)))
        grid = tuple(S.row(i) for i in range(2))
        expected = min(brute_force_orbit(grid, group))
        assert canonical_form(S) == SignPattern.from_rows(expected)


def test_canonical_form_matches_brute_force_at_n3():
    group = full_symmetry_group(3)  # all 4608 elements
    rng = random.Random(31)
    for _ in range(4):
        S = SignPattern(3, tuple(rng.choice((-1, 0, 1)) for _ in range(9)))
        grid = tuple(S.row(i) for i in range(3))
        expected = min(brute_force_orbit(grid, group))
        assert canonical_form(S) == SignPattern.from_rows(expected)


def test_canonical_form_unsupported_order(pstar):
    with pytest.raises(UnsupportedOrderError):
        canonical_form(pstar)
    with pytest.raises(UnsupportedOrderError):
        orbit_of(pstar)
    with pytest.raises(UnsupportedOrderError):
        orbit_representatives(pstar.n)
    with pytest.raises(ValueError, match="at least 1"):
        orbit_representatives(0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_orbit_representatives_match_orbit_by_orbit_reference(n):
    assert orbit_representatives(n) == reference_orbit_representatives(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_representatives_count_sizes_and_canonical_forms(n):
    reps = orbit_representatives(n)
    # Burnside's lemma at order 4 walks 294,912 group elements (~4 s); its
    # count there is 759
    assert len(reps) == (burnside_orbit_count(n) if n < 4 else 759)
    assert sum(size for _, size in reps) == 3 ** (n * n)
    assert all(a.entries < b.entries for (a, _), (b, _) in zip(reps, reps[1:]))
    # canonical_form costs ~10 ms per order-4 pattern, so sample that order
    sample = reps if n < 4 else random.Random(4).sample(reps, 60)
    assert all(rep == canonical_form(rep) for rep, _ in sample)


def test_full_support_2x2_orbit_count():
    # oracle: exhaustive partition of all 16 full-support patterns under the
    # full 128-element symmetry group
    group = full_symmetry_group(2)
    grids = [
        tuple((r[0], r[1]) for r in (rows[:2], rows[2:]))
        for rows in itertools.product((-1, 1), repeat=4)
    ]
    orbits = set()
    for grid in grids:
        orbits.add(min(brute_force_orbit(grid, group)))
    assert len(orbits) == 2
    # the library's canonical forms induce the same partition
    assert {canonical_form(SignPattern.from_rows(g)) for g in grids} == {
        SignPattern.from_rows(o) for o in orbits
    }
