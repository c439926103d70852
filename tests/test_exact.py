import json
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthosign.exact import (
    ParseError,
    QuadMatrix,
    QuadRational,
    RatMatrix,
    det,
    det_sign,
    format_entry,
    is_orthogonal,
    matrix_to_jsonable,
    parse_entry,
    parse_matrix_json,
    sgn,
)
from orthosign.realize import to_float
from orthosign.signpat import GroupElement, SignPattern, act, sign_pattern_of
from oracles import (
    Sqrt2,
    det_cofactor,
    exact_cayley,
    grid_scale,
    identity_grid,
    int_matmul,
    package_rows,
    rational_matrix_to_grid,
    sqrt2_of,
    sqrt2_sign,
    transpose,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
quads = st.builds(QuadRational, rationals, rationals)


# -- Rational canonical form (Fraction is the scalar; pin its guarantees) ----

def test_rational_canonicalization():
    x = Fraction(396, 20014)
    assert x.numerator == 198
    assert x.denominator == 10007
    assert Fraction(0, 5) == Fraction(0, 1)
    assert Fraction(3, -6).denominator == 2
    assert Fraction(3, -6).numerator == -1


# -- QuadRational, a value: sign, equality, hash and float -------------------

@given(quads)
def test_quad_sign_matches_float(x):
    f = float(x)
    if abs(f) > 1e-9:
        assert sgn(x) == (1 if f > 0 else -1)
    if sgn(x) == 0:
        assert x.a == 0 and x.b == 0


@given(st.one_of(st.fractions(), st.integers(), st.booleans()))
@example(Fraction(0))
@example(Fraction(-1, 10**40))
def test_sgn_of_rationals_matches_comparisons(x):
    assert sgn(x) == (1 if x > 0 else -1 if x < 0 else 0)
    assert type(sgn(x)) is int


def test_quad_zero_iff_both_components_zero():
    assert not QuadRational(0, 0)
    assert QuadRational(0, 1)
    assert QuadRational(1, 0)
    # a + b*sqrt2 = 0 with both nonzero is impossible; nearby values are not 0
    assert QuadRational(Fraction(-7, 5), Fraction(99, 100)) != 0


def test_quad_hash_matches_equal_rational():
    # equal numbers hash alike, so a set or dict key sees one number
    assert len({QuadRational(1, 0), 1}) == 1
    assert hash(QuadRational(Fraction(-3, 7), 0)) == hash(Fraction(-3, 7))
    assert {QuadRational(2, 1): "x"}[QuadRational(2, 1)] == "x"


def pell_convergent(steps):
    p, q = 1, 1
    for _ in range(steps):
        p, q = p + 2 * q, p + q
    return Fraction(p, q)


def test_quad_float_survives_cancellation():
    # p/q - sqrt2 with p/q a Pell convergent of sqrt2: the two terms agree to
    # ~32 digits, so float(a) + float(b)*sqrt2 would keep none of them
    assert pell_convergent(40).denominator == 1746860020068409
    for steps in (5, 20, 40, 60):
        x = pell_convergent(steps)
        for value in (QuadRational(x, -1), QuadRational(-x, 1), QuadRational(1, -1 / x)):
            # reference: sqrt2 to 100 digits
            want = float(value.a + value.b * Fraction(math.isqrt(2 * 10**200), 10**100))
            assert abs(float(value) - want) <= 2 * math.ulp(want)
            assert np.sign(float(value)) == sgn(value) != 0
    M = QuadMatrix.from_rows([[QuadRational(pell_convergent(40), -1)]])
    assert sign_pattern_of(to_float(M)) == sign_pattern_of(M)


# -- Gram product of q1, in big integers -------------------------------------

def test_mat_mul_scaled_gram_of_q1(q1):
    ints = [[int(e) for e in row] for row in grid_scale(rational_matrix_to_grid(q1), 8)]
    assert int_matmul(transpose(ints), ints) == [[64 * e for e in row] for row in identity_grid(7)]


def test_matrix_rejects_bad_shape():
    for domain in (RatMatrix, QuadMatrix, SignPattern):
        with pytest.raises(ValueError, match="square"):
            domain.from_rows([[1, 0, 0], [0, 1, 0]])
        with pytest.raises(ValueError):
            domain(2, (1, 0, -1))
        with pytest.raises(ValueError):
            domain.from_rows([])
        with pytest.raises(ValueError):
            domain.from_rows([[1, 2], [3, 4, 5], [6]])
        with pytest.raises(ValueError):
            domain.from_rows([[1, 2, 3], [4]])
        # the order is an int: a float or a bool is refused, a numpy integer stored as int
        for order, entries in ((2.0, (1, 0, 0, 1)), (True, (1,))):
            with pytest.raises(TypeError, match=f"matrix order must be an integer, got {type(order).__name__}"):
                domain(order, entries)
        M = domain(np.int64(2), (1, 0, 0, 1))
        assert type(M.n) is int and M.n == 2


def test_rat_matrix_entries_are_fractions():
    third = Fraction(1, 3)
    M = RatMatrix.from_rows([[third, 2], [True, 0]])
    assert [type(e) for e in M.entries] == [Fraction] * 4
    assert M.entries == (third, 2, 1, 0)
    # a Fraction is kept as it is, not rebuilt, in either domain
    assert M.entries[0] is third
    x = QuadRational(third, 2)
    assert x.a is third and type(x.b) is Fraction


def test_operations_keep_domain_subclass():
    # the exact layer is traced per domain by the type name of the operand
    g = GroupElement((1, -1), (-1, 1), (1, 0), (0, 1), True)
    for domain in (RatMatrix, QuadMatrix, SignPattern):
        A = domain.from_rows([[1, -1], [0, 1]])
        for M in (A, act(g, A)):
            assert type(M) is domain


# -- determinants -------------------------------------------------------------

def test_det_identity():
    assert det(RatMatrix.from_rows(identity_grid(7))) == 1


def test_det_scaled_q1(q1):
    grid = grid_scale(rational_matrix_to_grid(q1), 8)
    assert det(RatMatrix.from_rows(grid)) == 2097152 == 8**7
    assert det_cofactor([[int(e) for e in row] for row in grid]) == 2097152


def test_det_scaled_q2(q2):
    grid = grid_scale(rational_matrix_to_grid(q2), 20014)
    assert det(RatMatrix.from_rows(grid)) == -(20014**7)
    assert det_cofactor([[int(e) for e in row] for row in grid]) == -(20014**7)


def test_det_singular():
    assert det(RatMatrix.from_rows([[1, 1], [1, 1]])) == 0


def test_det_rational_entries():
    A = RatMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]])
    assert det(A) == Fraction(1, 14) - Fraction(1, 15)


def test_det_quad_matrix(r3):
    assert det(r3) == QuadRational(1, 0)
    A = QuadMatrix.from_rows([[QuadRational(0, 1), 0], [0, QuadRational(0, 1)]])
    assert det(A) == QuadRational(2, 0)


# Q(sqrt2) entries with small a, b parts whose denominators differ, so that
# det's one scale D, the least common denominator of the whole matrix, is
# not each row's own; zeros are drawn often so that zero pivots, row swaps
# and singular matrices occur in that domain too
small_quads = st.one_of(
    st.just(Sqrt2(0, 0)),
    st.builds(Sqrt2, st.fractions(-3, 3, max_denominator=3), st.fractions(-3, 3, max_denominator=4)),
)
S2 = Sqrt2(0, 1)
# 1 + sqrt2, a unit of negative norm: 1^2 - 2 * 1^2 = -1
UNIT = Sqrt2(1, 1)


@settings(max_examples=120)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.one_of(
            st.lists(st.integers(-9, 9), min_size=n * n, max_size=n * n),
            # rationals whose row denominators differ, so D > 1 and D^n is divided out
            st.lists(st.fractions(-3, 3, max_denominator=7), min_size=n * n, max_size=n * n),
            st.lists(small_quads, min_size=n * n, max_size=n * n),
        )
    )
)
# rows of coprime denominators 2, 3 and 5: D = 30 is no row's own
@example([Fraction(1, 2), 1, Fraction(-1, 2), Fraction(1, 3), Fraction(2, 3), 0, 1, Fraction(-3, 5), Fraction(1, 5)])
# zero pivot at step 2 (row swap), and a singular matrix (row 2 = sqrt2 * row 1)
@example([1, 1, 1, 1, 1, 2, S2, 0, 1])
@example([1, S2, 0, S2, 2, 0, 0, 0, 1])
# first pivot 1 + sqrt2 of norm -1, which step 2 divides by
@example([UNIT, 1, S2, 1, Sqrt2(1, -1), Fraction(1, 3), S2, 2, Sqrt2(Fraction(1, 2), 1)])
# zero first pivot: row 1 swaps with row 2
@example([0, S2, 1, S2, 1, 0, 1, Fraction(1, 2), Sqrt2(Fraction(2, 3), Fraction(-1, 4))])
def test_det_bareiss_matches_cofactor(flat):
    n = int(len(flat) ** 0.5)
    rows = [flat[i * n : (i + 1) * n] for i in range(n)]
    domain = QuadMatrix if any(isinstance(e, Sqrt2) for e in flat) else RatMatrix
    assert sqrt2_of(det(domain.from_rows(package_rows(rows)))) == det_cofactor(rows)


def test_det_of_a_givens_rotation_times_q2(q2):
    """A 45-degree rotation in the plane of the first two coordinates times
    q2, exactly: orthogonal with determinant -1, its entries a + b*sqrt2
    with denominators up to 2 * 20014."""
    h = Sqrt2(0, Fraction(1, 2))
    G = [[Sqrt2(int(i == j), 0) for j in range(7)] for i in range(7)]
    G[0][0], G[0][1], G[1][0], G[1][1] = h, -h, h, h
    A = QuadMatrix.from_rows(package_rows(int_matmul(G, rational_matrix_to_grid(q2))))
    assert is_orthogonal(A)
    assert det(A) == -1
    assert det_sign(A) == -1


def test_det_multiplicative():
    rng = random.Random(42)
    for _ in range(25):
        a, b = ([[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)] for _ in range(2))
        A, B = RatMatrix.from_rows(a), RatMatrix.from_rows(b)
        assert det(RatMatrix.from_rows(int_matmul(a, b))) == det(A) * det(B)


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det(RatMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(ValueError, match="square"):
        is_orthogonal(RatMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))


# -- orthogonality and determinant sign ---------------------------------------

def test_is_orthogonal_identity():
    assert is_orthogonal(RatMatrix.from_rows(identity_grid(5)))


def test_is_orthogonal_fixtures(q1, q2, r3):
    assert is_orthogonal(q1)
    assert is_orthogonal(q2)
    assert is_orthogonal(r3)


def test_is_orthogonal_rejects_rank_one():
    assert not is_orthogonal(RatMatrix.from_rows([[1, 1], [1, 1]]))


def gram_is_identity(grid):
    """The oracle: the full Gram product A^T A, compared with the identity."""
    return int_matmul(transpose(grid), grid) == identity_grid(len(grid))


def givens_product(rng, n, count):
    """Product of `count` 45-degree Givens rotations, an orthogonal matrix
    over Q(sqrt2) with Sqrt2 entries; cos 45 = sin 45 = sqrt2/2."""
    h = Sqrt2(0, Fraction(1, 2))
    Q = [[Sqrt2(int(i == j), 0) for j in range(n)] for i in range(n)]
    for _ in range(count):
        i, j = rng.sample(range(n), 2)
        Q[i], Q[j] = [h * a - h * b for a, b in zip(Q[i], Q[j])], [h * a + h * b for a, b in zip(Q[i], Q[j])]
    return Q


def nudged(grid, i, j, rng):
    """grid with entry (i, j) moved away from 0 by 1/k: column j's squared
    norm grows by 2 d c + d^2 > 0, so the result is never orthogonal."""
    c = grid[i][j]
    out = [list(row) for row in grid]
    out[i][j] = c + (sqrt2_sign(c) or 1) * Fraction(1, rng.randint(2, 64))
    return out


def column_swapped(grid, i, j):
    out = [list(row) for row in grid]
    for row in out:
        row[i], row[j] = row[j], row[i]
    return out


def column_copied(grid, i, j):
    """grid with column j replaced by column i: every column still has norm
    1, but columns i and j have dot product 1."""
    out = [list(row) for row in grid]
    for row in out:
        row[j] = row[i]
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_is_orthogonal_matches_gram_oracle(n):
    rng = random.Random(f"is_orthogonal/{n}")
    orthogonal = [(RatMatrix, identity_grid(n))]
    for _ in range(3):
        perm = rng.sample(range(n), n)
        B = [[rng.choice((-1, 1)) if perm[i] == j else 0 for j in range(n)] for i in range(n)]
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n * (n - 1) // 2)]
        orthogonal.append((RatMatrix, exact_cayley(B, a)))
        if n >= 2:
            orthogonal.append((QuadMatrix, givens_product(rng, n, rng.randint(1, 2 * n))))
    assert any(domain is QuadMatrix for domain, _ in orthogonal) == (n >= 2)
    for domain, Q in orthogonal:
        cases = [(Q, True), (nudged(Q, n - 1, n - 1, rng), False),
                 (nudged(Q, rng.randrange(n), rng.randrange(n), rng), False)]
        if n >= 2:
            cases.append((column_swapped(Q, *rng.sample(range(n), 2)), True))
            cases.append((column_copied(Q, *rng.sample(range(n), 2)), False))
        for grid, want in cases:
            assert gram_is_identity(grid) is want
            assert is_orthogonal(domain.from_rows(package_rows(grid))) is want


def test_is_orthogonal_order_one_and_shape():
    for domain in (RatMatrix, QuadMatrix):
        assert is_orthogonal(domain.from_rows([[1]]))
        assert is_orthogonal(domain.from_rows([[-1]]))
        assert not is_orthogonal(domain.from_rows([[0]]))
        with pytest.raises(ValueError, match="square"):
            is_orthogonal(domain.from_rows([[1, 0]]))
    assert not is_orthogonal(QuadMatrix.from_rows([[QuadRational(0, 1)]]))


def test_is_orthogonal_checks_the_sqrt2_part():
    # (1/3 + 2/3 sqrt2)^2 = 1 + 4/9 sqrt2: the rational part of each column
    # norm is 1, the sqrt2 part is not 0
    x = Sqrt2(Fraction(1, 3), Fraction(2, 3))
    assert not is_orthogonal(QuadMatrix.from_rows(package_rows([[x]])))
    c, s = Fraction(3, 5), Fraction(4, 5)
    A = QuadMatrix.from_rows(package_rows([[c * x, -s * x], [s * x, c * x]]))
    assert not is_orthogonal(A)
    assert is_orthogonal(QuadMatrix.from_rows([[c, -s], [s, c]]))


def test_det_sign_values(q1, q2):
    assert det_sign(q1) == 1
    assert det_sign(q2) == -1
    assert det_sign(RatMatrix.from_rows([[1, 1], [1, 1]])) == 0


def test_orthogonal_det_sign_never_zero(q1, q2, r3):
    for M in (q1, q2, r3, RatMatrix.from_rows(identity_grid(4)), RatMatrix.from_rows(grid_scale(identity_grid(4), -1))):
        assert is_orthogonal(M)
        assert det_sign(M) in (-1, 1)


# -- entry grammar and matrix files -------------------------------------------

@pytest.mark.parametrize(
    "text,value",
    [
        ("5/8", Fraction(5, 8)),
        ("-3", Fraction(-3)),
        ("0", Fraction(0)),
        ("+7/2", Fraction(7, 2)),
        ("1/2*sqrt2", QuadRational(0, Fraction(1, 2))),
        ("-1/2*sqrt2", QuadRational(0, Fraction(-1, 2))),
        ("sqrt2", QuadRational(0, 1)),
        ("-sqrt2", QuadRational(0, -1)),
        ("3*sqrt2", QuadRational(0, 3)),
        ("1/2+1/2*sqrt2", QuadRational(Fraction(1, 2), Fraction(1, 2))),
        ("2-3/4*sqrt2", QuadRational(2, Fraction(-3, 4))),
        ("1/2+sqrt2", QuadRational(Fraction(1, 2), 1)),
        ("3sqrt2", QuadRational(0, 3)),
    ],
)
def test_parse_entry(text, value):
    assert parse_entry(text) == value


@pytest.mark.parametrize("bad", ["", "abc", "1/2/3", "sqrt2*sqrt2", "1/0", "1+2+3*sqrt2", "sqrt3",
                                 "1.5", "1e3", "1_000", "1e2000000", "\u0661/\u0662", "\u0661+sqrt2",
                                 "1 2", "- 3 / 4", "sqrt 2", "1/2 + sqrt2",
                                 "*sqrt2", "1+*sqrt2", "-*sqrt2", "sqrt2*"])
def test_parse_entry_rejects_garbage(bad):
    with pytest.raises(ParseError):
        parse_entry(bad)


# integer texts with leading zeros, short or of 60 digits and more
digit_texts = st.builds(lambda zeros, k: "0" * zeros + str(k), st.integers(0, 3),
                        st.one_of(st.integers(0, 999), st.integers(10**59, 10**80)))
sign_texts = st.sampled_from(["", "+", "-"])
unsigned_texts = st.builds(lambda p, q: p if q is None else f"{p}/{q}", digit_texts, st.none() | digit_texts)
rational_texts = st.builds(operator.add, sign_texts, unsigned_texts)


@given(rational_texts)
@example("-0/5")
@example("+007/010")
@example("1/0")
def test_parse_rational_entry_matches_fraction_text(text):
    try:
        want = Fraction(text)
    except ZeroDivisionError:
        with pytest.raises(ParseError, match="zero denominator"):
            parse_entry(text)
        return
    got = parse_entry(text)
    assert type(got) is Fraction
    assert got == want


@given(st.none() | rational_texts, sign_texts, st.none() | unsigned_texts, st.booleans())
@example(None, "", "0", True)
@example("-0/5", "-", "0/7", False)
def test_parse_quad_entry_matches_fraction_text(a, sign, b, star):
    if a is not None and not sign:
        sign = "+"  # after p/q the sign is required
    text = (a or "") + sign + (b + "*" * star if b else "") + "sqrt2"
    try:
        want = QuadRational(Fraction(a or "0"), Fraction(sign + (b or "1")))
    except ZeroDivisionError:
        with pytest.raises(ParseError, match="zero denominator"):
            parse_entry(text)
        return
    assert parse_entry(text) == want


@given(rationals)
def test_rational_entry_roundtrip(x):
    assert parse_entry(format_entry(x)) == x


@given(quads)
def test_quad_entry_roundtrip(x):
    v = parse_entry(format_entry(x))
    if x.b == 0:
        assert v == x.a
    else:
        assert v == x


def test_str_renders_every_cell_in_the_entry_grammar(q1, r3):
    for M in (q1, r3):
        lines = str(M).splitlines()
        assert len(lines) == M.n
        for i, line in enumerate(lines):
            assert line.startswith("[") and line.endswith("]")
            cells = line[1:-1].split()
            assert len(cells) == M.n
            for j, cell in enumerate(cells):
                assert parse_entry(cell) == M[i, j] == parse_entry(str(M[i, j]))
    assert str(r3[0, 0]) == "1/2*sqrt2"


def test_matrix_json_roundtrip(q1, r3):
    for M in (q1, r3):
        assert parse_matrix_json(json.dumps(matrix_to_jsonable(M))) == M


def test_parse_matrix_json_reports_location():
    text = '{"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "oops"]]}'
    with pytest.raises(ParseError) as exc:
        parse_matrix_json(text)
    # a place in "entries", not a file position
    assert str(exc.value) == "bad entry 'oops' (row 2, entry 2)"
    assert (exc.value.line, exc.value.col) == (None, None)


def test_parse_matrix_json_rejects_non_square_and_empty_shapes():
    with pytest.raises(ParseError, match='"rows" and "cols" must be equal and at least 1, got 2 and 3'):
        parse_matrix_json('{"rows": 2, "cols": 3, "entries": [["1", "0", "0"], ["0", "1", "0"]]}')
    with pytest.raises(ParseError, match="got 0 and 0"):
        parse_matrix_json('{"rows": 0, "cols": 0, "entries": []}')


def test_parse_reports_integers_beyond_the_digit_limit(int_digit_limit):
    big = "1" + "0" * int_digit_limit
    with pytest.raises(ParseError, match="an integer in it has too many digits") as exc:
        parse_matrix_json('{"rows": 2, "cols": 2,\n "entries": [["1", "0"],\n  ["0", "%s"]]}' % big)
    assert "(row 2, entry 2)" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (None, None)
    with pytest.raises(ParseError, match=f"a number has more than {int_digit_limit} digits") as exc:
        parse_matrix_json('{"entries": [["1%s"]],\n "rows": 1, "cols": -%s}' % (big, big))
    assert (exc.value.line, exc.value.col) == (2, 21)
    with pytest.raises(ParseError, match=r"bad entry of \d+ characters") as exc:
        parse_entry(f"1/{big}")
    assert exc.value.line is None


def test_parse_matrix_json_rejects_bad_shape():
    with pytest.raises(ParseError):
        parse_matrix_json('{"rows": 2, "cols": 2, "entries": [["1", "0"]]}')
    with pytest.raises(ParseError):
        parse_matrix_json("[1, 2, 3]")
    with pytest.raises(ParseError):
        parse_matrix_json("{not json")
    with pytest.raises(ParseError, match='"rows" and "cols" must be integers'):
        parse_matrix_json('{"rows": true, "cols": true, "entries": [["1"]]}')
    with pytest.raises(ParseError, match="row 2 must be a list"):
        parse_matrix_json('{"rows": 2, "cols": 2, "entries": [["1", "0"], "0"]}')
    with pytest.raises(ParseError, match="entry must be a string, got int"):
        parse_matrix_json('{"rows": 2, "cols": 2, "entries": [["1", 0], ["0", "1"]]}')
