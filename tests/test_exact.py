import math
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
    mat_mul,
    matrix_to_json,
    parse_entry,
    parse_matrix_json,
    sgn,
)
from orthosign.realize import to_float
from orthosign.signpat import GroupElement, act, sign_pattern_of
from oracles import det_cofactor, int_matmul, rational_matrix_to_grid, transpose

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


# -- QuadRational field arithmetic -------------------------------------------

def test_quad_multiplication_formula():
    x = QuadRational(Fraction(1), Fraction(2))
    y = QuadRational(Fraction(3), Fraction(-1))
    # (1 + 2*sqrt2)(3 - sqrt2) = 3 - sqrt2 + 6*sqrt2 - 2*2 = -1 + 5*sqrt2
    assert x * y == QuadRational(Fraction(-1), Fraction(5))


@given(quads, quads)
def test_quad_multiplication_commutes(x, y):
    assert x * y == y * x


@given(quads, quads, quads)
def test_quad_multiplication_distributes(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(quads, quads)
def test_quad_division_inverts_multiplication(x, y):
    if not y:
        return
    assert (x / y) * y == x


@given(quads)
def test_quad_sign_matches_float(x):
    f = float(x)
    if abs(f) > 1e-9:
        assert sgn(x) == (1 if f > 0 else -1)
    if sgn(x) == 0:
        assert x.a == 0 and x.b == 0


def test_quad_zero_iff_both_components_zero():
    assert not QuadRational(0, 0)
    assert QuadRational(0, 1)
    assert QuadRational(1, 0)
    # a + b*sqrt2 = 0 with both nonzero is impossible; nearby values are not 0
    assert QuadRational(Fraction(-7, 5), Fraction(99, 100)) != 0
    with pytest.raises(ZeroDivisionError):
        QuadRational(1, 1) / QuadRational(0, 0)


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


def test_rational_embeds_into_quad():
    x = QuadRational(Fraction(1, 2), Fraction(1, 3))
    assert x + Fraction(1, 2) == QuadRational(1, Fraction(1, 3))
    assert x * 2 == QuadRational(1, Fraction(2, 3))
    assert Fraction(1, 2) - x == QuadRational(0, Fraction(-1, 3))


# -- mat_mul ------------------------------------------------------------------

def test_mat_mul_identity():
    I3 = RatMatrix.identity(3)
    assert mat_mul(I3, I3) == I3


def test_mat_mul_permutation():
    A = RatMatrix.from_rows([[1, 2], [3, 4]])
    P = RatMatrix.from_rows([[0, 1], [1, 0]])
    assert mat_mul(A, P) == RatMatrix.from_rows([[2, 1], [4, 3]])


def test_mat_mul_scaled_gram_of_q1(q1):
    N = q1.scale(8)
    gram = mat_mul(N.transpose(), N)
    assert gram == RatMatrix.identity(7).scale(64)
    # big-integer oracle for the same product
    ints = [[int(e) for e in row] for row in rational_matrix_to_grid(N)]
    oracle = int_matmul(transpose(ints), ints)
    assert oracle == [[64 if i == j else 0 for j in range(7)] for i in range(7)]


def test_mat_mul_shape_mismatch():
    A = RatMatrix.from_rows([[1, 2], [3, 4]])
    B = RatMatrix.from_rows([[1, 2, 3]])
    with pytest.raises(ValueError):
        mat_mul(A, B)


def test_mat_mul_mixed_domains_rejected(q1, r3):
    with pytest.raises(ValueError):
        mat_mul(r3, RatMatrix.identity(3))
    assert mat_mul(RatMatrix.identity(3).to_quad(), r3) == r3


def test_matrix_rejects_bad_shape():
    for domain in (RatMatrix, QuadMatrix):
        with pytest.raises(ValueError):
            domain(2, 2, (1, 2, 3))
        with pytest.raises(ValueError):
            domain.from_rows([])
        with pytest.raises(ValueError):
            domain.from_rows([[1, 2], [3, 4, 5], [6]])
        with pytest.raises(ValueError):
            domain.from_rows([[1, 2, 3], [4]])


def test_operations_keep_domain_subclass():
    # the exact layer is traced per domain by the type name of the operand
    g = GroupElement((1, -1), (-1, 1), (1, 0), (0, 1), True)
    for domain in (RatMatrix, QuadMatrix):
        A = domain.from_rows([[1, 2], [3, 4]])
        for M in (A, A.transpose(), A.scale(3), domain.identity(2), mat_mul(A, A), act(g, A)):
            assert type(M) is domain
    assert type(RatMatrix.identity(2).to_quad()) is QuadMatrix


# -- determinants -------------------------------------------------------------

def test_det_identity():
    assert det(RatMatrix.identity(7)) == 1


def test_det_scaled_q1(q1):
    d = det(q1.scale(8))
    assert d == 2097152 == 8**7
    ints = [[int(e) for e in row] for row in rational_matrix_to_grid(q1.scale(8))]
    assert det_cofactor(ints) == 2097152


def test_det_scaled_q2(q2):
    d = det(q2.scale(20014))
    assert d == -(20014**7)
    ints = [[int(e) for e in row] for row in rational_matrix_to_grid(q2.scale(20014))]
    assert det_cofactor(ints) == -(20014**7)


def test_det_singular():
    assert det(RatMatrix.from_rows([[1, 1], [1, 1]])) == 0


def test_det_rational_entries():
    A = RatMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]])
    assert det(A) == Fraction(1, 14) - Fraction(1, 15)


def test_det_quad_matrix(r3):
    assert det(r3) == QuadRational(1, 0)
    A = QuadMatrix.from_rows([[QuadRational(0, 1), 0], [0, QuadRational(0, 1)]])
    assert det(A) == QuadRational(2, 0)


# Q(sqrt2) entries with small a, b parts; zeros are drawn often so that zero
# pivots, row swaps and singular matrices occur in that domain too
small_quads = st.one_of(st.just(QuadRational(0, 0)), st.builds(QuadRational, st.integers(-3, 3), st.integers(-3, 3)))
S2 = QuadRational(0, 1)


@settings(max_examples=120)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.one_of(
            st.lists(st.integers(-9, 9), min_size=n * n, max_size=n * n),
            st.lists(small_quads, min_size=n * n, max_size=n * n),
        )
    )
)
# zero pivot at step 2 (row swap), and a singular matrix (row 2 = sqrt2 * row 1)
@example([1, 1, 1, 1, 1, 2, S2, 0, 1])
@example([1, S2, 0, S2, 2, 0, 0, 0, 1])
def test_det_bareiss_matches_cofactor(flat):
    n = int(len(flat) ** 0.5)
    rows = [flat[i * n : (i + 1) * n] for i in range(n)]
    domain = QuadMatrix if any(isinstance(e, QuadRational) for e in flat) else RatMatrix
    assert det(domain.from_rows(rows)) == det_cofactor(rows)


def test_det_multiplicative():
    rng = random.Random(42)
    for _ in range(25):
        A = RatMatrix.from_rows([[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)])
        B = RatMatrix.from_rows([[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)])
        assert det(mat_mul(A, B)) == det(A) * det(B)


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det(RatMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(ValueError, match="square"):
        is_orthogonal(RatMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))


# -- orthogonality and determinant sign ---------------------------------------

def test_is_orthogonal_identity():
    assert is_orthogonal(RatMatrix.identity(5))


def test_is_orthogonal_fixtures(q1, q2, r3):
    assert is_orthogonal(q1)
    assert is_orthogonal(q2)
    assert is_orthogonal(r3)


def test_is_orthogonal_rejects_rank_one():
    assert not is_orthogonal(RatMatrix.from_rows([[1, 1], [1, 1]]))


def test_det_sign_values(q1, q2):
    assert det_sign(q1) == 1
    assert det_sign(q2) == -1
    assert det_sign(RatMatrix.from_rows([[1, 1], [1, 1]])) == 0


def test_orthogonal_det_sign_never_zero(q1, q2, r3):
    for M in (q1, q2, r3, RatMatrix.identity(4), RatMatrix.identity(4).scale(-1)):
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
        assert len(lines) == M.rows
        for i, line in enumerate(lines):
            assert line.startswith("[") and line.endswith("]")
            cells = line[1:-1].split()
            assert len(cells) == M.cols
            for j, cell in enumerate(cells):
                assert parse_entry(cell) == M[i, j] == parse_entry(str(M[i, j]))
    assert str(r3[0, 0]) == "1/2*sqrt2"


def test_matrix_json_roundtrip(q1, r3):
    for M in (q1, r3):
        assert parse_matrix_json(matrix_to_json(M)) == M


def test_parse_matrix_json_reports_location():
    text = '{"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "oops"]]}'
    with pytest.raises(ParseError) as exc:
        parse_matrix_json(text)
    assert exc.value.line == 2
    assert exc.value.col == 2


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
        parse_matrix_json('{"rows": 2, "cols": 1, "entries": [["1"], "0"]}')
    with pytest.raises(ParseError, match="entry must be a string, got int"):
        parse_matrix_json('{"rows": 1, "cols": 2, "entries": [["1", 0]]}')
