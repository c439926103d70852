from fractions import Fraction

import pytest

from orthosign import (
    QuadMatrix,
    RatMatrix,
    SignPattern,
    det_sign,
    get_fixture,
    is_orthogonal,
    necessary_check,
    sign_pattern_of,
)
from orthosign.fixtures import FIXTURE_NAMES, fixture_text


def test_catalog_is_complete():
    for name in FIXTURE_NAMES:
        assert get_fixture(name) is not None
    assert set(FIXTURE_NAMES) == {"q1", "q2", "r3", "s3", "t3", "pstar"}


def test_unknown_fixture():
    with pytest.raises(KeyError):
        get_fixture("q3")


def test_q1_entries(q1):
    assert isinstance(q1, RatMatrix)
    assert q1.n == 7
    assert q1[0, 0] == Fraction(5, 8)
    assert q1[0, 3] == Fraction(-3, 8)
    assert q1[6, 6] == Fraction(5, 8)


def test_q2_entries(q2):
    assert q2.n == 7
    assert q2[0, 0] == Fraction(9389, 20014)
    # stored canonically: 396/20014 reduces
    assert q2[0, 1] == Fraction(198, 10007)
    assert q2[0, 1] == Fraction(396, 20014)
    assert q2[1, 0] == Fraction(-10197, 20014)


def test_t3_value(t3):
    assert t3 == SignPattern.from_rows([[1, 1, 0], [1, 1, -1], [1, 1, 1]])


def test_s3_value(s3):
    assert s3 == SignPattern.from_rows([[1, -1, 0], [1, 1, -1], [1, 1, 1]])


def test_r3_is_the_sqrt2_realization(r3):
    assert isinstance(r3, QuadMatrix)
    half_sqrt2 = r3[0, 0]
    assert half_sqrt2.a == 0 and half_sqrt2.b == Fraction(1, 2)
    assert r3[1, 0] == Fraction(1, 2)


def test_fixture_invariants(q1, q2, r3, s3, t3, pstar):
    assert is_orthogonal(q1) and det_sign(q1) == 1
    assert is_orthogonal(q2) and det_sign(q2) == -1
    assert is_orthogonal(r3)
    assert sign_pattern_of(q1) == sign_pattern_of(q2) == pstar
    assert sign_pattern_of(r3) == s3
    assert necessary_check(s3).passed
    assert not necessary_check(t3).passed


def test_pstar_first_row(pstar):
    assert pstar.row(0) == (1, 1, 1, -1, -1, 1, 1)


def test_orthogonal_fixtures_pass_necessary_check(q1, q2, r3):
    for M in (q1, q2, r3):
        assert necessary_check(sign_pattern_of(M)).passed


def test_fixture_files_are_the_parse_source(q1):
    # data files are the single source of truth; reparsing them must agree
    from orthosign.exact import parse_matrix_json

    assert parse_matrix_json(fixture_text("q1")) == q1
