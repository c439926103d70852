import sys

import pytest

from orthosign import get_fixture


@pytest.fixture(scope="session")
def q1():
    return get_fixture("q1")


@pytest.fixture(scope="session")
def q2():
    return get_fixture("q2")


@pytest.fixture(scope="session")
def r3():
    return get_fixture("r3")


@pytest.fixture(scope="session")
def s3():
    return get_fixture("s3")


@pytest.fixture(scope="session")
def t3():
    return get_fixture("t3")


@pytest.fixture(scope="session")
def pstar():
    return get_fixture("pstar")


@pytest.fixture()
def int_digit_limit():
    """Python's default cap on the digits int() reads, 4300, set for one test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("Python before 3.10.7 has no cap on the digits int() reads")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)
