"""Bundled example matrices and patterns, parsed from data files.

The data ships in the package's fixtures/ directory in the exact-matrix JSON
format and the pattern text format, so the same files double as CLI examples
and format tests.  Catalog:

    q1     7x7 rational orthogonal matrix, entries over denominator 8,
           determinant +1
    q2     7x7 rational orthogonal matrix, entries over denominator 20014,
           determinant -1; same sign pattern as q1
    pstar  the shared sign pattern of q1 and q2 (the first known pattern
           realized by orthogonal matrices of both determinant signs)
    s3     3x3 pattern that allows orthogonality
    r3     orthogonal matrix over Q(sqrt2) realizing s3
    t3     3x3 pattern that does not allow orthogonality (columns 1,2
           have a sign-forced positive dot product)
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from .exact import parse_matrix_json
from .signpat import SignPattern

MATRIX_NAMES = ("q1", "q2", "r3")
PATTERN_NAMES = ("s3", "t3", "pstar")
FIXTURE_NAMES = MATRIX_NAMES + PATTERN_NAMES


def fixture_filename(name: str) -> str:
    if name in MATRIX_NAMES:
        return f"{name}.json"
    if name in PATTERN_NAMES:
        return f"{name}.pat"
    raise KeyError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")


def fixture_text(name: str) -> str:
    """Raw file contents of a fixture."""
    path = resources.files(__package__) / "fixtures" / fixture_filename(name)
    return path.read_text()


@lru_cache(maxsize=None)
def get_fixture(name: str):
    """Parse a fixture by name; matrices and patterns share one catalog."""
    text = fixture_text(name)
    if name in MATRIX_NAMES:
        return parse_matrix_json(text)
    return SignPattern.from_text(text)

