"""Exact linear algebra over Q and Q(sqrt2).

Everything in this module is integer/fraction arithmetic: no float is
trusted anywhere, and one is made only where a caller asks for float(x).
Every matrix is square by construction: the base class SquareMatrix(n,
entries) owns the shape, for sign patterns and exact matrices alike, and a
subclass only converts its entries; SignPattern, RatMatrix and QuadMatrix
are the ones built.  The one exact-matrix type, ExactMatrix, comes in two
scalar domains: RatMatrix over Q and QuadMatrix over Q(sqrt2); an entry
that is already a Fraction is kept, not rebuilt.  sgn is the one sign
function for exact scalars.  QuadRational is a value, not an arithmetic:
it parses, formats, compares, hashes, negates and converts to float, and
the ring _Z2 below is the one place where elements of Q(sqrt2) are added
and multiplied.

The two checks read one scaled matrix, and _scaled alone computes it:
D*A, D the least common denominator of all of A's entries, which turns
rationals into Python ints and elements of Q(sqrt2) into pairs p + q*sqrt2
of the ring Z[sqrt2] (_Z2), and no Fraction or QuadRational arithmetic runs
inside their loops.  Orthogonality is decided column pair by column pair on
D*A: the dot product of columns i <= j must be D^2 when i = j and 0
otherwise, and the first pair that misses decides; no Gram matrix is built.
The determinant runs fraction-free (Bareiss) elimination on D*A in the
ring, the same code for both domains, and divides by D^n, since
det(A) = det(D*A)/D^n.  Entry strings follow one grammar, the pattern
_ENTRY_RE.
"""

from __future__ import annotations

import json
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence


class ParseError(ValueError):
    """Malformed matrix/pattern input; line and col, when given, are a
    position in the input text."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            where = f"line {line}" + (f", column {col}" if col is not None else "")
            message = f"{message} ({where})"
        super().__init__(message)


def sgn(x) -> int:
    """Sign of an exact number (int, Fraction or QuadRational): -1, 0 or +1."""
    if isinstance(x, QuadRational):
        sa, sb = sgn(x.a), sgn(x.b)
        if sa * sb >= 0:
            return sa or sb
        # opposite signs: compare a^2 with 2b^2 (equality would force a=b=0)
        return sa * sgn(x.a * x.a - 2 * x.b * x.b)
    if isinstance(x, Fraction):
        # a Fraction's denominator is positive: the numerator carries the sign
        x = x.numerator
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def _integer(name: str, value, least: int) -> int:
    """value as a Python int (a numpy integer too, not a bool); name's
    message refuses any other type, or a value below least."""
    try:
        if isinstance(value, bool):  # an int subclass, refused like any non-integer
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}") from None
    if value < least:
        raise ValueError(f"{name} must be " + ("nonnegative" if least == 0 else f"at least {least}"))
    return value


def _rational(x) -> Fraction:
    """x as a Fraction; a Fraction is kept, not rebuilt."""
    return x if type(x) is Fraction else Fraction(x)


# the double nearest sqrt(2), as an exact fraction (relative error < 7e-17)
_SQRT2 = Fraction(1.4142135623730951)


@dataclass(frozen=True)
class QuadRational:
    """Element a + b*sqrt(2) of the real quadratic field Q(sqrt2).

    Equality is component-wise, which is exact because sqrt(2) is irrational:
    a + b*sqrt(2) = 0 iff a = b = 0.  A value: its one operator is negation,
    and _Z2 does the arithmetic.
    """

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", _rational(self.a))
        object.__setattr__(self, "b", _rational(self.b))

    @staticmethod
    def _coerce(x) -> "QuadRational":
        if isinstance(x, QuadRational):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadRational(x, 0)
        raise TypeError(f"cannot coerce {type(x).__name__} into Q(sqrt2)")

    def __neg__(self):
        return QuadRational(-self.a, -self.b)

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, QuadRational)):
            o = self._coerce(other)
            return self.a == o.a and self.b == o.b
        return NotImplemented

    def __hash__(self):
        # a rational it equals hashes the same
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __float__(self) -> float:
        a, b = self.a, self.b
        if a * b < 0:
            # a + b*sqrt2 = (a^2 - 2b^2)/(a - b*sqrt2): the two terms of the
            # denominator share a sign, so nothing cancels; one rounding
            return float((a * a - 2 * b * b) / (a - b * _SQRT2))
        return float(a) + float(b) * 1.4142135623730951

    def __repr__(self):
        return f"QuadRational({self.a!r}, {self.b!r})"

    def __str__(self):
        return format_entry(self)


@dataclass(frozen=True)
class SquareMatrix:
    """Dense immutable n x n matrix, row-major entries: the one shape of the
    package.  A base only: a subclass converts its entries, in _convert, and
    SignPattern, RatMatrix and QuadMatrix are the ones built."""

    n: int
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", _integer("matrix order", self.n, 1))
        entries = tuple(self.entries)
        if len(entries) != self.n * self.n:
            raise ValueError(f"expected {self.n * self.n} entries for order {self.n}, got {len(entries)}")
        object.__setattr__(self, "entries", self._convert(entries))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]):
        rows = [tuple(r) for r in rows]
        if any(len(r) != len(rows) for r in rows):
            raise ValueError(f"a square matrix needs {len(rows)} rows of length {len(rows)}, got {[len(r) for r in rows]}")
        return cls(len(rows), tuple(e for r in rows for e in r))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.n + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.n : (i + 1) * self.n]


class ExactMatrix(SquareMatrix):
    """Square matrix over an exact scalar domain, fixed by the subclass,
    RatMatrix (over Q) or QuadMatrix (over Q(sqrt2)): its `_coerce` maps an
    int, a Fraction or a domain element into the domain."""

    def _convert(self, entries: tuple) -> tuple:
        return tuple(map(self._coerce, entries))

    def __str__(self):
        cells = [[format_entry(e) for e in self.row(i)] for i in range(self.n)]
        width = [max(len(r[j]) for r in cells) for j in range(self.n)]
        return "\n".join("[" + "  ".join(c.rjust(width[j]) for j, c in enumerate(r)) + "]" for r in cells)


class RatMatrix(ExactMatrix):
    """Dense matrix over Q; entries are Fractions."""

    _coerce = staticmethod(_rational)


class QuadMatrix(ExactMatrix):
    """Dense matrix over Q(sqrt2); entries are QuadRationals."""

    _coerce = staticmethod(QuadRational._coerce)


class _Z2:
    """Element p + q*sqrt(2) of the ring Z[sqrt2], integer parts, slotted.

    Only what fraction-free elimination and a dot product need: +, -, *, ==
    and exact division //.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int = 0):
        self.p = p
        self.q = q

    def __add__(self, o):
        return _Z2(self.p + o.p, self.q + o.q)

    def __sub__(self, o):
        return _Z2(self.p - o.p, self.q - o.q)

    def __neg__(self):
        return _Z2(-self.p, -self.q)

    def __mul__(self, o):
        return _Z2(self.p * o.p + 2 * self.q * o.q, self.p * o.q + self.q * o.p)

    def __eq__(self, o):
        return self.p == o.p and self.q == o.q

    def __floordiv__(self, o):
        # x / y = x * conj(y) / N(y) with the norm N(y) = p^2 - 2q^2, which
        # may be negative; a caller divides only where the quotient lies in
        # Z[sqrt2], so both parts divide exactly
        n = o.p * o.p - 2 * o.q * o.q
        return _Z2((self.p * o.p - 2 * self.q * o.q) // n, (self.q * o.p - self.p * o.q) // n)


def _scaled(A: ExactMatrix) -> tuple[list, int, type]:
    """(D*A row-major, D, ring), D the least common denominator of A's
    entries; ring maps an int into the ring the entries land in: int over Q,
    _Z2 over Q(sqrt2)."""
    if isinstance(A, QuadMatrix):
        d = lcm(*(x.denominator for e in A.entries for x in (e.a, e.b)))
        return [_Z2(e.a.numerator * (d // e.a.denominator), e.b.numerator * (d // e.b.denominator))
                for e in A.entries], d, _Z2
    d = lcm(*(e.denominator for e in A.entries))
    return [e.numerator * (d // e.denominator) for e in A.entries], d, int


def _det_bareiss(a: list[list], zero, one):
    """Fraction-free (Bareiss) determinant of a square matrix over Z or
    Z[sqrt2].

    Every division below is exact by Sylvester's identity (prev divides the
    2x2 minor), so // loses nothing.  Entries are consumed.
    """
    n = len(a)
    sign = 1
    prev = one
    for k in range(n - 1):
        if a[k][k] == zero:
            for i in range(k + 1, n):
                if a[i][k] != zero:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return zero
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = pivot
    return a[n - 1][n - 1] if sign == 1 else -a[n - 1][n - 1]


def det(A: ExactMatrix):
    """Exact determinant (Fraction or QuadRational)."""
    # eliminate D*A in the ring, divide by D^n
    n = A.n
    flat, d, ring = _scaled(A)
    x = _det_bareiss([flat[i * n : (i + 1) * n] for i in range(n)], ring(0), ring(1))
    scale = d**n
    return QuadRational(Fraction(x.p, scale), Fraction(x.q, scale)) if isinstance(A, QuadMatrix) else Fraction(x, scale)


def det_sign(A: ExactMatrix) -> int:
    """Sign of the exact determinant: -1, 0 or +1."""
    return sgn(det(A))


def is_orthogonal(A: ExactMatrix) -> bool:
    """True iff A^T A is the identity exactly.  With D the least common
    denominator of A's entries and B = D*A over Z or Z[sqrt2], the dot
    product of columns i <= j of B must be D^2 if i = j and 0 if not.
    Returns False at the first pair that misses, in either domain."""
    n = A.n
    flat, d, ring = _scaled(A)
    zero, norm = ring(0), ring(d * d)
    cols = [flat[j::n] for j in range(n)]
    return all(
        sum(map(operator.mul, cols[i], cols[j]), zero) == (norm if i == j else zero)
        for i in range(n)
        for j in range(i, n)
    )


# ---------------------------------------------------------------------------
# Exact matrix file format: JSON {"rows": n, "cols": n, "entries": [[str]]},
# n >= 1, with each string in the entry grammar below.

# a JSON string, skipped, or an integer number, its digits in group 1
_JSON_STRING_OR_INT_RE = re.compile(r'"(?:[^"\\]|\\.)*"|(?<![\d.eE+-])-?(\d+)(?![\d.eE])')


def load_json(text: str, source: str = ""):
    """json.loads, with every failure a ParseError that has a location;
    source names the input in the message, as in " in seeds.json".

    json's scanner gives no location for a number over Python's int() digit
    cap, so _JSON_STRING_OR_INT_RE finds it; the text is valid JSON up to
    that number, and the pattern need only skip strings and tell integers
    from the digits of fractions and exponents."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON{source}: {e.msg}", line=e.lineno, col=e.colno) from None
    except ValueError:
        # json's int() refuses more than sys.get_int_max_str_digits() digits;
        # Python before 3.10.7 has no cap, and no ValueError that is not a
        # JSONDecodeError reaches here
        limit = sys.get_int_max_str_digits()
        at = next((m.start() for m in _JSON_STRING_OR_INT_RE.finditer(text) if len(m[1] or "") > limit), 0)
        raise ParseError(f"invalid JSON{source}: a number has more than {limit} digits",
                         line=text.count("\n", 0, at) + 1, col=at - text.rfind("\n", 0, at)) from None


# The pattern gates Fraction, which alone would also take "1.5", "1e3" and
# "1_000", and for an exponent such as "1e2000000" would spend time and
# memory in proportion to its value.  re.ASCII: \d alone also matches the
# digits of other scripts (U+0661 is 1).
_ENTRY_RE = re.compile(
    r"""
      (?P<rat> [+-]? \d+ (?: / \d+ )? )               # p or p/q
    |                                                 # or a + b*sqrt2:
      (?: (?P<a> [+-]? \d+ (?: / \d+ )? ) (?=[+-]) )?  # optional p/q, then a sign
      (?P<sign> [+-]? )                               # (optional without p/q)
      (?: (?P<b> \d+ (?: / \d+ )? ) \*? )?            # optional r/s, '*' optional
      sqrt2
    """,
    re.ASCII | re.VERBOSE,
)


def _fraction(text: str) -> Fraction:
    """Fraction from the integer text of a matched "p" or "p/q"."""
    p, _, q = text.partition("/")
    return Fraction(int(p), int(q or 1))


def parse_entry(s: str):
    """Parse one exact entry string into a Fraction or QuadRational.

    The grammar is _ENTRY_RE, matched after dropping leading and trailing
    whitespace: "p" or "p/q", or [p/q]{+|-}[r/s[*]]sqrt2, where the sign may
    be left out only when there is no p/q part.
    """
    m = _ENTRY_RE.fullmatch(s.strip())
    if m is None:
        raise ParseError(f"bad entry {s!r}")
    try:
        if m["rat"] is not None:
            return _fraction(m["rat"])
        return QuadRational(_fraction(m["a"] or "0"), _fraction(m["sign"] + (m["b"] or "1")))
    except ZeroDivisionError:
        raise ParseError(f"bad entry {s!r}: zero denominator") from None
    except ValueError:  # int() refuses more than sys.get_int_max_str_digits() digits
        raise ParseError(f"bad entry of {len(s)} characters: an integer in it has too many digits") from None


def format_entry(x) -> str:
    """Render an exact scalar in the entry grammar accepted by parse_entry."""
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    if x.b == 0:
        return str(x.a)
    coeff = f"{x.b}*sqrt2"
    if x.a == 0:
        return coeff
    return f"{x.a}+{coeff}" if x.b > 0 else f"{x.a}-{-x.b}*sqrt2"


def parse_matrix_json(text: str) -> ExactMatrix:
    """Parse the exact matrix JSON format; returns RatMatrix or QuadMatrix."""
    return matrix_from_jsonable(load_json(text))


def matrix_from_jsonable(obj) -> ExactMatrix:
    """The exact matrix of a decoded JSON object in the exact matrix format;
    an entry's error names its place in "entries", as (row i, entry j)."""
    if not isinstance(obj, dict) or not {"rows", "cols", "entries"} <= set(obj):
        raise ParseError('exact matrix JSON must be an object with "rows", "cols" and "entries"')
    rows, cols, grid = obj["rows"], obj["cols"], obj["entries"]
    # JSON true and false load as bool, a subclass of int
    if not (type(rows) is int and type(cols) is int):
        raise ParseError('"rows" and "cols" must be integers')
    if rows != cols or rows < 1:
        raise ParseError(f'"rows" and "cols" must be equal and at least 1, got {rows} and {cols}')
    if not isinstance(grid, list) or len(grid) != rows:
        raise ParseError(f'"entries" must be a list of {rows} rows')
    parsed = []
    quad = False
    for i, r in enumerate(grid):
        if not isinstance(r, list) or len(r) != cols:
            raise ParseError(f"row {i + 1} must be a list of {cols} entry strings")
        for j, s in enumerate(r):
            try:
                if not isinstance(s, str):
                    raise ParseError(f"entry must be a string, got {type(s).__name__}")
                v = parse_entry(s)
            except ParseError as e:
                raise ParseError(f"{e} (row {i + 1}, entry {j + 1})") from None
            quad = quad or isinstance(v, QuadRational)
            parsed.append(v)
    return (QuadMatrix if quad else RatMatrix)(rows, tuple(parsed))


def matrix_to_jsonable(M: ExactMatrix) -> dict:
    grid = [[format_entry(e) for e in M.row(i)] for i in range(M.n)]
    return {"rows": M.n, "cols": M.n, "entries": grid}
