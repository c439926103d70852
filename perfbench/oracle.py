"""Independent truth for the benchmark's answer checks.

Everything here is plain Python on lists of Fractions and a minimal
a + b*sqrt(2) type of its own, and it imports nothing from orthosign, so a
defect in the package's exact layer cannot also hide in the oracle.  It
computes orthogonality by an explicit Gram product, determinants by ordinary
Gaussian elimination over the field (not Bareiss), sign patterns, the
combinatorial necessary check, and the order-3 census truth table.
"""

from __future__ import annotations

from fractions import Fraction


class Sqrt2:
    """a + b*sqrt(2) with Fraction components; enough field arithmetic for
    elimination and Gram products."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    @staticmethod
    def lift(x) -> "Sqrt2":
        return x if isinstance(x, Sqrt2) else Sqrt2(x)

    def __add__(self, o):
        o = Sqrt2.lift(o)
        return Sqrt2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, o):
        o = Sqrt2.lift(o)
        return Sqrt2(self.a - o.a, self.b - o.b)

    def __rsub__(self, o):
        return Sqrt2.lift(o) - self

    def __neg__(self):
        return Sqrt2(-self.a, -self.b)

    def __mul__(self, o):
        o = Sqrt2.lift(o)
        return Sqrt2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = Sqrt2.lift(o)
        norm = o.a * o.a - 2 * o.b * o.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        return self * Sqrt2(o.a / norm, -o.b / norm)

    def __rtruediv__(self, o):
        return Sqrt2.lift(o) / self

    def __eq__(self, o):
        if not isinstance(o, (int, Fraction, Sqrt2)):
            return NotImplemented
        o = Sqrt2.lift(o)
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))


def sign(x) -> int:
    """Exact sign of a Fraction or a Sqrt2."""
    if not isinstance(x, Sqrt2):
        return (x > 0) - (x < 0)
    sa, sb = (x.a > 0) - (x.a < 0), (x.b > 0) - (x.b < 0)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    # opposite signs: |a| against |b|*sqrt(2), compared squared
    d = x.a * x.a - 2 * x.b * x.b
    return sa * ((d > 0) - (d < 0))


def bits(x) -> int:
    """Largest numerator/denominator bit length of an exact scalar."""
    parts = (x.a, x.b) if isinstance(x, Sqrt2) else (Fraction(x),)
    return max(max(abs(p.numerator).bit_length(), p.denominator.bit_length()) for p in parts)


def identity(n: int) -> list:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(A: list, B: list) -> list:
    k = len(B)
    return [[sum((A[i][t] * B[t][j] for t in range(1, k)), A[i][0] * B[0][j])
             for j in range(len(B[0]))] for i in range(len(A))]


def transpose(A: list) -> list:
    return [list(c) for c in zip(*A)]


def is_orthogonal(A: list) -> bool:
    return matmul(transpose(A), A) == identity(len(A))


def det(A: list):
    """Determinant by Gaussian elimination with row swaps over the field."""
    a = [list(r) for r in A]
    n = len(a)
    d = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            d = -d
        d = a[k][k] * d
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / a[k][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return d


def inverse(A: list) -> list:
    """Gauss-Jordan inverse; raises StopIteration on a singular matrix."""
    n = len(A)
    a = [list(r) + e for r, e in zip(A, identity(n))]
    for k in range(n):
        p = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[p] = a[p], a[k]
        piv = a[k][k]
        a[k] = [x / piv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [r[n:] for r in a]


def cayley(A: list) -> list:
    """(I - A)(I + A)^-1 for an exact skew-symmetric A."""
    n = len(A)
    I = identity(n)
    return matmul([[I[i][j] - A[i][j] for j in range(n)] for i in range(n)],
                  inverse([[I[i][j] + A[i][j] for j in range(n)] for i in range(n)]))


def pattern(A: list) -> tuple:
    return tuple(sign(x) for r in A for x in r)


def _compatible(u, v) -> bool:
    prods = {a * b for a, b in zip(u, v)}
    return (1 in prods and -1 in prods) or prods <= {0}


def necessary_check(p: tuple, n: int) -> bool:
    """No zero line and no pair of rows or columns with a sign-forced dot product."""
    rows = [p[i * n:(i + 1) * n] for i in range(n)]
    for lines in (rows, list(zip(*rows))):
        if any(not any(line) for line in lines):
            return False
        if any(not _compatible(lines[i], lines[j]) for i in range(n) for j in range(i + 1, n)):
            return False
    return True


_CHAR = {1: "+", -1: "-", 0: "0"}


def pattern_text(p: tuple, n: int) -> str:
    """The package's pattern grid format, rows joined by '/'."""
    return "/".join("".join(_CHAR[s] for s in p[i * n:(i + 1) * n]) for i in range(n))


def parse_entry(s: str):
    """Entry strings as the benchmark writes them and as the bundled fixtures
    use them: "p", "p/q", "r/s*sqrt2" or "p/q+r/s*sqrt2"."""
    s = s.replace(" ", "")
    if not s.endswith("sqrt2"):
        return Fraction(s)
    head = s[: -len("sqrt2")].rstrip("*")
    k = max(head.rfind("+", 1), head.rfind("-", 1))
    a, b = (head[:k], head[k:]) if k > 0 else ("0", head)
    b = {"": "1", "+": "1", "-": "-1"}.get(b, b)
    return Sqrt2(Fraction(a), Fraction(b))


def format_entry(x) -> str:
    """Write an exact scalar in the package's exact-matrix entry grammar."""
    if not isinstance(x, Sqrt2):
        return str(Fraction(x))
    if x.b == 0:
        return str(x.a)
    tail = f"{abs(x.b)}*sqrt2"
    if x.a == 0:
        return f"-{tail}" if x.b < 0 else tail
    return f"{x.a}{'-' if x.b < 0 else '+'}{tail}"


# Exact rational witnesses for the order-3 census orbits that pass the
# necessary check, one per orbit, each with exactly the orbit
# representative's pattern.  Found by searching Cayley transforms of small
# integer skew matrices times signed permutations; order3_truth re-verifies
# them at start-up.  With the determinant sign unique at orders <= 4, the
# witness sign is the only realizable side of its orbit.
ORDER3_WITNESSES = {
    "---/--+/-+-": [["-2/3", "-1/3", "-2/3"], ["-2/3", "-2/15", "11/15"], ["-1/3", "14/15", "-2/15"]],
    "---/--+/-+0": [["-16/25", "-12/25", "-3/5"], ["-12/25", "-9/25", "4/5"], ["-3/5", "4/5", "0"]],
    "--0/-+0/00-": [["-8/17", "-15/17", "0"], ["-15/17", "8/17", "0"], ["0", "0", "-1"]],
    "-00/0-0/00-": [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]],
}


def order3_truth() -> dict:
    """Pattern text -> realizable determinant signs, for the order-3 orbits."""
    truth = {}
    for text, rows in ORDER3_WITNESSES.items():
        Q = [[parse_entry(s) for s in r] for r in rows]
        if not is_orthogonal(Q) or pattern_text(pattern(Q), 3) != text:
            raise ValueError(f"order-3 witness for {text} does not verify")
        truth[text] = frozenset({sign(det(Q))})
    return truth
