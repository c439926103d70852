"""Sign patterns and their combinatorics.

A sign pattern is the entrywise-sign matrix of a real matrix, with entries in
{-1, 0, +1}.  A pattern "allows orthogonality" when some orthogonal matrix has
exactly that pattern.  This module provides pattern extraction, the cheap
combinatorial necessary condition (no pair of rows/columns may have a
sign-forced nonzero dot product, no zero line), the one-parameter family with
-1 on diagonal positions 2..n, and the symmetry group of the problem
(row/column signed permutations plus transposition) with its orbits.
SignPattern is an exact.SquareMatrix whose entries are checked to be signs:
the shape (order, from_rows, row, indexing) is the exact matrices' own.
to_float is the package's one float boundary: only it checks that a float
matrix is square, of order at least 1, with finite entries.

The action is written once, as GroupElement.index_map: act, orbit_of and
orbit_representatives all use it and the generators of _generators(n);
canonical_form keeps its own brute-force loops as an independent check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .exact import ExactMatrix, ParseError, SquareMatrix, _integer, sgn

_CHAR_OF_SIGN = {1: "+", -1: "-", 0: "0"}
_SIGN_OF_CHAR = {"+": 1, "-": -1, "0": 0}


class UnsupportedOrderError(ValueError):
    """Raised when a brute-force operation is asked for an order it cannot do."""


class SignPattern(SquareMatrix):
    """Square matrix of signs, row-major entries in {-1, 0, +1}."""

    def _convert(self, entries: tuple) -> tuple:
        # check before int() so that 0.5 or 1.7 is an error, not a truncated 0 or 1
        if not all(map((-1, 0, 1).__contains__, entries)):
            raise ValueError("pattern entries must be -1, 0 or +1")
        return tuple(map(int, entries))

    @classmethod
    def from_text(cls, text: str) -> "SignPattern":
        """Parse the character-grid format: one row per line, entries +, - or 0,
        blank lines only before and after the grid.  Errors give the line and
        column in text."""
        lines = text.splitlines()
        rows = [i for i, ln in enumerate(lines) if ln.strip()]
        if not rows:
            raise ParseError("empty pattern")
        for i, k in zip(rows, rows[1:]):
            if k > i + 1:
                raise ParseError("blank line inside the pattern", line=i + 2)
        n = len(rows)
        entries = []
        for i in rows:
            ln = lines[i]
            cells = ln.strip()
            if len(cells) != n:
                raise ParseError(f"pattern must be square: row has {len(cells)} entries, expected {n}", line=i + 1)
            for j, ch in enumerate(cells, len(ln) - len(ln.lstrip()) + 1):
                if ch not in _SIGN_OF_CHAR:
                    raise ParseError(f"bad pattern character {ch!r}", line=i + 1, col=j)
                entries.append(_SIGN_OF_CHAR[ch])
        return cls(n, tuple(entries))

    def to_text(self) -> str:
        return "\n".join("".join(map(_CHAR_OF_SIGN.get, self.row(i))) for i in range(self.n))

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.n + j] for i in range(self.n))

    def transpose(self) -> "SignPattern":
        return SignPattern(self.n, tuple(self[i, j] for j in range(self.n) for i in range(self.n)))

    def __str__(self):
        return self.to_text()


def to_float(M) -> np.ndarray:
    """The one float boundary: M as a square float array of order >= 1 with
    finite entries, else a ValueError.  A SquareMatrix (pattern or exact
    matrix) converts entry by entry: a rational entry is rounded once, to
    nearest; a Q(sqrt2) entry lands within about 2 ulp, also where its two
    terms nearly cancel; an entry beyond the float range is an OverflowError."""
    if isinstance(M, SquareMatrix):
        M = np.array(M.entries, dtype=float).reshape(M.n, M.n)
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or not M.size:
        raise ValueError(f"expected a square matrix of order at least 1, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    return M


def sign_pattern_of(M) -> SignPattern:
    """Entrywise sign pattern of an exact matrix, or of a float matrix read
    through to_float; only an exact 0 (or -0.0) counts as zero."""
    if isinstance(M, ExactMatrix):
        return SignPattern(M.n, tuple(map(sgn, M.entries)))
    M = to_float(M)
    return SignPattern(len(M), np.sign(M).astype(int).ravel().tolist())


def pair_compatible(u, v) -> bool:
    """Can two sign vectors belong to vectors with a zero dot product?

    True iff the entrywise products hit both +1 and -1, or are all 0; anything
    else forces the dot product of every pair of real vectors with those signs
    to one strict sign.
    """
    u, v = tuple(u), tuple(v)
    if len(u) != len(v):
        raise ValueError(f"sign vectors of different lengths: {len(u)} vs {len(v)}")
    prods = {a * b for a, b in zip(u, v)}
    if 1 in prods and -1 in prods:
        return True
    return prods <= {0}


class Incompatibility(NamedTuple):
    """One failed check: a pair (i < j) of rows/columns, or a zero line (i == j)."""

    axis: str  # "row" or "col"
    i: int
    j: int


@dataclass(frozen=True)
class NecessaryCheckReport:
    passed: bool
    failures: tuple

    def to_json_dict(self) -> dict:
        return {
            "pass": self.passed,
            "failures": [{"axis": f.axis, "i": f.i, "j": f.j} for f in self.failures],
        }


def necessary_check(S: SignPattern) -> NecessaryCheckReport:
    """Cheap obstructions to allowing orthogonality.

    Failure is conclusive (the pattern cannot be orthogonal); passing is only
    necessary, never sufficient.  All failing pairs are reported, plus any
    all-zero row/column as (axis, i, i).
    """
    failures = []
    rows = [S.row(i) for i in range(S.n)]
    for axis, lines in (("row", rows), ("col", list(zip(*rows)))):
        for i, line in enumerate(lines):
            if not any(line):
                failures.append(Incompatibility(axis, i, i))
        for i, j in itertools.combinations(range(S.n), 2):
            if not pair_compatible(lines[i], lines[j]):
                failures.append(Incompatibility(axis, i, j))
    return NecessaryCheckReport(not failures, tuple(failures))


def waters_pattern(n: int) -> SignPattern:
    """All-plus pattern with -1 on diagonal positions 2..n.

    Every orthogonal matrix with this pattern has determinant (-1)**(n-1);
    see waters_forced_sign.
    """
    return SignPattern(n, tuple(-1 if (i == j and i > 0) else 1 for i in range(n) for j in range(n)))


def waters_forced_sign(n: int) -> int:
    """Determinant sign forced on every orthogonal matrix in waters_pattern(n)."""
    return (-1) ** (n - 1)


def perm_sign(perm) -> int:
    """Parity of a permutation given as a tuple of images of 0..n-1."""
    return (-1) ** sum(1 for a, b in itertools.combinations(perm, 2) if a > b)


@dataclass(frozen=True)
class GroupElement:
    """Symmetry of the allows-orthogonality property.

    Acts on an n x n matrix by optional transposition, then row/column
    permutation, then row/column negations:

        (g.M)[i][j] = row_signs[i] * col_signs[j] * M'[row_perm[i]][col_perm[j]]

    with M' = M or M^T.  The action preserves orthogonality and multiplies the
    determinant by det_sign_factor().
    """

    row_signs: tuple
    col_signs: tuple
    row_perm: tuple
    col_perm: tuple
    transpose_flag: bool = False

    def __post_init__(self):
        n = len(self.row_signs)
        for signs in (self.row_signs, self.col_signs):
            if len(signs) != n or any(s not in (-1, 1) for s in signs):
                raise ValueError("row/col signs must be +-1 sequences of equal length")
        for perm in (self.row_perm, self.col_perm):
            if sorted(perm) != list(range(n)):
                raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")

    @property
    def n(self) -> int:
        return len(self.row_signs)

    @cached_property
    def index_map(self) -> tuple:
        """(source, sign): entry k of g.M, row-major, is sign[k] times entry
        source[k] of M."""
        # M'[r][c] is entry r * n + c of M, or c * n + r when transposed
        rs, cs = (1, self.n) if self.transpose_flag else (self.n, 1)
        source = tuple(r * rs + c * cs for r in self.row_perm for c in self.col_perm)
        return source, tuple(a * b for a in self.row_signs for b in self.col_signs)

    def det_sign_factor(self) -> int:
        return math.prod((perm_sign(self.row_perm), perm_sign(self.col_perm), *self.row_signs, *self.col_signs))


def _generators(n: int) -> list:
    """Transposition, negating column 0 and the n - 1 adjacent column swaps.

    They generate the whole group: transposing turns each column move into
    the matching row move.
    """
    one, idp = (1,) * n, tuple(range(n))
    gens = [GroupElement(one, one, idp, idp, True), GroupElement(one, (-1,) + one[1:], idp, idp)]
    for j in range(n - 1):
        swap = idp[:j] + (j + 1, j) + idp[j + 2 :]
        gens.append(GroupElement(one, one, idp, swap))
    return gens


def act(g: GroupElement, X):
    """Apply a symmetry through g.index_map to a SignPattern, an exact matrix
    or a float matrix, read by to_float; a pattern or an exact matrix keeps
    its type, its entries moved and negated where g flips a sign."""
    if isinstance(X, SquareMatrix):
        n = X.n
    else:
        X = to_float(X)
        n = len(X)
    if g.n != n:
        raise ValueError(f"group element of order {g.n} cannot act on order {n}")
    source, sign = g.index_map
    if isinstance(X, np.ndarray):
        return (X.reshape(-1)[list(source)] * np.array(sign)).reshape(n, n)
    return type(X)(n, tuple(X.entries[k] if s == 1 else -X.entries[k] for k, s in zip(source, sign)))


_CANONICAL_MAX_ORDER = 4


def canonical_form(S: SignPattern) -> SignPattern:
    """Lexicographically minimal pattern in the symmetry orbit of S.

    Flattened row-major entries are compared with -1 < 0 < +1.  Brute force
    over transposition and all signed column permutations, with the optimal
    row arrangement computed greedily (per-row sign minimization, then row
    sort); only supported up to order 4.
    """
    if S.n > _CANONICAL_MAX_ORDER:
        raise UnsupportedOrderError(f"canonical_form supports order <= {_CANONICAL_MAX_ORDER}, got {S.n}")
    n = S.n
    best = None
    for T in (S, S.transpose()):
        rows = [T.row(i) for i in range(n)]
        for cperm in itertools.permutations(range(n)):
            permuted = [tuple(r[c] for c in cperm) for r in rows]
            for csigns in itertools.product((1, -1), repeat=n):
                forms = []
                for r in permuted:
                    v = tuple(s * e for s, e in zip(csigns, r))
                    w = tuple(-e for e in v)
                    forms.append(v if v <= w else w)
                forms.sort()
                flat = tuple(e for r in forms for e in r)
                if best is None or flat < best:
                    best = flat
    return SignPattern(n, best)


def orbit_of(S: SignPattern) -> frozenset:
    """Entire symmetry orbit of S: its closure under act with _generators."""
    if S.n > _CANONICAL_MAX_ORDER:
        raise UnsupportedOrderError(f"orbit enumeration supports order <= {_CANONICAL_MAX_ORDER}, got {S.n}")
    generators = _generators(S.n)
    seen, frontier = {S}, [S]
    while frontier:
        frontier = [q for q in {act(g, p) for p in frontier for g in generators} if q not in seen]
        seen.update(frontier)
    return frozenset(seen)


def orbit_representatives(n: int) -> list:
    """(representative, orbit size) for every orbit of n x n patterns, in
    lexicographic order of the representatives, each the minimum of its orbit.

    A pattern's code is its row-major entries read as base-3 digits e + 1,
    first entry most significant, so code order is entries order; rows are
    coded alike, and negating one takes its code c to 3**n - 1 - c.  The
    labels are row classes, patterns up to row negations and row order, each
    coded by its sorted rows, every row the lesser of v and -v: the least
    pattern of the class, as in canonical_form.  Each of _generators(n),
    applied through its index_map to the flattened class grids, maps each
    class to the class of its image.  Taking the minimum label over those
    maps, then jumping labels to their own labels, until nothing changes
    leaves every class labelled by the least class, so the least pattern,
    of its orbit.
    """
    n = _integer("matrix order", n, 1)
    if n > _CANONICAL_MAX_ORDER:
        raise UnsupportedOrderError(f"orbit enumeration supports order <= {_CANONICAL_MAX_ORDER}, got {n}")
    width = 3**n
    # the normalized rows are the codes 0..zero_row, the last one all zeros
    zero_row = width // 2
    digit_place = 3 ** np.arange(n - 1, -1, -1)
    row_place = width ** np.arange(n - 1, -1, -1)
    # lexicographic tuples of sorted rows, so the class codes come out sorted
    class_rows = np.array(list(itertools.combinations_with_replacement(range(zero_row + 1), n)), dtype=np.int64)
    codes = class_rows @ row_place
    flat = (class_rows[:, :, None] // digit_place % 3 - 1).reshape(len(codes), n * n)

    images = []
    for g in _generators(n):
        source, sign = g.index_map
        # row i of the image codes as the sum over j of (sign * entry + 1) *
        # digit_place[j], one product of flat with a weight per source entry
        weight = np.zeros((n * n, n), dtype=np.int64)
        weight[source, np.arange(n * n) // n] = np.multiply(sign, np.tile(digit_place, n))
        rows = flat @ weight + zero_row
        rows = np.sort(np.minimum(rows, width - 1 - rows), axis=1)
        images.append(np.searchsorted(codes, rows @ row_place))

    label = np.arange(len(codes))
    gathered = np.empty_like(label)
    while True:
        before = label.copy()
        for image in images:
            np.minimum(label, np.take(label, image, out=gathered), out=label)
        np.take(label, label, out=gathered)
        label, gathered = gathered, label
        # labels only ever decrease, so an unchanged round is the fixed point
        if np.array_equal(label, before):
            break

    # a class stands for n! / prod(repeat count)! row orders, times a sign
    # for every nonzero row; the k-th copy of a row contributes the factor k
    copy_index = np.sum(np.tril(class_rows[:, :, None] == class_rows[:, None, :]), axis=2)
    class_size = math.factorial(n) // np.prod(copy_index, axis=1) * 2 ** np.sum(class_rows != zero_row, axis=1)
    reps, orbit_of_class = np.unique(label, return_inverse=True)
    sizes = np.zeros(len(reps), dtype=np.int64)
    np.add.at(sizes, orbit_of_class, class_size)
    return [(SignPattern(n, e), s) for e, s in zip(flat[reps].tolist(), sizes.tolist())]
