"""Independent reference implementations used only to check the library.

Everything here is deliberately written from scratch on plain Python data
(lists of ints/Fractions, tuples of tuples) so it shares no code path with
the package under test.  Its scalar for Q(sqrt2) is Sqrt2 from the
benchmark's answer oracle, perfbench/oracle.py, which imports nothing from
orthosign; it is loaded from its path with no bytecode written next to it,
and sqrt2_of and package_rows carry scalars across to the package's value
type QuadRational and back, by their parts a and b.

There are two exceptions.  The reference orbit enumeration closes one
orbit at a time with the package's orbit_of, over whole patterns, not row
classes; orbit_of shares the group action and its generators with the
row-class labeller.  The independent checks are the
Burnside count and canonical_form on the labeller's output, and
brute_force_orbit, every element of full_symmetry_group applied with
apply_symmetry, on orbit_of itself.  The reference realization search is the
sequential, one-restart-at-a-time descent on 2-D numpy arrays that the
lock-step engine must reproduce bit for bit, so it reuses the package's
target parsing, base drawing and result assembly.  It keeps its own sign
arrays (built from S.entries), its own descent arithmetic and its own
success test, reference_accept, written out from the definition; the
reference census runs it on the package's orbit list.  Its chart,
reference_chart_value_grad, writes out the engine's formula on 2-D arrays
with its own axial vector: the closed-form (I + A)^-1 at n <= 3, LAPACK's
inverse at n >= 4, and Q = base (2 (I + A)^-1 - I).  Bit-identical finds
need the same floating-point steps, so it cannot use another formula; the
chart's accuracy is checked against exact_cayley_q, which computes Q over
Fractions with exact_cayley, the builder of the order-5 certificates too.

The helpers at the very end are no reference.  chart_q and
chart_value_grad evaluate the package's own chart, at one point, so that the
chart tests and the finite-difference gradient tests check the code the
search runs.  perturb, identity_element and random_group_element build test
inputs: entrywise uniform noise on a matrix, and the identity or a random
element of the package's GroupElement.  The package's search takes its seeds
as given and never draws noise or group elements itself.
"""

from __future__ import annotations

import importlib.util
import itertools
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np


def _load_benchmark_oracle():
    """perfbench/oracle.py as a module, with no bytecode written next to it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


_benchmark_oracle = _load_benchmark_oracle()
Sqrt2 = _benchmark_oracle.Sqrt2
sqrt2_sign = _benchmark_oracle.sign


def sqrt2_of(x):
    """An exact scalar of the package, int, Fraction or QuadRational, as a Sqrt2."""
    return Sqrt2(x) if isinstance(x, (int, Fraction)) else Sqrt2(x.a, x.b)


def package_rows(grid):
    """grid with every Sqrt2 entry as the package's QuadRational; an int or
    Fraction entry is kept as it is."""
    from orthosign.exact import QuadRational

    return [[QuadRational(x.a, x.b) if isinstance(x, Sqrt2) else x for x in row] for row in grid]


def det_cofactor(rows):
    """Determinant by recursive cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        a = rows[0][j]
        if a == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = a * det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def int_matmul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    assert len(A[0]) == k
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def identity_grid(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def apply_symmetry(grid, row_signs, col_signs, row_perm, col_perm, transpose_flag):
    """Hand-rolled action on a tuple-of-tuples grid, mirroring none of the
    package code: optional transpose, then permute, then negate."""
    n = len(grid)
    g = tuple(tuple(grid[j][i] for j in range(n)) for i in range(n)) if transpose_flag else grid
    return tuple(
        tuple(row_signs[i] * col_signs[j] * g[row_perm[i]][col_perm[j]] for j in range(n))
        for i in range(n)
    )


def full_symmetry_group(n):
    """Every (row_signs, col_signs, row_perm, col_perm, transpose) tuple."""
    signs = list(itertools.product((1, -1), repeat=n))
    perms = list(itertools.permutations(range(n)))
    return [
        (rs, cs, rp, cp, t)
        for rs in signs
        for cs in signs
        for rp in perms
        for cp in perms
        for t in (False, True)
    ]


def brute_force_orbit(grid, group):
    return {apply_symmetry(grid, *g) for g in group}


def burnside_orbit_count(n):
    """Number of orbits of n x n sign patterns, by Burnside's lemma.

    An element fixes exactly the patterns that are constant up to its signs
    along each cycle of its position map: 3 choices for a cycle whose sign
    product is +1, only all-zero for one whose product is -1.
    """
    group = full_symmetry_group(n)
    total = 0
    for rs, cs, rp, cp, t in group:
        # entry (i, j) of the image comes from src[(i, j)] with sign rs[i] * cs[j]
        src = {(i, j): ((cp[j], rp[i]) if t else (rp[i], cp[j])) for i in range(n) for j in range(n)}
        fixed, seen = 1, set()
        for start in src:
            if start in seen:
                continue
            sign, pos = 1, start
            while pos not in seen:
                seen.add(pos)
                sign *= rs[pos[0]] * cs[pos[1]]
                pos = src[pos]
            fixed *= 3 if sign == 1 else 1
        total += fixed
    assert total % len(group) == 0
    return total // len(group)


def reference_orbit_representatives(n):
    """(representative, orbit size) for every orbit of n x n patterns, in
    lexicographic order, by closing one orbit at a time with orbit_of: the
    pattern-by-pattern enumeration that signpat.orbit_representatives must
    reproduce exactly."""
    from orthosign.signpat import SignPattern, orbit_of

    reps = []
    seen: set = set()
    for entries in itertools.product((-1, 0, 1), repeat=n * n):
        S = SignPattern(n, entries)
        if S in seen:
            continue
        orbit = orbit_of(S)
        seen |= orbit
        reps.append((min(orbit, key=lambda p: p.entries), len(orbit)))
    reps.sort(key=lambda t: t[0].entries)
    return reps


def reference_necessary_check(S):
    """(passed, failures) of signpat.necessary_check, pair by pair: for each
    axis the all-zero lines (axis, i, i), then every pair i < j of lines,
    read with S.row or S.col, whose entrywise sign products are not all zero
    and do not hit both +1 and -1, as (axis, i, j)."""
    failures = []
    for axis, line in (("row", S.row), ("col", S.col)):
        for i in range(S.n):
            if all(e == 0 for e in line(i)):
                failures.append((axis, i, i))
        for i in range(S.n):
            for j in range(i + 1, S.n):
                prods = [a * b for a, b in zip(line(i), line(j))]
                mixed = 1 in prods and -1 in prods
                if not (mixed or not any(prods)):
                    failures.append((axis, i, j))
    return not failures, tuple(failures)


def rational_matrix_to_grid(M):
    return tuple(M.row(i) for i in range(M.n))


def grid_scale(grid, c):
    return tuple(tuple(c * e for e in row) for row in grid)


def frac_grid(rows):
    return tuple(tuple(Fraction(e) for e in row) for row in rows)


def exact_cayley(B, a):
    """Q = B (I - A)(I + A)^-1 over Fractions, as a list of rows: A is the
    skew matrix whose strict upper triangle in row-major order is a (numbers
    or strings such as "-10/19"), B a list of rows, and (I + A)^-1 comes from
    Cramer's rule with det_cofactor."""
    n = len(B)
    A = [[Fraction(0)] * n for _ in range(n)]
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), v in zip(slots, a):
        A[i][j], A[j][i] = Fraction(v), -Fraction(v)
    P = [[int(i == j) + A[i][j] for j in range(n)] for i in range(n)]
    det = det_cofactor(P)

    def cofactor(i, j):
        minor = [row[:j] + row[j + 1 :] for t, row in enumerate(P) if t != i]
        return (-1) ** (i + j) * (det_cofactor(minor) if minor else 1)

    C = [[cofactor(j, i) / det for j in range(n)] for i in range(n)]
    M = [[sum((int(i == t) - A[i][t]) * C[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(B[i][t] * M[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def exact_cayley_q(n, x):
    """Q = (I - A)(I + A)^-1 at the float chart point x (A's strict upper
    triangle in row-major order), computed exactly by exact_cayley and
    rounded once per entry to float."""
    I = [[int(i == j) for j in range(n)] for i in range(n)]
    return np.array([[float(v) for v in row] for row in exact_cayley(I, [float(v) for v in x])])


# -- sequential reference for realize.search_realization / refine_from -----------

def sign_array(S):
    return np.array([[float(S.entries[i * S.n + j]) for j in range(S.n)] for i in range(S.n)])


def reference_chart_value_grad(sarr, x, base, margin):
    """Q, objective and chart gradient at one parameter vector, on 2-D arrays."""
    n = len(sarr)
    I = np.eye(n)
    iu = np.triu_indices(n, 1)
    A = np.zeros((n, n))
    A[iu] = x
    A -= A.T
    if n >= 4:
        C = np.linalg.inv(I + A)
    else:
        # (I + A)^-1 = (I - A + w w^T) / (1 + |x|^2), with w = 0 at n < 3
        N = I - A
        if n == 3:
            w = np.array([A[1, 2], -A[0, 2], A[0, 1]])
            N += np.outer(w, w)
        C = N / (1.0 + np.sum(x * x))
    Q = base @ (2.0 * C - I)
    H = np.maximum(np.where(sarr != 0, margin - sarr * Q, 0.0), 0.0)
    Z = np.where(sarr == 0, Q, 0.0)
    f = float(np.sum(H * H)) + float(np.sum(Z * Z))
    G = -2.0 * H * sarr + 2.0 * Z
    W = -2.0 * C.T @ base.T @ G @ C.T
    grad = W[iu] - W.T[iu]
    return Q, f, grad


def reference_accept(sarr, Q, cfg):
    """The success test, written out from its definition: every signed entry
    has its sign and clears cfg.margin, every zero-pattern entry is within
    1e-9 of 0, and the matrix with those entries set to 0 has
    max |Q^T Q - I| within 1e-9.  Returns that snapped matrix, or None.  The
    tolerances are written out here, not imported, so a changed engine
    constant shows as a mismatch."""
    signed, zeros = sarr != 0, sarr == 0
    if not (np.all(sarr[signed] * Q[signed] >= cfg.margin) and np.all(np.abs(Q[zeros]) <= 1e-9)):
        return None
    Qz = np.where(zeros, 0.0, Q)
    return Qz if np.max(np.abs(Qz.T @ Qz - np.eye(len(Q)))) <= 1e-9 else None


def reference_descend(sarr, base, x0, cfg, step_min=1e-14):
    """Backtracking gradient descent in one Cayley chart (no time budget):
    Armijo constant 1e-4, steps from 1 halved on rejection and doubled (up
    to 1) on acceptance, ending below step_min.  The constants are written
    out here, not imported, so a changed engine constant shows as a mismatch.

    Returns (accepted Qz or None, raw Q, iterations used).
    """
    x = np.asarray(x0, dtype=float)
    Q, f, g = reference_chart_value_grad(sarr, x, base, cfg.margin)
    Qz = reference_accept(sarr, Q, cfg)
    if Qz is not None:
        return Qz, Q, 0
    step = 1.0
    for it in range(1, cfg.max_iters + 1):
        gnorm2 = float(g @ g)
        if gnorm2 <= 1e-30:
            return None, Q, it - 1
        accepted = False
        while step >= step_min:
            xn = x - step * g
            Qn, fn, gn = reference_chart_value_grad(sarr, xn, base, cfg.margin)
            if fn <= f - 1e-4 * step * gnorm2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return None, Q, it - 1
        x, Q, f, g = xn, Qn, fn, gn
        Qz = reference_accept(sarr, Q, cfg)
        if Qz is not None:
            return Qz, Q, it
        step = min(step * 2.0, 1.0)
    return None, Q, cfg.max_iters


def reference_search_realization(S, target, cfg, step_min=1e-14):
    """Restarts one after another; the first success by restart index wins."""
    from orthosign.realize import _assemble, _normalize_target, _random_signed_perm
    from orthosign.signpat import necessary_check

    det_target = _normalize_target(target)
    if not necessary_check(S).passed:
        return None
    sarr = sign_array(S)
    m = S.n * (S.n - 1) // 2
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.rng_seed, r])
        side = det_target if det_target is not None else int(rng.choice((-1, 1)))
        base = _random_signed_perm(rng, S.n, side)
        Qz = reference_accept(sarr, base, cfg)
        if Qz is not None:
            return _assemble(sarr, cfg, r, Qz, base, 0)
        x0 = rng.uniform(-1.0, 1.0, size=m)
        Qz, Q_raw, iters = reference_descend(sarr, base, x0, cfg, step_min)
        if Qz is not None:
            return _assemble(sarr, cfg, r, Qz, Q_raw, iters)
    return None


def reference_refine_from(Q0, S, target, cfg, step_min=1e-14):
    """One descent in the chart centred at the projected seed."""
    from orthosign.realize import _assemble, _normalize_target, float_det_sign, reorthonormalize

    det_target = _normalize_target(target)
    base = reorthonormalize(np.asarray(Q0, dtype=float))
    if det_target is not None and float_det_sign(base) != det_target:
        return None
    sarr = sign_array(S)
    Qz, Q_raw, iters = reference_descend(sarr, base, np.zeros(S.n * (S.n - 1) // 2), cfg, step_min)
    return None if Qz is None else _assemble(sarr, cfg, 0, Qz, Q_raw, iters)


def reference_census_rows(n, cfg):
    """JSON rows of census(n, cfg) as the seed built them: the two sides of
    every orbit that passes the necessary check searched one after another,
    each with its own reference search, budgets and verdict spelled out."""
    from orthosign.signpat import necessary_check, orbit_representatives

    verdicts = {(True, True): "AmbiguousFound", (True, False): "OnlyPlusFound",
                (False, True): "OnlyMinusFound", (False, False): "NoneFound"}
    rows = []
    for rep, size in orbit_representatives(n):
        passed = necessary_check(rep).passed
        verdict, evidence = "NoneFound", None
        if passed:
            plus, minus = (reference_search_realization(rep, side, cfg) for side in (1, -1))
            verdict = verdicts[plus is not None, minus is not None]
            budgets = {"seeds_polished": 0}
            for key, res in (("plus", plus), ("minus", minus)):
                used = cfg.restarts if res is None else res.restart_index + 1
                budgets[key] = {"restarts": used, "max_iters": cfg.max_iters}
            evidence = {"pattern": rep.to_text(), "verdict": verdict,
                        "plus": None if plus is None else plus.to_json_dict(),
                        "minus": None if minus is None else minus.to_json_dict(),
                        "budgets": budgets}
        rows.append({"pattern": rep.to_text(), "orbit_size": size, "necessary_pass": passed,
                     "verdict": verdict, "evidence": evidence})
    return rows


# -- package chart at one point, for the chart and gradient tests ----------------

def chart_q(n, x, base=None):
    """Q = base (I - A)(I + A)^-1 at chart point x, as the engine's
    _chart_values computes it; base defaults to the identity."""
    from orthosign.realize import _chart_map, _chart_values

    base = np.eye(n) if base is None else np.asarray(base, dtype=float)
    return _chart_values(np.asarray(x, dtype=float), _chart_map(n), np.eye(n), base, np.zeros((n, n)), 0.5)[0]


def chart_value_grad(S, x, base, margin):
    """(objective, chart gradient) at one point x in the chart centred at
    base, composed from the package's value and gradient halves."""
    from orthosign.realize import _chart_grad, _chart_map, _chart_values

    base = np.asarray(base, dtype=float)[None]
    K, I = _chart_map(S.n), np.eye(S.n)
    _, f, _, C, G = _chart_values(np.asarray(x, dtype=float)[None], K, I, base, sign_array(S)[None], margin)
    return float(f[0]), _chart_grad(base, C, G, K)[0]


# -- test inputs -----------------------------------------------------------------

def perturb(Q: np.ndarray, eps: float, rng: np.random.Generator) -> np.ndarray:
    """Entrywise uniform noise in [-eps, eps], the noise model used in tests."""
    Q = np.asarray(Q, dtype=float)
    return Q + rng.uniform(-eps, eps, size=Q.shape)


def identity_element(n):
    """The identity of the symmetry group of n x n patterns."""
    from orthosign.signpat import GroupElement

    return GroupElement((1,) * n, (1,) * n, tuple(range(n)), tuple(range(n)), False)


def random_group_element(rng, n: int):
    """Uniform-ish random symmetry, from a random.Random instance."""
    from orthosign.signpat import GroupElement

    return GroupElement(
        tuple(rng.choice((-1, 1)) for _ in range(n)),
        tuple(rng.choice((-1, 1)) for _ in range(n)),
        tuple(rng.sample(range(n), n)),
        tuple(rng.sample(range(n), n)),
        bool(rng.getrandbits(1)),
    )
