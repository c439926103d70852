"""Numerical search for orthogonal matrices with a prescribed sign pattern.

The orthogonal group is explored through Cayley charts Q = B (I - A)(I + A)^-1
with A skew-symmetric and B a signed permutation whose determinant sign is the
search target (the chart preserves it).  Sign constraints become a smooth
penalty: hinge-squared terms push signed entries past a margin, quadratic
terms push zero-pattern entries to zero.  Plain gradient descent with
backtracking line search, restarted from random bases, is enough at these
orders.

All restarts of a batch of searches advance in lock step: each round
evaluates up to three backtracking trial points per live restart, of every
search of one order, in a single batched value pass on (R, 3, n, n) stacks,
and a gradient pass at each restart's first trial that passes Armijo, while
every restart keeps its own pattern sign array, step size and stop rules.
The line search is fixed Armijo backtracking (Nocedal & Wright, Numerical
Optimization, Alg. 3.1): sufficient-decrease constant 1e-4, each rejected
step halved, each accepted one doubled up to 1.  The trial steps s, s/2, s/4
are known before any is evaluated, so testing them together moves every
restart exactly as one-trial-at-a-time backtracking would.  The determinism
contract is that of running the searches, and their restarts, one after
another: restart r draws from its own generator seeded by (rng_seed, r), and
the lowest-index success of each search wins, with bit-identical results.
The engine, _lockstep_descent, takes one row (sign array, search, restart,
base, x0) per restart and the margin in cfg; search_many builds the rows of
every restart of a batch, search_realization is its one-search case and
refine_from passes a single row.

The chart has one evaluation, _chart_values (with _chart_map the one x -> A
map).  It inverts I + A in closed form at orders n <= 3, where
det(I + A) = 1 + |x|^2, and with LAPACK at n >= 4, and it takes
(I - A)(I + A)^-1 as 2 (I + A)^-1 - I, with no matrix product.  The penalty
has one evaluation too, _penalty_terms, from the sign array and the margin.
A find has one success test, in _lockstep_descent: every signed entry
clears the margin, every zero-pattern entry is within _ZERO_TOL, and the
matrix with those entries snapped to 0 is orthogonal within _ORTHO_TOL
(both 1e-9).  The search only proposes witnesses, which exact checks
confirm, so these tolerances are engine constants, not settings.  The only
find outside descent is a random base that equals the pattern's sign
array, which passes that test exactly.

A numerical find can be promoted to a certificate: every entry is replaced by
its best rational approximation with bounded denominator and the result is
re-verified with exact arithmetic.

Every float input (of ortho_residual, reorthonormalize, rational_certify,
refine_from's seed) goes through signpat.to_float, the one float boundary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .exact import RatMatrix, _integer, is_orthogonal, matrix_to_jsonable
from .signpat import SignPattern, necessary_check, perm_sign, sign_pattern_of, to_float

TARGET_ANY = "any"
Target = Union[int, str]


def _normalize_target(target: Target):
    if target in (1, -1):
        return int(target)
    if target == TARGET_ANY:
        return None
    raise ValueError(f"determinant target must be +1, -1 or 'any', got {target!r}")


@dataclass(frozen=True)
class SearchConfig:
    """Settings of realization search, one field per CLI flag.

    margin is the sign clearance requested of every nonzero-pattern entry;
    note the default 0.05 is deliberately robust and must be lowered (the CLI
    exposes --margin) to find realizations whose smallest entry is tiny, such
    as the det -1 side of the bundled 7x7 pattern (smallest entry ~0.019786).

    The line search is fixed Armijo backtracking: first step 1, constant
    1e-4, steps halved on rejection and doubled (up to 1) on acceptance, and
    a restart stops once its step falls below 1e-14 (_STEP_INIT, _ARMIJO,
    _STEP_SHRINK, _STEP_GROW and _STEP_MIN).  The success test is fixed too:
    zero-pattern entries within _ZERO_TOL and an orthogonality residual
    within _ORTHO_TOL, both 1e-9.
    """

    restarts: int = 50
    max_iters: int = 2000
    margin: float = 0.05
    rng_seed: int = 0
    time_budget: Optional[float] = None
    denom_bound: Optional[int] = None

    def __post_init__(self):
        # every check is written so that NaN fails it
        if not (0 < self.margin < 1):
            raise ValueError("margin must lie in (0, 1)")
        # restarts=0 is valid (polish given seeds only), and so is time_budget=0
        for name in ("restarts", "max_iters", "rng_seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 0))
        if self.time_budget is not None and not (self.time_budget >= 0):
            raise ValueError("time_budget must be nonnegative")
        if self.denom_bound is not None:
            object.__setattr__(self, "denom_bound", _integer("denom_bound", self.denom_bound, 1))


def _chart_map(n: int) -> np.ndarray:
    """The one chart map x -> A, as an (m, n * n) matrix: chart point x holds
    the strict upper triangle of the skew-symmetric A in row-major order, and
    A = (x @ K).reshape(n, n) has +x_k at (i, j) and -x_k at (j, i) for slot
    k = (i, j)."""
    iu, ju = np.triu_indices(n, 1)
    K = np.zeros((len(iu), n * n))
    K[np.arange(len(iu)), iu * n + ju] = 1.0
    K[np.arange(len(iu)), ju * n + iu] = -1.0
    return K


def ortho_residual(Q: np.ndarray) -> float:
    """Max-norm of Q^T Q - I; inf when Q^T Q overflows."""
    Q = to_float(Q)
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(Q.T @ Q - np.eye(len(Q)))))


def reorthonormalize(M) -> np.ndarray:
    """Nearest orthogonal matrix (polar factor via SVD).

    Idempotent on orthogonal inputs up to roundoff; preserves the determinant
    sign of the input.  Raises on singular input.
    """
    U, s, Vt = np.linalg.svd(to_float(M))
    if s[-1] <= s[0] * len(s) * np.finfo(float).eps:
        raise ValueError("degenerate input: matrix is singular to working precision")
    return U @ Vt


def float_det_sign(Q: np.ndarray) -> int:
    return int(np.linalg.slogdet(Q)[0])


def _penalty_terms(sarr: np.ndarray, margin: float, Q: np.ndarray):
    """(value, hinge part, gradient wrt Q) for one matrix, or a stack of them,
    from its sign array sarr (broadcast against Q) and the margin.

    The hinge is H = max(sarr (margin sarr - Q), 0), with no margin floor
    built: on a signed entry, multiplying by sarr = +-1 only negates, so H
    is max(margin - sarr Q, 0) up to the sign of a zero result, and on a
    zero-pattern entry H is a zero of either sign.  Neither H * H nor
    Z - H * sarr sees the sign of those zeros.  Z is Q on the zero-pattern
    mask sarr == 0.  The sums run over each matrix flattened, which adds in
    the same order whether Q is one matrix or a stack, so a slice of a stack
    gets the same bits as the matrix alone.
    """
    H = np.maximum(sarr * (margin * sarr - Q), 0.0)
    Z = np.where(sarr == 0, Q, 0.0)
    flat = Q.shape[:-2] + (-1,)
    hinge = (H * H).reshape(flat).sum(-1)
    f = hinge + (Z * Z).reshape(flat).sum(-1)
    G = 2.0 * (Z - H * sarr)
    return f, hinge, G


# x -> w = (x2, -x1, x0), the axial vector of A at n = 3
_AXIAL_SIGNS = np.array([1.0, -1.0, 1.0])


def _chart_values(x: np.ndarray, K: np.ndarray, I: np.ndarray, bases: np.ndarray, sarr: np.ndarray,
                  margin: float):
    """Value half of the chart evaluation, for any stack of chart points.

    x is (..., m), K is _chart_map(n) and I the n x n identity; bases and
    the sign arrays sarr broadcast against (..., n, n), and margin is the
    sign clearance that _penalty_terms asks for.  Returns Q, f, hinge and
    what _chart_grad needs: C = (I + A)^-1 and G, the gradient of the
    penalty wrt Q.  Every entry of x @ K has one nonzero term, so A is
    exact.

    At n <= 3, C is closed-form algebra: A^2 = w w^T - |x|^2 I, where w is
    the axial vector (x2, -x1, x0) at n = 3 and w = 0 at n <= 2 (at n = 1,
    C = I).  So C = (I - A + w w^T) / (1 + |x|^2), and the denominator is
    det(I + A) >= 1: no pivoting and no singular case.  At n >= 4, C is
    LAPACK's batched inverse.  At every order (I - A) C = 2C - I, since
    I - A = 2I - (I + A).  Every step is elementwise, a sum over the last
    axis, or a batched inv or matmul, and each works slice by slice, so each
    slice matches the same computation on 2-D arrays bit for bit.
    """
    n = len(I)
    A = (x @ K).reshape(x.shape[:-1] + (n, n))
    if n > 3:
        C = np.linalg.inv(I + A)
    else:
        N = I - A
        if n == 3:
            w = x[..., ::-1] * _AXIAL_SIGNS
            N += w[..., :, None] * w[..., None, :]
        C = N / (1.0 + (x * x).sum(-1))[..., None, None]
    Q = bases @ (2.0 * C - I)
    f, hinge, G = _penalty_terms(sarr, margin, Q)
    return Q, f, hinge, C, G


def _chart_grad(bases: np.ndarray, C: np.ndarray, G: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Gradient half: chart gradient (R, m) of R points from their (R, n, n)
    bases, the C and G that _chart_values returned, and K = _chart_map(n)."""
    # dQ = -B (I + M) dA C with M = 2C - I, so I + M = 2C and df/dA = W with
    # W as below; pulling back through the chart map gives
    # df/dx_k = W[i,j] - W[j,i] for slot k = (i,j)
    W = -2.0 * C.transpose(0, 2, 1) @ bases.transpose(0, 2, 1) @ G @ C.transpose(0, 2, 1)
    return W.reshape(len(W), K.shape[1]) @ K.T


@dataclass
class RealizationResult:
    """A numerically found orthogonal realization of a sign pattern.

    q is reported with sub-_ZERO_TOL entries on zero-pattern positions snapped
    to exact 0; ortho_residual, min_margin and objective_value refer to this
    reported matrix, while max_zero_violation records the worst zero-pattern
    entry magnitude before snapping.
    """

    q: np.ndarray
    det_sign: int
    objective_value: float
    ortho_residual: float
    min_margin: float
    max_zero_violation: float
    certificate: Optional[RatMatrix] = None
    restart_index: int = 0
    iterations: int = 0

    def to_json_dict(self) -> dict:
        return {
            "q": [[float(v) for v in row] for row in self.q],
            "det_sign": self.det_sign,
            "objective_value": float(self.objective_value),
            "ortho_residual": float(self.ortho_residual),
            "min_margin": float(self.min_margin),
            "max_zero_violation": float(self.max_zero_violation),
            "certificate": None if self.certificate is None else matrix_to_jsonable(self.certificate),
            "restart_index": self.restart_index,
            "iterations": self.iterations,
        }


def _deadline(cfg: SearchConfig) -> float:
    """time.monotonic() reading at which cfg.time_budget runs out."""
    return time.monotonic() + (np.inf if cfg.time_budget is None else cfg.time_budget)


# Armijo backtracking: first step, floor, growth after an accepted step (capped
# at the first step), shrink after a rejected one, sufficient-decrease constant
_STEP_INIT, _STEP_MIN, _STEP_GROW, _STEP_SHRINK, _ARMIJO = 1.0, 1e-14, 2.0, 0.5, 1e-4
# backtracking trials tested per row per round: three cover 99 % of the
# accepted steps of the perfbench hunt workload, and a fourth saved no time
_TRIALS = 3
# halving is exact, so step * _TRIAL_SCALES[j] has the bits of j repeated
# halvings of step
_TRIAL_SCALES = _STEP_SHRINK ** np.arange(_TRIALS)
# the success test: largest zero-pattern entry, and max |Q^T Q - I| of the
# matrix with those entries snapped to 0
_ZERO_TOL = _ORTHO_TOL = 1e-9


def _lockstep_descent(rows: list, cfg: SearchConfig, deadline: float) -> dict:
    """Backtracking gradient descent in R Cayley charts of one order, advanced
    in lock step.

    rows holds R tuples (sarr, search, restart, base, x0), as search_many
    builds them: the (n, n) sign array of the search's pattern, the index
    of the search and of the restart, the orthogonal matrix the restart's
    chart is centred at, and the chart point, of length n (n - 1) / 2, it
    starts from.  Rows come grouped by search, in restart order within a
    search, and are stacked into per-row arrays once.  Each row
    keeps its own step size, Armijo test, iteration count and stop rules,
    exactly as if it ran alone.  Each round tests the next _TRIALS = 3
    backtracking trials of every live row (steps s, s/2, s/4) in one batched
    value pass; a row moves to its first trial that passes Armijo, and only
    the chosen points go through the gradient pass.  A row with no passing
    trial carries on backtracking from its last trial next round, so every
    row moves exactly as sequential backtracking would.  When a row
    succeeds, it and the higher rows of its own search are dropped, so the
    lowest-index success of each search wins.  The deadline is checked
    before the first round and every 64 rounds; on expiry the lowest-index
    successes so far are returned.

    Returns {search: (restart, accepted Qz, raw Q, iterations used)}.
    """
    sarr, group, slot, bases, x = (np.array(a) for a in zip(*rows))
    n = bases.shape[-1]
    K, I = _chart_map(n), np.eye(n)
    # per-row constants, repeated once per call so that the value pass runs
    # on contiguous (R, _TRIALS, n, n) stacks (broadcast (R, 1, n, n) ones
    # made it 8-25 % slower); [:, 0] is the (R, n, n) stack
    sarr, bases = (np.repeat(a[:, None], _TRIALS, 1) for a in (sarr, bases))
    # against f = inf and g = 0 every trial is x0 and passes the Armijo test,
    # so the first round moves each row to its starting point
    f, g, gnorm2 = np.full(len(slot), np.inf), np.zeros_like(x), np.zeros(len(slot))
    step = np.full(len(slot), _STEP_INIT)
    it = np.zeros(len(slot), dtype=int)
    best = {}
    rounds = 0
    while len(slot):
        if rounds % 64 == 0 and time.monotonic() > deadline:
            break
        rounds += 1
        T = step[:, None] * _TRIAL_SCALES
        xt = x[:, None] - T[:, :, None] * g[:, None]
        Qt, ft, ht, Ct, Gt = _chart_values(xt, K, I, bases, sarr, cfg.margin)
        # a trial below the floor is one sequential backtracking never reaches
        ok = (ft <= f[:, None] - _ARMIJO * T * gnorm2[:, None]) & (T >= _STEP_MIN)
        moved = ok.any(1)
        k = np.flatnonzero(moved)
        j = ok[k].argmax(1)
        step = T[:, -1] * _STEP_SHRINK
        step[k] = np.minimum(T[k, j] * _STEP_GROW, _STEP_INIT)
        x[k], f[k] = xt[k, j], ft[k, j]
        g[k] = gk = _chart_grad(bases[k, 0], Ct[k, j], Gt[k, j], K)
        # gk[:, None, :] @ gk[:, :, None] adds like the 1-D dot g @ g (einsum
        # does not)
        gnorm2[k] = (gk[:, None, :] @ gk[:, :, None])[:, 0, 0]
        won = {}
        # hinges are never negative, so a success needs a zero among them
        if not ht.all():
            hit = np.flatnonzero(ht[k, j] == 0.0)
            # the zero-pattern test for all hits at once (max is exact); most
            # hits of patterns with zeros fail it
            Qh = np.abs(Qt[k[hit], j[hit]])
            hit = hit[np.max(Qh, axis=(1, 2), where=sarr[k[hit], 0] == 0, initial=0.0) <= _ZERO_TOL]
            for i in hit:
                r = k[i]
                s = int(group[r])
                if s in won:
                    continue  # a lower restart of its search succeeded this round
                Qz = np.where(sarr[r, 0] == 0, 0.0, Qt[r, j[i]])
                if ortho_residual(Qz) <= _ORTHO_TOL:
                    best[s] = (int(slot[r]), Qz, Qt[r, j[i]], int(it[r]))
                    won[s] = r
        it += moved
        live = (it <= cfg.max_iters) & (gnorm2 > 1e-30) & (step >= _STEP_MIN)
        for s, r in won.items():
            live[r:] &= group[r:] != s
        if not live.all():
            sarr, group, slot, bases, x, f, g, gnorm2, step, it = (
                a[live] for a in (sarr, group, slot, bases, x, f, g, gnorm2, step, it))
    return best


def _random_signed_perm(rng: np.random.Generator, n: int, det_target: int) -> np.ndarray:
    perm = rng.permutation(n)
    signs = rng.integers(0, 2, size=n) * 2 - 1
    if perm_sign(perm) * signs.prod() != det_target:
        signs[0] = -signs[0]
    B = np.zeros((n, n))
    B[np.arange(n), perm] = signs
    return B


def _assemble(sarr: np.ndarray, cfg: SearchConfig, restart_index: int, Qz: np.ndarray,
              Q_raw: np.ndarray, iterations: int) -> RealizationResult:
    result = RealizationResult(
        q=Qz,
        det_sign=float_det_sign(Qz),
        objective_value=float(_penalty_terms(sarr, cfg.margin, Qz)[0]),
        ortho_residual=ortho_residual(Qz),
        min_margin=float(np.min(sarr * Qz, where=sarr != 0, initial=np.inf)),
        max_zero_violation=float(np.max(np.abs(Q_raw), where=sarr == 0, initial=0.0)),
        restart_index=restart_index,
        iterations=iterations,
    )
    if cfg.denom_bound is not None:
        result.certificate = rational_certify(Qz, cfg.denom_bound)
    return result


def search_many(problems, cfg: Optional[SearchConfig] = None) -> list:
    """Hunt every (pattern, target) problem in one lock-step batch; entry p is
    what search_realization(*problems[p], cfg) finds, or None.

    Each problem draws its restarts exactly as alone, and the rows of all
    problems of one order advance together (see _lockstep_descent), one
    batch per order present.  cfg.time_budget bounds the whole call: one
    deadline, checked before the first descent round of each order and every
    64 rounds; on expiry each problem gets its lowest-index success so far.
    """
    cfg = cfg or SearchConfig()
    deadline = _deadline(cfg)
    found, rows = {}, {}
    for p, (S, target) in enumerate(problems):
        det_target = _normalize_target(target)
        if not necessary_check(S).passed:
            continue
        sarr = to_float(S)
        for r in range(cfg.restarts):
            rng = np.random.default_rng([cfg.rng_seed, r])
            side = det_target if det_target is not None else int(rng.choice((-1, 1)))
            base = _random_signed_perm(rng, S.n, side)
            # a signed permutation clears every margin below 1 where it is
            # nonzero and is exactly 0 elsewhere, so it realizes S outright
            # exactly when it is S's sign array
            if np.array_equal(base, sarr):
                found[p] = (r, base, base, 0)
                break
            rows.setdefault(S.n, []).append((sarr, p, r, base, rng.uniform(-1.0, 1.0, size=S.n * (S.n - 1) // 2)))
    for batch in rows.values():
        # a descent find comes from a lower restart than a base find
        found.update(_lockstep_descent(batch, cfg, deadline))
    return [_assemble(to_float(S), cfg, *found[p]) if p in found else None for p, (S, _) in enumerate(problems)]


def search_realization(S: SignPattern, target: Target, cfg: Optional[SearchConfig] = None) -> Optional[RealizationResult]:
    """Hunt for an orthogonal matrix with pattern S and the target determinant
    sign; None means no find within budget, never impossibility.

    Deterministic for a fixed cfg.rng_seed: restart r draws its base and
    starting point from its own generator seeded by (rng_seed, r), and the
    first success by restart index wins.  All restarts run in lock step (the
    one-problem case of search_many), which finds exactly what running them
    one after another would.  A base that already realizes S ends the range
    of restarts at its index.  cfg.time_budget is checked before the first
    descent round and every 64 rounds; on expiry the lowest-index success
    found so far is returned, or None.
    """
    return search_many([(S, target)], cfg)[0]


def refine_from(Q0, S: SignPattern, target: Target, cfg: Optional[SearchConfig] = None) -> Optional[RealizationResult]:
    """Polish a seed matrix into a realization, staying in its basin.

    The seed is projected onto the orthogonal group and descent runs in the
    Cayley chart centered there; its determinant sign is therefore fixed, and
    a mismatched target returns None immediately.
    """
    cfg = cfg or SearchConfig()
    det_target = _normalize_target(target)
    Q0 = to_float(Q0)
    if len(Q0) != S.n:
        raise ValueError(f"seed order {len(Q0)} does not match pattern order {S.n}")
    if ortho_residual(Q0) > 0.5:
        raise ValueError("seed is too far from orthogonal (residual > 0.5)")
    base = reorthonormalize(Q0)
    if det_target is not None and float_det_sign(base) != det_target:
        return None
    sarr = to_float(S)
    found = _lockstep_descent([(sarr, 0, 0, base, np.zeros(S.n * (S.n - 1) // 2))], cfg, _deadline(cfg))
    return _assemble(sarr, cfg, *found[0]) if found else None


def _best_rational(x: float, bound: int) -> Fraction:
    """Fraction(x).limit_denominator(bound), computed on ints.

    The best approximation with denominator <= bound is the last convergent
    p1/q1 of x's continued fraction within the bound or the semiconvergent
    (p0 + k*p1)/(q0 + k*q1) with the largest k that stays within it
    (Khinchin, Continued Fractions, 1964, sec. 6).  They lie 1/(q1*(q0 + k*q1))
    apart and the convergent lies d/(q1*den) from x, d the remainder where the
    expansion stopped, so the convergent wins iff 2*d*(q0 + k*q1) <= den; a
    tie goes to the convergent, as in CPython.
    """
    num, den = x.as_integer_ratio()
    if den <= bound:
        return Fraction(num, den)
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > bound:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (bound - q0) // q1
    if 2 * d * (q0 + k * q1) <= den:
        return Fraction(p1, q1)
    return Fraction(p0 + k * p1, q0 + k * q1)


def rational_certify(Q, denom_bound: int) -> Optional[RatMatrix]:
    """Lift a float matrix to an exactly verified rational orthogonal matrix.

    Each entry is replaced by its best rational approximation with denominator
    <= denom_bound, a continued-fraction convergent or semiconvergent computed
    on Python ints by _best_rational (the same value as
    Fraction.limit_denominator); the candidate must then pass the exact
    orthogonality check and reproduce the float sign pattern, else None.
    denom_bound is an int or a numpy integer, at least 1.
    """
    denom_bound = _integer("denom_bound", denom_bound, 1)
    Q = to_float(Q)
    cand = RatMatrix(len(Q), tuple(_best_rational(q, denom_bound) for q in Q.ravel().tolist()))
    if not is_orthogonal(cand):
        return None
    if sign_pattern_of(cand) != sign_pattern_of(Q):
        return None
    return cand
