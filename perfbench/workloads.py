"""The benchmark workloads: seeded input lists, one callable per op, and the
check of every answer against an independent truth.

`build(name, seed)` returns a Workload whose ops run through the package's
public functions.  The seed drives every generated matrix, every perturbation
and every SearchConfig.rng_seed; the package only sees the generated inputs.
Each op reports an Outcome: why its answer is wrong (None when right), how
many positive-category targets it sought and confirmed, and a deterministic
record that the determinism gate hashes.

Categories are fixed by the input, never by the outcome: "positive" inputs
are orthogonal matrices or realizable sides, "negative" ones are near-miss
matrices or sides excluded by a proof.
"""

from __future__ import annotations

import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from orthosign import cli, exact, fixtures, hunt, realize, signpat

import oracle

POSITIVE, NEGATIVE = "positive", "negative"

# exact-verify list, per pass: Cayley-transform matrices over Q spread evenly
# over orders 3-8 and over four denominator decades (the last one ends at
# q2's 20014), 45-degree Givens products over Q(sqrt2), the three bundled
# matrices, and near-misses derived from the generated ones.
EXACT_RAT = 96
EXACT_QUAD = 32
EXACT_NUDGED = 16
EXACT_SWAPPED = 16
EXACT_ORDERS = range(3, 9)
DENOM_BANDS = ((1, 9), (10, 99), (100, 999), (1000, 20014))

# hunt: every case below runs once per replica, each replica with its own
# seeds; the two exact-seed polishes run once per pass.  The budget is small
# enough for several replicas per pass, so a pass averages over seeds.
HUNT_REPLICAS = 3
HUNT_BUDGET = {"restarts": 4, "max_iters": 250}
WATERS_ORDERS = range(2, 8)
PSTAR_MARGIN = 0.01
PSTAR_NOISE = 1e-2

# census: each op sweeps these orders with its own seeds, at the census
# default budget; two sweeps per pass halve the weight of one seed's misses
CENSUS_ORDERS = (2, 3)
CENSUS_SWEEPS = 2
CENSUS_ORBITS = {2: 7, 3: 42}

# a numerical find must be orthogonal to this tolerance
FIND_ORTHO_TOL = 1e-8


@dataclass
class Outcome:
    """wrong: why the answer is wrong, or None.  sought/found: positive-category
    targets the op looked for and confirmed.  record: deterministic summary."""

    wrong: Optional[str] = None
    sought: int = 0
    found: int = 0
    record: tuple = ()
    extra: dict = field(default_factory=dict)


@dataclass
class Op:
    label: str
    category: str
    run: Callable[[], Outcome]


@dataclass
class Workload:
    name: str
    ops: list
    info: dict


def build(name: str, seed: int, **sizes) -> Workload:
    """The named workload's input list for this seed.  `sizes` overrides the
    list-size constants above (used by the smoke test)."""
    return {"exact-verify": _exact_verify, "hunt": _hunt, "census": _census}[name](seed, **sizes)


# ---------------------------------------------------------------- helpers


def _signed_perm(rng: random.Random, n: int) -> list:
    perm = rng.sample(range(n), n)
    return [[Fraction(rng.choice((-1, 1))) if perm[i] == j else Fraction(0) for j in range(n)] for i in range(n)]


def _random_cayley(rng: random.Random, n: int, band) -> list:
    """Exact rational orthogonal matrix whose common denominator lies in band."""
    lo, hi = band
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        A = [[Fraction(0)] * n for _ in range(n)]
        top = rng.choice((1, 2, 3, 5, 8, 13, 21, 34))
        for i, j in rng.sample(pairs, rng.randint(1, len(pairs))):
            v = rng.randint(1, top) * rng.choice((-1, 1))
            A[i][j], A[j][i] = Fraction(v), Fraction(-v)
        Q = oracle.cayley(A)
        if lo <= _denominator(Q) <= hi:
            return oracle.matmul(_signed_perm(rng, n), Q)


def _random_givens(rng: random.Random, n: int) -> list:
    """Product of n 45-degree Givens rotations and a signed permutation, with
    at least one entry outside Q."""
    half = oracle.Sqrt2(0, Fraction(1, 2))
    while True:
        Q = [[oracle.Sqrt2(x) for x in r] for r in _signed_perm(rng, n)]
        for _ in range(n):
            i, j = rng.sample(range(n), 2)
            G = [[oracle.Sqrt2(x) for x in r] for r in oracle.identity(n)]
            G[i][i] = G[j][j] = half
            G[i][j], G[j][i] = (-half, half) if rng.random() < 0.5 else (half, -half)
            Q = oracle.matmul(G, Q)
        if any(x.b != 0 for r in Q for x in r):
            return Q


def _denominator(Q) -> int:
    return math.lcm(*(x.denominator for r in Q for x in r))


def _matrix_text(Q) -> str:
    n = len(Q)
    return json.dumps({"rows": n, "cols": n, "entries": [[oracle.format_entry(x) for x in r] for r in Q]})


def _fixture_rows(name: str) -> list:
    return [[oracle.parse_entry(s) for s in r] for r in json.loads(fixtures.fixture_text(name))["entries"]]


def _pattern_tuple(text: str) -> tuple:
    return tuple({"+": 1, "-": -1, "0": 0}[c] for c in text if c in "+-0")


def check_find(q, pattern: tuple, det_sign: int) -> Optional[str]:
    """Why a numerical find is not a realization of pattern with det_sign."""
    Q = np.asarray(q, dtype=float)
    n = Q.shape[0]
    got = tuple(int(v) for v in np.sign(Q).ravel())
    if got != pattern:
        return "find has the wrong sign pattern"
    if float(np.max(np.abs(Q.T @ Q - np.eye(n)))) > FIND_ORTHO_TOL:
        return "find is not orthogonal"
    if int(np.sign(np.linalg.det(Q))) != det_sign:
        return "find has the wrong determinant sign"
    return None


# ---------------------------------------------------------------- exact-verify


def _exact_verify(seed: int, rat=EXACT_RAT, quad=EXACT_QUAD, nudged=EXACT_NUDGED,
                  swapped=EXACT_SWAPPED) -> Workload:
    rng = random.Random(f"exact-verify/{seed}")
    orders = list(EXACT_ORDERS)
    base = [_random_cayley(rng, orders[k % len(orders)], DENOM_BANDS[(k // len(orders)) % len(DENOM_BANDS)])
            for k in range(rat)]
    base += [_random_givens(rng, orders[k % len(orders)]) for k in range(quad)]
    inputs = [(f"cayley{k}", Q) for k, Q in enumerate(base[:rat])]
    inputs += [(f"givens{k}", Q) for k, Q in enumerate(base[rat:])]
    inputs += [(name, _fixture_rows(name)) for name in fixtures.MATRIX_NAMES]
    for k in range(nudged):
        Q = [list(r) for r in rng.choice(base)]
        i, j = rng.randrange(len(Q)), rng.randrange(len(Q))
        Q[i][j] = Q[i][j] + Fraction(rng.choice((-1, 1)), rng.randint(2, 64))
        inputs.append((f"nudged{k}", Q))
    for k in range(swapped):
        Q = [list(r) for r in rng.choice(base)]
        i, j = rng.sample(range(len(Q)), 2)
        Q[i], Q[j] = Q[j], Q[i]
        inputs.append((f"swapped{k}", Q))
    ops = [_verify_op(label, Q) for label, Q in inputs]
    bits = max(oracle.bits(x) for _, Q in inputs for r in Q for x in r)
    info = {"ops_per_pass": len(ops), "cayley_rat": rat, "givens_quad": quad, "fixtures": len(fixtures.MATRIX_NAMES),
            "nudged": nudged, "swapped": swapped, "orders": [orders[0], orders[-1]],
            "denominator_bands": DENOM_BANDS, "entry_bits_max": bits}
    return Workload("exact-verify", ops, info)


def _verify_op(label: str, Q: list) -> Op:
    """parse -> is_orthogonal -> det_sign -> sign_pattern_of -> necessary_check,
    then rational_certify for orthogonal rational inputs, as `orthosign
    verify` does plus the certification round trip."""
    n = len(Q)
    text = _matrix_text(Q)
    ortho = oracle.is_orthogonal(Q)
    det_sign = oracle.sign(oracle.det(Q))
    pattern = oracle.pattern(Q)
    necessary = oracle.necessary_check(pattern, n)
    rational = not any(isinstance(x, oracle.Sqrt2) for r in Q for x in r)
    certify_bound = _denominator(Q) if rational else None
    flat = tuple(x for r in Q for x in r)

    def answer():
        M = exact.parse_matrix_json(text)
        got_ortho = exact.is_orthogonal(M)
        got_det = exact.det_sign(M)
        got_pattern = signpat.sign_pattern_of(M)
        got_necessary = signpat.necessary_check(got_pattern).passed
        record = (label, got_ortho, got_det, got_necessary)
        if got_ortho != ortho:
            return f"is_orthogonal gave {got_ortho}", record
        if got_det != det_sign:
            return f"det_sign gave {got_det}, truth {det_sign}", record
        if got_pattern.entries != pattern:
            return "sign_pattern_of disagrees", record
        if got_necessary != necessary:
            return f"necessary_check gave {got_necessary}", record
        if ortho and rational:
            cert = realize.rational_certify(realize.to_float(M), certify_bound)
            if cert is None or cert.entries != flat:
                return "rational_certify did not return the input", record
        return None, record

    def run() -> Outcome:
        why, record = answer()
        return Outcome(why and f"{label}: {why}", int(ortho), int(ortho and why is None), record)

    return Op(label, POSITIVE if ortho else NEGATIVE, run)


# ---------------------------------------------------------------- hunt


def _hunt(seed: int, replicas=HUNT_REPLICAS, restarts=HUNT_BUDGET["restarts"],
          max_iters=HUNT_BUDGET["max_iters"], waters_orders=WATERS_ORDERS) -> Workload:
    pstar = fixtures.get_fixture("pstar")
    s3 = fixtures.get_fixture("s3")
    q1_rows, q2_rows, r3_rows = (_fixture_rows(name) for name in ("q1", "q2", "r3"))
    # r3 realizes s3; with the determinant sign unique at order 3, the other
    # side of s3 is excluded
    if oracle.pattern(r3_rows) != s3.entries or not oracle.is_orthogonal(r3_rows):
        raise ValueError("r3 does not realize s3")
    s3_side = oracle.sign(oracle.det(r3_rows))
    q1f = np.array([[float(x) for x in r] for r in q1_rows])
    q2f = np.array([[float(x) for x in r] for r in q2_rows])

    def cfg(rng_seed, **kw):
        return realize.SearchConfig(restarts=restarts, max_iters=max_iters, rng_seed=rng_seed, **kw)

    ops = []
    for r in range(replicas):
        seeds = iter(int(s) for s in np.random.SeedSequence([seed, r]).generate_state(32))
        for n in waters_orders:
            S = signpat.waters_pattern(n)
            forced = signpat.waters_forced_sign(n)
            ops.append(_side_op(f"waters{n}{forced:+d}/r{r}", POSITIVE, S, forced, cfg(next(seeds))))
            ops.append(_side_op(f"waters{n}{-forced:+d}/r{r}", NEGATIVE, S, -forced, cfg(next(seeds))))
        ops.append(_side_op(f"s3{s3_side:+d}/r{r}", POSITIVE, s3, s3_side, cfg(next(seeds))))
        ops.append(_side_op(f"s3{-s3_side:+d}/r{r}", NEGATIVE, s3, -s3_side, cfg(next(seeds))))
        noise = np.random.default_rng(next(seeds))
        perturbed = [Q + noise.uniform(-PSTAR_NOISE, PSTAR_NOISE, size=Q.shape) for Q in (q1f, q2f)]
        ops.append(_seeded_op(f"pstar-seeded/r{r}", pstar, perturbed, cfg(next(seeds), margin=PSTAR_MARGIN)))
        ops.append(_blind_op(f"pstar-blind/r{r}", pstar, cfg(next(seeds), margin=PSTAR_MARGIN)))
    ops.append(_polish_op("polish-q1", pstar, q1f, 1, q1_rows, cfg(0, margin=PSTAR_MARGIN, denom_bound=8)))
    ops.append(_polish_op("polish-q2", pstar, q2f, -1, q2_rows, cfg(0, margin=PSTAR_MARGIN, denom_bound=20014)))
    info = {"ops_per_pass": len(ops), "replicas": replicas, "budget": {"restarts": restarts, "max_iters": max_iters},
            "waters_orders": [min(waters_orders), max(waters_orders)], "pstar_margin": PSTAR_MARGIN,
            "pstar_noise": PSTAR_NOISE,
            "positive": sum(op.category == POSITIVE for op in ops),
            "negative": sum(op.category == NEGATIVE for op in ops)}
    return Workload("hunt", ops, info)


def _record(label, res) -> tuple:
    if res is None:
        return (label, None)
    return (label, res.det_sign, res.restart_index, res.iterations)


def _side_op(label, category, S, side, cfg) -> Op:
    """One side of one pattern, as `orthosign hunt --det` runs it."""

    def run() -> Outcome:
        ev = hunt.classify_det_sign(S, cfg, sides=(side,))
        res = ev.plus_result if side == 1 else ev.minus_result
        record = _record(label, res)
        if ev.verdict == hunt.AMBIGUOUS_FOUND and S.n <= 4:
            return Outcome(f"{label}: AmbiguousFound at order {S.n}", record=record)
        if category == NEGATIVE:
            why = None if res is None else f"{label}: found a realization on an excluded side"
            return Outcome(why, record=record)
        if res is None:
            return Outcome(None, 1, 0, record)
        why = check_find(res.q, S.entries, side)
        return Outcome(why and f"{label}: {why}", 1, int(why is None), record)

    return Op(label, category, run)


def _seeded_op(label, S, seeds, cfg) -> Op:
    """pstar polished from perturbed q1/q2: both signs must be found."""

    def run() -> Outcome:
        ev = hunt.classify_det_sign(S, cfg, seeds=seeds)
        record = (label, ev.verdict) + _record("+", ev.plus_result) + _record("-", ev.minus_result)
        if ev.verdict != hunt.AMBIGUOUS_FOUND:
            return Outcome(f"{label}: verdict {ev.verdict}, expected AmbiguousFound", 1, 0, record)
        why = check_find(ev.plus_result.q, S.entries, 1) or check_find(ev.minus_result.q, S.entries, -1)
        return Outcome(why and f"{label}: {why}", 1, int(why is None), record)

    return Op(label, POSITIVE, run)


def _blind_op(label, S, cfg) -> Op:
    """Blind pstar search for either sign."""

    def run() -> Outcome:
        res = realize.search_realization(S, realize.TARGET_ANY, cfg)
        record = _record(label, res)
        if res is None:
            return Outcome(None, 1, 0, record)
        why = check_find(res.q, S.entries, res.det_sign)
        return Outcome(why and f"{label}: {why}", 1, int(why is None), record)

    return Op(label, POSITIVE, run)


def _polish_op(label, S, Qf, side, truth_rows, cfg) -> Op:
    """An exact seed polished at margin 0.01 must certify back to itself."""
    truth = tuple(x for r in truth_rows for x in r)

    def run() -> Outcome:
        res = realize.refine_from(Qf, S, side, cfg)
        record = _record(label, res)
        if res is None or res.certificate is None or res.certificate.entries != truth:
            return Outcome(f"{label}: did not certify back to the exact seed", 1, 0, record)
        return Outcome(None, 1, 1, record)

    return Op(label, POSITIVE, run)


# ---------------------------------------------------------------- census


def _census(seed: int, orders=CENSUS_ORDERS, sweeps=CENSUS_SWEEPS) -> Workload:
    truth = {2: {oracle.pattern_text(p.entries, 2): signs for p, signs in hunt.exhaustive_2x2_oracle().items()},
             3: oracle.order3_truth()}
    seeds = np.random.SeedSequence([seed]).generate_state(sweeps * len(orders)).reshape(sweeps, len(orders))
    ops = [_census_op(f"census/{j}", dict(zip(orders, (int(s) for s in row))), truth) for j, row in enumerate(seeds)]
    budget = hunt.census_default_config()
    info = {"ops_per_pass": len(ops), "orders": list(orders),
            "budget": {"restarts": budget.restarts, "max_iters": budget.max_iters},
            "census_seeds": [list(map(int, row)) for row in seeds]}
    return Workload("census", ops, info)


def _census_op(label: str, seeds: dict, truth: dict) -> Op:
    """`orthosign census --order k --json --seed s` for each order, one sweep."""

    def run() -> Outcome:
        wrong, found, positives, record, extra = [], 0, 0, [], {}
        for k, seed in seeds.items():
            out = io.StringIO()
            t0 = time.perf_counter()
            rc = cli.main(["census", "--order", str(k), "--json", "--seed", str(seed)], out=out)
            extra[f"census_order{k}_s"] = time.perf_counter() - t0
            text = out.getvalue()
            record.append(text)
            if rc != 0:
                wrong.append(f"{label} order {k}: exit code {rc}")
                continue
            why, f, p = _check_census(k, json.loads(text), truth[k])
            wrong += why
            found += f
            positives += p
        return Outcome("; ".join(wrong) or None, positives, found, tuple(record), extra)

    return Op(label, POSITIVE, run)


def _check_census(k: int, report: dict, truth: dict):
    """(wrong answers, realizable sides found, realizable sides) of one census."""
    wrong = []
    if report["orbits_examined"] != CENSUS_ORBITS.get(k):
        wrong.append(f"order {k}: {report['orbits_examined']} orbits, expected {CENSUS_ORBITS.get(k)}")
    if report["ambiguous_count"]:
        wrong.append(f"order {k}: AmbiguousFound at order <= 4")
    if sum(row["orbit_size"] for row in report["rows"]) != 3 ** (k * k):
        wrong.append(f"order {k}: orbit sizes do not add up to 3^{k * k}")
    found = positives = 0
    for row in report["rows"]:
        p = _pattern_tuple(row["pattern"])
        text = oracle.pattern_text(p, k)
        necessary = oracle.necessary_check(p, k)
        if row["necessary_pass"] != necessary:
            wrong.append(f"order {k} {text}: necessary_pass {row['necessary_pass']}")
        if necessary and text not in truth and k == 3:
            wrong.append(f"order {k} {text}: passing orbit with no witness")
        signs = truth.get(text, frozenset())
        ev = row["evidence"] or {}
        got = {s: ev.get(key) for s, key in ((1, "plus"), (-1, "minus")) if ev.get(key)}
        for s, res in got.items():
            if s not in signs:
                wrong.append(f"order {k} {text}: found det {s:+d}, which is not realizable")
            elif why := check_find(res["q"], p, s):
                wrong.append(f"order {k} {text}: {why}")
        positives += len(signs)
        found += len(signs & set(got))
    return wrong, found, positives
