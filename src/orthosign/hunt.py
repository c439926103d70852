"""Determinant-sign classification of patterns and small-order censuses.

A pattern is classified by hunting for orthogonal realizations of both
determinant signs.  Verdicts other than AmbiguousFound are evidence of
absence within budget, never impossibility proofs.  The census enumerates
every pattern of order at most 4 up to symmetry and classifies each orbit
representative; at these orders an ambiguous verdict would contradict the
known uniqueness of the determinant sign, so it aborts the run loudly.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from .realize import (
    RealizationResult,
    SearchConfig,
    TARGET_ANY,
    refine_from,
    search_many,
)
from .signpat import SignPattern, necessary_check, orbit_representatives

AMBIGUOUS_FOUND = "AmbiguousFound"
ONLY_PLUS_FOUND = "OnlyPlusFound"
ONLY_MINUS_FOUND = "OnlyMinusFound"
NONE_FOUND = "NoneFound"


class CensusAmbiguityError(RuntimeError):
    """An AmbiguousFound verdict at an order where the determinant sign is
    known to be unique; almost certainly a numerical artifact, so stop."""


@dataclass
class DetSignEvidence:
    """Search evidence for the determinant signs a pattern can realize."""

    pattern: SignPattern
    plus_result: Optional[RealizationResult]
    minus_result: Optional[RealizationResult]
    budgets: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        """Read off the two results, so it cannot disagree with them."""
        if self.plus_result is not None and self.minus_result is not None:
            return AMBIGUOUS_FOUND
        if self.plus_result is not None:
            return ONLY_PLUS_FOUND
        if self.minus_result is not None:
            return ONLY_MINUS_FOUND
        return NONE_FOUND

    def to_json_dict(self) -> dict:
        return {
            "pattern": self.pattern.to_text(),
            "verdict": self.verdict,
            "plus": None if self.plus_result is None else self.plus_result.to_json_dict(),
            "minus": None if self.minus_result is None else self.minus_result.to_json_dict(),
            "budgets": self.budgets,
        }


def _remaining(cfg: SearchConfig, start: float) -> SearchConfig:
    """cfg with its time budget cut by the time spent since start."""
    if cfg.time_budget is None:
        return cfg
    return replace(cfg, time_budget=max(0.0, cfg.time_budget - (time.monotonic() - start)))


def _evidence(S: SignPattern, results: dict, hunted, cfg: SearchConfig, seeds_polished: int = 0) -> DetSignEvidence:
    budgets: dict = {"seeds_polished": seeds_polished}
    for side, key in ((1, "plus"), (-1, "minus")):
        res = results[side]
        restarts = 0 if side not in hunted else cfg.restarts if res is None else res.restart_index + 1
        budgets[key] = {"restarts": restarts, "max_iters": cfg.max_iters}
    return DetSignEvidence(S, results[1], results[-1], budgets)


def classify_det_sign(S: SignPattern, cfg: Optional[SearchConfig] = None, seeds=None,
                      sides=(1, -1)) -> DetSignEvidence:
    """Hunt both determinant signs; optional seed matrices are polished first.

    Each seed lands on the side of its own determinant sign, so a good pair of
    seeds settles the classification without any blind search.  sides narrows
    the blind search to one determinant sign (seeds still count wherever they
    land); each side is +1 or -1, and no side means polish the seeds only.
    The sides still open after polishing are hunted in one lock-step batch,
    and cfg.time_budget bounds the whole call.  seeds may be any iterable of
    matrices, such as a (k, n, n) array, and sides any iterable of signs.
    """
    sides = tuple(sides)  # read once: a generator would be spent by the check
    if any(side not in (1, -1) for side in sides):
        raise ValueError(f"sides must be +1 or -1, got {sides!r}")
    cfg = cfg or SearchConfig()
    start = time.monotonic()
    results = {1: None, -1: None}
    seeds = [] if seeds is None else list(seeds)
    for seed in seeds:
        polished = refine_from(seed, S, TARGET_ANY, _remaining(cfg, start))
        if polished is not None and results[polished.det_sign] is None:
            results[polished.det_sign] = polished
    hunted = [side for side in (1, -1) if results[side] is None and side in sides]
    results.update(zip(hunted, search_many([(S, side) for side in hunted], _remaining(cfg, start))))
    return _evidence(S, results, hunted, cfg, len(seeds))


def exhaustive_2x2_oracle() -> dict:
    """Complete map from every realizable 2x2 pattern to its determinant signs.

    Every 2x2 orthogonal matrix is [[c,-s],[s,c]] (det +1) or [[c,s],[s,-c]]
    (det -1) with c^2 + s^2 = 1, so the realizable patterns are exactly the
    images of the 8 sign combinations of (c, s) other than c = s = 0.  Each
    realizable pattern turns out to admit exactly one determinant sign.
    """
    achievable: dict = {}
    for sc, ss in itertools.product((-1, 0, 1), repeat=2):
        if sc == 0 and ss == 0:
            continue
        rotation = SignPattern.from_rows([[sc, -ss], [ss, sc]])
        reflection = SignPattern.from_rows([[sc, ss], [ss, -sc]])
        achievable.setdefault(rotation, set()).add(1)
        achievable.setdefault(reflection, set()).add(-1)
    return {p: frozenset(s) for p, s in achievable.items()}


@dataclass
class CensusRow:
    pattern: SignPattern
    orbit_size: int
    necessary_pass: bool
    evidence: Optional[DetSignEvidence]

    @property
    def verdict(self) -> str:
        return NONE_FOUND if self.evidence is None else self.evidence.verdict

    def to_json_dict(self) -> dict:
        return {
            "pattern": self.pattern.to_text(),
            "orbit_size": self.orbit_size,
            "necessary_pass": self.necessary_pass,
            "verdict": self.verdict,
            "evidence": None if self.evidence is None else self.evidence.to_json_dict(),
        }


@dataclass
class CensusReport:
    order: int
    rows: list
    margin: float
    elapsed_seconds: float

    @property
    def orbits_examined(self) -> int:
        return len(self.rows)

    @property
    def ambiguous_count(self) -> int:
        return sum(1 for r in self.rows if r.verdict == AMBIGUOUS_FOUND)

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "orbits_examined": self.orbits_examined,
            "ambiguous_count": self.ambiguous_count,
            "margin": self.margin,
            "rows": [r.to_json_dict() for r in self.rows],
        }


def census_default_config() -> SearchConfig:
    """Per-orbit search budget for the census (smaller than the global default)."""
    return SearchConfig(restarts=20, max_iters=500)


def census(n: int, cfg: Optional[SearchConfig] = None) -> CensusReport:
    """Classify every n x n sign pattern up to symmetry (n <= 4).

    Patterns failing the combinatorial necessary check are recorded as
    NoneFound without search; both sides of every other orbit are hunted in
    one lock-step batch.  cfg.time_budget bounds the whole census, orbit
    enumeration included.  Raises UnsupportedOrderError above order 4 (from
    orbit_representatives), and CensusAmbiguityError on the first ambiguous
    verdict in orbit order: at these orders each realizable pattern admits a
    single determinant sign, so ambiguity means a numerical artifact.
    """
    cfg = cfg or census_default_config()
    start = time.monotonic()
    orbits = [(rep, size, necessary_check(rep).passed) for rep, size in orbit_representatives(n)]
    problems = [(rep, side) for rep, _, passed in orbits if passed for side in (1, -1)]
    finds = iter(search_many(problems, _remaining(cfg, start)))
    rows = []
    for rep, orbit_size, passed in orbits:
        ev = _evidence(rep, {1: next(finds), -1: next(finds)}, (1, -1), cfg) if passed else None
        if ev is not None and ev.verdict == AMBIGUOUS_FOUND:
            raise CensusAmbiguityError(
                "ambiguous determinant sign reported for an order "
                f"{n} pattern, which contradicts sign uniqueness at this order:\n{rep.to_text()}"
            )
        rows.append(CensusRow(rep, orbit_size, passed, ev))
    return CensusReport(n, rows, cfg.margin, time.monotonic() - start)
