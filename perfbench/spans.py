"""Layer-boundary tracing of orthosign, from outside the package.

A Tracer replaces each public function that one layer calls in another (the
BOUNDARIES below) by a timing wrapper, in every orthosign module that binds
it, and restores the originals on exit.  Each wrapped call is a span; a stack
of open spans gives every span its parent, so a boundary's self time is its
duration minus the time its child spans cover.  Spans are aggregated in
memory per boundary and per layer; the wrappers also read the deterministic
counters (finds, restarts, orbit sizes, check outcomes) off the values that
cross each boundary.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "hunt", "realize", "signpat", "exact", "fixtures")

BOUNDARIES = (
    ("cli", "main"),
    ("hunt", "census"),
    ("hunt", "classify_det_sign"),
    ("realize", "search_realization"),
    ("realize", "refine_from"),
    ("realize", "rational_certify"),
    ("signpat", "orbit_of"),
    ("signpat", "necessary_check"),
    ("signpat", "sign_pattern_of"),
    ("exact", "parse_matrix_json"),
    ("exact", "is_orthogonal"),
    ("exact", "det_sign"),
    ("fixtures", "get_fixture"),
)

# boundaries whose spans are named by the scalar domain of their argument
_SPLIT_BY_DOMAIN = {"is_orthogonal", "det_sign"}


def _entry_bits(M) -> int:
    best = 0
    for e in M.entries:
        for p in ((e.a, e.b) if hasattr(e, "b") else (e,)):
            best = max(best, abs(p.numerator).bit_length(), p.denominator.bit_length())
    return best


class Tracer:
    """Install with `with tracer:`; read `stats`, `layer_stats` and
    `counters` afterwards, and `reset()` between passes."""

    def __init__(self):
        self._patches = []
        self._stack = []
        self.reset()

    def reset(self):
        self.stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        self.layer_stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        self.counters = Counter()

    def __enter__(self):
        for layer, name in BOUNDARIES:
            module = importlib.import_module(f"orthosign.{layer}")
            orig = getattr(module, name)
            wrapper = self._wrap(layer, name, orig)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "orthosign":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, orig))
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()
        return False

    def _wrap(self, layer, name, fn):
        base = f"{layer}.{name}"

        def wrapper(*args, **kwargs):
            key = base
            if name in _SPLIT_BY_DOMAIN:
                key += ".quad" if type(args[0]).__name__ == "QuadMatrix" else ".rat"
            frame = [0.0, layer]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self._stack.pop()
                st = self.stats[key]
                st["calls"] += 1
                st["busy_s"] += dur
                st["self_s"] += dur - frame[0]
                ls = self.layer_stats[layer]
                ls["calls"] += 1
                ls["self_s"] += dur - frame[0]
                if all(f[1] != layer for f in self._stack):
                    ls["busy_s"] += dur
                if self._stack:
                    self._stack[-1][0] += dur
            self._observe(name, args, kwargs, result, dur)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name, args, kwargs, result, dur):
        c = self.counters
        if name in ("search_realization", "refine_from"):
            if result is not None:
                c["restarts_to_find"] += result.restart_index + 1
                c["iters_to_find"] += result.iterations
            elif name == "search_realization":
                cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
                cfg = cfg or importlib.import_module("orthosign.realize").SearchConfig()
                c["exhausted_calls"] += 1
                c["exhausted_s"] += dur
                c["exhausted_iter_budget"] += cfg.restarts * cfg.max_iters
        elif name == "rational_certify":
            c["certify_ok"] += result is not None
        elif name == "necessary_check":
            c["necessary_pass"] += result.passed
        elif name == "orbit_of":
            c["orbit_patterns"] += len(result)
        elif name == "is_orthogonal":
            c["entry_bits_max"] = max(c["entry_bits_max"], _entry_bits(args[0]))
