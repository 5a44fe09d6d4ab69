"""Per-layer spans recorded from outside the library.

``Tracer.install()`` rebinds each traced public function, in the module that
defines it and in every ``eqdist`` module that imported it (``eqdist.cli``
holds ``certify`` as ``run_certify``; the package re-exports most names),
with a wrapper that records a span.  ``uninstall()`` puts every original
back.  The recursive and per-pair helpers (``render_json``, ``norm``) are
left alone: one ``verify`` of 400 points makes 79,800 ``norm`` calls.

A span is (name, job, parent, start, end, ok, counts).  Spans stay in memory
until the run ends.  Self time is a span's duration minus the durations of
its direct children; calls nest on one thread, so children never overlap.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

# defining module -> traced public functions; span name is <module>.<function>
TRACED = {
    "eqdist.space": ("distance_matrix",),
    "eqdist.approx": ("approximate_abs_power", "approximation_error"),
    "eqdist.bounds": ("enumerate_bounds",),
    "eqdist.certify": ("certify", "matrix_thm1", "matrix_thm2", "matrix_thm5", "gram_thm3",
                       "gram_thm4", "numerical_rank", "independence_rank_thm3",
                       "independence_rank_thm4"),
    "eqdist.construct": ("search_equilateral", "distance_profile", "cross_polytope",
                         "lp_simplex", "euclidean_simplex", "product_construction"),
    "eqdist.cli": ("run", "emit"),
}
MATRIX_BUILDERS = ("certify.matrix_thm1", "certify.matrix_thm2", "certify.matrix_thm5",
                   "certify.gram_thm3", "certify.gram_thm4")
INDEPENDENCE = ("certify.independence_rank_thm3", "certify.independence_rank_thm4")
BUILDERS = ("construct.cross_polytope", "construct.lp_simplex", "construct.euclidean_simplex",
            "construct.product_construction")


@dataclass
class Span:
    name: str
    job: int
    parent: int
    start: float
    end: float = math.nan
    ok: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _counts(name: str, args, kwargs, result) -> dict:
    """Work counts for one call, computed from its arguments and result."""
    if name == "space.distance_matrix":
        ps = args[0]
        pairs = ps.m * (ps.m - 1) // 2
        return {"pairs": pairs, "pair_coords": pairs * ps.space.ambient_dim}
    if name == "approx.approximate_abs_power":
        p = float(args[0])
        return {"exact": int(p.is_integer() and int(p) % 2 == 0)}
    if name == "certify.numerical_rank":
        shape = getattr(args[0], "entries", args[0]).shape
        return {"entries": int(math.prod(shape))}
    if name == "certify.certify":
        return {"passes": int(result.passes)}
    if name == "construct.search_equilateral":
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
        return {"restarts": cfg.restarts if cfg is not None else 8,
                "converged": int(result.converged)}
    return {}


class Tracer:
    """Records spans for the calls made while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, self.job, stack[-1] if stack else -1, 0.0)
            spans.append(span)
            stack.append(idx)
            before = sys.stdout.tell() if name == "cli.emit" else 0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span.ok = True
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if name == "cli.emit":
                    span.counts = {"bytes": sys.stdout.tell() - before}
                elif span.ok:
                    span.counts = _counts(name, args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == "eqdist" or key.startswith("eqdist."))]
        for modname, names in TRACED.items():
            home = sys.modules[modname]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{modname.split('.')[-1]}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @property
    def bindings(self) -> list[tuple[str, str]]:
        """(module, attribute) pairs currently rebound."""
        return [(mod.__name__, attr) for mod, attr, _ in self._patched]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its direct children's durations."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Aggregate spans into the per-layer metric names of BENCHMARK.json."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    for s, st in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_s[s.name] = self_s.get(s.name, 0.0) + st
        for k, v in s.counts.items():
            counts[f"{s.name}.{k}"] = counts.get(f"{s.name}.{k}", 0) + v
        if s.name == "approx.approximate_abs_power" and not s.ok:
            counts["approx.approximate_abs_power.failures"] = \
                counts.get("approx.approximate_abs_power.failures", 0) + 1

    def group(names, table):
        return sum(table.get(n, 0) for n in names)

    def ratio(num, den):
        return counts.get(num, 0) / calls[den] if calls.get(den) else 0.0

    out = {}
    for name in ("space.distance_matrix", "approx.approximate_abs_power",
                 "approx.approximation_error", "certify.certify",
                 "construct.search_equilateral", "construct.distance_profile",
                 "bounds.enumerate_bounds", "cli.run"):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["space.distance_matrix.pairs"] = counts.get("space.distance_matrix.pairs", 0)
    out["space.distance_matrix.pair_coords"] = counts.get("space.distance_matrix.pair_coords", 0)
    out["approx.approximate_abs_power.failures"] = \
        counts.get("approx.approximate_abs_power.failures", 0)
    out["approx.exact_path.calls"] = counts.get("approx.approximate_abs_power.exact", 0)
    out["certify.matrix_build.calls"] = group(MATRIX_BUILDERS, calls)
    out["certify.matrix_build.s"] = group(MATRIX_BUILDERS, total)
    out["certify.numerical_rank.calls"] = calls.get("certify.numerical_rank", 0)
    out["certify.numerical_rank.s"] = total.get("certify.numerical_rank", 0.0)
    out["certify.numerical_rank.entries"] = counts.get("certify.numerical_rank.entries", 0)
    out["certify.independence_rank.calls"] = group(INDEPENDENCE, calls)
    out["certify.independence_rank.self_s"] = group(INDEPENDENCE, self_s)
    out["certify.pass_ratio"] = ratio("certify.certify.passes", "certify.certify")
    out["construct.search_equilateral.restarts"] = \
        counts.get("construct.search_equilateral.restarts", 0)
    out["construct.search_equilateral.converged_ratio"] = \
        ratio("construct.search_equilateral.converged", "construct.search_equilateral")
    out["construct.build.calls"] = group(BUILDERS, calls)
    out["construct.build.s"] = group(BUILDERS, self_s)
    out["cli.emit.self_s"] = self_s.get("cli.emit", 0.0)
    out["cli.emit.bytes"] = counts.get("cli.emit.bytes", 0)
    return out
