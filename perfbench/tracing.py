"""Spans and counters around calls into the package, from the benchmark side.

``Tracer.install`` replaces module attributes of the imported package with
wrappers that open a span (name, start, end, parent span, instance id) per
call, and ``uninstall`` puts the originals back. Spans stay in memory until
the run writes them out. A layer is the first component of a span name, so
``solver.optimum`` belongs to the ``solver`` layer; its self time is its
duration minus the time its child spans cover.

``install_counters`` instead wraps only the witness enumeration and the
subset test ``solver._forest_masks`` with counters, for a pass of its own
that is not timed: a sweep sample makes ~10^5 subset tests, and a wrapper
frame on each would make them most of a timed pass.

Private names (``solver._Search``, ``solver._forest_masks``) may be renamed
by later versions of the package; a hook whose target is gone is recorded
in ``missing`` and the metrics that need it read None.
"""

from __future__ import annotations

import time
from collections import Counter

LAYERS = ("bench", "cli", "core", "generators", "solver", "theorems")

# (module, attribute, span name) of the plain wrapped calls
_SPANNED = (
    ("cli", "parse_bbg", "core.parse_bbg"),
    ("core", "emit_bbg", "core.emit_bbg"),
    ("generators", "random_min_degree", "generators.random_min_degree"),
    ("theorems", "random_min_degree", "generators.random_min_degree"),
    ("cli", "max_forest", "solver.max_forest"),
    ("theorems", "max_forest", "solver.max_forest"),
    ("cli", "verify_structure", "theorems.verify_structure"),
)


class Tracer:
    """In-memory span recorder with per-boundary counters."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, instance, child s]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.instance = "setup"
        self.missing: list[str] = []
        self._undo: list[tuple] = []
        self._pinning_depth = 0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.instance, 0.0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        self.stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += end - span[1]

    # -- hooks ------------------------------------------------------------

    def _patch(self, owner, attr: str, label: str, make) -> None:
        orig = getattr(owner, attr, None) if owner is not None else None
        if orig is None:
            self.missing.append(label)
            return
        setattr(owner, attr, make(orig))
        self._undo.append((owner, attr, orig))

    def _spanned(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                idx = self.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(idx)
            return wrapper
        return make

    def install(self, bb) -> None:
        """Wrap the package's layer boundaries; ``bb`` holds its modules."""
        for mod, attr, name in _SPANNED:
            self._patch(getattr(bb, mod), attr, f"{mod}.{attr}",
                        self._spanned(name))
        search = getattr(bb.solver, "_Search", None)
        self._patch(search, "solve", "solver._Search.solve", self._optimum)
        self._patch(search, "feasible_with", "solver._Search.feasible_with",
                    self._pinning)
        self._patch(bb.theorems, "enumerate_max_forests",
                    "theorems.enumerate_max_forests", self._enumerate)

    def install_counters(self, bb) -> None:
        """Count subset tests and witnesses; no spans."""
        self._patch(bb.theorems, "enumerate_max_forests",
                    "theorems.enumerate_max_forests", self._tested)
        self._patch(bb.solver, "_forest_masks", "solver._forest_masks",
                    self._forest_masks)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _optimum(self, fn):
        # solve calls made inside feasible_with belong to the pinning pass
        def solve(search, *args, **kwargs):
            if self._pinning_depth:
                return fn(search, *args, **kwargs)
            before = search.nodes
            idx = self.open("solver.optimum")
            try:
                return fn(search, *args, **kwargs)
            finally:
                self.close(idx)
                self.counts["solver.optimum.nodes"] += search.nodes - before
        return solve

    def _pinning(self, fn):
        def feasible_with(search, *args, **kwargs):
            before = search.nodes
            idx = self.open("solver.pinning")
            self._pinning_depth += 1
            found = None
            try:
                found = fn(search, *args, **kwargs)
                return found
            finally:
                self._pinning_depth -= 1
                self.close(idx)
                self.counts["solver.pinning.calls"] += 1
                self.counts["solver.pinning.hits"] += found is not None
                self.counts["solver.pinning.nodes"] += search.nodes - before
        return feasible_with

    def _enumerate(self, fn):
        # the scan runs while the caller iterates, so it is drained inside
        # the span; every caller in the package consumes it to the end
        def enumerate_max_forests(*args, **kwargs):
            idx = self.open("solver.enumerate")
            try:
                witnesses = list(fn(*args, **kwargs))
            finally:
                self.close(idx)
            self.counts["solver.enumerate.witnesses"] += len(witnesses)
            return iter(witnesses)
        return enumerate_max_forests

    def _tested(self, fn):
        # subset tests made while one enumeration is drained
        def enumerate_max_forests(*args, **kwargs):
            before = self.counts["core.forest_masks.calls"]
            witnesses = list(fn(*args, **kwargs))
            self.counts["solver.enumerate.tested"] += (
                self.counts["core.forest_masks.calls"] - before)
            self.counts["solver.enumerate.witnesses"] += len(witnesses)
            return iter(witnesses)
        return enumerate_max_forests

    def _forest_masks(self, fn):
        counts = self.counts

        def forest_masks(*args):
            counts["core.forest_masks.calls"] += 1
            return fn(*args)
        return forest_masks

    # -- aggregation ------------------------------------------------------

    def duration_ms(self, name: str, instances=None) -> float:
        return 1000.0 * sum(s[2] - s[1] for s in self.spans
                            if s[0] == name and (instances is None or s[4] in instances))

    def self_ms(self, layer: str, instances=None) -> float:
        return 1000.0 * sum(s[2] - s[1] - s[5] for s in self.spans
                            if s[0].split(".", 1)[0] == layer
                            and (instances is None or s[4] in instances))

    def dump(self) -> list[list]:
        """Spans as [name, start ms, end ms, parent, instance], times
        relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[s[0], round(1000.0 * (s[1] - t0), 4),
                 round(1000.0 * (s[2] - t0), 4), s[3], s[4]]
                for s in self.spans]


# per-layer metric -> the hooks it needs, where it needs any
HOOKS = {
    "solver.max_forest.ms": ("cli.max_forest", "theorems.max_forest"),
    "solver.optimum.ms": ("solver._Search.solve",),
    "solver.optimum.nodes": ("solver._Search.solve",),
    "solver.optimum.us_per_node": ("solver._Search.solve",),
    "solver.pinning.calls": ("solver._Search.feasible_with",),
    "solver.pinning.ms": ("solver._Search.feasible_with",),
    "solver.pinning.nodes": ("solver._Search.feasible_with",),
    "solver.pinning.hit_ratio": ("solver._Search.feasible_with",),
    "solver.enumerate.ms": ("theorems.enumerate_max_forests",),
    "solver.enumerate.witnesses": ("theorems.enumerate_max_forests",),
    "core.forest_masks.calls": ("solver._forest_masks",),
    "solver.enumerate.yield_ratio": ("theorems.enumerate_max_forests",
                                     "solver._forest_masks"),
    "core.parse_bbg.ms": ("cli.parse_bbg",),
    "core.emit_bbg.ms": ("core.emit_bbg",),
    "generators.ms": ("generators.random_min_degree",
                      "theorems.random_min_degree"),
    "theorems.self_ms": ("cli.verify_structure",),
}


def _ratio(num: float, den: float) -> float:
    # a ratio over an empty base (no pinning calls, no subsets) reads 0
    return num / den if den else 0.0


def per_layer_metrics(tr: Tracer, counter: Tracer, overhead_frac: float,
                      units: dict) -> dict:
    """The per-layer metrics named in ``units`` (name -> unit), from the
    timed tracer ``tr`` and the untimed ``counter``."""
    c, tested = tr.counts, counter.counts
    opt_ms = tr.duration_ms("solver.optimum")
    values = {
        "solver.max_forest.ms": tr.duration_ms("solver.max_forest"),
        "solver.optimum.ms": opt_ms,
        "solver.optimum.nodes": c["solver.optimum.nodes"],
        "solver.optimum.us_per_node": _ratio(1000.0 * opt_ms,
                                             c["solver.optimum.nodes"]),
        "solver.pinning.calls": c["solver.pinning.calls"],
        "solver.pinning.ms": tr.duration_ms("solver.pinning"),
        "solver.pinning.nodes": c["solver.pinning.nodes"],
        "solver.pinning.hit_ratio": _ratio(c["solver.pinning.hits"],
                                           c["solver.pinning.calls"]),
        "solver.enumerate.ms": tr.duration_ms("solver.enumerate"),
        "solver.enumerate.witnesses": c["solver.enumerate.witnesses"],
        "core.forest_masks.calls": tested["core.forest_masks.calls"],
        "solver.enumerate.yield_ratio": _ratio(tested["solver.enumerate.witnesses"],
                                               tested["solver.enumerate.tested"]),
        "core.parse_bbg.ms": tr.duration_ms("core.parse_bbg"),
        "core.emit_bbg.ms": tr.duration_ms("core.emit_bbg"),
        "generators.ms": tr.self_ms("generators"),
        "cli.self_ms": tr.self_ms("cli"),
        "theorems.self_ms": tr.self_ms("theorems"),
        "trace.overhead_frac": overhead_frac,
    }
    missing = set(tr.missing) | set(counter.missing)
    return {name: {"value": None if set(HOOKS.get(name, ())) & missing
                   else values[name], "unit": unit}
            for name, unit in units.items()}
