"""Counters and spans around pclab's public functions, installed at their import sites.

A ``Hooks`` object works in one of three modes:

* ``plain`` - only ``exact_pc`` is wrapped, to time each call; every other
  function runs unwrapped.  The bounded end-to-end figures come from this mode.
* ``count`` - every site in SITES is wrapped to count calls and collect the
  deterministic work counters (probes, assignments, how each exact_pc call was
  decided, classes per level, construction branches, checker verdicts).
* ``trace`` - the same sites, and a span (name, start, end, parent, graph) for
  every call, kept in memory and written out when the job ends.

``count`` and ``trace`` wrap the same sites, so their counters must be identical:
tracing must not change the work.  A site whose attribute the program no longer
has is skipped and listed in ``Hooks.missing``; its counters are then absent.
"""
from __future__ import annotations

import time
import timeit
from collections import Counter

import pclab.census
import pclab.cli
import pclab.constructions
import pclab.generators
import pclab.solver
from pclab.graph import Graph
from pclab.graph6 import graph6_encode

#: (module, attribute, span name): every call site the hooks wrap
SITES = (
    (pclab.census, "enumerate_connected", "generators.enumerate_connected"),
    (pclab.census, "are_isomorphic", "graph.are_isomorphic"),
    (pclab.census, "structure_flags", "graph.structure_flags"),
    (pclab.census, "diameter", "graph.diameter"),
    (pclab.census, "exact_pc", "solver.exact_pc"),
    (pclab.census, "graph6_encode", "graph6.graph6_encode"),
    (pclab.census, "classify_pc_n_minus_2", "constructions.classify_pc_n_minus_2"),
    (pclab.census, "color_complement_diam_ge4", "constructions.color_complement_diam_ge4"),
    (pclab.census, "color_complement_diam3_trianglefree",
     "constructions.color_complement_diam3_trianglefree"),
    (pclab.census, "color_complement_diam2_trianglefree",
     "constructions.color_complement_diam2_trianglefree"),
    (pclab.census, "color_complement_with_trivial_component",
     "constructions.color_complement_with_trivial_component"),
    (pclab.constructions, "is_proper_connected", "coloring.is_proper_connected"),
    (pclab.constructions, "has_strong_property", "coloring.has_strong_property"),
    (pclab.constructions, "exists_k_coloring", "solver.exists_k_coloring"),
    (pclab.constructions, "structure_flags", "graph.structure_flags"),
    (pclab.constructions, "diameter", "graph.diameter"),
    # the solver imports tree_proper_coloring from this module at call time
    (pclab.constructions, "tree_proper_coloring", "constructions.tree_proper_coloring"),
    (pclab.solver, "is_proper_connected", "coloring.is_proper_connected"),
    (pclab.solver, "has_strong_property", "coloring.has_strong_property"),
    (pclab.solver, "pc_upper_bound", "solver.pc_upper_bound"),
    (pclab.generators, "_min_placement", "graph._min_placement"),
    (pclab.cli, "run_pc_census", "census.run_pc_census"),
    (pclab.cli, "run_ng_census", "census.run_ng_census"),
    (pclab.cli, "run_construction_sweep", "census.run_construction_sweep"),
    (pclab.cli, "emit_report", "census.emit_report"),
)

#: span of building one enumeration level; its ".level.s" excludes lower levels
LEVEL_SPAN = "generators.enumerate_connected.n"


def _noop():
    return None


def canonical_assignments(m: int, k: int) -> int:
    """Leaves of the solver's exhaustive pass: color strings of length m over at
    most k colors in which color j+1 first appears after color j (the sum of the
    Stirling numbers S(m, j) for j <= k)."""
    row = [1] + [0] * k  # S(i, j) for the current i
    for _ in range(m):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return sum(row)


def decided_by(result, g: Graph, upper: int | None) -> str:
    """Which step settled an exact_pc call, from its result, stats and upper bound."""
    if not result.exhausted:
        return "cutoff"
    if upper is None or result.lower_bound == upper:
        return "bounds_meet"
    if result.value == upper:
        return "exhaustive_refuted"
    refuted = sum(canonical_assignments(g.m, k)
                  for k in range(result.lower_bound, result.value))
    return "probe" if result.stats["assignments"] == refuted else "exhaustive_found"


class Hooks:
    def __init__(self, mode: str):
        assert mode in ("plain", "count", "trace"), mode
        self.mode = mode
        self.missing: list[str] = []  # span names of sites the program lacks
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.latencies: list[float] = []  # seconds per exact_pc call
        self.spans: list = []  # (name, start, end, parent index, graph)
        self._stack: list[int] = []
        self._upper: int | None = None
        self._after = {
            "solver.exact_pc": self._after_exact_pc,
            "solver.pc_upper_bound": self._after_upper_bound,
            "coloring.is_proper_connected": self._after_check,
        }

    def install(self) -> None:
        for module, attr, name in SITES:
            if self.mode == "plain" and name != "solver.exact_pc":
                continue
            if not hasattr(module, attr):
                self.missing.append(name)
                continue
            setattr(module, attr, self.wrap(getattr(module, attr), name))
        if self.mode == "plain":
            return
        build = getattr(pclab.generators, "_build_level", None)
        if build is None:
            self.missing.append("generators._build_level")
            return

        def build_level(n):
            level = self.wrap(build, f"{LEVEL_SPAN}{n}")(n)
            self.counters[f"generators.classes.n{n}"] = len(level)
            return level

        pclab.generators._build_level = build_level

    def wrap(self, fn, name: str):
        """``fn`` wrapped as the mode asks; unwrapped in plain mode unless it is exact_pc."""
        if self.mode == "plain" and name != "solver.exact_pc":
            return fn
        calls, clock = self.calls, time.perf_counter
        latencies = self.latencies if name == "solver.exact_pc" else None
        after = None if self.mode == "plain" else self._after.get(name)
        if name.startswith("constructions.color_complement"):
            after = self._after_construction
        if self.mode != "trace":
            def counted(*args, **kwargs):
                calls[name] += 1
                if latencies is None:
                    result = fn(*args, **kwargs)
                else:
                    start = clock()
                    result = fn(*args, **kwargs)
                    latencies.append(clock() - start)
                if after is not None:
                    after(result, args)
                return result
            return counted

        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1] if stack else -1
            if args and isinstance(args[0], Graph):
                graph = args[0]
            else:
                graph = spans[parent][4] if parent >= 0 else None
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent, graph))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, graph)
            if latencies is not None:
                latencies.append(end - start)
            if after is not None:
                after(result, args)
            return result
        return traced

    def _after_upper_bound(self, result, args) -> None:
        self._upper = result.value

    def _after_exact_pc(self, result, args) -> None:
        stats = result.stats or {}
        self.counters["solver.probes"] += stats.get("probes", 0)
        self.counters["solver.assignments"] += stats.get("assignments", 0)
        self.counters["solver.decided_by." + decided_by(result, args[0], self._upper)] += 1
        self._upper = None

    def _after_check(self, result, args) -> None:
        self.counters["coloring.is_proper_connected.accepts"] += result.ok

    def _after_construction(self, result, args) -> None:
        self.counters["constructions.branch." + result.branch] += 1

    def deterministic(self) -> dict:
        """Every count that must repeat exactly, traced or not."""
        out = {f"{name}.calls": count for name, count in self.calls.items()}
        out.update(self.counters)
        return dict(sorted(out.items()))

    def layer_times(self) -> dict:
        """Inclusive and self seconds per span name, seconds per enumeration level
        without the lower levels it builds, and self seconds per layer."""
        child = [0.0] * len(self.spans)
        child_level = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
                if name.startswith(LEVEL_SPAN):
                    child_level[parent] += end - start
        out: Counter[str] = Counter()
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            self_s = end - start - child[index]
            out[f"{name}.self_s"] += self_s
            out[name.split(".", 1)[0] + ".self_s"] += self_s
            if not self._inside_same(index):
                out[f"{name}.s"] += end - start
            if name.startswith(LEVEL_SPAN):
                out[f"{name}.level.s"] += end - start - child_level[index]
        return dict(out)

    def _inside_same(self, index: int) -> bool:
        name, parent = self.spans[index][0], self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write_spans(self, path) -> None:
        """One tab-separated line per span: index, parent, name, start, end, graph6."""
        codes: dict[int, str] = {}
        with open(path, "w", encoding="ascii") as handle:
            handle.write("index\tparent\tname\tstart\tend\tgraph\n")
            for index, (name, start, end, parent, graph) in enumerate(self.spans):
                code = ""
                if graph is not None:
                    code = codes.get(id(graph)) or codes.setdefault(id(graph), graph6_encode(graph))
                handle.write(f"{index}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t{code}\n")


def span_cost(number: int = 20000) -> float:
    """Seconds a traced wrapper adds to one call, timed on a no-op with timeit
    (best of five).  Times the number of spans, it estimates what tracing adds
    to a job's wall over a plain job."""
    wrapped = Hooks("trace").wrap(_noop, "noop")
    bare = min(timeit.repeat(_noop, number=number, repeat=5))
    traced = min(timeit.repeat(wrapped, number=number, repeat=5))
    return max(traced - bare, 0.0) / number
