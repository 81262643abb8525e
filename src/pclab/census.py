"""Census sweeps: exact pc over every class, complement-sum checks, construction sweeps.

Every check runs from the least order at which its claim is meaningful up to
the enumerator's ``MAX_ENUMERATION_N`` (``_require_order``, the one size
rule).  Each run solves a class at most once: ``_solved`` is the one caller
of ``exact_pc`` and names each cut-off graph once in the report.  The
complement-sum check reads pc of a complement at its canonical copy, the
enumerated representative.  Reports hold only deterministic fields (work
counters, not wall-clock), so identical runs give byte-identical JSON.
"""
from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Optional

from . import __version__
from .constructions import THEOREMS, classify_pc_n_minus_2, is_double_star_2
from .errors import ConstructionError, PreconditionError, UnsupportedSizeError
from .generators import MAX_ENUMERATION_N, enumerate_connected
from .graph import Graph, canonical_graph, complement, is_connected
from .graph6 import graph6_encode
from .solver import DEFAULT_BUDGET, PcResult, SolverBudget, exact_pc

SWEEP_CHECKS = (*THEOREMS, "thm38")
CENSUS_CHECKS = ("histogram", "ng") + SWEEP_CHECKS


@dataclass
class CensusReport:
    kind: str  # pc_census | ng_census | construction_sweep
    check: str
    n: int
    total_graphs: int
    qualifying: int
    pc_histogram: dict[int, int] = field(default_factory=dict)
    classification_matches: list[str] = field(default_factory=list)
    classification_mismatches: list[str] = field(default_factory=list)
    ng_pairs: list[dict] = field(default_factory=list)
    max_sum: Optional[int] = None
    max_sum_witnesses: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    # always 0: a construction that fails verification is a violation; the
    # key stays because readers of the report, perfbench among them, read it
    discrepancies: int = 0
    complete: bool = True  # False when any per-graph budget was hit
    work: dict = field(default_factory=dict)
    seed: int = DEFAULT_BUDGET.seed
    tool_version: str = __version__

    @property
    def passed(self) -> bool:
        return self.complete and not self.violations and not self.classification_mismatches

    def to_json(self) -> str:
        data = asdict(self)
        data["passed"] = self.passed
        # sort_keys orders str keys as text ("10" before "2"), as reports always have
        data["pc_histogram"] = {str(k): v for k, v in self.pc_histogram.items()}
        return json.dumps(data, sort_keys=True, indent=2) + "\n"

    def mark_cutoff(self, g: Graph) -> None:
        """A per-graph budget ran out on g: the report can no longer pass."""
        self.complete = False
        self.violations.append(f"budget exhausted on {graph6_encode(g)}")


def _require_order(check: str, n: int, least: int) -> None:
    """The one size rule; ``least`` is the least n at which the check's claim is meaningful."""
    if not least <= n <= MAX_ENUMERATION_N:
        raise UnsupportedSizeError(f"{check} needs {least} <= n <= {MAX_ENUMERATION_N}, got {n}")


def _solved(graphs, report: CensusReport,
            budget: SolverBudget | None) -> dict[Graph, PcResult]:
    """exact_pc once per graph; a cut-off graph is marked on the report and left out."""
    table = {}
    for g in graphs:
        result = exact_pc(g, budget=budget)
        if result.exhausted:
            table[g] = result
        else:
            report.mark_cutoff(g)
    return table


def run_pc_census(n: int, budget: SolverBudget | None = None) -> CensusReport:
    """Exact pc for every connected class; cross-checks the pc = n-2 recognizer."""
    _require_order("histogram", n, 3)  # the pc = n-2 recognizer needs n >= 3
    graphs = tuple(enumerate_connected(n))
    report = CensusReport("pc_census", "histogram", n, len(graphs), len(graphs),
                          seed=(budget or DEFAULT_BUDGET).seed)
    solved = _solved(graphs, report, budget)
    for g, result in solved.items():
        report.pc_histogram[result.value] = report.pc_histogram.get(result.value, 0) + 1
        hit = result.value == n - 2
        if hit != classify_pc_n_minus_2(g).matches:
            report.classification_mismatches.append(graph6_encode(g))
        elif hit:
            report.classification_matches.append(graph6_encode(g))
    report.work = {"graphs": report.total_graphs,
                   "assignments": sum(r.stats["assignments"] for r in solved.values())}
    return report


def run_ng_census(n: int, budget: SolverBudget | None = None) -> CensusReport:
    """pc(g) + pc(complement) over classes where both sides are connected."""
    _require_order("ng", n, 4)  # at n = 1, K_1 and its complement sum to 0
    graphs = tuple(enumerate_connected(n))
    both = [g for g in graphs if is_connected(complement(g))]
    report = CensusReport("ng_census", "ng", n, len(graphs), len(both),
                          seed=(budget or DEFAULT_BUDGET).seed)
    solved = _solved(both, report, budget)
    for g, rg in solved.items():
        h = complement(g)
        rh = solved.get(canonical_graph(h))
        if rh is None:  # the complement's class was cut off and names itself
            continue
        total = rg.value + rh.value
        g6 = graph6_encode(g)
        report.ng_pairs.append({"graph6": g6, "pc": rg.value,
                                "pc_complement": rh.value, "sum": total})
        if not 4 <= total <= n:
            report.violations.append(f"{g6}: sum {total} outside 4..{n}")
        involved = any(is_double_star_2(x) for x in (g, h))
        if (total == n) != involved:
            report.violations.append(
                f"{g6}: sum {total} vs double-star involvement {involved}")
    if report.ng_pairs:
        report.max_sum = max(p["sum"] for p in report.ng_pairs)
        report.max_sum_witnesses = [p["graph6"] for p in report.ng_pairs
                                    if p["sum"] == report.max_sum]
    report.work = {"graphs": report.total_graphs, "pairs": report.qualifying}
    return report


def run_construction_sweep(n: int, check: str,
                           budget: SolverBudget | None = None) -> CensusReport:
    """Verify one family of constructions over every qualifying census graph.

    A graph qualifies for a theorem of ``THEOREMS`` when its construction
    accepts it, and for thm38 when it is not complete and its complement is
    triangle-free.
    """
    if check not in SWEEP_CHECKS:
        raise ValueError(f"unknown sweep {check!r}; expected one of {SWEEP_CHECKS}")
    _require_order(check, n, 2)
    if check == "prop37":  # K_1 plus one connected class of order n-1
        graphs = tuple(Graph(n, comp.adj + (0,)) for comp in enumerate_connected(n - 1))
    else:
        graphs = tuple(enumerate_connected(n))
    report = CensusReport("construction_sweep", check, n, len(graphs), 0,
                          seed=(budget or DEFAULT_BUDGET).seed)
    if check == "thm38":  # triangle-free complement forces pc(g) = 2
        chosen = [g for g in graphs if not g.complete and complement(g).triangle_free]
        report.qualifying = len(chosen)
        for g, result in _solved(chosen, report, budget).items():
            if result.value != 2:
                report.violations.append(f"{graph6_encode(g)}: pc {result.value} != 2")
    else:
        for g in graphs:
            try:
                k = THEOREMS[check](g).coloring.k
                problem = f"used {k} colors" if k > 2 else None
            except PreconditionError:  # outside the theorem's hypothesis
                continue
            except ConstructionError as exc:
                problem = str(exc)
            report.qualifying += 1
            if problem:
                report.violations.append(f"{graph6_encode(g)}: {problem}")
    report.work = {"graphs": report.total_graphs}
    return report


def emit_report(report: CensusReport, path: str | os.PathLike) -> None:
    """Write canonical JSON; identical runs produce byte-identical files."""
    if report.total_graphs == 0:
        raise ValueError("refusing to write a report that scanned no graphs")
    try:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(report.to_json())
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
