"""Census sweeps: exact pc over every class, complement-sum checks, construction sweeps.

Reports contain only deterministic fields (work counters, not wall-clock), so
two runs with the same configuration produce byte-identical JSON.
"""
from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Optional

from . import __version__
from .constructions import (
    classify_pc_n_minus_2,
    color_complement_diam2_trianglefree,
    color_complement_diam3_trianglefree,
    color_complement_diam_ge4,
    color_complement_with_trivial_component,
)
from .errors import BudgetExceededError, ConstructionError, UnsupportedSizeError
from .generators import double_star, enumerate_connected
from .graph import Graph, are_isomorphic, complement, diameter, is_connected
from .graph6 import graph6_encode
from .solver import DEFAULT_BUDGET, SolverBudget, exact_pc

SWEEP_CHECKS = ("thm31", "thm33", "thm36", "prop37", "thm38")
CENSUS_CHECKS = ("histogram", "thm41", "ng") + SWEEP_CHECKS


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


def run_pc_census(n: int, budget: SolverBudget | None = None) -> CensusReport:
    """Exact pc for every connected class; cross-checks the pc = n-2 recognizer."""
    if not 3 <= n <= 7:
        raise UnsupportedSizeError(f"pc census supports 3 <= n <= 7, got {n}")
    report = CensusReport("pc_census", "histogram", n, 0, 0,
                          seed=(budget or DEFAULT_BUDGET).seed)
    assignments = 0
    for g in enumerate_connected(n):
        report.total_graphs += 1
        report.qualifying += 1
        result = exact_pc(g, budget=budget)
        if not result.exhausted:
            report.mark_cutoff(g)
            continue
        report.pc_histogram[result.value] = report.pc_histogram.get(result.value, 0) + 1
        assignments += result.stats["assignments"] if result.stats else 0
        verdict = classify_pc_n_minus_2(g)
        hit = result.value == n - 2
        if hit != verdict.matches:
            report.classification_mismatches.append(graph6_encode(g))
        elif hit:
            report.classification_matches.append(graph6_encode(g))
    report.work = {"graphs": report.total_graphs, "assignments": assignments}
    return report


def run_ng_census(n: int, budget: SolverBudget | None = None) -> CensusReport:
    """pc(g) + pc(complement) over classes where both sides are connected."""
    if not 4 <= n <= 7:
        raise UnsupportedSizeError(f"complement-sum census supports 4 <= n <= 7, got {n}")
    report = CensusReport("ng_census", "ng", n, 0, 0,
                          seed=(budget or DEFAULT_BUDGET).seed)
    reference = double_star(2, n - 2)
    for g in enumerate_connected(n):
        report.total_graphs += 1
        h = complement(g)
        if not is_connected(h):
            continue
        report.qualifying += 1
        rg = exact_pc(g, budget=budget)
        rh = exact_pc(h, budget=budget)
        if not (rg.exhausted and rh.exhausted):
            report.mark_cutoff(g)
            continue
        total = rg.value + rh.value
        g6 = graph6_encode(g)
        report.ng_pairs.append({"graph6": g6, "pc": rg.value,
                                "pc_complement": rh.value, "sum": total})
        involved = are_isomorphic(g, reference) or are_isomorphic(h, reference)
        if n == 4:
            if total != 4:
                report.violations.append(f"{g6}: sum {total} != 4 at n=4")
            continue
        if not 4 <= total <= n:
            report.violations.append(f"{g6}: sum {total} outside 4..{n}")
        if (total == n) != involved:
            report.violations.append(
                f"{g6}: sum {total} vs double-star involvement {involved}")
        if n == 5 and total not in (4, 5):
            report.violations.append(f"{g6}: sum {total} outside the n=5 dichotomy")
    if report.ng_pairs:
        report.max_sum = max(p["sum"] for p in report.ng_pairs)
        report.max_sum_witnesses = [p["graph6"] for p in report.ng_pairs
                                    if p["sum"] == report.max_sum]
    report.work = {"graphs": report.total_graphs, "pairs": report.qualifying}
    return report


def run_construction_sweep(n: int, check: str,
                           budget: SolverBudget | None = None) -> CensusReport:
    """Verify one family of constructions over every qualifying census graph."""
    if check not in SWEEP_CHECKS:
        raise ValueError(f"unknown sweep {check!r}; expected one of {SWEEP_CHECKS}")
    if check == "thm38":
        if not 2 <= n <= 7:
            raise UnsupportedSizeError(f"the exact pc sweep needs 2 <= n <= 7, got {n}")
    elif not 2 <= n <= 8:
        raise UnsupportedSizeError(f"construction sweeps support 2 <= n <= 8, got {n}")
    report = CensusReport("construction_sweep", check, n, 0, 0,
                          seed=(budget or DEFAULT_BUDGET).seed)
    if check == "prop37":  # K_1 plus one connected class of order n-1
        graphs = (Graph(n, comp.adj + (0,)) for comp in enumerate_connected(n - 1))
    else:
        graphs = enumerate_connected(n)
    for g in graphs:
        report.total_graphs += 1
        try:
            if check == "thm31":
                if diameter(g) < 4:
                    continue
                report.qualifying += 1
                built = color_complement_diam_ge4(g)
            elif check == "thm33":
                if not g.triangle_free or diameter(g) != 3:
                    continue
                report.qualifying += 1
                built = color_complement_diam3_trianglefree(g)
            elif check == "thm36":
                if (not g.triangle_free or g.complete or diameter(g) != 2
                        or not is_connected(complement(g))):
                    continue
                report.qualifying += 1
                built = color_complement_diam2_trianglefree(g)
            elif check == "prop37":
                if not g.triangle_free:
                    continue
                report.qualifying += 1
                built = color_complement_with_trivial_component(g)
            else:  # thm38: triangle-free complement forces pc(g) = 2
                if g.complete or not complement(g).triangle_free:
                    continue
                report.qualifying += 1
                result = exact_pc(g, budget=budget)
                if not result.exhausted:
                    report.mark_cutoff(g)
                elif result.value != 2:
                    report.violations.append(f"{graph6_encode(g)}: pc {result.value} != 2")
                continue
        except BudgetExceededError:
            report.mark_cutoff(g)
            continue
        except ConstructionError as exc:
            report.violations.append(f"{graph6_encode(g)}: {exc}")
            continue
        if built.coloring.k > 2:
            report.violations.append(f"{graph6_encode(g)}: used {built.coloring.k} colors")
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
