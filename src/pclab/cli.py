"""Command line for batch use: info, pc, verify, color-complement, gen, census.

Exit codes: 0 success/true, 1 property false or no construction, 2 input
error, 3 precondition unmet, 4 budget exceeded.  Machine output goes to
stdout (key=value lines, or JSON with --json); diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .census import CENSUS_CHECKS, emit_report, run_construction_sweep, run_ng_census, run_pc_census
from .coloring import format_coloring, has_strong_property, is_proper_connected, parse_coloring
from .constructions import (
    auto_pc2_complement,
    color_complement_diam2_trianglefree,
    color_complement_diam3_trianglefree,
    color_complement_diam_ge4,
    color_complement_with_trivial_component,
)
from .errors import (
    BudgetExceededError,
    ColoringFormatError,
    ConstructionError,
    GraphFormatError,
    PreconditionError,
    UnsupportedSizeError,
)
from .generators import FAMILY_TAGS, FamilySpec, generate
from .graph import bridge_profile, complement, diameter, structure_flags
from .graph6 import GRAPH6_MAX_N, graph6_decode, graph6_encode
from .solver import DEFAULT_BUDGET, SolverBudget, exact_pc

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4

METHODS = {
    "auto": None,
    "thm31": color_complement_diam_ge4,
    "thm33": color_complement_diam3_trianglefree,
    "thm36": color_complement_diam2_trianglefree,
    "prop37": color_complement_with_trivial_component,
}


def _budget_from(args) -> SolverBudget:
    text, source = getattr(args, "budget", None), "--budget"
    if text is None:
        text, source = os.environ.get("PCLAB_BUDGET_SECS") or None, "PCLAB_BUDGET_SECS"
    try:
        seconds = DEFAULT_BUDGET.max_seconds if text is None else float(text)
    except ValueError:
        seconds = math.nan
    if not seconds > 0:  # also true for nan
        raise ValueError(f"{source} must be a number of seconds > 0, got {text!r}")
    seed = getattr(args, "seed", None)
    return SolverBudget(max_seconds=seconds,
                        seed=seed if seed is not None else DEFAULT_BUDGET.seed)


def _emit(pairs, as_json: bool) -> None:
    if as_json:
        print(json.dumps(dict(pairs), sort_keys=True))
    else:
        for key, value in pairs:
            if isinstance(value, bool):
                value = "true" if value else "false"
            print(f"{key}={value}")


def _cmd_info(args) -> int:
    g = graph6_decode(args.graph6)
    flags = structure_flags(g)
    pairs = [("n", g.n), ("m", g.m), ("connected", flags.connected),
             ("complete", flags.complete), ("bipartite", flags.bipartite),
             ("triangle_free", flags.triangle_free),
             ("two_connected", flags.two_connected)]
    if flags.connected:
        profile = bridge_profile(g)
        pairs += [("diameter", diameter(g)),
                  ("bridges", ";".join(f"{u}-{v}" for u, v in profile.bridges)),
                  ("b", profile.b)]
    else:
        pairs += [("diameter", "none"), ("bridges", ""), ("b", "")]
    _emit(pairs, args.json)
    return EXIT_OK


def _cmd_pc(args) -> int:
    g = graph6_decode(args.graph6)
    result = exact_pc(g, budget=_budget_from(args))
    pairs = [("value", result.value), ("exhausted", result.exhausted),
             ("lower_bound", result.lower_bound),
             ("lower_bound_tag", result.lower_bound_tag)]
    if args.json:
        payload = dict(pairs)
        payload["stats"] = result.stats
        if result.certificate is not None:
            payload["certificate"] = {f"{u},{v}": c for (u, v), c
                                      in sorted(result.certificate.assignment.items())}
            payload["colors"] = result.certificate.k
        print(json.dumps(payload, sort_keys=True))
    else:
        _emit(pairs, False)
        if result.certificate is not None and g.m:
            sys.stdout.write(format_coloring(result.certificate, g))
    if args.cert and result.certificate is not None:
        with open(args.cert, "w", encoding="ascii") as handle:
            handle.write(format_coloring(result.certificate, g))
    return EXIT_OK if result.exhausted else EXIT_BUDGET


def _cmd_verify(args) -> int:
    g = graph6_decode(args.graph6)
    with open(args.coloring, "r", encoding="ascii") as handle:
        coloring = parse_coloring(handle.read(), g)
    check = is_proper_connected(g, coloring)
    ok = check.ok
    witness = check.witness
    if ok and args.strong:
        ok = has_strong_property(g, coloring)
        witness = None
    pairs = [("ok", ok)]
    if witness is not None:
        pairs.append(("witness", f"{witness[0]},{witness[1]}"))
    _emit(pairs, args.json)
    return EXIT_OK if ok else EXIT_FALSE


def _cmd_color_complement(args) -> int:
    g = graph6_decode(args.graph6)
    h = complement(g)
    if args.method == "auto":
        result = auto_pc2_complement(g)
        if result.outcome != "colored":
            pairs = [("outcome", result.outcome), ("reason", result.reason or "")]
            if result.analysis is not None:
                ana = result.analysis
                pairs += [("case", ana.case), ("n1", ana.n1), ("n2", ana.n2),
                          ("n3", ana.n3), ("n1_prime", ana.n1_prime),
                          ("n2_prime", ana.n2_prime),
                          ("lower_bound",
                           ana.lower_bound if ana.lower_bound is not None else "")]
            _emit(pairs, args.json)
            return EXIT_FALSE
        built = result.construction
    else:
        built = METHODS[args.method](g)
    _emit([("outcome", "colored"), ("branch", built.branch),
           ("colors", built.coloring.k)], args.json)
    if not args.json:
        sys.stdout.write(format_coloring(built.coloring, h))
    return EXIT_OK


def _cmd_gen(args) -> int:
    params = tuple(int(p) for p in args.params.split(",")) if args.params else ()
    if sum(params) > GRAPH6_MAX_N:  # the order of every family that takes parameters
        raise UnsupportedSizeError(f"graph6 supports n <= {GRAPH6_MAX_N}, got {sum(params)}")
    g = generate(FamilySpec(args.family, params))
    print(graph6_encode(g))
    return EXIT_OK


def _cmd_census(args) -> int:
    budget = _budget_from(args)
    if args.check in ("histogram", "thm41"):
        report = run_pc_census(args.n, budget=budget)
    elif args.check == "ng":
        report = run_ng_census(args.n, budget=budget)
    else:
        report = run_construction_sweep(args.n, args.check, budget=budget)
    if args.out:
        emit_report(report, args.out)
    _emit([("check", args.check), ("n", args.n),
           ("total_graphs", report.total_graphs), ("qualifying", report.qualifying),
           ("violations", len(report.violations)),
           ("mismatches", len(report.classification_mismatches)),
           ("complete", report.complete), ("passed", report.passed)], args.json)
    for line in report.violations[:10] + report.classification_mismatches[:10]:
        print(f"  {line}", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pclab",
        description="Exact proper connection numbers of small graphs, with certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="structural summary of a graph6 graph")
    p.add_argument("graph6")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("pc", help="exact proper connection number with certificate")
    p.add_argument("graph6")
    p.add_argument("--budget", type=float, default=None, metavar="SECS")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cert", default=None, metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_pc)

    p = sub.add_parser("verify", help="check a coloring certificate")
    p.add_argument("graph6")
    p.add_argument("--coloring", required=True, metavar="FILE")
    p.add_argument("--strong", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("color-complement", help="run a complement coloring construction")
    p.add_argument("graph6")
    p.add_argument("--method", choices=sorted(METHODS), default="auto")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_color_complement)

    p = sub.add_parser("gen", help="emit a named family instance as graph6")
    p.add_argument("--family", choices=FAMILY_TAGS, required=True)
    p.add_argument("--params", default="", metavar="A,B,...")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("census", help="run a census or construction sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--check", choices=CENSUS_CHECKS, required=True)
    p.add_argument("--out", default=None, metavar="FILE")
    p.add_argument("--budget", type=float, default=None, metavar="SECS")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_census)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BudgetExceededError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ConstructionError as exc:
        print(f"construction: {exc}", file=sys.stderr)
        return EXIT_FALSE
    except (GraphFormatError, ColoringFormatError, UnsupportedSizeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
