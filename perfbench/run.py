"""pclab benchmark: each job of a workload runs in a fresh interpreter.

    python3 perfbench/run.py --workload {sweep7,census7,solve9,all} --seed N --seconds S --trace {0,1}

``all`` runs the three workloads one after another and prefixes each metric
with its workload.  The default seed is 1; seed 2027 is held out for
confirming later claims.

Workloads (one client, closed loop, at most one child process at a time):

* ``sweep7``  - every construction sweep at n = 7 in one process; the first
  sweep pays the cold isomorph-free enumeration of the 853 classes.
* ``census7`` - ``pclab census --n 7 --check {histogram,ng,thm38}``, three CLI
  processes one after another, as users run them.
* ``solve9``  - ``exact_pc`` with ``SolverBudget(seed=N)`` on 2,000 connected
  9-vertex graphs handed over as graph6 strings.  The seed samples them from a
  fixed pool of 20,000 (see worker.py) whose pc values are recorded in
  solve9_pc.txt, so every answer is checked against its recorded value.

The loop repeats a workload's iteration until the next one would end after
``--seconds`` (at least one iteration).  Every iteration's answers are checked;
a failed check counts in ``failed`` (``failed_ratio`` = failed / attempted)
and makes the exit code 1.

With ``--trace 0`` the jobs run the program unwrapped, except for a timer
around each ``exact_pc`` call, and the last stdout line carries the
end-to-end metrics.  ``solve_p99_ms`` is the tail of the per-call latencies,
each the median over the iterations of a run (the calls repeat in the same
order every iteration), so host jitter on single calls weighs less.
``solve_p50_ms`` and ``failed_ratio`` are printed above the JSON line but left
out of it: the first moved by up to 0.32 of its median between sets of runs on
a 2-core shared host, more than any bound allows, and the second is 0 whenever
the answers are right.

With ``--trace 1`` one counting job (hooks without spans) runs first, then
traced iterations; the last line carries the per-layer metrics of the traced
ones, and their deterministic counters must equal the counting job's.
``tracing.overhead_s`` is the number of spans times the cost of one traced
wrapper, timed with timeit in the traced job: two passes of a workload drift
apart on a shared host by more than tracing costs, so their difference would
measure the host.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import POOL_SIZE, SOLVE_GRAPHS, SWEEPS, corpus_indices

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
POOL_PC = HERE / "solve9_pc.txt"
DEFAULT_SEED = 1
SETUP_PROBES = 5  # before the loop, and as many after it
CHILD_TIMEOUT_S = 150

SWEEP_EXPECTED = {  # check: (graphs scanned, qualifying) at n = SWEEP_N
    "thm31": (853, 92), "thm33": (853, 28), "thm36": (853, 3),
    "prop37": (112, 19), "thm38": (853, 103),
}
CENSUS_EXPECTED = {
    "histogram": {"1": 1, "2": 810, "3": 35, "4": 5, "5": 1, "6": 1},
    "ng": {"4": 590, "5": 62, "6": 8, "7": 2},
    "thm38": 103,
}

TIMED_NAMES = (
    "generators.enumerate_connected", "graph._min_placement", "graph.are_isomorphic",
    "graph.structure_flags", "graph.diameter", "solver.exact_pc", "solver.pc_upper_bound",
    "solver.exists_k_coloring", "coloring.is_proper_connected",
    "coloring.has_strong_property", "constructions.color_complement_diam_ge4",
    "constructions.color_complement_diam3_trianglefree",
    "constructions.color_complement_diam2_trianglefree",
    "constructions.color_complement_with_trivial_component",
    "constructions.classify_pc_n_minus_2", "constructions.tree_proper_coloring",
    "graph6.graph6_decode", "graph6.graph6_encode",
)
LAYERS = ("graph", "generators", "coloring", "solver", "constructions", "census",
          "graph6", "cli")
BRANCHES = ("diam_ge4", "diam3_all_ones", "diam3_n1_big_rest_one", "diam3_n2_big",
            "diam2_triangle_free", "trivial_component_join", "trivial_component_cliques")
DECIDED_BY = ("bounds_meet", "probe", "exhaustive_found", "exhaustive_refuted")
LEVELS = (6, 7)


class Iteration:
    """One pass of a workload: timings, counters and the verdict of its checks."""

    def __init__(self):
        self.wall = 0.0
        self.graphs = 0
        self.failed = 0
        self.problems: list[str] = []
        self.latencies: dict[str, list[float]] = {}  # job tag -> ms per exact_pc call
        self.counters: dict[str, dict] = {}  # job tag -> deterministic counters
        self.missing: set[str] = set()  # hook sites the program lacks
        self.layers: dict[str, float] = {}
        self.process_wall = 0.0
        self.main_s = 0.0

    def add_job(self, tag: str, result: dict) -> None:
        self.latencies[tag] = result["latencies_ms"]
        self.counters[tag] = result["counters"]
        self.missing.update(result["missing"])
        for name, value in result.get("layers", {}).items():
            self.layers[name] = self.layers.get(name, 0.0) + value

    def fail(self, graphs: int, why: str) -> None:
        self.failed += graphs
        self.problems.append(why)


def run_child(args: list[str]) -> tuple[int, float, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed the child and waited for it
        return -1, time.perf_counter() - start, f"killed after {CHILD_TIMEOUT_S} s"
    return done.returncode, time.perf_counter() - start, done.stderr


def run_job(it: Iteration, workload: str, tag: str, job: str, seed: int, mode: str,
            extra: list[str] = ()) -> dict | None:
    path = OUT / f"{workload}-{tag}.json"
    path.unlink(missing_ok=True)
    code, wall, stderr = run_child([job, str(path), str(seed), mode, *extra])
    it.process_wall += wall
    if code != 0 or not path.exists():
        it.problems.append(f"{tag}: worker exited {code}: {stderr.strip()[-400:]}")
        return None
    result = json.loads(path.read_text())
    result["process_wall"] = wall
    it.add_job(tag, result)
    return result


def sweep7(seed: int, mode: str) -> Iteration:
    it = Iteration()
    it.graphs = sum(total for total, _ in SWEEP_EXPECTED.values())
    result = run_job(it, "sweep7", "sweep", "sweep", seed, mode)
    if result is None:
        it.fail(it.graphs, "sweep job failed")
        return it
    it.wall = result["wall"]
    for check in SWEEPS:
        total, qualifying = SWEEP_EXPECTED[check]
        got = result["sweeps"][check]
        if (got["total"], got["qualifying"]) != (total, qualifying) or not got["passed"]:
            it.fail(total, f"{check}: {got} expected total {total}, qualifying {qualifying}")
        elif got["violations"] or got["discrepancies"]:
            it.fail(got["violations"] + got["discrepancies"], f"{check}: {got}")
    return it


def census7(seed: int, mode: str) -> Iteration:
    it = Iteration()
    for check, expected in CENSUS_EXPECTED.items():
        report_path = OUT / f"census7-{check}-report.json"
        report_path.unlink(missing_ok=True)
        argv = ["census", "--n", "7", "--check", check, "--out", str(report_path),
                "--seed", str(seed)]
        result = run_job(it, "census7", check, "cli", seed, mode, argv)
        it.graphs += 853
        if result is None or result["exit"] != 0 or not report_path.exists():
            it.fail(853, f"{check}: CLI job failed")
            continue
        it.wall += result["process_wall"]
        it.main_s += result["wall"]
        report = json.loads(report_path.read_text())
        if check == "histogram":
            got = report["pc_histogram"]
        elif check == "ng":
            got = {}
            for pair in report["ng_pairs"]:
                got[str(pair["sum"])] = got.get(str(pair["sum"]), 0) + 1
        else:
            got = report["qualifying"]
        if got != expected or report["total_graphs"] != 853:
            it.fail(853, f"{check}: got {got}, expected {expected}")
        elif not report["passed"]:
            it.fail(len(report["violations"]) + len(report["classification_mismatches"])
                    + report["discrepancies"], f"{check}: report did not pass")
    return it


def pool_pc() -> str:
    """The recorded pc of every solve9 pool graph, one digit per graph."""
    digits = "".join(line.strip() for line in POOL_PC.read_text().splitlines()
                     if not line.startswith("#"))
    if len(digits) != POOL_SIZE or not digits.isdigit():
        raise SystemExit(f"{POOL_PC.name}: expected {POOL_SIZE} digits, got {len(digits)}")
    return digits


def pool_mismatches(seed: int, values: list[int], expected: str) -> list[str]:
    """'pool index: got value, recorded pc' for every answer that differs."""
    return [f"{i}: got {v}, recorded {expected[i]}"
            for i, v in zip(corpus_indices(seed, len(values)), values) if str(v) != expected[i]]


def solve9(seed: int, mode: str) -> Iteration:
    it = Iteration()
    from_worker = run_job(it, "solve9", "solve", "solve", seed, mode)
    it.graphs = SOLVE_GRAPHS
    if from_worker is None:
        it.fail(it.graphs, "solve job failed")
        return it
    it.wall = from_worker["wall"]
    it.counters["solve"]["digest"] = from_worker["digest"]
    if from_worker["graphs"] != it.graphs:
        it.fail(it.graphs, f"solved {from_worker['graphs']} graphs, expected {it.graphs}")
        return it
    if from_worker["failed"]:
        it.fail(len(from_worker["failed"]),
                f"certificate checks failed on {from_worker['failed'][:5]}")
    wrong = pool_mismatches(seed, from_worker["values"], pool_pc())
    if wrong:
        it.fail(len(wrong), f"{len(wrong)} pc values differ from {POOL_PC.name}: {wrong[:5]}")
    return it


WORKLOADS = {"sweep7": sweep7, "census7": census7, "solve9": solve9}


def set_up(workload: str, seed: int) -> list[float]:
    """Wall seconds of fresh interpreters that import pclab and build the inputs."""
    walls = []
    for _ in range(SETUP_PROBES):
        code, wall, stderr = run_child([f"setup-{workload}", os.devnull, str(seed), "plain"])
        if code != 0:
            raise SystemExit(f"set-up failed: {stderr.strip()[-400:]}")
        walls.append(wall)
    return walls


def closed_loop(workload: str, seed: int, seconds: float, mode: str) -> list[Iteration]:
    iterations = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        it = WORKLOADS[workload](seed, mode)
        iterations.append(it)
        now = time.perf_counter()
        if it.problems or now - start + (now - began) > seconds:
            return iterations


def tail_ms(samples: list[float]) -> tuple[float, float]:
    """The 99th percentile, or the highest one with ten samples beyond it."""
    ordered = sorted(samples)
    rank = max(min(math.ceil(0.99 * len(ordered)), len(ordered) - 10), 1)
    return ordered[rank - 1], rank / len(ordered)


def per_call_latencies(iterations: list[Iteration]) -> list[float]:
    """Milliseconds per exact_pc call: for each call, the median over the
    iterations, whose calls repeat in the same order (their pooled samples if a
    job's call count differs, which the determinism check reports)."""
    out = []
    for tag in iterations[0].latencies:
        runs = [it.latencies.get(tag, []) for it in iterations]
        if all(len(run) == len(runs[0]) for run in runs):
            out += [statistics.median(call) for call in zip(*runs)]
        else:
            out += [ms for run in runs for ms in run]
    return out


def end_to_end(setups: list[float], iterations: list[Iteration]) -> tuple[dict, dict]:
    """The bounded end-to-end metrics, and the median latency shown beside them."""
    latencies = per_call_latencies(iterations) or [0.0]  # [] if every job failed
    tail, share = tail_ms(latencies)
    print(f"# {len(iterations)} iterations, {len(latencies)} exact_pc calls per iteration; "
          f"solve_p99_ms is the {100 * share:.2f}th percentile", file=sys.stderr)
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(it.wall for it in iterations), "s"),
        "graphs_per_s": (sum(it.graphs for it in iterations)
                         / max(sum(it.wall for it in iterations), 1e-9), "1/s"),
        "solve_p99_ms": (tail, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }, {"solve_p50_ms": (statistics.median(latencies), "ms")}


def per_layer(it: Iteration) -> dict:
    """Per-layer metrics of one traced iteration, summed over its jobs."""
    counters: dict[str, int] = {}
    for job in it.counters.values():
        for name, value in job.items():
            if isinstance(value, int):
                counters[name] = counters.get(name, 0) + value
    classes = {n: max((job.get(f"generators.classes.n{n}", 0) for job in it.counters.values()),
                      default=0)
               for n in (*LEVELS, LEVELS[0] - 1)}
    out = {}
    for name in TIMED_NAMES:
        out[f"{name}.calls"] = (counters.get(f"{name}.calls", 0), "count")
        out[f"{name}.s"] = (it.layers.get(f"{name}.s", 0.0), "s")
    out["solver.exact_pc.self_s"] = (it.layers.get("solver.exact_pc.self_s", 0.0), "s")
    for fn in ("run_pc_census", "run_ng_census", "run_construction_sweep"):
        out[f"census.{fn}.self_s"] = (it.layers.get(f"census.{fn}.self_s", 0.0), "s")
    for n in LEVELS:
        candidates = classes[n - 1] * (2 ** (n - 1) - 1)
        out[f"generators.enumerate_connected.n{n}.s"] = (
            it.layers.get(f"generators.enumerate_connected.n{n}.level.s", 0.0), "s")
        out[f"generators.enumerate_connected.n{n}.classes"] = (classes[n], "count")
        out[f"generators.candidates.n{n}"] = (candidates, "count")
        out[f"generators.useful_ratio.n{n}"] = (
            classes[n] / candidates if candidates else 0.0, "ratio")
    for name in ("solver.probes", "solver.assignments"):
        out[name] = (counters.get(name, 0), "count")
    for tag in DECIDED_BY:
        out[f"solver.decided_by.{tag}"] = (counters.get(f"solver.decided_by.{tag}", 0), "count")
    checks = counters.get("coloring.is_proper_connected.calls", 0)
    accepts = counters.get("coloring.is_proper_connected.accepts", 0)
    out["coloring.is_proper_connected.accept_ratio"] = (
        accepts / checks if checks else 0.0, "ratio")
    for tag in BRANCHES:
        out[f"constructions.branch.{tag}"] = (
            counters.get(f"constructions.branch.{tag}", 0), "count")
    out["cli.main.s"] = (it.main_s, "s")
    out["cli.process_overhead_s"] = (it.process_wall - it.main_s if it.main_s else 0.0, "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (it.layers.get(f"{layer}.self_s", 0.0), "s")
    out["tracing.spans"] = (sum(v for k, v in counters.items() if k.endswith(".calls")), "count")
    out["tracing.overhead_s"] = (it.layers.get("tracing.overhead_s", 0.0), "s")
    return out


def traced_metrics(traced: list[Iteration]) -> dict:
    rows = [per_layer(it) for it in traced]
    return {name: (statistics.median(row[name][0] for row in rows), unit)
            for name, (_, unit) in rows[0].items()}


def determinism_problems(iterations: list[Iteration]) -> list[str]:
    """Every iteration of one seed, traced or not, must do exactly the same work."""
    first = iterations[0].counters
    problems = []
    for it in iterations[1:]:
        for tag, counters in it.counters.items():
            if counters != first.get(tag):
                diff = sorted(k for k in set(counters) | set(first.get(tag, {}))
                              if counters.get(k) != first.get(tag, {}).get(k))
                problems.append(f"{tag}: counters differ between iterations: {diff[:8]}")
    return problems


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Metrics, unbounded figures shown beside them, problems, and attempted
    and failed decisions of one workload."""
    shown = {}
    if trace:
        counted = WORKLOADS[workload](seed, "count")
        iterations = closed_loop(workload, seed, seconds, "trace")
        metrics = traced_metrics(iterations)
        iterations.insert(0, counted)
        for name in sorted(counted.missing):
            print(f"# not hooked, the program has no such site: {name}", file=sys.stderr)
    else:
        # set-up probes before and after the loop, so one slow spell weighs less
        setups = set_up(workload, seed)
        iterations = closed_loop(workload, seed, seconds, "plain")
        setups += set_up(workload, seed)
        metrics, shown = end_to_end(setups, iterations)
    problems = [p for it in iterations for p in it.problems]
    if not any(any(it.latencies.values()) for it in iterations):
        problems.append("no exact_pc call was timed")
    if not problems:
        problems = determinism_problems(iterations)
    attempted = sum(it.graphs for it in iterations)
    failed = sum(it.failed for it in iterations)
    if problems and not failed:
        failed = iterations[-1].graphs
    return metrics, shown, problems, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*sorted(WORKLOADS), "all"], required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pclab" / "__init__.py").is_file():
        print(f"pclab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    if args.workload == "all":
        return run_all(args)
    metrics, shown, problems, attempted, failed = measure(
        args.workload, args.seed, args.seconds, bool(args.trace))
    shown["failed_ratio"] = (failed / attempted, "ratio")
    for problem in problems:
        print(f"FAILED {args.workload}: {problem}", file=sys.stderr)
    for name, (value, unit) in {**metrics, **shown}.items():
        print(f"{args.workload:8s} {name:52s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


def run_all(args) -> int:
    """Each workload in its own run.py process; metric names get the workload prefix."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 1,
                                                      "failed": 1, "metrics": {}}
        summary["correct"] = summary["correct"] and result["correct"] and done.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
