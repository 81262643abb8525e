"""One job of a benchmark workload, run in a fresh interpreter by run.py.

    python3 perfbench/worker.py JOB RESULT_FILE SEED MODE [ARGS...]

JOB is ``setup-<workload>`` (set-up only), ``sweep``, ``solve`` or ``cli`` (ARGS
are handed to ``pclab.cli.main``).  MODE is ``plain``, ``count`` or ``trace``
(see hooks.py).  The job writes one JSON object to RESULT_FILE: the timed wall
seconds, the latency of every exact_pc call, the counters, the facts the
correctness gates need and, in trace mode, per-layer times; spans go to a file
beside RESULT_FILE.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
import time

SWEEPS = ("thm31", "thm33", "thm36", "prop37", "thm38")
SWEEP_N = 7
SOLVE_N = 9
SOLVE_GRAPHS = 2000
SOLVE_DENSITIES = (0.05, 0.15)
#: the solve9 pool: graph i is built from its own generator and has density
#: SOLVE_DENSITIES[i % 2]; every seed samples its corpus from it
POOL_SIZE = 20000


def random_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniform random labeled tree, decoded from a random Pruefer sequence."""
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in sequence:
        degree[v] += 1
    edges = []
    for v in sequence:
        leaf = degree.index(1)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (x for x in range(n) if degree[x] == 1)
    edges.append((u, w))
    return edges


def graph6(n: int, edges: set[tuple[int, int]]) -> str:
    """graph6 string of a graph with n <= 62 vertices and edges (u, v), u < v."""
    bits = "".join("1" if (u, v) in edges else "0" for v in range(1, n) for u in range(v))
    bits += "0" * (-len(bits) % 6)
    return chr(63 + n) + "".join(chr(63 + int(bits[i:i + 6], 2))
                                 for i in range(0, len(bits), 6))


def pool_graph(index: int) -> str:
    """graph6 of solve9 pool graph ``index``: a connected 9-vertex graph made of
    a random spanning tree plus each other pair with probability 0.05 or 0.15."""
    rng = random.Random(f"solve9-pool-{index}")
    p = SOLVE_DENSITIES[index % len(SOLVE_DENSITIES)]
    edges = set(random_tree(rng, SOLVE_N))
    for u in range(SOLVE_N):
        for v in range(u + 1, SOLVE_N):
            if (u, v) not in edges and rng.random() < p:
                edges.add((u, v))
    return graph6(SOLVE_N, edges)


def corpus_indices(seed: int, count: int = SOLVE_GRAPHS) -> list[int]:
    """Pool indices of the corpus of ``seed``: count / 2 graphs of each density,
    drawn without replacement, alternating."""
    rng = random.Random(seed)
    half = count // 2
    sparse = rng.sample(range(0, POOL_SIZE, 2), half)
    dense = rng.sample(range(1, POOL_SIZE, 2), half)
    return [i for pair in zip(sparse, dense) for i in pair]


def solve_corpus(seed: int, count: int = SOLVE_GRAPHS) -> list[str]:
    """graph6 strings of the solve9 corpus of ``seed``."""
    return [pool_graph(i) for i in corpus_indices(seed, count)]


def _sweep(hooks, seed: int) -> dict:
    from pclab.census import run_construction_sweep
    from pclab.solver import SolverBudget

    sweep = hooks.wrap(run_construction_sweep, "census.run_construction_sweep")
    budget = SolverBudget(seed=seed)
    start = time.perf_counter()
    reports = [sweep(SWEEP_N, check, budget=budget) for check in SWEEPS]
    wall = time.perf_counter() - start
    return {"wall": wall, "sweeps": {
        r.check: {"total": r.total_graphs, "qualifying": r.qualifying, "passed": r.passed,
                  "discrepancies": r.discrepancies, "violations": len(r.violations)}
        for r in reports}}


def _cli(hooks, argv: list[str]) -> dict:
    import pclab.cli

    main = hooks.wrap(pclab.cli.main, "cli.main")
    start = time.perf_counter()
    code = main(argv)
    return {"wall": time.perf_counter() - start, "exit": code}


def _solve(hooks, seed: int) -> dict:
    from pclab.coloring import is_proper_connected
    from pclab.graph6 import graph6_decode
    from pclab.solver import SolverBudget, exact_pc

    codes = solve_corpus(seed)
    decode = hooks.wrap(graph6_decode, "graph6.graph6_decode")
    graphs = [decode(code) for code in codes]
    solve = hooks.wrap(exact_pc, "solver.exact_pc")
    budget = SolverBudget(seed=seed)
    start = time.perf_counter()
    results = [solve(g, budget=budget) for g in graphs]
    wall = time.perf_counter() - start

    # outside checks, untimed, with the unwrapped checker; run.py compares the
    # values with the recorded pc of every pool graph
    failed = []
    digest = hashlib.sha256()
    for code, g, r in zip(codes, graphs, results):
        digest.update(f"{code} {r.value}\n".encode())
        cert = r.certificate
        ok = (r.exhausted and r.lower_bound <= r.value and cert is not None
              and set(cert.assignment) == set(g.edges)
              and len(set(cert.assignment.values())) == r.value
              and is_proper_connected(g, cert).ok)
        if not ok:
            failed.append(code)
    return {"wall": wall, "graphs": len(graphs), "failed": failed,
            "digest": digest.hexdigest(), "values": [r.value for r in results]}


def main(argv: list[str]) -> int:
    job, result_path, seed, mode = argv[0], argv[1], int(argv[2]), argv[3]
    if job.startswith("setup-"):
        import pclab.cli  # noqa: F401  (what every job imports)
        if job == "setup-solve9":
            from pclab.graph6 import graph6_decode
            [graph6_decode(code) for code in solve_corpus(seed)]
        return 0

    from hooks import Hooks, span_cost

    hooks = Hooks(mode)
    hooks.install()
    if job == "sweep":
        out = _sweep(hooks, seed)
    elif job == "cli":
        out = _cli(hooks, argv[4:])
    elif job == "solve":
        out = _solve(hooks, seed)
    else:
        raise SystemExit(f"unknown job {job!r}")
    out["latencies_ms"] = [s * 1e3 for s in hooks.latencies]
    out["counters"] = hooks.deterministic()
    out["missing"] = hooks.missing
    if mode == "trace":
        out["layers"] = hooks.layer_times()
        out["layers"]["tracing.overhead_s"] = span_cost() * len(hooks.spans)
        hooks.write_spans(result_path.removesuffix(".json") + ".spans.tsv")
    with open(result_path, "w", encoding="ascii") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
