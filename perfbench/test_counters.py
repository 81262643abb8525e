"""Tests of the benchmark itself: tracing must not change the work, and the
correctness gates must catch wrong answers.

    python3 -m pytest perfbench/test_counters.py

Each workload runs twice with counting hooks and once traced (about two minutes
in all on a 2-core machine); the deterministic counters of the three must be
identical.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from hooks import SITES, Hooks, canonical_assignments  # noqa: E402
from worker import POOL_SIZE, SOLVE_GRAPHS, SOLVE_N, corpus_indices, solve_corpus  # noqa: E402


@pytest.fixture(scope="module", autouse=True)
def out_dir():
    run.OUT.mkdir(exist_ok=True)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_and_untraced_runs_do_identical_work(workload):
    iterations = [run.WORKLOADS[workload](7, mode) for mode in ("count", "count", "trace")]
    for it in iterations:
        assert not it.problems and it.failed == 0, it.problems
    assert run.determinism_problems(iterations) == []
    counters = iterations[0].counters
    exact_calls = sum(job.get("solver.exact_pc.calls", 0) for job in counters.values())
    decided = sum(value for job in counters.values() for name, value in job.items()
                  if name.startswith("solver.decided_by."))
    assert exact_calls > 0 and decided == exact_calls


def test_determinism_check_sees_changed_work():
    it = run.sweep7(1, "count")
    changed = run.Iteration()
    changed.counters = {"sweep": dict(it.counters["sweep"], **{"graph.diameter.calls": 0})}
    assert run.determinism_problems([it, changed])


def test_solve9_gate_fails_on_one_changed_value(monkeypatch):
    recorded = run.pool_pc()
    seed = 11
    values = [int(recorded[i]) for i in corpus_indices(seed)]
    fake = {"wall": 1.0, "graphs": SOLVE_GRAPHS, "failed": [], "digest": "",
            "values": values, "latencies_ms": [1.0] * SOLVE_GRAPHS, "counters": {},
            "missing": []}

    def run_job(it, *args, **kwargs):
        it.add_job("solve", dict(fake))
        return dict(fake)

    monkeypatch.setattr(run, "run_job", run_job)
    assert run.solve9(seed, "plain").failed == 0
    values[7] += 1
    it = run.solve9(seed, "plain")
    assert it.failed == 1 and "differ" in it.problems[0]


def test_recorded_pool_matches_the_solver():
    from pclab.graph6 import graph6_decode
    from pclab.solver import SolverBudget, exact_pc

    recorded = run.pool_pc()
    assert len(recorded) == POOL_SIZE
    codes = solve_corpus(5, 40)
    values = [exact_pc(graph6_decode(code), budget=SolverBudget(seed=5)).value
              for code in codes]
    assert run.pool_mismatches(5, values, recorded) == []
    values[0] += 1
    assert len(run.pool_mismatches(5, values, recorded)) == 1


def test_missing_sites_are_skipped(monkeypatch):
    import pclab.generators

    for module, attr, _ in SITES:  # restored when the test ends
        monkeypatch.setattr(module, attr, getattr(module, attr))
    monkeypatch.setattr(pclab.generators, "_build_level", pclab.generators._build_level)
    monkeypatch.delattr(pclab.generators, "_min_placement")
    monkeypatch.delattr(pclab.generators, "_build_level")
    hooks = Hooks("count")
    hooks.install()
    assert hooks.missing == ["graph._min_placement", "generators._build_level"]


def test_canonical_assignments():
    assert canonical_assignments(5, 1) == 1
    assert all(canonical_assignments(m, 2) == 2 ** (m - 1) for m in range(1, 12))
    assert canonical_assignments(4, 3) == 1 + 7 + 6


def test_corpus_depends_only_on_seed():
    from pclab.graph import is_connected
    from pclab.graph6 import graph6_decode

    first = solve_corpus(3, 200)
    assert first == solve_corpus(3, 200)
    assert first != solve_corpus(4, 200)
    graphs = [graph6_decode(code) for code in first]
    assert all(g.n == SOLVE_N and is_connected(g) for g in graphs)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep7", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60, env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
