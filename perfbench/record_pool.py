"""Record the pc of every solve9 pool graph into solve9_pc.txt.

    PYTHONPATH=src python3 perfbench/record_pool.py [--jobs N]

Each value is exact_pc's answer, exhausted and with a certificate re-checked
by the checker; run.py compares every solve9 answer with it.  Solving the
20,000 graphs takes about five CPU minutes.
"""
import argparse
import multiprocessing
from pathlib import Path

from worker import POOL_SIZE, pool_graph

OUT = Path(__file__).resolve().parent / "solve9_pc.txt"
PER_LINE = 100


def solve(index: int) -> int:
    from pclab.coloring import is_proper_connected
    from pclab.graph6 import graph6_decode
    from pclab.solver import SolverBudget, exact_pc

    g = graph6_decode(pool_graph(index))
    r = exact_pc(g, budget=SolverBudget(seed=0))
    if not (r.exhausted and r.lower_bound <= r.value <= 9
            and is_proper_connected(g, r.certificate).ok):
        raise SystemExit(f"pool graph {index}: unverified answer {r.value}")
    return r.value


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    with multiprocessing.Pool(args.jobs) as pool:
        values = pool.map(solve, range(POOL_SIZE), chunksize=200)
    digits = "".join(map(str, values))
    with open(OUT, "w", encoding="ascii") as handle:
        handle.write("# pc of solve9 pool graph i (worker.pool_graph) is digit i of the lines\n"
                     "# below, read in order; written by record_pool.py\n")
        for start in range(0, POOL_SIZE, PER_LINE):
            handle.write(digits[start:start + PER_LINE] + "\n")


if __name__ == "__main__":
    main()
