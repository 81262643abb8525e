"""Exact proper connection numbers with verified certificates.

The upper bound is pc(G) <= pc(T) = max degree of T for a spanning tree T
(Borozan et al., Discrete Math. 312, 2012).  T is a Hamiltonian path where one
exists, found for n <= 12 by a depth-first search that first rejects graphs
with more than two vertices of degree 1; otherwise the BFS tree of least
maximum degree.  ``check_tree_witness`` checks its certificate as a tree.
Each k below it is decided by one pass over the canonical color assignments
(color j+1 first appears after color j; bridges at a shared vertex differ),
each edge trying its colors in a seeded random order.  Each leaf is checked on
the color matrix the pass keeps up to date, and the public checker verifies
every certificate the search returns.  A refutation visits every canonical
assignment; a budget cutoff is reported as "unknown", never silently coerced
into an answer.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional

from .coloring import (EdgeColoring, _unjoined_pair, _View, check_tree_witness,
                       has_strong_property, is_proper_connected)
from .errors import BudgetExceededError, PreconditionError
from .graph import Graph, _bits, _layers, bridge_profile, is_connected


@dataclass(frozen=True)
class SolverBudget:
    """Search limits (max_seconds=None: no time limit); seed orders the colors tried."""
    max_assignments: int = 5_000_000
    max_seconds: Optional[float] = 60.0
    seed: int = 271828


DEFAULT_BUDGET = SolverBudget()


@dataclass
class SolverStats:
    assignments: int = 0
    elapsed_seconds: float = 0.0

    def to_json(self) -> dict:
        return {
            "assignments": self.assignments,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


@dataclass(frozen=True)
class LowerBound:
    value: int
    tag: str  # complete | noncomplete | bridges


@dataclass(frozen=True)
class UpperBound:
    value: int
    tag: str  # traceable | spanning_tree_delta | star_exact
    certificate: EdgeColoring
    tree: Graph  # the spanning tree of g the certificate colors properly


@dataclass(frozen=True)
class PcResult:
    value: int
    certificate: Optional[EdgeColoring]
    exhausted: bool  # True: every smaller color count is refuted (bound or enumeration)
    lower_bound: int
    lower_bound_tag: str
    stats: Optional[dict] = None


def pc_lower_bound(g: Graph) -> LowerBound:
    if g.n < 2:
        raise PreconditionError("lower bound is defined for n >= 2")
    if not is_connected(g):
        raise PreconditionError("lower bound requires a connected graph")
    if g.complete:
        return LowerBound(1, "complete")
    b = bridge_profile(g).b
    return LowerBound(max(2, b), "bridges" if b >= 3 else "noncomplete")


def _bfs_tree(g: Graph, root: int) -> Graph:
    """The BFS tree from root: each vertex hangs from its least neighbor in the layer before."""
    edges, above = [], 0
    for layer in _layers(g.adj, 0, 1 << root):
        for v in _bits(layer):
            up = g.adj[v] & above  # empty only at the root
            if up:
                edges.append((v, (up & -up).bit_length() - 1))
        above = layer
    return Graph.from_edges(g.n, edges)


def _tree_coloring(tree: Graph, root: int) -> dict[tuple[int, int], int]:
    """Root-down greedy coloring of a tree.

    Each vertex's child edges take the least colors that avoid its parent edge
    color, so adjacent edges differ, every tree path is proper, and exactly
    max-degree colors are used.
    """
    assignment: dict[tuple[int, int], int] = {}
    stack = [(root, -1, 0)]  # vertex, parent, color of parent edge
    while stack:
        v, parent, pcolor = stack.pop()
        c = 0
        for w in tree.neighbors(v):
            if w == parent:
                continue
            c += 1
            if c == pcolor:
                c += 1
            assignment[(v, w) if v < w else (w, v)] = c
            stack.append((w, v, c))
    return assignment


#: largest order given the Hamiltonian-path bound: the search behind it may
#: still visit every (vertex set, end) state, n * 2^n of them, on a graph
#: without such a path
_TRACEABLE_MAX_N = 12


def hamiltonian_path(g: Graph) -> Optional[tuple[int, ...]]:
    """The lexicographically least path through every vertex, or None.

    A path has at most two ends, so more than two vertices of degree 1 rule it
    out at once, and a degree-1 vertex can only be the last one entered.
    Otherwise an iterative depth-first search extends paths from each start
    in vertex order, least neighbor first, and stops at the first full path.
    A (vertex set, end) state that failed once is never entered again.
    """
    n, adj = g.n, g.adj
    if n == 1:
        return (0,)
    leaves = [v for v in range(n) if adj[v] & (adj[v] - 1) == 0]  # degree <= 1
    if len(leaves) > 2 or any(adj[v] == 0 for v in leaves):
        return None
    full = (1 << n) - 1
    leaf_mask = sum(1 << v for v in leaves)
    dead: set[tuple[int, int]] = set()  # (visited, end): no way to cover the rest
    # with two leaves, every such path runs from one to the other
    for start in leaves[:1] if len(leaves) == 2 else range(n):
        path = [start]
        visited = 1 << start
        stack = [adj[start] & ~visited]  # stack[i]: neighbors path[i] has yet to try
        while stack:
            if visited == full:
                return tuple(path)
            options = stack[-1]
            if options:
                bit = options & -options
                stack[-1] = options ^ bit
                w = bit.bit_length() - 1
                if (bit & leaf_mask and visited | bit != full) or (visited | bit, w) in dead:
                    continue
                path.append(w)
                visited |= bit
                stack.append(adj[w] & ~visited)
            else:
                dead.add((visited, path[-1]))
                stack.pop()
                visited ^= 1 << path.pop()
    return None


def _is_star(g: Graph) -> bool:
    return g.m == g.n - 1 and g.max_degree == g.n - 1 and g.n >= 3


def pc_upper_bound(g: Graph) -> UpperBound:
    """pc(g) <= pc(T) = max degree of T for a spanning tree T, with its certificate.

    T is a Hamiltonian path where the search for one runs and finds it, else
    the BFS tree of least maximum degree (least root on ties).  T is colored
    root-down and every other edge gets color 1, which cannot break a proper
    tree path.
    """
    if g.n < 2:
        raise PreconditionError("upper bound is defined for n >= 2")
    if not is_connected(g):
        raise PreconditionError("upper bound requires a connected graph")
    path = hamiltonian_path(g) if 3 <= g.n <= _TRACEABLE_MAX_N else None
    if path is not None:
        tree = Graph.from_edges(g.n, zip(path, path[1:]))
        root, tag = path[0], "traceable"
    else:
        trees = (_bfs_tree(g, root) for root in range(g.n))
        tree, root = min(trees, key=lambda t: t.max_degree), 0
        tag = "star_exact" if _is_star(g) else "spanning_tree_delta"
    assignment = dict.fromkeys(g.edges, 1)
    assignment.update(_tree_coloring(tree, root))
    cert = EdgeColoring(tree.max_degree, assignment)
    if not check_tree_witness(g, cert, tree):  # pragma: no cover - proper by construction
        raise AssertionError("upper bound certificate failed its tree check")
    return UpperBound(cert.k, tag, cert, tree)


class _Clock:
    __slots__ = ("deadline",)

    def __init__(self, max_seconds: Optional[float]):
        self.deadline = None if max_seconds is None else time.monotonic() + max_seconds

    def check(self, stage: str, stats: SolverStats) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceededError(
                f"time budget exceeded during {stage}", stage=stage, stats=stats)


def _search_k(g: Graph, k: int, require_strong: bool, budget: SolverBudget,
              stats: SolverStats, clock: _Clock) -> Optional[EdgeColoring]:
    """A verified k-coloring, or None after exhausting the canonical space.

    If vx and vy are bridges, every x-y path uses them one after the other, so
    they need distinct colors: this prunes and loses no solution.  Without the
    strong property, leaves are checked on one view whose color matrix follows
    the current branch; canonical assignments use the colors 1..top, so each
    color is its own rank.  The pair that rejected one leaf is tried first at
    the next, and a leaf that passes is checked again by the public checker.
    """
    m = g.m
    if m == 0:
        return EdgeColoring(0, {})
    stage = f"k={k}" + ("+strong" if require_strong else "")
    clock.check(stage, stats)
    bridges = bridge_profile(g).bridges
    nb = len(bridges)
    order = bridges + tuple(sorted(set(g.edges).difference(bridges)))
    rng = random.Random(f"{budget.seed}:{k}:{require_strong}")
    at = [0] * g.n  # bit c: a bridge at this vertex has color c on the current branch
    colors = [0] * m  # 0: uncolored
    top = [0] * (m + 1)  # top[i]: the highest color among the first i edges
    view = _View(g, k)
    col = view.col
    failed = None  # the pair that rejected the last leaf

    def options(i: int) -> list[int]:
        taken = at[order[i][0]] | at[order[i][1]] if i < nb else 0
        allowed = [c for c in range(1, min(top[i] + 1, k) + 1) if not taken >> c & 1]
        rng.shuffle(allowed)
        return allowed

    stack = [options(0)]  # stack[i]: the colors edge i has yet to try on this branch
    nodes = 0
    while stack:
        nodes += 1
        if nodes % 256 == 0:  # counts dead ends too, not only assignments
            clock.check(stage, stats)
        i = len(stack) - 1
        u, v = order[i]
        if i < nb:  # take back the bridge's color: no other bridge at u or v has it
            at[u] &= ~(1 << colors[i])
            at[v] &= ~(1 << colors[i])
        if not stack[i]:
            colors[i] = col[u][v] = col[v][u] = 0
            stack.pop()
            continue
        c = colors[i] = col[u][v] = col[v][u] = stack[i].pop()
        top[i + 1] = max(top[i], c)
        if i < nb:
            at[u] |= 1 << c
            at[v] |= 1 << c
        if i + 1 < m:
            stack.append(options(i + 1))
            continue
        stats.assignments += 1
        if stats.assignments > budget.max_assignments:
            raise BudgetExceededError(
                f"assignment budget exceeded during {stage}", stage=stage, stats=stats)
        if require_strong:
            coloring = EdgeColoring(k, dict(zip(order, colors)))
            if has_strong_property(g, coloring):
                return coloring
            continue
        failed = _unjoined_pair(view, failed)
        if failed is None:
            coloring = EdgeColoring(k, dict(zip(order, colors)))
            check = is_proper_connected(g, coloring)
            if not check.ok:  # pragma: no cover - both run the same pair check
                raise AssertionError(f"search leaf failed the checker at pair {check.witness}")
            return coloring
    return None


def exists_k_coloring(g: Graph, k: int, require_strong: bool = False,
                      budget: SolverBudget | None = None,
                      stats: SolverStats | None = None) -> Optional[EdgeColoring]:
    """A verified proper-connecting k-coloring (strong if asked), or None if refuted.

    Raises BudgetExceededError when the search is cut off: that outcome is
    "unknown", distinct from the None refutation.
    """
    if not is_connected(g):
        raise PreconditionError("search requires a connected graph")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    budget = budget or DEFAULT_BUDGET
    stats = stats if stats is not None else SolverStats()
    return _search_k(g, k, require_strong, budget, stats, _Clock(budget.max_seconds))


def exact_pc(g: Graph, budget: SolverBudget | None = None) -> PcResult:
    """Exact pc(g) with a verified certificate; pc of the one-vertex graph is 0.

    ``exhausted`` is True when every smaller color count was ruled out, by the
    lower bound or by completed enumeration.  On a budget cutoff the result
    carries the best verified upper bound with exhausted=False.
    """
    if not is_connected(g):
        raise PreconditionError("pc is defined on connected graphs")
    budget = budget or DEFAULT_BUDGET
    stats = SolverStats()
    clock = _Clock(budget.max_seconds)
    t0 = time.monotonic()

    if g.n == 1:
        return PcResult(0, EdgeColoring(0, {}), True, 0, "trivial", stats.to_json())

    lower = pc_lower_bound(g)
    if lower.tag == "complete":
        value = 1
        certificate = EdgeColoring(1, {e: 1 for e in g.edges})
        exhausted = True
    else:
        upper = pc_upper_bound(g)
        value = upper.value
        certificate: Optional[EdgeColoring] = upper.certificate
        exhausted = True
        for k in range(lower.value, upper.value):
            try:
                found = _search_k(g, k, False, budget, stats, clock)
            except BudgetExceededError:
                exhausted = False  # value is only an upper bound now
                break
            if found is not None:
                value = k
                certificate = found
                break

    stats.elapsed_seconds = time.monotonic() - t0
    return PcResult(value, certificate, exhausted, lower.value, lower.tag, stats.to_json())
