"""Shared oracles and helpers.

The oracles here are deliberately independent of the package internals:
networkx for graph structure, itertools-style exhaustive enumeration for
colorings and paths, a reduction to perfect matching for proper-path
existence past the sizes enumeration affords, and a cycle-index count for
enumeration totals.
"""
from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import networkx as nx

from pclab import Graph


def to_nx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return G


def naive_proper_paths(g: Graph, coloring, u: int, v: int):
    """All proper simple u-v paths via networkx path enumeration."""
    G = to_nx(g)
    out = []
    for path in nx.all_simple_paths(G, u, v):
        cs = [coloring.color(path[i], path[i + 1]) for i in range(len(path) - 1)]
        if all(cs[i] != cs[i + 1] for i in range(len(cs) - 1)):
            out.append((tuple(path), tuple(cs)))
    return out


def proper_path_oracle(g: Graph, coloring, s: int, t: int):
    """A proper s-t path read off a perfect matching, or None if none exists.

    Szeider's reduction (Finding paths in graphs avoiding forbidden
    transitions, Discrete Appl. Math. 126, 2003): every vertex gets one copy
    per color at it, and an edge of color c joins its endpoints' c-copies.
    An inner vertex with d >= 2 colors gets d-2 spares joined to all its
    copies, and its copies are joined pairwise, so a perfect matching leaves
    it either two copies matched to each other (off the path) or two
    differently colored copies matched along edges (entered by one color, left
    by another).  An inner vertex with one color gets one spare, which keeps
    it off every path.  s and t get d-1 spares and no copy-copy edges, so
    exactly one copy of each is matched along an edge.  The matched edges then
    form a proper s-t path plus properly colored cycles, which are dropped.
    An edge s-t is itself a proper path and is returned without a matching.
    """
    if g.has_edge(s, t):
        return s, t
    copies = [sorted({coloring.color(v, x) for x in range(g.n) if g.has_edge(v, x)})
              for v in range(g.n)]
    if not copies[s] or not copies[t]:
        return None
    H = nx.Graph()
    for v, cs in enumerate(copies):
        if v in (s, t):
            spares = len(cs) - 1
        else:
            spares = len(cs) - 2 if len(cs) >= 2 else len(cs)
            H.add_edges_from(((v, a), (v, b)) for a, b in itertools.combinations(cs, 2))
        for i in range(spares):
            H.add_edges_from((("spare", v, i), (v, c)) for c in cs)
    for (u, v), c in coloring.assignment.items():
        H.add_edge((u, c), (v, c))
    matching = nx.max_weight_matching(H, maxcardinality=True)
    if 2 * len(matching) < H.number_of_nodes():
        return None
    step = {}
    for a, b in matching:
        if "spare" not in (a[0], b[0]) and a[0] != b[0]:  # an edge of g
            step.setdefault(a[0], []).append(b[0])
            step.setdefault(b[0], []).append(a[0])
    path = [s]
    while path[-1] != t:
        nxt = [x for x in step[path[-1]] if len(path) < 2 or x != path[-2]]
        path.append(nxt[0])
    return tuple(path)


def is_proper_path(g: Graph, coloring, path) -> bool:
    """Is ``path`` a simple path of g with no color repeated on consecutive edges?"""
    if len(path) < 2 or len(set(path)) < len(path):
        return False
    if not all(g.has_edge(a, b) for a, b in zip(path, path[1:])):
        return False
    cs = [coloring.color(a, b) for a, b in zip(path, path[1:])]
    return all(c != d for c, d in zip(cs, cs[1:]))


def naive_proper_connected(g: Graph, coloring) -> bool:
    return all(naive_proper_paths(g, coloring, u, v)
               for u in range(g.n) for v in range(u + 1, g.n))


def brute_pc(g: Graph) -> int:
    """Reference pc by trying every coloring with k = 1, 2, ... colors."""
    from pclab import EdgeColoring

    if g.n == 1:
        return 0
    for k in range(1, g.m + 1):
        for colors in itertools.product(range(1, k + 1), repeat=g.m):
            if naive_proper_connected(g, EdgeColoring.from_sequence(g, colors, k)):
                return k
    raise AssertionError("every connected graph has pc <= m")


def brute_strong(g: Graph, k: int):
    """The first of all k^m colorings with the strong property, or None."""
    from pclab import EdgeColoring, has_strong_property

    for colors in itertools.product(range(1, k + 1), repeat=g.m):
        coloring = EdgeColoring.from_sequence(g, colors, k)
        if has_strong_property(g, coloring):
            return coloring
    return None


def ear_coloring(g: Graph):
    """A 2-coloring of a 2-connected bipartite graph with the strong property,
    built ear by ear (Borozan et al., Proper connection of graphs, Discrete
    Math. 312, 2012).

    The first ear is a cycle: an edge u-v plus a shortest v-u path in g minus
    that edge.  Each later step takes the first uncolored edge a-b with a
    covered.  If b is covered too, a-b is a chord and gets color 1.  Otherwise
    the ear runs a, b, then a shortest path from b that avoids a to the nearest
    other covered vertex; it exists because g minus a is connected.  Every ear
    is colored 1, 2, 1, ... from its first edge.

    Why it is strong.  In a bipartite graph all x-y paths have the same length
    parity.  A proper 2-colored path alternates, so its end color follows from
    its start color.  Hence the strong property holds exactly when every pair
    has proper paths that start with each color.  An alternating even cycle
    has it: the two arcs between x and y leave x by different colors.  Now let
    H have it and add an ear P from u to v (u != v), colored alternately.
    - An interior vertex x and a vertex w of H: leave x each way along P, then
      go on in H by a path that starts with the color P did not use at that end
      (stop at that end if it is w).
    - Two interior vertices x and y, x nearer u on P: one path runs along P.
      The other leaves x toward u, crosses H from u to v starting with the
      color P did not use at u, and runs back along P from v to y.  Its color
      changes at v, because P plus the crossing is an even cycle: going round
      it the color changes an even number of times at an even number of
      junctions, and it changes at every junction but possibly the one at v.
    - A chord only adds paths.
    """
    from pclab import EdgeColoring

    G = to_nx(g)
    u, v = g.edges[0]
    cycle = [u] + nx.shortest_path(nx.restricted_view(G, [], [(u, v)]), v, u)
    covered = set(cycle)
    colors = {}

    def paint(ear):
        for i, (a, b) in enumerate(zip(ear, ear[1:])):
            colors[(a, b) if a < b else (b, a)] = 1 + i % 2

    paint(cycle)
    while len(colors) < g.m:
        a, b = next(e for e in g.edges if e not in colors and covered.intersection(e))
        if a not in covered:
            a, b = b, a
        if b in covered:
            colors[(a, b) if a < b else (b, a)] = 1
            continue
        # the nearest covered vertex other than a, reached from b without a
        _, rest = nx.multi_source_dijkstra(nx.restricted_view(G, [a], []),
                                           covered - {a}, target=b)
        paint([a] + rest[::-1])
        covered.update(rest)
    return EdgeColoring(2, colors)


def hamiltonian_path_dp(g: Graph):
    """Lexicographically least Hamiltonian path, or None: a DP over all 2^n vertex sets."""
    adj = g.adj
    full = (1 << g.n) - 1
    # ends[s]: the vertices at which a path visiting exactly the set s can end
    ends = [0] * (full + 1)
    for v in range(g.n):
        ends[1 << v] = 1 << v
    for s in range(1, full):
        reach = 0
        for v in range(g.n):
            if ends[s] >> v & 1:
                reach |= adj[v]
        for w in range(g.n):
            if (reach & ~s) >> w & 1:
                ends[s | 1 << w] |= 1 << w
    if not ends[full]:
        return None
    path = []
    s, allowed = full, full
    while s:  # walk back: each end has a neighbor ending the rest of the set
        choice = ends[s] & allowed
        v = (choice & -choice).bit_length() - 1
        path.append(v)
        s ^= 1 << v
        allowed = adj[v]
    return tuple(path)


def random_connected_graph(n: int, rng: random.Random) -> Graph:
    """Random spanning tree plus a random sprinkle of extra edges."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a, b = order[rng.randrange(i)], order[i]
        edges.add((min(a, b), max(a, b)))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.3:
                edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform random labeled tree from a Pruefer sequence."""
    if n == 1:
        return Graph(1, (0,))
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    last = [u for u in range(n) if degree[u] == 1]
    edges.append((min(last), max(last)))
    return Graph.from_edges(n, edges)


def _partitions(n: int, largest: int | None = None):
    if n == 0:
        yield ()
        return
    largest = n if largest is None else min(largest, n)
    for first in range(largest, 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def count_graph_classes(n: int) -> int:
    """Graphs on n vertices up to isomorphism, by the cycle index of S_n on pairs."""
    total = 0
    for part in _partitions(n):
        perms = math.factorial(n)
        for length in part:
            perms //= length
        for _, mult in Counter(part).items():
            perms //= math.factorial(mult)
        orbits = sum(length // 2 for length in part)
        orbits += sum(math.gcd(a, b) for a, b in itertools.combinations(part, 2))
        total += perms * (1 << orbits)
    return total // math.factorial(n)


def count_connected_classes(n: int) -> int:
    """Inverse Euler transform of the all-graphs class counts."""
    a = [1] + [count_graph_classes(k) for k in range(1, n + 1)]
    b = [0] * (n + 1)
    c = [0] * (n + 1)
    for m in range(1, n + 1):
        b[m] = m * a[m] - sum(b[k] * a[m - k] for k in range(1, m))
        c[m] = (b[m] - sum(d * c[d] for d in range(1, m) if m % d == 0)) // m
    return c[n]
