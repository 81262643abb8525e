"""Immutable bitset graphs and the structural probes everything else builds on.

Vertices are dense integers 0..n-1.  Adjacency is stored as one int bitmask
per vertex, which keeps BFS, complement and canonical labeling cheap at the
small sizes this package targets.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import PreconditionError, UnsupportedSizeError

#: canonical labeling uses exhaustive placement search; beyond this it refuses
MAX_CANONICAL_N = 10


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; ``adj[v]`` is the neighbor bitmask of v."""

    n: int
    adj: tuple[int, ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if masks[u] >> v & 1:
                raise ValueError(f"duplicate edge ({u},{v})")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return cls(n, tuple(masks))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges (u,v) with u < v, sorted lexicographically."""
        out = []
        for u in range(self.n):
            above = self.adj[u] >> (u + 1)
            for off in _bits(above):
                out.append((u, u + 1 + off))
        return tuple(out)

    @cached_property
    def m(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        return _bits(self.adj[v])

    @cached_property
    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((a.bit_count() for a in self.adj), reverse=True))

    @cached_property
    def max_degree(self) -> int:
        return max(a.bit_count() for a in self.adj)

    @property
    def complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    @property
    def triangle_free(self) -> bool:
        return all(self.adj[u] & self.adj[v] == 0 for u, v in self.edges)


@dataclass(frozen=True)
class LayeredView:
    """The far root x of a connected graph with its distance layers.

    x is the least vertex whose eccentricity is the diameter; ``layers`` holds
    N0(x)..N3(x) plus one bucket for distance >= 4.
    """

    root: int
    dist: tuple[int, ...]
    layers: tuple[tuple[int, ...], ...]
    diameter: int

    def layer_sizes(self) -> tuple[int, ...]:
        """Bucket sizes with trailing empty buckets trimmed."""
        sizes = [len(layer) for layer in self.layers]
        while sizes and sizes[-1] == 0:
            sizes.pop()
        return tuple(sizes)


@dataclass(frozen=True)
class BridgeProfile:
    bridges: tuple[tuple[int, int], ...]
    b: int  # max number of bridges incident with a single vertex


@dataclass(frozen=True)
class StructureFlags:
    connected: bool
    complete: bool
    bipartite: bool
    triangle_free: bool
    two_connected: bool


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full ^ a) & ~(1 << v) for v, a in enumerate(g.adj)))


def relabel(g: Graph, mapping: Sequence[int]) -> Graph:
    """Relabel vertices; ``mapping[old] = new`` must be a permutation of range(n)."""
    if sorted(mapping) != list(range(g.n)):
        raise ValueError("mapping is not a permutation of the vertex set")
    masks = [0] * g.n
    for u, v in g.edges:
        mu, mv = mapping[u], mapping[v]
        masks[mu] |= 1 << mv
        masks[mv] |= 1 << mu
    return Graph(g.n, tuple(masks))


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on the given vertices plus the old->new vertex map."""
    verts = sorted(set(vertices))
    if not verts:
        raise ValueError("vertex set must be nonempty")
    idx = {v: i for i, v in enumerate(verts)}
    masks = [0] * len(verts)
    for i, v in enumerate(verts):
        for w in _bits(g.adj[v]):
            if w in idx:
                masks[i] |= 1 << idx[w]
    return Graph(len(verts), tuple(masks)), idx


def bfs_distances(g: Graph, root: int) -> tuple[int, ...]:
    """Distances from root; -1 marks unreachable vertices."""
    dist = [-1] * g.n
    dist[root] = 0
    seen = 1 << root
    frontier = seen
    d = 0
    while frontier:
        d += 1
        nxt = 0
        for v in _bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & ~seen
        seen |= frontier
        for v in _bits(frontier):
            dist[v] = d
    return tuple(dist)


def is_connected(g: Graph) -> bool:
    return -1 not in bfs_distances(g, 0)


def components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Connected components as sorted vertex tuples, ordered by least vertex.

    A component is the set of vertices one BFS from its least vertex reaches.
    """
    out = []
    left = set(range(g.n))
    while left:
        comp = tuple(v for v, d in enumerate(bfs_distances(g, min(left))) if d >= 0)
        out.append(comp)
        left.difference_update(comp)
    return tuple(out)


def diameter(g: Graph) -> int:
    return layered_view(g).diameter


def layered_view(g: Graph) -> LayeredView:
    """Far root and layers of a connected graph, from one BFS per vertex."""
    dist = max((bfs_distances(g, v) for v in range(g.n)), key=max)
    if -1 in dist:
        raise PreconditionError("diameter and layers are undefined on a disconnected graph")
    buckets: list[list[int]] = [[], [], [], [], []]
    for v, d in enumerate(dist):
        buckets[min(d, 4)].append(v)
    return LayeredView(
        root=dist.index(0),
        dist=dist,
        layers=tuple(tuple(b) for b in buckets),
        diameter=max(dist),
    )


def _dfs_low(g: Graph):
    """Single DFS pass: returns (bridges, articulation_points)."""
    disc = [-1] * g.n
    low = [0] * g.n
    bridges: list[tuple[int, int]] = []
    artic: set[int] = set()
    counter = 0

    def explore(root: int) -> None:
        nonlocal counter
        stack: list[tuple[int, int, Iterator[int]]] = [(root, -1, _bits(g.adj[root]))]
        disc[root] = low[root] = counter = counter + 1
        root_children = 0
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if disc[w] == -1:
                    counter += 1
                    disc[w] = low[w] = counter
                    stack.append((w, v, _bits(g.adj[w])))
                    if v == root:
                        root_children += 1
                    advanced = True
                    break
                if w != parent:
                    low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                if parent != -1:
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        bridges.append((min(parent, v), max(parent, v)))
                    if parent != root and low[v] >= disc[parent]:
                        artic.add(parent)
        if root_children >= 2:
            artic.add(root)

    for v in range(g.n):
        if disc[v] == -1:
            explore(v)
    return sorted(bridges), artic


def bridge_profile(g: Graph) -> BridgeProfile:
    if not is_connected(g):
        raise PreconditionError("bridge profile requires a connected graph")
    bridges, _ = _dfs_low(g)
    incident = [0] * g.n
    for u, v in bridges:
        incident[u] += 1
        incident[v] += 1
    return BridgeProfile(tuple(bridges), max(incident, default=0) if g.n else 0)


def bipartition(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """A 2-coloring of the vertices as (side0, side1), or None if odd cycles exist."""
    dist = _parity_distances(g, bfs_distances(g, 0))
    if dist is None:
        return None
    sides: tuple[list[int], list[int]] = ([], [])
    for v, d in enumerate(dist):
        sides[d & 1].append(v)
    return tuple(sides[0]), tuple(sides[1])


def _parity_distances(g: Graph, dist0: Sequence[int]) -> list[int] | None:
    """Distance to the least vertex of each component; None on an odd cycle.

    ``dist0`` is ``bfs_distances(g, 0)``; one BFS runs per further component.
    """
    dist = list(dist0)
    while -1 in dist:
        for v, d in enumerate(bfs_distances(g, dist.index(-1))):
            if d >= 0:
                dist[v] = d
    for u, v in g.edges:
        if (dist[u] ^ dist[v]) & 1 == 0:
            return None
    return dist


def structure_flags(g: Graph) -> StructureFlags:
    """All five flags at once, as ``pclab info`` prints them.

    A caller that needs one flag reads it directly: ``Graph.complete``,
    ``Graph.triangle_free`` or ``is_connected``.
    """
    dist0 = bfs_distances(g, 0)
    connected = -1 not in dist0
    if g.n >= 3 and connected:
        _, artic = _dfs_low(g)
        two_connected = not artic
    else:
        two_connected = False
    return StructureFlags(
        connected=connected,
        complete=g.complete,
        bipartite=_parity_distances(g, dist0) is not None,
        triangle_free=g.triangle_free,
        two_connected=two_connected,
    )


def _twin_classes(n: int, adj: Sequence[int]) -> list[int]:
    """Union-find roots for vertices interchangeable by a transposition."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in range(n):
        for v in range(u + 1, n):
            if adj[u] >> v & 1:
                same = adj[u] & ~(1 << v) == adj[v] & ~(1 << u)
            else:
                same = adj[u] == adj[v]
            if same:
                parent[find(u)] = find(v)
    return [find(v) for v in range(n)]


def _min_placement(n: int, adj: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Vertex placement minimizing the upper-triangle column string.

    Returns (cols, placement) where cols[k] packs the adjacency bits between
    placement[k] and placement[0..k-1] (earlier positions in higher bits).
    Exact over all permutations; pruned by forcing each column to its minimum
    and by skipping twin vertices.
    """
    if n == 1:
        return (), (0,)
    twin = _twin_classes(n, adj)
    best_cols: list[int] | None = None
    best_perm: list[int] | None = None

    def rec(placed: list[int], unplaced: list[int], cols: list[int],
            colvals: list[int], tied: bool) -> None:
        nonlocal best_cols, best_perm
        if not unplaced:
            if best_cols is None or cols < best_cols:
                best_cols = list(cols)
                best_perm = list(placed)
            return
        k = len(placed)
        mincol = min(colvals[u] for u in unplaced)
        if tied:
            if mincol > best_cols[k]:
                return
            child_tied = mincol == best_cols[k]
        else:
            child_tied = False
        cols.append(mincol)
        seen_classes = set()
        for u in unplaced:
            if colvals[u] != mincol or twin[u] in seen_classes:
                continue
            seen_classes.add(twin[u])
            rest = [w for w in unplaced if w != u]
            saved = [colvals[w] for w in rest]
            for w in rest:
                colvals[w] = colvals[w] << 1 | (adj[w] >> u & 1)
            placed.append(u)
            rec(placed, rest, cols, colvals, child_tied)
            placed.pop()
            for w, s in zip(rest, saved):
                colvals[w] = s
            # once this prefix owns the incumbent, siblings compare as ties
            child_tied = True
        cols.pop()

    rec([], list(range(n)), [], [0] * n, False)
    assert best_cols is not None and best_perm is not None
    return tuple(best_cols), tuple(best_perm)


def canonical_form(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Canonical code plus the placement realizing it.

    The code is the column tuple of ``_min_placement``: it lists the
    canonically labeled graph's upper-triangle adjacency bits column by
    column, so it fixes that graph (and its graph6 text) one-to-one, and two
    graphs get identical codes exactly when they are isomorphic.
    ``placement[i]`` is the original vertex at canonical position i.
    """
    if g.n > MAX_CANONICAL_N:
        raise UnsupportedSizeError(
            f"canonical labeling is capped at n <= {MAX_CANONICAL_N}, got {g.n}")
    return _min_placement(g.n, g.adj)


def canonical_graph(g: Graph, placement: Sequence[int] | None = None) -> Graph:
    """The canonically labeled copy of g."""
    if placement is None:
        placement = canonical_form(g)[1]
    mapping = [0] * g.n
    for pos, old in enumerate(placement):
        mapping[old] = pos
    return relabel(g, mapping)


def canonical_code(g: Graph) -> tuple[int, ...]:
    """Isomorphism-class code of g; see ``canonical_form``."""
    return canonical_form(g)[0]


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m or g.degree_sequence != h.degree_sequence:
        return False
    return canonical_code(g) == canonical_code(h)
