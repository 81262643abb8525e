"""Immutable bitset graphs and the structural probes everything else builds on.

Vertices are dense integers 0..n-1.  Adjacency is stored as one int bitmask
per vertex, which keeps BFS, complement and canonical labeling cheap at the
small sizes this package targets.

One BFS layer walk, ``_layers``, answers every traversal question: distances
(and through them the far-root view and the diameter), connectivity,
bipartition, the bridge test behind ``bridge_profile``, and ``_pieces``, the
components left once a vertex set is removed, behind ``components``,
``structure_flags`` and the enumerator's cut-vertex prefilter.

Canonical labeling refines ordered vertex partitions, held as bitmask cells,
to equitable ones and branches only where refinement leaves a choice, one
vertex per twin class; the code is the least column string over the leaves.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import PreconditionError, UnsupportedSizeError

#: canonical labeling searches a tree whose leaves grow with the automorphism
#: group (2C5: 200); beyond this it refuses
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

    @cached_property
    def layered_view(self) -> "LayeredView":
        """Far root and layers of a connected graph.

        A layer walk from each vertex counts its layers, one more than its
        eccentricity; only the least vertex with the most layers gets distances.
        """
        steps = [sum(1 for _ in _layers(self.adj, 0, 1 << v)) for v in range(self.n)]
        dist = bfs_distances(self, steps.index(max(steps)))
        if -1 in dist:
            raise PreconditionError("diameter and layers are undefined on a disconnected graph")
        return _view(dist)


@dataclass(frozen=True)
class LayeredView:
    """The far root x of a connected graph with its distance layers.

    ``Graph.layered_view`` takes x as the least vertex whose eccentricity is
    the diameter; ``layers`` holds N0(x)..N3(x) plus one bucket for distance >= 4.
    """

    root: int
    layers: tuple[tuple[int, ...], ...]
    diameter: int


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


def _layers(adj: Sequence[int], seen: int, frontier: int) -> Iterator[int]:
    """BFS layers from ``frontier`` as bitmasks, frontier first, never entering ``seen``.

    The layers are disjoint, so their sum is the set of vertices reached.
    """
    seen |= frontier
    while frontier:
        yield frontier
        reach = 0
        for v in _bits(frontier):
            reach |= adj[v]
        frontier = reach & ~seen
        seen |= frontier


def _pieces(adj: Sequence[int], seen: int) -> list[int]:
    """Components of the graph minus ``seen``, as bitmasks ordered by least vertex.

    A piece is the set of vertices one BFS from its least vertex reaches
    without entering ``seen``.
    """
    out = []
    left = ((1 << len(adj)) - 1) & ~seen
    while left:
        piece = sum(_layers(adj, seen, left & -left))
        out.append(piece)
        left ^= piece
    return out


def _is_cut_vertex(adj: Sequence[int], v: int) -> bool:
    """Whether v is a cut vertex: the rest falls into more than one piece."""
    return len(_pieces(adj, 1 << v)) > 1


def _is_bridge(adj: Sequence[int], u: int, v: int) -> bool:
    """Whether edge u–v is a bridge: u and v have no common neighbor, and v is
    out of reach of u once the edge is gone.

    The walk starts at the endpoint of lower degree, so a pendant edge needs none.
    """
    if adj[u] & adj[v]:
        return False
    if adj[u].bit_count() > adj[v].bit_count():
        u, v = v, u
    return not any(layer >> v & 1 for layer in _layers(adj, 1 << u, adj[u] ^ (1 << v)))


def bfs_distances(g: Graph, root: int) -> tuple[int, ...]:
    """Distances from root; -1 marks unreachable vertices."""
    dist = [-1] * g.n
    for d, layer in enumerate(_layers(g.adj, 0, 1 << root)):
        for v in _bits(layer):
            dist[v] = d
    return tuple(dist)


def is_connected(g: Graph) -> bool:
    return sum(_layers(g.adj, 0, 1)) == (1 << g.n) - 1


def components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Connected components as sorted vertex tuples, ordered by least vertex."""
    return tuple(tuple(_bits(piece)) for piece in _pieces(g.adj, 0))


def diameter(g: Graph) -> int:
    return g.layered_view.diameter


def _view(dist: Sequence[int]) -> LayeredView:
    """The view from the root of ``dist``, the distances of a connected graph
    from a vertex whose eccentricity is the diameter."""
    buckets: list[list[int]] = [[], [], [], [], []]
    for v, d in enumerate(dist):
        buckets[min(d, 4)].append(v)
    return LayeredView(root=dist.index(0), layers=tuple(map(tuple, buckets)),
                       diameter=max(dist))


def bridge_profile(g: Graph) -> BridgeProfile:
    """Bridges of a connected graph, sorted, and the most bridges at one vertex.

    An edge u–v in a triangle is never a bridge; any other edge is one exactly
    when v is out of reach of u once that edge is gone.
    """
    if not is_connected(g):
        raise PreconditionError("bridge profile requires a connected graph")
    bridges = tuple((u, v) for u, v in g.edges if _is_bridge(g.adj, u, v))
    incident = [0] * g.n
    for u, v in bridges:
        incident[u] += 1
        incident[v] += 1
    return BridgeProfile(bridges, max(incident))


def bipartition(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """A 2-coloring of the vertices as (side0, side1), or None if odd cycles exist.

    Each component is walked in BFS layers from its least vertex, which stays
    on side 0, and the layers alternate sides; an edge inside one layer closes
    an odd cycle.
    """
    sides = [0, 0]
    left = (1 << g.n) - 1
    while left:
        for d, layer in enumerate(_layers(g.adj, 0, left & -left)):
            if any(g.adj[v] & layer for v in _bits(layer)):
                return None
            sides[d & 1] |= layer
            left ^= layer
    return tuple(_bits(sides[0])), tuple(_bits(sides[1]))


def structure_flags(g: Graph) -> StructureFlags:
    """All five flags at once, as ``pclab info`` prints them.

    A caller that needs one flag reads it directly: ``Graph.complete``,
    ``Graph.triangle_free`` or ``is_connected``.
    """
    connected = is_connected(g)
    two_connected = g.n >= 3 and connected and not any(
        _is_cut_vertex(g.adj, v) for v in range(g.n))
    return StructureFlags(
        connected=connected,
        complete=g.complete,
        bipartite=bipartition(g) is not None,
        triangle_free=g.triangle_free,
        two_connected=two_connected,
    )


def _twin_classes(n: int, adj: Sequence[int]) -> list[int]:
    """The least vertex of each vertex's twin class.

    A transposition (u v) is an automorphism exactly when N(u) = N(v) (u and v
    not adjacent) or N[u] = N[v] (adjacent). Each relation is an equivalence,
    and no vertex has twins of both kinds: if N[u] = N[v] and N(u) = N(w), then
    v is in N(w), so w is in N[v] = N[u] and u is in N(w) = N(u), which is
    absurd. Nor does an open neighborhood equal a closed one: N(u) = N[w] puts
    w in N(u) and so u in N[w] = N(u). So one dict keyed by both neighborhoods
    meets each class's least vertex first.
    """
    first: dict[int, int] = {}
    return [min(first.setdefault(adj[u], u), first.setdefault(adj[u] | 1 << u, u))
            for u in range(n)]


def _refine(adj: Sequence[int], cells: list[int], fresh: list[int]) -> list[int]:
    """Split the ordered cells (vertex bitmasks) until the partition is equitable.

    Each pass splits every cell by its vertices' counts of neighbors in each
    cell, in cell order, and puts the sub-cells in ascending order of that
    count string. Vertices of one cell already agree on their counts into the
    cells the last pass started from, and the pieces of one split cell have a
    fixed total, so counts into the ``fresh`` cells alone, every piece the
    last pass split off but the last of each cell, order and group them the
    same way. A lone singleton splitter {w} splits by adjacency to w,
    non-neighbors first. Each step reads labels only through adjacency, so
    relabeling the graph relabels the result.
    """
    n = len(adj)
    while fresh and len(cells) < n:
        out, new = [], []
        lone = None
        if len(fresh) == 1 and fresh[0] & (fresh[0] - 1) == 0:
            lone = adj[fresh[0].bit_length() - 1]
        for cell in cells:
            if cell & (cell - 1) == 0:
                out.append(cell)
                continue
            if lone is not None:
                hit = cell & lone
                pieces = [cell ^ hit, hit] if hit and hit != cell else [cell]
            else:
                groups: dict[int, int] = {}
                for v in _bits(cell):
                    key = 0
                    for f in fresh:  # counts stay below 16 while n <= MAX_CANONICAL_N
                        key = key << 4 | (adj[v] & f).bit_count()
                    groups[key] = groups.get(key, 0) | 1 << v
                pieces = [groups[key] for key in sorted(groups)]
            out += pieces
            new += pieces[:-1]
        cells, fresh = out, new
    return cells


def _min_placement(n: int, adj: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The least column string over the leaves of an individualization–refinement
    search, and the first placement in search order realizing it.

    cols[k] packs the adjacency bits between placement[k] and
    placement[0..k-1], earlier positions in higher bits, so the string fixes
    the graph it was read from. The search (McKay & Piperno, *Practical graph
    isomorphism II*, 2014) starts from the refined unit partition and, at each
    partition that is not discrete, individualizes each vertex of the first
    cell with more than one vertex in turn and refines again; a discrete
    partition is a leaf, and its cell order a placement. Relabeling the graph
    relabels the whole tree, so the set of leaf strings, and with it their
    least one, is an isomorphism invariant. Only the first vertex of each twin
    class in the cell is individualized: swapping two twins that are not yet
    individualized is an automorphism fixing the partition, so their subtrees
    read the same strings.
    """
    if n == 1:
        return (), (0,)
    twin = None
    best: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    full = (1 << n) - 1
    stack = [_refine(adj, [full], [full])]
    while stack:
        cells = stack.pop()
        i = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
        if i is None:
            placement = tuple(c.bit_length() - 1 for c in cells)
            cols = []
            for k, v in enumerate(placement):
                col = 0
                for u in placement[:k]:
                    col = col << 1 | (adj[v] >> u & 1)
                cols.append(col)
            if best is None or tuple(cols) < best[0]:
                best = tuple(cols), placement
            continue
        twin = twin or _twin_classes(n, adj)
        target, seen, children = cells[i], set(), []
        for v in _bits(target):
            if twin[v] not in seen:
                seen.add(twin[v])
                children.append(_refine(
                    adj, cells[:i] + [1 << v, target ^ 1 << v] + cells[i + 1:], [1 << v]))
        stack += reversed(children)
    return best


def _code_graph(n: int, code: Sequence[int]) -> Graph:
    """The graph on n vertices whose column string is ``code``; see
    ``_min_placement``. Bit i of ``code[k]`` is the edge between k and k-1-i."""
    masks = [0] * n
    for k, col in enumerate(code):
        for i in _bits(col):
            masks[k] |= 1 << (k - 1 - i)
            masks[k - 1 - i] |= 1 << k
    return Graph(n, tuple(masks))


def canonical_graph(g: Graph) -> Graph:
    """The canonically labeled copy of g, read from its code."""
    return _code_graph(g.n, canonical_code(g))


def canonical_code(g: Graph) -> tuple[int, ...]:
    """Isomorphism-class code of g.

    The code is the least column string over the leaves of an
    individualization–refinement search (see ``_min_placement``); it lists
    the canonically labeled graph's upper-triangle adjacency bits column by
    column, so it fixes that graph (and its graph6 text) one-to-one, and two
    graphs get identical codes exactly when they are isomorphic.
    """
    if g.n > MAX_CANONICAL_N:
        raise UnsupportedSizeError(
            f"canonical labeling is capped at n <= {MAX_CANONICAL_N}, got {g.n}")
    return _min_placement(g.n, g.adj)[0]
