"""Proper-path machinery over edge-colored graphs.

A proper path never repeats a color on consecutive edges.  Every question
here is answered by one search, ``_paths``: an iterative depth-first walk over
the proper simple paths between two vertices, in lexicographic order.
Reachability in the (vertex, entering-color) state space toward the target
only prunes it, because a proper walk need not shorten to a proper path.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

from .errors import BudgetExceededError, ColoringFormatError, PreconditionError
from .graph import Graph, _bits, is_connected

#: default work budget for exhaustive per-pair enumeration: vertices the path
#: search enters, the start vertex included
DEFAULT_PATH_BUDGET = 10**6


@dataclass(frozen=True)
class EdgeColoring:
    """Total assignment of colors 1..k to the edges of a host graph.

    ``k`` may exceed the number of colors actually used.  Keys are edge tuples
    (u,v) with u < v.
    """

    k: int
    assignment: Mapping[tuple[int, int], int]

    def __post_init__(self):
        if self.k < 0:
            raise ColoringFormatError(f"k must be >= 0, got {self.k}")
        if self.assignment and self.k < 1:
            raise ColoringFormatError("nonempty coloring needs k >= 1")
        for (u, v), c in self.assignment.items():
            if u >= v:
                raise ColoringFormatError(f"edge key ({u},{v}) must have u < v")
            if not 1 <= c <= self.k:
                raise ColoringFormatError(
                    f"color {c} on edge ({u},{v}) outside 1..{self.k}")

    @classmethod
    def from_sequence(cls, g: Graph, colors: Iterable[int], k: int | None = None) -> "EdgeColoring":
        colors = list(colors)
        if len(colors) != g.m:
            raise ColoringFormatError(
                f"expected {g.m} colors (one per edge), got {len(colors)}")
        if k is None:
            k = max(colors, default=0)
        return cls(k, dict(zip(g.edges, colors)))

    def color(self, u: int, v: int) -> int:
        return self.assignment[(u, v) if u < v else (v, u)]


@dataclass(frozen=True)
class ConnectivityCheck:
    ok: bool
    witness: Optional[tuple[int, int]] = None  # least failing pair when not ok

    def __bool__(self) -> bool:
        return self.ok


class _View:
    """Dense color matrix + sorted neighbor lists for the search loops.

    The matrix holds each color's rank 1..k among the k colors actually used,
    so color bitmasks stay within m bits whatever the declared color count;
    ``orig[rank]`` is the color itself.  A view made by ``_View(g, k)`` starts
    uncolored, with ranks equal to the colors 1..k, for a caller that fills in
    ``col`` as it goes.
    """

    __slots__ = ("n", "k", "col", "nbr", "orig")

    def __init__(self, g: Graph, k: int):
        self.n = g.n
        self.k = k
        self.col = [[0] * g.n for _ in range(g.n)]
        self.nbr = [list(_bits(g.adj[v])) for v in range(g.n)]
        self.orig = tuple(range(k + 1))

    @classmethod
    def of(cls, g: Graph, coloring: EdgeColoring) -> "_View":
        if len(coloring.assignment) != g.m:
            raise ColoringFormatError(
                f"coloring has {len(coloring.assignment)} edges, graph has {g.m}")
        orig = sorted(set(coloring.assignment.values()))
        rank = {c: i for i, c in enumerate(orig, start=1)}
        view = cls(g, len(orig))
        col = view.col
        for u, v in g.edges:
            c = coloring.assignment.get((u, v))
            if c is None:
                raise ColoringFormatError(f"edge ({u},{v}) is uncolored")
            col[u][v] = col[v][u] = rank[c]
        view.orig = (0, *orig)
        return view


def _back_reach(view: _View, target: int) -> list[int]:
    """reach[w] bit (c-1): a proper walk to target can leave w after entering via color c.

    A walk can leave w by color c if an edge w-x of color c enters a vertex x
    whose reach has c.  A reach only grows, from none to all colors but the
    one exit color to all colors, so this backward search scans the edges of
    a vertex at most twice: once each time its reach grows.
    """
    col, nbr = view.col, view.nbr
    full = (1 << view.k) - 1
    reach = [0] * view.n
    exits = [0] * view.n  # bit (c-1): w can leave by an edge of color c
    reach[target] = full
    todo = [(target, 0)]  # (vertex, its reach before it grew)
    while todo:
        x, old = todo.pop()
        gained = reach[x] & ~old
        colx = col[x]
        for w in nbr[x]:
            bit = 1 << (colx[w] - 1)
            if gained & bit and not exits[w] & bit and w != target:
                s = exits[w] = exits[w] | bit
                new = full if s & (s - 1) else full & ~s  # two exits cover every entry
                if new != reach[w]:
                    todo.append((w, reach[w]))
                    reach[w] = new
    return reach


def _paths(view: _View, u: int, v: int, reach: list[int],
           budget: Optional[int] = None) -> Iterator[tuple[list[int], list[int]]]:
    """Yield (vertices, color ranks) of each proper simple u-v path, in
    lexicographic vertex order.

    ``reach`` is ``_back_reach(view, v)``: the search enters a vertex only if a
    proper walk to v can leave it.  The yielded lists are live; copy them to
    keep them.  Entering more than ``budget`` vertices, u included, raises
    BudgetExceededError with ``stats={"entered": count}``.
    """
    col = view.col
    nbr = view.nbr
    path = [u]
    colors: list[int] = []
    visited = 1 << u
    stack = [iter(nbr[u])]
    entered = 1
    while stack:
        if budget is not None and entered > budget:
            raise BudgetExceededError("path enumeration budget exceeded",
                                      stage="path_enumeration", stats={"entered": entered})
        w = path[-1]
        lastc = colors[-1] if colors else 0
        for x in stack[-1]:
            if visited >> x & 1:
                continue
            cx = col[w][x]
            if cx == lastc:
                continue
            if x == v:
                path.append(x)
                colors.append(cx)
                yield path, colors
                path.pop()
                colors.pop()
            elif reach[x] >> (cx - 1) & 1:
                path.append(x)
                colors.append(cx)
                visited |= 1 << x
                stack.append(iter(nbr[x]))
                entered += 1
                break
        else:
            stack.pop()
            visited ^= 1 << path.pop()
            if colors:
                colors.pop()


def _check_endpoints(g: Graph, u: int, v: int) -> None:
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"endpoints ({u},{v}) outside 0..{g.n - 1}")
    if u == v:
        raise ValueError("endpoints must be distinct")


def _unjoined_pair(view: _View, first: Optional[tuple[int, int]] = None
                   ) -> Optional[tuple[int, int]]:
    """A vertex pair with no proper path between them, or None if there is none.

    ``first``, a pair u < v, is tried before the others; when it is joined,
    the result is the least unjoined pair.  Every edge of ``view`` must be
    colored.
    """
    reach: dict[int, list[int]] = {}

    def joined(u: int, v: int) -> bool:
        if view.col[u][v]:
            return True  # a single edge is always a proper path
        if v not in reach:
            reach[v] = _back_reach(view, v)
        return next(_paths(view, u, v, reach[v]), None) is not None

    if first is not None and not joined(*first):
        return first
    for u in range(view.n):
        for v in range(u + 1, view.n):
            if not joined(u, v):
                return u, v
    return None


def is_proper_connected(g: Graph, coloring: EdgeColoring) -> ConnectivityCheck:
    """Every vertex pair joined by a proper path?  Witness = least failing pair."""
    if not is_connected(g):
        raise PreconditionError("proper connectivity is defined on connected graphs")
    pair = _unjoined_pair(_View.of(g, coloring))
    return ConnectivityCheck(pair is None, pair)


def check_tree_witness(g: Graph, coloring: EdgeColoring, tree: Graph) -> bool:
    """Is ``tree`` a spanning tree of g with distinct colors on its edges at
    each vertex, and does ``coloring`` color exactly the edges of g?  Then
    every pair is joined by its tree path, which is proper.
    """
    if tree.n != g.n or tree.m != g.n - 1 or not is_connected(tree):
        return False
    if any(t & ~a for t, a in zip(tree.adj, g.adj)):
        return False  # a tree edge outside g
    color = coloring.assignment
    if len(color) != g.m or not all(e in color for e in g.edges):
        return False
    return all(len({coloring.color(v, w) for w in tree.neighbors(v)}) == tree.degree(v)
               for v in range(g.n))


def endpoint_color_pairs(g: Graph, coloring: EdgeColoring, u: int, v: int,
                         budget: int = DEFAULT_PATH_BUDGET) -> frozenset[tuple[int, int]]:
    """Exact set of (start, end) colors over all proper u-v paths."""
    _check_endpoints(g, u, v)
    view = _View.of(g, coloring)
    pairs = {(colors[0], colors[-1]) for _, colors in
             _paths(view, u, v, _back_reach(view, v), budget)}
    orig = view.orig
    return frozenset((orig[s], orig[e]) for s, e in pairs)


def has_strong_property(g: Graph, coloring: EdgeColoring,
                        budget: int = DEFAULT_PATH_BUDGET) -> bool:
    """Every pair admits two proper paths differing in start color and in end color."""
    if not is_connected(g):
        raise PreconditionError("the strong property is defined on connected graphs")
    if g.n == 1:
        return True
    view = _View.of(g, coloring)
    # necessary: every vertex must see at least two colors on its incident edges
    for w in range(g.n):
        incident = {view.col[w][x] for x in view.nbr[w]}
        if len(incident) < 2:
            return False
    reach: dict[int, list[int]] = {}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if v not in reach:
                reach[v] = _back_reach(view, v)
            seen: set[tuple[int, int]] = set()
            for _, colors in _paths(view, u, v, reach[v], budget):
                s, e = colors[0], colors[-1]
                if any(s != s2 and e != e2 for s2, e2 in seen):
                    break
                seen.add((s, e))
            else:
                return False
    return True


# --- coloring file format ---------------------------------------------------
#
#   # optional comments
#   colors <k>              k = 0 only for a graph with no edges
#   edge <u> <v> <c>        one line per edge, 0-indexed vertices, 1 <= c <= k


def parse_coloring(text: str, g: Graph) -> EdgeColoring:
    k: int | None = None
    assignment: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "colors":
            if k is not None:
                raise ColoringFormatError(f"line {lineno}: duplicate 'colors' line")
            if len(tokens) != 2:
                raise ColoringFormatError(f"line {lineno}: expected 'colors <k>'")
            k = _parse_int(tokens[1], lineno)
            if k < 0:
                raise ColoringFormatError(f"line {lineno}: k must be >= 0")
        elif tokens[0] == "edge":
            if k is None:
                raise ColoringFormatError(f"line {lineno}: 'colors' line must come first")
            if len(tokens) != 4:
                raise ColoringFormatError(f"line {lineno}: expected 'edge <u> <v> <c>'")
            u, v, c = (_parse_int(t, lineno) for t in tokens[1:])
            if u == v or not (0 <= u < g.n and 0 <= v < g.n):
                raise ColoringFormatError(f"line {lineno}: bad endpoints ({u},{v})")
            key = (u, v) if u < v else (v, u)
            if not g.has_edge(*key):
                raise ColoringFormatError(f"line {lineno}: ({u},{v}) is not a graph edge")
            if key in assignment:
                raise ColoringFormatError(f"line {lineno}: edge ({u},{v}) colored twice")
            if not 1 <= c <= k:
                raise ColoringFormatError(f"line {lineno}: color {c} outside 1..{k}")
            assignment[key] = c
        else:
            raise ColoringFormatError(f"line {lineno}: unknown directive {tokens[0]!r}")
    if k is None:
        raise ColoringFormatError("missing 'colors' line")
    missing = [e for e in g.edges if e not in assignment]
    if missing:
        raise ColoringFormatError(f"uncolored edges: {missing[:5]}")
    return EdgeColoring(k, assignment)


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ColoringFormatError(f"line {lineno}: {token!r} is not an integer") from None


def format_coloring(coloring: EdgeColoring, g: Graph) -> str:
    lines = [f"colors {coloring.k}"]
    for u, v in g.edges:
        lines.append(f"edge {u} {v} {coloring.color(u, v)}")
    return "\n".join(lines) + "\n"
