"""Named graph families and enumeration of connected graphs up to isomorphism."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .errors import UnsupportedSizeError
from .graph import Graph, _bits, _code_graph, _min_placement, _pieces, _twin_classes

#: built-in enumeration stops here
MAX_ENUMERATION_N = 8


@dataclass(frozen=True)
class FamilySpec:
    tag: str
    params: tuple[int, ...] = ()


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """K_{1,n-1} with center 0."""
    if n < 2:
        raise ValueError(f"star needs n >= 2, got {n}")
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def star_plus_edge(n: int) -> Graph:
    """Star on n vertices plus one edge between two leaves."""
    if n < 3:
        raise ValueError(f"star_plus_e needs n >= 3, got {n}")
    return Graph.from_edges(n, [(0, i) for i in range(1, n)] + [(1, 2)])


def cycle4_plus_edge() -> Graph:
    """C_4 plus one chord."""
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])


def double_star(a: int, b: int) -> Graph:
    """Two adjacent centers of degrees a and b; all other vertices are leaves."""
    if a < 1 or b < 1:
        raise ValueError(f"double star needs degrees >= 1, got ({a},{b})")
    edges = [(0, 1)]
    edges += [(0, v) for v in range(2, a + 1)]
    edges += [(1, v) for v in range(a + 1, a + b)]
    return Graph.from_edges(a + b, edges)


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_multipartite(*sizes: int) -> Graph:
    if len(sizes) < 2:
        raise ValueError("complete multipartite needs at least 2 parts")
    if any(s < 1 for s in sizes):
        raise ValueError(f"part sizes must be >= 1, got {sizes}")
    part = []
    for i, s in enumerate(sizes):
        part += [i] * s
    n = len(part)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]]
    return Graph.from_edges(n, edges)


#: tag -> (builder, parameter count); None lets the builder check the count
_FAMILIES: dict[str, tuple[Callable[..., Graph], Optional[int]]] = {
    "path": (path_graph, 1),
    "cycle": (cycle_graph, 1),
    "star": (star_graph, 1),
    "star_plus_e": (star_plus_edge, 1),
    "cycle4_plus_e": (cycle4_plus_edge, 0),
    "double_star": (double_star, 2),
    "complete": (complete_graph, 1),
    "complete_multipartite": (complete_multipartite, None),
}
FAMILY_TAGS = tuple(_FAMILIES)


def generate(spec: FamilySpec) -> Graph:
    tag, params = spec.tag, spec.params
    if tag not in _FAMILIES:
        raise ValueError(f"unknown family {tag!r}; expected one of {FAMILY_TAGS}")
    build, count = _FAMILIES[tag]
    if count is not None and len(params) != count:
        raise ValueError(f"{tag} takes {count} parameter(s), got {len(params)}")
    return build(*params)


# --- enumeration up to isomorphism -----------------------------------------
#
# Connected graphs on n vertices are grown from the representatives on n-1
# vertices by attaching a new vertex v to every nonempty neighbor subset S of
# a parent P.  A child is labeled only if no non-cut vertex w (the child minus
# w is still connected) outranks v by the invariant (degree, sorted neighbor
# degrees); the children that pass are deduplicated by canonical code, and
# each class is decoded from its code.  No class is lost: a connected G has a
# non-cut vertex m of largest invariant among its non-cut vertices, G - m is
# connected and so isomorphic to a parent, and re-attaching m there gives a
# child in which v plays m, so no non-cut vertex outranks v (the argument of
# McKay, *Isomorph-free exhaustive generation*, J. Algorithms 26, 1998).
#
# The child adjacency is built only for a child that is labeled; each parent
# does the rest once.  The child minus w (w < v) is P - w plus v joined to S,
# so it is connected exactly when S meets every component of P - w, and the
# child's degrees are P's plus the bits of S.
#
# Twin prefixes: within each twin class of P (``_twin_classes``), S may hold
# a twin only together with every twin listed before it.  Any permutation σ
# of a twin class is an automorphism of P, as the transpositions of twins
# are; extended to fix v it maps child(S) onto child(σS).  Permuting each
# class independently turns S into a prefix-closed σS, so every class of
# children keeps a member, and since the isomorphism fixes v it carries the
# non-cut vertices and invariants of one child onto the other's: the
# ``_outranked`` verdict holds for σS exactly when it holds for S.

_LEVELS: dict[int, tuple[Graph, ...]] = {}


def _build_level(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1, (0,)),)
    v = n - 1
    codes: set[tuple[int, ...]] = set()
    for parent in _level(v):
        padj = parent.adj
        deg = [a.bit_count() for a in padj]
        pieces = [_pieces(padj, 1 << w) for w in range(v)]
        for subset in _twin_prefixes(padj):
            if _outranked(padj, deg, pieces, subset):
                continue
            adj = [a | ((subset >> i & 1) << v) for i, a in enumerate(padj)]
            adj.append(subset)
            codes.add(_min_placement(n, adj)[0])
    return tuple(_code_graph(n, code) for code in sorted(codes))


def _twin_prefixes(adj: tuple[int, ...]) -> list[int]:
    """The nonempty vertex subsets that hold, within each twin class, only a
    prefix of the class in vertex order."""
    classes: dict[int, list[int]] = {}
    for u, least in enumerate(_twin_classes(len(adj), adj)):
        classes.setdefault(least, []).append(u)
    subsets = [0]
    for members in classes.values():
        prefixes, mask = [0], 0
        for u in members:
            mask |= 1 << u
            prefixes.append(mask)
        subsets = [s | p for s in subsets for p in prefixes]
    return subsets[1:]


def _outranked(padj: tuple[int, ...], deg: list[int], pieces: list[list[int]],
               subset: int) -> bool:
    """Whether a non-cut vertex w < v of child(subset) has a larger invariant
    than v, read from the parent's adjacency, degrees and pieces."""
    dv = subset.bit_count()
    mine = None
    for w, around in enumerate(pieces):
        dw = deg[w] + (subset >> w & 1)
        if dw < dv or not all(subset & p for p in around):
            continue
        if dw == dv:
            mine = mine or sorted(deg[u] + 1 for u in _bits(subset))
            theirs = [deg[u] + (subset >> u & 1) for u in _bits(padj[w])]
            if subset >> w & 1:
                theirs.append(dv)
            if sorted(theirs) <= mine:
                continue
        return True
    return False


def _level(n: int) -> tuple[Graph, ...]:
    if n not in _LEVELS:
        _LEVELS[n] = _build_level(n)
    return _LEVELS[n]


def enumerate_connected(n: int) -> Iterator[Graph]:
    """One canonical representative per isomorphism class of connected graphs.

    Deterministic order (sorted by canonical code).  Supported for
    1 <= n <= ``MAX_ENUMERATION_N``.
    """
    if not 1 <= n <= MAX_ENUMERATION_N:
        raise UnsupportedSizeError(
            f"built-in enumeration supports 1 <= n <= {MAX_ENUMERATION_N}, got {n}")
    return iter(_level(n))
