"""Constructive colorings of complements driven by diameter and triangle-freeness.

Each construction colors the complement of its input literally and
re-verifies the certificate before returning it.  The layered colorings of
Thms 3.1, 3.3 and 3.6 and the spanning complete bipartite ones share one side
rule, ``_color_sides``: two pairs of vertex sets, taken from G's far-root
layers or from the two sides, get color 1 on the complement edges between the
sets of a pair; every other edge gets color 2, which cannot break any
certified path.  No construction searches: a literal coloring that fails
verification raises ConstructionError.  Each theorem's construction raises
PreconditionError exactly outside its hypothesis, so ``THEOREMS`` is also what
the census sweeps and ``auto_pc2_complement`` select by.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .coloring import EdgeColoring, is_proper_connected
from .errors import ConstructionError, PreconditionError
from .generators import FamilySpec, generate
from .graph import (
    Graph,
    _min_placement,
    _view,
    bfs_distances,
    complement,
    components,
    induced_subgraph,
    is_connected,
)

CASE_N2_ONE = "n2_one"
CASE_N2_BIG = "n2_big"


@dataclass(frozen=True)
class Diam3Analysis:
    """Layers N0..N3 of a diameter-3 graph G around a far root, and their shape.

    The root, ``layers[0][0]``, is the far root x of ``Graph.layered_view``
    unless N2(x) and N3(x) are single vertices and N1(x) is larger; then it is
    the lone N3 vertex, whose N1 is the lone N2(x) vertex.  So the shape is
    ``n2_big`` (n2 >= 2) or ``n2_one`` (n2 = 1, the 4-path included).

    ``lower_bound`` holds for every such G.  The complement H is connected (the
    root is adjacent in H to N2 and N3, and each N1 vertex to all of N3) and not
    complete, so pc(H) >= 2.  Each of the n2_prime N2 vertices of H-degree 1 is
    a leaf at the root in H, and the one path between two such leaves runs
    through the root, so these pendant edges need distinct colors: pc(H) >=
    n2_prime (the bridges bound of Borozan et al., Discrete Math. 312, 2012).
    """

    layers: tuple[tuple[int, ...], ...]
    n2_prime: int
    case: str

    @property
    def lower_bound(self) -> int:
        return max(2, self.n2_prime)


@dataclass(frozen=True)
class ClassificationVerdict:
    matches: bool
    family: Optional[FamilySpec]
    witness: Optional[tuple[int, ...]]  # witness[v] = image vertex in the family instance


@dataclass(frozen=True)
class Construction:
    coloring: EdgeColoring
    branch: str


@dataclass(frozen=True)
class DispatchResult:
    outcome: str  # colored | lower_bound | no_construction
    construction: Optional[Construction] = None
    analysis: Optional[Diam3Analysis] = None
    reason: Optional[str] = None


def _verified(h: Graph, assignment: dict, k: int, branch: str) -> Construction:
    coloring = EdgeColoring(k, assignment)
    check = is_proper_connected(h, coloring)
    if not check.ok:
        raise ConstructionError(
            f"{branch}: certificate failed verification at pair {check.witness}")
    return Construction(coloring, branch)


def _key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _color_sides(h: Graph, lead_a: Sequence[int], rest_a: Sequence[int],
                 lead_b: Sequence[int], rest_b: Sequence[int], branch: str) -> Construction:
    """2-coloring of h: color 1 on its lead_a-lead_b and rest_a-rest_b edges, 2 elsewhere.

    The layered callers take the four sets from G's far-root layers as the
    paper's proofs do.  The others rest on pc(K_{m,n}) = 2 (Borozan et al.):
    h spans the complete bipartite graph between A = lead_a + rest_a and
    B = lead_b + rest_b, each lead a single vertex.  With both sides of size
    >= 2, each pair is joined by a path alternating between the sides, such as
    a_i-b_j-a_0-b_0-a_k colored 1, 2, 1, 2, and a vertex joined to a_0 by a
    color-2 edge goes on along a_0-b_0, which has color 1.  With sides of 2 and
    1 on the 4-path's complement, the path c-a_0-b_0-a_1 through the fourth
    vertex c is colored 2, 1, 2.  In Prop 3.7's two-clique case h is a vertex s
    joined to disjoint cliques P and Q, with lead_a = (s,), lead_b = P and
    rest_a = rest_b = Q: each p-s-q is colored 1, 2, and every other pair is
    a single edge.
    """
    assignment = dict.fromkeys(h.edges, 2)
    for side_a, side_b in ((lead_a, lead_b), (rest_a, rest_b)):
        for a in side_a:
            for b in side_b:
                if h.has_edge(a, b):
                    assignment[_key(a, b)] = 1
    return _verified(h, assignment, 2, branch)


def color_complement_diam_ge4(g: Graph) -> Construction:
    """2-coloring of the complement of a connected graph with diameter >= 4."""
    lv = g.layered_view
    if lv.diameter < 4:
        raise PreconditionError(f"diameter must be >= 4, got {lv.diameter}")
    root, layer1, _, layer3, layer4 = lv.layers[:5]
    # Thm 3.1: x-N3 and N1-N4 get color 1
    return _color_sides(complement(g), root, layer1, layer3, layer4, "diam_ge4")


def analyze_diam3(g: Graph) -> Diam3Analysis:
    """Layers, the pendant-edge counter, and the shape at diameter 3."""
    lv = g.layered_view
    if lv.diameter != 3:
        raise PreconditionError("analysis applies to diameter-3 graphs only")
    if len(lv.layers[2]) == len(lv.layers[3]) == 1 < len(lv.layers[1]):
        lv = _view(bfs_distances(g, lv.layers[3][0]))
    layers = lv.layers[:4]
    n2_prime = sum(1 for v in layers[2] if g.degree(v) == g.n - 2)  # H-degree 1
    return Diam3Analysis(layers, n2_prime, CASE_N2_BIG if len(layers[2]) >= 2 else CASE_N2_ONE)


def color_complement_diam3_trianglefree(g: Graph) -> Construction:
    """2-coloring of the complement of a triangle-free diameter-3 graph.

    The ``n2_one`` shape with triangles is colored too, but only by
    ``auto_pc2_complement``: this function takes Thm 3.3's hypothesis as it
    stands.
    """
    if not g.triangle_free:
        raise PreconditionError("input must be triangle-free")
    return _color_complement_diam3(g, analyze_diam3(g))


def _color_complement_diam3(g: Graph, ana: Diam3Analysis) -> Construction:
    h = complement(g)
    root, layer1, layer2, layer3 = ana.layers
    if ana.case == CASE_N2_ONE:
        # {x} u N1 against N3 spans the complement (Borozan et al.'s K_{m,n});
        # the middle vertex's edges keep color 2 and go on from x along x-N3[0]
        return _color_sides(h, root, layer1, layer3[:1], layer3[1:], "diam3_n2_one")
    # Thm 3.3: x-N2 and N1-N3 get color 1
    return _color_sides(h, root, layer1, layer2, layer3, "diam3_n2_big")


def color_complement_diam2_trianglefree(g: Graph) -> Construction:
    """2-coloring of the complement of a triangle-free diameter-2 graph."""
    if not g.triangle_free:
        raise PreconditionError("input must be triangle-free")
    lv = g.layered_view
    if lv.diameter != 2:
        raise PreconditionError("input must have diameter 2")
    h = complement(g)
    if not is_connected(h):
        raise PreconditionError("complement must be connected")
    # Thm 3.6: the complement edges between N1 and N2 get color 1, all of x's get 2
    return _color_sides(h, (), lv.layers[1], (), lv.layers[2], "diam2_triangle_free")


def color_complement_with_trivial_component(g: Graph) -> Construction:
    """2-coloring of the complement when g = K_1 plus one triangle-free component."""
    if not g.triangle_free:
        raise PreconditionError("input must be triangle-free")
    comps = components(g)
    if len(comps) != 2 or min(len(c) for c in comps) != 1:
        raise PreconditionError("input must have exactly two components, one trivial")
    solo = min(comps, key=len)[0]
    rest = [c for c in comps if len(c) > 1 or c[0] != solo][0]
    h = complement(g)
    if len(rest) == 1:
        return _verified(h, {e: 1 for e in h.edges}, 1, "trivial_component_join")
    g2, idx = induced_subgraph(g, rest)
    back = {i: v for v, i in idx.items()}
    h2 = complement(g2)
    if is_connected(h2):
        inner = auto_pc2_complement(g2).construction
        assignment = {_key(back[a], back[b]): c
                      for (a, b), c in inner.coloring.assignment.items()}
        for i, w in enumerate(sorted(rest)):
            assignment[_key(solo, w)] = i % 2 + 1  # the join vertex reaches all directly
        return _verified(h, assignment, 2, "trivial_component_join")
    # complement of the nontrivial component splits into two cliques
    parts = components(h2)
    if len(parts) != 2:  # pragma: no cover - triangle-freeness forces two cliques
        raise ConstructionError("expected exactly two cliques in the component's complement")
    clique_a, clique_b = ([back[i] for i in part] for part in parts)
    return _color_sides(h, (solo,), clique_b, clique_a, clique_b, "trivial_component_cliques")


#: the paper's complement theorems by name: each construction raises
#: PreconditionError exactly when its input is outside the theorem's hypothesis
THEOREMS: dict[str, Callable[[Graph], Construction]] = {
    "thm31": color_complement_diam_ge4,  # diameter >= 4
    "thm33": color_complement_diam3_trianglefree,  # triangle-free, diameter 3
    "thm36": color_complement_diam2_trianglefree,  # triangle-free, diameter 2, H connected
    "prop37": color_complement_with_trivial_component,  # K_1 plus a triangle-free component
}


def is_double_star_2(g: Graph) -> bool:
    """Whether the connected graph g is S(2, n - 2): a tree of maximum degree n - 2.

    The vertex of degree n - 2 misses one other vertex, which hangs from one
    of its neighbors; that neighbor is the center of degree 2.
    """
    return g.m == g.n - 1 and g.max_degree == g.n - 2


def _double_star_witness(g: Graph) -> tuple[int, ...]:
    """The map of g = S(2, n - 2), n >= 6, onto ``double_star(2, n - 2)``.

    The degree-2 center goes to 0, the degree-(n - 2) center to 1, the leaf at
    the degree-2 center to 2 and the other leaves to 3..n-1 in vertex order.
    """
    big = max(range(g.n), key=g.degree)
    small = next(v for v in g.neighbors(big) if g.degree(v) == 2)
    leaf = next(v for v in g.neighbors(small) if v != big)
    witness = [0] * g.n
    witness[small], witness[big], witness[leaf] = 0, 1, 2
    rest = (v for v in range(g.n) if v not in (small, big, leaf))
    for i, v in enumerate(rest, 3):
        witness[v] = i
    return tuple(witness)


def classify_pc_n_minus_2(g: Graph) -> ClassificationVerdict:
    """Membership in the six-graph family whose pc equals n-2, with a witness."""
    if not is_connected(g) or g.n < 3:
        raise PreconditionError("classification applies to connected graphs on >= 3 vertices")
    n = g.n
    if n >= 6:  # the family's one member here is S(2, n - 2)
        if not is_double_star_2(g):
            return ClassificationVerdict(False, None, None)
        return ClassificationVerdict(True, FamilySpec("double_star", (2, n - 2)),
                                     _double_star_witness(g))
    candidates = {
        3: [FamilySpec("cycle", (3,))],
        4: [FamilySpec("double_star", (2, 2)), FamilySpec("cycle", (4,)),
            FamilySpec("cycle4_plus_e"), FamilySpec("star_plus_e", (4,))],
        5: [FamilySpec("double_star", (2, 3)), FamilySpec("star_plus_e", (5,))],
    }[n]
    code_g, perm_g = None, None
    for spec in candidates:
        instance = generate(spec)
        if instance.degree_sequence != g.degree_sequence:
            continue
        if code_g is None:
            code_g, perm_g = _min_placement(n, g.adj)
        code_i, perm_i = _min_placement(n, instance.adj)
        if code_g != code_i:
            continue
        pos = [0] * n
        for i, old in enumerate(perm_g):
            pos[old] = i
        witness = tuple(perm_i[pos[v]] for v in range(n))
        for u, v in g.edges:
            if not instance.has_edge(witness[u], witness[v]):  # pragma: no cover
                raise AssertionError("canonical forms matched but the mapping is not an isomorphism")
        return ClassificationVerdict(True, spec, witness)
    return ClassificationVerdict(False, None, None)


def auto_pc2_complement(g: Graph) -> DispatchResult:
    """Route to whichever of ``THEOREMS`` applies, then color or bound the shapes
    no theorem names."""
    h = complement(g)
    if h.complete:
        built = _verified(h, {e: 1 for e in h.edges}, 1 if h.m else 0, "complement_complete")
        return DispatchResult("colored", built)
    if g.complete:
        raise PreconditionError("complete input: its complement is edgeless")
    comps = components(g)
    ana = analyze_diam3(g) if len(comps) == 1 and g.layered_view.diameter == 3 else None
    for construct in THEOREMS.values():  # the hypotheses are disjoint
        try:
            built = construct(g)
        except PreconditionError:
            continue
        return DispatchResult("colored", built, analysis=ana)
    if ana is not None:  # diameter 3 with triangles
        if ana.case == CASE_N2_ONE:
            return DispatchResult("colored", _color_complement_diam3(g, ana), analysis=ana)
        return DispatchResult("lower_bound", analysis=ana,
                              reason="diameter 3 with triangles: pc of the complement "
                                     "may be large; reporting the layer lower bound")
    if len(comps) == 1:  # diameter 2
        if g.triangle_free:
            return DispatchResult("no_construction",
                                  reason="complement is disconnected")
        return DispatchResult("no_construction",
                              reason="diameter 2 with triangles: no 2-coloring available")
    if len(comps) == 2 and min(len(c) for c in comps) == 1:
        return DispatchResult("no_construction",
                              reason="two components with triangles: no 2-coloring available")
    # the largest component has >= 2 vertices (else h is complete), and so do
    # the other vertices here: h spans the complete bipartite graph between
    # them, and pc(K_{m,n}) = 2 (Borozan et al.)
    big = max(comps, key=len)
    rest = [v for v in range(g.n) if v not in big]
    built = _color_sides(h, big[:1], big[1:], rest[:1], rest[1:], "multipartite")
    return DispatchResult("colored", built)
