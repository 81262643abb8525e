"""Constructive colorings of complements driven by diameter and triangle-freeness.

Each construction colors the complement of its input literally with two
colors and re-verifies the certificate before returning it; extra complement
edges outside the spanning structure a proof colors get color 2, which cannot
break any certified path.  No construction searches: a literal coloring that
fails verification raises ConstructionError.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .coloring import EdgeColoring, is_proper_connected
from .errors import ConstructionError, PreconditionError
from .generators import FamilySpec, generate
from .graph import (
    Graph,
    LayeredView,
    canonical_form,
    complement,
    components,
    induced_subgraph,
    is_connected,
    layered_view,
)
from .solver import pc_upper_bound

CASE_ALL_ONES = "all_ones"
CASE_N2_ONE_N3_BIG = "n2_one_n3_big"
CASE_N1_BIG_REST_ONE = "n1_big_rest_one"
CASE_N2_BIG = "n2_big"


@dataclass(frozen=True)
class Diam3Analysis:
    """Layer profile of a diameter-3 graph around a far root.

    n1_prime counts N1 vertices with no neighbor inside N1; n2_prime counts
    N2 vertices of degree 1 in the complement.  Depending on the case the
    applicable value is a lower bound on pc(complement).
    """

    root: int
    n1: int
    n2: int
    n3: int
    n1_prime: int
    n2_prime: int
    case: str
    lower_bound: Optional[int]


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


def _color_spanning_bipartite(h: Graph, side_a: Sequence[int], side_b: Sequence[int],
                              branch: str) -> Construction:
    """2-coloring of h when h spans a complete bipartite graph on side_a, side_b.

    An edge a-b gets color 1 exactly when both or neither of a and b lead their
    side (index 0); every other edge of h gets color 2.  With both sides of size
    >= 2, each pair is joined by a path alternating between the sides, such as
    a_i-b_j-a_0-b_0-a_k colored 1, 2, 1, 2, and a vertex joined to side_a[0] by
    a color-2 edge goes on along side_a[0]-side_b[0], which has color 1.
    """
    assignment = {e: 2 for e in h.edges}
    for i, a in enumerate(side_a):
        for j, b in enumerate(side_b):
            if (i == 0) == (j == 0):
                assignment[_key(a, b)] = 1
    return _verified(h, assignment, 2, branch)


def color_complement_diam_ge4(g: Graph) -> Construction:
    """2-coloring of the complement of a connected graph with diameter >= 4."""
    return _color_complement_diam_ge4(g, layered_view(g))


def _color_complement_diam_ge4(g: Graph, lv: LayeredView) -> Construction:
    if lv.diameter < 4:
        raise PreconditionError(f"diameter must be >= 4, got {lv.diameter}")
    x = lv.root
    n1, n3, n4 = lv.layers[1], lv.layers[3], lv.layers[4]
    h = complement(g)
    assignment = {e: 2 for e in h.edges}
    for u in n3:
        assignment[_key(x, u)] = 1
    for u in n1:
        for v in n4:
            assignment[_key(u, v)] = 1
    return _verified(h, assignment, 2, "diam_ge4")


def analyze_diam3(g: Graph) -> Diam3Analysis:
    """Layer sizes, the two pendant-edge counters, and the case tag at diameter 3."""
    return _analyze_diam3(g, layered_view(g))


def _analyze_diam3(g: Graph, lv: LayeredView) -> Diam3Analysis:
    if lv.diameter != 3:
        raise PreconditionError("analysis applies to diameter-3 graphs only")
    layer1, layer2, layer3 = lv.layers[1], lv.layers[2], lv.layers[3]
    n1, n2, n3 = len(layer1), len(layer2), len(layer3)
    mask1 = 0
    for v in layer1:
        mask1 |= 1 << v
    n1_prime = sum(1 for v in layer1 if g.adj[v] & mask1 == 0)
    h = complement(g)
    n2_prime = sum(1 for v in layer2 if h.degree(v) == 1)
    if n2 >= 2:
        case, lower = CASE_N2_BIG, n2_prime
    elif n1 == 1 and n3 == 1:
        case, lower = CASE_ALL_ONES, None
    elif n3 >= 2:
        case, lower = CASE_N2_ONE_N3_BIG, None
    else:
        case, lower = CASE_N1_BIG_REST_ONE, n1_prime
    return Diam3Analysis(lv.root, n1, n2, n3, n1_prime, n2_prime, case, lower)


def color_complement_diam3_trianglefree(g: Graph) -> Construction:
    """2-coloring of the complement at diameter 3.

    The two singleton-middle cases need no triangle-freeness; the remaining
    cases do.  Every coloring is literal and re-verified; one that fails
    raises ConstructionError.
    """
    lv = layered_view(g)
    return _color_complement_diam3(g, lv, _analyze_diam3(g, lv), g.triangle_free)


def _color_complement_diam3(g: Graph, lv: LayeredView, ana: Diam3Analysis,
                            triangle_free: bool) -> Construction:
    h = complement(g)
    x = ana.root
    layer1, layer2, layer3 = lv.layers[1], lv.layers[2], lv.layers[3]

    if ana.case == CASE_ALL_ONES:  # g is the 4-path, so its complement is one too
        return Construction(pc_upper_bound(h).certificate, "diam3_all_ones")
    if ana.case == CASE_N2_ONE_N3_BIG:
        # {x} u N1 against N3 spans the complement; the middle vertex's edges
        # keep color 2 and go on from x along x-N3[0]
        return _color_spanning_bipartite(h, (x,) + layer1, layer3, "diam3_n2_one_n3_big")

    if not triangle_free:
        raise PreconditionError(
            "this layer shape needs a triangle-free input (pc of the complement may be large)")

    if ana.case == CASE_N1_BIG_REST_ONE:
        x2, x3 = layer2[0], layer3[0]
        assignment = {e: 2 for e in h.edges}
        assignment[_key(x, x2)] = 1
        for v in layer1:
            assignment[_key(x3, v)] = 1
        branch = "diam3_n1_big_rest_one"
    else:  # CASE_N2_BIG
        assignment = {e: 2 for e in h.edges}
        for v in layer2:
            assignment[_key(x, v)] = 1
        for u in layer1:
            for w in layer3:
                assignment[_key(u, w)] = 1
        branch = "diam3_n2_big"
    return _verified(h, assignment, 2, branch)


def color_complement_diam2_trianglefree(g: Graph) -> Construction:
    """2-coloring of the complement of a triangle-free diameter-2 graph."""
    lv = layered_view(g)
    if not g.triangle_free:
        raise PreconditionError("input must be triangle-free")
    if lv.diameter != 2:
        raise PreconditionError("input must have diameter 2")
    h = complement(g)
    if not is_connected(h):
        raise PreconditionError("complement must be connected")
    x = lv.root
    layer1 = set(lv.layers[1])
    assignment = {}
    for u, v in h.edges:
        cross = (u in layer1) != (v in layer1) and x not in (u, v)
        assignment[(u, v)] = 1 if cross else 2
    return _verified(h, assignment, 2, "diam2_triangle_free")


def color_complement_with_trivial_component(g: Graph) -> Construction:
    """2-coloring of the complement when g = K_1 plus one triangle-free component."""
    comps = components(g)
    if len(comps) != 2 or min(len(c) for c in comps) != 1:
        raise PreconditionError("input must have exactly two components, one trivial")
    if not g.triangle_free:
        raise PreconditionError("input must be triangle-free")
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
    clique_a = {back[i] for i in parts[0]}
    assignment = {}
    for u, v in h.edges:
        if u == solo or v == solo:
            other = v if u == solo else u
            assignment[(u, v)] = 1 if other in clique_a else 2
        else:
            assignment[(u, v)] = 2 if u in clique_a else 1
    return _verified(h, assignment, 2, "trivial_component_cliques")


def classify_pc_n_minus_2(g: Graph) -> ClassificationVerdict:
    """Membership in the six-graph family whose pc equals n-2, with a witness."""
    if not is_connected(g) or g.n < 3:
        raise PreconditionError("classification applies to connected graphs on >= 3 vertices")
    n = g.n
    candidates: list[FamilySpec] = []
    if n == 3:
        candidates.append(FamilySpec("cycle", (3,)))
    if n == 4:
        candidates += [FamilySpec("double_star", (2, 2)), FamilySpec("cycle", (4,)),
                       FamilySpec("cycle4_plus_e"), FamilySpec("star_plus_e", (4,))]
    if n == 5:
        candidates += [FamilySpec("double_star", (2, 3)), FamilySpec("star_plus_e", (5,))]
    if n >= 6:
        candidates.append(FamilySpec("double_star", (2, n - 2)))
    code_g, perm_g = None, None
    for spec in candidates:
        instance = generate(spec)
        if instance.degree_sequence != g.degree_sequence:
            continue
        if code_g is None:
            code_g, perm_g = canonical_form(g)
        code_i, perm_i = canonical_form(instance)
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
    """Route to whichever complement coloring applies; report bounds otherwise."""
    h = complement(g)
    if h.complete:
        built = _verified(h, {e: 1 for e in h.edges}, 1 if h.m else 0, "complement_complete")
        return DispatchResult("colored", built)
    comps = components(g)
    if len(comps) == 1:
        if g.complete:
            raise PreconditionError("complete input: its complement is edgeless")
        lv = layered_view(g)
        if lv.diameter >= 4:
            return DispatchResult("colored", _color_complement_diam_ge4(g, lv))
        if lv.diameter == 3:
            ana = _analyze_diam3(g, lv)
            triangle_free = g.triangle_free
            if triangle_free or ana.case in (CASE_ALL_ONES, CASE_N2_ONE_N3_BIG):
                built = _color_complement_diam3(g, lv, ana, triangle_free)
                return DispatchResult("colored", built, analysis=ana)
            return DispatchResult("lower_bound", analysis=ana,
                                  reason="diameter 3 with triangles: pc of the complement "
                                         "may be large; reporting the layer lower bound")
        if g.triangle_free:
            if is_connected(h):
                return DispatchResult("colored", color_complement_diam2_trianglefree(g))
            return DispatchResult("no_construction",
                                  reason="complement is disconnected")
        return DispatchResult("no_construction",
                              reason="diameter 2 with triangles: no 2-coloring available")
    sizes = sorted(len(c) for c in comps)
    if len(comps) == 2 and sizes[0] == 1:
        if g.triangle_free:
            return DispatchResult("colored", color_complement_with_trivial_component(g))
        return DispatchResult("no_construction",
                              reason="two components with triangles: no 2-coloring available")
    # the largest component has >= 2 vertices (else h is complete), and so do
    # the other vertices here: h spans the complete bipartite graph between them
    big = max(comps, key=len)
    rest = [v for v in range(g.n) if v not in big]
    return DispatchResult("colored", _color_spanning_bipartite(h, big, rest, "multipartite"))
