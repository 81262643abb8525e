"""Acceptance suite: one test per criterion, each printing a PASS line.

Heavy artifacts (census solves, the n=8 enumeration) are shared through the
package-level caches, so criteria can run in any order.
"""
import random

from pclab import (
    EdgeColoring,
    canonical_code,
    classify_pc_n_minus_2,
    complement,
    endpoint_color_pairs,
    exact_pc,
    exists_k_coloring,
    has_strong_property,
    is_proper_connected,
    pc_lower_bound,
    pc_upper_bound,
    relabel,
    run_construction_sweep,
    run_ng_census,
    run_pc_census,
    structure_flags,
)
from pclab.generators import (
    cycle4_plus_edge,
    cycle_graph,
    double_star,
    enumerate_connected,
    star_plus_edge,
)
from pclab.graph import Graph, bridge_profile
from pclab.graph6 import graph6_encode

from conftest import naive_proper_paths, random_connected_graph, random_tree


def _report(number: int, text: str) -> None:
    print(f"[criterion {number}] {text}: PASS")


EXPECTED_PC_N_MINUS_2 = {
    3: [cycle_graph(3)],
    4: [double_star(2, 2), cycle_graph(4), cycle4_plus_edge(), star_plus_edge(4)],
    5: [double_star(2, 3), star_plus_edge(5)],
    6: [double_star(2, 4)],
    7: [double_star(2, 5)],
}


def test_criterion_1_pc_n_minus_2_classification():
    """Exact set equality between {pc = n-2} and the six-graph family, n = 3..7."""
    for n in range(3, 8):
        expected = {canonical_code(g) for g in EXPECTED_PC_N_MINUS_2[n]}
        assert len(expected) == len(EXPECTED_PC_N_MINUS_2[n])
        got = set()
        for g in enumerate_connected(n):
            result = exact_pc(g)
            assert result.exhausted, graph6_encode(g)
            if result.value == n - 2:
                got.add(canonical_code(g))
            assert classify_pc_n_minus_2(g).matches == (result.value == n - 2)
        assert got == expected, f"n={n}"
        report = run_pc_census(n)
        assert report.passed and not report.classification_mismatches
    _report(1, "pc = n-2 classes match the six-graph list for n=3..7")


def test_criterion_2_nordhaus_gaddum():
    """Sum bounds and the equality characterization for complement pairs."""
    report4 = run_ng_census(4)
    assert report4.passed
    assert all(p["sum"] == 4 for p in report4.ng_pairs)
    for n in range(5, 8):
        report = run_ng_census(n)
        assert report.passed, report.violations[:3]
        reference = canonical_code(double_star(2, n - 2))
        for pair in report.ng_pairs:
            assert 4 <= pair["sum"] <= n
            from pclab import graph6_decode

            g = graph6_decode(pair["graph6"])
            involved = (canonical_code(g) == reference
                        or canonical_code(complement(g)) == reference)
            assert (pair["sum"] == n) == involved
            if n == 5:
                assert pair["sum"] in (4, 5)
                assert (pair["sum"] == 5) == involved
    _report(2, "4 <= pc(G)+pc(comp) <= n with equality only at the double star")


def test_criterion_3_construction_sweeps_to_n8():
    """Every construction certificate at n <= 8 verifies with <= 2 colors."""
    ranges = {"thm31": range(5, 9), "thm36": range(4, 9),
              "thm33": range(4, 9), "prop37": range(3, 9)}
    total = 0
    for check, ns in ranges.items():
        for n in ns:
            report = run_construction_sweep(n, check)
            assert report.violations == [], (check, n, report.violations[:3])
            assert report.complete
            total += report.qualifying
    assert total > 1300  # the diameter >= 4 sweep alone exceeds a thousand
    _report(3, f"construction sweeps verified on {total} qualifying graphs, "
               "zero violations")


def test_criterion_4_triangle_free_complement_forces_two():
    for n in range(2, 8):
        report = run_construction_sweep(n, "thm38")
        assert report.passed, (n, report.violations[:3])
    _report(4, "triangle-free complement forces pc = 2 for all n <= 7")


def test_criterion_5_trees_match_max_degree():
    rng = random.Random(20240809)
    for i in range(200):
        t = random_tree(rng.randint(2, 10), rng)
        result = exact_pc(t)
        assert result.value == t.max_degree and result.exhausted
        coloring = pc_upper_bound(t).certificate
        assert coloring.k == t.max_degree
        assert is_proper_connected(t, coloring)
    _report(5, "200 random trees: pc = max degree, certificates verified")


def test_criterion_6_two_connected_bounds():
    two_connected = bipartite_strong = 0
    for n in range(3, 8):
        for g in enumerate_connected(n):
            flags = structure_flags(g)
            if not flags.two_connected:
                continue
            two_connected += 1
            result = exact_pc(g)
            assert result.exhausted and result.value <= 3, graph6_encode(g)
            if flags.bipartite:
                found = exists_k_coloring(g, 2, require_strong=True)
                assert found is not None, graph6_encode(g)
                assert has_strong_property(g, found)
                bipartite_strong += 1
    assert two_connected > 500 and bipartite_strong >= 10
    _report(6, f"{two_connected} two-connected graphs at pc <= 3; "
               f"{bipartite_strong} bipartite ones got strong 2-colorings")


def test_criterion_7_oracle_equivalence():
    rng = random.Random(741953)
    instances = 0
    while instances < 500:
        g = random_connected_graph(rng.randint(2, 6), rng)
        k = rng.randint(1, 4)
        coloring = EdgeColoring.from_sequence(
            g, [rng.randint(1, k) for _ in range(g.m)], k)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                want = naive_proper_paths(g, coloring, u, v)
                assert endpoint_color_pairs(g, coloring, u, v) == \
                    {(cs[0], cs[-1]) for _, cs in want}
        instances += 1
    _report(7, "500 colored instances agree with the exhaustive path oracle")


def test_criterion_8_solver_soundness():
    # certificate validity and bound sandwich across the census
    for n in range(2, 8):
        for g in enumerate_connected(n):
            result = exact_pc(g)
            assert result.exhausted
            assert is_proper_connected(g, result.certificate)
            assert result.certificate.k == result.value
            assert pc_lower_bound(g).value <= result.value <= pc_upper_bound(g).value

    # isomorphism invariance: 20 relabelings per graph at n <= 6
    rng = random.Random(555)
    for n in range(2, 7):
        for g in enumerate_connected(n):
            value = exact_pc(g).value
            for _ in range(20):
                perm = list(range(n))
                rng.shuffle(perm)
                assert exact_pc(relabel(g, perm)).value == value

    # spanning-subgraph monotonicity spot checks: 5 subgraphs per graph at n <= 6
    for n in range(2, 7):
        for g in enumerate_connected(n):
            value = exact_pc(g).value
            for _ in range(5):
                sub = _random_spanning_connected(g, rng)
                assert value <= exact_pc(sub).value
    _report(8, "certificates, sandwich, relabeling invariance, monotonicity: "
               "zero violations")


def _random_spanning_connected(g: Graph, rng: random.Random) -> Graph:
    edges = list(g.edges)
    while True:
        removable = [e for e in edges if e not in set(
            bridge_profile(Graph.from_edges(g.n, edges)).bridges)]
        if not removable or rng.random() < 0.5:
            return Graph.from_edges(g.n, edges)
        edges.remove(removable[rng.randrange(len(removable))])
