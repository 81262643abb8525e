import random

import pytest

import pclab.constructions
from pclab import (
    ConnectivityCheck,
    ConstructionError,
    EdgeColoring,
    Graph,
    PreconditionError,
    analyze_diam3,
    auto_pc2_complement,
    classify_pc_n_minus_2,
    color_complement_diam2_trianglefree,
    color_complement_diam3_trianglefree,
    color_complement_diam_ge4,
    color_complement_with_trivial_component,
    complement,
    components,
    diameter,
    exact_pc,
    generate,
    graph6_encode,
    is_connected,
    is_proper_connected,
    pc_upper_bound,
    structure_flags,
)
from pclab import graph
from pclab.constructions import (
    CASE_ALL_ONES,
    CASE_N1_BIG_REST_ONE,
    CASE_N2_BIG,
    CASE_N2_ONE_N3_BIG,
)
from pclab.generators import (
    complete_graph,
    complete_multipartite,
    cycle_graph,
    double_star,
    enumerate_connected,
    path_graph,
    star_graph,
    star_plus_edge,
)

from conftest import random_tree


def with_isolated_vertex(g: Graph) -> Graph:
    return Graph(g.n + 1, g.adj + (0,))


class TestTreeColoring:
    # a tree is its own spanning tree: the upper bound colors it with max-degree colors
    def test_star_uses_four_colors(self):
        coloring = pc_upper_bound(star_graph(5)).certificate
        assert coloring.k == 4 and len(coloring.used_colors()) == 4

    def test_path_alternates(self):
        coloring = pc_upper_bound(path_graph(6)).certificate
        assert coloring.k == 2
        assert [coloring.color(i, i + 1) for i in range(5)] == [1, 2, 1, 2, 1]

    def test_double_star(self):
        t = double_star(2, 4)
        coloring = pc_upper_bound(t).certificate
        assert coloring.k == 4
        assert is_proper_connected(t, coloring)

    def test_proper_at_every_vertex(self):
        rng = random.Random(211)
        for _ in range(40):
            t = random_tree(rng.randint(2, 10), rng)
            coloring = pc_upper_bound(t).certificate
            assert coloring.k == t.max_degree
            for v in range(t.n):
                incident = [coloring.color(v, w) for w in t.neighbors(v)]
                assert len(incident) == len(set(incident))


class TestDiamGe4:
    @pytest.mark.parametrize("g", [path_graph(5), path_graph(6), cycle_graph(9),
                                   cycle_graph(10), path_graph(9)])
    def test_two_coloring_verifies(self, g):
        built = color_complement_diam_ge4(g)
        assert built.coloring.k == 2
        assert is_proper_connected(complement(g), built.coloring)

    def test_agreement_with_solver(self):
        for g in (path_graph(5), path_graph(6), cycle_graph(9)):
            assert exact_pc(complement(g)).value == 2

    def test_rejects_small_diameter(self):
        with pytest.raises(PreconditionError):
            color_complement_diam_ge4(cycle_graph(6))


class TestDiam3Analysis:
    def test_p4_all_ones(self):
        ana = analyze_diam3(path_graph(4))
        assert (ana.n1, ana.n2, ana.n3) == (1, 1, 1)
        assert ana.case == CASE_ALL_ONES and ana.lower_bound is None

    def test_double_star_3_3(self):
        ana = analyze_diam3(double_star(3, 3))
        assert (ana.n1, ana.n2, ana.n3) == (1, 2, 2)
        assert ana.case == CASE_N2_BIG

    def test_n1_big_case(self):
        # root 0 sees two middle-free neighbors, then single vertices at 2 and 3
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
        ana = analyze_diam3(g)
        assert (ana.n1, ana.n2, ana.n3) == (2, 1, 1)
        assert ana.case == CASE_N1_BIG_REST_ONE
        assert ana.n1_prime == 2 and ana.lower_bound == 2

    def test_lower_bound_cases_found_in_census(self):
        # graphs where the reported layer bound is >= 2, confirmed by the solver
        found = 0
        for n in range(4, 7):
            for g in enumerate_connected(n):
                if diameter(g) != 3:
                    continue
                ana = analyze_diam3(g)
                if ana.lower_bound is not None and ana.lower_bound >= 2:
                    h = complement(g)
                    assert is_connected(h)  # diameter >= 3 forces this
                    assert exact_pc(h).value >= ana.lower_bound
                    found += 1
        assert found >= 3

    def test_rejects_wrong_diameter(self):
        with pytest.raises(PreconditionError):
            analyze_diam3(path_graph(5))


class TestDiam3Coloring:
    def test_p4(self):
        built = color_complement_diam3_trianglefree(path_graph(4))
        assert built.branch == "diam3_all_ones"
        assert is_proper_connected(complement(path_graph(4)), built.coloring)
        assert exact_pc(complement(path_graph(4))).value == 2

    @pytest.mark.parametrize("g", [cycle_graph(6), cycle_graph(7), double_star(3, 3),
                                   double_star(2, 3)])
    def test_triangle_free_diam3_verifies(self, g):
        built = color_complement_diam3_trianglefree(g)
        assert built.coloring.k <= 2
        assert is_proper_connected(complement(g), built.coloring)
        assert exact_pc(complement(g)).value == 2

    def test_failed_literal_coloring_raises(self, monkeypatch):
        # no search stands behind a literal coloring
        monkeypatch.setattr(pclab.constructions, "is_proper_connected",
                            lambda h, coloring: ConnectivityCheck(False, (0, 1)))
        with pytest.raises(ConstructionError, match="diam3_n2_big"):
            color_complement_diam3_trianglefree(cycle_graph(6))

    def test_singleton_middle_without_triangle_freeness(self):
        # triangle at the near side, single middle vertex, big far side: the
        # spanning-bipartite construction applies even with triangles
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (3, 5)])
        assert not structure_flags(g).triangle_free
        assert analyze_diam3(g).case == CASE_N2_ONE_N3_BIG
        built = color_complement_diam3_trianglefree(g)
        assert built.branch == "diam3_n2_one_n3_big" and built.coloring.k == 2
        assert is_proper_connected(complement(g), built.coloring)

    def test_triangles_with_big_middle_rejected(self):
        # diameter 3, triangles, many-vertex layers: the construction must refuse
        refused = 0
        for g in enumerate_connected(6):
            if diameter(g) != 3 or structure_flags(g).triangle_free:
                continue
            if analyze_diam3(g).case not in (CASE_N2_BIG, CASE_N1_BIG_REST_ONE):
                continue
            with pytest.raises(PreconditionError):
                color_complement_diam3_trianglefree(g)
            refused += 1
        assert refused > 0


class TestDiam2Coloring:
    def test_c5(self):
        built = color_complement_diam2_trianglefree(cycle_graph(5))
        assert built.coloring.k == 2
        assert is_proper_connected(complement(cycle_graph(5)), built.coloring)

    def test_petersen(self):
        g = Graph.from_edges(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                                  (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
                                  (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)])
        built = color_complement_diam2_trianglefree(g)
        assert built.coloring.k == 2
        assert is_proper_connected(complement(g), built.coloring)

    def test_k23_rejected_for_disconnected_complement(self):
        with pytest.raises(PreconditionError, match="complement"):
            color_complement_diam2_trianglefree(complete_multipartite(2, 3))

    def test_triangles_rejected(self):
        with pytest.raises(PreconditionError, match="triangle"):
            color_complement_diam2_trianglefree(complete_graph(3))


class TestTrivialComponent:
    @pytest.mark.parametrize("inner", [cycle_graph(5), complete_multipartite(2, 3),
                                       path_graph(4), path_graph(6), star_graph(4)])
    def test_join_colorings_verify(self, inner):
        g = with_isolated_vertex(inner)
        built = color_complement_with_trivial_component(g)
        assert built.coloring.k <= 2
        assert is_proper_connected(complement(g), built.coloring)

    def test_two_clique_branch(self):
        g = with_isolated_vertex(complete_multipartite(2, 3))
        built = color_complement_with_trivial_component(g)
        assert built.branch == "trivial_component_cliques"

    def test_solver_agreement(self):
        g = with_isolated_vertex(path_graph(4))
        assert exact_pc(complement(g)).value == 2

    def test_rejects_triangles(self):
        with pytest.raises(PreconditionError):
            color_complement_with_trivial_component(with_isolated_vertex(complete_graph(3)))

    def test_rejects_two_nontrivial_components(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(PreconditionError):
            color_complement_with_trivial_component(g)


class TestClassification:
    def test_double_star_on_seven(self):
        verdict = classify_pc_n_minus_2(double_star(2, 5))
        assert verdict.matches and verdict.family.tag == "double_star"

    def test_p4_matches(self):
        verdict = classify_pc_n_minus_2(path_graph(4))
        assert verdict.matches and verdict.family.tag == "double_star"

    def test_c5_no_match(self):
        assert not classify_pc_n_minus_2(cycle_graph(5)).matches

    def test_witness_is_isomorphism(self):
        import random as _random

        from pclab import relabel

        rng = _random.Random(331)
        for g0 in (star_plus_edge(5), cycle_graph(4), double_star(2, 4)):
            perm = list(range(g0.n))
            rng.shuffle(perm)
            g = relabel(g0, perm)
            verdict = classify_pc_n_minus_2(g)
            assert verdict.matches
            instance = generate(verdict.family)
            for u, v in g.edges:
                assert instance.has_edge(verdict.witness[u], verdict.witness[v])

    def test_equivalence_with_exact_pc_small(self):
        for n in range(3, 7):
            for g in enumerate_connected(n):
                assert classify_pc_n_minus_2(g).matches == (exact_pc(g).value == n - 2)


class TestAutoDispatcher:
    def test_trees_with_long_diameter(self):
        rng = random.Random(337)
        done = 0
        while done < 15:
            t = random_tree(rng.randint(4, 8), rng)
            if diameter(t) < 3:
                continue
            result = auto_pc2_complement(t)
            assert result.outcome == "colored"
            assert is_proper_connected(complement(t), result.construction.coloring)
            done += 1

    def test_triangle_free_complement_diam3_means_pc2(self):
        # orientation check: if the complement is triangle-free with diameter 3,
        # dispatching on the complement colors the original with 2 colors
        found = 0
        for g in enumerate_connected(6):
            h = complement(g)
            if not is_connected(h) or not structure_flags(h).triangle_free:
                continue
            if diameter(h) != 3:
                continue
            result = auto_pc2_complement(h)
            assert result.outcome == "colored"
            assert is_proper_connected(g, result.construction.coloring)
            assert exact_pc(g).value == 2
            found += 1
        assert found > 0

    def test_diam3_with_triangles_reports_bound(self):
        reported = 0
        for g in enumerate_connected(6):
            if diameter(g) != 3 or structure_flags(g).triangle_free:
                continue
            result = auto_pc2_complement(g)
            if result.outcome == "lower_bound":
                assert result.analysis is not None
                assert result.construction is None
                reported += 1
            else:
                assert result.outcome == "colored"  # singleton-middle shapes
        assert reported > 0

    def test_multipartite_branch(self):
        g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])  # three K_2 components
        result = auto_pc2_complement(g)
        assert result.outcome == "colored"
        assert result.construction.branch == "multipartite"
        assert is_proper_connected(complement(g), result.construction.coloring)

    def test_spanning_bipartite_branches_cover_every_shape(self):
        # every class at n <= 7: the connected ones, and the disconnected ones
        # as the complements of connected classes
        seen = {"multipartite": 0, "diam3_n2_one_n3_big": 0}
        for n in range(2, 8):
            for c in enumerate_connected(n):
                h = complement(c)
                for g in [c] if is_connected(h) else [c, h]:
                    sizes = sorted(map(len, components(g)))
                    if len(sizes) == 1:
                        if diameter(g) != 3 or analyze_diam3(g).case != CASE_N2_ONE_N3_BIG:
                            continue
                        branch = "diam3_n2_one_n3_big"
                    elif complement(g).complete or sizes[:2] == [1, n - 1]:
                        continue
                    else:
                        branch = "multipartite"
                    built = auto_pc2_complement(g).construction
                    assert built.branch == branch and built.coloring.k == 2, graph6_encode(g)
                    assert is_proper_connected(complement(g), built.coloring)
                    seen[branch] += 1
        assert all(seen.values()), seen

    def test_complete_complement(self):
        g = Graph(4, (0, 0, 0, 0))  # empty graph: complement is K_4
        result = auto_pc2_complement(g)
        assert result.construction.branch == "complement_complete"
        assert result.construction.coloring.k == 1

    def test_complete_input_rejected(self):
        with pytest.raises(PreconditionError):
            auto_pc2_complement(complete_graph(5))

    def test_diam3_builds_the_far_root_view_once(self, monkeypatch):
        # one BFS per vertex for the view; components, structure_flags and the
        # checker's connectivity test walk layers without distances
        calls = []
        bfs = graph.bfs_distances

        def counted(g, root):
            calls.append(root)
            return bfs(g, root)

        monkeypatch.setattr(graph, "bfs_distances", counted)
        result = auto_pc2_complement(cycle_graph(6))
        assert result.construction.branch == "diam3_n2_big"
        assert len(calls) <= 6

    def test_diam2_with_triangles_has_no_construction(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
        assert diameter(g) == 2 and not structure_flags(g).triangle_free
        result = auto_pc2_complement(g)
        assert result.outcome == "no_construction"


class TestCensusAgreement:
    def test_constructions_match_solver_across_census(self):
        """Wherever a construction applies at n <= 7, its color count equals
        the exact pc of the complement."""
        checked = 0
        for n in range(4, 8):
            for g in enumerate_connected(n):
                flags = structure_flags(g)
                d = diameter(g)
                built = None
                if d >= 4:
                    built = color_complement_diam_ge4(g)
                elif d == 3 and flags.triangle_free:
                    built = color_complement_diam3_trianglefree(g)
                elif (d == 2 and flags.triangle_free
                      and is_connected(complement(g))):
                    built = color_complement_diam2_trianglefree(g)
                if built is None:
                    continue
                value = exact_pc(complement(g)).value
                assert value == built.coloring.k == 2
                checked += 1
        assert checked > 100
