import itertools

import networkx as nx
import pytest

from pclab import (
    FamilySpec,
    Graph,
    UnsupportedSizeError,
    canonical_code,
    canonical_graph,
    generate,
    is_connected,
)
from pclab import generators, graph
from pclab.generators import (
    complete_multipartite,
    cycle4_plus_edge,
    cycle_graph,
    double_star,
    enumerate_connected,
    path_graph,
    star_plus_edge,
)

from conftest import count_connected_classes, to_nx


class TestFamilies:
    def test_double_star_2_3(self):
        g = double_star(2, 3)
        assert g.n == 5 and g.degree_sequence == (3, 2, 1, 1, 1)

    def test_double_star_2_2_is_p4(self):
        assert canonical_code(double_star(2, 2)) == canonical_code(path_graph(4))

    def test_star_plus_edge_5(self):
        g = star_plus_edge(5)
        assert g.n == 5 and g.m == 5
        triangles = sum(1 for a, b, c in itertools.combinations(range(5), 3)
                        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c))
        assert triangles == 1

    def test_k222(self):
        g = complete_multipartite(2, 2, 2)
        assert g.n == 6 and g.m == 12

    def test_cycle4_plus_edge(self):
        g = cycle4_plus_edge()
        assert g.n == 4 and g.m == 5 and g.degree_sequence == (3, 3, 2, 2)

    def test_generate_dispatch(self):
        assert generate(FamilySpec("cycle", (5,))) == cycle_graph(5)
        assert generate(FamilySpec("double_star", (2, 4))) == double_star(2, 4)
        assert generate(FamilySpec("cycle4_plus_e")) == cycle4_plus_edge()

    @pytest.mark.parametrize("spec", [
        FamilySpec("cycle", (2,)),
        FamilySpec("double_star", (0, 3)),
        FamilySpec("star", (1,)),
        FamilySpec("complete_multipartite", (3,)),
        FamilySpec("cycle4_plus_e", (1,)),
        FamilySpec("nonsense", ()),
        FamilySpec("cycle", (3, 4)),
        FamilySpec("path", (0,)),
        FamilySpec("star_plus_e", (2,)),
        FamilySpec("complete", (0,)),
        FamilySpec("complete_multipartite", (0, 2)),
    ])
    def test_invalid_parameters(self, spec):
        with pytest.raises(ValueError):
            generate(spec)


class TestEnumeration:
    def test_counts_match_cycle_index_oracle(self):
        for n in range(1, 9):
            assert len(list(enumerate_connected(n))) == count_connected_classes(n)

    def test_representatives_are_canonical_in_code_order(self):
        for n in range(1, 8):
            reps = list(enumerate_connected(n))
            assert all(canonical_graph(g) == g for g in reps)
            codes = [canonical_code(g) for g in reps]
            assert all(a < b for a, b in zip(codes, codes[1:]))

    def test_labelings_per_cold_build(self, monkeypatch):
        # the invariant prefilter labels 1,698 of the 7,815 children of levels 2..7
        monkeypatch.setattr(generators, "_LEVELS", {})
        calls = []
        label = generators._min_placement

        def counted(n, adj):
            calls.append(n)
            return label(n, adj)

        monkeypatch.setattr(generators, "_min_placement", counted)
        assert len(list(enumerate_connected(7))) == count_connected_classes(7)
        assert len(calls) <= 1698

    def test_refinements_per_cold_build(self, monkeypatch):
        # the 1,698 labelings of levels 2..7 refine 5,252 partitions, 2,479 of
        # them leaves: refinement settles most of the labeling before any branch
        monkeypatch.setattr(generators, "_LEVELS", {})
        calls = []
        refine = graph._refine

        def counted(adj, cells, fresh):
            calls.append(len(adj))
            return refine(adj, cells, fresh)

        monkeypatch.setattr(graph, "_refine", counted)
        assert len(list(enumerate_connected(7))) == count_connected_classes(7)
        assert len(calls) <= 5252

    def test_counts_match_labeled_brute_force(self):
        # every labeled connected graph on n <= 5 vertices, deduplicated
        for n in range(1, 6):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            codes = set()
            for bits in itertools.product((0, 1), repeat=len(pairs)):
                g = Graph.from_edges(n, [e for e, b in zip(pairs, bits) if b])
                if is_connected(g):
                    codes.add(canonical_code(g))
            assert len(codes) == len(list(enumerate_connected(n)))
            assert codes == {canonical_code(g) for g in enumerate_connected(n)}

    def test_all_connected_and_canonical(self):
        for g in enumerate_connected(6):
            assert is_connected(g)
            assert canonical_code(g) == canonical_code(g)  # stable

    def test_pairwise_nonisomorphic_small(self):
        reps = list(enumerate_connected(5))
        for a, b in itertools.combinations(reps, 2):
            assert not nx.is_isomorphic(to_nx(a), to_nx(b))

    def test_deterministic_order(self):
        first = [canonical_code(g) for g in enumerate_connected(6)]
        second = [canonical_code(g) for g in enumerate_connected(6)]
        assert first == second == sorted(first)

    def test_out_of_range(self):
        with pytest.raises(UnsupportedSizeError):
            list(enumerate_connected(9))
        with pytest.raises(UnsupportedSizeError):
            list(enumerate_connected(0))
