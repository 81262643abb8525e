import hashlib
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
    star_graph,
    star_plus_edge,
)
from pclab.graph6 import graph6_encode

from conftest import count_connected_classes, to_nx


GRAPH6_DIGESTS = {
    1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    2: "ada8d598e51a0bf0d4bb5976d5dc6cb088a0603072947b002d4d665c54cadb1f",
    3: "2c1256ffd0617e16898c604363be63a1bf9bd24d83d6227d4b2adb3360248bd3",
    4: "bf158ea8c37a3ec7a9b1386892d1a29fd3bf86878fb29262e467775aba813399",
    5: "5de92424af99346fc74681d00325ca422296d37d362efa7b7c982b2dbfbdfde3",
    6: "866bd05423740958859b20b1a746819e1bb517ade79aca24b6690a9de8576eae",
    7: "f81906217acf1fb95881278dfe338c00367e1edc8090d67459b708d8505e1ab6",
    8: "ba109d77f0da56eed19ba945ec20b5ee1b713cf3876010b84e42e012d5408ddf",
}


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

    def test_graph6_digests_are_pinned(self):
        # sha256 of each level's graph6 strings, one a line, in enumeration
        # order, as the build before the twin-prefix rule wrote them
        for n, digest in GRAPH6_DIGESTS.items():
            text = "\n".join(graph6_encode(g) for g in enumerate_connected(n))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, n

    def test_piece_test_matches_cut_vertex_walk(self):
        # the child P+v minus w is connected exactly when v's subset meets
        # every piece of P - w
        for k in range(1, 7):
            for parent in enumerate_connected(k):
                pieces = [graph._pieces(parent.adj, 1 << w) for w in range(k)]
                for subset in range(1, 1 << k):
                    adj = [a | (subset >> i & 1) << k for i, a in enumerate(parent.adj)]
                    adj.append(subset)
                    for w in range(k):
                        joined = all(subset & p for p in pieces[w])
                        assert joined != graph._is_cut_vertex(adj, w), (parent, subset, w)

    def test_twin_prefixes_keep_one_subset_per_twin_pattern(self):
        # K_{1,3} with center 0: the leaves are twins, so a subset holds the
        # center or not and the first 0..3 leaves
        star = star_graph(4)
        assert sorted(generators._twin_prefixes(star.adj)) == sorted(
            c | leaves for c in (0, 1) for leaves in (0, 2, 6, 14) if c | leaves)

    def test_labelings_per_cold_build(self, monkeypatch):
        # the twin-prefix rule and the invariant prefilter label 1,353 of the
        # 7,815 children of levels 2..7
        monkeypatch.setattr(generators, "_LEVELS", {})
        calls = []
        label = generators._min_placement

        def counted(n, adj):
            calls.append(n)
            return label(n, adj)

        monkeypatch.setattr(generators, "_min_placement", counted)
        assert len(list(enumerate_connected(7))) == count_connected_classes(7)
        assert len(calls) <= 1353

    def test_refinements_per_cold_build(self, monkeypatch):
        # the 1,353 labelings of levels 2..7 refine 4,268 partitions: refinement
        # settles most of the labeling before any branch
        monkeypatch.setattr(generators, "_LEVELS", {})
        calls = []
        refine = graph._refine

        def counted(adj, cells, fresh):
            calls.append(len(adj))
            return refine(adj, cells, fresh)

        monkeypatch.setattr(graph, "_refine", counted)
        assert len(list(enumerate_connected(7))) == count_connected_classes(7)
        assert len(calls) <= 4268

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
