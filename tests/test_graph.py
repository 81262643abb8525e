import random
from collections import Counter
from itertools import combinations, permutations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclab import (
    Graph,
    PreconditionError,
    UnsupportedSizeError,
    bridge_profile,
    canonical_code,
    canonical_graph,
    complement,
    components,
    diameter,
    relabel,
    structure_flags,
)
from pclab import graph
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
from pclab.graph import _min_placement, _twin_classes, bipartition, induced_subgraph

from conftest import random_connected_graph, random_tree, to_nx


def graphs(max_n=8):
    """Hypothesis strategy: a random simple graph from its upper-triangle bits."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            lambda bits: Graph.from_edges(
                n, [e for e, keep in zip([(u, v) for u in range(n)
                                          for v in range(u + 1, n)], bits) if keep]),
            st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                     max_size=n * (n - 1) // 2)))


def column_string(adj, placement):
    """The code format read off directly: bit k-1-j of column k is the edge
    between the vertices at positions j < k."""
    return tuple(sum((adj[placement[k]] >> placement[j] & 1) << (k - 1 - j) for j in range(k))
                 for k in range(len(placement)))


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(3, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(3, [(0, 3)])

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(ValueError, match="vertex count"):
            Graph.from_edges(0, [])
        with pytest.raises(ValueError, match="nonempty"):
            induced_subgraph(path_graph(3), [])

    def test_relabel_rejects_a_non_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            relabel(path_graph(3), [0, 0, 1])

    def test_edges_sorted(self):
        g = Graph.from_edges(4, [(2, 3), (0, 2), (0, 1)])
        assert g.edges == ((0, 1), (0, 2), (2, 3))
        assert g.m == 3


class TestComplement:
    def test_p4_self_complementary(self):
        g = path_graph(4)
        assert canonical_code(g) == canonical_code(complement(g))

    def test_k5_complement_empty(self):
        assert complement(complete_graph(5)).m == 0

    def test_c5_self_complementary(self):
        g = cycle_graph(5)
        assert canonical_code(g) == canonical_code(complement(g))

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_involution(self, g):
        assert complement(complement(g)) == g
        assert complement(g).m == g.n * (g.n - 1) // 2 - g.m


class TestLayeredView:
    def test_path_end(self):
        lv = path_graph(5).layered_view
        assert lv.root == 0 and [len(layer) for layer in lv.layers] == [1, 1, 1, 1, 1]
        assert lv.diameter == 4

    def test_cycle(self):
        lv = cycle_graph(5).layered_view
        assert lv.root == 0 and [len(layer) for layer in lv.layers] == [1, 2, 2, 0, 0]
        assert lv.diameter == 2

    def test_star_far_root_is_a_leaf(self):
        lv = star_graph(5).layered_view
        assert lv.root == 1 and [len(layer) for layer in lv.layers] == [1, 1, 3, 0, 0]
        assert lv.diameter == 2

    def test_far_bucket_collects_distance_ge_4(self):
        lv = path_graph(7).layered_view
        assert lv.layers[4] == (4, 5, 6)

    def test_layers_partition(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_connected_graph(rng.randint(2, 8), rng)
            lv = g.layered_view
            seen = sorted(v for layer in lv.layers for v in layer)
            assert seen == list(range(g.n))

    def test_disconnected_rejected(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(PreconditionError):
            g.layered_view


class TestStructureFlags:
    def test_c5(self):
        f = structure_flags(cycle_graph(5))
        assert (f.connected, f.complete, f.bipartite, f.triangle_free, f.two_connected) == \
            (True, False, False, True, True)

    def test_k4(self):
        f = structure_flags(complete_graph(4))
        assert f.complete and not f.triangle_free and f.two_connected

    def test_double_star(self):
        f = structure_flags(double_star(2, 3))
        assert f.connected and f.bipartite and f.triangle_free and not f.two_connected

    def test_against_networkx(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_connected_graph(rng.randint(3, 8), rng)
            G = to_nx(g)
            f = structure_flags(g)
            assert f.connected == nx.is_connected(G)
            assert f.bipartite == nx.is_bipartite(G)
            assert f.triangle_free == (sum(nx.triangles(G).values()) == 0)
            assert f.two_connected == (g.n >= 3 and not list(nx.articulation_points(G)))


class TestBridges:
    def test_tree_all_edges_bridges(self):
        t = double_star(3, 4)
        profile = bridge_profile(t)
        assert len(profile.bridges) == t.n - 1
        assert profile.b == t.max_degree

    def test_cycle_none(self):
        assert bridge_profile(cycle_graph(5)).bridges == ()
        assert bridge_profile(cycle_graph(5)).b == 0

    def test_paw_one_bridge(self):
        profile = bridge_profile(star_plus_edge(4))
        assert len(profile.bridges) == 1 and profile.b == 1

    def test_against_networkx(self):
        # random graphs, every connected class at n <= 7, and sparse graphs up
        # to graph6's largest order: a tree plus a few chords, where the detour
        # around a non-bridge is long
        rng = random.Random(23)
        inputs = [random_connected_graph(rng.randint(3, 9), rng) for _ in range(40)]
        inputs += [g for n in range(1, 8) for g in enumerate_connected(n)]
        for n in range(20, 63):
            chords = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 4))}
            inputs.append(Graph.from_edges(n, sorted(set(random_tree(n, rng).edges) | chords)))
        for g in inputs:
            G = to_nx(g)
            bridges = sorted((min(u, v), max(u, v)) for u, v in nx.bridges(G))
            profile = bridge_profile(g)
            assert profile.bridges == tuple(bridges)
            assert profile.b == max(Counter(v for e in bridges for v in e).values(), default=0)
            assert structure_flags(g).two_connected == (g.n >= 3 and nx.is_biconnected(G))
            assert (bipartition(g) is None) == (not nx.is_bipartite(G))

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            bridge_profile(Graph.from_edges(3, [(0, 1)]))


class TestComponents:
    def test_split(self):
        g = Graph.from_edges(5, [(0, 1), (2, 3)])
        assert components(g) == ((0, 1), (2, 3), (4,))

    def test_diameter_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            diameter(Graph.from_edges(2, []))


class TestTraversalAgainstNetworkx:
    def test_components_sides_and_far_root(self):
        rng = random.Random(41)
        for n in range(1, 10):
            for _ in range(40):
                p = rng.random()  # sparse draws leave many graphs disconnected
                g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                         if rng.random() < p])
                G = to_nx(g)
                comps = components(g)
                assert comps == tuple(sorted(tuple(sorted(c)) for c in nx.connected_components(G)))
                sides = bipartition(g)
                assert (sides is None) == (not nx.is_bipartite(G))
                flags = structure_flags(g)
                assert flags.connected == (len(comps) == 1)
                assert flags.bipartite == (sides is not None)
                if sides is not None:
                    side0, side1 = sides
                    assert sorted(side0 + side1) == list(range(n))
                    assert all((u in side0) != (v in side0) for u, v in g.edges)
                    assert all(comp[0] in side0 for comp in comps)
                if len(comps) == 1:
                    ecc = nx.eccentricity(G)
                    lv = g.layered_view
                    assert lv.diameter == max(ecc.values())
                    assert lv.root == min(v for v in ecc if ecc[v] == lv.diameter)
                    dist = nx.single_source_shortest_path_length(G, lv.root)
                    assert lv.layers == tuple(tuple(v for v in range(n) if min(dist[v], 4) == d)
                                              for d in range(5))


class TestCensusInvariants:
    def test_long_diameter_forces_connected_complement(self):
        # diameter <= 2 may or may not split the complement; >= 3 never does
        split_at_two = 0
        for n in range(3, 8):
            for g in enumerate_connected(n):
                if diameter(g) >= 3:
                    assert structure_flags(complement(g)).connected
                elif not structure_flags(complement(g)).connected:
                    split_at_two += 1
        assert split_at_two > 0

    def test_two_connected_graphs_have_no_bridges(self):
        for g in enumerate_connected(6):
            if structure_flags(g).two_connected:
                assert bridge_profile(g).bridges == ()

    def test_two_connected_matches_networkx_biconnectivity(self):
        for n in (4, 5, 6):
            for g in enumerate_connected(n):
                assert structure_flags(g).two_connected == \
                    nx.is_biconnected(to_nx(g))


class TestCanonical:
    def test_p4_matches_own_complement(self):
        g = path_graph(4)
        assert canonical_code(g) == canonical_code(complement(g))

    def test_c4_differs_from_star(self):
        assert canonical_code(cycle_graph(4)) != canonical_code(star_graph(4))

    def test_code_is_invariant_and_realized(self):
        """Every labeled graph at n <= 5 gets the code of each of its n!
        relabelings, and there and on a seeded corpus at n = 6, 7 the
        placement reads the code back, so equal codes mean isomorphic graphs;
        twin classes are exactly the vertices one transposition swaps."""
        rng = random.Random(14)
        corpus = [(n, bits) for n in range(2, 6) for bits in range(1 << n * (n - 1) // 2)]
        for n, count in ((6, 60), (7, 15)):
            for _ in range(count):
                density = rng.random()
                corpus.append((n, sum((rng.random() < density) << i
                                      for i in range(n * (n - 1) // 2))))
        assert _min_placement(1, (0,)) == ((), (0,))
        codes = {}
        for n, bits in corpus:
            adj = Graph.from_edges(n, [e for i, e in enumerate(combinations(range(n), 2))
                                       if bits >> i & 1]).adj
            code, placement = codes[n, bits] = _min_placement(n, adj)
            assert sorted(placement) == list(range(n))
            assert column_string(adj, placement) == code
            twin = _twin_classes(n, adj)
            for u, v in combinations(range(n), 2):
                assert (twin[u] == twin[v]) == \
                    (adj[u] & ~(1 << v) == adj[v] & ~(1 << u))
        for n in range(2, 6):
            pairs = list(combinations(range(n), 2))
            for perm in permutations(range(n)):
                # edge i of a graph is edge moved[i] of its relabeling by perm
                moved = [pairs.index(tuple(sorted((perm[u], perm[v])))) for u, v in pairs]
                for bits in range(1 << len(pairs)):
                    image = sum(1 << moved[i] for i in range(len(pairs)) if bits >> i & 1)
                    assert codes[n, image][0] == codes[n, bits][0]

    def test_relabeling_invariance_across_census(self):
        rng = random.Random(5)
        for n in range(2, 8):
            for g in enumerate_connected(n):
                code = canonical_code(g)
                for _ in range(100):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    assert canonical_code(relabel(g, perm)) == code

    def test_invariance_up_to_the_cap(self, monkeypatch):
        # symmetric graphs at n = 8..10, where refinement leaves the most to the
        # search (2C5: 331 refined partitions); without twin pruning K10 and the
        # empty graph would have 10! leaves, and the bound stops that early
        refine, work = graph._refine, []

        def bounded(*args):
            work.append(None)
            assert len(work) <= 400, "one labeling refines more than 400 partitions"
            return refine(*args)

        monkeypatch.setattr(graph, "_refine", bounded)
        petersen = Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                                    + [(i, i + 5) for i in range(5)]
                                    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
        corpus = [
            complete_graph(10),
            Graph.from_edges(10, []),
            Graph.from_edges(10, [(2 * i, 2 * i + 1) for i in range(5)]),
            complete_multipartite(5, 5),
            complete_multipartite(2, 2, 2, 2, 2),
            petersen,
            complement(petersen),
            cycle_graph(10),
            Graph.from_edges(10, [(5 * c + i, 5 * c + (i + 1) % 5)
                                  for c in range(2) for i in range(5)]),
            Graph.from_edges(8, [(u, u ^ 1 << b) for u in range(8) for b in range(3)
                                 if u < u ^ 1 << b]),
        ]
        rng = random.Random(10)
        for g in corpus:
            work.clear()
            code, placement = graph._min_placement(g.n, g.adj)
            assert column_string(g.adj, placement) == code
            for _ in range(30):
                perm = list(range(g.n))
                rng.shuffle(perm)
                work.clear()
                assert canonical_code(relabel(g, perm)) == code

    def test_agrees_with_networkx_isomorphism(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(2, 7)
            g, h = random_connected_graph(n, rng), random_connected_graph(n, rng)
            same_code = canonical_code(g) == canonical_code(h)
            assert same_code == nx.is_isomorphic(to_nx(g), to_nx(h))

    def test_size_cap(self):
        with pytest.raises(UnsupportedSizeError):
            canonical_code(path_graph(11))

    def test_form_places_canonical_graph(self):
        g = star_plus_edge(5)
        code, placement = graph._min_placement(g.n, g.adj)
        assert sorted(placement) == list(range(g.n))
        mapping = [0] * g.n
        for pos, old in enumerate(placement):
            mapping[old] = pos
        assert canonical_code(relabel(g, mapping)) == code
        assert relabel(g, mapping) == canonical_graph(g)
