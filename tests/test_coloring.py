import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclab import (
    BudgetExceededError,
    ColoringFormatError,
    EdgeColoring,
    Graph,
    PreconditionError,
    check_tree_witness,
    endpoint_color_pairs,
    format_coloring,
    has_strong_property,
    is_proper_connected,
    parse_coloring,
)
from pclab.coloring import _back_reach, _paths, _unjoined_pair, _View
from pclab.generators import (complete_graph, cycle_graph, enumerate_connected, path_graph,
                              star_graph)

from conftest import (ear_coloring, is_proper_path, naive_proper_paths, proper_path_oracle,
                      random_connected_graph, random_tree, to_nx)


def colored(g, *colors):
    return EdgeColoring.from_sequence(g, colors)


def _least_unjoined(g, joined):
    """The least pair u < v of non-adjacent vertices that ``joined`` rejects, or None."""
    return next(((u, v) for u in range(g.n) for v in range(u + 1, g.n)
                 if not g.has_edge(u, v) and not joined(u, v)), None)


class TestFindProperPath:
    """Path existence between two given vertices, asked of the package's
    pair check and endpoint-color enumeration, with the matching oracle's
    path as the second opinion."""

    def test_adjacent_pair_takes_the_edge(self):
        # in a monochromatic K4 every longer path clashes: only the edge is proper
        g = complete_graph(4)
        coloring = EdgeColoring.from_sequence(g, [1] * 6)
        assert endpoint_color_pairs(g, coloring, 1, 3) == {(1, 1)}
        assert proper_path_oracle(g, coloring, 1, 3) == (1, 3)

    def test_blocked_path_returns_none(self):
        g = path_graph(4)
        coloring = colored(g, 1, 1, 2)
        assert _unjoined_pair(_View.of(g, coloring), (0, 3)) == (0, 3)
        assert proper_path_oracle(g, coloring, 0, 3) is None

    def test_five_cycle_all_pairs(self):
        g = cycle_graph(5)
        # colors 1,2,1,2,3 walking around the cycle
        coloring = EdgeColoring(3, {(0, 1): 1, (1, 2): 2, (2, 3): 1,
                                    (3, 4): 2, (0, 4): 3})
        assert is_proper_connected(g, coloring)
        for u in range(5):
            for v in range(u + 1, 5):
                assert is_proper_path(g, coloring, proper_path_oracle(g, coloring, u, v))

    def test_longer_path_beats_no_path(self):
        # 0 and 4 are at distance 2, but the direct route 0-1-4 clashes and only
        # the 3-edge route 0-2-3-4 is proper: the least unjoined pair is (1,2),
        # not (0,4)
        g = Graph.from_edges(5, [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)])
        coloring = EdgeColoring(2, {(0, 1): 1, (1, 4): 1, (0, 2): 1, (2, 3): 2, (3, 4): 1})
        assert is_proper_connected(g, coloring).witness == (1, 2)
        assert proper_path_oracle(g, coloring, 0, 4) == (0, 2, 3, 4)

    def test_same_endpoints_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            endpoint_color_pairs(g, colored(g, 1, 2), 1, 1)

    @pytest.mark.parametrize("search", [endpoint_color_pairs])
    @pytest.mark.parametrize("u,v", [(2, -3), (0, -1), (0, 5), (-1, 2)])
    def test_out_of_range_endpoints_rejected(self, search, u, v):
        g = path_graph(3)
        with pytest.raises(ValueError, match="outside"):
            search(g, colored(g, 1, 2), u, v)


class TestIsProperConnected:
    def test_proper_edge_coloring_always_passes(self):
        rng = random.Random(17)
        for _ in range(15):
            g = random_connected_graph(rng.randint(2, 8), rng)
            rainbow = EdgeColoring.from_sequence(g, range(1, g.m + 1))
            assert is_proper_connected(g, rainbow)

    def test_monochromatic_complete_graph(self):
        g = complete_graph(5)
        assert is_proper_connected(g, EdgeColoring.from_sequence(g, [1] * g.m))

    def test_star_witness_is_least_failing_pair(self):
        g = star_graph(4)  # edges (0,1),(0,2),(0,3)
        check = is_proper_connected(g, colored(g, 1, 1, 2))
        assert not check and check.witness == (1, 2)

    def test_disconnected_rejected(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(PreconditionError):
            is_proper_connected(g, EdgeColoring(1, {(0, 1): 1}))

    def test_single_vertex(self):
        assert is_proper_connected(Graph(1, (0,)), EdgeColoring(0, {}))


def random_spanning_tree(g, rng):
    """Grow a tree from a random vertex by random edges leaving it."""
    inside = {rng.randrange(g.n)}
    edges = []
    while len(inside) < g.n:
        u, v = rng.choice([e for e in g.edges if (e[0] in inside) != (e[1] in inside)])
        inside |= {u, v}
        edges.append((u, v))
    return Graph.from_edges(g.n, edges)


class TestTreeWitness:
    # C5 with the chord 0-2; the path 1-0-2-3-4 colored 1, 2, 1, 2 is a witness
    G = Graph.from_edges(5, [(0, 1), (0, 2), (0, 4), (1, 2), (2, 3), (3, 4)])
    TREE = Graph.from_edges(5, [(0, 1), (0, 2), (2, 3), (3, 4)])
    COLORS = {(0, 1): 1, (0, 2): 2, (0, 4): 1, (1, 2): 1, (2, 3): 1, (3, 4): 2}

    def test_accepts_a_witness(self):
        assert check_tree_witness(self.G, EdgeColoring(2, self.COLORS), self.TREE)

    def test_rejects_adjacent_tree_edges_of_one_color(self):
        coloring = EdgeColoring(2, {**self.COLORS, (2, 3): 2})
        assert not check_tree_witness(self.G, coloring, self.TREE)

    def test_rejects_a_tree_edge_outside_the_graph(self):
        tree = Graph.from_edges(5, [(0, 1), (0, 2), (2, 3), (1, 4)])
        assert not check_tree_witness(self.G, EdgeColoring(2, self.COLORS), tree)

    def test_rejects_edges_with_a_cycle(self):
        # n-1 edges, each in g and properly colored, but 4 is left out
        cycle = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3)])
        coloring = EdgeColoring(3, {**self.COLORS, (1, 2): 3})
        assert not check_tree_witness(self.G, coloring, cycle)

    def test_rejects_a_coloring_that_misses_an_edge(self):
        partial = {e: c for e, c in self.COLORS.items() if e != (0, 4)}
        assert not check_tree_witness(self.G, EdgeColoring(2, partial), self.TREE)

    def test_accepted_witness_is_proper_connected(self):
        rng = random.Random(223)
        verdicts = [0, 0]
        for _ in range(300):
            g = random_connected_graph(rng.randint(2, 10), rng)
            tree = random_spanning_tree(g, rng)
            k = rng.randint(1, tree.max_degree + 1)
            coloring = EdgeColoring(k, {e: rng.randint(1, k) for e in g.edges})
            accepted = check_tree_witness(g, coloring, tree)
            assert not accepted or is_proper_connected(g, coloring)
            verdicts[accepted] += 1
        assert min(verdicts) >= 20, verdicts


class TestDeclaredColorCount:
    def test_huge_color_count_matches_normalized(self):
        g = cycle_graph(8)
        big = 10**9
        assignment = {e: i % 2 + 1 for i, e in enumerate(g.edges)}
        assignment[g.edges[3]] = big
        coloring = EdgeColoring(big, assignment)
        back = {1: 1, 2: 2, 3: big}
        small = EdgeColoring(3, {e: 3 if c == big else c for e, c in assignment.items()})
        start = time.perf_counter()
        assert is_proper_connected(g, coloring) == is_proper_connected(g, small)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                pairs = endpoint_color_pairs(g, coloring, u, v)
                assert pairs == {(back[a], back[b]) for a, b in endpoint_color_pairs(g, small, u, v)}
        assert has_strong_property(g, coloring) == has_strong_property(g, small)
        assert time.perf_counter() - start < 2.0  # work must not grow with k


class TestEndpointColorPairs:
    def test_c4_adjacent(self):
        g = cycle_graph(4)
        coloring = EdgeColoring(2, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2})
        assert endpoint_color_pairs(g, coloring, 0, 1) == {(1, 1), (2, 2)}

    def test_c4_antipodal(self):
        g = cycle_graph(4)
        coloring = EdgeColoring(2, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2})
        assert endpoint_color_pairs(g, coloring, 0, 2) == {(1, 2), (2, 1)}

    def test_single_edge(self):
        g = path_graph(2)
        assert endpoint_color_pairs(g, colored(g, 1), 0, 1) == {(1, 1)}

    def test_empty_iff_no_path(self):
        g = path_graph(4)
        assert endpoint_color_pairs(g, colored(g, 1, 1, 2), 0, 3) == frozenset()

    def test_budget_exceeded(self):
        g = complete_graph(7)
        coloring = EdgeColoring.from_sequence(g, [i % 3 + 1 for i in range(g.m)])
        with pytest.raises(BudgetExceededError):
            endpoint_color_pairs(g, coloring, 0, 6, budget=10)

    def test_budget_error_carries_entered_count(self):
        g = complete_graph(7)
        coloring = EdgeColoring.from_sequence(g, [i % 3 + 1 for i in range(g.m)])
        with pytest.raises(BudgetExceededError) as caught:
            endpoint_color_pairs(g, coloring, 0, 6, budget=10)
        assert caught.value.stage == "path_enumeration"
        assert caught.value.stats == {"entered": 11}

    def test_budget_counts_entered_vertices(self):
        # the budget caps vertices entered by the path search, the start included
        g = complete_graph(6)
        coloring = EdgeColoring.from_sequence(g, [i % 3 + 1 for i in range(g.m)])
        endpoint_color_pairs(g, coloring, 0, 5, budget=37)
        with pytest.raises(BudgetExceededError):
            endpoint_color_pairs(g, coloring, 0, 5, budget=36)
        has_strong_property(g, coloring, budget=18)
        with pytest.raises(BudgetExceededError):
            has_strong_property(g, coloring, budget=17)

    def test_back_reach_keeps_the_search_out_of_dead_ends(self):
        # K4 on 0..3 with every edge at 3 colored 1, and 4 hanging from 3 by
        # color 1: a walk to 4 leaves 3 by color 1, so it must enter 3 by
        # color 2, which no edge offers.  The search from 0 enters no vertex;
        # without the pruning it would walk every path of the K4 first.
        g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
        coloring = EdgeColoring(2, {(0, 1): 1, (0, 2): 2, (0, 3): 1, (1, 2): 2,
                                    (1, 3): 1, (2, 3): 1, (3, 4): 1})
        view = _View.of(g, coloring)
        reach = _back_reach(view, 4)
        assert reach == [0, 0, 0, 2, 3]
        assert list(_paths(view, 0, 4, reach, budget=1)) == []


class TestStrongProperty:
    def test_alternating_c4(self):
        g = cycle_graph(4)
        assert has_strong_property(g, EdgeColoring(2, {(0, 1): 1, (1, 2): 2,
                                                       (2, 3): 1, (0, 3): 2}))

    def test_trees_never_strong(self):
        rng = random.Random(29)
        from conftest import random_tree

        for _ in range(10):
            t = random_tree(rng.randint(2, 8), rng)
            colors = [rng.randint(1, 3) for _ in range(t.m)]
            assert not has_strong_property(t, EdgeColoring.from_sequence(t, colors, 3))

    def test_monochromatic_triangle(self):
        g = complete_graph(3)
        assert not has_strong_property(g, EdgeColoring.from_sequence(g, [1, 1, 1]))

    def test_rainbow_triangle(self):
        g = complete_graph(3)
        assert has_strong_property(g, EdgeColoring.from_sequence(g, [1, 2, 3]))

    def test_ear_coloring_on_random_two_connected_bipartite(self):
        # past the classes criterion 6 covers: 9 to 12 vertices, random sides
        rng = random.Random(61)
        done = 0
        while done < 100:
            n = rng.randint(9, 12)
            side = [rng.random() < 0.5 for _ in range(n)]
            p = rng.uniform(0.3, 0.7)
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                     if side[u] != side[v] and rng.random() < p])
            if not nx.is_biconnected(to_nx(g)):
                continue
            coloring = ear_coloring(g)
            assert coloring.k == 2 and has_strong_property(g, coloring)
            done += 1

    def test_strong_implies_proper_connected(self):
        rng = random.Random(41)
        for _ in range(200):
            g = random_connected_graph(rng.randint(2, 6), rng)
            colors = [rng.randint(1, 3) for _ in range(g.m)]
            coloring = EdgeColoring.from_sequence(g, colors, 3)
            if has_strong_property(g, coloring):
                assert is_proper_connected(g, coloring)


class TestOracleEquivalence:
    def test_random_colorings_match_naive_enumeration(self):
        # also the matching oracle's self-test: it finds a path, and a proper
        # one, exactly when networkx enumeration does
        rng = random.Random(53)
        for _ in range(150):
            g = random_connected_graph(rng.randint(2, 8), rng)
            k = rng.randint(1, 4)
            coloring = EdgeColoring.from_sequence(
                g, [rng.randint(1, k) for _ in range(g.m)], k)
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    want = naive_proper_paths(g, coloring, u, v)
                    got = proper_path_oracle(g, coloring, u, v)
                    assert (got is not None) == bool(want)
                    if got is not None:
                        assert is_proper_path(g, coloring, got)
                    assert endpoint_color_pairs(g, coloring, u, v) == \
                        {(cs[0], cs[-1]) for _, cs in want}

    def test_sparse_graphs_to_nine_vertices(self):
        # solve9-like graphs: a random tree plus a few extra edges
        rng = random.Random(97)
        for _ in range(150):
            n = rng.randint(7, 9)
            tree = random_tree(n, rng)
            extra = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if not tree.has_edge(u, v) and rng.random() < 0.15]
            g = Graph.from_edges(n, list(tree.edges) + extra)
            k = rng.randint(2, 3)
            coloring = EdgeColoring.from_sequence(
                g, [rng.randint(1, k) for _ in range(g.m)], k)
            failing = []
            strong = True
            for u in range(n):
                for v in range(u + 1, n):
                    want = naive_proper_paths(g, coloring, u, v)
                    if not want:
                        failing.append((u, v))
                    ends = {(cs[0], cs[-1]) for _, cs in want}
                    assert endpoint_color_pairs(g, coloring, u, v) == ends
                    strong = strong and any(s != s2 and e != e2
                                            for s, e in ends for s2, e2 in ends)
            check = is_proper_connected(g, coloring)
            assert check.ok == (not failing)
            assert check.witness == (failing[0] if failing else None)
            assert has_strong_property(g, coloring) == strong

    def test_leaf_helper_matches_public_checker(self):
        # the solver's leaf check: None exactly when the checker accepts; a
        # failing try-first pair comes back as is, else the checker's witness
        rng = random.Random(71)
        graphs = [g for n in range(2, 8) for g in enumerate_connected(n)]
        graphs += [random_connected_graph(rng.randint(8, 9), rng) for _ in range(150)]
        verdicts = set()
        for g in graphs:
            k = rng.randint(1, 4)
            coloring = EdgeColoring.from_sequence(
                g, [rng.randint(1, k) for _ in range(g.m)], k)
            first = tuple(sorted(rng.sample(range(g.n), 2)))
            check = is_proper_connected(g, coloring)
            pair = _unjoined_pair(_View.of(g, coloring), first)
            assert (pair is None) == check.ok, g
            first_fails = proper_path_oracle(g, coloring, *first) is None
            assert pair == (first if first_fails else check.witness), g
            verdicts.add((check.ok, first_fails))
        assert verdicts == {(True, False), (False, False), (False, True)}

    def test_checker_matches_matching_oracle_to_fourteen_vertices(self):
        # past the sizes networkx enumeration can afford: verdict and least
        # failing pair against the matching oracle.  Trees with a few extra
        # edges often join a pair by a proper walk that must revisit a vertex
        # but by no proper path, which only the colors along the path tell apart
        rng = random.Random(83)
        verdicts = set()
        for n in range(10, 15):
            for _ in range(3):
                tree = random_tree(n, rng)
                extra = [(u, v) for u in range(n) for v in range(u + 1, n)
                         if not tree.has_edge(u, v) and rng.random() < 0.1]
                g = Graph.from_edges(n, list(tree.edges) + extra)
                for k in (2, 2, 3):
                    coloring = EdgeColoring.from_sequence(
                        g, [rng.randint(1, k) for _ in range(g.m)], k)
                    check = is_proper_connected(g, coloring)
                    assert check.witness == _least_unjoined(
                        g, lambda u, v: proper_path_oracle(g, coloring, u, v)), g
                    verdicts.add(check.ok)
        assert verdicts == {True, False}

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_drawn_colorings_match_both_oracles(self, data):
        n = data.draw(st.integers(2, 9))
        edges = {(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        edges |= data.draw(st.sets(st.sampled_from(
            [(u, v) for u in range(n) for v in range(u + 1, n)]), max_size=n))
        g = Graph.from_edges(n, sorted(edges))
        k = data.draw(st.integers(1, 3))
        coloring = EdgeColoring.from_sequence(
            g, data.draw(st.lists(st.integers(1, k), min_size=g.m, max_size=g.m)), k)
        witness = is_proper_connected(g, coloring).witness
        assert witness == _least_unjoined(
            g, lambda u, v: proper_path_oracle(g, coloring, u, v))
        assert witness == _least_unjoined(
            g, lambda u, v: naive_proper_paths(g, coloring, u, v))

    def test_color_permutation_equivariance(self):
        rng = random.Random(61)
        for _ in range(60):
            g = random_connected_graph(rng.randint(2, 6), rng)
            k = 3
            colors = [rng.randint(1, k) for _ in range(g.m)]
            perm = [1, 2, 3]
            rng.shuffle(perm)
            before = EdgeColoring.from_sequence(g, colors, k)
            after = EdgeColoring.from_sequence(g, [perm[c - 1] for c in colors], k)
            assert is_proper_connected(g, before).ok == is_proper_connected(g, after).ok
            assert has_strong_property(g, before) == has_strong_property(g, after)

    def test_adding_an_edge_never_breaks_connectivity(self):
        rng = random.Random(67)
        done = 0
        while done < 40:
            g = random_connected_graph(rng.randint(3, 6), rng)
            non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                         if not g.has_edge(u, v)]
            if not non_edges:
                continue
            colors = [rng.randint(1, 2) for _ in range(g.m)]
            coloring = EdgeColoring.from_sequence(g, colors, 2)
            if not is_proper_connected(g, coloring):
                continue
            extra = non_edges[rng.randrange(len(non_edges))]
            bigger = Graph.from_edges(g.n, list(g.edges) + [extra])
            assignment = dict(coloring.assignment)
            assignment[extra] = rng.randint(1, 2)
            assert is_proper_connected(bigger, EdgeColoring(2, assignment))
            done += 1


class TestColoringType:
    def test_rejects_out_of_range_color(self):
        with pytest.raises(ColoringFormatError):
            EdgeColoring(2, {(0, 1): 3})

    def test_rejects_unsorted_key(self):
        with pytest.raises(ColoringFormatError):
            EdgeColoring(2, {(1, 0): 1})

    @pytest.mark.parametrize("k,assignment,message", [
        (-1, {}, "k must be >= 0"),
        (0, {(0, 1): 1}, "needs k >= 1"),
    ])
    def test_rejects_bad_color_count(self, k, assignment, message):
        with pytest.raises(ColoringFormatError, match=message):
            EdgeColoring(k, assignment)

    def test_from_sequence_needs_one_color_per_edge(self):
        with pytest.raises(ColoringFormatError, match="expected 2 colors"):
            EdgeColoring.from_sequence(path_graph(3), [1])

    def test_wrong_edge_count_detected(self):
        g = path_graph(3)
        with pytest.raises(ColoringFormatError):
            is_proper_connected(g, EdgeColoring(1, {(0, 1): 1}))


class TestColoringFiles:
    def test_round_trip(self):
        g = cycle_graph(5)
        coloring = colored(g, 1, 2, 3, 1, 2)
        text = format_coloring(coloring, g)
        assert parse_coloring(text, g) == coloring

    def test_comments_and_whitespace(self):
        g = path_graph(3)
        text = "# a coloring\ncolors 2\n\nedge 0 1 1  # first\nedge 1 2 2\n"
        assert parse_coloring(text, g).color(1, 2) == 2

    @pytest.mark.parametrize("text,message", [
        ("edge 0 1 1", "colors"),
        ("colors 2\nedge 0 1 1", "uncolored"),
        ("colors 2\nedge 0 1 1\nedge 0 1 2\nedge 1 2 1", "twice"),
        ("colors 2\nedge 0 1 9\nedge 1 2 1", "outside"),
        ("colors 2\nedge 0 2 1\nedge 1 2 1", "not a graph edge"),
        ("colors 2\nroute 0 1 1", "unknown directive"),
        ("colors x", "not an integer"),
        ("colors 2\ncolors 2", "duplicate 'colors' line"),
        ("colors 2\nedge 0 1", "expected 'edge <u> <v> <c>'"),
        ("colors 2\nedge 0 0 1", "bad endpoints"),
    ])
    def test_parse_errors(self, text, message):
        with pytest.raises(ColoringFormatError, match=message):
            parse_coloring(text, path_graph(3))

    @settings(max_examples=300, deadline=None)
    @given(st.text() | st.lists(st.sampled_from(
        ["colors", "edge", "0", "1", "2", "3", "-1", "#", " ", "\n", "x"])).map("".join))
    def test_arbitrary_text_raises_only_format_errors(self, text):
        try:
            parse_coloring(text, path_graph(3))
        except ColoringFormatError:
            pass
