import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclab import (
    BudgetExceededError,
    ColoringFormatError,
    EdgeColoring,
    Graph,
    PreconditionError,
    endpoint_color_pairs,
    find_proper_path,
    format_coloring,
    has_strong_property,
    is_proper_connected,
    is_proper_path,
    parse_coloring,
)
from pclab.coloring import _unjoined_pair, _View
from pclab.generators import (complete_graph, cycle_graph, enumerate_connected, path_graph,
                              star_graph)

from conftest import naive_proper_paths, random_connected_graph, random_tree


def colored(g, *colors):
    return EdgeColoring.from_sequence(g, colors)


class TestIsProperPath:
    def test_alternating_p3(self):
        g = path_graph(3)
        assert is_proper_path(g, colored(g, 1, 2), [0, 1, 2])

    def test_clash_reports_index(self):
        g = path_graph(3)
        check = is_proper_path(g, colored(g, 1, 1), [0, 1, 2])
        assert not check and check.reason == "color_clash" and check.index == 1

    def test_single_edge_always_proper(self):
        g = path_graph(2)
        assert is_proper_path(g, colored(g, 1), [0, 1])
        assert is_proper_path(g, colored(g, 1), [1, 0])

    def test_missing_edge(self):
        g = path_graph(3)
        check = is_proper_path(g, colored(g, 1, 2), [0, 2])
        assert not check and check.reason == "missing_edge" and check.index == 0

    def test_repeated_vertex(self):
        g = cycle_graph(4)
        check = is_proper_path(g, colored(g, 1, 2, 1, 2), [0, 1, 2, 1])
        assert not check and check.reason == "repeated_vertex" and check.index == 3

    def test_too_short(self):
        g = path_graph(2)
        assert is_proper_path(g, colored(g, 1), [0]).reason == "too_short"


class TestFindProperPath:
    def test_adjacent_pair_takes_the_edge(self):
        g = complete_graph(4)
        coloring = EdgeColoring.from_sequence(g, [1] * 6)
        path = find_proper_path(g, coloring, 1, 3)
        assert path.vertices == (1, 3) and path.colors == (1,)

    def test_blocked_path_returns_none(self):
        g = path_graph(4)
        assert find_proper_path(g, colored(g, 1, 1, 2), 0, 3) is None

    def test_five_cycle_all_pairs(self):
        g = cycle_graph(5)
        # colors 1,2,1,2,3 walking around the cycle
        coloring = EdgeColoring(3, {(0, 1): 1, (1, 2): 2, (2, 3): 1,
                                    (3, 4): 2, (0, 4): 3})
        for u in range(5):
            for v in range(u + 1, 5):
                got = find_proper_path(g, coloring, u, v)
                assert got is not None
                assert naive_proper_paths(g, coloring, u, v)

    def test_shortest_then_lexicographic(self):
        # two proper 2-edge paths from 0 to 3: via 1 and via 2
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        coloring = colored(g, 1, 1, 2, 2)
        path = find_proper_path(g, coloring, 0, 3)
        assert path.vertices == (0, 1, 3)

    def test_longer_path_beats_no_path(self):
        # direct 2-edge route clashes; the 3-edge route is proper
        g = Graph.from_edges(5, [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)])
        coloring = EdgeColoring(2, {(0, 1): 1, (1, 4): 1, (0, 2): 1, (2, 3): 2, (3, 4): 1})
        path = find_proper_path(g, coloring, 0, 4)
        assert path.vertices == (0, 2, 3, 4)

    def test_same_endpoints_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            find_proper_path(g, colored(g, 1, 2), 1, 1)

    @pytest.mark.parametrize("search", [find_proper_path, endpoint_color_pairs])
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


class TestDeclaredColorCount:
    def test_huge_color_count_matches_normalized(self):
        g = cycle_graph(8)
        big = 10**9
        assignment = {e: i % 2 + 1 for i, e in enumerate(g.edges)}
        assignment[g.edges[3]] = big
        coloring = EdgeColoring(big, assignment)
        small = coloring.normalized()
        back = {1: 1, 2: 2, 3: big}
        start = time.perf_counter()
        assert is_proper_connected(g, coloring) == is_proper_connected(g, small)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                path, ref = find_proper_path(g, coloring, u, v), find_proper_path(g, small, u, v)
                assert (path is None) == (ref is None)
                if ref is not None:
                    assert path.vertices == ref.vertices
                    assert path.colors == tuple(back[c] for c in ref.colors)
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
        rng = random.Random(53)
        for _ in range(120):
            g = random_connected_graph(rng.randint(2, 6), rng)
            k = rng.randint(1, 4)
            coloring = EdgeColoring.from_sequence(
                g, [rng.randint(1, k) for _ in range(g.m)], k)
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    want = naive_proper_paths(g, coloring, u, v)
                    got = find_proper_path(g, coloring, u, v)
                    assert (got is not None) == bool(want)
                    if got is not None:
                        assert is_proper_path(g, coloring, got.vertices)
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
                    got = find_proper_path(g, coloring, u, v)
                    if want:
                        vertices, colors = min(want, key=lambda p: (len(p[0]), p[0]))
                        assert (got.vertices, got.colors) == (vertices, colors)
                    else:
                        assert got is None
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
            first_fails = find_proper_path(g, coloring, *first) is None
            assert pair == (first if first_fails else check.witness), g
            verdicts.add((check.ok, first_fails))
        assert verdicts == {(True, False), (False, False), (False, True)}

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

    def test_normalized_shrinks_k(self):
        c = EdgeColoring(9, {(0, 1): 4, (1, 2): 7})
        norm = c.normalized()
        assert norm.k == 2 and norm.assignment == {(0, 1): 1, (1, 2): 2}

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
