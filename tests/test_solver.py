import itertools
import random

import pytest

from pclab import (
    BudgetExceededError,
    EdgeColoring,
    Graph,
    PreconditionError,
    SolverBudget,
    SolverStats,
    check_tree_witness,
    exact_pc,
    exists_k_coloring,
    graph6_decode,
    is_proper_connected,
    pc_lower_bound,
    pc_upper_bound,
    relabel,
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

from pclab import solver
from pclab.graph import bfs_distances, bridge_profile, components, induced_subgraph
from pclab.solver import hamiltonian_path

from conftest import (brute_pc, brute_strong, hamiltonian_path_dp, random_connected_graph,
                      random_tree)


def spider() -> Graph:
    """Center 0 with three pendant paths of length 2."""
    return Graph.from_edges(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def wheel(n: int) -> Graph:
    """Hub 0 joined to every vertex of the cycle 1..n-1."""
    rim = [(i, i + 1) for i in range(1, n - 1)] + [(1, n - 1)]
    return Graph.from_edges(n, [(0, v) for v in range(1, n)] + rim)


def least_degree_bfs_tree(g: Graph) -> Graph:
    """The BFS tree of least maximum degree over all roots, least root on ties;
    each vertex hangs from its least neighbor one step closer to the root."""
    trees = []
    for root in range(g.n):
        dist = bfs_distances(g, root)
        trees.append(Graph.from_edges(g.n, [
            (v, min(w for w in g.neighbors(v) if dist[w] == dist[v] - 1))
            for v in range(g.n) if v != root]))
    return min(trees, key=lambda t: t.max_degree)


class TestBounds:
    def test_complete_lower_is_one(self):
        lb = pc_lower_bound(complete_graph(6))
        assert lb.value == 1 and lb.tag == "complete"

    def test_spider_lower_from_bridges(self):
        lb = pc_lower_bound(spider())
        assert lb.value == 3 and lb.tag == "bridges"

    def test_cycle_lower_two(self):
        lb = pc_lower_bound(cycle_graph(5))
        assert lb.value == 2 and lb.tag == "noncomplete"

    def test_tree_upper_is_max_degree(self):
        ub = pc_upper_bound(double_star(2, 4))
        assert ub.value == 4

    def test_cycle_upper_two(self):
        assert pc_upper_bound(cycle_graph(6)).value == 2

    def test_star_upper_exact(self):
        # a tree's spanning-tree bound is exact: the bridges at its center meet it
        ub = pc_upper_bound(star_graph(6))
        assert ub.value == 5 and ub.tag == "spanning_tree_delta"
        assert pc_lower_bound(star_graph(6)).value == ub.value

    def test_upper_certificate_verifies(self):
        rng = random.Random(83)
        for _ in range(20):
            g = random_connected_graph(rng.randint(2, 8), rng)
            ub = pc_upper_bound(g)
            assert ub.certificate.k == ub.value == ub.tree.max_degree
            assert check_tree_witness(g, ub.certificate, ub.tree)
            assert is_proper_connected(g, ub.certificate)

    def test_sandwich_across_census(self):
        for n in range(2, 8):
            for g in enumerate_connected(n):
                value = exact_pc(g).value
                assert pc_lower_bound(g).value <= value <= pc_upper_bound(g).value

    def test_single_vertex_rejected(self):
        with pytest.raises(PreconditionError):
            pc_lower_bound(Graph(1, (0,)))

    @pytest.mark.parametrize("g", [spider(), wheel(7)], ids=["spider", "wheel7"])
    def test_one_checker_call_per_bound(self, g, monkeypatch):
        # the certificate is checked once, as a tree witness; the pair-by-pair
        # checker is left to search certificates
        checked, pairwise = [], []

        def counting(h, coloring, tree):
            checked.append((coloring, tree))
            return check_tree_witness(h, coloring, tree)

        monkeypatch.setattr(solver, "check_tree_witness", counting)
        monkeypatch.setattr(solver, "is_proper_connected",
                            lambda h, coloring: pairwise.append(coloring))
        ub = pc_upper_bound(g)
        assert checked == [(ub.certificate, ub.tree)] and pairwise == []

    def test_certificate_shapes_across_census(self):
        # a Hamiltonian path alternates 1, 2, 1, ... from its first vertex;
        # otherwise the tree is the least-degree BFS tree; other edges get 1
        for n in range(2, 8):
            for g in enumerate_connected(n):
                ub = pc_upper_bound(g)
                assert ub.tag in ("traceable", "spanning_tree_delta")
                path = hamiltonian_path(g) if n >= 3 else None
                if path is None:
                    assert ub.tree == least_degree_bfs_tree(g)
                    assert ub.value == ub.tree.max_degree
                    continue
                assert ub.tree == Graph.from_edges(n, zip(path, path[1:]))
                assert ub.tag == "traceable" and ub.value == ub.certificate.k == 2
                on_path = {(min(e), max(e)): i % 2 + 1
                           for i, e in enumerate(zip(path, path[1:]))}
                assert dict(ub.certificate.assignment) == {e: on_path.get(e, 1) for e in g.edges}


class TestTraceableBound:
    def test_hamiltonian_path_matches_permutation_oracle(self):
        rng = random.Random(131)
        traceable = 0
        for trial in range(120):
            n = rng.randint(1, 7)
            g = random_tree(n, rng) if trial % 2 else random_connected_graph(n, rng)
            expected = any(all(g.has_edge(p[i], p[i + 1]) for i in range(n - 1))
                           for p in itertools.permutations(range(n)))
            path = hamiltonian_path(g)
            assert (path is not None) == expected, g
            if path is not None:
                traceable += 1
                assert sorted(path) == list(range(n))
                assert all(g.has_edge(path[i], path[i + 1]) for i in range(n - 1))
        assert 0 < traceable < 120  # both outcomes are exercised

    def test_dfs_matches_dp_oracle(self):
        # trees, trees plus a few edges, dense graphs: the DFS must return the
        # DP's path, the lexicographically least one, or None with it
        rng = random.Random(137)
        seen = set()
        for n in range(8, 13):
            for trial in range(15):
                kind = ("tree", "tree_plus_edges", "dense")[trial % 3]
                g = random_tree(n, rng)
                if kind != "tree":
                    p = 0.08 if kind == "tree_plus_edges" else 0.6
                    extra = [(u, v) for u in range(n) for v in range(u + 1, n)
                             if not g.has_edge(u, v) and rng.random() < p]
                    g = Graph.from_edges(n, list(g.edges) + extra)
                path = hamiltonian_path(g)
                assert path == hamiltonian_path_dp(g), (kind, g)
                leaves = sum(g.degree(v) == 1 for v in range(n))
                seen.add((kind, path is not None, leaves <= 2))
        assert ("tree_plus_edges", True, True) in seen
        assert ("tree_plus_edges", False, True) in seen  # refuted by the search itself
        assert ("tree", False, False) in seen  # refuted by its leaves alone
        assert ("dense", True, True) in seen

    def test_traceable_beats_every_bfs_tree(self):
        g = wheel(7)
        assert least_degree_bfs_tree(g).max_degree >= 3
        ub = pc_upper_bound(g)
        assert ub.value == 2 and ub.tag == "traceable"
        assert ub.certificate.k == 2 and is_proper_connected(g, ub.certificate)
        stats = exact_pc(g).stats
        assert stats["assignments"] == 0  # bounds meet: no search

    def test_large_graph_skips_the_dp(self, monkeypatch):
        def refuse(g):
            raise AssertionError(f"Hamiltonian-path DP called at n={g.n}")

        monkeypatch.setattr(solver, "hamiltonian_path", refuse)
        g = cycle_graph(40)
        ub = pc_upper_bound(g)
        assert ub.value == 2 and ub.tag == "spanning_tree_delta"
        assert is_proper_connected(g, ub.certificate)


class TestExistsKColoring:
    def test_claw_refutes_two(self):
        # the claw's three bridges meet at the center: no two of them may share
        # a color, so k=2 dies before any complete assignment
        stats = SolverStats()
        assert exists_k_coloring(star_graph(4), 2, stats=stats) is None
        assert stats.assignments == 0

    def test_clock_runs_where_no_assignment_completes(self):
        # a 30-edge path whose end carries three more leaves: at k=3 every
        # coloring of the path dies at the last vertex's four bridges
        g = Graph.from_edges(34, [(i, i + 1) for i in range(30)] + [(30, 31), (30, 32), (30, 33)])
        stats = SolverStats()
        with pytest.raises(BudgetExceededError) as caught:
            exists_k_coloring(g, 3, budget=SolverBudget(max_seconds=0.1), stats=stats)
        assert stats.assignments == 0
        assert caught.value.stats == {"assignments": 0}

    def test_public_checker_sees_only_certificates(self, monkeypatch):
        # leaves are checked on the search's own view; the public checker
        # re-verifies only the coloring the search returns
        checked = []

        def counting(g, coloring):
            checked.append(coloring)
            return is_proper_connected(g, coloring)

        monkeypatch.setattr(solver, "is_proper_connected", counting)
        stats = SolverStats()
        assert exists_k_coloring(star_plus_edge(5), 2, stats=stats) is None
        assert stats.assignments == 8 and checked == []
        g = graph6_decode("E@vO")
        found = exists_k_coloring(g, 2, stats=stats)
        assert stats.assignments == 8 + 24  # 23 leaves rejected before this one
        assert checked == [found]

    def test_deep_search_needs_no_recursion(self):
        n = 47
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if (u, v) != (0, 1)])
        assert g.m == 1080
        assert exists_k_coloring(g, 1) is None

    def test_p5_two(self):
        found = exists_k_coloring(path_graph(5), 2)
        assert found is not None and is_proper_connected(path_graph(5), found)

    def test_found_coloring_within_k(self):
        found = exists_k_coloring(cycle_graph(5), 3)
        assert found is not None and found.k == 3
        assert all(1 <= c <= 3 for c in found.assignment.values())

    def test_budget_raises(self):
        g = star_plus_edge(5)  # refuting k=2 takes 8 assignments
        with pytest.raises(BudgetExceededError) as caught:
            exists_k_coloring(g, 2, budget=SolverBudget(max_assignments=2))
        assert caught.value.stage == "k=2"
        assert caught.value.stats == {"assignments": 3}

    def test_one_vertex_needs_no_colors(self):
        assert exists_k_coloring(Graph(1, (0,)), 2) == EdgeColoring(0, {})

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            exists_k_coloring(Graph.from_edges(3, [(0, 1)]), 2)


class TestExactPc:
    @pytest.mark.parametrize("g,value", [
        (cycle_graph(5), 2),
        (star_plus_edge(5), 3),
        (double_star(2, 4), 4),
        (complete_multipartite(2, 3), 2),
        (complete_graph(7), 1),
        (star_graph(5), 4),
        (path_graph(7), 2),
        (cycle_graph(3), 1),
        (Graph(1, (0,)), 0),
    ])
    def test_known_values(self, g, value):
        result = exact_pc(g)
        assert result.value == value and result.exhausted
        if g.m:
            assert result.certificate.k == value
            assert is_proper_connected(g, result.certificate)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(97)
        seen = 0
        while seen < 12:
            g = random_connected_graph(rng.randint(2, 5), rng)
            if g.m > 8:
                continue
            assert exact_pc(g).value == brute_pc(g)
            seen += 1

    def test_trees_equal_max_degree(self):
        rng = random.Random(101)
        for _ in range(30):
            t = random_tree(rng.randint(2, 9), rng)
            assert exact_pc(t).value == t.max_degree

    def test_complete_multipartite_two(self):
        # three or more parts, not complete: pc is always 2
        for sizes in [(1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 1, 3), (1, 2, 3),
                      (2, 3, 3), (1, 1, 2, 2), (2, 2, 2, 2), (1, 1, 1, 2)]:
            g = complete_multipartite(*sizes)
            result = exact_pc(g)
            assert result.value == 2, sizes

    def test_isomorphism_invariance_sample(self):
        rng = random.Random(103)
        for _ in range(10):
            g = random_connected_graph(rng.randint(3, 6), rng)
            value = exact_pc(g).value
            for _ in range(5):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert exact_pc(relabel(g, perm)).value == value

    def test_spanning_subgraph_monotone_sample(self):
        rng = random.Random(107)
        done = 0
        while done < 15:
            g = random_connected_graph(rng.randint(3, 6), rng)
            sub = _random_connected_spanning_subgraph(g, rng)
            assert exact_pc(g).value <= exact_pc(sub).value
            done += 1

    def test_budget_cutoff_reports_unknown(self):
        g = star_plus_edge(5)  # lower bound 2, pc 3: refuting k=2 needs enumeration
        result = exact_pc(g, budget=SolverBudget(max_assignments=1))
        assert not result.exhausted
        assert result.certificate is not None
        assert is_proper_connected(g, result.certificate)

    def test_telemetry(self):
        result = exact_pc(star_plus_edge(5), budget=SolverBudget())
        # work counters only: wall-clock would make two runs' answers differ
        assert set(result.stats) == {"assignments"}
        assert result.stats["assignments"] > 0  # k=2 was refuted by enumeration

    def test_deterministic(self):
        g = random_connected_graph(6, random.Random(113))
        a, b = exact_pc(g), exact_pc(g)
        assert a.value == b.value and a.certificate == b.certificate

    def test_seed_changes_order_not_answer(self):
        for g in enumerate_connected(6):
            one = exact_pc(g, budget=SolverBudget(seed=1))
            two = exact_pc(g, budget=SolverBudget(seed=2))
            assert one.exhausted and two.exhausted
            assert one.value == two.value, g
            for result in (one, two):
                assert result.certificate.k == result.value
                assert is_proper_connected(g, result.certificate).ok


class TestStrongVariant:
    """Strong colorings found or refuted by trying every coloring."""

    def test_bridge_makes_strong_impossible(self):
        # the ends of a bridge have one path between them
        for k in (1, 2, 3):
            assert brute_strong(path_graph(4), k) is None

    def test_triangle_strong_three(self):
        g = complete_graph(3)
        # two colors cannot split both endpoints
        assert brute_strong(g, 2) is None
        assert brute_strong(g, 3) is not None

    def test_bowtie_strong_exists(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        assert brute_strong(g, 3) is not None

    def test_strong_at_least_pc(self):
        for g in (cycle_graph(5), complete_multipartite(2, 2, 2)):
            for k in range(1, exact_pc(g).value):
                assert brute_strong(g, k) is None


def pieces_plus(g: Graph) -> list[Graph]:
    """P+ for each piece P of g, a component of g minus its bridges: P plus
    one pendant edge for each bridge at P."""
    bridges = bridge_profile(g).bridges
    out = []
    for piece in components(Graph.from_edges(g.n, set(g.edges) - set(bridges))):
        inner, idx = induced_subgraph(g, piece)
        ports = [idx[v] for e in bridges for v in e if v in idx]
        pendants = [(u, inner.n + i) for i, u in enumerate(ports)]
        out.append(Graph.from_edges(inner.n + len(ports), inner.edges + tuple(pendants)))
    return out


def test_bridge_piece_identity():
    # pc(G) is the largest pc(P+) over the pieces P (solver module docstring)
    classes = 0
    for n in range(2, 8):
        for g in enumerate_connected(n):
            assert exact_pc(g).value == max(exact_pc(p).value for p in pieces_plus(g)), g
            classes += 1
    assert classes == 995


def _random_connected_spanning_subgraph(g: Graph, rng: random.Random) -> Graph:
    from pclab import bridge_profile

    edges = list(g.edges)
    current = g
    for _ in range(rng.randint(0, max(0, g.m - g.n + 1))):
        removable = [e for e in current.edges
                     if e not in set(bridge_profile(current).bridges)]
        if not removable:
            break
        drop = removable[rng.randrange(len(removable))]
        current = Graph.from_edges(g.n, [e for e in current.edges if e != drop])
    return current
