import json

import pytest

import pclab.census
import pclab.constructions
import pclab.graph
from pclab import (
    BudgetExceededError,
    ConnectivityCheck,
    SolverBudget,
    UnsupportedSizeError,
    are_isomorphic,
    complement,
    emit_report,
    exact_pc,
    graph6_decode,
    graph6_encode,
    run_construction_sweep,
    run_ng_census,
    run_pc_census,
)
from pclab.generators import cycle_graph, double_star, enumerate_connected, path_graph
from pclab.graph import bridge_profile, components, structure_flags


class TestPcCensus:
    def test_n4(self):
        report = run_pc_census(4)
        assert report.total_graphs == 6
        assert report.pc_histogram == {1: 1, 2: 4, 3: 1}
        assert report.classification_mismatches == []
        assert len(report.classification_matches) == 4
        assert report.passed

    def test_n5(self):
        report = run_pc_census(5)
        assert report.total_graphs == 21
        # K_5 has pc 1, the star K_{1,4} has pc 4, two graphs sit at 3
        assert report.pc_histogram == {1: 1, 2: 17, 3: 2, 4: 1}
        matched = {graph6_decode(s) for s in report.classification_matches}
        assert len(matched) == 2
        assert report.passed

    def test_out_of_range(self):
        with pytest.raises(UnsupportedSizeError):
            run_pc_census(2)

    @pytest.mark.parametrize("n,assignments", [(5, 8), (6, 145), (7, 1810)])
    def test_search_work_is_pinned(self, n, assignments):
        # the solver's search order decides these counts: a change here means
        # the order moved, not only the speed
        assert run_pc_census(n).work["assignments"] == assignments

    def test_budget_cutoff_is_reported(self):
        budget = SolverBudget(max_assignments=0)
        cut = [graph6_encode(g) for g in enumerate_connected(5)
               if not exact_pc(g, budget=budget).exhausted]
        report = run_pc_census(5, budget=budget)
        assert cut and not report.complete and not report.passed
        assert report.violations == [f"budget exhausted on {c}" for c in cut]
        with pytest.raises(UnsupportedSizeError):
            run_pc_census(8)


class TestNgCensus:
    def test_n4_all_sums_four(self):
        report = run_ng_census(4)
        assert report.qualifying == 1  # only the self-complementary path
        assert all(p["sum"] == 4 for p in report.ng_pairs)
        assert report.passed

    def test_n5_dichotomy(self):
        report = run_ng_census(5)
        assert report.passed
        reference = double_star(2, 3)
        for pair in report.ng_pairs:
            g = graph6_decode(pair["graph6"])
            involved = are_isomorphic(g, reference) or \
                are_isomorphic(complement(g), reference)
            assert pair["sum"] == (5 if involved else 4)

    def test_n6_equality_witnesses(self):
        report = run_ng_census(6)
        assert report.passed
        assert report.max_sum == 6
        for g6 in report.max_sum_witnesses:
            g = graph6_decode(g6)
            assert are_isomorphic(g, double_star(2, 4)) or \
                are_isomorphic(complement(g), double_star(2, 4))

    def test_pairs_agree_with_pc_census(self):
        census = {}
        for g in enumerate_connected(5):
            from pclab.graph6 import graph6_encode

            census[graph6_encode(g)] = exact_pc(g).value
        report = run_ng_census(5)
        for pair in report.ng_pairs:
            assert census[pair["graph6"]] == pair["pc"]

    def test_out_of_range(self):
        with pytest.raises(UnsupportedSizeError):
            run_ng_census(3)


class TestSweeps:
    def test_thm31_small(self):
        report = run_construction_sweep(6, "thm31")
        assert report.qualifying > 0
        assert report.passed

    def test_thm33_small(self):
        report = run_construction_sweep(6, "thm33")
        assert report.qualifying > 0 and report.passed

    def test_thm36_small(self):
        report = run_construction_sweep(5, "thm36")
        assert report.qualifying >= 1  # the five-cycle
        assert report.passed

    def test_prop37_small(self):
        report = run_construction_sweep(6, "prop37")
        assert report.qualifying > 0 and report.passed

    def test_thm38_small(self):
        report = run_construction_sweep(5, "thm38")
        assert report.qualifying > 0 and report.passed

    @pytest.mark.parametrize("check,total,qualifying", [
        ("thm31", 853, 92), ("thm33", 853, 28), ("thm36", 853, 3),
        ("prop37", 112, 19), ("thm38", 853, 103)])
    def test_selection_is_pinned_at_n7(self, check, total, qualifying):
        # each predicate is the theorem's hypothesis: a rewrite that selects
        # other graphs changes these counts
        report = run_construction_sweep(7, check)
        assert (report.total_graphs, report.qualifying) == (total, qualifying)
        assert report.passed

    @pytest.mark.parametrize("check", ["thm31", "thm33", "thm36", "prop37"])
    def test_hypotheses_need_no_articulation_points(self, check, monkeypatch):
        # diameter, triangle-freeness, completeness and complement connectivity
        # are all a construction sweep reads: it asks for no bridge and no cut
        # vertex.  thm38 is left out because exact_pc takes the bridge profile
        # of every graph it solves.  The enumerator's non-cut prefilter calls
        # generators' own binding of _is_cut_vertex, which the patch leaves alone.
        calls = []
        for name in ("_is_bridge", "_is_cut_vertex"):
            test = getattr(pclab.graph, name)
            monkeypatch.setattr(pclab.graph, name,
                                lambda *args, test=test: calls.append(args) or test(*args))
        assert run_construction_sweep(6, check).passed
        assert calls == []
        # the patch does see both deletion questions when they are asked
        structure_flags(cycle_graph(4))
        bridge_profile(path_graph(3))
        assert len(calls) == 4 + 2

    @pytest.mark.parametrize("check,construction", [
        ("thm31", "color_complement_diam_ge4"),
        ("prop37", "color_complement_with_trivial_component")])
    def test_budget_cutoff_is_reported(self, check, construction, monkeypatch):
        def cut(g):
            raise BudgetExceededError("cut")

        monkeypatch.setattr(pclab.census, construction, cut)
        report = run_construction_sweep(5, check)
        assert report.qualifying > 0 and not report.complete and not report.passed
        assert len(report.violations) == report.qualifying

    def test_failed_construction_is_a_violation(self, monkeypatch):
        monkeypatch.setattr(pclab.constructions, "is_proper_connected",
                            lambda h, coloring: ConnectivityCheck(False, (0, 1)))
        report = run_construction_sweep(6, "thm33")
        assert report.qualifying > 0 and not report.passed
        assert len(report.violations) == report.qualifying

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            run_construction_sweep(5, "thm99")

    def test_thm38_size_cap(self):
        with pytest.raises(UnsupportedSizeError):
            run_construction_sweep(8, "thm38")


class TestDisconnectedComplementCoverage:
    def test_pc_two_when_complement_splits_well(self):
        """Complement with >= 3 components, or two nontrivial ones: pc(g) = 2."""
        checked = 0
        for n in range(4, 8):
            for g in enumerate_connected(n):
                if g.complete:
                    continue  # complete graphs sit outside the claim
                h = complement(g)
                comps = components(h)
                if len(comps) == 1:
                    continue
                sizes = sorted(len(c) for c in comps)
                if len(comps) >= 3 or sizes[0] >= 2:
                    assert exact_pc(g).value == 2
                    checked += 1
        assert checked > 20


class TestEmitReport:
    def test_canonical_and_deterministic(self, tmp_path):
        report_a = run_pc_census(4)
        report_b = run_pc_census(4)
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(report_a, path_a)
        emit_report(report_b, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        data = json.loads(path_a.read_text())
        assert data["pc_histogram"] == {"1": 1, "2": 4, "3": 1}
        assert data["passed"] is True
        assert list(data) == sorted(data)

    def test_ng_report_fields(self, tmp_path):
        report = run_ng_census(5)
        out = tmp_path / "ng.json"
        emit_report(report, out)
        data = json.loads(out.read_text())
        assert data["max_sum"] == 5
        assert data["kind"] == "ng_census"
        assert data["tool_version"]

    def test_refuses_empty_report(self, tmp_path):
        report = run_pc_census(4)
        report.total_graphs = 0
        with pytest.raises(ValueError):
            emit_report(report, tmp_path / "empty.json")

    def test_io_error_names_path(self):
        report = run_pc_census(4)
        with pytest.raises(OSError, match="no/such/dir"):
            emit_report(report, "no/such/dir/report.json")
