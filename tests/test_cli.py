import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from pclab import (
    ConnectivityCheck,
    Graph,
    GraphFormatError,
    UnsupportedSizeError,
    exact_pc,
    format_coloring,
    graph6_decode,
    graph6_encode,
)
import pclab.cli
from pclab.census import CENSUS_CHECKS
from pclab.cli import main
from pclab.constructions import THEOREMS
from pclab.generators import cycle_graph, double_star, path_graph, star_graph, star_plus_edge

from conftest import ear_coloring


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def kv(out):
    pairs = {}
    for line in out.splitlines():
        if "=" in line and not line.startswith(("colors", "edge")):
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


class TestPc:
    def test_complete_graph_is_one(self, capsys):
        code, out, _ = run_cli("pc", "C~", capsys=capsys)
        assert code == 0
        assert kv(out)["value"] == "1"

    def test_claw_is_three(self, capsys):
        code, out, _ = run_cli("pc", graph6_encode(star_graph(4)), capsys=capsys)
        assert code == 0 and kv(out)["value"] == "3"

    def test_json_output(self, capsys):
        code, out, _ = run_cli("pc", "C~", "--json", capsys=capsys)
        payload = json.loads(out)
        assert payload["value"] == 1 and payload["exhausted"] is True
        assert payload["colors"] == 1

    def test_json_output_is_byte_identical_across_runs(self, capsys):
        g6 = graph6_encode(star_plus_edge(5))
        first = run_cli("pc", g6, "--json", capsys=capsys)
        assert first == run_cli("pc", g6, "--json", capsys=capsys)
        assert first[0] == 0 and list(json.loads(first[1])["stats"]) == ["assignments"]

    def test_certificate_file_round_trips_through_verify(self, capsys, tmp_path):
        g6 = graph6_encode(double_star(2, 3))
        cert = tmp_path / "cert.txt"
        code, out, _ = run_cli("pc", g6, "--cert", str(cert), capsys=capsys)
        assert code == 0 and kv(out)["value"] == "3"
        code, out, _ = run_cli("verify", g6, "--coloring", str(cert), capsys=capsys)
        assert code == 0 and kv(out)["ok"] == "true"


class TestVerify:
    def test_bad_coloring_exits_one_with_witness(self, capsys, tmp_path):
        g = star_graph(4)
        bad = tmp_path / "bad.txt"
        bad.write_text("colors 2\nedge 0 1 1\nedge 0 2 1\nedge 0 3 2\n")
        code, out, _ = run_cli("verify", graph6_encode(g), "--coloring", str(bad),
                               capsys=capsys)
        assert code == 1
        assert kv(out)["witness"] == "1,2"

    def test_strong_check(self, capsys, tmp_path):
        g = cycle_graph(4)
        cert = tmp_path / "strong.txt"
        cert.write_text(format_coloring(ear_coloring(g), g))
        code, out, _ = run_cli("verify", graph6_encode(g), "--coloring", str(cert),
                               "--strong", capsys=capsys)
        assert code == 0 and kv(out)["ok"] == "true"

    def test_proper_connected_but_not_strong(self, capsys, tmp_path):
        # P3 colored 1, 2 joins every pair, but its ends have one path only
        cert = tmp_path / "p3.txt"
        cert.write_text("colors 2\nedge 0 1 1\nedge 1 2 2\n")
        g6 = graph6_encode(path_graph(3))
        code, out, _ = run_cli("verify", g6, "--coloring", str(cert), capsys=capsys)
        assert code == 0 and kv(out)["ok"] == "true"
        code, out, _ = run_cli("verify", g6, "--coloring", str(cert), "--strong",
                               capsys=capsys)
        assert code == 1 and kv(out)["ok"] == "false"

    def test_one_vertex_certificate_round_trips(self, capsys, tmp_path):
        # K_1 has no edges, so its certificate reads "colors 0"
        cert = tmp_path / "cert.txt"
        code, out, _ = run_cli("pc", "@", "--cert", str(cert), capsys=capsys)
        assert code == 0 and cert.read_text() == "colors 0\n"
        code, out, _ = run_cli("verify", "@", "--coloring", str(cert), capsys=capsys)
        assert code == 0 and kv(out)["ok"] == "true"

    def test_no_colors_for_an_edge_or_negative_k_is_input_error(self, capsys, tmp_path):
        for g6, text in [("A_", "colors 0\nedge 0 1 1\n"), ("@", "colors -1\n")]:
            bad = tmp_path / "bad.txt"
            bad.write_text(text)
            code, _, err = run_cli("verify", g6, "--coloring", str(bad), capsys=capsys)
            assert code == 2 and "error" in err, text

    def test_malformed_coloring_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("edge 0 1 1\n")
        code, _, err = run_cli("verify", "C~", "--coloring", str(bad), capsys=capsys)
        assert code == 2 and "error" in err


class TestInfo:
    def test_fields(self, capsys):
        code, out, _ = run_cli("info", graph6_encode(star_graph(4)), capsys=capsys)
        pairs = kv(out)
        assert code == 0
        assert pairs["n"] == "4" and pairs["m"] == "3"
        assert pairs["diameter"] == "2" and pairs["b"] == "3"
        assert pairs["bipartite"] == "true"

    def test_bad_graph6_is_input_error(self, capsys):
        code, _, err = run_cli("info", "C", capsys=capsys)
        assert code == 2 and "error" in err

    @settings(max_examples=200, deadline=None)
    @given(st.text() | st.text(st.characters(min_codepoint=32, max_codepoint=127), max_size=12))
    @example("C~")
    @example("-C")
    def test_arbitrary_text_exits_zero_or_two(self, text):
        try:
            graph6_decode(text)
            want = 0
        except (GraphFormatError, UnsupportedSizeError):
            want = 2
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(["info", text])
            except SystemExit as exc:  # argparse rejects text that looks like an option
                code = exc.code
        assert code == want


class TestColorComplement:
    def test_auto_on_long_path(self, capsys):
        code, out, _ = run_cli("color-complement", graph6_encode(path_graph(6)),
                               capsys=capsys)
        assert code == 0
        assert kv(out)["branch"] == "diam_ge4"
        assert "colors 2" in out

    def test_p4_certificate_is_pinned(self, capsys):
        # Ch is the 4-path 0-1-2-3, and its complement is the path 2-0-3-1:
        # {0, 1} against {3} colors 0-3 with 1 and the other two edges with 2
        code, out, _ = run_cli("color-complement", "Ch", capsys=capsys)
        assert code == 0 and kv(out)["branch"] == "diam3_n2_one"
        assert out[out.index("colors "):] == "colors 2\nedge 0 2 2\nedge 0 3 1\nedge 1 3 2\n"

    def test_method_precondition_exit(self, capsys):
        code, _, err = run_cli("color-complement", graph6_encode(path_graph(3)),
                               "--method", "thm31", capsys=capsys)
        assert code == 3 and "precondition" in err

    def test_thm33_needs_triangle_free_input(self, capsys):
        # diameter 3 with one middle vertex and a triangle: outside Thm 3.3's
        # hypothesis, though the dispatcher colors it
        g6 = graph6_encode(Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (3, 5)]))
        code, _, err = run_cli("color-complement", g6, "--method", "thm33", capsys=capsys)
        assert code == 3 and "precondition" in err
        code, out, _ = run_cli("color-complement", g6, "--method", "auto", capsys=capsys)
        assert code == 0 and kv(out)["branch"] == "diam3_n2_one"

    def test_no_construction_exits_one(self, capsys):
        # diameter 2 with triangles: the dispatcher has nothing to offer
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
        code, out, _ = run_cli("color-complement", graph6_encode(g), capsys=capsys)
        assert code == 1
        assert kv(out)["outcome"] == "no_construction"

    def test_lower_bound_outcome_exits_one(self, capsys):
        # diameter 3 with triangles and a two-vertex middle: only the layer bound
        code, out, _ = run_cli("color-complement", "E@NG", capsys=capsys)
        pairs = kv(out)
        assert code == 1
        assert {key: pairs[key] for key in ("outcome", "case", "n1", "n2", "n3",
                                            "n2_prime", "lower_bound")} == {
            "outcome": "lower_bound", "case": "n2_big", "n1": "1", "n2": "2",
            "n3": "2", "n2_prime": "0", "lower_bound": "2"}

    def test_failed_construction_exits_one(self, capsys, monkeypatch):
        # a literal coloring that fails its check is no construction, not a traceback
        monkeypatch.setattr(pclab.constructions, "is_proper_connected",
                            lambda h, coloring: ConnectivityCheck(False, (0, 1)))
        code, out, err = run_cli("color-complement", "DhC", capsys=capsys)
        assert code == 1 and out == ""
        assert err.startswith("construction: diam_ge4")

    def test_emitted_coloring_verifies(self, capsys, tmp_path):
        from pclab import complement, parse_coloring, is_proper_connected

        g6 = graph6_encode(path_graph(5))
        code, out, _ = run_cli("color-complement", g6, capsys=capsys)
        assert code == 0
        coloring_text = out[out.index("colors "):]
        h = complement(graph6_decode(g6))
        assert is_proper_connected(h, parse_coloring(coloring_text, h))


class TestGen:
    def test_round_trip_matches_library(self, capsys):
        code, out, _ = run_cli("gen", "--family", "double_star", "--params", "2,4",
                               capsys=capsys)
        assert code == 0
        g = graph6_decode(out.strip())
        assert exact_pc(g).value == 4
        code, out, _ = run_cli("pc", out.strip(), capsys=capsys)
        assert code == 0 and kv(out)["value"] == "4"

    def test_bad_params_exit_two(self, capsys):
        for family, params in [("cycle", "2"), ("path", "0"),
                               ("complete_multipartite", "0,2")]:
            code, _, err = run_cli("gen", "--family", family, "--params", params,
                                   capsys=capsys)
            assert code == 2 and "error" in err, family

    def test_too_large_rejected_before_building(self, capsys, monkeypatch):
        def refuse(spec):
            raise AssertionError(f"generate called with {spec}")

        monkeypatch.setattr(pclab.cli, "generate", refuse)
        for family, params in [("complete", "2000"), ("double_star", "40,23"),
                               ("complete_multipartite", "30,30,3")]:
            code, _, err = run_cli("gen", "--family", family, "--params", params,
                                   capsys=capsys)
            assert code == 2 and "n <= 62" in err


class TestCensus:
    def test_ng_five(self, capsys, tmp_path):
        out_file = tmp_path / "ng5.json"
        code, out, _ = run_cli("census", "--n", "5", "--check", "ng",
                               "--out", str(out_file), capsys=capsys)
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["passed"] is True and data["max_sum"] == 5

    def test_histogram_five(self, capsys):
        code, out, _ = run_cli("census", "--n", "5", "--check", "histogram",
                               "--json", capsys=capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_thm41_is_not_a_check(self, capsys):
        # histogram is the one name of the pc census
        with pytest.raises(SystemExit) as caught:
            main(["census", "--n", "4", "--check", "thm41"])
        assert caught.value.code == 2
        assert "invalid choice: 'thm41'" in capsys.readouterr().err

    def test_out_of_range_is_input_error(self, capsys):
        # one size rule: every check refuses n = 9, one past the enumerator,
        # and accepts n = 8 (thm38 in the next test); the two full exact
        # censuses at n = 8 are left to the acceptance suite to keep this short
        for check in CENSUS_CHECKS:
            code, _, err = run_cli("census", "--n", "9", "--check", check, capsys=capsys)
            assert code == 2 and "n <= 8" in err, check
        for check in THEOREMS:
            code, out, _ = run_cli("census", "--n", "8", "--check", check, capsys=capsys)
            assert code == 0 and kv(out)["passed"] == "true", check

    def test_thm38_at_eight(self, capsys):
        code, out, _ = run_cli("census", "--n", "8", "--check", "thm38", capsys=capsys)
        assert code == 0 and kv(out)["qualifying"] == "405"

    def test_budget_cutoff_lines_go_to_stderr(self, capsys):
        code, out, err = run_cli("census", "--n", "5", "--check", "histogram",
                                 "--budget", "0.000001", capsys=capsys)
        assert code == 1 and kv(out)["complete"] == "false"
        lines = err.splitlines()
        assert lines and all(line.startswith("  budget exhausted on ") for line in lines)
        assert "budget exhausted" not in out

    def test_out_into_missing_directory_is_io_error(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "report.json"
        code, _, err = run_cli("census", "--n", "4", "--check", "histogram",
                               "--out", str(out_file), capsys=capsys)
        assert code == 2 and err.startswith("io error:")


class TestBudgetEnv:
    def test_tiny_budget_exits_four(self, capsys, monkeypatch):
        from pclab.generators import star_plus_edge

        monkeypatch.setenv("PCLAB_BUDGET_SECS", "0.000001")
        code, out, _ = run_cli("pc", graph6_encode(star_plus_edge(5)), capsys=capsys)
        assert code == 4
        assert kv(out)["exhausted"] == "false"

    def test_budget_must_be_positive(self, capsys, monkeypatch):
        from pclab.generators import star_plus_edge

        code6 = graph6_encode(star_plus_edge(5))
        for value in ("0", "-1", "nan"):
            code, _, err = run_cli("pc", code6, "--budget", value, capsys=capsys)
            assert code == 2 and "--budget" in err
        for value in ("0", "nan", "soon"):
            monkeypatch.setenv("PCLAB_BUDGET_SECS", value)
            code, _, err = run_cli("pc", code6, capsys=capsys)
            assert code == 2 and "PCLAB_BUDGET_SECS" in err


def test_installed_entry_point_smoke():
    # the child imports the checkout's sources, not whatever pclab is installed
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "pclab.cli", "pc", "C~"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "value=1" in proc.stdout
