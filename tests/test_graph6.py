import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclab import (
    Graph,
    GraphFormatError,
    UnsupportedSizeError,
    graph6_decode,
    graph6_encode,
)
from pclab.generators import complete_graph, path_graph

from test_graph import graphs


def test_k4_is_c_tilde():
    g = graph6_decode("C~")
    assert g.n == 4 and g.m == 6
    assert graph6_encode(complete_graph(4)) == "C~"


def test_k1_is_at():
    g = graph6_decode("@")
    assert g.n == 1 and g.m == 0
    assert graph6_encode(g) == "@"


def test_p4_round_trip_and_reference_encoder():
    g = path_graph(4)
    encoded = graph6_encode(g)
    assert graph6_decode(encoded) == g
    # networkx as the independent reference encoder
    assert encoded == nx.to_graph6_bytes(
        nx.path_graph(4), header=False).decode().strip()


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=10))
def test_round_trip(g):
    assert graph6_decode(graph6_encode(g)) == g


def test_round_trip_large_random():
    rng = random.Random(99)
    for n in (20, 45, 62):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.25]
        g = Graph.from_edges(n, edges)
        encoded = graph6_encode(g)
        assert graph6_decode(encoded) == g
        ref = nx.from_graph6_bytes(encoded.encode())
        assert set(ref.edges()) == {tuple(e) for e in g.edges}


def test_matches_networkx_decoder():
    rng = random.Random(3)
    for _ in range(30):
        G = nx.gnp_random_graph(rng.randint(1, 12), 0.4, seed=rng.randint(0, 10**6))
        line = nx.to_graph6_bytes(G, header=False).decode().strip()
        g = graph6_decode(line)
        assert g.n == G.number_of_nodes()
        assert {tuple(e) for e in g.edges} == {(min(u, v), max(u, v)) for u, v in G.edges()}


class TestErrors:
    def test_empty(self):
        with pytest.raises(GraphFormatError, match="empty"):
            graph6_decode("")

    def test_order_zero(self):
        with pytest.raises(GraphFormatError, match="n >= 1"):
            graph6_decode("?")

    def test_size_byte_out_of_range(self):
        with pytest.raises(GraphFormatError, match="offset 0"):
            graph6_decode("0~")  # '0' is byte 48, below the graph6 range

    def test_data_byte_out_of_range(self):
        with pytest.raises(GraphFormatError, match="offset 1"):
            graph6_decode("C\x05")

    def test_wrong_length(self):
        with pytest.raises(GraphFormatError, match="expected 1 data bytes"):
            graph6_decode("C~~")

    def test_nonzero_padding(self):
        # n=2: one adjacency bit, five pad bits; '' = 63+1 sets a pad bit
        with pytest.raises(GraphFormatError, match="padding"):
            graph6_decode("A@"[0] + chr(63 + 1))

    def test_extended_size_rejected(self):
        with pytest.raises(UnsupportedSizeError):
            graph6_decode("~??~?????")

    def test_encode_size_cap(self):
        with pytest.raises(UnsupportedSizeError):
            graph6_encode(Graph(63, tuple([0] * 63)))

    @settings(max_examples=300, deadline=None)
    @given(st.text() | st.text(st.characters(min_codepoint=32, max_codepoint=127), max_size=12))
    def test_arbitrary_text_raises_only_format_errors(self, text):
        try:
            graph6_decode(text)
        except (GraphFormatError, UnsupportedSizeError):
            pass
