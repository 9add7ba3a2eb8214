"""graph6 codec and the plain edge-list format."""

from __future__ import annotations

import random

import pytest
from conftest import graphs_up_to, random_graph
from hypothesis import given, settings
from hypothesis import strategies as st

from idforest import (GRAPH6_MAX_VERTICES, Graph, Graph6ParseError, SizeLimitError,
                      complete_graph, cycle_graph, disjoint_union,
                      edge_list_str, edge_list_to_graph, graph6_bytes,
                      graph6_str, graph6_to_graph)

NON_GRAPH6_BYTES = [byte for byte in range(256) if not 63 <= byte <= 126]


class TestGraph6:
    @pytest.mark.parametrize("text,graph", [
        ("?", Graph(0)),
        ("@", Graph(1)),
        ("A?", Graph(2)),
        ("A_", complete_graph(2)),
        ("Bw", complete_graph(3)),
        ("C~", complete_graph(4)),
        ("Dhc", cycle_graph(5)),
    ])
    def test_known_encodings(self, text, graph):
        assert graph6_to_graph(text) == graph
        assert graph6_str(graph) == text

    def test_round_trip_is_identity_on_catalog(self):
        for g in graphs_up_to(6):
            assert graph6_to_graph(graph6_str(g)) == g

    def test_round_trip_on_random_graphs(self):
        rng = random.Random(53)
        for n in (0, 1, 2, 7, 13, 30, 62, 63, 64):
            g = random_graph(rng, n, 0.3)
            assert graph6_to_graph(graph6_bytes(g)) == g

    def test_bytes_and_str_agree(self):
        g = cycle_graph(6)
        assert graph6_bytes(g).decode("ascii") == graph6_str(g)

    def test_trailing_newline_tolerated(self):
        assert graph6_to_graph("Bw\n") == complete_graph(3)
        assert graph6_to_graph(b"Bw\r\n") == complete_graph(3)

    def test_encoder_size_guard(self):
        # up to 62 vertices the header is one byte; from 63 it is "~" and n
        # in three six-bit bytes, up to GRAPH6_MAX_VERTICES = 258047
        assert graph6_str(cycle_graph(62))[0] == "}"
        assert graph6_str(cycle_graph(63))[:4] == "~??~"
        assert graph6_str(cycle_graph(64))[:4] == "~?@?"
        assert graph6_to_graph(graph6_str(cycle_graph(64))) == cycle_graph(64)
        with pytest.raises(SizeLimitError):
            graph6_str(Graph(GRAPH6_MAX_VERTICES + 1))

    @pytest.mark.parametrize("header,n", [
        ("~??~", 63),
        ("~B?x", 12345),   # the worked example of the graph6 format notes
        ("~}~~", 258047),  # GRAPH6_MAX_VERTICES, the largest four-byte size
    ])
    def test_four_byte_size_header_is_read(self, header, n):
        # no payload follows, so the decoder reports the size it read
        with pytest.raises(Graph6ParseError, match=f"for n={n}, got 0"):
            graph6_to_graph(header)

    @pytest.mark.parametrize("text,offset", [
        ("", 0),       # nothing at all
        ("~~", 1),     # eight-byte size form (n > 258047) not supported
        ("~??", 3),    # four-byte size header cut short
        ("~?:?", 2),   # size byte below the graph6 range
        (" w", 0),     # header below the printable graph6 range
        ("B", 1),      # payload missing
        ("Bww", 2),    # payload too long
        ("B:", 1),     # payload byte below the graph6 range
        ("Bz", 1),     # nonzero padding bits
        ("B\u00e9", 1),  # non-ASCII character in str input
    ])
    def test_parse_errors_carry_byte_offset(self, text, offset):
        with pytest.raises(Graph6ParseError) as err:
            graph6_to_graph(text)
        assert err.value.offset == offset
        assert f"(byte {offset})" in str(err.value)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 64), st.integers(0, 2**32 - 1), st.data())
    def test_a_replaced_byte_is_reported_at_its_offset(self, n, seed, data):
        text = graph6_bytes(random_graph(random.Random(seed), n, 0.3))
        pos = data.draw(st.integers(0, len(text) - 1))
        bad = data.draw(st.sampled_from(NON_GRAPH6_BYTES))
        with pytest.raises(Graph6ParseError) as err:
            graph6_to_graph(text[:pos] + bytes([bad]) + text[pos + 1:])
        assert err.value.offset == pos


class TestEdgeList:
    def test_round_trip(self):
        g = disjoint_union(cycle_graph(4), Graph(2, [(0, 1)]))
        assert edge_list_to_graph(edge_list_str(g)) == g

    def test_format_shape(self):
        text = edge_list_str(Graph(3, [(2, 0)]))
        assert text == "3 1\n0 2\n"

    def test_parses_isolated_vertices(self):
        assert edge_list_to_graph("4 1\n1 3\n") == Graph(4, [(1, 3)])

    MALFORMED = [
        ("", "empty"),
        ("3\n", "header must be 'n m'"),
        ("x y\n", "header must be two integers"),
        ("3 2\n0 1\n", "announces 2 edges but 1"),
        ("3 1\n0 1\n1 2\n", "announces 1 edges but 2"),
        ("2 1\n0 3\n", "leaves vertex range"),
        ("2 1\n0\n", "edge line must be 'u v'"),
        ("2 1\n0 x\n", "edge line must be two integers, got '0 x'"),
        ("3 2\n0 1\n1 0\n", "edge line '1 0' repeats an earlier edge"),
    ]

    @pytest.mark.parametrize("text,match", MALFORMED, ids=[text for text, _ in MALFORMED])
    def test_rejects_malformed_input(self, text, match):
        with pytest.raises(ValueError, match=match):
            edge_list_to_graph(text)
