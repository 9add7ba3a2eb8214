"""graph6 codec and the plain edge-list format."""

from __future__ import annotations

import random

import pytest
from conftest import graphs_up_to, random_graph

from idforest import (Graph, Graph6ParseError, SizeLimitError,
                      complete_graph, cycle_graph, disjoint_union,
                      edge_list_str, edge_list_to_graph, graph6_bytes,
                      graph6_str, graph6_to_graph)


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
        for n in (0, 1, 2, 7, 13, 30, 62):
            g = random_graph(rng, n, 0.3)
            assert graph6_to_graph(graph6_bytes(g)) == g

    def test_bytes_and_str_agree(self):
        g = cycle_graph(6)
        assert graph6_bytes(g).decode("ascii") == graph6_str(g)

    def test_trailing_newline_tolerated(self):
        assert graph6_to_graph("Bw\n") == complete_graph(3)
        assert graph6_to_graph(b"Bw\r\n") == complete_graph(3)

    def test_encoder_size_guard(self):
        assert graph6_to_graph(graph6_str(cycle_graph(62))) == cycle_graph(62)
        with pytest.raises(SizeLimitError):
            graph6_str(Graph(63))

    @pytest.mark.parametrize("text,offset", [
        ("", 0),       # nothing at all
        ("~??", 0),    # multi-byte size prefix not supported
        (" w", 0),     # header below the printable graph6 range
        ("B", 1),      # payload missing
        ("Bww", 2),    # payload too long
        ("B:", 1),     # payload byte below the graph6 range
        ("Bz", 1),     # nonzero padding bits
    ])
    def test_parse_errors_carry_byte_offset(self, text, offset):
        with pytest.raises(Graph6ParseError) as err:
            graph6_to_graph(text)
        assert err.value.offset == offset
        assert f"(byte {offset})" in str(err.value)


class TestEdgeList:
    def test_round_trip(self):
        g = disjoint_union(cycle_graph(4), Graph(2, [(0, 1)]))
        assert edge_list_to_graph(edge_list_str(g)) == g

    def test_format_shape(self):
        text = edge_list_str(Graph(3, [(2, 0)]))
        assert text == "3 1\n0 2\n"

    def test_parses_isolated_vertices(self):
        assert edge_list_to_graph("4 1\n1 3\n") == Graph(4, [(1, 3)])

    @pytest.mark.parametrize("text", [
        "",                 # empty
        "3\n",              # header is not 'n m'
        "x y\n",            # non-numeric header
        "3 2\n0 1\n",       # fewer edge lines than announced
        "3 1\n0 1\n1 2\n",  # more edge lines than announced
        "2 1\n0 3\n",       # endpoint out of range
        "2 1\n0\n",         # malformed edge line
    ])
    def test_rejects_malformed_input(self, text):
        with pytest.raises(ValueError):
            edge_list_to_graph(text)
