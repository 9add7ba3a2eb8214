"""Blockwise identification: partition validation, quotient structure, the
forest predicate, and the text format."""

from __future__ import annotations

import random

import pytest
from conftest import graphs_up_to, identify_set, random_graph

from idforest import (Graph, InvalidBlockError, VertexPartition,
                      complete_graph, contract_edge, cycle_graph,
                      disjoint_union, identify_partition,
                      is_id_forest_partition, is_isomorphic,
                      normalize_partition, partition_to_text, path_graph,
                      text_to_partition)


def random_partition(rng: random.Random, n: int, max_blocks: int = 3) -> VertexPartition:
    verts = list(range(n))
    rng.shuffle(verts)
    blocks = []
    for _ in range(rng.randint(0, max_blocks)):
        if len(verts) < 2:
            break
        size = rng.randint(2, min(3, len(verts)))
        blocks.append([verts.pop() for _ in range(size)])
    return VertexPartition(blocks)


def edge_set_contraction(g: Graph, e: tuple[int, int]) -> Graph:
    """Reference contraction on the edge set: the untouched vertices keep
    their relative order, the merged vertex is last, parallel edges merge
    and the loop drops."""
    rest = [x for x in range(g.n) if x not in e]
    index = {x: i for i, x in enumerate(rest)}
    heir = len(rest)
    edges = set()
    for a, b in g.edges:
        na, nb = index.get(a, heir), index.get(b, heir)
        if na != nb:
            edges.add((min(na, nb), max(na, nb)))
    return Graph(g.n - 1, edges)


class TestVertexPartition:
    def test_blocks_sorted_by_minimum(self):
        p = VertexPartition([[5, 4], [0, 2]])
        assert p.blocks == (frozenset({0, 2}), frozenset({4, 5}))

    def test_order_counts_touched_vertices(self):
        assert VertexPartition([[0, 1, 2], [4, 5]]).order == 5
        assert VertexPartition().order == 0

    def test_support(self):
        assert VertexPartition([[1, 3]]).support() == frozenset({1, 3})

    def test_input_order_is_irrelevant(self):
        a = VertexPartition([[0, 1], [2, 3]])
        b = VertexPartition([[3, 2], [1, 0]])
        assert a == b and hash(a) == hash(b)
        # a partition keeps only its sorted blocks, so hashing reads those
        assert VertexPartition.__slots__ == ("_sorted",)

    def test_empty_block_rejected(self):
        with pytest.raises(InvalidBlockError):
            VertexPartition([[0, 1], []])

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(InvalidBlockError):
            VertexPartition([[0, 1], [1, 2]])

    def test_normalize_drops_noop_blocks(self):
        assert normalize_partition([(1, 0)]) == VertexPartition([[0, 1]])
        assert normalize_partition([[3], [0, 1], []]) == VertexPartition([[0, 1]])


class TestIdentifyPartition:
    def test_single_block_of_triangle_gives_one_edge(self):
        h, image = identify_partition(complete_graph(3), VertexPartition([[1, 2]]))
        assert h == Graph(2, [(0, 1)])
        assert image == (0, 1, 1)

    def test_quotient_order_formula(self):
        rng = random.Random(61)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 9), 0.4)
            p = random_partition(rng, g.n)
            h, _ = identify_partition(g, p)
            assert h.n == g.n - sum(len(b) - 1 for b in p.blocks)

    def test_heirs_come_after_untouched_vertices(self):
        g = cycle_graph(5)
        p = VertexPartition([[0, 2], [1, 4]])
        h, image = identify_partition(g, p)
        assert image == (1, 2, 1, 0, 2)
        assert h.n == 3

    def test_untouched_vertices_map_to_their_rank(self):
        p = VertexPartition([[1, 5], [2, 7]])
        _, image = identify_partition(path_graph(8), p)
        assert [image[v] for v in (0, 3, 4, 6)] == [0, 1, 2, 3]
        assert image == (0, 4, 5, 1, 2, 4, 3, 5)

    def test_adjacent_two_block_matches_edge_contraction(self):
        for g in graphs_up_to(5):
            for u, v in sorted(g.edges):
                expected = edge_set_contraction(g, (u, v))
                assert identify_partition(g, VertexPartition([(u, v)]))[0] == expected
                assert contract_edge(g, (u, v)) == expected
                assert contract_edge(g, (v, u)) == expected

    def test_identification_never_depends_on_block_listing_order(self):
        rng = random.Random(67)
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 8), 0.5)
            p = random_partition(rng, g.n)
            blocks = [sorted(b) for b in p.blocks]
            rng.shuffle(blocks)
            q = VertexPartition(blocks)
            assert identify_partition(g, p)[0] == identify_partition(g, q)[0]

    def test_component_respecting_partition_decomposes(self):
        rng = random.Random(71)
        for _ in range(25):
            g1 = random_graph(rng, rng.randint(2, 5), 0.6)
            g2 = random_graph(rng, rng.randint(2, 5), 0.6)
            p1 = random_partition(rng, g1.n, max_blocks=1)
            p2 = random_partition(rng, g2.n, max_blocks=1)
            both = disjoint_union(g1, g2)
            shifted = [sorted(b) for b in p1.blocks]
            shifted += [[v + g1.n for v in b] for b in p2.blocks]
            whole, _ = identify_partition(both, VertexPartition(shifted))
            parts = disjoint_union(identify_partition(g1, p1)[0],
                                   identify_partition(g2, p2)[0])
            assert is_isomorphic(whole, parts)

    def test_out_of_range_block_rejected(self):
        with pytest.raises(InvalidBlockError):
            identify_partition(path_graph(3), VertexPartition([[2, 3]]))

    def test_empty_partition_is_identity(self):
        g = cycle_graph(4)
        h, image = identify_partition(g, VertexPartition())
        assert h == g
        assert image == (0, 1, 2, 3)


class TestIdentifySet:
    def test_returns_heir_label(self):
        h, heir = identify_set(cycle_graph(4), [0, 2])
        assert heir == 2
        assert h == Graph(3, [(0, 2), (1, 2)])  # a path: 1-heir-3 collapses

    def test_empty_set_rejected(self):
        with pytest.raises(InvalidBlockError):
            identify_set(cycle_graph(3), [])

    def test_nonadjacent_pair_can_create_new_adjacency(self):
        # identifying the two ends of P3 closes it into a 2-cycle -> one edge
        h, heir = identify_set(path_graph(3), [0, 2])
        assert h == Graph(2, [(0, 1)]) and heir == 1


class TestForestPredicate:
    def test_examples(self):
        assert is_id_forest_partition(complete_graph(3), VertexPartition([[1, 2]]))
        assert is_id_forest_partition(cycle_graph(4), VertexPartition([[0, 2]]))
        assert not is_id_forest_partition(cycle_graph(4), VertexPartition([[0, 1]]))
        assert is_id_forest_partition(path_graph(5), VertexPartition())
        assert not is_id_forest_partition(cycle_graph(3), VertexPartition())

    def test_whole_vertex_set_always_works(self):
        # one block holding every vertex leaves a single point
        for g in graphs_up_to(4):
            if g.n >= 2:
                assert is_id_forest_partition(g, VertexPartition([range(g.n)]))


class TestTextFormat:
    def test_round_trip(self):
        p = VertexPartition([[0, 2], [1, 3]])
        assert text_to_partition(partition_to_text(p)) == p

    def test_plain_examples(self):
        assert partition_to_text(VertexPartition([[2, 0]])) == "0,2"
        assert text_to_partition("0,2;1,3") == VertexPartition([[0, 2], [1, 3]])
        assert text_to_partition("") == VertexPartition()
        assert text_to_partition(" 4 , 1 ") == VertexPartition([[1, 4]])

    @pytest.mark.parametrize("text", ["0,;1", ";", "a,b", "0,,1", "0,3;1,2,1"])
    def test_malformed_text_rejected(self, text):
        with pytest.raises(ValueError):
            text_to_partition(text)
