"""Blockwise identification: partition validation, quotient structure, the
forest predicate, and the text format."""

from __future__ import annotations

import random

import pytest
from conftest import graphs_up_to, identify_set, random_graph

from idforest import (GRAPH6_MAX_VERTICES, Graph, InvalidBlockError, VertexPartition,
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
        # a partition keeps only its block masks, so hashing reads those
        assert VertexPartition.__slots__ == ("_masks",)

    def test_empty_block_rejected(self):
        with pytest.raises(InvalidBlockError):
            VertexPartition([[0, 1], []])

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(InvalidBlockError):
            VertexPartition([[0, 1], [1, 2]])

    @pytest.mark.parametrize("blocks", [[[0, -1]], [[2], [-3, 4]]])
    def test_negative_label_rejected(self, blocks):
        with pytest.raises(InvalidBlockError, match="block vertex -"):
            VertexPartition(blocks)

    @pytest.mark.parametrize("label", [GRAPH6_MAX_VERTICES + 1, 10**12])
    def test_label_past_every_graph_rejected(self, label):
        # a label is a bit position, so a huge one must not build a huge int
        with pytest.raises(InvalidBlockError, match=f"block vertex {label} not in"):
            VertexPartition([[0, label]])
        assert VertexPartition([[0, GRAPH6_MAX_VERTICES]]).order == 2

    def test_overlap_names_the_shared_vertices(self):
        with pytest.raises(InvalidBlockError, match=r"^blocks overlap on \[3, 70\]$"):
            VertexPartition([[70, 3, 1], [5], [0, 70, 3]])

    def test_normalize_drops_noop_blocks(self):
        assert normalize_partition([(1, 0)]) == VertexPartition([[0, 1]])
        assert normalize_partition([[3], [0, 1], []]) == VertexPartition([[0, 1]])


class SetPartition:
    """The set-based reference for `VertexPartition`: frozenset blocks
    ordered by minimum, every view read straight off them."""

    def __init__(self, blocks):
        self.blocks = tuple(sorted((frozenset(b) for b in blocks), key=min))

    def text(self) -> str:
        return ";".join(",".join(map(str, sorted(b))) for b in self.blocks)

    def repr(self) -> str:
        return f"VertexPartition({[sorted(b) for b in self.blocks]})"

    def identify(self, g: Graph) -> tuple[Graph, tuple[int, ...]]:
        support = set().union(*self.blocks)
        untouched = [v for v in range(g.n) if v not in support]
        image = {v: i for i, v in enumerate(untouched)}
        for heir, block in enumerate(self.blocks, len(untouched)):
            image.update(dict.fromkeys(block, heir))
        edges = {(min(image[u], image[v]), max(image[u], image[v]))
                 for u, v in g.edges if image[u] != image[v]}
        return (Graph(len(untouched) + len(self.blocks), edges),
                tuple(image[v] for v in range(g.n)))


def random_blocks(rng: random.Random, n: int) -> list[list[int]]:
    """Disjoint blocks of 1..4 vertices from a random subset of 0..n-1."""
    verts = rng.sample(range(n), rng.randint(0, n))
    blocks = []
    while verts:
        size = rng.randint(1, min(4, len(verts)))
        blocks.append([verts.pop() for _ in range(size)])
    return blocks


class TestMaskTwin:
    """`VertexPartition` stores block masks; each view must equal the one
    the set-based reference reads off frozensets, labels above 64 included."""

    def test_views_match_the_set_reference(self):
        rng = random.Random(71)
        g = random_graph(rng, 71, 0.05)
        for _ in range(300):
            blocks = random_blocks(rng, 71)
            p, ref = VertexPartition(blocks), SetPartition(blocks)
            assert p.blocks == ref.blocks and list(p) == list(ref.blocks)
            assert p.order == sum(map(len, ref.blocks))
            assert p.support() == frozenset().union(*ref.blocks)
            assert len(p) == len(ref.blocks)
            assert repr(p) == ref.repr()
            assert partition_to_text(p) == ref.text()
            assert text_to_partition(ref.text()) == p
            kept = [b for b in ref.blocks if len(b) >= 2]
            assert normalize_partition(p).blocks == SetPartition(kept).blocks
            assert normalize_partition(blocks) == VertexPartition(kept)
            assert identify_partition(g, p) == ref.identify(g)

    def test_equality_ignores_block_and_vertex_order(self):
        rng = random.Random(72)
        for _ in range(300):
            blocks = random_blocks(rng, 71)
            shuffled = [rng.sample(b, len(b)) for b in blocks]
            rng.shuffle(shuffled)
            p, q = VertexPartition(blocks), VertexPartition(shuffled)
            assert p == q and hash(p) == hash(q)
            if blocks:
                assert p != VertexPartition(blocks[1:])

    def test_out_of_graph_vertex_message(self):
        # the first block in order that leaves the graph names its lowest
        # vertex outside it
        p = VertexPartition([[9, 1, 70], [0, 66, 65], [2, 3]])
        with pytest.raises(InvalidBlockError, match="^block vertex 65 not in graph on 64 vertices$"):
            identify_partition(Graph(64), p)


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

    @pytest.mark.parametrize("text", ["0,;1", ";", "a,b", "0,,1", "0,3;1,2,1", "0,1;1,2"])
    def test_malformed_text_rejected(self, text):
        # blocks that overlap parse, and are then refused as a partition
        with pytest.raises(InvalidBlockError if text == "0,1;1,2" else ValueError):
            text_to_partition(text)
