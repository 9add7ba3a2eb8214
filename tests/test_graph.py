"""Core graph type: construction, builders, connectivity, bridges, and the
three minor operations."""

from __future__ import annotations

import itertools
import random

import pytest
from conftest import complete_bipartite_graph, random_graph

from idforest import graph
from idforest import (Graph, NotPresentError, bridges, complete_graph,
                      connected_components, contract_edge, cut_vertices,
                      cycle_graph, delete_edge, delete_vertex, disjoint_union,
                      induced_subgraph, is_2_connected, is_connected,
                      is_forest, is_isomorphic, path_graph,
                      remove_bridges, with_new_vertex)


def bowtie() -> Graph:
    return Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


def cut_vertices_by_definition(g: Graph) -> frozenset:
    """Vertices whose deletion increases the component count, by the
    O(n (n+m)) definition loop."""
    base = len(connected_components(g))
    return frozenset(v for v in range(g.n)
                     if len(connected_components(delete_vertex(g, v))) > base)


class TestConstruction:
    def test_edges_are_normalized_and_deduplicated(self):
        g = Graph(3, [(1, 0), (0, 1), (2, 1)])
        assert g.edges == frozenset({(0, 1), (1, 2)})
        assert g.m == 2

    def test_adjacency_is_symmetric(self):
        g = Graph(4, [(0, 1), (1, 2), (0, 3)])
        for u, v in g.edges:
            assert v in g.neighbors(u) and u in g.neighbors(v)
            assert g.has_edge(u, v) and g.has_edge(v, u)

    def test_degrees(self):
        g = complete_bipartite_graph(2, 3)
        assert [g.degree(v) for v in g.vertices] == [3, 3, 2, 2, 2]

    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, [(1, 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(NotPresentError):
            Graph(2, [(0, 2)])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != Graph(3, [(0, 2)])
        # a graph keeps only its packed matrix, so hashing reads that
        assert Graph.__slots__ == ("n", "_matrix")
        assert hash(Graph._from_rows([0b10, 0b01, 0])) == hash(a)


class TestPackedMatrix:
    """A graph is stored as its packed adjacency matrix, ceil(n/8) bytes a
    row; every view and every builder that works on rows must agree
    with the edge list the graph came from."""

    SIZES = [0, 1, 7, 8, 9, 16, 17, 31, 33, 64, 65, 70]

    @pytest.mark.parametrize("n", SIZES)
    def test_views_match_the_edge_list(self, n):
        rng = random.Random(n)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.2]
        rows = [0] * n
        for u, v in edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        g = Graph(n, edges)
        assert g.adj_masks == tuple(rows)
        assert g.edges == frozenset(edges) and g.m == len(edges)
        for v in range(n):
            assert g.neighbors(v) == frozenset(w for w in range(n) if rows[v] >> w & 1)
            assert g.degree(v) == sum(v in e for e in edges)
            assert [g.has_edge(v, w) for w in range(n)] == [bool(rows[v] >> w & 1)
                                                            for w in range(n)]
        h = Graph(n, [(v, u) for u, v in reversed(edges)])
        assert h == g and hash(h) == hash(g)
        assert Graph._from_rows(rows) == g

    @pytest.mark.parametrize("n", [v for v in SIZES if v >= 2])
    def test_rows_take_ceil_n_over_8_bytes(self, n):
        # the last row holds an edge, so no trailing row is dropped
        assert len(Graph(n, [(0, n - 1)])._matrix) == n * max(1, (n + 7) // 8)

    @pytest.mark.parametrize("n", [0, 9, 70])
    def test_row_reads_refuse_non_vertices(self, n):
        g = complete_graph(n)
        for u, v in [(-1, 0), (0, -1), (-1, -1), (n, 0), (0, n), (n - 1, n), (-1, n - 1)]:
            assert g.has_edge(u, v) is False
        for v in (-1, n):
            with pytest.raises(NotPresentError):
                g.degree(v)
            with pytest.raises(NotPresentError):
                g.neighbors(v)

    @pytest.mark.parametrize("n", [v for v in SIZES if v])
    def test_row_builders_match_edge_definitions(self, n):
        rng = random.Random(1000 + n)
        g = random_graph(rng, n, 0.15)
        v = rng.randrange(n)
        assert delete_vertex(g, v) == Graph(
            n - 1, [(a - (a > v), b - (b > v)) for a, b in g.edges if v not in (a, b)])
        nbrs = rng.sample(range(n), rng.randint(0, n))
        assert with_new_vertex(g, nbrs) == Graph(n + 1, list(g.edges) + [(w, n) for w in nbrs])
        keep = sorted(rng.sample(range(n), rng.randint(0, n)))
        index = {w: i for i, w in enumerate(keep)}
        assert induced_subgraph(g, keep)[0] == Graph(
            len(keep), [(index[a], index[b]) for a, b in g.edges if a in index and b in index])
        perm = rng.sample(range(n), n)
        assert graph._relabel(g.adj_masks, perm) == Graph(
            n, [(perm[a], perm[b]) for a, b in g.edges])
        assert remove_bridges(g) == Graph(n, g.edges - bridges(g))

    @pytest.mark.parametrize("n", [65, 100, 150, 300, 2000])
    def test_induced_subgraph_above_64_vertices(self, n):
        # check the gather on rows wider than 64 bits against the edge-list
        # definition, on a sparse graph (2n edges)
        rng = random.Random(2000 + n)
        edges = set()
        while len(edges) < 2 * n:
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        g = Graph(n, edges)
        for keep in ([], range(n), range(0, n, 3), rng.sample(range(n), rng.randint(1, n))):
            h, origin = induced_subgraph(g, list(keep) + list(keep)[:3])  # repeats are ignored
            assert origin == tuple(sorted(keep))
            index = {w: i for i, w in enumerate(origin)}
            assert h == Graph(len(origin), [(index[a], index[b]) for a, b in edges
                                            if a in index and b in index])

    def test_trailing_isolated_vertices_take_no_storage(self):
        # trailing all-zero rows are dropped, so a large graph without
        # edges costs nothing and equality still compares like with like
        assert Graph(2**14)._matrix == b""
        g = Graph(2**14, [(0, 1)])
        assert len(g._matrix) == 2 * graph._row_size(2**14) and g.m == 1
        assert Graph(70, [(0, 1)]) == Graph._from_rows([2, 1] + [0] * 68)


class TestBuilders:
    def test_path(self):
        g = path_graph(5)
        assert (g.n, g.m) == (5, 4)
        assert is_forest(g) and is_connected(g)

    def test_cycle(self):
        g = cycle_graph(5)
        assert (g.n, g.m) == (5, 5)
        assert all(g.degree(v) == 2 for v in g.vertices)
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_complete(self):
        assert complete_graph(4).m == 6
        assert complete_graph(0).n == 0

    def test_complete_bipartite(self):
        g = complete_bipartite_graph(2, 3)
        assert (g.n, g.m) == (5, 6)

    def test_disjoint_union_shifts_labels(self):
        g = disjoint_union(complete_graph(3), complete_graph(2))
        assert (g.n, g.m) == (5, 4)
        assert g.has_edge(3, 4) and not g.has_edge(2, 3)

    def test_with_new_vertex(self):
        g = with_new_vertex(path_graph(3), [0, 2])
        assert g.n == 4
        assert g.neighbors(3) == frozenset({0, 2})

    def test_induced_subgraph_origin_map(self):
        g = cycle_graph(5)
        h, origin = induced_subgraph(g, [1, 2, 4])
        assert origin == (1, 2, 4)
        assert h.edges == frozenset({(0, 1)})  # the 1-2 edge survives


class TestConnectivity:
    def test_components(self):
        g = disjoint_union(cycle_graph(3), path_graph(2), Graph(1))
        comps = connected_components(g)
        assert sorted(len(c) for c in comps) == [1, 2, 3]

    def test_is_connected(self):
        assert is_connected(cycle_graph(4))
        assert not is_connected(disjoint_union(Graph(1), Graph(1)))
        assert is_connected(Graph(0))

    def test_is_forest(self):
        assert is_forest(path_graph(6))
        assert is_forest(disjoint_union(path_graph(3), path_graph(4)))
        assert not is_forest(cycle_graph(3))
        assert not is_forest(bowtie())

    def test_cut_vertices(self):
        assert cut_vertices(path_graph(4)) == frozenset({1, 2})
        assert cut_vertices(cycle_graph(5)) == frozenset()
        assert cut_vertices(bowtie()) == frozenset({0})

    def test_is_2_connected(self):
        assert is_2_connected(cycle_graph(4))
        assert is_2_connected(complete_graph(2))
        assert not is_2_connected(Graph(1))
        assert not is_2_connected(path_graph(3))
        assert not is_2_connected(bowtie())


class TestBridges:
    def test_every_tree_edge_is_a_bridge(self):
        g = path_graph(6)
        assert bridges(g) == g.edges

    def test_cycles_have_no_bridges(self):
        assert bridges(cycle_graph(7)) == frozenset()
        assert bridges(bowtie()) == frozenset()

    def test_mixed_graph(self):
        # triangle with a pendant path: only the path edges are bridges
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        assert bridges(g) == frozenset({(2, 3), (3, 4)})

    def test_matches_component_count_definition(self):
        rng = random.Random(11)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 10), rng.choice([0.15, 0.3, 0.5]))
            base = len(connected_components(g))
            slow = frozenset(
                e for e in g.edges
                if len(connected_components(delete_edge(g, e))) > base)
            assert bridges(g) == slow

    def test_cut_vertices_match_component_count_definition(self):
        rng = random.Random(13)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 10), rng.choice([0.15, 0.3, 0.5]))
            assert cut_vertices(g) == cut_vertices_by_definition(g)

    def test_remove_bridges_keeps_vertex_count(self):
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        core = remove_bridges(g)
        assert core.n == 5
        assert core.edges == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_remove_bridges_idempotent_and_forest_to_edgeless(self):
        assert remove_bridges(path_graph(7)).m == 0
        g = bowtie()
        assert remove_bridges(remove_bridges(g)) == remove_bridges(g) == g


class TestTwoCore:
    """`graph._two_core` against the definition: delete a vertex of degree
    below 2 while there is one."""

    @staticmethod
    def peeled(g: Graph, alive: set) -> set:
        alive = set(alive)
        while True:
            low = {v for v in alive if len(g.neighbors(v) & alive) < 2}
            if not low:
                return alive
            alive -= low

    def test_known_cores(self):
        # a triangle with a pendant path keeps the triangle; a tree keeps
        # nothing; the bowtie keeps itself, and without its hub nothing
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        assert graph._two_core(g.adj_masks, 0b11111) == 0b00111
        assert graph._two_core(path_graph(6).adj_masks, 0b111111) == 0
        assert graph._two_core(bowtie().adj_masks, 0b11111) == 0b11111
        assert graph._two_core(bowtie().adj_masks, 0b11110) == 0

    def test_matches_repeated_peeling_on_induced_subgraphs(self):
        rng = random.Random(17)
        for _ in range(80):
            g = random_graph(rng, rng.randint(0, 14), rng.choice([0.1, 0.2, 0.4]))
            alive = rng.getrandbits(g.n) if g.n else 0
            core = graph._two_core(g.adj_masks, alive)
            expected = self.peeled(g, {v for v in range(g.n) if alive >> v & 1})
            assert core == sum(1 << v for v in expected)


class TestTraversalsAgainstNetworkx:
    """The shared mask traversal also decides is_forest for brute_idf, so it
    is checked against an independent implementation at n = 20..64."""

    def test_components_bridges_and_cut_vertices(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(20)
        for n in range(20, 65, 4):
            for degree in (1.0, 2.0, 4.0):  # sparse enough for bridges and cut vertices
                g = random_graph(rng, n, degree / (n - 1))
                h = nx.Graph()
                h.add_nodes_from(range(n))
                h.add_edges_from(g.edges)
                want = sorted((frozenset(c) for c in nx.connected_components(h)), key=min)
                assert connected_components(g) == want
                assert is_connected(g) == nx.is_connected(h)
                assert is_forest(g) == nx.is_forest(h)
                assert bridges(g) == frozenset(tuple(sorted(e)) for e in nx.bridges(h))
                assert cut_vertices(g) == frozenset(nx.articulation_points(h))


class TestMinorOperations:
    def test_delete_vertex_relabels_downward(self):
        g = delete_vertex(path_graph(3), 1)
        assert g == Graph(2)
        g = delete_vertex(cycle_graph(4), 0)
        assert g == Graph(3, [(0, 1), (1, 2)])

    def test_delete_edge(self):
        g = delete_edge(cycle_graph(3), (2, 0))
        assert g == Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(NotPresentError):
            delete_edge(path_graph(3), (0, 2))

    def test_contract_edge_heir_is_last_vertex(self):
        assert is_isomorphic(contract_edge(cycle_graph(4), (0, 1)), cycle_graph(3))
        # P4 with the middle edge contracted: ends keep order, heir is last
        g = contract_edge(path_graph(4), (1, 2))
        assert g == Graph(3, [(0, 2), (1, 2)])

    def test_contract_edge_merges_parallel_edges(self):
        g = contract_edge(complete_graph(4), (0, 1))
        assert is_isomorphic(g, complete_graph(3))

    def test_contract_missing_edge_raises(self):
        for e in [(1, 2), (1, 1), (0, 5), (-1, 0)]:
            with pytest.raises(NotPresentError):
                contract_edge(Graph(3, [(0, 1), (0, 2)]), e)

    def test_operations_shrink_or_preserve(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 9), 0.4)
            if g.m == 0:
                continue
            e = sorted(g.edges)[rng.randrange(g.m)]
            assert delete_edge(g, e).m == g.m - 1
            assert contract_edge(g, e).n == g.n - 1
            assert delete_vertex(g, e[0]).n == g.n - 1
