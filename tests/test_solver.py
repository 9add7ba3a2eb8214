"""The identification-number solver: exact values with certificates, the
decision wrapper, the apex gadget, the reduction from cover instances, and
the 2k+1 kernel pipeline."""

from __future__ import annotations

import dataclasses
import gc
import itertools
import json
import pickle
import random
import tracemalloc

import pytest
from conftest import complete_bipartite_graph, graphs_up_to, random_graph, relabel
from hypothesis import given, settings
from hypothesis import strategies as st

from idforest import (Graph, VertexPartition, apex_bridgeless, bridges,
                      brute_vc, complete_graph,
                      cycle_graph, disjoint_union,
                      gen_marguerite, gen_triangles, identify_partition,
                      idf_decision, idf_exact, idf_kernel, is_forest,
                      is_id_forest_partition, is_isomorphic,
                      partition_from_cover, path_graph, remove_bridges,
                      vc_exact, vc_to_idf, with_new_vertex)


class TestExactValue:
    @pytest.mark.parametrize("graph,value", [
        (path_graph(6), 0),
        (Graph(0), 0),
        (complete_graph(3), 2),
        (cycle_graph(5), 3),
        (disjoint_union(complete_graph(3), complete_graph(3)), 4),
        (gen_marguerite(2), 3),
        (complete_graph(4), 3),
    ])
    def test_known_values(self, graph, value):
        assert idf_exact(graph).value == value

    def test_certificate_is_coherent(self):
        rng = random.Random(97)
        for _ in range(60):
            g = random_graph(rng, rng.randint(0, 10), rng.choice([0.2, 0.4, 0.6]))
            cert = idf_exact(g)
            forest, _ = identify_partition(g, cert.partition)
            assert is_forest(forest)
            assert cert.graph is g
            assert forest == cert.forest
            assert cert.partition.order == cert.value
            assert is_id_forest_partition(g, cert.partition)

    def test_certificate_pickles_and_replaces(self):
        g = gen_marguerite(2)
        cert = idf_exact(g)
        copy = pickle.loads(pickle.dumps(cert))
        assert copy == cert and copy.as_json() == cert.as_json()
        partition = VertexPartition(cert.partition.blocks[1:])
        changed = dataclasses.replace(cert, partition=partition)
        assert changed.graph is g and changed.partition == partition
        assert changed.forest == identify_partition(g, partition)[0]

    def test_value_is_cover_number_of_core(self):
        rng = random.Random(101)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 11), 0.35)
            assert idf_exact(g).value == vc_exact(remove_bridges(g)).value

    def test_bridges_are_irrelevant(self):
        rng = random.Random(103)
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 10), 0.3)
            assert idf_exact(g).value == idf_exact(remove_bridges(g)).value

    def test_additive_over_disjoint_union(self):
        rng = random.Random(107)
        for _ in range(25):
            g1 = random_graph(rng, rng.randint(1, 6), 0.5)
            g2 = random_graph(rng, rng.randint(1, 6), 0.5)
            whole = idf_exact(disjoint_union(g1, g2)).value
            assert whole == idf_exact(g1).value + idf_exact(g2).value

    def test_value_is_never_one(self, catalog6):
        assert all(idf_exact(g).value != 1 for g in catalog6)

    def test_json_certificate_shape(self):
        cert = idf_exact(complete_graph(3))
        payload = json.loads(cert.as_json())
        assert set(payload) == {"idf", "partition", "forest_graph6"}
        assert payload["idf"] == 2
        assert payload["partition"] == [sorted(b) for b in cert.partition.blocks]


@st.composite
def graphs_up_to_64(draw) -> Graph:
    """A seeded G(n, p) with n <= 64 and mean degree 1..6."""
    n = draw(st.sampled_from(range(65)))
    degree = draw(st.floats(1.0, 6.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_graph(random.Random(seed), n, min(1.0, degree / max(n - 1, 1)))


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestProperties:
    @PROPERTY_SETTINGS
    @given(graphs_up_to_64(), st.data())
    def test_value_is_invariant_under_relabeling(self, g, data):
        perm = data.draw(st.permutations(range(g.n)))
        assert idf_exact(relabel(g, perm)).value == idf_exact(g).value

    @PROPERTY_SETTINGS
    @given(graphs_up_to_64())
    def test_certificate_replays(self, g):
        cert = idf_exact(g)
        forest, _ = identify_partition(g, cert.partition)
        assert is_forest(forest) and forest == cert.forest
        assert cert.partition.order == cert.value


class TestKeptResults:
    def test_kept_inputs_and_certificates_stay_small(self):
        # The solver reads only adjacency rows, so a caller that keeps every
        # input graph and certificate pays for the packed matrices and the
        # partition, not for edge or neighbour sets (about 23 KB per
        # 64-vertex graph and certificate when those were kept).
        rng = random.Random(7)
        edge_lists = [[e for e in itertools.combinations(range(64), 2) if rng.random() < 0.06]
                      for _ in range(6)]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [(g, idf_exact(g)) for g in (Graph(64, e) for e in edge_lists)]
            gc.collect()
            per_result = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
        finally:
            tracemalloc.stop()
        assert per_result < 4096

    def test_certificates_alone_stay_small(self):
        # A certificate holds its value, its block masks and a reference to
        # the input graph, so past the graph it keeps a few ints (455 B per
        # 64-vertex certificate when blocks were stored as sorted tuples).
        rng = random.Random(7)
        graphs = [Graph(64, [e for e in itertools.combinations(range(64), 2)
                             if rng.random() < 0.06]) for _ in range(6)]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [idf_exact(g) for g in graphs]
            gc.collect()
            per_result = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
        finally:
            tracemalloc.stop()
        assert all(cert.partition.order == cert.value > 0 for cert in kept)
        assert per_result < 256


class TestDecision:
    def test_examples(self):
        assert not idf_decision(complete_graph(3), 1)
        assert idf_decision(complete_graph(3), 2)
        assert idf_decision(path_graph(5), 0)

    def test_agrees_with_exact_value(self, catalog5):
        for g in catalog5:
            value = idf_exact(g).value
            for k in range(g.n + 2):
                assert idf_decision(g, k) == (k >= value)


def gnp_graphs() -> list[Graph]:
    """Seeded G(n, p) for n = 20..64, past brute_idf's reach."""
    rng = random.Random(2064)
    return [random_graph(rng, n, rng.uniform(0.06, 0.2)) for n in range(20, 65, 4)]


def beyond_vc_limit() -> tuple[Graph, int]:
    """75 vertices: five 10-leaf stars, all bridges, next to a G(20, p); and
    its identification number, that of the random part."""
    part = random_graph(random.Random(2065), 20, 0.25)
    return (disjoint_union(*[complete_bipartite_graph(1, 10)] * 5, part),
            idf_exact(part).value)


class TestWhereTheBranchingRuns:
    """The decision and the 2k+1 kernel against `idf_exact` on seeded graphs
    of 20..64 vertices, and above VC_MAX_VERTICES."""

    def test_decision_agrees_with_exact_value(self):
        for g in gnp_graphs():
            value = idf_exact(g).value
            assert value >= 2, g.n
            assert not idf_decision(g, value - 1), g.n
            assert idf_decision(g, value), g.n

    def test_decision_above_the_cover_limit(self):
        g, value = beyond_vc_limit()
        assert g.n == 75 and value >= 2
        assert not idf_decision(g, value - 1)
        assert idf_decision(g, value)

    def test_decision_with_a_kernel_above_the_cover_limit(self):
        # the bridgeless C101 keeps all 101 vertices in its kernel at k = 51
        assert idf_decision(cycle_graph(101), 51)
        assert not idf_decision(cycle_graph(101), 50)

    @pytest.mark.parametrize("g", [Graph(1), Graph(75)], ids=["n1", "n75"])
    def test_negative_budget_rejected(self, g):
        with pytest.raises(ValueError):
            idf_decision(g, -1)

    def test_kernel_bounds_and_decision_equivalence(self):
        cases = [(g, idf_exact(g).value) for g in gnp_graphs()]
        cases.append(beyond_vc_limit())
        for g, value in cases:
            for k in range(value + 2):
                ki = idf_kernel(g, k)
                if k == 0 and ki.decided_no:
                    # the one exception to 2k+1: the canonical no-instance
                    assert ki.graph == complete_graph(3) and ki.budget == 1
                else:
                    assert ki.graph.n <= 2 * k + 1, (g.n, k)
                assert ki.budget <= k + 1
                assert idf_decision(ki.graph, ki.budget) == (value <= k), (g.n, k)


class TestPartitionFromCover:
    def test_any_core_cover_yields_a_forest_partition(self):
        # not just optimal covers: any cover of the bridgeless core works
        rng = random.Random(109)
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 10), 0.4)
            core = remove_bridges(g)
            cover = set(vc_exact(core).cover)
            extras = [v for v in range(g.n)
                      if v not in cover and core.degree(v) > 0]
            rng.shuffle(extras)
            cover.update(extras[:rng.randint(0, len(extras))])
            p = partition_from_cover(g, cover)
            assert is_id_forest_partition(g, p)

    def test_blocks_follow_core_components(self):
        g = disjoint_union(complete_graph(3), complete_graph(3))
        p = partition_from_cover(g, [0, 1, 3, 4])
        assert p == VertexPartition([[0, 1], [3, 4]])

    def test_forest_input_gives_empty_partition(self):
        assert partition_from_cover(path_graph(5), []) == VertexPartition()


class TestApexGadget:
    def test_two_matchings(self):
        g = disjoint_union(complete_graph(2), complete_graph(2))
        apexed, apex = apex_bridgeless(g)
        assert apex == 4 and apexed.n == 5
        assert not bridges(apexed)
        assert brute_vc(apexed) == brute_vc(g) + 1

    def test_edgeless_input_gains_an_isolated_vertex(self):
        apexed, apex = apex_bridgeless(Graph(3))
        assert apexed == Graph(4) and apex == 3

    def test_triangle_becomes_complete(self):
        apexed, _ = apex_bridgeless(complete_graph(3))
        assert is_isomorphic(apexed, complete_graph(4))

    def test_cover_number_grows_by_one_whenever_there_are_edges(self, catalog5):
        for g in catalog5:
            if g.m == 0:
                continue
            apexed, _ = apex_bridgeless(g)
            assert not bridges(apexed)
            assert brute_vc(apexed) == brute_vc(g) + 1


class TestCoverToIdentification:
    def test_bridgeless_input_passes_through(self):
        assert vc_to_idf(cycle_graph(4), 2) == (cycle_graph(4), 2)

    def test_bridged_input_is_apexed_with_one_extra_budget(self):
        g = disjoint_union(complete_graph(2), complete_graph(2))
        h, budget = vc_to_idf(g, 2)
        assert budget == 3
        assert is_isomorphic(h, apex_bridgeless(g)[0])

    def test_triangle(self):
        assert vc_to_idf(complete_graph(3), 1) == (complete_graph(3), 1)

    def test_transfer_preserves_the_answer(self, catalog5):
        for g in catalog5:
            for k in range(4):
                h, budget = vc_to_idf(g, k)
                assert idf_decision(h, budget) == (brute_vc(g) <= k)


class TestKernelPipeline:
    def test_forest_shrinks_to_nothing(self):
        ki = idf_kernel(path_graph(9), 0)
        assert ki.graph == Graph(0) and ki.budget == 0
        assert not ki.decided_no

    def test_triangle_with_pendant_keeps_its_core(self):
        g = with_new_vertex(complete_graph(3), [0])
        ki = idf_kernel(g, 2)
        assert ki.graph == complete_graph(3)
        assert ki.budget == 2

    def test_three_matchings_reduce_to_an_immediate_yes(self):
        g = disjoint_union(*[complete_graph(2)] * 3)
        ki = idf_kernel(g, 2)
        assert ki.graph == Graph(0) and ki.budget == 2

    def test_budget_zero_no_instances_take_three_vertices(self):
        # a negative answer cannot fit in 2*0+1 = 1 vertices, so the
        # canonical no-instance is healed into a bridgeless triangle
        ki = idf_kernel(complete_graph(3), 0)
        assert ki.graph == complete_graph(3) and ki.budget == 1
        assert not idf_decision(ki.graph, ki.budget)

    def test_size_and_budget_bounds_for_positive_budgets(self, catalog6):
        for g in catalog6:
            for k in range(1, 6):
                ki = idf_kernel(g, k)
                assert ki.graph.n <= 2 * k + 1
                assert ki.budget <= k + 1
                assert not bridges(ki.graph)

    def test_long_augmenting_paths_do_not_overflow_the_stack(self):
        # the double cover of a long cycle needs augmenting paths over a
        # thousand vertices long; the whole cycle is half-valued and survives
        ki = idf_kernel(cycle_graph(5000), 2500)
        assert ki.graph == cycle_graph(5000)
        assert ki.budget == 2500 and not ki.decided_no

    def test_decision_equivalence(self, catalog6):
        for g in catalog6:
            value = idf_exact(g).value
            for k in range(6):
                ki = idf_kernel(g, k)
                assert idf_decision(ki.graph, ki.budget) == (value <= k)
