"""Named graph families, exact cycle machinery (longest cycle, disjoint
cycle packing, feedback vertex sets), and the witness-or-certificate
dichotomy."""

from __future__ import annotations

import gc
import hashlib
import itertools
import pathlib
import random
import tracemalloc

import pytest
from conftest import graphs_up_to, identify_set, random_graph

from idforest import (CYCLE_SEARCH_MAX, MARGUERITE_SEARCH_MAX, DichotomyOutcome,
                      Graph, SizeLimitError, VertexPartition, brute_minor,
                      circumference, complete_graph, cycle_graph, cycle_packing,
                      dichotomy, disjoint_union, exact_fvs, gen_antichain_h,
                      gen_cycle, gen_marguerite, gen_triangles, graph6_to_graph,
                      identify_partition, idf_exact, induced_subgraph,
                      is_forest, is_id_forest_partition, is_isomorphic,
                      longest_cycle, marguerite_model, max_cycle_packing,
                      max_marguerite, obs_idf, path_graph)
from idforest import minors
from idforest.minors import _petal_paths

DATA = pathlib.Path(__file__).parent / "data"


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def is_cycle_in(g: Graph, cyc: list[int]) -> bool:
    if len(cyc) < 3 or len(set(cyc)) != len(cyc):
        return False
    return all(g.has_edge(cyc[i], cyc[(i + 1) % len(cyc)])
               for i in range(len(cyc)))


def independent_max_packing(g: Graph) -> int:
    """Most vertex-disjoint cycles, via induced 2-regular connected subsets.

    Any packing can be retracted to chordless cycles on subsets of the same
    vertices, so restricting to induced cycles loses nothing.
    """
    cycles = []
    for size in range(3, g.n + 1):
        for cand in itertools.combinations(range(g.n), size):
            sub, _ = induced_subgraph(g, cand)
            if sub.m == size and all(sub.degree(v) == 2 for v in sub.vertices):
                comp_seen = {0}
                stack = [0]
                while stack:
                    u = stack.pop()
                    for w in sub.neighbors(u):
                        if w not in comp_seen:
                            comp_seen.add(w)
                            stack.append(w)
                if len(comp_seen) == size:
                    cycles.append(frozenset(cand))

    def best(remaining: list) -> int:
        if not remaining:
            return 0
        first, *rest = remaining
        skip = best(rest)
        take = 1 + best([c for c in rest if not (c & first)])
        return max(skip, take)

    return best(cycles)


def tree_plus_edges(rng: random.Random, n: int, extra: int) -> Graph:
    """A random labelled tree on n vertices plus `extra` random non-edges."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = {tuple(sorted((perm[v], perm[rng.randrange(v)]))) for v in range(1, n)}
    non_edges = [e for e in itertools.combinations(range(n), 2) if e not in edges]
    return Graph(n, edges | set(rng.sample(non_edges, extra)))


def dichotomy_corpus() -> list[tuple[Graph, int]]:
    """400 sparse graphs with 9..16 vertices, each with its k in 2..4; half
    of them at k = 2, where the marguerite search and the fallback answer."""
    rng = random.Random(409)
    return [(tree_plus_edges(rng, 9 + i // 4 % 8, rng.randint(2, 5)), (2, 2, 3, 4)[i % 4])
            for i in range(400)]


def dichotomy_running_every_detector(g: Graph, k: int) -> DichotomyOutcome:
    """`dichotomy` without its skip rules: each detector runs in its turn."""
    packing = cycle_packing(g)
    if len(packing) >= k:
        return DichotomyOutcome("triangles", k, minors._triangles_model(packing, k, g.n), None)
    if k >= 3:
        cyc = longest_cycle(g)
        if len(cyc) >= k:
            return DichotomyOutcome("cycle", k, minors._cycle_model(cyc, k, g.n), None)
    if g.n <= MARGUERITE_SEARCH_MAX:
        model = marguerite_model(g, k)
        if model is not None:
            return DichotomyOutcome("marguerite", k, model, None)
    return DichotomyOutcome(None, None, None, idf_exact(g).partition)


class TestGenerators:
    def test_cycle_family(self):
        assert gen_cycle(5) == cycle_graph(5)

    def test_triangles_family(self):
        g = gen_triangles(3)
        assert (g.n, g.m) == (9, 9)
        assert is_isomorphic(g, disjoint_union(*[complete_graph(3)] * 3))
        with pytest.raises(ValueError):
            gen_triangles(0)

    def test_marguerite_family(self):
        g = gen_marguerite(3)
        assert (g.n, g.m) == (7, 9)
        assert g.degree(0) == 6  # the shared hub
        assert is_isomorphic(gen_marguerite(1), complete_graph(3))

    def test_marguerite_is_identified_triangles(self):
        for m in range(1, 4):
            collapsed, _ = identify_set(gen_triangles(m), range(0, 3 * m, 3))
            assert is_isomorphic(collapsed, gen_marguerite(m))

    def test_marguerite_is_an_identified_cycle(self):
        for m in range(2, 4):
            collapsed, _ = identify_set(gen_cycle(3 * m), range(0, 3 * m, 3))
            assert is_isomorphic(collapsed, gen_marguerite(m))

    def test_antichain_family_shape(self):
        for k in range(1, 4):
            g = gen_antichain_h(k)
            assert (g.n, g.m) == (3 * k + 3, 6 * k)
            ring, apexes = range(3 * k), range(3 * k, 3 * k + 3)
            assert all(g.degree(a) == k for a in apexes)
            assert all(g.degree(v) == 3 for v in ring)
            assert not any(g.has_edge(a, b) for a in apexes for b in apexes
                           if a < b)

    def test_antichain_contains_the_next_marguerite_but_not_the_one_after(self):
        g = gen_antichain_h(2)
        assert brute_minor(gen_marguerite(2), g) is not None
        assert brute_minor(gen_marguerite(3), g) is None


class TestLongestCycle:
    @pytest.mark.parametrize("graph,length", [
        (path_graph(5), 0),
        (Graph(0), 0),
        (cycle_graph(5), 5),
        (complete_graph(4), 4),
        (gen_marguerite(2), 3),
        (disjoint_union(cycle_graph(3), cycle_graph(5)), 5),
        (petersen(), 9),
    ])
    def test_circumference_values(self, graph, length):
        assert circumference(graph) == length

    def test_returned_cycle_is_real(self):
        rng = random.Random(149)
        for _ in range(30):
            g = random_graph(rng, rng.randint(3, 9), 0.4)
            cyc = longest_cycle(g)
            if cyc:
                assert is_cycle_in(g, cyc)
                assert len(cyc) == circumference(g)

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            longest_cycle(Graph(CYCLE_SEARCH_MAX + 1))


class TestCyclePacking:
    @pytest.mark.parametrize("graph,count", [
        (path_graph(6), 0),
        (cycle_graph(5), 1),
        (complete_graph(4), 1),
        (gen_triangles(3), 3),
        (gen_marguerite(3), 1),
        (complete_graph(6), 2),
        (petersen(), 2),
    ])
    def test_known_counts(self, graph, count):
        assert max_cycle_packing(graph) == count

    def test_packing_is_disjoint_and_real(self):
        rng = random.Random(151)
        for _ in range(30):
            g = random_graph(rng, rng.randint(3, 9), 0.4)
            packing = cycle_packing(g)
            used: set = set()
            for cyc in packing:
                assert is_cycle_in(g, cyc)
                assert not (used & set(cyc))
                used |= set(cyc)

    def test_count_matches_independent_enumeration(self):
        rng = random.Random(157)
        for _ in range(25):
            g = random_graph(rng, rng.randint(3, 8), rng.choice([0.3, 0.5]))
            assert max_cycle_packing(g) == independent_max_packing(g)

    @pytest.mark.parametrize("search,value", [
        (max_cycle_packing, 4),
        (lambda g: len(exact_fvs(g)), 10),
    ], ids=["cycle_packing", "exact_fvs"])
    def test_each_alive_set_is_searched_once(self, monkeypatch, search, value):
        # K12 reaches one alive set by many branch orders: without a memo
        # cycle_packing makes 86,461 calls and exact_fvs 88,573, with one at
        # most one per vertex subset
        calls = []
        real = minors._shortest_cycle
        monkeypatch.setattr(minors, "_shortest_cycle",
                            lambda adj, alive: calls.append(alive) or real(adj, alive))
        assert search(complete_graph(12)) == value
        assert len(calls) == len(set(calls)) < 2 ** 12


class TestFeedbackVertexSet:
    @pytest.mark.parametrize("graph,size", [
        (cycle_graph(5), 1),
        (gen_marguerite(3), 1),
        (gen_triangles(2), 2),
        (complete_graph(4), 2),
        (path_graph(4), 0),
        (petersen(), 3),
    ])
    def test_known_sizes(self, graph, size):
        assert len(exact_fvs(graph)) == size

    def test_removal_leaves_a_forest_and_is_minimum(self):
        rng = random.Random(163)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 8), 0.4)
            x = exact_fvs(g)
            rest, _ = induced_subgraph(g, [v for v in g.vertices if v not in x])
            assert is_forest(rest)
            for size in range(len(x)):
                for cand in itertools.combinations(range(g.n), size):
                    keep = [v for v in g.vertices if v not in cand]
                    assert not is_forest(induced_subgraph(g, keep)[0])


class TestMaxMarguerite:
    @pytest.mark.parametrize("graph,count", [
        (complete_graph(3), 1),
        (gen_marguerite(2), 2),
        (gen_cycle(9), 1),
        (gen_triangles(2), 1),
        (gen_antichain_h(2), 2),
        (path_graph(5), 0),
    ])
    def test_known_counts(self, graph, count):
        assert max_marguerite(graph) == count

    def test_self_values(self):
        for m in range(1, 5):
            assert max_marguerite(gen_marguerite(m)) == m

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            max_marguerite(Graph(MARGUERITE_SEARCH_MAX + 1))


class TestMargueriteModel:
    def test_equals_brute_minor_on_every_graph_up_to_7_vertices(self):
        for g in graphs_up_to(7):
            for k in (1, 2, 3):
                assert marguerite_model(g, k) == brute_minor(gen_marguerite(k), g)

    def test_equals_brute_minor_on_sparse_9_to_12_vertex_graphs(self):
        rng = random.Random(421)
        for n in range(9, 13):
            for extra in (2, 3, 4, 5):
                g = tree_plus_edges(rng, n, extra)
                for k in (2, 3):
                    model = marguerite_model(g, k)
                    assert model == brute_minor(gen_marguerite(k), g)
                    assert model is None or model.validates_in(g)

    def test_a_hub_with_one_contact_carries_no_petal(self):
        # hub {0} touches only 1, which lies on the triangle 1, 2, 3
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
        adj = g.adj_masks
        assert not _petal_paths(adj, 0b1110, 0b0010, 1)
        assert marguerite_model(g, 1) is not None  # with another hub

    def test_four_contacts_on_a_star_carry_one_petal(self):
        # hub 0 touches the four leaves 2..5 of the star centred at 1: any
        # two paths between leaves meet at the centre
        g = Graph(6, [(0, v) for v in range(2, 6)] + [(1, v) for v in range(2, 6)])
        adj = g.adj_masks
        assert _petal_paths(adj, 0b111110, 0b111100, 1)
        assert not _petal_paths(adj, 0b111110, 0b111100, 2)
        assert marguerite_model(g, 2) is None
        assert brute_minor(gen_marguerite(2), g) is None


class TestDichotomy:
    def test_path_gets_an_empty_identification_set(self):
        out = dichotomy(path_graph(10), 3)
        assert not out.is_witness
        assert out.id_set == VertexPartition()

    def test_many_triangles_are_found_as_disjoint_cycles(self):
        g = gen_triangles(4)
        out = dichotomy(g, 3)
        assert out.family == "triangles" and out.parameter == 3
        assert is_isomorphic(out.model.pattern, gen_triangles(3))
        assert out.model.validates_in(g)

    def test_long_cycle_is_found_when_packing_falls_short(self):
        g = cycle_graph(8)
        out = dichotomy(g, 5)
        assert out.family == "cycle"
        assert is_isomorphic(out.model.pattern, cycle_graph(5))
        assert out.model.validates_in(g)

    def test_marguerite_is_found_when_cycles_fall_short(self):
        g = gen_marguerite(2)
        out = dichotomy(g, 2)
        assert out.family == "marguerite"
        assert out.model.validates_in(g)

    def test_four_cycle_gets_the_antipodal_identification(self):
        out = dichotomy(cycle_graph(4), 2)
        assert not out.is_witness
        assert is_id_forest_partition(cycle_graph(4), out.id_set)

    def test_odd_cycles_fall_back_at_k_2(self):
        # C_{2t+1} has idf t + 1 but neither two disjoint cycles nor a bowtie
        # minor, and C_2 is no simple graph: at k = 2 a fallback of any order
        # carries no theorem-level meaning
        for t in range(2, 8):
            g = cycle_graph(2 * t + 1)
            out = dichotomy(g, 2)
            assert not out.is_witness
            assert out.id_set.order == t + 1 == idf_exact(g).value

    def test_parameter_below_one_rejected(self):
        for call in (lambda: dichotomy(cycle_graph(3), 0), lambda: gen_marguerite(0),
                     lambda: gen_antichain_h(0), lambda: marguerite_model(cycle_graph(3), 0)):
            with pytest.raises(ValueError):
                call()

    def test_every_outcome_is_sound_on_random_graphs(self):
        rng = random.Random(167)
        for i in range(80):
            g = random_graph(rng, rng.randint(2, 9), rng.choice([0.2, 0.4, 0.6]))
            k = 1 + i % 3
            out = dichotomy(g, k)
            if out.is_witness:
                assert out.model.validates_in(g)
                expected = {
                    "triangles": gen_triangles(k),
                    "marguerite": gen_marguerite(k),
                }.get(out.family, gen_cycle(max(k, 3)))
                assert is_isomorphic(out.model.pattern, expected)
            else:
                assert is_id_forest_partition(g, out.id_set)

    def test_witness_json_shape(self):
        out = dichotomy(gen_triangles(2), 2)
        payload = out.as_json_dict()
        assert payload["family"] == "triangles" and payload["k"] == 2
        assert len(payload["branch_sets"]) == gen_triangles(2).n

    def test_id_set_json_shape(self):
        out = dichotomy(cycle_graph(4), 2)
        assert out.as_json_dict() == {"id_set": [[1, 3]]}

    def test_json_is_pinned(self):
        # sha256 of the JSON lines of the seeded corpus, 79 of them fallback
        # answers
        lines = [dichotomy(g, k).as_json() for g, k in dichotomy_corpus()]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "4af0721ee1a8334d5255664e5f9151848496a6ed6179bc412d64a4cc45594ade"


class TestWitnessThreshold:
    """How much idf forces a witness, read off the idf obstructions.

    Lemma.  At parameter k, the graphs with none of the witness minors
    (C_k for k >= 3, kK3 and M_k, as `dichotomy` tries them) form a
    minor-closed class W_k, and so do the graphs with idf <= t.  A graph
    of W_k with idf > t has a minor-minimal minor with idf > t, which is
    an obstruction of obs_idf(t) and lies in W_k too.  So W_k holds a graph
    with idf > t iff it holds an obstruction of obs_idf(t), and idf >= s
    forces a witness at k exactly when no obstruction of obs_idf(t) lies
    in W_k for t = s - 1.  The obstructions have at most 7 vertices, where
    `dichotomy(O, k).is_witness` decides membership in W_k exactly.
    """

    COUNTS = [1, 1, 4, 7]  # graphs in obs_idf(t), t = 0..3
    # TABLE[t][k - 1]: the obstructions of obs_idf(t) in W_k, k = 1..6
    TABLE = [[0, 1, 0, 1, 1, 1],
             [0, 1, 0, 1, 1, 1],
             [0, 2, 0, 2, 3, 4],
             [0, 2, 0, 2, 2, 4]]

    @staticmethod
    def obstructions(t: int) -> list[Graph]:
        if t < 3:
            return list(obs_idf(t).obstructions)
        return [graph6_to_graph(line) for line in (DATA / "obs-idf-k3.g6").read_text().split()]

    def test_witness_free_obstructions_are_pinned(self):
        catalogs = [self.obstructions(t) for t in range(4)]
        assert [len(c) for c in catalogs] == self.COUNTS
        table = [[sum(not dichotomy(o, k).is_witness for o in c) for k in range(1, 7)]
                 for c in catalogs]
        assert table == self.TABLE

    def test_is_witness_agrees_with_brute_minor(self):
        for t in range(4):
            for o in self.obstructions(t):
                for k in range(1, 7):
                    patterns = [gen_triangles(k), gen_marguerite(k)]
                    patterns += [gen_cycle(k)] if k >= 3 else []
                    brute = any(brute_minor(p, o) is not None for p in patterns)
                    assert dichotomy(o, k).is_witness == brute, (t, k)


class TestDetectorSkips:
    """`dichotomy` calls `cycle_packing` only when min(m - n + c,
    |2-core| // 3) >= k, and `longest_cycle` only when k >= 3 and
    |2-core| >= k.  A skipped detector could not have returned a witness,
    so the outcome is the twin's, which runs every detector."""

    @staticmethod
    def count_calls(monkeypatch, name: str) -> list:
        calls = []
        inner = getattr(minors, name)
        monkeypatch.setattr(minors, name, lambda g: calls.append(g) or inner(g))
        return calls

    def test_agrees_with_every_detector_run_on_sparse_graphs(self):
        rng = random.Random(431)
        for n in range(9, 17):
            for extra in (2, 3, 4, 5):
                g = tree_plus_edges(rng, n, extra)
                for k in (2, 3, 4):
                    assert dichotomy(g, k) == dichotomy_running_every_detector(g, k)

    def test_agrees_with_every_detector_run_on_dense_graphs(self):
        rng = random.Random(433)
        for n in range(1, 13):
            for g in (complete_graph(n), random_graph(rng, n, 0.5)):
                for k in (1, 2, 3, 4):
                    assert dichotomy(g, k) == dichotomy_running_every_detector(g, k)

    def test_cycle_packing_is_skipped_on_a_tree_plus_two_edges_at_k_3(self, monkeypatch):
        # the cyclomatic number is 2, so three disjoint cycles cannot exist
        calls = self.count_calls(monkeypatch, "cycle_packing")
        rng = random.Random(439)
        for n in range(9, 17):
            dichotomy(tree_plus_edges(rng, n, 2), 3)
        assert calls == []
        dichotomy(gen_triangles(3), 3)
        assert len(calls) == 1

    def test_longest_cycle_is_skipped_when_the_2_core_is_short(self, monkeypatch):
        # a triangle with a pendant path: the 2-core has 3 vertices
        calls = self.count_calls(monkeypatch, "longest_cycle")
        g = Graph(8, [(0, 1), (1, 2), (0, 2)] + [(v, v + 1) for v in range(2, 7)])
        assert not dichotomy(g, 4).is_witness
        assert calls == []
        assert dichotomy(cycle_graph(8), 4).family == "cycle"
        assert len(calls) == 1


class TestKeptResults:
    def test_kept_inputs_and_outcomes_stay_small(self):
        # dichotomy reads only adjacency rows and packs branch sets into one
        # int, so a caller that keeps every input and outcome pays for the
        # packed matrix and the result, not for edge or neighbour sets
        # (about 4.3 KB per graph and outcome when those were kept).
        batch = [(g.n, sorted(g.edges), k) for g, k in dichotomy_corpus()[:120]]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [(g, dichotomy(g, k)) for g, k in ((Graph(n, e), k) for n, e, k in batch)]
            gc.collect()
            per_result = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
        finally:
            tracemalloc.stop()
        assert per_result < 1024
        assert Graph.__slots__ == ("n", "_matrix")
