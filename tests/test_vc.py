"""Cover machinery: half-integral relaxation, the 2k-vertex kernel, and the
exact solver, each checked against independent brute-force oracles."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from conftest import brute_lp_value, complete_bipartite_graph, graphs_up_to, prism, random_graph

from idforest import vc
from idforest import (Graph, KernelInstance, SizeLimitError,
                      complete_graph, cycle_graph,
                      disjoint_union, graph6_str, idf_exact, idf_kernel,
                      induced_subgraph, lp_half_integral, nt_kernel, path_graph,
                      vc_decision, vc_exact)


def brute_cover_number(g: Graph) -> int:
    for size in range(g.n + 1):
        for cand in itertools.combinations(range(g.n), size):
            s = set(cand)
            if all(u in s or v in s for u, v in g.edges):
                return size
    raise AssertionError("unreachable")


def star(leaves: int) -> Graph:
    return complete_bipartite_graph(1, leaves)


class TestHalfIntegralRelaxation:
    def test_triangle_is_all_halves(self):
        v0, vh, v1 = lp_half_integral(complete_graph(3))
        assert (v0, vh, v1) == (frozenset(), frozenset({0, 1, 2}), frozenset())

    def test_star_puts_center_at_one(self):
        v0, vh, v1 = lp_half_integral(star(4))
        assert v1 == frozenset({0}) and vh == frozenset()
        assert v0 == frozenset({1, 2, 3, 4})

    def test_edgeless_is_all_zero(self):
        v0, vh, v1 = lp_half_integral(Graph(3))
        assert v0 == frozenset({0, 1, 2}) and not vh and not v1

    def test_parts_partition_the_vertices(self):
        rng = random.Random(73)
        for _ in range(50):
            g = random_graph(rng, rng.randint(0, 10), 0.4)
            v0, vh, v1 = lp_half_integral(g)
            assert v0 | vh | v1 == frozenset(range(g.n))
            assert not (v0 & vh or v0 & v1 or vh & v1)

    def test_zero_side_structure(self):
        # no edge inside the zero part, and its neighbors all sit at one
        rng = random.Random(79)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 10), 0.3)
            v0, _, v1 = lp_half_integral(g)
            for u, v in g.edges:
                assert not (u in v0 and v in v0)
                if u in v0:
                    assert v in v1
                if v in v0:
                    assert u in v1

    def test_value_is_optimal(self, catalog5):
        for g in catalog5:
            v0, vh, v1 = lp_half_integral(g)
            assert len(v1) + len(vh) / 2 == brute_lp_value(g)

    def test_value_brackets_cover_number(self):
        rng = random.Random(83)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 9), 0.5)
            v0, vh, v1 = lp_half_integral(g)
            value = len(v1) + len(vh) / 2
            vc = vc_exact(g).value
            assert vc / 2 <= value <= vc


def unseeded_min_cover(g: Graph) -> tuple[int, int]:
    """The double cover's minimum cover (left copies, right copies) that
    `vc._lp_split` reads, without the greedy seeding: augment from every
    left vertex, starting from the empty matching."""
    adj = g.adj_masks
    alive = (1 << g.n) - 1
    mate: dict[int, int] = {}
    free = sum(1 << u for u in range(g.n) if not vc._augment(adj, alive, mate, u))
    left_z = frontier = free
    right_z = 0
    while frontier:
        reach = 0
        for u in range(g.n):
            if frontier >> u & 1:
                reach |= adj[u]
        reach &= ~right_z
        right_z |= reach
        frontier = 0
        for w in range(g.n):
            if reach >> w & 1:
                frontier |= 1 << mate[w]
        frontier &= ~left_z
        left_z |= frontier
    return alive & ~left_z, right_z


def assert_split_matches_unseeded(g: Graph):
    left, right = unseeded_min_cover(g)
    v1, half = vc._lp_split(g.adj_masks)
    assert (v1, half) == (left & right, left ^ right)
    # every half-valued vertex has a half-valued neighbour, so `nt_kernel`
    # keeps all of them
    assert all(g.adj_masks[v] & half for v in range(g.n) if half >> v & 1)


class TestSeededMatchingTwin:
    # The alternating-reach sets, and so the cover masks, are the same for
    # every maximum matching; a greedy seed must not change them.
    def test_small_random_graphs(self):
        rng = random.Random(1975)
        for _ in range(300):
            g = random_graph(rng, rng.randint(0, 12), rng.uniform(0.1, 0.7))
            assert_split_matches_unseeded(g)

    def test_sparse_graphs(self):
        rng = random.Random(1973)
        for n in range(65, 301, 47):
            for _ in range(3):
                g = random_graph(rng, n, rng.uniform(1, 4) / n)
                assert_split_matches_unseeded(g)

    def test_diamond_chain(self):
        # hubs 3i, tips 3i+1 and 3i+2 joined to hubs 3i and 3i+3
        g = Graph(601, [(3 * i + h, 3 * i + t)
                        for i in range(200) for t in (1, 2) for h in (0, 3)])
        assert_split_matches_unseeded(g)


class TestCoverKernel:
    def test_star_reduces_to_nothing(self):
        ki = nt_kernel(star(4), 1)
        assert ki.graph == Graph(0)
        assert ki.budget == 0
        assert ki.forced == frozenset({0})
        assert not ki.decided_no

    def test_triangle_with_budget_one_is_a_no_instance(self):
        assert nt_kernel(complete_graph(3), 1).decided_no

    def test_three_matchings_with_budget_two_is_a_no_instance(self):
        g = disjoint_union(*[complete_graph(2)] * 3)
        assert nt_kernel(g, 2).decided_no

    def test_kernel_is_the_half_part(self):
        g = disjoint_union(cycle_graph(4), star(3))
        ki = nt_kernel(g, 3)
        _, vh, v1 = lp_half_integral(g)
        assert frozenset(ki.origin.values()) == vh
        assert ki.forced == v1
        assert ki.budget == 3 - len(v1)
        sub, origin = induced_subgraph(g, sorted(vh))
        assert ki.graph == sub and tuple(ki.origin[i] for i in range(sub.n)) == origin

    def test_size_bound_and_decision_equivalence(self, catalog6):
        for g in catalog6:
            want_vc = brute_cover_number(g)
            for k in range(6):
                ki = nt_kernel(g, k)
                if ki.decided_no:
                    assert want_vc > k
                    continue
                assert ki.graph.n <= 2 * ki.budget
                assert ki.budget + len(ki.forced) == k
                assert (brute_cover_number(ki.graph) <= ki.budget) == (want_vc <= k)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            nt_kernel(complete_graph(3), -1)

    def test_kernels_are_pinned(self):
        # sha256 of both kernels' fields on seeded sparse G(n, p), taken
        # before nt_kernel induced its subgraph in one call
        rng = random.Random(1969)
        lines = []
        for n in range(5, 70):
            g = random_graph(rng, n, rng.uniform(1, 4) / n)
            for kernel in (idf_kernel, nt_kernel):
                for k in range(12):
                    ki = kernel(g, k)
                    lines.append(f"{graph6_str(ki.graph)} {ki.budget} {sorted(ki.forced)} "
                                 f"{sorted(ki.origin.items())} {ki.decided_no}")
        assert sum(not line.endswith("True") for line in lines) == 398
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "e7757892349d417b1c6472af6207674c510b9ab1d3709d5af94aba45cab8fde2"


class TestExactCover:
    @pytest.mark.parametrize("graph,value", [
        (cycle_graph(5), 3),
        (complete_graph(4), 3),
        (Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]), 3),
        (complete_bipartite_graph(2, 3), 2),
        (Graph(0), 0),
        (Graph(4), 0),
    ])
    def test_known_values(self, graph, value):
        assert vc_exact(graph).value == value

    def test_matches_brute_force_on_catalog(self, catalog6):
        for g in catalog6:
            sol = vc_exact(g)
            assert sol.value == brute_cover_number(g)
            assert sol.covers(g)
            assert len(sol.cover) == sol.value

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(89)
        for _ in range(40):
            g = random_graph(rng, rng.randint(7, 12), rng.choice([0.2, 0.4, 0.7]))
            sol = vc_exact(g)
            assert sol.value == brute_cover_number(g)
            assert sol.covers(g)

    def test_petersen_graph(self):
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, 5 + i) for i in range(5)]
        assert vc_exact(Graph(10, outer + inner + spokes)).value == 6

    def test_size_guard(self):
        assert vc_exact(path_graph(64)).value == 32
        # the guard is on the half-valued components that would branch
        assert vc_exact(Graph(65)).value == 0
        with pytest.raises(SizeLimitError):
            vc_exact(prism(33))


class TestGuardOnTheBranching:
    """Above VC_MAX_VERTICES vertices `vc_exact` refuses only a half-valued
    component of more than 64 vertices that is not a path or a cycle."""

    def test_prism_is_one_half_valued_component(self):
        g = prism(33)
        assert lp_half_integral(g)[1] == frozenset(range(66))
        with pytest.raises(SizeLimitError, match="one of 66 in a graph on 66"):
            vc_exact(g)

    def test_a_64_vertex_half_valued_component_is_solved(self):
        # C31 and C33 joined by an edge, plus an isolated vertex: 65
        # vertices, and one half-valued component of exactly 64 vertices
        # with two of degree 3, the largest the branching takes
        c31 = [(i, (i + 1) % 31) for i in range(31)]
        c33 = [(31 + i, 31 + (i + 1) % 33) for i in range(33)]
        g = Graph(65, c31 + c33 + [(0, 31)])
        assert lp_half_integral(g)[1] == frozenset(range(64))
        assert vc_exact(g).value == 33

    def test_tree_plus_two_edges_is_solved(self):
        rng = random.Random(200)
        g = Graph(200, [(v, rng.randrange(v)) for v in range(1, 200)] + [(3, 150), (17, 90)])
        sol = vc_exact(g)
        assert sol.covers(g)
        assert vc_decision(g, sol.value) and not vc_decision(g, sol.value - 1)

    def test_long_cycles_are_solved_in_closed_form(self):
        assert vc_exact(cycle_graph(65)).value == 33
        assert vc_exact(cycle_graph(200)).value == 100
        assert vc_exact(disjoint_union(cycle_graph(101), complete_graph(4))).value == 54

    def test_small_components_of_a_large_graph_are_solved(self):
        rng = random.Random(201)
        parts = [random_graph(rng, 30, 0.2) for _ in range(4)]
        value = sum(vc_exact(part).value for part in parts)
        assert vc_exact(disjoint_union(*parts)).value == value


def assert_matches_integer_program(rng: random.Random, sizes, p_low: float, p_high: float):
    scipy_optimize = pytest.importorskip("scipy.optimize")
    import numpy as np
    for n in sizes:
        g = random_graph(rng, n, rng.uniform(p_low, p_high))
        edges = sorted(g.edges)
        rows = np.zeros((len(edges), n))
        for i, (u, v) in enumerate(edges):
            rows[i, u] = rows[i, v] = 1
        res = scipy_optimize.milp(
            np.ones(n), integrality=np.ones(n), bounds=scipy_optimize.Bounds(0, 1),
            constraints=scipy_optimize.LinearConstraint(rows, lb=1))
        assert res.success
        sol = vc_exact(g)
        assert sol.value == round(res.fun), f"n={n}"
        assert sol.covers(g) and len(sol.cover) == sol.value


class TestLowerBoundCut:
    """`_vc_component` drops a component whose LP bound exceeds its cap
    before it branches."""

    # two triangles on the shared vertex 2: the greedy matching 0-1, 2-3
    # leaves 4 free, one augmenting path makes the double cover's matching
    # 5 edges, so the LP bound is 5/2 (vc = 3)
    BOWTIE = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])

    @staticmethod
    def count_branches(monkeypatch) -> list:
        calls = []
        inner = vc._vc_split

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(vc, "_vc_split", counted)
        return calls

    @pytest.mark.parametrize("graph,cap", [
        (complete_graph(4), 1),  # the greedy matching alone (2 edges) exceeds 1
        (BOWTIE, 2),             # the greedy matching (2 edges) does not exceed 2
    ])
    def test_cut_without_branching(self, monkeypatch, graph, cap):
        calls = self.count_branches(monkeypatch)
        assert vc._vc_component(graph.adj_masks, (1 << graph.n) - 1, cap) is None
        assert calls == []

    @pytest.mark.parametrize("graph,cap", [(complete_graph(4), 3), (BOWTIE, 3)])
    def test_branches_when_the_bound_fits(self, monkeypatch, graph, cap):
        calls = self.count_branches(monkeypatch)
        cover = vc._vc_component(graph.adj_masks, (1 << graph.n) - 1, cap)
        assert cover is not None and cover.bit_count() == 3
        assert calls

    def test_augmentations_are_pinned(self, monkeypatch):
        # `_lp_exceeds` stops once the untried vertices cannot reach the
        # cap; without that exit the covers stay the same but these counts
        # grow to 72, 139, 1099, 472, 1175 and 992
        counts = []
        inner = vc._augment

        def counted(*args):
            counts[-1] += 1
            return inner(*args)

        monkeypatch.setattr(vc, "_augment", counted)
        for n, p in ((40, 0.15), (64, 0.1), (64, 0.2)):
            for seed in range(2):
                rng = random.Random(seed)
                counts.append(0)
                vc_exact(Graph(n, [e for e in itertools.combinations(range(n), 2)
                                   if rng.random() < p]))
        assert counts == [14, 61, 377, 175, 383, 275]


class TestExactCoverWhereTheBranchingRuns:
    """n = 20..64, past brute_vc's reach, where the branching does the work."""

    def test_matches_integer_program(self):
        assert_matches_integer_program(
            random.Random(64), (20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64), 0.1, 0.15)

    def test_matches_integer_program_on_dense_graphs(self):
        # where the LP bound cuts hardest; the integer program, not
        # vc_exact, sets this test's run time
        assert_matches_integer_program(random.Random(65), (20, 32, 44, 56, 64), 0.2, 0.3)

    def test_certificates_are_pinned(self):
        # sha256 of the idf_exact JSON lines, taken before the branching
        # moved onto bitmasks; any change of tie-breaking shows here
        rng = random.Random(2024)
        lines = []
        for n in (24, 32, 40, 48, 56, 64):
            for degree in (3, 4, 5, 6):
                lines.append(idf_exact(random_graph(rng, n, degree / (n - 1))).as_json())
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "e2116ed5c65dfbc68163e3a6c790e4d84f6a8550d80c97d088b8595f862c9e74"


class TestCoverDecision:
    def test_two_matchings(self):
        g = disjoint_union(complete_graph(2), complete_graph(2))
        assert not vc_decision(g, 1)
        assert vc_decision(g, 2)

    def test_agrees_with_exact_value(self, catalog5):
        for g in catalog5:
            value = vc_exact(g).value
            for k in range(g.n + 1):
                assert vc_decision(g, k) == (value >= 0 and k >= value)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            vc_decision(Graph(1), -1)


class TestCoverDecisionWhereTheBranchingRuns:
    """The direct decision against `vc_exact` at n = 20..64, past brute_vc's
    reach, and the kernel path above VC_MAX_VERTICES: one LP split, then
    the branching on its half-valued vertices."""

    @staticmethod
    def count_splits(monkeypatch) -> list:
        sizes = []
        inner = vc._lp_split

        def counted(adj):
            sizes.append(len(adj))
            return inner(adj)

        monkeypatch.setattr(vc, "_lp_split", counted)
        return sizes

    def test_agrees_with_exact_value(self, monkeypatch):
        rng = random.Random(2064)
        graphs = [random_graph(rng, n, rng.uniform(0.08, 0.3)) for n in range(20, 65, 4)]
        values = [vc_exact(g).value for g in graphs]
        sizes = self.count_splits(monkeypatch)
        for g, value in zip(graphs, values):
            assert not vc_decision(g, value - 1), f"n={g.n}"
            assert vc_decision(g, value), f"n={g.n}"
        assert sizes == []

    def test_larger_graphs_go_through_the_kernel(self, monkeypatch):
        # five stars put their centres in V1 and their leaves in V0, so the
        # kernel is at most the random part
        part = random_graph(random.Random(2065), 20, 0.2)
        g = disjoint_union(*[star(10)] * 5, part)
        value = 5 + vc_exact(part).value
        sizes = self.count_splits(monkeypatch)
        assert not vc_decision(g, value - 1)
        assert vc_decision(g, value)
        assert sizes == [75, 75]
        with pytest.raises(ValueError):
            vc_decision(g, -1)

    def test_a_kernel_above_the_limit_is_decided(self, monkeypatch):
        # C101 is all half-valued, so at k = 51 its kernel is the whole cycle;
        # at k = 50 it has more than 2k vertices and is decided no
        sizes = self.count_splits(monkeypatch)
        assert vc_decision(cycle_graph(101), 51)
        assert not vc_decision(cycle_graph(101), 50)
        assert sizes == [101, 101]


def kernel_route(g: Graph, k: int) -> bool:
    """The decision above VC_MAX_VERTICES by its first route: branch on
    `nt_kernel`'s kernel, relabelled to 0..n'-1."""
    ki = nt_kernel(g, k)
    return vc._vc_split(ki.graph.adj_masks, (1 << ki.graph.n) - 1, ki.budget) is not None


class TestDecisionAboveTheLimitTwin:
    """Above VC_MAX_VERTICES `vc_decision` branches on the half-valued
    vertices of g's own rows, and `kernel_route` on the relabelled kernel.
    The relabelling keeps vertex order, so the answers agree, and so do the
    branch nodes, except that a kernel decided "no" spends one node on its
    single-edge stand-in where `vc_decision` spends none."""

    @staticmethod
    def assert_routes_agree(monkeypatch, g: Graph, k: int) -> bool:
        nodes = []
        inner = vc._vc_component

        def counted(*args):
            nodes.append(args[1].bit_count())
            return inner(*args)

        with monkeypatch.context() as patch:
            patch.setattr(vc, "_vc_component", counted)
            got = vc_decision(g, k)
            direct, nodes[:] = list(nodes), []
            assert kernel_route(g, k) == got, (graph6_str(g), k)
        if nt_kernel(g, k).decided_no:
            assert not got and direct == [] and nodes == [2]
        else:
            assert direct == nodes
        return got

    def test_seeded_trees_plus_edges(self, monkeypatch):
        rng = random.Random(6500)
        decided = 0
        for n in range(65, 201, 9):
            for extra in (3, n // 10, n // 5):
                edges = {(rng.randrange(v), v) for v in range(1, n)}
                while len(edges) < n - 1 + extra:
                    u, v = sorted(rng.sample(range(n), 2))
                    edges.add((u, v))
                g = Graph(n, edges)
                try:
                    value = vc_exact(g).value
                except SizeLimitError:
                    continue
                assert not self.assert_routes_agree(monkeypatch, g, value - 1)
                assert self.assert_routes_agree(monkeypatch, g, value)
                decided += 1
        assert decided >= 30

    def test_unions_of_random_graphs(self, monkeypatch):
        # the LP value falls a whole unit short of vc, so at k = vc - 1 the
        # kernel is not decided and the "no" comes from the branching
        rng = random.Random(6501)
        for parts in (3, 4, 5):
            for _ in range(4):
                g = disjoint_union(*[random_graph(rng, rng.randint(18, 30),
                                                  rng.uniform(0.1, 0.25))
                                     for _ in range(parts)])
                value = vc_exact(g).value
                assert not nt_kernel(g, value - 1).decided_no
                assert not self.assert_routes_agree(monkeypatch, g, value - 1)
                assert self.assert_routes_agree(monkeypatch, g, value)

    def test_long_odd_cycle(self, monkeypatch):
        assert self.assert_routes_agree(monkeypatch, cycle_graph(101), 51)
        assert not self.assert_routes_agree(monkeypatch, cycle_graph(101), 50)
