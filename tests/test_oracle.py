"""Brute-force reference oracles: definition-level recomputations and size
guards.  These are the slow, obviously-correct baselines, so the checks here
replay their definitions through a second, independent route."""

from __future__ import annotations

import itertools
import random

import pytest
from conftest import complete_bipartite_graph, graphs_up_to, random_graph

from idforest import (BRUTE_ECF_MAX_EDGES, BRUTE_IDF_MAX, BRUTE_MINOR_MAX,
                      BRUTE_VC_MAX, Graph, InvalidBlockError, MinorModel,
                      SizeLimitError,
                      VertexPartition, brute_ecf, brute_idf, brute_minor,
                      brute_vc, complete_graph,
                      cycle_graph, disjoint_union, gen_antichain_h,
                      gen_marguerite, identify_partition, is_forest,
                      is_id_forest_partition, marguerite_model, path_graph,
                      vc_exact)
from idforest.graphio import GRAPH6_MAX_VERTICES
from idforest.oracle import _set_partitions


def bowtie() -> Graph:
    return gen_marguerite(2)


def contraction_partition(n: int, edge_set) -> VertexPartition:
    """Connected components of the chosen edge set, as identification blocks."""
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edge_set:
        parent[find(u)] = find(v)
    groups: dict = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return VertexPartition([vs for vs in groups.values() if len(vs) >= 2])


def recomputed_ecf(g: Graph) -> int:
    edges = sorted(g.edges)
    for size in range(g.m + 1):
        for subset in itertools.combinations(edges, size):
            p = contraction_partition(g.n, subset)
            if is_id_forest_partition(g, p):
                return size
    raise AssertionError("unreachable")


class TestBruteIdf:
    @pytest.mark.parametrize("graph,value", [
        (complete_graph(3), 2),
        (cycle_graph(6), 3),
        (bowtie(), 3),
        (path_graph(7), 0),
        (Graph(0), 0),
    ])
    def test_known_values(self, graph, value):
        assert brute_idf(graph) == value

    def test_witnessed_by_some_partition(self):
        # replay the definition: some partition of that order works, none smaller
        rng = random.Random(113)
        for _ in range(12):
            g = random_graph(rng, rng.randint(2, 6), 0.5)
            value = brute_idf(g)
            found = {
                order
                for blocks in all_partitions_of_subsets(g.n)
                for order in [sum(len(b) for b in blocks)]
                if is_id_forest_partition(g, VertexPartition(blocks))
            }
            assert value == min(found)

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            brute_idf(Graph(BRUTE_IDF_MAX + 1))

    def test_partitions_are_the_singleton_free_ones(self):
        # every set partition once, by restricted growth strings, filtered
        # here; the counts are OEIS A000296
        def growth_strings(n: int, prefix: tuple = (), top: int = -1):
            if len(prefix) == n:
                yield prefix
                return
            for b in range(top + 2):
                yield from growth_strings(n, prefix + (b,), max(top, b))

        counts = []
        for n in range(9):
            reference = set()
            for rgs in growth_strings(n):
                blocks = [frozenset(v for v in range(n) if rgs[v] == b) for b in set(rgs)]
                if all(len(b) >= 2 for b in blocks):
                    reference.add(frozenset(blocks))
            generated = [frozenset(map(frozenset, p)) for p in _set_partitions(list(range(n)))]
            assert len(generated) == len(set(generated))
            assert set(generated) == reference
            counts.append(len(generated))
        assert counts == [1, 0, 1, 1, 4, 11, 41, 162, 715]


def validates_by_sets(model: MinorModel, host: Graph) -> bool:
    """The model conditions on vertex sets: one non-empty set of host
    vertices per pattern vertex, pairwise disjoint, each connected by a
    flood fill through `neighbors`, and each pattern edge realised by a
    host edge between its two sets."""
    sets = [set(model.branch_sets.get(p, ())) for p in range(model.pattern.n)]
    if any(not s or not s <= set(range(host.n)) for s in sets):
        return False
    if sum(map(len, sets)) != len(set().union(*sets)):
        return False
    for s in sets:
        seen = {min(s)}
        stack = list(seen)
        while stack:
            for w in (host.neighbors(stack.pop()) & s) - seen:
                seen.add(w)
                stack.append(w)
        if seen != s:
            return False
    return all(any(host.has_edge(a, b) for a in sets[u] for b in sets[v])
               for u, v in model.pattern.edges)


def all_partitions_of_subsets(n: int):
    """Every way to pick disjoint blocks of size >= 2 from 0..n-1."""
    verts = list(range(n))

    def rec(rest: list) -> list:
        if not rest:
            return [[]]
        out = list(rec(rest[1:]))  # skip rest[0]
        first = rest[0]
        for size in range(1, len(rest)):
            for others in itertools.combinations(rest[1:], size):
                block = [first, *others]
                remaining = [v for v in rest[1:] if v not in others]
                for tail in rec(remaining):
                    out.append([block, *tail])
        return out

    return rec(verts)


class TestBruteVc:
    @pytest.mark.parametrize("graph,value", [
        (cycle_graph(5), 3),
        (complete_bipartite_graph(1, 6), 1),
        (Graph(5), 0),
        (complete_graph(4), 3),
    ])
    def test_known_values(self, graph, value):
        assert brute_vc(graph) == value

    def test_matches_exact_solver(self, catalog6):
        for g in catalog6:
            assert brute_vc(g) == vc_exact(g).value

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            brute_vc(Graph(BRUTE_VC_MAX + 1))


class TestBruteEcf:
    @pytest.mark.parametrize("graph,value", [
        (complete_graph(3), 1),
        (cycle_graph(5), 3),
        (path_graph(6), 0),
        (complete_graph(4), 2),
        (cycle_graph(4), 2),
        (bowtie(), 2),
    ])
    def test_known_values(self, graph, value):
        assert brute_ecf(graph).value == value

    def test_witness_contracts_to_a_forest(self):
        rng = random.Random(127)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 7), 0.4)
            if g.m > BRUTE_ECF_MAX_EDGES:
                continue
            res = brute_ecf(g)
            assert len(res.witness) == res.value
            assert res.witness <= g.edges
            p = contraction_partition(g.n, res.witness)
            assert is_id_forest_partition(g, p)

    def test_value_matches_independent_recomputation(self):
        rng = random.Random(131)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 6), 0.5)
            assert brute_ecf(g).value == recomputed_ecf(g)

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            brute_ecf(complete_graph(7))  # 21 edges


class TestBruteMinor:
    def test_triangle_inside_a_long_cycle(self):
        model = brute_minor(complete_graph(3), cycle_graph(5))
        assert model is not None
        assert model.validates_in(cycle_graph(5))
        assert model.pattern == complete_graph(3)

    def test_k4_not_inside_a_cycle(self):
        assert brute_minor(complete_graph(4), cycle_graph(5)) is None

    def test_pattern_larger_than_host(self):
        pattern = disjoint_union(complete_graph(3), complete_graph(3))
        assert brute_minor(pattern, bowtie()) is None

    def test_no_k5_in_a_planar_host(self):
        assert brute_minor(complete_graph(5), complete_bipartite_graph(3, 3)) is None

    def test_marguerite_inside_the_apexed_cycle(self):
        assert brute_minor(gen_marguerite(2), gen_antichain_h(2)) is not None

    def test_every_graph_is_its_own_minor(self):
        rng = random.Random(137)
        for _ in range(15):
            g = random_graph(rng, rng.randint(1, 7), 0.4)
            model = brute_minor(g, g)
            assert model is not None and model.validates_in(g)

    def test_returned_models_always_validate(self):
        rng = random.Random(139)
        hits = 0
        for _ in range(40):
            host = random_graph(rng, rng.randint(4, 8), 0.5)
            pattern = random_graph(rng, rng.randint(2, 4), 0.7)
            model = brute_minor(pattern, host)
            if model is not None:
                hits += 1
                assert model.validates_in(host)
                assert model.pattern == pattern
        assert hits > 0  # the sample should not be vacuous

    def test_model_validation_rejects_tampering(self):
        host = cycle_graph(5)
        model = brute_minor(complete_graph(3), host)
        sets = dict(model.branch_sets)
        overlapping = dict(sets)
        overlapping[0] = overlapping[0] | overlapping[1]
        assert not MinorModel(complete_graph(3), overlapping).validates_in(host)
        missing = dict(sets)
        missing[0] = frozenset()
        assert not MinorModel(complete_graph(3), missing).validates_in(host)
        out_of_range = dict(sets)
        out_of_range[0] = frozenset({99})
        assert not MinorModel(complete_graph(3), out_of_range).validates_in(host)
        negative = dict(sets)
        negative[0] = sets[0] | {-1}
        with pytest.raises(InvalidBlockError):
            MinorModel(complete_graph(3), negative)
        for absent in ({p: s for p, s in sets.items() if p != 0}, {**sets, 0: None}):
            assert not MinorModel(complete_graph(3), absent).validates_in(host)
        # on the path 0-1-2-3: {0, 1} and {2} model an edge, while {0, 1}
        # and {1, 2} overlap, {0, 2} is not connected and {0} and {3} do
        # not touch
        k2, path = path_graph(2), path_graph(4)
        assert MinorModel(k2, {0: frozenset({0, 1}), 1: frozenset({2})}).validates_in(path)
        assert not MinorModel(k2, {0: frozenset({0, 1}), 1: frozenset({1, 2})}).validates_in(path)
        assert not MinorModel(k2, {0: frozenset({0, 2}), 1: frozenset({3})}).validates_in(path)
        assert not MinorModel(k2, {0: frozenset({0}), 1: frozenset({3})}).validates_in(path)

    def test_mask_checker_matches_the_set_definition(self):
        # brute_minor models, each also with every vertex moved, and copied,
        # to every other branch set in turn, judged by validates_in and by
        # the sets
        rng = random.Random(149)
        verdicts = []
        for _ in range(30):
            host = random_graph(rng, rng.randint(4, 8), 0.5)
            pattern = random_graph(rng, rng.randint(2, 4), 0.7)
            model = brute_minor(pattern, host)
            if model is None:
                continue
            variants = [model]
            for p, q in itertools.permutations(range(pattern.n), 2):
                for v in model.branch_sets[p]:
                    copied = {**model.branch_sets, q: model.branch_sets[q] | {v}}
                    moved = {**copied, p: model.branch_sets[p] - {v}}
                    variants += [MinorModel(pattern, copied), MinorModel(pattern, moved)]
            for m in variants:
                verdicts.append(m.validates_in(host))
                assert verdicts[-1] == validates_by_sets(m, host), m
        assert True in verdicts and False in verdicts

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            brute_minor(complete_graph(3), Graph(BRUTE_MINOR_MAX + 1))


class TestMinorModel:
    """A model keeps its branch sets only as vertex masks packed into one
    int, and builds `branch_sets` on access."""

    def test_branch_sets_round_trip(self):
        rng = random.Random(151)
        models = 0
        for _ in range(30):
            host = random_graph(rng, rng.randint(4, 8), 0.5)
            pattern = random_graph(rng, rng.randint(2, 4), 0.7)
            model = brute_minor(pattern, host)
            if model is None:
                continue
            models += 1
            again = MinorModel(pattern, model.branch_sets)
            assert again.branch_sets == model.branch_sets
            assert again == model
            assert again.as_json_dict() == model.as_json_dict()
            assert again.validates_in(host)
        assert models > 0
        assert MinorModel.__slots__ == ("pattern", "_packed", "_width")

    def test_brute_minor_model_equals_the_marguerite_search_model(self):
        host = gen_antichain_h(2)
        model = brute_minor(gen_marguerite(2), host)
        assert model is not None and model == marguerite_model(host, 2)

    def test_labels_outside_the_graph6_range_are_refused(self):
        k2 = path_graph(2)
        for v in (-1, GRAPH6_MAX_VERTICES + 1):
            with pytest.raises(InvalidBlockError, match=f"vertex {v} not in"):
                MinorModel(k2, {0: {0}, 1: {v}})
        top = MinorModel(k2, {0: {0}, 1: {GRAPH6_MAX_VERTICES}})
        assert top.branch_sets == {0: {0}, 1: {GRAPH6_MAX_VERTICES}}
        assert not top.validates_in(k2)
