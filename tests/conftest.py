"""Shared fixtures and independent oracles for the test suite.

The catalog fixtures expose one representative per isomorphism class of
small graphs.  The helper oracles here are deliberately written against
different characterizations than the package uses (cycle-index counting,
whole-orbit permutation sweeps, dense subset enumeration) so that agreement
is meaningful evidence, not a tautology.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterable

import pytest

from idforest import (Graph, InvalidBlockError, VertexPartition, enumerate_graphs,
                      identify_partition)


def graphs_up_to(n: int) -> list[Graph]:
    """Every isomorphism class with at most n vertices, smallest first."""
    return [g for size in range(n + 1) for g in enumerate_graphs(size)]


def unlabeled_graph_count(n: int) -> int:
    """Number of isomorphism classes of simple graphs on n vertices, by
    averaging 2**(orbits of the pair action) over all vertex permutations."""
    total = 0
    pairs = list(itertools.combinations(range(n), 2))
    for perm in itertools.permutations(range(n)):
        seen: set = set()
        cycles = 0
        for pair in pairs:
            if pair in seen:
                continue
            cycles += 1
            cur = pair
            while True:
                seen.add(cur)
                u, v = perm[cur[0]], perm[cur[1]]
                cur = (u, v) if u < v else (v, u)
                if cur == pair:
                    break
        total += 2 ** cycles
    return total // math.factorial(n)


def relabel(g: Graph, perm: list[int] | tuple[int, ...]) -> Graph:
    """The image of g under vertex -> perm[vertex]."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def identify_set(g: Graph, x: Iterable[int]) -> tuple[Graph, int]:
    """Identify one vertex set; returns the graph and the heir's label."""
    block = frozenset(x)
    if not block:
        raise InvalidBlockError("cannot identify an empty set")
    h, image = identify_partition(g, VertexPartition([block]))
    return h, image[min(block)]


def prism(t: int) -> Graph:
    """C_t x K2: two t-cycles 0..t-1 and t..2t-1, and the spokes i - t+i."""
    outer = [(i, (i + 1) % t) for i in range(t)]
    return Graph(2 * t, outer + [(u + t, v + t) for u, v in outer] + [(i, i + t) for i in range(t)])


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(n, [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < p])


def brute_lp_value(g: Graph) -> float:
    """Optimal value of the half-integral cover relaxation by enumerating
    all assignments in {0, 1/2, 1}**V (doubled to stay in integers)."""
    best = 2 * g.n
    for assign in itertools.product((0, 1, 2), repeat=g.n):
        if all(assign[u] + assign[v] >= 2 for u, v in g.edges):
            best = min(best, sum(assign))
    return best / 2


@pytest.fixture(scope="session")
def catalog5() -> list[Graph]:
    return graphs_up_to(5)


@pytest.fixture(scope="session")
def catalog6() -> list[Graph]:
    return graphs_up_to(6)
