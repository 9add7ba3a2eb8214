"""Canonical forms: invariance over the whole permutation orbit, separation
of distinct classes, and the isomorphism predicate built on top."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from conftest import (complete_bipartite_graph, graphs_up_to, random_graph, relabel,
                      unlabeled_graph_count)

import idforest.canon as canon
from idforest import (CANON_MAX_VERTICES, Graph, SizeLimitError,
                      canonical_form, canonical_graph, canonical_labeling,
                      cycle_graph, disjoint_union,
                      enumerate_graphs, gen_antichain_h, gen_marguerite,
                      is_isomorphic, path_graph)


def test_invariant_over_full_orbit_up_to_5_vertices():
    for g in graphs_up_to(5):
        want = canonical_form(g)
        for perm in itertools.permutations(range(g.n)):
            assert canonical_form(relabel(g, perm)) == want


def test_invariant_under_random_relabelings():
    rng = random.Random(41)
    for n in range(6, 10):
        for _ in range(50):
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)) == canonical_form(g)


@pytest.mark.parametrize("n", range(7))
def test_distinct_classes_have_distinct_forms(n):
    forms = [canonical_form(g) for g in enumerate_graphs(n)]
    assert len(set(forms)) == len(forms) == unlabeled_graph_count(n)


def test_canonical_graph_is_isomorphic_fixed_point():
    rng = random.Random(43)
    for _ in range(30):
        g = random_graph(rng, rng.randint(0, 9), 0.4)
        cg = canonical_graph(g)
        assert is_isomorphic(g, cg)
        assert canonical_graph(cg) == cg


def test_canonical_labeling_realizes_canonical_graph():
    rng = random.Random(47)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 9), 0.5)
        lab = canonical_labeling(g)
        assert sorted(lab) == list(range(g.n))
        assert relabel(g, lab) == canonical_graph(g)


def test_is_isomorphic_positive_and_negative():
    # same degree sequence (1,1,2,2 vs 1,1,1,3) is not enough
    p4 = path_graph(4)
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert not is_isomorphic(p4, star)
    assert is_isomorphic(p4, relabel(p4, (3, 1, 0, 2)))
    assert not is_isomorphic(p4, path_graph(3))
    assert is_isomorphic(Graph(0), Graph(0))


def test_regular_graphs_with_same_degrees_separate():
    # both 3-regular on 6 vertices, not isomorphic
    k33 = complete_bipartite_graph(3, 3)
    prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                      (0, 3), (1, 4), (2, 5)])
    assert not is_isomorphic(k33, prism)


def to_networkx(nx, g: Graph):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


@pytest.mark.parametrize("g", [cycle_graph(12), complete_bipartite_graph(6, 6),
                               gen_marguerite(3), gen_antichain_h(3)],
                         ids=["C12", "K6_6", "marguerite3", "H3"])
def test_forms_agree_with_networkx_under_relabeling(g):
    nx = pytest.importorskip("networkx")
    rng = random.Random(59)
    want = canonical_form(g)
    for _ in range(20):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert canonical_form(h) == want
        assert nx.is_isomorphic(to_networkx(nx, h), to_networkx(nx, g))


def test_forms_agree_with_networkx_on_a_same_degree_pair():
    # C12 and 2·C6 are both 2-regular on 12 vertices
    nx = pytest.importorskip("networkx")
    c12 = cycle_graph(12)
    two_c6 = disjoint_union(cycle_graph(6), cycle_graph(6))
    assert canonical_form(c12) != canonical_form(two_c6)
    assert not nx.is_isomorphic(to_networkx(nx, c12), to_networkx(nx, two_c6))


def reference_refine(n: int, adj: tuple[int, ...], colors: list[int]) -> list[int]:
    """The refinement with tuple signatures (old color, then the neighbour
    count in each cell), ranked through dicts: the slow twin of
    `canon._refine`."""
    rank0 = {c: i for i, c in enumerate(sorted(set(colors)))}
    colors = [rank0[c] for c in colors]
    while True:
        masks: dict[int, int] = {}
        for v in range(n):
            masks[colors[v]] = masks.get(colors[v], 0) | (1 << v)
        if len(masks) == n:
            return colors
        cell_masks = [masks[c] for c in sorted(masks)]
        sig = [(colors[v],) + tuple((adj[v] & cm).bit_count() for cm in cell_masks)
               for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [rank[sig[v]] for v in range(n)]
        if new == colors:
            return colors
        colors = new


def test_refine_matches_the_tuple_signature_reference():
    rng = random.Random(61)
    for _ in range(600):
        n = rng.randint(1, 12)
        adj = random_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.8])).adj_masks
        # `_search` branches on colorings like these: doubled colors, one
        # of them lowered by one, so -1 occurs
        for colors in ([0] * n, [rng.randint(-2, 2 * n) for _ in range(n)]):
            assert canon._refine(n, adj, colors) == reference_refine(n, adj, colors)


def test_forms_of_relabelled_level_seven_are_pinned():
    # The level's representatives are canonical, so the forms of their
    # relabellings, one per line, hash to the level-7 file digest.
    rng = random.Random(67)
    digest = hashlib.sha256()
    for g in enumerate_graphs(7):
        perm = list(range(g.n))
        rng.shuffle(perm)
        digest.update(canonical_form(relabel(g, perm)) + b"\n")
    assert digest.hexdigest() == \
        "1dd8f91e8ea58c3c9d066fba8bfadccd0fdf4dbb6d5bb7afaa9e596ab366e6fe"


def test_size_guard():
    with pytest.raises(SizeLimitError):
        canonical_form(Graph(CANON_MAX_VERTICES + 1))
    canonical_form(Graph(CANON_MAX_VERTICES))  # boundary is allowed
