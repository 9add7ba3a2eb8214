"""Exact identification-to-forest solving.

idf(G) is the minimum number of vertices touched by a disjoint family of
blocks whose blockwise identification leaves a forest.  The solver rests on
two structure facts, both re-verified by the test suite against brute force:
bridges never matter (idf(G) = idf of the bridgeless core), and on a
bridgeless graph the optimum equals the minimum vertex cover, witnessed by
splitting a cover along the core's components.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterable

from .graph import Graph, _core, bridges, components, remove_bridges, with_new_vertex
from .graphio import graph6_str
from .identify import VertexPartition, identify_partition
from .vc import KernelInstance, _at_most, _min_cover, nt_kernel


@dataclass(frozen=True, slots=True)
class IdfCertificate:
    """An optimal partition of `graph`, the solver's input, which is held by
    reference.  `forest`, the quotient, is identified again on each access."""

    value: int
    partition: VertexPartition
    graph: Graph

    @property
    def forest(self) -> Graph:
        return identify_partition(self.graph, self.partition)[0]

    def as_json_dict(self) -> dict:
        return {
            "idf": self.value,
            "partition": [sorted(b) for b in self.partition.blocks],
            "forest_graph6": graph6_str(self.forest),
        }

    def as_json(self) -> str:
        return json.dumps(self.as_json_dict(), sort_keys=True)


def partition_from_cover(g: Graph, cover: Iterable[int]) -> VertexPartition:
    """Split a vertex cover of g's bridgeless core into one block per core
    component (components contributing fewer than 2 cover vertices drop out).

    Identifying the result is always a forest: inside a component the block
    covers every edge, so the quotient is a star, and blocks never span a
    bridge, so re-adding bridges cannot close a cycle.  Labels outside g
    are ignored.
    """
    return _split_cover(_core(g.adj_masks), sum(1 << v for v in set(cover) if 0 <= v < g.n))


def _split_cover(core: list[int], cover: int) -> VertexPartition:
    """`partition_from_cover` on the bridgeless core's rows, for a cover mask."""
    blocks = (comp & cover for comp in components(core, (1 << len(core)) - 1))
    return VertexPartition._from_masks(b for b in blocks if b.bit_count() >= 2)


def idf_exact(g: Graph) -> IdfCertificate:
    """Minimum identification order with a witness partition."""
    core = _core(g.adj_masks)
    cover = _min_cover(core)
    return IdfCertificate(value=cover.bit_count(), partition=_split_cover(core, cover), graph=g)


def idf_decision(g: Graph, k: int) -> bool:
    """True iff idf(g) <= k."""
    return _at_most(_core(g.adj_masks), k)


def apex_bridgeless(g: Graph) -> tuple[Graph, int]:
    """Add one vertex adjacent to every non-isolated vertex.

    The result has no bridges, and when g has at least one edge its minimum
    vertex cover grows by exactly one.  Returns (graph, apex label).
    """
    targets = [v for v, row in enumerate(g.adj_masks) if row]
    return with_new_vertex(g, targets), g.n


def vc_to_idf(g: Graph, k: int) -> tuple[Graph, int]:
    """Transfer a cover instance to an identification instance.

    (g, k) has a vertex cover of size <= k iff the output pair (h, k') has
    idf(h) <= k'.  Bridgeless graphs pass through unchanged; otherwise the
    apex construction is applied and the budget grows by one.
    """
    if not bridges(g):
        return g, k
    h, _ = apex_bridgeless(g)
    return h, k + 1


def idf_kernel(g: Graph, k: int) -> KernelInstance:
    """Shrink (g, k) to an equivalent instance on at most 2k+1 vertices.

    Pipeline: drop bridges, run the half-integral cover kernel, and if the
    reduced graph still has a bridge (the decided no-instance does), apex
    it with budget+1 so the output is again bridgeless-or-decided.  The
    budget never exceeds k+1.  For k = 0 a negative answer cannot fit in
    2k+1 = 1 vertices (every such graph is a forest), so only there the
    size bound gives way to the 3-vertex canonical no-instance.
    """
    ki = nt_kernel(remove_bridges(g), k)
    h, budget = vc_to_idf(ki.graph, ki.budget)
    return replace(ki, graph=h, budget=budget)
