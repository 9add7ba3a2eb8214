"""Exact vertex cover at desk scale.

The workhorse is the half-integral relaxation: an optimal {0, 1/2, 1}
solution is read off a minimum vertex cover of the bipartite double cover
(maximum matching + alternating-path argument).  The (V0, V1/2, V1) split
drives both the 2k-vertex kernel and the preprocessing of the exact
branching solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import SizeLimitError
from .graph import Graph, _bits, components, induced_subgraph

VC_MAX_VERTICES = 64


@dataclass(frozen=True)
class VcSolution:
    value: int
    cover: frozenset

    def covers(self, g: Graph) -> bool:
        return all(u in self.cover or v in self.cover for u, v in g.edges)


@dataclass(frozen=True)
class KernelInstance:
    """Reduced instance equivalent to the original decision.

    `forced` is the set of original vertices already committed to the cover,
    `origin` maps kernel vertices back to original labels (synthetic
    vertices, e.g. an added apex or the trivial no-instance, are absent).
    `decided_no` is True when the reduction itself settled the answer "no";
    the graph and budget are then a constant-size no-instance.
    """

    graph: Graph
    budget: int
    forced: frozenset
    origin: Mapping[int, int]
    decided_no: bool


# ---------------------------------------------------------------------------
# half-integral relaxation via the bipartite double cover

def _double_cover_min_cover(g: Graph) -> tuple[set, set]:
    """Minimum vertex cover of the bipartite double cover.

    Left copy of v is v, right copy is indexed separately.  Returns
    (left_cover, right_cover) as sets of original vertex labels.
    """
    match_right: dict[int, int] = {}   # right vertex -> matched left vertex
    match_left: dict[int, int] = {}

    def try_augment(u: int, visited: set) -> bool:
        for w in sorted(g.adj[u]):
            if w in visited:
                continue
            visited.add(w)
            if w not in match_right or try_augment(match_right[w], visited):
                match_right[w] = u
                match_left[u] = w
                return True
        return False

    for u in range(g.n):
        try_augment(u, set())

    # alternating reachability from unmatched left vertices
    frontier = [u for u in range(g.n) if u not in match_left]
    left_z = set(frontier)
    right_z: set = set()
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if w not in right_z:
                    right_z.add(w)
                    mu = match_right.get(w)
                    if mu is not None and mu not in left_z:
                        left_z.add(mu)
                        nxt.append(mu)
        frontier = nxt
    left_cover = set(range(g.n)) - left_z
    right_cover = right_z
    return left_cover, right_cover


def lp_half_integral(g: Graph) -> tuple[frozenset, frozenset, frozenset]:
    """Optimal half-integral relaxation as (V0, Vhalf, V1)."""
    left, right = _double_cover_min_cover(g)
    v1 = frozenset(left & right)
    v0 = frozenset(v for v in range(g.n) if v not in left and v not in right)
    vhalf = frozenset(v for v in range(g.n) if (v in left) != (v in right))
    return v0, vhalf, v1


def nt_kernel(g: Graph, k: int) -> KernelInstance:
    """Crown-style kernel from the half-integral split.

    The V1 vertices are forced into the cover, V0 is discarded, and the
    half-valued part survives.  A run that is already decided negative
    (budget overdrawn, or more than 2*budget surviving vertices) returns
    a single edge with budget 0 and `decided_no` set.
    """
    if k < 0:
        raise ValueError(f"budget must be non-negative, got {k}")
    _, vhalf, v1 = lp_half_integral(g)
    budget = k - len(v1)
    sub, origin = induced_subgraph(g, vhalf)
    keep = [v for v in range(sub.n) if sub.degree(v) > 0]
    sub, origin2 = induced_subgraph(sub, keep)
    origin = tuple(origin[v] for v in origin2)
    if budget < 0 or sub.n > 2 * budget:
        return KernelInstance(Graph(2, [(0, 1)]), 0, frozenset(), {}, True)
    return KernelInstance(sub, budget, frozenset(v1), dict(enumerate(origin)), False)


# ---------------------------------------------------------------------------
# exact solver

def _path_cycle_cover(adj: tuple[int, ...], comp: int) -> int:
    """Minimum cover of a component with max degree <= 2 (path or cycle)."""
    ends = [v for v in _bits(comp) if (adj[v] & comp).bit_count() <= 1]
    start = ends[0] if ends else (comp & -comp).bit_length() - 1
    # walk the component, always to the smallest unseen neighbour
    order = [start]
    seen = 1 << start
    while nxt := adj[order[-1]] & comp & ~seen:
        low = nxt & -nxt
        order.append(low.bit_length() - 1)
        seen |= low
    t = len(order)
    if ends or t % 2 == 0:  # path or even cycle: every second vertex
        picked = order[1:t:2]
    else:  # odd cycle: ceil(t/2), the wrap-around edge needs one extra
        picked = order[1:t - 1:2] + [order[t - 1]]
    return sum(1 << v for v in picked)


def _vc_component(adj: tuple[int, ...], comp: int, best_cap: int) -> int | None:
    """Minimum cover of the component mask comp, or None if it must exceed best_cap."""
    maxdeg, v = max(((adj[u] & comp).bit_count(), -u) for u in _bits(comp))
    v = -v  # the smallest vertex of maximum degree
    if maxdeg == 0:
        return 0
    if maxdeg <= 2:
        sol = _path_cycle_cover(adj, comp)
        return sol if sol.bit_count() <= best_cap else None
    # branch: take v ...
    rest = comp & ~(1 << v)
    best = _vc_split(adj, rest, best_cap - 1)
    if best is not None:
        best |= 1 << v
        best_cap = min(best_cap, best.bit_count() - 1)
    # ... or take all of N(v)
    nv = adj[v] & comp
    sub = _vc_split(adj, rest & ~nv, best_cap - nv.bit_count())
    if sub is not None and (best is None or (nv | sub).bit_count() < best.bit_count()):
        best = nv | sub
    return best


def _vc_split(adj: tuple[int, ...], alive: int, cap: int) -> int | None:
    """Minimum cover of the subgraph the mask alive induces, as a mask, if
    its size is <= cap, else None."""
    if cap < 0:
        return None
    total = 0
    for comp in components(adj, alive):
        sol = _vc_component(adj, comp, cap - total.bit_count())
        if sol is None:
            return None
        total |= sol
    return total


def vc_exact(g: Graph) -> VcSolution:
    """Minimum vertex cover with witness.

    Preprocesses with the half-integral split, then branches on a maximum
    degree vertex (take it, or take its whole neighborhood); ties go to the
    smallest label, components with max degree <= 2 are solved directly.
    The branching works on `g.adj_masks` with vertex sets as int masks, and
    splits each remaining subgraph into components with `components`.
    """
    if g.n > VC_MAX_VERTICES:
        raise SizeLimitError(f"vc_exact supports up to {VC_MAX_VERTICES} vertices, got {g.n}")
    _, vhalf, v1 = lp_half_integral(g)
    sol = _vc_split(g.adj_masks, sum(1 << v for v in vhalf), len(vhalf))
    assert sol is not None
    cover = frozenset(v1) | frozenset(_bits(sol))
    return VcSolution(value=len(cover), cover=cover)


def vc_decision(g: Graph, k: int) -> bool:
    """True iff g has a vertex cover of size at most k."""
    ki = nt_kernel(g, k)
    return vc_exact(ki.graph).value <= ki.budget
