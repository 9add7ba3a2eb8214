"""Exact vertex cover at desk scale.

The workhorse is the half-integral relaxation: an optimal {0, 1/2, 1}
solution is read off a minimum vertex cover of the bipartite double cover
(maximum matching + alternating-path argument).  Every caller goes
through three private functions on adjacency rows: the (V0, V1/2, V1)
split `_lp_split`, the minimum cover `_min_cover` and the budget decision
`_at_most`.  The split also gives the 2k-vertex kernel.

Its value |V1| + |V1/2|/2 is also the branching's lower bound (Nemhauser
and Trotter, 1975): a component is cut as soon as a matching of its double
cover shows the LP value exceeds the cover size still allowed.  Every cover
has at least that size, so the cut only ends calls that would have found no
cover within the cap; covers and tie-breaks are the same as without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

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

def _augment(adj: Sequence[int], alive: int, mate: dict, u: int) -> bool:
    """Grow `mate` by an alternating path from the unmatched left vertex u.

    The bipartite double cover of the subgraph the mask `alive` induces has
    each vertex x on the left and its copy x' on the right, and x-y' for each
    edge xy.  `mate` is a matching of it, right copy -> left vertex.  The
    search is depth first, lowest neighbour first, on an explicit stack so
    that paths of any length fit; True iff a path was found.
    """
    visited = 0
    path: list[tuple[int, int]] = []  # (left vertex, right copy it went on through)
    x = u
    while True:
        if cand := adj[x] & alive & ~visited:
            low = cand & -cand
            visited |= low
            w = low.bit_length() - 1
            if w not in mate:
                mate[w] = x
                for left, right in path:
                    mate[right] = left
                return True
            path.append((x, w))
            x = mate[w]
        elif path:
            x = path.pop()[0]
        else:
            return False


def _lp_split(adj: Sequence[int]) -> tuple[int, int]:
    """The optimal half-integral relaxation of the graph with these rows, as
    the vertex masks (V1, Vhalf); every other vertex is in V0.

    It is read off a minimum vertex cover of the bipartite double cover
    (König): a maximum matching, then the left vertices not reachable by
    alternating paths from the unmatched ones, and the right copies that
    are.  A vertex is in V1 when both its copies are in that cover, and in
    Vhalf when one is.  Those reachable sets are the same for every maximum
    matching, so the matching is seeded greedily (each left vertex in turn
    takes its lowest free right copy) and augmented only from the left
    vertices the seeding leaves unmatched.
    """
    alive = (1 << len(adj)) - 1
    mate: dict[int, int] = {}
    taken = unseeded = 0  # matched right copies; left vertices left unmatched
    for u, row in enumerate(adj):
        if cand := row & ~taken:
            low = cand & -cand
            taken |= low
            mate[low.bit_length() - 1] = u
        else:
            unseeded |= 1 << u
    free = sum(1 << u for u in _bits(unseeded) if not _augment(adj, alive, mate, u))
    left_z = frontier = free
    right_z = 0
    while frontier:
        reach = 0
        for u in _bits(frontier):
            reach |= adj[u]
        reach &= ~right_z
        right_z |= reach
        frontier = 0
        for w in _bits(reach):
            frontier |= 1 << mate[w]  # matched, or the matching was not maximum
        frontier &= ~left_z
        left_z |= frontier
    left = alive & ~left_z
    return left & right_z, left ^ right_z


def lp_half_integral(g: Graph) -> tuple[frozenset, frozenset, frozenset]:
    """Optimal half-integral relaxation as (V0, Vhalf, V1)."""
    v1, half = _lp_split(g.adj_masks)
    v0 = (1 << g.n) - 1 & ~(v1 | half)
    return frozenset(_bits(v0)), frozenset(_bits(half)), frozenset(_bits(v1))


def nt_kernel(g: Graph, k: int) -> KernelInstance:
    """Crown-style kernel from the half-integral split.

    The V1 vertices are forced into the cover, V0 is discarded, and the
    half-valued vertices survive.  Each of them has a half-valued
    neighbour: one with only V1 neighbours could drop to 0 and leave a
    cheaper LP solution.  A run that is already decided negative (budget
    overdrawn, or more than 2*budget half-valued vertices) returns a single
    edge with budget 0 and `decided_no` set.
    """
    if k < 0:
        raise ValueError(f"budget must be non-negative, got {k}")
    v1, half = _lp_split(g.adj_masks)
    budget = k - v1.bit_count()
    if half.bit_count() > 2 * budget:
        return KernelInstance(Graph(2, [(0, 1)]), 0, frozenset(), {}, True)
    sub, origin = induced_subgraph(g, _bits(half))
    return KernelInstance(sub, budget, frozenset(_bits(v1)), dict(enumerate(origin)), False)


# ---------------------------------------------------------------------------
# exact solver

def _path_cycle_cover(adj: Sequence[int], comp: int) -> int:
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


def _lp_exceeds(adj: Sequence[int], comp: int, mate: dict, free: int, cap: int) -> bool:
    """True iff the half-integral LP value of the component mask comp exceeds cap.

    That value is half the size of a maximum matching of comp's double cover
    (see `_augment`).  `mate` is a matching of it whose unmatched left
    vertices are the mask `free`; it is augmented from each of them in turn
    until it passes 2*cap or the vertices still untried cannot get it there.
    """
    need = 2 * cap + 1 - len(mate)
    untried = free.bit_count()
    for u in _bits(free):
        if need <= 0 or untried < need:
            break
        if _augment(adj, comp, mate, u):
            need -= 1
        untried -= 1
    return need <= 0


def _vc_component(adj: Sequence[int], comp: int, best_cap: int) -> int | None:
    """Minimum cover of the component mask comp, or None if it must exceed best_cap.

    One ascending pass over comp finds the smallest vertex of maximum degree
    and a greedy maximal matching (each unmatched vertex takes its lowest
    unmatched neighbour).  Each matched edge uw gives the double cover the
    edges u-w' and w-u', which seed `_lp_exceeds`.  Components of max degree
    <= 2 are solved in closed form; any other whose LP value exceeds
    best_cap is cut before branching.
    """
    maxdeg = v = 0
    taken = 0  # matched vertices
    mate: dict[int, int] = {}
    todo = comp
    while todo:
        low = todo & -todo
        todo ^= low
        u = low.bit_length() - 1
        nbrs = adj[u] & comp
        deg = nbrs.bit_count()
        if deg > maxdeg:
            maxdeg, v = deg, u
        if not taken & low and (free := nbrs & ~taken):
            w = (free & -free).bit_length() - 1
            taken |= low | (1 << w)
            mate[u] = w
            mate[w] = u
    if maxdeg == 0:
        return 0
    if maxdeg <= 2:
        sol = _path_cycle_cover(adj, comp)
        return sol if sol.bit_count() <= best_cap else None
    if _lp_exceeds(adj, comp, mate, comp & ~taken, best_cap):
        return None
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


def _vc_split(adj: Sequence[int], alive: int, cap: int) -> int | None:
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
    Before branching on a component, its LP lower bound is compared with
    the cover size still allowed, and the component is cut when the bound
    exceeds it.  A lower bound cuts only branches that could not return a
    cover within their cap, so the cover returned, ties included, is the
    one the branching finds without the cut.

    The branching runs inside the components of the half-valued subgraph,
    and every component it meets deeper down is a subset of one of them.
    So the size guard is on those components, not on g: one with more than
    VC_MAX_VERTICES vertices and a vertex of degree above 2 in it raises
    SizeLimitError, and any larger graph whose components pass is solved.
    """
    cover = frozenset(_bits(_min_cover(g.adj_masks)))
    return VcSolution(value=len(cover), cover=cover)


def _min_cover(adj: Sequence[int]) -> int:
    """`vc_exact`'s cover of the graph with these rows, as a vertex mask."""
    v1, half = _lp_split(adj)
    if len(adj) > VC_MAX_VERTICES:
        for comp in components(adj, half):
            if comp.bit_count() > VC_MAX_VERTICES and any(
                    (adj[v] & comp).bit_count() > 2 for v in _bits(comp)):
                raise SizeLimitError(
                    f"vc_exact branches on components of up to {VC_MAX_VERTICES} "
                    f"vertices, got one of {comp.bit_count()} in a graph on {len(adj)}")
    sol = _vc_split(adj, half, half.bit_count())
    assert sol is not None
    return v1 | sol


def _at_most(adj: Sequence[int], k: int) -> bool:
    """True iff the graph with these rows has a vertex cover of size at most
    k, which must be >= 0: one branching call with cap k, with the LP cut at
    every component.  Above VC_MAX_VERTICES vertices the call runs on Vhalf
    with cap k - |V1|, which is `nt_kernel`'s kernel in the original labels,
    so it has at most 2k vertices; there is no size limit."""
    if k < 0:
        raise ValueError(f"budget must be non-negative, got {k}")
    if len(adj) <= VC_MAX_VERTICES:
        return _vc_split(adj, (1 << len(adj)) - 1, k) is not None
    v1, half = _lp_split(adj)
    cap = k - v1.bit_count()
    return half.bit_count() <= 2 * cap and _vc_split(adj, half, cap) is not None


def vc_decision(g: Graph, k: int) -> bool:
    """True iff g has a vertex cover of size at most k."""
    return _at_most(g.adj_masks, k)
