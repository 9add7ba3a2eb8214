"""Family generators, minor detectors, and the witness-or-identification-set
dichotomy.

Families: cycles C_n; disjoint triangles m*K3 ("triangles"); marguerites,
m triangles sharing one hub vertex; and the antichain graphs H_k, a cycle on
3k vertices with three apex vertices hitting every third cycle vertex.

The marguerite search places branch sets in the order of
`oracle.brute_minor`, its slow twin, and returns the same model.  It skips
every hub, and every partial model, whose leftover graph cannot hold the
petals still needed: a packing test for paths between the hub's contacts
(T. Gallai's T-paths, 1964).

The dichotomy either exhibits one of the three families as a minor at
parameter k (with an explicit branch-set model) or, when all three detectors
come up short, returns an identification set of minimum order: a minimum
vertex cover of the bridgeless core, split per core component.  It reads
only adjacency rows, and a witness packs its branch sets into one int.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from typing import Iterable

from .errors import SizeLimitError
from .graph import (Graph, _bits, _neighbours, _two_core, components, cycle_graph,
                    disjoint_union)
from .identify import VertexPartition
from .oracle import MinorModel, _connected_subsets
from .solver import idf_exact

CYCLE_SEARCH_MAX = 16
MARGUERITE_SEARCH_MAX = 12

gen_cycle = cycle_graph


def gen_triangles(m: int) -> Graph:
    """m disjoint triangles; triangle i occupies vertices 3i, 3i+1, 3i+2."""
    if m < 1:
        raise ValueError(f"need at least one triangle, got {m}")
    return disjoint_union(*[cycle_graph(3) for _ in range(m)])


def gen_marguerite(m: int) -> Graph:
    """m triangles glued at a single hub: vertex 0 is the hub of degree 2m,
    petal i is the pair (2i+1, 2i+2)."""
    if m < 1:
        raise ValueError(f"need at least one petal, got {m}")
    edges = []
    for i in range(m):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [(0, a), (0, b), (a, b)]
    return Graph(2 * m + 1, edges)


def gen_antichain_h(k: int) -> Graph:
    """Cycle on 3k vertices plus three apexes a_i (labels 3k, 3k+1, 3k+2),
    a_i adjacent to the cycle vertices at positions congruent to i mod 3
    (1-indexed along the cycle), so each apex has degree k."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    edges = [(i, (i + 1) % (3 * k)) for i in range(3 * k)]
    for i in (1, 2, 3):
        apex = 3 * k + i - 1
        for j in range(1, 3 * k + 1):
            if j % 3 == i % 3:
                edges.append((apex, j - 1))
    return Graph(3 * k + 3, edges)


# The family graphs a witness can name.  The size guards bound k, so every
# model shares one of these instead of keeping a copy of its pattern: a
# caller that keeps many outcomes would otherwise pay about 110 bytes each.
_PATTERNS = {
    "cycle": {k: gen_cycle(k) for k in range(3, CYCLE_SEARCH_MAX + 1)},
    "triangles": {k: gen_triangles(k) for k in range(1, CYCLE_SEARCH_MAX // 3 + 1)},
    "marguerite": {k: gen_marguerite(k) for k in range(1, (MARGUERITE_SEARCH_MAX + 1) // 2)},
}


# ---------------------------------------------------------------------------
# detectors

def _check_cycle_scale(g: Graph, what: str):
    if g.n > CYCLE_SEARCH_MAX:
        raise SizeLimitError(f"{what} supports up to {CYCLE_SEARCH_MAX} vertices, got {g.n}")


def longest_cycle(g: Graph) -> list[int]:
    """Vertices of a longest cycle in order; empty list for forests."""
    _check_cycle_scale(g, "longest_cycle")
    best: list[int] = []
    adj = g.adj_masks
    full = (1 << g.n) - 1

    def extend(start: int, path: list[int], visited: int, allowed: int):
        nonlocal best
        u = path[-1]
        avail = allowed & ~visited
        if len(path) + avail.bit_count() <= len(best):
            return
        nbrs = adj[u] & allowed
        if len(path) >= 3 and (adj[u] >> start) & 1 and len(path) > len(best):
            best = path[:]
        m = nbrs & ~visited
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            extend(start, path + [w], visited | (1 << w), allowed)

    for s in range(g.n):
        if len(best) == g.n:
            break
        allowed = full & ~((1 << s) - 1)  # cycles whose minimum vertex is s
        extend(s, [s], 1 << s, allowed)
    return best


def circumference(g: Graph) -> int:
    """Length of a longest cycle; 0 when g is a forest.  For k >= 3 the cycle
    C_k is a minor of g exactly when this is >= k."""
    return len(longest_cycle(g))


def _shortest_cycle(adj: tuple[int, ...], alive: int) -> list[int]:
    """A shortest cycle of the subgraph that `alive` induces in the graph
    with adjacency masks `adj` (vertices listed in order), or [].  The
    edges (u, v), u < v, are tried in sorted order, and the first triangle
    ends the walk."""
    best: list[int] = []
    for u in _bits(alive):
        for v in _bits(adj[u] & alive >> u + 1 << u + 1):
            # BFS u -> v avoiding the edge uv
            prev = {u: None}
            queue = [u]
            found = False
            while queue and not found:
                nxt = []
                for x in queue:
                    m = adj[x] & alive
                    while m:
                        w = (m & -m).bit_length() - 1
                        m &= m - 1
                        if x == u and w == v:
                            continue
                        if w not in prev:
                            prev[w] = x
                            if w == v:
                                found = True
                                break
                            nxt.append(w)
                    if found:
                        break
                queue = nxt
            if found:
                path = [v]
                while path[-1] != u:
                    path.append(prev[path[-1]])
                if not best or len(path) < len(best):
                    best = path[::-1]
                    if len(best) == 3:
                        return best
    return best


def cycle_packing(g: Graph) -> list[list[int]]:
    """A maximum collection of vertex-disjoint cycles, each as a vertex list.

    Exact: a shortest cycle must be hit by any maximum packing, so branch on
    excluding a fixed vertex of it versus using each chordless cycle through
    that vertex.
    """
    _check_cycle_scale(g, "cycle_packing")
    adj = g.adj_masks

    def chordless_through(v: int, alive: int) -> list[list[int]]:
        out: list[list[int]] = []

        def walk(path: list[int], pmask: int):
            u = path[-1]
            m = adj[u] & alive & ~pmask
            while m:
                w = (m & -m).bit_length() - 1
                wbit = 1 << w
                m &= m - 1
                inner = pmask & ~(1 << v) & ~(1 << u)
                if adj[w] & inner:
                    continue  # chord to the middle of the path
                if (adj[w] >> v) & 1:
                    if len(path) >= 2 and path[1] < w:
                        out.append(path + [w])
                    continue  # extending past w would leave a chord to v
                walk(path + [w], pmask | wbit)

        start = adj[v] & alive
        while start:
            a = (start & -start).bit_length() - 1
            start &= start - 1
            walk([v, a], (1 << v) | (1 << a))
        return out

    @cache  # dense graphs reach one alive mask by many routes
    def solve(alive: int) -> list[list[int]]:
        sc = _shortest_cycle(adj, alive)
        if not sc:
            return []
        v = min(sc)
        best = solve(alive & ~(1 << v))
        for cyc in chordless_through(v, alive):
            cand = [cyc] + solve(alive & ~_mask(cyc))
            if len(cand) > len(best):
                best = cand
        return best

    return solve((1 << g.n) - 1)


def max_cycle_packing(g: Graph) -> int:
    """Maximum number of vertex-disjoint cycles.  Equals the largest m with
    m disjoint triangles as a minor."""
    return len(cycle_packing(g))


def _petal_paths(adj: tuple[int, ...], alive: int, ends: int, need: int) -> bool:
    """True when the subgraph that `alive` induces holds `need` vertex-disjoint
    paths, each joining two distinct vertices of `ends` (a subset of alive).

    Paths with an end vertex inside can be cut short at it, and paths with
    a chord can be cut short along it, so only chordless paths through
    non-end vertices are tried (Gallai's T-paths).  Branch on the lowest end
    vertex s: it is either unused, and dropped, or the start of a path.
    """
    if need <= 0:
        return True
    if ends.bit_count() < 2 * need:
        return False
    s = ends & -ends
    found = _petal_paths(adj, alive ^ s, ends ^ s, need)
    stack = [(s.bit_length() - 1, s)]  # (last vertex, path mask)
    while stack and not found:
        u, path = stack.pop()
        earlier = path & ~(1 << u)
        for w in _bits(adj[u] & alive & ~path):
            if adj[w] & earlier:
                continue  # a chord
            wbit = 1 << w
            if not ends & wbit:
                stack.append((w, path | wbit))
            elif _petal_paths(adj, alive & ~(path | wbit), ends & ~(path | wbit), need - 1):
                found = True
                break
    return found


def marguerite_model(g: Graph, k: int) -> MinorModel | None:
    """A model of the k-petal marguerite in g, or None.  It is the model that
    its slow twin `brute_minor(gen_marguerite(k), g)` returns.

    Branch sets are placed as `brute_minor` places them: the hub first,
    then a1, b1, a2, b2, ..., each over `_connected_subsets` in the same
    order.  One cut is added.  Call a vertex outside the hub set H with a
    neighbour in H a contact.  H extends to a model iff G - H holds k
    vertex-disjoint paths, each joining two distinct contacts: a petal
    holds such a path, and such a path splits into a petal.  So a hub, or
    a model with i petals placed, is skipped when the vertices left cannot
    hold the k - i petals still needed.  The cut removes only branches
    without a completion, so the first model found is brute_minor's.
    """
    if g.n > MARGUERITE_SEARCH_MAX:
        raise SizeLimitError(
            f"marguerite_model supports up to {MARGUERITE_SEARCH_MAX} vertices, got {g.n}")
    if k < 1:
        raise ValueError(f"need at least one petal, got {k}")
    if 2 * k + 1 > g.n or 3 * k > g.m:
        return None
    h = _PATTERNS["marguerite"][k]
    adj = g.adj_masks
    full = (1 << g.n) - 1
    sets = [0] * h.n  # hub, then a_i, b_i as 2i - 1, 2i

    def place(p: int, used: int, contacts: int) -> bool:
        if p == h.n:
            return True
        free = full & ~used
        budget = free.bit_count() - (h.n - 1 - p)
        for bmask in _connected_subsets(adj, free, budget):
            nb = _neighbours(adj, bmask)
            rest = free & ~bmask
            if p == 0:
                if not _petal_paths(adj, rest, nb, k):
                    continue
                contacts = nb
            elif p % 2:  # a_i: touches the hub and leaves room for b_i
                if not (nb & sets[0] and nb & rest):
                    continue
            elif not (nb & sets[0] and nb & sets[p - 1]
                      and _petal_paths(adj, rest, contacts & rest, k - p // 2)):
                continue
            sets[p] = bmask
            if place(p + 1, used | bmask, contacts):
                return True
        return False

    if not place(0, 0, 0):
        return None
    return MinorModel._from_masks(h, sets, g.n)


def max_marguerite(g: Graph) -> int:
    """Largest m such that the m-petal marguerite is a minor of g, found by
    growing m until the model search fails (marguerites are minors of
    their successors, so the first failure is final).  Guarded as
    `marguerite_model` is."""
    m = 0
    while marguerite_model(g, m + 1) is not None:
        m += 1
    return m


# ---------------------------------------------------------------------------
# dichotomy

@dataclass(frozen=True, slots=True)
class DichotomyOutcome:
    """Either a family witness (family, parameter, model) or an id_set."""

    family: str | None
    parameter: int | None
    model: MinorModel | None
    id_set: VertexPartition | None

    @property
    def is_witness(self) -> bool:
        return self.model is not None

    def as_json_dict(self) -> dict:
        if self.is_witness:
            return {"family": self.family, "k": self.parameter,
                    **self.model.as_json_dict()}
        return {"id_set": [sorted(b) for b in self.id_set.blocks]}

    def as_json(self) -> str:
        return json.dumps(self.as_json_dict(), sort_keys=True)


def _mask(vertices: Iterable[int]) -> int:
    return sum(1 << v for v in vertices)


def _cycle_model(cycle: list[int], k: int, n: int) -> MinorModel:
    """Model of C_k on a cycle of length >= k in a host on n vertices: k-1
    singleton arcs plus one long arc absorbing the slack."""
    masks = [1 << v for v in cycle[:k - 1]] + [_mask(cycle[k - 1:])]
    return MinorModel._from_masks(_PATTERNS["cycle"][k], masks, n)


def _triangles_model(cycles: list[list[int]], k: int, n: int) -> MinorModel:
    """Model of k disjoint triangles on k disjoint cycles of a host on n
    vertices: each cycle is split into three consecutive arcs."""
    masks = []
    for cyc in cycles[:k]:
        masks += [1 << cyc[0], 1 << cyc[1], _mask(cyc[2:])]
    return MinorModel._from_masks(_PATTERNS["triangles"][k], masks, n)


def exact_fvs(g: Graph) -> frozenset:
    """A minimum feedback vertex set, by branching on shortest cycles."""
    _check_cycle_scale(g, "exact_fvs")
    adj = g.adj_masks

    @cache  # one alive mask is reached by many deletion orders
    def solve(alive: int) -> frozenset:
        sc = _shortest_cycle(adj, alive)
        if not sc:
            return frozenset()
        # min keeps the first of the smallest, in sorted(sc) order
        return min((solve(alive & ~(1 << v)) | {v} for v in sorted(sc)), key=len)

    return solve((1 << g.n) - 1)


def dichotomy(g: Graph, k: int) -> DichotomyOutcome:
    """Find one of the three families at parameter k as a minor, or return an
    identification set of minimum order.

    Detector order: disjoint cycles first, then a single long cycle (only
    for k >= 3), then the marguerite search.  A detector that cannot reach
    k is skipped, by counting on the 2-core, which holds every cycle: k
    disjoint cycles need a cyclomatic number m - n + c of at least k and 3k
    vertices in the 2-core, and a cycle of length k needs k of them.  A
    skipped detector would have come up short, so the outcome is the same.

    The fallback is a minimum vertex cover of the bridgeless core split per
    core component, the partition `idf_exact` returns, so its order is
    exactly idf(g).  The paper's witness guarantee ("idf large enough
    forces a witness") holds from k = 3 on.  At k = 2 the long-cycle
    detector does not run, and the odd cycle C_{2t+1}, with idf t + 1,
    has neither two disjoint cycles nor a bowtie, so a k = 2 fallback
    carries no theorem-level meaning.
    """
    if k < 1:
        raise ValueError(f"parameter must be >= 1, got {k}")
    adj = g.adj_masks
    full = (1 << g.n) - 1
    core = _two_core(adj, full).bit_count()
    if core >= 3 * k and g.m - g.n + len(components(adj, full)) >= k:
        packing = cycle_packing(g)
        if len(packing) >= k:
            return DichotomyOutcome("triangles", k, _triangles_model(packing, k, g.n), None)
    if k >= 3 and core >= k:
        cyc = longest_cycle(g)
        if len(cyc) >= k:
            return DichotomyOutcome("cycle", k, _cycle_model(cyc, k, g.n), None)
    if g.n <= MARGUERITE_SEARCH_MAX:
        model = marguerite_model(g, k)
        if model is not None:
            return DichotomyOutcome("marguerite", k, model, None)
    return DichotomyOutcome(None, None, None, idf_exact(g).partition)
