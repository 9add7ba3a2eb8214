"""Family generators, minor detectors, and the witness-or-identification-set
dichotomy.

Families: cycles C_n; disjoint triangles m*K3 ("triangles"); marguerites,
m triangles sharing one hub vertex; and the antichain graphs H_k, a cycle on
3k vertices with three apex vertices hitting every third cycle vertex.

The dichotomy either exhibits one of the three families as a minor at
parameter k (with an explicit branch-set model) or, when all three detectors
come up short, builds an identification set from an exact feedback vertex
set plus the skeleton connecting it, padded to a cover of the bridgeless
core so the result is unconditionally valid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import SizeLimitError
from .graph import (Graph, _bits, components, cycle_graph, disjoint_union,
                    induced_subgraph, remove_bridges)
from .identify import VertexPartition
from .oracle import MinorModel, brute_minor
from .solver import partition_from_cover
from .vc import vc_exact

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
        if len(path) + bin(avail).count("1") <= len(best):
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


def _shortest_cycle(adj: tuple[int, ...], edges: list[tuple[int, int]], alive: int) -> list[int]:
    """A shortest cycle of the subgraph that `alive` induces in the graph
    with adjacency masks `adj` and sorted edge list `edges` (vertices
    listed in order), or []."""
    best: list[int] = []
    for u, v in edges:
        if not ((alive >> u) & 1 and (alive >> v) & 1):
            continue
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
            cycle = path[::-1]
            if not best or len(cycle) < len(best):
                best = cycle
                if len(best) == 3:
                    break
    return best


def cycle_packing(g: Graph) -> list[list[int]]:
    """A maximum collection of vertex-disjoint cycles, each as a vertex list.

    Exact: a shortest cycle must be hit by any maximum packing, so branch on
    excluding a fixed vertex of it versus using each chordless cycle through
    that vertex.
    """
    _check_cycle_scale(g, "cycle_packing")
    adj = g.adj_masks
    edges = sorted(g.edges)
    memo: dict[int, list[list[int]]] = {}

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

    def solve(alive: int) -> list[list[int]]:
        if alive in memo:
            return memo[alive]
        sc = _shortest_cycle(adj, edges, alive)
        if not sc:
            memo[alive] = []
            return []
        v = min(sc)
        best = solve(alive & ~(1 << v))
        for cyc in chordless_through(v, alive):
            cmask = 0
            for x in cyc:
                cmask |= 1 << x
            cand = [cyc] + solve(alive & ~cmask)
            if len(cand) > len(best):
                best = cand
        memo[alive] = best
        return best

    return solve((1 << g.n) - 1)


def max_cycle_packing(g: Graph) -> int:
    """Maximum number of vertex-disjoint cycles.  Equals the largest m with
    m disjoint triangles as a minor."""
    return len(cycle_packing(g))


def max_marguerite(g: Graph) -> int:
    """Largest m such that the m-petal marguerite is a minor of g, found by
    growing m until the branch-set search fails (marguerites are minors of
    their successors, so the first failure is final)."""
    if g.n > MARGUERITE_SEARCH_MAX:
        raise SizeLimitError(
            f"max_marguerite supports up to {MARGUERITE_SEARCH_MAX} vertices, got {g.n}")
    m = 0
    while brute_minor(gen_marguerite(m + 1), g) is not None:
        m += 1
    return m


# ---------------------------------------------------------------------------
# dichotomy

@dataclass(frozen=True)
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


def _cycle_model(cycle: list[int], k: int) -> MinorModel:
    """Model of C_k on a host cycle of length >= k: k-1 singleton arcs plus
    one long arc absorbing the slack."""
    sets = {i: frozenset([cycle[i]]) for i in range(k - 1)}
    sets[k - 1] = frozenset(cycle[k - 1:])
    return MinorModel(pattern=gen_cycle(k), branch_sets=sets)


def _triangles_model(cycles: list[list[int]], k: int) -> MinorModel:
    """Model of k disjoint triangles on k disjoint host cycles: each cycle is
    split into three consecutive arcs."""
    sets = {}
    for i, cyc in enumerate(cycles[:k]):
        sets[3 * i] = frozenset([cyc[0]])
        sets[3 * i + 1] = frozenset([cyc[1]])
        sets[3 * i + 2] = frozenset(cyc[2:])
    return MinorModel(pattern=gen_triangles(k), branch_sets=sets)


def exact_fvs(g: Graph) -> frozenset:
    """A minimum feedback vertex set, by branching on shortest cycles."""
    _check_cycle_scale(g, "exact_fvs")
    adj = g.adj_masks
    edges = sorted(g.edges)
    memo: dict[int, frozenset] = {}

    def solve(alive: int) -> frozenset:
        if alive in memo:
            return memo[alive]
        sc = _shortest_cycle(adj, edges, alive)
        if not sc:
            memo[alive] = frozenset()
            return memo[alive]
        best: frozenset | None = None
        for v in sorted(sc):
            cand = solve(alive & ~(1 << v)) | {v}
            if best is None or len(cand) < len(best):
                best = cand
        memo[alive] = best
        return best

    return solve((1 << g.n) - 1)


def _trimmed_tree(g: Graph, tree: frozenset, forest_adj: dict, contacts: frozenset) -> frozenset:
    """Iteratively drop leaves of the tree that are not contact vertices."""
    deg = {v: len(forest_adj[v] & tree) for v in tree}
    kept = set(tree)
    changed = True
    while changed:
        changed = False
        for v in sorted(kept):
            if deg[v] <= 1 and v not in contacts:
                kept.discard(v)
                for w in forest_adj[v]:
                    if w in kept:
                        deg[w] -= 1
                deg[v] = 0
                changed = True
    return frozenset(kept)


def dichotomy(g: Graph, k: int) -> DichotomyOutcome:
    """Find one of the three families at parameter k as a minor, or build a
    valid identification set.

    Detector order: disjoint cycles first, then a single long cycle (only
    meaningful for k >= 3), then the marguerite search.  The fallback takes
    an exact feedback vertex set X, keeps the parts of the leftover forest
    that carry connections (trimmed trees toward each component of g[X],
    plus inter-tree edges), forces all of that into a cover of the
    bridgeless core, and emits the cover split per core component.
    """
    if k < 1:
        raise ValueError(f"parameter must be >= 1, got {k}")
    packing = cycle_packing(g)
    if len(packing) >= k:
        return DichotomyOutcome("triangles", k, _triangles_model(packing, k), None)
    if k >= 3:
        cyc = longest_cycle(g)
        if len(cyc) >= k:
            return DichotomyOutcome("cycle", k, _cycle_model(cyc, k), None)
    if g.n <= MARGUERITE_SEARCH_MAX:
        model = brute_minor(gen_marguerite(k), g)
        if model is not None:
            return DichotomyOutcome("marguerite", k, model, None)

    x = exact_fvs(g)
    xmask = sum(1 << v for v in x)
    forest_verts = [v for v in range(g.n) if v not in x]
    forest_adj = {v: frozenset(w for w in g.adj[v] if w not in x) for v in forest_verts}
    trees = [frozenset(_bits(t))
             for t in components(g.adj_masks, ((1 << g.n) - 1) & ~xmask)]

    kept_edges: set = set()
    internal: set = set()
    for comp in components(g.adj_masks, xmask):
        cx = frozenset(_bits(comp))
        contacts = frozenset(w for v in cx for w in g.adj[v] if w not in x)
        for tree in trees:
            if not (tree & contacts):
                continue
            kept = _trimmed_tree(g, tree, forest_adj, contacts & tree)
            for v in kept:
                for w in forest_adj[v]:
                    if w in kept and v < w:
                        kept_edges.add((v, w))
            deg = {v: len(forest_adj[v] & kept) for v in kept}
            internal |= {v for v in kept if deg[v] >= 2}
    extra_endpoints: set = set()
    for v in forest_verts:
        for w in forest_adj[v]:
            if v < w and (v, w) not in kept_edges:
                extra_endpoints |= {v, w}
    v_prime = set(x) | extra_endpoints | internal

    core = remove_bridges(g)
    uncovered = [(u, w) for u, w in core.edges if u not in v_prime and w not in v_prime]
    if uncovered:
        support = sorted({v for e in uncovered for v in e})
        sub, origin = induced_subgraph(Graph(g.n, uncovered), support)
        fill = vc_exact(sub).cover
        v_prime |= {origin[v] for v in fill}
    id_set = partition_from_cover(g, v_prime)
    return DichotomyOutcome(None, None, None, id_set)
