"""Immutable simple graphs on dense integer vertex labels, plus the basic
structure queries the rest of the package is built on.

Vertices of a Graph with n vertices are exactly 0..n-1.  Derived graphs
(vertex deletion, contraction, induced subgraphs) relabel densely; the
relabelling conventions are documented on each operation so callers can
translate witnesses back.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator

from .errors import NotPresentError

Edge = tuple[int, int]
# An EdgeSet is a frozenset of (u, v) pairs with u < v, all edges of one host graph.
EdgeSet = frozenset


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """An immutable simple undirected graph."""

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        es = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise NotPresentError(f"edge ({u}, {v}) leaves vertex range 0..{n - 1}")
            es.add(_norm_edge(u, v))
        self.n = n
        self.edges = frozenset(es)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def vertices(self) -> range:
        return range(self.n)

    @cached_property
    def adj(self) -> tuple[frozenset, ...]:
        nbrs = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def neighbors(self, v: int) -> frozenset:
        self._check_vertex(v)
        return self.adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def _check_vertex(self, v: int):
        if not (0 <= v < self.n):
            raise NotPresentError(f"vertex {v} not in graph on {self.n} vertices")

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        es = sorted(self.edges)
        shown = ", ".join(map(str, es[:8])) + (", ..." if len(es) > 8 else "")
        return f"Graph({self.n}, [{shown}])"


# ---------------------------------------------------------------------------
# constructors

def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"a cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def disjoint_union(*graphs: Graph) -> Graph:
    n = 0
    edges = []
    for g in graphs:
        edges.extend((u + n, v + n) for u, v in g.edges)
        n += g.n
    return Graph(n, edges)


def with_new_vertex(g: Graph, neighbors: Iterable[int]) -> Graph:
    """Append vertex g.n adjacent to `neighbors`."""
    nbrs = list(neighbors)
    for v in nbrs:
        g._check_vertex(v)
    return Graph(g.n + 1, list(g.edges) + [(v, g.n) for v in nbrs])


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Dense-relabelled induced subgraph plus the origin map.

    Returns (h, origin) where origin[i] is the g-vertex that h-vertex i came
    from; origin is sorted ascending, so relabelling is order preserving.
    """
    keep = sorted(set(vertices))
    for v in keep:
        g._check_vertex(v)
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    return Graph(len(keep), edges), tuple(keep)


# ---------------------------------------------------------------------------
# structure queries

def _bits(mask: int) -> Iterator[int]:
    """The vertices of a vertex mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def components(adj_masks: tuple[int, ...], alive: int) -> list[int]:
    """Components of the subgraph that the vertex mask `alive` induces, as
    vertex masks ordered by lowest vertex.  Each grows breadth-first, one
    whole frontier per step."""
    comps = []
    while alive:
        comp = frontier = alive & -alive
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= adj_masks[v]
            frontier = reach & alive & ~comp
            comp |= frontier
        comps.append(comp)
        alive &= ~comp
    return comps


def connected_components(g: Graph) -> list[frozenset]:
    """Components as vertex sets, ordered by smallest member."""
    return [frozenset(_bits(c)) for c in components(g.adj_masks, (1 << g.n) - 1)]


def is_connected(g: Graph) -> bool:
    return len(components(g.adj_masks, (1 << g.n) - 1)) <= 1


def is_forest(g: Graph) -> bool:
    # acyclic iff m = n - #components, for simple graphs
    return g.m == g.n - len(components(g.adj_masks, (1 << g.n) - 1))


def _low_link(g: Graph) -> tuple[EdgeSet, frozenset]:
    """Bridges and cut vertices from one low-link DFS pass per component
    (Hopcroft and Tarjan, 1973).

    A tree edge p-u is a bridge iff low[u] > disc[p]; a non-root p is a cut
    vertex iff some child u has low[u] >= disc[p], a root iff it has two or
    more children.
    """
    disc = [-1] * g.n
    low = [0] * g.n
    bridge_set: set = set()
    cut: set = set()
    counter = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        # iterative DFS; stack entries are (vertex, parent, neighbor iterator)
        disc[root] = low[root] = counter
        counter += 1
        root_children = 0
        stack: list[tuple[int, int, Iterator[int]]] = [(root, -1, _bits(g.adj_masks[root]))]
        while stack:
            u, parent, it = stack[-1]
            for w in it:
                if w == parent:
                    continue  # simple graph: the one parent edge, met once
                if disc[w] == -1:
                    disc[w] = low[w] = counter
                    counter += 1
                    stack.append((w, u, _bits(g.adj_masks[w])))
                    break
                low[u] = min(low[u], disc[w])
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if low[u] > disc[p]:
                        bridge_set.add(_norm_edge(p, u))
                    if p == root:
                        root_children += 1
                    elif low[u] >= disc[p]:
                        cut.add(p)
        if root_children >= 2:
            cut.add(root)
    return frozenset(bridge_set), frozenset(cut)


def bridges(g: Graph) -> EdgeSet:
    """All bridges, read off the shared low-link pass."""
    return _low_link(g)[0]


def remove_bridges(g: Graph) -> Graph:
    """The bridgeless core: same vertex set, bridges deleted."""
    b = bridges(g)
    return Graph(g.n, g.edges - b)


def cut_vertices(g: Graph) -> frozenset:
    """Vertices whose removal increases the component count.

    Read off the same low-link pass as `bridges`, which walks the
    `adj_masks` bitmask rows: a non-root is a cut vertex when some DFS child
    cannot reach above it, the DFS root when it has two or more children.
    """
    return _low_link(g)[1]


def is_2_connected(g: Graph) -> bool:
    """Connected with no cut vertex; K2 counts as 2-connected, K1 does not."""
    if g.n < 2:
        return False
    if g.n == 2:
        return g.m == 1
    return is_connected(g) and not cut_vertices(g)


# ---------------------------------------------------------------------------
# minor operations

def delete_vertex(g: Graph, v: int) -> Graph:
    """Delete v; vertices above v shift down by one (order preserving)."""
    g._check_vertex(v)

    def remap(x: int) -> int:
        return x if x < v else x - 1

    return Graph(g.n - 1, [(remap(u), remap(w)) for u, w in g.edges if v not in (u, w)])


def delete_edge(g: Graph, e: Edge) -> Graph:
    ne = _norm_edge(*e)
    if ne not in g.edges:
        raise NotPresentError(f"edge {e} not in graph")
    return Graph(g.n, g.edges - {ne})


def contract_edge(g: Graph, e: Edge) -> Graph:
    """Contract edge e: both ends vanish, a new last vertex inherits their
    neighborhoods (parallel edges merged, loops dropped).

    Labels: untouched vertices keep their relative order at 0..n-3, the heir
    is n-2.  This matches the labelling of identification of the 2-block {u,v}.
    """
    u, v = _norm_edge(*e)
    if (u, v) not in g.edges:
        raise NotPresentError(f"edge {e} not in graph")
    rest = [x for x in range(g.n) if x not in (u, v)]
    index = {x: i for i, x in enumerate(rest)}
    heir = len(rest)
    edges = set()
    for a, b in g.edges:
        na = index.get(a, heir)
        nb = index.get(b, heir)
        if na != nb:
            edges.add(_norm_edge(na, nb))
    return Graph(g.n - 1, edges)
