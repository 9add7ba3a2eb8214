"""Immutable simple graphs on dense integer vertex labels, plus the basic
structure queries the rest of the package is built on.

Vertices of a Graph with n vertices are exactly 0..n-1.  Derived graphs
(vertex deletion, induced subgraphs) relabel densely; the relabelling
conventions are documented on each operation so callers can translate
witnesses back.
"""

from __future__ import annotations

import sys
from typing import Iterable, Iterator, Sequence

from .errors import NotPresentError

Edge = tuple[int, int]
# An EdgeSet is a frozenset of (u, v) pairs with u < v, all edges of one host graph.
EdgeSet = frozenset


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _row_size(n: int) -> int:
    """Bytes per matrix row: ceil(n/8), at least 1."""
    return max(1, (n + 7) >> 3)


def _pack(rows: Sequence[int]) -> bytes:
    """Adjacency rows as one packed matrix in native byte order, trailing
    all-zero rows dropped (so a graph without edges costs nothing)."""
    size = _row_size(len(rows))
    last = len(rows)
    while last and not rows[last - 1]:
        last -= 1
    return b"".join([row.to_bytes(size, sys.byteorder) for row in rows[:last]])


class Graph:
    """An immutable simple undirected graph.

    A graph holds only n and its adjacency matrix packed into one bytes
    object, ceil(n/8) bytes a row (`_row_size`), bit w of row v set iff vw
    is an edge: at most 512 bytes at 64 vertices, so a caller can
    keep many graphs.  It caches nothing: `adj_masks` and `edges` are
    built from the matrix on each access, while `neighbors`, `degree` and
    `has_edge` read a single row.
    """

    __slots__ = ("n", "_matrix")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise NotPresentError(f"edge ({u}, {v}) leaves vertex range 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self._matrix = _pack(rows)

    @classmethod
    def _from_rows(cls, rows: Sequence[int]) -> Graph:
        """The graph whose adjacency masks are `rows`, which must be
        symmetric and loop-free; unchecked."""
        g = cls.__new__(cls)
        g.n = len(rows)
        g._matrix = _pack(rows)
        return g

    @property
    def m(self) -> int:
        return int.from_bytes(self._matrix, sys.byteorder).bit_count() // 2

    @property
    def vertices(self) -> range:
        return range(self.n)

    @property
    def adj_masks(self) -> tuple[int, ...]:
        size = _row_size(self.n)
        matrix = self._matrix
        rows = tuple([int.from_bytes(matrix[i:i + size], sys.byteorder)
                      for i in range(0, len(matrix), size)])
        return rows + (0,) * (self.n - len(rows))

    @property
    def edges(self) -> EdgeSet:
        return frozenset(_edge_list(self.adj_masks))

    def _row(self, v: int) -> int:
        """Row v of the matrix, which must be a vertex."""
        size = _row_size(self.n)
        return int.from_bytes(self._matrix[v * size:(v + 1) * size], sys.byteorder)

    def neighbors(self, v: int) -> frozenset:
        self._check_vertex(v)
        return frozenset(_bits(self._row(v)))

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._row(v).bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and self._row(u) >> v & 1 == 1

    def _check_vertex(self, v: int):
        if not (0 <= v < self.n):
            raise NotPresentError(f"vertex {v} not in graph on {self.n} vertices")

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._matrix == other._matrix

    def __hash__(self) -> int:
        return hash((self.n, self._matrix))

    def __repr__(self) -> str:
        es = _edge_list(self.adj_masks)
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


def disjoint_union(*graphs: Graph) -> Graph:
    rows: list[int] = []
    for g in graphs:
        n = len(rows)
        rows.extend(row << n for row in g.adj_masks)
    return Graph._from_rows(rows)


def with_new_vertex(g: Graph, neighbors: Iterable[int]) -> Graph:
    """Append vertex g.n adjacent to `neighbors`."""
    rows = list(g.adj_masks)
    new = 0
    for v in neighbors:
        g._check_vertex(v)
        rows[v] |= 1 << g.n
        new |= 1 << v
    return Graph._from_rows(rows + [new])


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Dense-relabelled induced subgraph plus the origin map.

    Returns (h, origin) where origin[i] is the g-vertex that h-vertex i came
    from; origin is sorted ascending, so relabelling is order preserving.
    """
    keep = sorted(set(vertices))
    for v in keep:
        g._check_vertex(v)
    adj = g.adj_masks
    kept = sum(1 << v for v in keep)
    rank = {v: i for i, v in enumerate(keep)}
    rows = [sum(1 << rank[w] for w in _bits(adj[v] & kept)) for v in keep]
    return Graph._from_rows(rows), tuple(keep)


def _relabel(adj: Sequence[int], perm: Sequence[int]) -> Graph:
    """The graph with adjacency rows `adj`, each vertex v renamed perm[v];
    perm is a permutation."""
    rows = [0] * len(adj)
    for v, row in enumerate(adj):
        image = 0
        while row:
            low = row & -row
            image |= 1 << perm[low.bit_length() - 1]
            row ^= low
        rows[perm[v]] = image
    return Graph._from_rows(rows)


# ---------------------------------------------------------------------------
# structure queries

def _bits(mask: int) -> Iterator[int]:
    """The vertices of a vertex mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _edge_list(adj_masks: Sequence[int]) -> list[Edge]:
    """The edges (u, v), u < v, of the graph with these adjacency rows, in
    sorted order."""
    return [(u, v) for u, row in enumerate(adj_masks) for v in _bits(row >> u + 1 << u + 1)]


def _neighbours(adj: Sequence[int], mask: int) -> int:
    """The vertices outside the vertex mask `mask` with a neighbour in it:
    the union of its rows, less `mask`."""
    out = 0
    rest = mask
    while rest:
        low = rest & -rest
        out |= adj[low.bit_length() - 1]
        rest ^= low
    return out & ~mask


def components(adj_masks: tuple[int, ...], alive: int) -> list[int]:
    """Components of the subgraph that the vertex mask `alive` induces, as
    vertex masks ordered by lowest vertex.  Each grows breadth-first, one
    whole frontier per step."""
    comps = []
    while alive:
        comp = frontier = alive & -alive
        while frontier:
            frontier = _neighbours(adj_masks, frontier) & alive & ~comp
            comp |= frontier
        comps.append(comp)
        alive &= ~comp
    return comps


def _two_core(adj_masks: Sequence[int], alive: int) -> int:
    """The 2-core of the subgraph that the vertex mask `alive` induces, as a
    vertex mask: vertices of degree below 2 are peeled until none is left.
    Every cycle lies inside it."""
    core = alive
    low = [v for v in _bits(alive) if (adj_masks[v] & alive).bit_count() < 2]
    while low:
        v = low.pop()
        if not core >> v & 1:
            continue  # queued twice, peeled once
        core ^= 1 << v
        for w in _bits(adj_masks[v] & core):
            if (adj_masks[w] & core).bit_count() < 2:
                low.append(w)
    return core


def connected_components(g: Graph) -> list[frozenset]:
    """Components as vertex sets, ordered by smallest member."""
    return [frozenset(_bits(c)) for c in components(g.adj_masks, (1 << g.n) - 1)]


def is_connected(g: Graph) -> bool:
    return len(components(g.adj_masks, (1 << g.n) - 1)) <= 1


def is_forest(g: Graph) -> bool:
    # acyclic iff m = n - #components, for simple graphs
    return g.m == g.n - len(components(g.adj_masks, (1 << g.n) - 1))


def _low_link(adj: Sequence[int]) -> tuple[EdgeSet, frozenset]:
    """Bridges and cut vertices from one low-link DFS pass per component
    (Hopcroft and Tarjan, 1973).

    A tree edge p-u is a bridge iff low[u] > disc[p]; a non-root p is a cut
    vertex iff some child u has low[u] >= disc[p], a root iff it has two or
    more children.
    """
    n = len(adj)
    disc = [-1] * n
    low = [0] * n
    rest = list(adj)  # the neighbours each vertex has still to look at
    bridge_set: set = set()
    cut: set = set()
    counter = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        # iterative DFS, lowest neighbour first; a vertex's frame is its
        # entry in rest, walked one lowest bit at a time
        disc[root] = low[root] = counter
        counter += 1
        root_children = 0
        stack = [root]
        while stack:
            u = stack[-1]
            todo = rest[u]
            while todo:
                bit = todo & -todo
                todo ^= bit
                w = bit.bit_length() - 1
                if disc[w] == -1:
                    rest[u] = todo
                    # simple graph: the one parent edge, never walked back
                    rest[w] ^= 1 << u
                    disc[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    break
                if disc[w] < low[u]:
                    low[u] = disc[w]
            else:
                stack.pop()
                if stack:
                    p = stack[-1]
                    if low[u] < low[p]:
                        low[p] = low[u]
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
    return _low_link(g.adj_masks)[0]


def _core(rows: Sequence[int]) -> list[int]:
    """The rows with every bridge deleted."""
    core = list(rows)
    for u, v in _low_link(rows)[0]:
        core[u] ^= 1 << v
        core[v] ^= 1 << u
    return core


def remove_bridges(g: Graph) -> Graph:
    """The bridgeless core: same vertex set, bridges deleted."""
    return Graph._from_rows(_core(g.adj_masks))


def cut_vertices(g: Graph) -> frozenset:
    """Vertices whose removal increases the component count.

    Read off the same low-link pass as `bridges`, which walks the
    `adj_masks` bitmask rows: a non-root is a cut vertex when some DFS child
    cannot reach above it, the DFS root when it has two or more children.
    """
    return _low_link(g.adj_masks)[1]


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
    low = (1 << v) - 1
    rows = [row & low | row >> v + 1 << v for u, row in enumerate(g.adj_masks) if u != v]
    return Graph._from_rows(rows)


def delete_edge(g: Graph, e: Edge) -> Graph:
    u, v = e
    rows = list(g.adj_masks)
    if not (0 <= u < g.n and 0 <= v < g.n and rows[u] >> v & 1):
        raise NotPresentError(f"edge {e} not in graph")
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return Graph._from_rows(rows)

