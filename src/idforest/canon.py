"""Canonical forms for small graphs.

canonical_form gives equal byte strings exactly for isomorphic graphs.  The
algorithm is the usual individualization/refinement search: iterated
degree/neighborhood color refinement, branching on the first non-singleton
color class, and taking the lexicographically smallest adjacency encoding
over the leaves.  Refinement packs each vertex's signature (its color, then
its neighbor count in each cell) into one int, which orders exactly as the
tuple would.  Two prunings keep symmetric inputs tractable at n <= 12:
a best-prefix cut on the partial encoding, and skipping branch vertices that
are twins of an already-explored choice (the swap is an automorphism).  The
enumerator's augmentation reuses that twin test.
"""

from __future__ import annotations

from .errors import SizeLimitError
from .graph import Graph, _relabel
from .graphio import graph6_bytes

CANON_MAX_VERTICES = 12


def _refine(n: int, adj: tuple[int, ...], colors: list[int]) -> list[int]:
    """Stable neighborhood refinement of an ordered coloring.

    New colors are ranked by (old color, per-color neighbor counts), so cell
    order is label independent and fragments stay next to their origin cell.
    That signature is packed into one int, its entries as digits in base
    n + 1: every entry is below n + 1 and every signature of a round has the
    same length, so int order is tuple order and the colors are unchanged.
    """
    order = sorted(set(colors))
    rank = {c: i for i, c in enumerate(order)}
    colors = [rank[c] for c in colors]
    cells = len(order)
    base = n + 1
    while cells < n:
        cell_masks = [0] * cells
        for v in range(n):
            cell_masks[colors[v]] |= 1 << v
        sig = []
        for v in range(n):
            row = adj[v]
            s = colors[v]
            for cm in cell_masks:
                s = s * base + (row & cm).bit_count()
            sig.append(s)
        order = sorted(set(sig))
        if len(order) == cells:
            break
        rank = {s: i for i, s in enumerate(order)}
        colors = [rank[s] for s in sig]
        cells = len(order)
    return colors


def _prefix_bits(n: int, adj: tuple[int, ...], colors: list[int]) -> tuple[int, int, int]:
    """(t, bits, bitlen) for the leading run of singleton cells.

    bits is the column-major upper-triangle encoding restricted to the first
    t canonically-placed vertices, packed most-significant-first.
    """
    counts = [0] * n
    at = [-1] * n
    for v in range(n):
        counts[colors[v]] += 1
        at[colors[v]] = v
    t = 0
    while t < n and counts[t] == 1:
        t += 1
    bits = 0
    length = 0
    for j in range(1, t):
        vj = at[j]
        for i in range(j):
            bits = (bits << 1) | ((adj[at[i]] >> vj) & 1)
            length += 1
    return t, bits, length


def _twins(adj: tuple[int, ...], u: int, v: int) -> bool:
    return adj[u] == adj[v] or (adj[u] | (1 << u)) == (adj[v] | (1 << v))


def _search(n: int, adj: tuple[int, ...], refined: list[int]) -> tuple[int, list[int]]:
    """Minimum encoding over the refinement tree rooted at the refined
    colouring `refined`, with the winning labeling."""
    total_bits = n * (n - 1) // 2
    best_enc: list = [None]
    best_perm: list = [None]

    def rec(colors: list[int]):
        t, pbits, plen = _prefix_bits(n, adj, colors)
        if best_enc[0] is not None and plen:
            ref = best_enc[0] >> (total_bits - plen)
            if pbits > ref:
                return
        if t == n:
            enc = pbits
            if best_enc[0] is None or enc < best_enc[0]:
                best_enc[0] = enc
                best_perm[0] = colors[:]
            return
        # branch on the first non-singleton cell in color order
        counts: dict[int, int] = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        target = min(c for c, k in counts.items() if k >= 2)
        cell = sorted(v for v in range(n) if colors[v] == target)
        reps: list[int] = []
        for u in cell:
            if any(_twins(adj, u, r) for r in reps):
                continue
            reps.append(u)
            branched = [c * 2 for c in colors]
            branched[u] -= 1
            rec(_refine(n, adj, branched))

    rec(refined)
    return best_enc[0], best_perm[0]


def canonical_labeling(g: Graph) -> tuple[int, ...]:
    """A labeling (vertex -> canonical position) realizing canonical_form."""
    if g.n > CANON_MAX_VERTICES:
        raise SizeLimitError(
            f"canonical form supports up to {CANON_MAX_VERTICES} vertices, got {g.n}")
    if g.n == 0:
        return ()
    adj = g.adj_masks
    _, perm = _search(g.n, adj, _refine(g.n, adj, [0] * g.n))
    return tuple(perm)


def canonical_graph(g: Graph) -> Graph:
    """g relabelled into canonical positions."""
    return _relabel(g.adj_masks, canonical_labeling(g))


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: the graph6 encoding of the canonical relabelling."""
    return graph6_bytes(canonical_graph(g))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(map(int.bit_count, g.adj_masks)) != sorted(map(int.bit_count, h.adj_masks)):
        return False
    return canonical_form(g) == canonical_form(h)
