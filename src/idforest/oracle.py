"""Brute-force reference implementations.

Everything here is deliberately independent of the fast solvers: direct
enumeration over subsets, set partitions and branch-set assignments.  Sizes
are guarded; these exist to pin down expected values and to cross-check the
clever code, not to be fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InvalidBlockError, SizeLimitError
from .graph import Graph, _bits, _neighbours, components, induced_subgraph, is_forest
from .graphio import GRAPH6_MAX_VERTICES
from .identify import VertexPartition, identify_partition

BRUTE_IDF_MAX = 9
BRUTE_VC_MAX = 20
BRUTE_ECF_MAX_EDGES = 20
BRUTE_MINOR_MAX = 12


def _set_partitions(items: list) -> Iterator[list[list]]:
    """All set partitions without singleton blocks: the first item's block is
    the item plus a nonempty choice of mates, and the rest recurse."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for size in range(1, len(rest) + 1):
        for mates in combinations(rest, size):
            left = [x for x in rest if x not in mates]
            for blocks in _set_partitions(left):
                yield [[first, *mates], *blocks]


def brute_idf(g: Graph) -> int:
    """idf by exhausting supports X in increasing size, then all partitions
    of X with every block of size >= 2 (singleton blocks are no-ops).

    Identifying X keeps G - X as an induced subgraph of the quotient, so a
    support is tried only when G - X is a forest.
    """
    if g.n > BRUTE_IDF_MAX:
        raise SizeLimitError(f"brute_idf supports up to {BRUTE_IDF_MAX} vertices, got {g.n}")
    if is_forest(g):
        return 0
    for s in range(2, g.n + 1):
        for support in combinations(range(g.n), s):
            if not is_forest(induced_subgraph(g, set(range(g.n)).difference(support))[0]):
                continue
            for blocks in _set_partitions(list(support)):
                h, _ = identify_partition(g, VertexPartition(blocks))
                if is_forest(h):
                    return s
    raise AssertionError("identifying all vertices of a component always yields a forest")


def brute_vc(g: Graph) -> int:
    """Minimum vertex cover size by subset enumeration in increasing size."""
    if g.n > BRUTE_VC_MAX:
        raise SizeLimitError(f"brute_vc supports up to {BRUTE_VC_MAX} vertices, got {g.n}")
    edges = [(1 << u) | (1 << v) for u, v in g.edges]
    for s in range(g.n + 1):
        for subset in combinations(range(g.n), s):
            mask = 0
            for v in subset:
                mask |= 1 << v
            if all(mask & e for e in edges):
                return s
    raise AssertionError("the full vertex set covers everything")


@dataclass(frozen=True)
class EcfValue:
    """Minimum number of edge contractions to a forest, with one witness set."""
    value: int
    witness: frozenset


def brute_ecf(g: Graph) -> EcfValue:
    """ecf by enumerating contraction sets in increasing size.

    Contracting an edge set F is identifying each connected component of the
    spanning subgraph (V, F); parallels merge, loops vanish.
    """
    if g.m > BRUTE_ECF_MAX_EDGES:
        raise SizeLimitError(f"brute_ecf supports up to {BRUTE_ECF_MAX_EDGES} edges, got {g.m}")
    edges = sorted(g.edges)
    for s in range(g.m + 1):
        for chosen in combinations(edges, s):
            parent = list(range(g.n))

            def find(x: int) -> int:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for u, v in chosen:
                parent[find(u)] = find(v)
            groups: dict[int, list[int]] = {}
            for v in range(g.n):
                groups.setdefault(find(v), []).append(v)
            blocks = [grp for grp in groups.values() if len(grp) >= 2]
            h, _ = identify_partition(g, VertexPartition(blocks))
            if is_forest(h):
                return EcfValue(value=s, witness=frozenset(chosen))
    raise AssertionError("contracting every edge always yields a forest")


# ---------------------------------------------------------------------------
# minor testing by explicit branch-set models

class MinorModel:
    """A minor model: pairwise disjoint connected branch sets in the host,
    one per pattern vertex, with every pattern edge realized by a host edge.

    The branch sets are stored only as vertex masks packed into one int:
    the set of pattern vertex p is the mask in bits p * width up to
    (p + 1) * width.  `branch_sets` builds the frozensets on each access.
    A label is a bit position, so labels must lie in
    0..GRAPH6_MAX_VERTICES.  A pattern vertex whose set is absent or None
    gets the empty set, which never validates."""

    __slots__ = ("pattern", "_packed", "_width")

    def __init__(self, pattern: Graph, branch_sets: Mapping[int, Iterable[int]]):
        masks = []
        for p in range(pattern.n):
            mask = 0
            for v in branch_sets.get(p) or ():
                if not 0 <= v <= GRAPH6_MAX_VERTICES:
                    raise InvalidBlockError(
                        f"branch set vertex {v} not in 0..{GRAPH6_MAX_VERTICES}")
                mask |= 1 << v
            masks.append(mask)
        self._fill(pattern, masks, max(masks, default=0).bit_length())

    @classmethod
    def _from_masks(cls, pattern: Graph, masks: Sequence[int], width: int) -> MinorModel:
        """The model of `pattern` whose branch set p is masks[p], a vertex
        mask below 1 << width; unchecked."""
        model = cls.__new__(cls)
        model._fill(pattern, masks, width)
        return model

    def _fill(self, pattern: Graph, masks: Sequence[int], width: int):
        packed = 0
        for p, mask in enumerate(masks):
            packed |= mask << p * width
        self.pattern, self._packed, self._width = pattern, packed, width

    def _masks(self) -> list[int]:
        width = self._width
        low = (1 << width) - 1
        return [self._packed >> p * width & low for p in range(self.pattern.n)]

    @property
    def branch_sets(self) -> dict[int, frozenset]:
        return {p: frozenset(_bits(mask)) for p, mask in enumerate(self._masks())}

    def validates_in(self, host: Graph) -> bool:
        adj = host.adj_masks
        masks = self._masks()
        used = 0
        for mask in masks:
            if not mask or mask >> host.n or mask & used or components(adj, mask) != [mask]:
                return False
            used |= mask
        return all(_neighbours(adj, masks[u]) & masks[v] for u, v in self.pattern.edges)

    def as_json_dict(self) -> dict:
        return {"branch_sets": [list(_bits(mask)) for mask in self._masks()]}

    def __eq__(self, other) -> bool:
        return (isinstance(other, MinorModel) and self.pattern == other.pattern
                and self._masks() == other._masks())

    def __repr__(self) -> str:
        return f"MinorModel(pattern={self.pattern!r}, branch_sets={self.branch_sets!r})"


def _connected_subsets(adj: tuple[int, ...], allowed: int, max_size: int) -> Iterator[int]:
    """All connected subsets (as bitmasks) of the allowed set, each once.

    Seeded at its minimum vertex; grown by include/exclude over the frontier.
    """
    rest = allowed
    while rest:
        seed = (rest & -rest).bit_length() - 1
        seed_bit = 1 << seed
        scope = rest  # only vertices >= seed, so the seed is the minimum

        def grow(current: int, frontier: int, banned: int) -> Iterator[int]:
            yield current
            if current.bit_count() >= max_size:
                return
            f = frontier
            while f:
                c = (f & -f).bit_length() - 1
                cbit = 1 << c
                f &= f - 1
                new_frontier = (f | (_neighbours(adj, current | cbit) & scope)) & ~banned & ~(current | cbit)
                yield from grow(current | cbit, new_frontier, banned)
                banned |= cbit

        yield from grow(seed_bit, _neighbours(adj, seed_bit) & scope, ~scope)
        rest &= rest - 1


def brute_minor(h: Graph, g: Graph) -> MinorModel | None:
    """Search for a model of pattern h inside host g; None when there is none."""
    if g.n > BRUTE_MINOR_MAX:
        raise SizeLimitError(f"brute_minor supports hosts up to {BRUTE_MINOR_MAX} vertices, got {g.n}")
    if h.n > g.n or h.m > g.m:
        return None
    adj = g.adj_masks
    pattern = h.adj_masks
    # assign big pattern components first, high degree vertices first inside them
    comps = sorted(components(pattern, (1 << h.n) - 1), key=int.bit_count, reverse=True)
    order: list[int] = []
    for comp in comps:
        order.extend(sorted(_bits(comp), key=lambda v: (-pattern[v].bit_count(), v)))

    assignment: dict[int, int] = {}  # pattern vertex -> branch mask

    def place(i: int, used: int) -> bool:
        if i == len(order):
            return True
        p = order[i]
        free = ((1 << g.n) - 1) & ~used
        remaining_after = len(order) - i - 1
        budget = free.bit_count() - remaining_after
        if budget <= 0:
            return False
        fixed_nbrs = [assignment[q] for q in _bits(pattern[p]) if q in assignment]
        open_nbrs = sum(1 for q in _bits(pattern[p]) if q not in assignment)
        for bmask in _connected_subsets(adj, free, budget):
            nb = _neighbours(adj, bmask)
            if any(not (nb & s) for s in fixed_nbrs):
                continue
            if (nb & free & ~bmask).bit_count() < open_nbrs:
                continue
            assignment[p] = bmask
            if place(i + 1, used | bmask):
                return True
            del assignment[p]
        return False

    if not place(0, 0):
        return None
    return MinorModel._from_masks(h, [assignment[p] for p in range(h.n)], g.n)
