"""The identification operation.

Identifying a vertex set X in a graph G deletes X and adds one fresh "heir"
vertex adjacent to every former neighbor of X outside X.  A partition of
disjoint blocks is identified blockwise; the result does not depend on block
order, so it is computed as a single quotient.  Contracting an edge is
identifying its two ends.

Labels in the identified graph: the untouched vertices come first in their
original order (0..t-1), then one heir per block, blocks ordered by their
minimum original vertex.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import InvalidBlockError, NotPresentError
from .graph import Edge, Graph, _bits, is_forest


class VertexPartition:
    """Disjoint non-empty blocks of vertices.  Blocks are frozensets, ordered
    by minimum element; the partition's order is the number of vertices it
    touches.  Each block is stored only as a sorted tuple, and the
    frozensets are built on each access."""

    __slots__ = ("_sorted",)

    def __init__(self, blocks: Iterable[Iterable[int]] = ()):
        bs = []
        seen: set = set()
        for raw in blocks:
            block = frozenset(raw)
            if not block:
                raise InvalidBlockError("empty block")
            if block & seen:
                raise InvalidBlockError(
                    f"blocks overlap on {sorted(block & seen)}")
            seen |= block
            bs.append(tuple(sorted(block)))
        self._sorted = tuple(sorted(bs))  # disjoint, so ordered by minimum

    @property
    def blocks(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(b) for b in self._sorted)

    @property
    def order(self) -> int:
        return sum(len(b) for b in self._sorted)

    def support(self) -> frozenset:
        return frozenset().union(*self._sorted)

    def __iter__(self) -> Iterator[frozenset]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self._sorted)

    def __eq__(self, other) -> bool:
        return isinstance(other, VertexPartition) and self._sorted == other._sorted

    def __hash__(self) -> int:
        return hash(self._sorted)

    def __repr__(self) -> str:
        return f"VertexPartition({[list(b) for b in self._sorted]})"


def normalize_partition(p: VertexPartition | Iterable[Iterable[int]]) -> VertexPartition:
    """Drop empty and singleton blocks; identifying those is a no-op."""
    blocks = p._sorted if isinstance(p, VertexPartition) else [frozenset(b) for b in p]
    return VertexPartition([b for b in blocks if len(b) >= 2])


def identify_partition(g: Graph, p: VertexPartition) -> tuple[Graph, tuple[int, ...]]:
    """Identify every block of p in g, simultaneously.  Returns the quotient
    and each original vertex's image: `image[v]` is v's quotient vertex."""
    image = [0] * g.n
    support = 0
    for block in p._sorted:
        for v in block:
            if not (0 <= v < g.n):
                raise InvalidBlockError(f"block vertex {v} not in graph on {g.n} vertices")
            support |= 1 << v
    untouched = ((1 << g.n) - 1) & ~support
    for i, v in enumerate(_bits(untouched)):
        image[v] = i
    t = untouched.bit_count()
    for heir, block in enumerate(p._sorted, t):
        for v in block:
            image[v] = heir
    rows = [0] * (t + len(p._sorted))
    for u, row in enumerate(g.adj_masks):
        for v in _bits(row):
            if image[u] != image[v]:
                rows[image[u]] |= 1 << image[v]
    return Graph._from_rows(rows), tuple(image)


def contract_edge(g: Graph, e: Edge) -> Graph:
    """Contract edge e: the identification of the 2-block {u, v}, so the
    untouched vertices keep their relative order at 0..n-3 and the heir is
    n-2."""
    u, v = e
    if not (0 <= u < g.n and 0 <= v < g.n and g.adj_masks[u] >> v & 1):
        raise NotPresentError(f"edge {e} not in graph")
    return identify_partition(g, VertexPartition([e]))[0]


def is_id_forest_partition(g: Graph, p: VertexPartition) -> bool:
    """True iff identifying p's blocks turns g into a forest."""
    h, _ = identify_partition(g, p)
    return is_forest(h)


# ---------------------------------------------------------------------------
# text format: blocks separated by ';', vertices by ','  e.g. "0,2;1,3"

def partition_to_text(p: VertexPartition) -> str:
    return ";".join(",".join(map(str, b)) for b in p._sorted)


def text_to_partition(text: str) -> VertexPartition:
    text = text.strip()
    if not text:
        return VertexPartition()
    blocks = []
    for part in text.split(";"):
        items = [s.strip() for s in part.split(",")]
        if any(not s for s in items):
            raise ValueError(f"malformed partition block {part!r}")
        try:
            block = [int(s) for s in items]
        except ValueError:
            raise ValueError(f"non-integer vertex in block {part!r}") from None
        repeated = [v for i, v in enumerate(block) if v in block[:i]]
        if repeated:
            raise ValueError(f"vertex {repeated[0]} repeated in block {part!r}")
        blocks.append(block)
    return VertexPartition(blocks)
