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
from .graphio import GRAPH6_MAX_VERTICES


def _lowest(mask: int) -> int:
    return mask & -mask


class VertexPartition:
    """Disjoint non-empty blocks of vertices.  Blocks are frozensets, ordered
    by minimum element; the partition's order is the number of vertices it
    touches.  Each block is stored only as a vertex mask, and the frozensets
    are built on each access.  A label is a bit position, so labels must lie
    in 0..GRAPH6_MAX_VERTICES."""

    __slots__ = ("_masks",)

    def __init__(self, blocks: Iterable[Iterable[int]] = ()):
        masks = []
        seen = 0
        for raw in blocks:
            mask = 0
            for v in raw:
                if not 0 <= v <= GRAPH6_MAX_VERTICES:
                    raise InvalidBlockError(
                        f"block vertex {v} not in 0..{GRAPH6_MAX_VERTICES}")
                mask |= 1 << v
            if not mask:
                raise InvalidBlockError("empty block")
            if mask & seen:
                raise InvalidBlockError(f"blocks overlap on {list(_bits(mask & seen))}")
            seen |= mask
            masks.append(mask)
        self._masks = tuple(sorted(masks, key=_lowest))

    @classmethod
    def _from_masks(cls, masks: Iterable[int]) -> VertexPartition:
        """The partition whose blocks are `masks`, which must be nonzero and
        disjoint, in any order; unchecked."""
        p = cls.__new__(cls)
        p._masks = tuple(sorted(masks, key=_lowest))
        return p

    @property
    def blocks(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(_bits(m)) for m in self._masks)

    @property
    def order(self) -> int:
        return sum(m.bit_count() for m in self._masks)

    def support(self) -> frozenset:
        return frozenset(_bits(sum(self._masks)))  # disjoint, so the sum is the union

    def __iter__(self) -> Iterator[frozenset]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self._masks)

    def __eq__(self, other) -> bool:
        return isinstance(other, VertexPartition) and self._masks == other._masks

    def __hash__(self) -> int:
        return hash(self._masks)

    def __repr__(self) -> str:
        return f"VertexPartition({[list(_bits(m)) for m in self._masks]})"


def normalize_partition(p: VertexPartition | Iterable[Iterable[int]]) -> VertexPartition:
    """Drop empty and singleton blocks; identifying those is a no-op."""
    if isinstance(p, VertexPartition):
        return VertexPartition._from_masks(m for m in p._masks if m.bit_count() >= 2)
    return VertexPartition([b for b in map(frozenset, p) if len(b) >= 2])


def identify_partition(g: Graph, p: VertexPartition) -> tuple[Graph, tuple[int, ...]]:
    """Identify every block of p in g, simultaneously.  Returns the quotient
    and each original vertex's image: `image[v]` is v's quotient vertex."""
    support = sum(p._masks)  # disjoint, so the sum is the union
    if support >> g.n:
        outside = next(m >> g.n for m in p._masks if m >> g.n)
        v = g.n + _lowest(outside).bit_length() - 1
        raise InvalidBlockError(f"block vertex {v} not in graph on {g.n} vertices")
    image = [0] * g.n
    untouched = ((1 << g.n) - 1) & ~support
    for i, v in enumerate(_bits(untouched)):
        image[v] = i
    t = untouched.bit_count()
    for heir, mask in enumerate(p._masks, t):
        for v in _bits(mask):
            image[v] = heir
    rows = [0] * (t + len(p._masks))
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
    return ";".join(",".join(map(str, _bits(m))) for m in p._masks)


def _text_blocks(text: str) -> list[list[int]]:
    """The blocks of the text format as lists of ints.  Refuses malformed
    text, a vertex repeated in a block and blocks that overlap, but not a
    label out of any range, so a caller can test labels before they become
    mask bits."""
    text = text.strip()
    if not text:
        return []
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
    seen: set[int] = set()
    for block in blocks:
        if shared := seen.intersection(block):
            raise InvalidBlockError(f"blocks overlap on {sorted(shared)}")
        seen.update(block)
    return blocks


def text_to_partition(text: str) -> VertexPartition:
    return VertexPartition(_text_blocks(text))
