"""The identification operation.

Identifying a vertex set X in a graph G deletes X and adds one fresh "heir"
vertex adjacent to every former neighbor of X outside X.  A partition of
disjoint blocks is identified blockwise; the result does not depend on block
order, so it is computed as a single quotient.

Labels in the identified graph: the untouched vertices come first in their
original order (0..t-1), then one heir per block, blocks ordered by their
minimum original vertex.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InvalidBlockError
from .graph import Graph, _bits, is_forest


class VertexPartition:
    """Disjoint non-empty blocks of vertices.  Blocks are frozensets, ordered
    by minimum element; the partition's order is the number of vertices it
    touches.  Each block is stored as a sorted tuple, and the frozensets are
    built on first use."""

    __slots__ = ("_sorted", "_blocks")

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
        self._blocks = None

    @property
    def blocks(self) -> tuple[frozenset, ...]:
        if self._blocks is None:
            self._blocks = tuple(frozenset(b) for b in self._sorted)
        return self._blocks

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
        return hash(self.blocks)

    def __repr__(self) -> str:
        return f"VertexPartition({[list(b) for b in self._sorted]})"


def normalize_partition(p: VertexPartition | Iterable[Iterable[int]]) -> VertexPartition:
    """Drop empty and singleton blocks; identifying those is a no-op."""
    blocks = p.blocks if isinstance(p, VertexPartition) else [frozenset(b) for b in p]
    return VertexPartition([b for b in blocks if len(b) >= 2])


@dataclass(frozen=True)
class HeirMap:
    """Where every original vertex went: untouched vertices map through
    `untouched`, block i (in the partition's block order) maps to heir label
    `heirs[i]`.  Together the images cover the identified graph exactly."""

    untouched: Mapping[int, int]
    heirs: tuple[int, ...]

    def image(self, p: VertexPartition, v: int) -> int:
        for i, block in enumerate(p.blocks):
            if v in block:
                return self.heirs[i]
        return self.untouched[v]


class _Ranks(Mapping):
    """The vertices of a mask, each mapped to its rank among them."""

    __slots__ = ("mask",)

    def __init__(self, mask: int):
        self.mask = mask

    def __getitem__(self, v: int) -> int:
        if not (isinstance(v, int) and v >= 0 and self.mask >> v & 1):
            raise KeyError(v)
        return (self.mask & ((1 << v) - 1)).bit_count()

    def __iter__(self) -> Iterator[int]:
        return _bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __repr__(self) -> str:
        return repr(dict(self))


def identify_partition(g: Graph, p: VertexPartition) -> tuple[Graph, HeirMap]:
    """Identify every block of p in g, simultaneously."""
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
    heirs = tuple(range(t, t + len(p._sorted)))
    for heir, block in zip(heirs, p._sorted):
        for v in block:
            image[v] = heir
    rows = [0] * (t + len(heirs))
    for u, row in enumerate(g.adj_masks):
        for v in _bits(row):
            if image[u] != image[v]:
                rows[image[u]] |= 1 << image[v]
    return Graph._from_rows(rows), HeirMap(untouched=_Ranks(untouched), heirs=heirs)


def identify_set(g: Graph, x: Iterable[int]) -> tuple[Graph, int]:
    """Identify one vertex set; returns the graph and the heir's label."""
    block = frozenset(x)
    if not block:
        raise InvalidBlockError("cannot identify an empty set")
    h, hm = identify_partition(g, VertexPartition([block]))
    return h, hm.heirs[0]


def is_id_forest_partition(g: Graph, p: VertexPartition) -> bool:
    """True iff identifying p's blocks turns g into a forest."""
    h, _ = identify_partition(g, p)
    return is_forest(h)


# ---------------------------------------------------------------------------
# text format: blocks separated by ';', vertices by ','  e.g. "0,2;1,3"

def partition_to_text(p: VertexPartition) -> str:
    return ";".join(",".join(str(v) for v in sorted(b)) for b in p.blocks)


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
            blocks.append([int(s) for s in items])
        except ValueError:
            raise ValueError(f"non-integer vertex in block {part!r}") from None
    return VertexPartition(blocks)
