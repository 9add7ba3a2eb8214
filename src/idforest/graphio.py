"""Graph serialization: the graph6 format (n <= 258047) and a plain edge list.

graph6 layout, bit-exact per the published format: a size header, then the
upper triangle of the adjacency matrix read column by column
(pairs (0,1), (0,2), (1,2), (0,3), ...), packed big-endian six bits per
byte, each byte offset by 63, zero-padded to a byte boundary.  The header
is the byte n+63 for n <= 62, and for 63 <= n <= 258047 the byte 126
followed by n as 18 bits in three such six-bit bytes.  The eight-byte form
for larger n is not supported.

The edge-list format is line oriented: a header line "n m", then m lines
"u v" with 0-indexed endpoints, each edge once in either orientation.
"""

from __future__ import annotations

from .errors import Graph6ParseError, SizeLimitError
from .graph import Graph

GRAPH6_MAX_VERTICES = 258047
_GRAPH6_BYTES = bytes(range(63, 127))
_SIX_BITS = {byte: format(byte - 63, "06b") for byte in _GRAPH6_BYTES}


def _pairs(n: int):
    for j in range(1, n):
        for i in range(j):
            yield i, j


def graph6_bytes(g: Graph) -> bytes:
    if g.n > GRAPH6_MAX_VERTICES:
        raise SizeLimitError(
            f"graph6 encoder supports up to {GRAPH6_MAX_VERTICES} vertices, got {g.n}")
    if g.n <= 62:
        out = [g.n + 63]
    else:  # "~", then n in three six-bit bytes
        out = [126, (g.n >> 12) + 63, (g.n >> 6 & 63) + 63, (g.n & 63) + 63]
    adj = g.adj_masks
    acc = 0
    nbits = 0
    for i, j in _pairs(g.n):
        acc = (acc << 1) | (adj[j] >> i & 1)
        nbits += 1
        if nbits == 6:
            out.append(acc + 63)
            acc, nbits = 0, 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out)


def graph6_str(g: Graph) -> str:
    return graph6_bytes(g).decode("ascii")


def graph6_to_graph(data: bytes | str) -> Graph:
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:  # every earlier character is one byte
            raise Graph6ParseError(
                f"character {data[exc.start]!r} outside graph6 range", exc.start) from None
    data = data.rstrip(b"\r\n")
    if not data:
        raise Graph6ParseError("empty graph6 input", 0)
    header = data[0]
    if not (63 <= header <= 126):
        raise Graph6ParseError(f"header byte {header} outside graph6 range", 0)
    if header < 126:
        n, start = header - 63, 1
    else:
        if data[1:2] == b"~":
            raise Graph6ParseError(
                f"eight-byte graph6 sizes (n > {GRAPH6_MAX_VERTICES}) not supported", 1)
        if len(data) < 4:
            raise Graph6ParseError("truncated graph6 size header", len(data))
        n, start = 0, 4
        for off in range(1, 4):
            if not (63 <= data[off] <= 126):
                raise Graph6ParseError(f"size byte {data[off]} outside graph6 range", off)
            n = (n << 6) | (data[off] - 63)
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    if len(data) - start != need_bytes:
        raise Graph6ParseError(
            f"expected {need_bytes} payload bytes for n={n}, got {len(data) - start}",
            min(len(data), need_bytes + start))
    payload = data[start:]
    if payload.translate(None, _GRAPH6_BYTES):  # some byte is outside 63..126
        off, byte = next((off, byte) for off, byte in enumerate(payload, start=start)
                         if not 63 <= byte <= 126)
        raise Graph6ParseError(f"payload byte {byte} outside graph6 range", off)
    flags = payload.decode("ascii").translate(_SIX_BITS)
    if "1" in flags[need_bits:]:
        raise Graph6ParseError("nonzero padding bits", len(data) - 1)
    return Graph(n, [pair for pair, flag in zip(_pairs(n), flags) if flag == "1"])


def edge_list_str(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def edge_list_to_graph(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"edge-list header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"edge-list header must be two integers, got {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise ValueError(f"header announces {m} edges but {len(lines) - 1} lines follow")
    edges = []
    seen = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"edge line must be 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"edge line must be two integers, got {ln!r}") from None
        if (u, v) in seen:
            raise ValueError(f"edge line {ln!r} repeats an earlier edge")
        seen.update(((u, v), (v, u)))
        edges.append((u, v))
    return Graph(n, edges)
