"""graph6 encoding and decoding, plus a plain edge-list text format.

graph6 packs the upper triangle of the adjacency matrix column by column,
6 bits per printable byte (offset 63).  Parse errors carry the byte offset
that triggered them.
"""

from __future__ import annotations

from .graphcore import MAX_INPUT_VERTICES, Graph


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


def _triangle_bits(g: Graph):
    for col in range(1, g.n):
        for row in range(col):
            yield g.adj[row] >> col & 1


def emit_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string."""
    n = g.n
    if n < 0 or n > 258047:
        raise ValueError("graph6 size header supports 0 <= n <= 258047 here")
    if n <= 62:
        header = [n + 63]
    else:
        header = [126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    out = bytearray(header)
    acc = 0
    filled = 0
    for bit in _triangle_bits(g):
        acc = acc << 1 | bit
        filled += 1
        if filled == 6:
            out.append(acc + 63)
            acc = 0
            filled = 0
    if filled:
        out.append((acc << (6 - filled)) + 63)
    return out.decode("ascii")


def parse_graph6(text: str | bytes) -> Graph:
    """Decode one graph6 string; round-trips bit for bit with the emitter."""
    data = text.encode("ascii") if isinstance(text, str) else bytes(text)
    data = data.rstrip(b"\n")
    if not data:
        raise Graph6Error("empty input", 0)
    for offset, byte in enumerate(data):
        if byte != 126 and not 63 <= byte <= 126:
            raise Graph6Error(f"byte {byte} outside graph6 range", offset)
    pos = 0
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("graphs beyond 258047 vertices not supported", 1)
        if len(data) < 4:
            raise Graph6Error("truncated size header", len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        pos = 4
    else:
        n = data[0] - 63
        pos = 1
    if n > MAX_INPUT_VERTICES:
        raise Graph6Error(f"{n} vertices exceed the limit of {MAX_INPUT_VERTICES}", 0)
    bits_needed = n * (n - 1) // 2
    bytes_needed = (bits_needed + 5) // 6
    if len(data) - pos < bytes_needed:
        raise Graph6Error("truncated adjacency data", len(data))
    if len(data) - pos > bytes_needed:
        raise Graph6Error("trailing garbage", pos + bytes_needed)
    adj = [0] * n
    index = 0
    for byte in data[pos:]:
        value = byte - 63
        for shift in range(5, -1, -1):
            if index >= bits_needed:
                if value >> shift & 1:
                    raise Graph6Error("nonzero padding bits", pos + index // 6)
                continue
            if value >> shift & 1:
                col = _column_of(index)
                row = index - col * (col - 1) // 2
                adj[row] |= 1 << col
                adj[col] |= 1 << row
            index += 1
    return Graph(n, tuple(adj))


def _column_of(index: int) -> int:
    # Smallest col with col*(col-1)/2 > index, minus 1.
    col = 1
    while (col + 1) * col // 2 <= index:
        col += 1
    return col


def parse_edge_list(text: str) -> Graph:
    """Parse the "u v" per-line edge format.

    Lines starting with ``#`` are comments; an optional ``n=<count>`` line
    declares the vertex count (needed for trailing isolated vertices).
    At most ``MAX_INPUT_VERTICES`` vertices are accepted.
    """
    n_declared: int | None = None
    edges: list[tuple[int, int]] = []
    max_seen = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("n="):
            try:
                n_declared = int(line[2:])
            except ValueError:
                raise ValueError(f"line {lineno}: bad vertex count {line!r}") from None
            if n_declared < 0:
                raise ValueError(f"line {lineno}: negative vertex count")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer endpoint in {line!r}") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: negative vertex index")
        edges.append((u, v))
        max_seen = max(max_seen, u, v)
    n = max_seen + 1 if n_declared is None else n_declared
    if n > MAX_INPUT_VERTICES:
        raise ValueError(f"{n} vertices exceed the limit of {MAX_INPUT_VERTICES}")
    if max_seen >= n:
        raise ValueError(f"edge endpoint {max_seen} exceeds declared n={n}")
    return Graph.from_edges(n, edges)
