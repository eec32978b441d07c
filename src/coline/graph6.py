"""graph6 encoding and decoding, plus a plain edge-list text format.

graph6 packs the upper triangle of the adjacency matrix column by column,
6 bits per printable byte (offset 63).  Parse errors carry the byte offset
that triggered them.
"""

from __future__ import annotations

from itertools import compress, count

from .graphcore import MAX_INPUT_EDGES, MAX_INPUT_VERTICES, Graph, _derived


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


# Adds graph6's printable offset of 63 to every 6-bit value.
_PLUS_63 = bytes(range(63, 127)) + bytes(192)
# Takes the offset off again; bytes outside 63..126 are rejected before use.
_MINUS_63 = bytes(63) + bytes(range(64)) + bytes(129)
# The printable graph6 bytes, deleted to leave only the bad ones.
_GRAPH6_BYTES = bytes(range(63, 127))
# For each 6-bit body value, the positions of its set bits counted from the
# high bit (the first triangle bit of the byte), ascending.
_SET_POSITIONS = tuple(tuple(j for j in range(6) if value >> 5 - j & 1) for value in range(64))


def emit_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string."""
    n = g.n
    if n < 0 or n > 258047:
        raise ValueError("graph6 size header supports 0 <= n <= 258047 here")
    if n <= 62:
        header = bytes([n + 63])
    else:
        header = bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    # Bit k of the upper triangle, taken column by column, is bit 5 - k % 6
    # of body byte k // 6; column col holds rows 0..col-1.
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for col in range(1, n):
        rows = g.adj[col] & ((1 << col) - 1)
        base = col * (col - 1) // 2
        while rows:
            low = rows & -rows
            rows ^= low
            k = base + low.bit_length() - 1
            body[k // 6] |= 32 >> k % 6
    return (header + body.translate(_PLUS_63)).decode("ascii")


def parse_graph6(text: str | bytes) -> Graph:
    """Decode one graph6 string; round-trips bit for bit with the emitter."""
    if isinstance(text, str) and not text.isascii():
        offset = next(k for k, char in enumerate(text) if not char.isascii())
        raise Graph6Error(f"character {text[offset]!r} is not ASCII", offset)
    data = (text.encode("ascii") if isinstance(text, str) else bytes(text)).rstrip(b"\n")
    if not data:
        raise Graph6Error("empty input", 0)
    if data.translate(None, _GRAPH6_BYTES):
        offset, byte = next((k, b) for k, b in enumerate(data) if not 63 <= b <= 126)
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
    body = data[pos:].translate(_MINUS_63)
    padding = 6 * bytes_needed - bits_needed
    if padding and body[-1] & ((1 << padding) - 1):
        raise Graph6Error("nonzero padding bits", pos + bits_needed // 6)
    edges = int.from_bytes(body, "big").bit_count()
    if edges > MAX_INPUT_EDGES:
        raise Graph6Error(f"{edges} edges exceed the limit of {MAX_INPUT_EDGES}", pos)
    adj = [0] * n
    # Bits are visited in increasing triangle index k, so the column only
    # moves forward: column col holds k in [base, base + col).
    col, base = 1, 0
    for index in compress(count(), body):
        for j in _SET_POSITIONS[body[index]]:
            k = 6 * index + j
            while k >= base + col:
                base += col
                col += 1
            row = k - base
            adj[row] |= 1 << col
            adj[col] |= 1 << row
    return _derived(n, tuple(adj))


def parse_edge_list(text: str) -> Graph:
    """Parse the "u v" per-line edge format.

    Lines starting with ``#`` are comments; an optional ``n=<count>`` line
    declares the vertex count (needed for trailing isolated vertices).
    At most ``MAX_INPUT_VERTICES`` vertices and ``MAX_INPUT_EDGES`` edges
    are accepted.
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
    if len(edges) > MAX_INPUT_EDGES:
        raise ValueError(f"{len(edges)} edges exceed the limit of {MAX_INPUT_EDGES}")
    return Graph.from_edges(n, edges)
