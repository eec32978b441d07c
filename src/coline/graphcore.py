"""Core graph type and the constructions everything else is built on.

Graphs are simple, undirected and labelled with dense vertex indices
0..n-1.  Adjacency is stored as one integer bitmask per vertex, which keeps
all the small-graph searches in this package fast and allocation-free.
Graph values are immutable and hashable; every operation returns a new
graph.  The edge count ``Graph.m`` and the edge list ``Graph.edges()`` are
each computed once per graph, on first use.

The operations on the classify path touch each set bit a constant number
of times.  A plain classify builds no coline rows at all:
``coline_components`` feeds ``components`` the rows of co(G) as it
reaches them, each read off the incidence masks of the input's edges, and
``components`` stops growing a component once no vertex is left outside
it, so the near-complete coline of a sparse input costs one or two row
reads.  The input's edges are decoded once; the incidence masks, the
canonical labeller and the graph6 writer read the same list.  Only
``classify --verify`` builds ``coline(g)``, for its exact oracles.

Every graph the package builds is valid by construction.  The builders
(``Graph.from_edges``, the graph6 and edge-list parsers, ``build_named``)
check their input; they and the operations here and in ``oracle``
(``disjoint_union``, ``line_graph``, ``strip_isolated``, the canonical
relabelling and the rest) make symmetric, irreflexive rows within 0..n-1
and wrap them with ``_derived`` unchecked.  Only the public
constructor ``Graph(n, adj)``, where rows come from outside, checks them.

``Graph`` is a plain class rather than a frozen dataclass, so that a
``coline`` process never imports ``dataclasses`` (and the ``inspect`` and
``ast`` it pulls in) and no decorator compiles methods at import.  It is
no ``NamedTuple`` either: its constructor checks the rows and it caches
``m`` and the edge list.  It writes out the equality, hashing and repr
the dataclass had, and setting or deleting a field raises
``AttributeError``.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import combinations
from typing import Iterator

Edge = tuple[int, int]

# Largest vertex and edge counts that build_named, parse_graph6 and
# parse_edge_list accept, so that no input makes them (or what runs on the
# graph) allocate without bound.  The coline of an m-edge graph has m
# vertices and up to m(m-1)/2 edges; 5000 admits K100 and rejects K101.
MAX_INPUT_VERTICES = 1000
MAX_INPUT_EDGES = 5000


class Graph:
    """A simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is the bitmask of neighbours of ``v``.  The constructor
    stores the rows as a tuple and checks them in time linear in the edges;
    the package's own builders skip that check (see the module docstring).
    ``m`` and ``edges()`` are computed on first use and kept.  Two graphs
    are equal when their rows are, whatever was kept; fields cannot be set
    or deleted.  A pickle holds the rows alone, not what was kept.
    """

    n: int
    adj: tuple[int, ...]

    def __init__(self, n: int, adj) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = tuple(adj)
        if len(adj) != n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << n) - 1
        for v, mask in enumerate(adj):
            if mask & ~full:
                raise ValueError(f"vertex {v} has neighbours outside 0..{n - 1}")
            if mask >> v & 1:
                raise ValueError(f"vertex {v} has a self-loop")
        for v, mask in enumerate(adj):
            for u in _bits(mask):
                if not adj[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric at ({v}, {u})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, adj={self.adj!r})"

    def __reduce__(self):
        # a pickle holds the rows alone; m and the edge list are recomputed
        return _derived, (self.n, self.adj)

    @cached_property
    def m(self) -> int:
        """Number of edges, counted on first use; the rows never change."""
        return sum(mask.bit_count() for mask in self.adj) // 2

    def degrees(self) -> tuple[int, ...]:
        return tuple(mask.bit_count() for mask in self.adj)

    def max_degree(self) -> int:
        return max((mask.bit_count() for mask in self.adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> tuple[Edge, ...]:
        """Edges as (u, v) with u < v, sorted lexicographically; decoded
        once, on first use, like ``m``."""
        return self._edges

    @cached_property
    def _edges(self) -> tuple[Edge, ...]:
        out = []
        for u, row in enumerate(self.adj):
            rest = row >> u + 1  # bit b is vertex u + 1 + b
            while rest:
                low = rest & -rest
                out.append((u, u + low.bit_length()))
                rest ^= low
        return tuple(out)

    @staticmethod
    def from_edges(n: int, edges) -> Graph:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [0] * n
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return _derived(n, tuple(adj))


def _derived(n: int, adj: tuple[int, ...]) -> Graph:
    """``Graph(n, adj)`` without the constructor's check.

    Only for rows that are symmetric, irreflexive and within 0..n-1 by
    construction: built from checked input or from a valid graph, with any
    index arguments checked first.  Re-proving that costs a pass over every
    edge, more on a large coline than building it.
    """
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", adj)
    return g


def _bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def components(g: Graph, within: int | None = None) -> tuple[int, ...]:
    """Connected components as vertex bitmasks, ordered by smallest member.

    ``within`` restricts the search to an induced vertex subset.
    """
    adj = g.adj
    remaining = (1 << g.n) - 1 if within is None else within
    comps = []
    while remaining:
        # Grow from the smallest remaining vertex.  Each reached vertex's
        # row is read once, and growth stops as soon as nothing is left
        # outside, so a near-complete graph reads one or two rows.
        frontier = remaining & -remaining
        outside = remaining ^ frontier
        while frontier and outside:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & outside
            outside ^= new
            frontier |= new
        comps.append(remaining ^ outside)
        remaining = outside
    return tuple(comps)


def is_connected(g: Graph) -> bool:
    return len(components(g)) <= 1


def line_graph(g: Graph) -> tuple[Graph, tuple[Edge, ...]]:
    """Line graph of ``g`` plus the edge list indexing its vertices.

    Vertex i of the result is ``edge_list[i]``; two vertices are adjacent
    exactly when the corresponding edges of ``g`` share an endpoint.
    """
    edge_list, incident = _incidence(g)
    adj = tuple(
        (incident[a] | incident[b]) & ~(1 << i) for i, (a, b) in enumerate(edge_list)
    )
    return _derived(len(edge_list), adj), edge_list


def coline(g: Graph) -> tuple[Graph, tuple[Edge, ...]]:
    """Complement of the line graph; vertex i of the result is edge i of g.

    Row i is every edge but those meeting edge i (itself included), read
    straight off the incidence masks in one pass.
    """
    edge_list, incident = _incidence(g)
    full = (1 << len(edge_list)) - 1
    adj = tuple(full ^ (incident[a] | incident[b]) for a, b in edge_list)
    return _derived(len(edge_list), adj), edge_list


def coline_components(g: Graph) -> tuple[int, ...]:
    """``components(coline(g)[0])`` without building co(g): the count reads
    each row it reaches off g's incidence masks, so the near-complete
    coline of a sparse g costs one or two rows, not m of m bits each."""
    return components(_ColineRows(g))


class _ColineRows:
    """co(g) as ``components`` reads it: ``n`` and rows ``adj[i]``, each
    computed as ``coline`` computes it, from the incidence masks of g's
    edges, when it is read."""

    __slots__ = ("n", "adj", "edges", "incident", "full")

    def __init__(self, g: Graph) -> None:
        self.edges, self.incident = _incidence(g)
        self.n = len(self.edges)
        self.full = (1 << self.n) - 1
        self.adj = self

    def __getitem__(self, i: int) -> int:
        a, b = self.edges[i]
        return self.full ^ (self.incident[a] | self.incident[b])


def _incidence(g: Graph) -> tuple[tuple[Edge, ...], list[int]]:
    """``g.edges()``, and for each vertex the bitmask of the edges at it."""
    edge_list = g.edges()
    incident = [0] * g.n
    for i, (a, b) in enumerate(edge_list):
        bit = 1 << i
        incident[a] |= bit
        incident[b] |= bit
    return edge_list, incident


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    adj = list(g1.adj) + [mask << g1.n for mask in g2.adj]
    return _derived(g1.n + g2.n, tuple(adj))


def add_dominating_vertex(g: Graph) -> Graph:
    """Add a new vertex 0 adjacent to every vertex; vertex v becomes v + 1."""
    rows = ((1 << g.n + 1) - 2,) + tuple(row << 1 | 1 for row in g.adj)
    return _derived(g.n + 1, rows)


def strip_isolated(g: Graph) -> Graph:
    """Drop degree-0 vertices; a graph without any is returned as is.

    The kept vertices keep their order.
    """
    if all(g.adj):
        return g
    return _closed_subgraph(g, [v for v in range(g.n) if g.adj[v]])


def _closed_subgraph(g: Graph, kept: list[int]) -> Graph:
    """The subgraph on ``kept``, ascending vertices that no edge leaves (a
    union of components), relabelled 0, 1, ... in that order.

    Every set bit of a kept row is a kept vertex: one lookup each.
    """
    bit = [0] * g.n
    for i, v in enumerate(kept):
        bit[v] = 1 << i
    adj = []
    for v in kept:
        row, out = g.adj[v], 0
        while row:
            low = row & -row
            out |= bit[low.bit_length() - 1]
            row ^= low
        adj.append(out)
    return _derived(len(kept), tuple(adj))


# --- named constructions ---------------------------------------------------

def _complete(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def _cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def _f_graph(k: int) -> Graph:
    """Star with k leaves plus one edge joining two leaves (F_2 is K3)."""
    return Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)] + [(1, 2)])


def _net() -> Graph:
    """Triangle with one pendant vertex attached to each corner."""
    return Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])


def _petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, edges)


_FIXED = {
    "K4_minus": lambda: Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "K3_plus": lambda: Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)]),
    "K3_circ_K1": _net,
    "H1": lambda: Graph.from_edges(6, _net().edges() + ((3, 4),)),
    "H2": lambda: Graph.from_edges(7, _net().edges() + ((3, 6),)),
    "H3": lambda: disjoint_union(_net(), _complete(2)),
    "Petersen": _petersen,
}

# pattern, builder, smallest parameter, edge count of the atom
_PARAMETRIC = (
    (re.compile(r"^K(\d+)$"), _complete, 0, lambda n: n * (n - 1) // 2),
    (re.compile(r"^C(\d+)$"), _cycle, 3, lambda n: n),
    (re.compile(r"^P(\d+)$"), _path, 1, lambda n: n - 1),
    (re.compile(r"^K1_(\d+)$"), _star, 1, lambda n: n),
    (re.compile(r"^F(\d+)$"), _f_graph, 2, lambda n: n + 1),
)


def _build_atom(name: str) -> Graph:
    if name in _FIXED:
        return _FIXED[name]()
    for pattern, builder, minimum, edge_count in _PARAMETRIC:
        match = pattern.match(name)
        if match:
            value = int(match.group(1))
            if value < minimum:
                raise ValueError(f"parameter {value} too small for {name!r}")
            if value > MAX_INPUT_VERTICES:
                raise ValueError(f"{name!r} has more than {MAX_INPUT_VERTICES} vertices")
            if edge_count(value) > MAX_INPUT_EDGES:
                raise ValueError(f"{name!r} has more than {MAX_INPUT_EDGES} edges")
            return builder(value)
    raise ValueError(f"unknown graph name {name!r}")


def build_named(spec: str) -> Graph:
    """Construct a graph from a name.

    Atoms: ``K<n>``, ``C<n>``, ``P<n>``, ``K1_<leaves>``, ``F<k>``,
    ``K4_minus``, ``K3_plus``, ``K3_circ_K1``, ``H1``, ``H2``, ``H3``,
    ``Petersen``.  Atoms may be joined with ``+`` for disjoint unions and
    prefixed with a count, e.g. ``K3+2K2``.  At most ``MAX_INPUT_VERTICES``
    vertices and ``MAX_INPUT_EDGES`` edges in all.
    """
    result: Graph | None = None
    total = 0
    total_edges = 0
    for part in spec.split("+"):
        part = part.strip()
        count = 1
        match = re.match(r"^(\d+)(?=[A-Z])", part)
        if match:
            count = int(match.group(1))
            part = part[match.end():]
            if count < 1:
                raise ValueError(f"bad count {match.group(1)!r} in {spec!r}")
        if not part:
            raise ValueError(f"bad component {part!r} in {spec!r}")
        atom = _build_atom(part)
        total += count * atom.n
        total_edges += count * atom.m
        if total > MAX_INPUT_VERTICES:
            raise ValueError(f"{spec!r} has more than {MAX_INPUT_VERTICES} vertices")
        if total_edges > MAX_INPUT_EDGES:
            raise ValueError(f"{spec!r} has more than {MAX_INPUT_EDGES} edges")
        for _ in range(count):
            result = atom if result is None else disjoint_union(result, atom)
    return result
