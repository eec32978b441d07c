"""Exact, exponential-time reference algorithms.

Everything here is backtracking or subset enumeration over bitmask graphs;
no pruning rule can change an answer, only the time taken.  The embedding
and power-cycle searches keep the candidates of each level as one bitmask,
the AND of the adjacency rows that the placed vertices impose.
Isomorphism is that embedding search on two graphs of equal order and
size, so it shares nothing with the canonical labeller it is
cross-checked against.
The one induced pattern the sweep looks for, K2+3K1, has its own search
of nested bitmask loops (``induced_k2_3k1``).  The labeller's search tree takes one child at
a homogeneous node, where every permutation inside the cells is an
automorphism (see ``_canonical_search``), so cliques and stars cost one
refinement.  A graph with two or more components that have an edge is
labelled one component at a time, each distinct component searched once
(component recursion, see ``_canonical_adj``), so matchings and other
unions of many equal parts cost one small search.  Practical bound for
the exact searches: roughly 16 vertices.  All
searches are deterministic (ascending vertex order), so returned
witnesses are reproducible.

One constructor is not exhaustive: ``spanning_walk`` builds a spanning
cycle within a step budget (on g plus a dominating vertex for a path).  A
cycle it returns is a certificate that ``is_valid_in`` checks; its None
answers nothing, so a caller that needs a "no" runs the exhaustive search.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

from .graph6 import emit_graph6, graph6_from_edges
from .graphcore import (
    Graph,
    _bits,
    _closed_subgraph,
    _derived,
    add_dominating_vertex,
    coline,
    components,
    is_connected,
)


class CycleOrPath:
    """A simple cycle (closed) or simple path (open) in some host graph.

    Its ``len()`` is its number of vertices, so it is no tuple of its two
    fields; fields cannot be set or deleted.
    """

    vertices: tuple[int, ...]
    closed: bool

    def __init__(self, vertices: tuple[int, ...], closed: bool) -> None:
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "closed", closed)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vertices == other.vertices and self.closed == other.closed

    def __hash__(self) -> int:
        return hash((self.vertices, self.closed))

    def __repr__(self) -> str:
        return f"CycleOrPath(vertices={self.vertices!r}, closed={self.closed!r})"

    def __len__(self) -> int:
        return len(self.vertices)


def is_valid_in(walk: CycleOrPath, g: Graph) -> bool:
    """Check the walk really is a simple cycle/path of ``g``."""
    vs = walk.vertices
    if len(set(vs)) != len(vs) or any(not 0 <= v < g.n for v in vs):
        return False
    if walk.closed and len(vs) < 3:
        return False
    for a, b in zip(vs, vs[1:]):
        if not g.has_edge(a, b):
            return False
    if walk.closed and not g.has_edge(vs[-1], vs[0]):
        return False
    return True


class ToughnessWitness(NamedTuple):
    """A cutset S with c(G - S) > |S|, certifying non-toughness."""

    cutset: tuple[int, ...]
    components_after: int


class ToughnessResult(NamedTuple):
    value: bool
    witness: ToughnessWitness | None
    vacuous: bool  # no cutset exists at all (complete graphs)


class IsoCertificate(NamedTuple):
    """mapping[i] is the image in g2 of vertex i of g1."""

    mapping: tuple[int, ...]


def _independence_number(g: Graph) -> int:
    """The largest size of an independent vertex set, by branch and bound.

    ``is_tough`` and ``hamiltonian_cycle``, so also ``hamiltonian_path``,
    bound their search by it.  It is not cached: they run only where no
    certificate settles a verdict, and it costs little next to a search.
    """
    best = 0

    def grow(candidates: int, size: int) -> None:
        nonlocal best
        while size + candidates.bit_count() > best:
            if not candidates:
                best = size
                return
            # A vertex with at most one candidate neighbour lies in a largest
            # independent set of the candidates; otherwise branch on a vertex
            # of the most candidate neighbours, taken or left out.
            forced = next(
                (v for v in _bits(candidates) if (g.adj[v] & candidates).bit_count() <= 1), None
            )
            if forced is not None:
                candidates &= ~(g.adj[forced] | 1 << forced)
                size += 1
                continue
            v = max(_bits(candidates), key=lambda u: (g.adj[u] & candidates).bit_count())
            grow(candidates & ~(g.adj[v] | 1 << v), size + 1)
            candidates &= ~(1 << v)

    grow((1 << g.n) - 1, 0)
    return best


def _isolating_cutsets(g: Graph, size: int, with_edges: bool) -> list[tuple[int, ...]]:
    """The ``size``-sets that contain the whole neighbourhood of some vertex
    or, ``with_edges``, of some edge, in lexicographic order.

    For each such X, a vertex or the two ends of an edge, with |N(X)| at
    most ``size``, the sets are N(X) plus any size - |N(X)| vertices outside
    N[X]; each of them leaves X as a component.
    """
    pieces = [(1 << x, g.adj[x]) for x in range(g.n)]
    if with_edges:
        pieces += [(1 << u | 1 << v, g.adj[u] | g.adj[v]) for u, v in g.edges()]
    cuts = set()
    for piece, around in pieces:
        neighbours = around & ~piece
        if neighbours.bit_count() > size:
            continue
        around |= piece
        outside = [v for v in range(g.n) if not around >> v & 1]
        neighbours = tuple(_bits(neighbours))
        for extra in combinations(outside, size - len(neighbours)):
            cuts.add(tuple(sorted(neighbours + extra)))
    return sorted(cuts)


def is_tough(g: Graph) -> ToughnessResult:
    """1-toughness: connected and c(G - S) <= |S| for every cutset S.

    The witness is the lexicographically first violating cutset of the
    smallest violating size: () for a disconnected graph, with the one
    component count that decides connectivity.  Complete graphs, K0 and K1
    among them, have no cutset and come back vacuously tough.  Taking one
    vertex from each component of G - S gives an independent set, and
    c(G - S) <= n - |S|, so a violating S has |S| < min(n/2, alpha(G));
    larger cutsets are never tried.  A violating S of size s leaves more
    than s components on n - s vertices, the smallest X of at most
    floor((n - s)/(s + 1)) vertices, with N(X) inside S.  Where that bound
    is at most 2, X is a vertex or an edge, so only the sets holding the
    whole neighbourhood of one are tried (of a vertex only, where the bound
    is 1); every violating s-set is among them, so the first violating one
    is unchanged.  Other sizes try every s-set.
    """
    count = len(components(g))
    if count > 1:
        return ToughnessResult(False, ToughnessWitness((), count), False)
    if g.m == g.n * (g.n - 1) // 2:
        return ToughnessResult(True, None, True)
    full = (1 << g.n) - 1
    for size in range(1, min((g.n + 1) // 2, _independence_number(g))):
        smallest = (g.n - size) // (size + 1)  # most vertices of a smallest component
        if smallest <= 2:
            cuts = _isolating_cutsets(g, size, smallest == 2)
        else:
            cuts = combinations(range(g.n), size)
        for cut in cuts:
            mask = 0
            for v in cut:
                mask |= 1 << v
            count = len(components(g, full & ~mask))
            if count > size:
                return ToughnessResult(False, ToughnessWitness(cut, count), False)
    return ToughnessResult(True, None, False)


# --- Hamiltonian cycle / path / longest cycle ------------------------------

def _cycle_extend(g: Graph, path: list[int], visited: int, full: int) -> bool:
    """Extend ``path`` depth-first, in ascending vertex order, to a spanning
    cycle; True when one is found, with ``path`` holding it.

    A node is cut only when a remaining vertex has fewer than two possible
    cycle neighbours.  There is no connectivity cut (the remaining vertices
    plus the current end disconnected): on the dense colines searched here
    it costs more than it saves, and leaving a cut out keeps the order, so
    the cycle found is the same.
    """
    current = path[-1]
    if visited == full:
        return g.has_edge(current, path[0])
    remaining = full & ~visited
    # Every remaining vertex still needs two cycle neighbours drawn from the
    # remaining set plus the two open ends.
    ends = 1 << current | 1 << path[0]
    r = remaining
    while r:
        low = r & -r
        r ^= low
        if (g.adj[low.bit_length() - 1] & (remaining | ends)).bit_count() < 2:
            return False
    for v in _bits(g.adj[current] & remaining):
        path.append(v)
        if _cycle_extend(g, path, visited | 1 << v, full):
            return True
        path.pop()
    return False


def hamiltonian_cycle(g: Graph) -> CycleOrPath | None:
    """A spanning cycle, or None.  Graphs on fewer than 3 vertices have none.

    A spanning cycle holds at most floor(n/2) pairwise non-adjacent
    vertices, so a graph with a larger independent set has none and is not
    searched.
    """
    if g.n < 3 or not is_connected(g):
        return None
    if min(g.degrees()) < 2 or _independence_number(g) > g.n // 2:
        return None
    full = (1 << g.n) - 1
    path = [0]
    if _cycle_extend(g, path, 1, full):
        return CycleOrPath(tuple(path), True)
    return None


def hamiltonian_path(g: Graph) -> CycleOrPath | None:
    """A spanning path, or None.  A single vertex counts as traceable.

    ``g`` has a spanning path exactly when ``g`` plus a vertex u joined to
    all of it has a spanning cycle, and the path is that cycle without u.
    With u at index 0 the cycle search tries the paths of ``g`` from each
    start vertex in ascending order, so the path is the first in that
    order, and its independence bound is ceil(n/2) on alpha(g + u) =
    alpha(g).  A disconnected ``g`` is not searched: u would connect it.
    The empty graph counts as connected, and its g + u, K1, has no cycle.
    """
    if g.n == 1:
        return CycleOrPath((0,), False)
    if not is_connected(g):
        return None
    cycle = hamiltonian_cycle(add_dominating_vertex(g))
    if cycle is None:
        return None
    return CycleOrPath(tuple(v - 1 for v in cycle.vertices[1:]), False)


WALK_STARTS = 3  # start vertices spanning_walk tries, each with its own step budget


def spanning_walk(g: Graph) -> CycleOrPath | None:
    """A spanning cycle of ``g``, built by rotation and extension (Pósa
    1976), or None: None means that no cycle was built, never that ``g``
    has none.

    The path grows at its end to the lowest unvisited neighbour, or is
    reversed when only its head can grow.  When the end is adjacent to the
    head, the path closes into a cycle; if a vertex of that cycle has an
    unvisited neighbour, the cycle opens next to it so that the path can
    grow.  Otherwise the path rotates: for a neighbour path[i] of the end,
    reversing path[i+1:] makes path[i+1] the end.  Of those rotations the
    first whose new end can grow (or, on a spanning path, close the cycle)
    is taken, else one in turn.  Each of the first ``WALK_STARTS`` start
    vertices gets n*n steps, so the result is deterministic.
    """
    n, rows = g.n, g.adj
    if n < 3:
        return None
    full = (1 << n) - 1
    for start in range(min(n, WALK_STARTS)):
        path, on = [start], 1 << start
        for step in range(n * n):
            end, head = path[-1], path[0]
            free = rows[end] & ~on
            if free:
                free &= -free
                path.append(free.bit_length() - 1)
                on |= free
                continue
            if rows[head] & ~on:
                path.reverse()
                continue
            if rows[end] >> head & 1:
                if on == full:
                    return CycleOrPath(tuple(path), True)
                j = next((j for j, v in enumerate(path) if rows[v] & ~on), None)
                if j is None:
                    return None  # g is disconnected
                path = path[j + 1 :] + path[: j + 1]
                continue
            # new ends of the rotations, with the wanted ones first
            ends = [i + 1 for i, v in enumerate(path[:-2]) if rows[end] >> v & 1]
            if not ends:
                break
            wanted = 1 << head if on == full else ~on | 1 << head
            i = next((i for i in ends if rows[path[i]] & wanted), ends[step % len(ends)])
            path[i:] = path[i:][::-1]
    return None


def longest_cycle(g: Graph) -> CycleOrPath | None:
    """A cycle of maximum length, or None for forests.

    Ties break to the first cycle found in the deterministic search order
    (ascending start vertex, ascending neighbours).
    """
    ham = hamiltonian_cycle(g)
    if ham is not None:
        return ham
    best: list[int] | None = None

    def search(path: list[int], visited: int, start: int) -> None:
        nonlocal best
        current = path[-1]
        if len(path) >= 3 and g.has_edge(current, start):
            if best is None or len(path) > len(best):
                best = list(path)
        for v in _bits(g.adj[current] & ~visited):
            if v <= start:
                continue
            path.append(v)
            search(path, visited | 1 << v, start)
            path.pop()

    for start in range(g.n):
        search([start], 1 << start, start)
    if best is None:
        return None
    return CycleOrPath(tuple(best), True)


# --- canonical forms -------------------------------------------------------

def _refine(
    neighbours: list[list[int]], colors: tuple[int, ...], cells: list[list[int]]
) -> tuple[tuple[int, ...], list[list[int]]]:
    """Stable colour refinement; new colour ids depend only on invariants.
    Returns the colours and their cells, in colour order.

    ``neighbours[v]`` lists the neighbours of ``v``, and ``cells`` holds the
    vertices of each colour, in colour order and each in vertex order.  Each
    round gives every vertex the rank of its signature (its colour, its
    sorted neighbour colours) among all signatures, until no colour class
    splits.  Since the colour comes first, that rank is the number of
    signatures in earlier cells plus the rank inside the vertex's own cell,
    so a round splits the cells one by one, in colour order, and a
    singleton cell needs no neighbour colours.  A cell whose vertices share
    one signature is carried over as it is.  Refinement only splits cells,
    so once a round splits none, or leaves every cell a singleton, another
    round would return the same colours, and the loop stops.
    """
    while True:
        new = [0] * len(colors)
        split: list[list[int]] = []
        colour_of = colors.__getitem__
        for cell in cells:
            if len(cell) > 1:
                by_signature: dict[tuple[int, ...], list[int]] = {}
                for v in cell:
                    signature = tuple(sorted(map(colour_of, neighbours[v])))
                    part = by_signature.get(signature)
                    if part is None:
                        by_signature[signature] = [v]
                    else:
                        part.append(v)
                if len(by_signature) > 1:
                    for signature in sorted(by_signature):
                        part = by_signature[signature]
                        for v in part:
                            new[v] = len(split)
                        split.append(part)
                    continue
            colour = len(split)
            for v in cell:
                new[v] = colour
            split.append(cell)
        if len(split) == len(cells) or len(split) == len(new):
            return tuple(new), split
        colors, cells = new, split


def _neighbour_lists(g: Graph) -> list[list[int]]:
    """The neighbours of each vertex, ascending, from the cached edges."""
    # Lists, not tuples: CPython keeps freed small tuples on free lists, and
    # one tuple per vertex raised classify's peak RSS by about 0.4 MB.
    lists: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges():
        lists[u].append(v)
        lists[v].append(u)
    return lists


def _cells(colors: tuple[int, ...]) -> list[list[int]]:
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    return [cells[c] for c in sorted(cells)]


def _positions(ordering: list[int]) -> list[int]:
    """``position[v]``: the index of ``v`` in ``ordering``."""
    position = [0] * len(ordering)
    for i, v in enumerate(ordering):
        position[v] = i
    return position


def _adjacency_rows(g: Graph, position: list[int]) -> tuple[int, ...]:
    """The rows of ``g`` relabelled so that each vertex v becomes
    ``position[v]``, written from the cached edges."""
    rows = [0] * g.n
    for u, v in g.edges():
        a, b = position[u], position[v]
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return tuple(rows)


def _orbit_root(parent: list[int], v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _join_orbits(parent: list[int], pairs: Iterable[tuple[int, int]]) -> None:
    """Merge each pair ``(v, w)``, a vertex and its image, into the
    union-find ``parent``: ``enumerate(gamma)`` merges the orbits of gamma.

    Each root is the smallest vertex of its orbit.
    """
    for v, w in pairs:
        if v != w:
            a, b = _orbit_root(parent, v), _orbit_root(parent, w)
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b


def _permutations(n: int, found: list) -> Iterator[tuple[int, ...]]:
    """The automorphisms ``_canonical_search`` found, as permutations of
    0..n-1, built as they are read.  A homogeneous node's entry is its
    cells, a list, and stands for the adjacent transpositions of each."""
    for gamma in found:
        if gamma.__class__ is list:
            for cell in gamma:
                for u, v in zip(cell, cell[1:]):
                    mapping = list(range(n))
                    mapping[u], mapping[v] = v, u
                    yield tuple(mapping)
        else:
            yield gamma


def _homogeneous(adj: tuple[int, ...], cells: list[list[int]]) -> bool:
    """Whether every non-singleton cell of the equitable colouring ``cells``
    is a clique or an independent set, fully joined or not joined to every
    other cell; then every permutation inside the cells is an automorphism.

    Equitable means the vertices of a cell have equal neighbour counts in
    each cell, so one vertex per cell decides it.
    """
    firsts = []
    for cell in cells:
        if len(cell) > 1:
            mask = 0
            for v in cell:
                mask |= 1 << v
            firsts.append((cell[0], mask))
    return all(
        (adj[v] | 1 << v) & mask in (mask, mask & 1 << v) for v, _ in firsts for _, mask in firsts
    )


class _Node:
    """An internal node of the search tree on the current path."""

    __slots__ = ("colors", "cells", "at", "cell", "next", "orbits", "joined")

    def __init__(self, colors: tuple[int, ...], cells: list[list[int]], at: int):
        self.colors = colors
        self.cells = cells  # the refined colouring's cells, in colour order
        self.at = at
        self.cell = cells[at]  # the target cell, whose vertices are the children
        self.next = 0  # index in cell of the next child
        # Orbits of the generators that fix this node's prefix pointwise, a
        # union-find built when the second child is due.  Each time a child
        # is due it joins the generators found since, from ``joined`` on.
        self.orbits: list[int] | None = None
        self.joined = 0


def _canonical_adj(g: Graph) -> tuple[tuple[int, ...] | None, list[int], Iterable[tuple[int, ...]]]:
    """Canonical adjacency rows of ``g`` where the search built them, else
    None; the vertex ordering that gives them; and automorphisms of ``g``
    found on the way, built as they are read, once.

    A graph with at most one component that has an edge, whatever its
    isolated vertices, is labelled by one search (``_canonical_search``).
    Otherwise each component is labelled on its own, by component
    recursion (Junttila & Kaski, "Conflict propagation and component
    recursion for canonical labeling", TAPAS 2011): components with the
    same rows share one search, and the labelled components, each isolated
    vertex one of them, are sorted by (order, rows) and concatenated.
    That list depends only on the isomorphism class of ``g``.  Each
    component's rows are built for the sort; the whole graph's are not.
    The generators are those of the first component of each isomorphism
    class, lifted to ``g``, plus the swap of each consecutive pair of
    isomorphic components, which matches their vertices by canonical
    position.  Conjugating by the swaps gives each copy's automorphisms
    from the first copy's, so these generate Aut(g) whenever each
    search's generators generate its component's group.
    """
    parts = [mask for mask in components(g) if mask & mask - 1]  # those with an edge
    if len(parts) < 2:
        rows, ordering, found = _canonical_search(g)
        return rows, ordering, _permutations(g.n, found)
    searched: dict[tuple[int, ...], tuple] = {}  # a component's own rows: its search
    # (canonical rows, vertices in canonical order, vertices, what its search found)
    pieces = [((0,), [v], [v], ()) for v in range(g.n) if not g.adj[v]]
    for mask in parts:
        kept = list(_bits(mask))
        part = _closed_subgraph(g, kept)
        if part.adj not in searched:
            canon, ordering, found = _canonical_search(part)
            if canon is None:
                canon = _adjacency_rows(part, _positions(ordering))
            searched[part.adj] = canon, ordering, found
        canon, ordering, found = searched[part.adj]
        pieces.append((canon, [kept[i] for i in ordering], kept, found))
    pieces.sort(key=lambda piece: (len(piece[0]), piece[0]))
    ordering = [v for _, placed, _, _ in pieces for v in placed]
    return None, ordering, _lifted_generators(g.n, pieces)


def _lifted_generators(n: int, pieces: list) -> Iterator[tuple[int, ...]]:
    """The generators ``_canonical_adj`` gives a graph on ``n`` vertices
    from its sorted pieces, built as they are read: ``canonical_graph``
    reads none."""
    last, last_placed = None, []
    for canon, placed, kept, found in pieces:
        if canon == last:
            swap = list(range(n))
            for u, v in zip(last_placed, placed):
                swap[u], swap[v] = v, u
            yield tuple(swap)
        else:
            for gamma in _permutations(len(kept), found):
                lifted = list(range(n))
                for u, w in zip(kept, gamma):
                    lifted[u] = kept[w]
                yield tuple(lifted)
        last, last_placed = canon, placed


def _canonical_search(g: Graph) -> tuple[tuple[int, ...] | None, list[int], list]:
    """Adjacency rows of the minimum leaf of the individualisation-refinement
    tree, or None where the tree has one leaf; the vertex ordering of that
    leaf; and the automorphisms of ``g`` found on the way (generators of a
    subgroup of Aut(g)), for ``_permutations`` to build.

    A leaf's rows are built only when a second leaf is compared with it,
    so a graph whose refinement is discrete, or homogeneous at the root,
    builds none: its caller writes its canonical id from the ordering.

    A node individualises each vertex of the first non-singleton cell of its
    refined colouring in turn; a leaf's colouring is discrete and orders the
    vertices.  Two leaves with equal rows give an automorphism, and an
    automorphism that fixes a node's individualised prefix pointwise maps
    the subtree of one child onto the subtree of another with the same
    leaf rows.  So a child in the orbit of an explored sibling is skipped,
    and a leaf matching the first or best leaf returns straight to the node
    where its path leaves that leaf's path, whose subtree below is then an
    image of an explored one (McKay & Piperno, "Practical graph isomorphism
    II", J. Symb. Comp. 2014).  Only equivalent subtrees are skipped, so
    the minimum leaf is the one the full search would find.

    At a homogeneous node (``_homogeneous``), the permutations inside the
    cells are automorphisms that fix the prefix, and they map any leaf
    below onto any other, so all those leaves have the same rows.  The
    search takes the adjacent transpositions of each cell as generators,
    builds the leaf that descending the first child would reach, with no
    further refinement, and does not branch there.  So the minimum leaf is
    unchanged, and the generators still generate the group they did: those
    transpositions generate every automorphism fixing that node's prefix.
    They are recorded as the node's cells, not as permutations: an
    ancestor's orbit join reads their vertex pairs, and only a caller that
    iterates the generators builds them (``_permutations``).
    """
    n = g.n
    path: list[int] = []  # path[level]: the vertex individualised at that level
    stack: list[_Node] = []  # stack[level]: the node whose prefix is path[:level]
    generators: list = []  # permutations, and the cells of homogeneous nodes
    first = best = None  # [rows or None, ordering, path] of the first and best leaf
    neighbours = _neighbour_lists(g)
    degrees = g.degrees()
    colors, cells = _refine(neighbours, degrees, _cells(degrees))
    while True:
        target = None  # the first non-singleton cell, cells[at]
        for at, cell in enumerate(cells):
            if len(cell) > 1:
                target = cell
                break
        if target is not None and not _homogeneous(g.adj, cells):
            stack.append(_Node(colors, cells, at))
        else:
            if target is not None:
                # Every permutation inside the cells is an automorphism that
                # fixes the prefix, so every leaf below has the same rows:
                # take the first, where each individualised vertex moves to
                # the front and nothing else splits.
                generators.append(cells)
                descent = [v for cell in cells for v in cell[:-1]]
                path += descent
                ordering = descent[::-1] + [cell[-1] for cell in cells]
            else:
                ordering = [cell[0] for cell in cells]
            if first is None:
                first = best = [None, ordering, path[:]]
            else:
                if first[0] is None:  # the first leaf, compared for the first time
                    first[0] = _adjacency_rows(g, _positions(first[1]))
                rows = _adjacency_rows(g, _positions(ordering))
                if rows == first[0] or rows == best[0]:
                    _, ref_ordering, ref_path = first if rows == first[0] else best
                    mapping = [0] * n
                    for u, v in zip(ref_ordering, ordering):
                        mapping[u] = v
                    gamma = tuple(mapping)
                    fixed = 0  # gamma fixes path[:fixed] pointwise
                    while fixed < len(path) and gamma[path[fixed]] == path[fixed]:
                        fixed += 1
                    if fixed < len(path):  # otherwise gamma is the identity
                        generators.append(gamma)
                    # Neither path of two distinct leaves is a prefix of the
                    # other.  Where they part, gamma maps the explored child's
                    # subtree onto the current one: go back to that node.
                    split = 0
                    while path[split] == ref_path[split]:
                        split += 1
                    if split <= fixed and gamma[ref_path[split]] == path[split]:
                        del stack[split + 1 :]
                elif rows < best[0]:
                    best = [rows, ordering, path[:]]
        # Advance to the next child that no automorphism rules out.
        while stack:
            level = len(stack) - 1
            node = stack[-1]
            cell, index, orbits = node.cell, node.next, node.orbits
            if index > 0:
                if orbits is None:
                    orbits = node.orbits = list(range(n))
                prefix = path[:level]
                for gamma in generators[node.joined :]:
                    if gamma.__class__ is list:  # a homogeneous node's cells
                        _join_orbits(orbits, [
                            (u, v)  # a transposition, kept where it fixes the prefix
                            for cell in gamma
                            for u, v in zip(cell, cell[1:])
                            if u not in prefix and v not in prefix
                        ])
                    elif all(gamma[p] == p for p in prefix):
                        _join_orbits(orbits, enumerate(gamma))
                node.joined = len(generators)
                # Every earlier vertex of the cell was explored or is in the
                # orbit of one that was, so a vertex that is not the smallest
                # of its orbit is covered.
                while index < len(cell) and _orbit_root(orbits, cell[index]) != cell[index]:
                    index += 1
            if index == len(cell):
                stack.pop()
                continue
            v = cell[index]
            node.next = index + 1
            del path[level:]
            path.append(v)
            # v takes colour -1, first of all, and leaves its cell; the
            # other cells keep their colours and order
            individualised = list(node.colors)
            individualised[v] = -1
            cells = [[v]] + node.cells
            cells[node.at + 1] = cell[:index] + cell[index + 1 :]
            colors, cells = _refine(neighbours, tuple(individualised), cells)
            break
        else:
            return best[0], best[1], generators


def _canonical_labelling(
    n: int, adj: tuple[int, ...]
) -> tuple[Graph, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The canonical graph of ``Graph(n, adj)``, the position in it of each
    input vertex, and the found automorphisms conjugated onto it.

    Only the class enumeration calls this, and nothing is cached: it labels
    each child once, so a cache keyed on labelled rows would only grow.
    """
    g = _derived(n, adj)
    rows, ordering, generators = _canonical_adj(g)
    position = _positions(ordering)
    conjugated = tuple(tuple(position[gamma[v]] for v in ordering) for gamma in generators)
    if rows is None:
        rows = _adjacency_rows(g, position)
    return _derived(n, rows), tuple(position), conjugated


def canonical_graph(g: Graph) -> Graph:
    """A canonically relabelled copy; equal for isomorphic inputs."""
    rows, ordering, _ = _canonical_adj(g)
    return _derived(g.n, _adjacency_rows(g, _positions(ordering)) if rows is None else rows)


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: the graph6 of ``canonical_graph(g)``, written
    straight from the labeller's vertex order applied to ``g.edges()``, with
    no rows built where the search built none."""
    position = _positions(_canonical_adj(g)[1])
    return graph6_from_edges(g.n, [(position[u], position[v]) for u, v in g.edges()])


# --- subgraph containment and isomorphism ----------------------------------

def _embed(host: Graph, pattern: Graph) -> tuple[int, ...] | None:
    """An injective map of pattern into host keeping every edge, as the
    host image of each pattern vertex; None if there is none.

    Pattern vertices are placed one per level, most constrained first.  The
    candidates of a level are one host bitmask: the unused host vertices of
    at least the pattern vertex's degree, ANDed with the host row of every
    placed pattern-neighbour's image.  The search keeps its levels on a
    list, not the call stack, so it takes patterns of any order.
    """
    if pattern.n > host.n or pattern.m > host.m:
        return None
    host_degs, pat_degs = host.degrees(), pattern.degrees()
    pairs = zip(sorted(pat_degs, reverse=True), sorted(host_degs, reverse=True))
    if any(p > h for p, h in pairs):
        return None
    # Place pattern vertices most-constrained first: the most placed
    # neighbours, then the higher degree, then the lower index.  key[v] is
    # v's rank by degree less n per placed neighbour, or n*n once placed.
    n = pattern.n
    key = [0] * n
    for rank, v in enumerate(sorted(range(n), key=lambda u: -pat_degs[u])):
        key[v] = rank
    level = [-1] * n  # level[v]: v's position in order, -1 unplaced
    order: list[int] = []
    for i in range(n):
        v = key.index(min(key))
        level[v] = i
        order.append(v)
        key[v] = n * n
        for u in _bits(pattern.adj[v]):
            if level[u] < 0:
                key[u] -= n

    # at_least[d]: the host vertices of degree d or more
    at_least = [0] * (max(host_degs, default=0) + 2)
    for w, d in enumerate(host_degs):
        at_least[d] |= 1 << w
    for d in range(len(at_least) - 2, -1, -1):
        at_least[d] |= at_least[d + 1]
    # Per level: the eligible host vertices, and the placed pattern
    # vertices whose images must be adjacent to this one's.
    eligible = [at_least[pat_degs[v]] for v in order]
    joined = [[u for u in _bits(pattern.adj[v]) if level[u] < i] for i, v in enumerate(order)]

    rows = host.adj
    images = [0] * n  # images[v]: the host vertex of pattern vertex v
    untried = []  # per placed level: its candidates not yet tried, and the used mask before it
    used = 0
    while len(untried) < n:
        i = len(untried)
        candidates = eligible[i] & ~used
        for u in joined[i]:
            candidates &= rows[images[u]]
        while not candidates:  # back to the deepest level with a candidate left
            if not untried:
                return None
            candidates, used = untried.pop()
        low = candidates & -candidates
        images[order[len(untried)]] = low.bit_length() - 1
        untried.append((candidates ^ low, used))
        used |= low
    return tuple(images)


def contains_subgraph(host: Graph, pattern: Graph) -> bool:
    """Non-induced subgraph containment."""
    return _embed(host, pattern) is not None


def induced_k2_3k1(g: Graph) -> tuple[int, int, int, int, int] | None:
    """Vertices ``(a, b, x, y, z)`` that induce K2+3K1 in ``g``, the
    lexicographically first, or None.

    ab is an edge, and x < y < z are pairwise non-adjacent and adjacent to
    neither a nor b.  So for each edge ab in order, the search takes the
    vertices R outside N(a) and N(b), and looks in R for an x, then a y
    in R above x and outside N(x), then a z likewise, each set one bitmask.
    Every coline is free of K2+3K1, the complement of K5 - e, since no line
    graph has an induced K5 - e (Beineke 1970); the sweep checks that with
    this search, which reads only ``g.adj``.
    """
    rows, full = g.adj, (1 << g.n) - 1
    for a, row in enumerate(rows):
        later = row >> a + 1 << a + 1
        while later:
            low = later & -later
            later ^= low
            b = low.bit_length() - 1
            xs = full & ~(row | rows[b])  # N(a) holds b and N(b) holds a
            if xs.bit_count() < 3:
                continue
            # each mask keeps only vertices above the one just taken
            while xs:
                low = xs & -xs
                xs ^= low
                x = low.bit_length() - 1
                ys = xs & ~rows[x]
                while ys:
                    low = ys & -ys
                    ys ^= low
                    y = low.bit_length() - 1
                    zs = ys & ~rows[y]
                    if zs:
                        return a, b, x, y, (zs & -zs).bit_length() - 1
    return None


def is_isomorphic(g1: Graph, g2: Graph) -> IsoCertificate | None:
    """An isomorphism from g1 onto g2, found by the containment search.

    On graphs of equal order and size, an injective map that keeps every
    edge of g1 is onto and keeps every non-edge too.  Independent of
    canonical_form (no colour refinement); the two are cross-checked in
    tests.
    """
    if g1.n != g2.n or g1.m != g2.m:
        return None
    images = _embed(g2, g1)
    return None if images is None else IsoCertificate(images)


# --- powers of Hamiltonian cycles, cms --------------------------------------

def contains_power_ham_cycle(l: Graph, k: int) -> bool:
    """Does some cyclic vertex ordering have all pairs at cyclic distance
    <= k adjacent?  k = 0 is trivially satisfiable; k = 1 is Hamiltonicity.

    Vertex 0 takes position 0 and the search fills positions 1, 2, ... in
    turn.  The candidates of a position are one bitmask: the unused
    vertices, ANDed with the rows of the last k placed vertices and, in the
    last k positions, with the rows of the first vertices the window wraps
    round to.  A node is pruned when an unused vertex has fewer than 2k
    neighbours among the unused vertices and the open ends (the first and
    the last k placed), since its window neighbours can lie nowhere else.
    The second vertex is kept below the last, so each cycle is tried in one
    direction only.  The sweep runs it with k = 1 to cross-check
    ``hamiltonian_cycle``, so it shares no code with that search and skips
    no graph by its independence number.
    """
    if k < 0:
        raise ValueError("power must be non-negative")
    if k == 0:
        return True
    n = l.n
    if n < 3:
        return False
    if 2 * k >= n - 1:
        return l.m == n * (n - 1) // 2
    if min(l.degrees()) < 2 * k:
        return False
    rows = l.adj
    order = [0] * n

    def place(i: int, unused: int, head: int) -> bool:
        # head: the mask of the first k placed vertices
        if not unused:
            return True
        reach = unused | head
        candidates = unused
        for v in order[max(0, i - k) : i]:
            reach |= 1 << v
            candidates &= rows[v]
        rest = unused
        while rest:
            low = rest & -rest
            rest ^= low
            if (rows[low.bit_length() - 1] & reach).bit_count() < 2 * k:
                return False
        if i >= n - k:
            for v in order[: i + k - n + 1]:
                candidates &= rows[v]
        if i == n - 1:
            candidates &= -(2 << order[1])  # fix direction: second below last
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            order[i] = low.bit_length() - 1
            if place(i + 1, unused ^ low, head | low if i < k else head):
                return True
        return False

    return place(1, (1 << n) - 2, 1)


def cms_exact(g: Graph) -> int:
    """Largest k >= 1 with the coline graph containing the (k-1)-th power
    of a Hamiltonian cycle; 1 is always attainable.
    """
    if g.m == 0:
        raise ValueError("cms needs at least one edge")
    l, _ = coline(g)
    k = 1
    while k < g.m and contains_power_ham_cycle(l, k):
        k += 1
    return k


# --- root search -------------------------------------------------------------

class RootSearch(NamedTuple):
    roots: tuple[Graph, ...]
    complete: bool  # False when larger roots could exist beyond the budget


def _pair_orbit(pair: tuple[int, int], generators) -> set[tuple[int, int]]:
    """The orbit of the vertex pair ``pair`` (u < v) under ``generators``."""
    orbit = {pair}
    frontier = [pair]
    while frontier:
        u, v = frontier.pop()
        for gamma in generators:
            a, b = gamma[u], gamma[v]
            image = (a, b) if a < b else (b, a)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


def _augmentations(g: Graph, generators, max_vertices: int):
    """One-edge extensions ``(rows, edge)`` keeping every vertex
    non-isolated, one per orbit of the group ``generators`` generate,
    leaving out those ``_accept`` would reject by degree sum alone.

    Every generator is an automorphism of ``g``, so a skipped extension is
    isomorphic to a kept one, with the added edges corresponding.  Adding
    an edge raises each degree by at most one, so every edge of ``g`` keeps
    at least its degree sum in the child.  A child whose added edge has a
    smaller sum than the largest over ``g``'s edges is then not top-rated,
    and is skipped before its orbit is taken or its rows built.  The added
    edge's sum is deg(u) + deg(v) + 2, deg(u) + 2 to a new vertex, and 2 for
    a new K2.  Automorphisms keep degrees, so a skipped pair's whole orbit
    would be skipped too, and the kept children and their order are those
    of the unpruned walk.
    """
    n = g.n
    degrees = g.degrees()
    # the least deg(u) + deg(v) an added edge needs to be top-rated
    need = max(degrees[u] + degrees[v] for u, v in g.edges()) - 2

    def extended(rows: tuple[int, ...], u: int, v: int) -> tuple[int, ...]:
        grown = list(rows)
        grown[u] |= 1 << v
        grown[v] |= 1 << u
        return tuple(grown)

    seen: set[tuple[int, int]] = set()
    for u in range(n):
        for v in range(u + 1, n):
            if degrees[u] + degrees[v] >= need and not g.adj[u] >> v & 1 and (u, v) not in seen:
                seen |= _pair_orbit((u, v), generators)
                yield extended(g.adj, u, v), (u, v)
    if n + 1 <= max_vertices and max(degrees) >= need:
        orbits = list(range(n))
        for gamma in generators:
            _join_orbits(orbits, enumerate(gamma))
        for u in range(n):
            if orbits[u] == u and degrees[u] >= need:
                yield extended(g.adj + (0,), u, n), (u, n)
    if n + 2 <= max_vertices and need <= 0:
        yield extended(g.adj + (0, 0), n, n + 1), (n, n + 1)


def _accept(rows: tuple[int, ...], edge: tuple[int, int]):
    """``(canonical child, its generators)`` if ``edge`` is the canonical
    deletion edge of the child with adjacency ``rows``, up to automorphism;
    else None.

    ``edge`` is the edge added to grow the child.  Edges are rated by an
    isomorphism invariant (degree sum, smaller degree, common neighbours);
    the canonical deletion edge is the top-rated edge with the smallest
    canonical endpoint pair.  The orbit is taken under the generators the
    labeller found, which generate all of Aut(child) (a tested property).
    """

    degrees = [row.bit_count() for row in rows]

    def rating(u: int, v: int) -> tuple[int, int]:  # between edges of equal degree sum
        return min(degrees[u], degrees[v]), (rows[u] & rows[v]).bit_count()

    total = degrees[edge[0]] + degrees[edge[1]]
    top = rating(*edge)
    top_rated = []
    for u, du in enumerate(degrees):
        later = rows[u] >> u + 1 << u + 1
        while later:
            low = later & -later
            later ^= low
            v = low.bit_length() - 1
            if du + degrees[v] < total:
                continue
            if du + degrees[v] > total:
                return None  # rejected unlabelled: the deletion edge is top-rated
            r = rating(u, v)
            if r > top:
                return None
            if r == top:
                top_rated.append((u, v))
    canon, position, generators = _canonical_labelling(len(rows), rows)

    def relabelled(e: tuple[int, int]) -> tuple[int, int]:
        a, b = position[e[0]], position[e[1]]
        return (a, b) if a < b else (b, a)

    deletion = min(relabelled(e) for e in top_rated)
    added = relabelled(edge)
    if added in _pair_orbit(deletion, generators):
        return canon, generators
    return None


def iter_graph_classes(max_vertices: int, max_edges: int):
    """Isomorphism classes with 1..max_edges edges and no isolated vertices.

    Canonical augmentation (McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 26, 1998): every class with m+1 edges arises from a class
    with m edges by adding one edge, since deleting any edge and dropping
    the isolated endpoints inverts it.  Each class tries one added edge per
    orbit of its automorphisms found by the canonical labelling, and a
    child is kept only when the added edge is its canonical deletion edge
    up to automorphism, that is, when this class is its canonical parent.
    Children whose added edge does not have the top rating are rejected
    without being labelled.  Since each class is reached exactly once, the
    walk is depth-first over one stack, with no dedup and no memo: it
    yields canonical representatives in depth-first order, each before its
    children, and holds only the stack, so a finished walk leaves nothing
    behind.  ``iter_class_tree`` is the same walk from any class down.
    """
    for g, _ in iter_class_tree(max_vertices, max_edges):
        yield g


def iter_class_tree(max_vertices: int, max_edges: int, root=None):
    """``(class, generators)`` for ``root`` and every class below it in the
    tree of canonical parents, with at most max_vertices vertices and
    max_edges edges, in ``iter_graph_classes``'s depth-first order.

    ``root`` is a ``(class, generators)`` pair this walk yielded; by
    default it is the single edge, the root of the whole tree.  The
    generators are the automorphisms the labeller found, which the walk
    needs to grow the class, so a walk down to some edge count can hand
    the classes it reaches to other walks, and together those walks yield
    what one walk from the top would.
    """
    if max_vertices < 2 or max_edges < 1:
        return
    if root is None:
        edge, _, generators = _canonical_labelling(2, (2, 1))
        root = (edge, generators)
    stack = [root]
    while stack:
        parent, generators = stack.pop()
        yield parent, generators
        if parent.m < max_edges:
            for rows, added in _augmentations(parent, generators, max_vertices):
                accepted = _accept(rows, added)
                if accepted is not None:
                    stack.append(accepted)


def find_roots(l: Graph) -> RootSearch:
    """All isomorphism classes of graphs G without isolated vertices on at
    most 8 vertices (the search budget) with coline(G) isomorphic to ``l``.
    """
    max_vertices = 8
    m = l.n
    if m > max_vertices * (max_vertices - 1) // 2:
        return RootSearch((), False)  # no m-edge graph fits on max_vertices vertices
    target = canonical_form(l)
    roots = []
    if m == 0:
        roots.append(Graph(0, ()))
    else:
        target_edges = l.m
        for g in iter_graph_classes(max_vertices, m):
            if g.m != m:
                continue
            pairs = m * (m - 1) // 2
            adjacent_pairs = sum(d * (d - 1) // 2 for d in g.degrees())
            if pairs - adjacent_pairs != target_edges:
                continue
            cg, _ = coline(g)
            if canonical_form(cg) == target:
                roots.append(g)
    roots.sort(key=emit_graph6)
    complete = max_vertices >= 2 * m
    return RootSearch(tuple(roots), complete)
