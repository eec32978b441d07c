"""Exact, exponential-time reference algorithms.

Everything here is backtracking or subset enumeration over bitmask graphs;
no pruning rule can change an answer, only the time taken.  The embedding
and power-cycle searches keep the candidates of each level as one bitmask,
the AND of the adjacency rows that the placed vertices impose, and the
embedding search places the images of a twin class of the pattern in
increasing order, since permuting twins is an automorphism.  Isomorphism
is that embedding search on two graphs of equal order and size, so it
shares nothing with the canonical labeller it is cross-checked against.
The one induced pattern the sweep looks for, K2+3K1, has its own search
of nested bitmask loops (``induced_k2_3k1``).  The labeller's search tree takes one child at
a homogeneous node, where every permutation inside the cells is an
automorphism (see ``_canonical_adj``), so cliques and stars cost one
refinement.  Practical bound: roughly 16 vertices.  All
searches are deterministic (ascending vertex order), so returned
witnesses are reproducible.

One constructor is not exhaustive: ``spanning_walk`` builds a spanning
cycle or path by rotation and extension within a step budget.  A walk it
returns is a certificate that ``is_valid_in`` checks; its None answers
nothing, so a caller that needs a "no" runs the exhaustive search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graph6 import emit_graph6
from .graphcore import Graph, _bits, _derived, add_dominating_vertex, coline, components, is_connected


@dataclass(frozen=True)
class CycleOrPath:
    """A simple cycle (closed) or simple path (open) in some host graph."""

    vertices: tuple[int, ...]
    closed: bool

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


@dataclass(frozen=True)
class ToughnessWitness:
    """A cutset S with c(G - S) > |S|, certifying non-toughness."""

    cutset: tuple[int, ...]
    components_after: int


@dataclass(frozen=True)
class ToughnessResult:
    value: bool
    witness: ToughnessWitness | None
    vacuous: bool  # no cutset exists at all (complete graphs)


@dataclass(frozen=True)
class IsoCertificate:
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
    smallest violating size.  Complete graphs have no cutset and come back
    vacuously tough.  Taking one vertex from each component of G - S gives
    an independent set, and c(G - S) <= n - |S|, so a violating S has
    |S| < min(n/2, alpha(G)); larger cutsets are never tried.  A violating
    S of size s leaves more than s components on n - s vertices, the
    smallest X of at most floor((n - s)/(s + 1)) vertices, with N(X) inside
    S.  Where that bound is at most 2, X is a vertex or an edge, so only the
    sets holding the whole neighbourhood of one are tried (of a vertex only,
    where the bound is 1); every violating s-set is among them, so the
    first violating one is unchanged.  Other sizes try every s-set.
    """
    if g.n == 0:
        return ToughnessResult(True, None, True)
    if not is_connected(g):
        count = len(components(g))
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
    """
    if g.n == 0:
        return None
    if g.n == 1:
        return CycleOrPath((0,), False)
    if not is_connected(g):
        return None
    cycle = hamiltonian_cycle(add_dominating_vertex(g))
    if cycle is None:
        return None
    return CycleOrPath(tuple(v - 1 for v in cycle.vertices[1:]), False)


WALK_STARTS = 3  # start vertices spanning_walk tries, each with its own step budget


def spanning_walk(g: Graph, closed: bool) -> CycleOrPath | None:
    """A spanning cycle (``closed``) or spanning path of ``g``, built by
    rotation and extension (Pósa 1976), or None: None means that no walk
    was built, never that ``g`` has none.

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
    if n < (3 if closed else 1):
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
            if on == full and (not closed or rows[end] >> head & 1):
                return CycleOrPath(tuple(path), closed)
            if on != full and rows[end] >> head & 1:
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
    neighbours: list[list[int]], colors: tuple[int, ...]
) -> tuple[tuple[int, ...], list[list[int]]]:
    """Stable colour refinement; new colour ids depend only on invariants.
    Returns the colours and their cells, in colour order.

    ``neighbours[v]`` lists the neighbours of ``v``.  Each round gives every
    vertex the rank of its signature (its colour, its sorted neighbour
    colours) among all signatures, until no colour class splits.  Since the
    colour comes first, that rank is the number of signatures in earlier
    cells plus the rank inside the vertex's own cell, so a round splits the
    cells one by one, in colour order, and a singleton cell needs no
    neighbour colours.  Refinement only splits cells, so once a round splits
    none, or leaves every cell a singleton, another round would return the
    same colours, and the loop stops.
    """
    cells = _cells(colors)
    while True:
        new = [0] * len(colors)
        split: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                parts = [cell]
            else:
                by_signature: dict[tuple[int, ...], list[int]] = {}
                for v in cell:
                    signature = tuple(sorted(map(colors.__getitem__, neighbours[v])))
                    part = by_signature.get(signature)
                    if part is None:
                        by_signature[signature] = [v]
                    else:
                        part.append(v)
                parts = [by_signature[signature] for signature in sorted(by_signature)]
            for part in parts:
                for v in part:
                    new[v] = len(split)
                split.append(part)
        if len(split) == len(cells) or len(split) == len(new):
            return tuple(new), split
        colors, cells = new, split


def _neighbour_lists(g: Graph) -> list[list[int]]:
    # Lists, not tuples: CPython keeps freed small tuples on free lists, and
    # one tuple per vertex raised classify's peak RSS by about 0.4 MB.
    lists = []
    for row in g.adj:
        neighbours = []
        while row:
            low = row & -row
            neighbours.append(low.bit_length() - 1)
            row ^= low
        lists.append(neighbours)
    return lists


def _cells(colors: tuple[int, ...]) -> list[list[int]]:
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    return [cells[c] for c in sorted(cells)]


def _adjacency_rows(neighbours: list[list[int]], ordering: list[int]) -> tuple[int, ...]:
    position = [0] * len(ordering)
    for i, v in enumerate(ordering):
        position[v] = i
    rows = []
    for v in ordering:
        row = 0
        for u in neighbours[v]:
            row |= 1 << position[u]
        rows.append(row)
    return tuple(rows)


def _orbit_root(parent: list[int], v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _join_orbits(parent: list[int], gamma: tuple[int, ...]) -> None:
    """Merge the orbits of ``gamma`` into the union-find ``parent``.

    Each root is the smallest vertex of its orbit.
    """
    for v, w in enumerate(gamma):
        if v != w:
            a, b = _orbit_root(parent, v), _orbit_root(parent, w)
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b


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

    __slots__ = ("colors", "cell", "next", "orbits", "joined")

    def __init__(self, colors: tuple[int, ...], cell: list[int]):
        self.colors = colors
        self.cell = cell  # the target cell, whose vertices are the children
        self.next = 0  # index in cell of the next child
        # Orbits of the generators that fix this node's prefix pointwise, a
        # union-find built when the second child is due.  Each time a child
        # is due it joins the generators found since, from ``joined`` on.
        self.orbits: list[int] | None = None
        self.joined = 0


def _canonical_adj(g: Graph) -> tuple[tuple[int, ...], list[int], list[tuple[int, ...]]]:
    """Adjacency rows of the minimum leaf of the individualisation-refinement
    tree, the vertex ordering of that leaf, and the automorphisms of ``g``
    found on the way (generators of a subgroup of Aut(g)).

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
    search appends the adjacent transpositions of each cell to the
    generators, builds the leaf that descending the first child would
    reach, with no further refinement, and does not branch there.  So the
    minimum leaf is unchanged, and the generators still generate the group
    they did: those transpositions generate every automorphism fixing that
    node's prefix.
    """
    n = g.n
    if n <= 1:
        return g.adj, list(range(n)), []
    path: list[int] = []  # path[level]: the vertex individualised at that level
    stack: list[_Node] = []  # stack[level]: the node whose prefix is path[:level]
    generators: list[tuple[int, ...]] = []
    first = best = None  # (rows, ordering, path) of the first and best leaf
    neighbours = _neighbour_lists(g)
    colors, cells = _refine(neighbours, g.degrees())
    while True:
        target = next((cell for cell in cells if len(cell) > 1), None)
        if target is not None and not _homogeneous(g.adj, cells):
            stack.append(_Node(colors, target))
        else:
            if target is not None:
                # Every permutation inside the cells is an automorphism that
                # fixes the prefix, so every leaf below has the same rows:
                # take the first, where each individualised vertex moves to
                # the front and nothing else splits.
                for cell in cells:
                    for u, v in zip(cell, cell[1:]):
                        mapping = list(range(n))
                        mapping[u], mapping[v] = v, u
                        generators.append(tuple(mapping))
                descent = [v for cell in cells for v in cell[:-1]]
                path += descent
                ordering = descent[::-1] + [cell[-1] for cell in cells]
            else:
                ordering = [cell[0] for cell in cells]
            rows = _adjacency_rows(neighbours, ordering)
            if first is None:
                first = best = (rows, ordering, path[:])
            elif rows == first[0] or rows == best[0]:
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
                best = (rows, ordering, path[:])
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
                    if all(gamma[p] == p for p in prefix):
                        _join_orbits(orbits, gamma)
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
            individualised = tuple(c if u != v else -1 for u, c in enumerate(node.colors))
            colors, cells = _refine(neighbours, individualised)
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
    rows, ordering, generators = _canonical_adj(_derived(n, adj))
    position = [0] * n
    for i, v in enumerate(ordering):
        position[v] = i
    conjugated = tuple(tuple(position[gamma[v]] for v in ordering) for gamma in generators)
    return _derived(n, rows), tuple(position), conjugated


def canonical_graph(g: Graph) -> Graph:
    """A canonically relabelled copy; equal for isomorphic inputs."""
    return _derived(g.n, _canonical_adj(g)[0])


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string (graph6 of the canonical relabelling)."""
    return emit_graph6(canonical_graph(g)).encode("ascii")


# --- subgraph containment and isomorphism ----------------------------------

def _twin_classes(g: Graph) -> list[int]:
    """``label[v]``: the smallest vertex twin to ``v``, where u and v are
    twins when N(u) minus v equals N(v) minus u.

    Twins are adjacent with equal closed neighbourhoods or non-adjacent with
    equal open ones, and a third vertex cannot be a twin of one kind to u
    and of the other to v, so the relation is an equivalence.  Every
    permutation of a class fixes the rest and is an automorphism of g.  An
    open and a closed neighbourhood are never equal, so one table maps each
    to the first vertex that has it.
    """
    first: dict[int, int] = {}
    return [
        min(first.setdefault(row, v), first.setdefault(row | 1 << v, v))
        for v, row in enumerate(g.adj)
    ]


def _embed(host: Graph, pattern: Graph) -> tuple[int, ...] | None:
    """An injective map of pattern into host keeping every edge, as the
    host image of each pattern vertex; None if there is none.

    Pattern vertices are placed one per level, most constrained first.  The
    candidates of a level are one host bitmask: the unused host vertices of
    at least the pattern vertex's degree, ANDed with the host row of every
    placed pattern-neighbour's image.  Permuting a twin class of the
    pattern is an automorphism, so each class places its images in
    increasing order, which keeps one embedding of each set of equivalent
    ones.  The search keeps its levels on a list, not the call stack, so it
    takes patterns of any order.
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
    # Per level: the eligible host vertices, the placed pattern vertices
    # whose images must be adjacent to this one's, and the latest placed
    # vertex of the same twin class (-1 if none).
    twin = _twin_classes(pattern)
    latest: dict[int, int] = {}
    eligible, joined, previous = [], [], []
    for i, v in enumerate(order):
        eligible.append(at_least[pat_degs[v]])
        joined.append([u for u in _bits(pattern.adj[v]) if level[u] < i])
        previous.append(latest.get(twin[v], -1))
        latest[twin[v]] = v

    rows = host.adj
    images = [0] * n  # images[v]: the host vertex of pattern vertex v
    untried = []  # per placed level: its candidates not yet tried, and the used mask before it
    used = 0
    while len(untried) < n:
        i = len(untried)
        candidates = eligible[i] & ~used
        for u in joined[i]:
            candidates &= rows[images[u]]
        if previous[i] >= 0:
            candidates &= -(2 << images[previous[i]])  # images above the twin's
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

@dataclass(frozen=True)
class RootSearch:
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
            _join_orbits(orbits, gamma)
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
