import pickle
import random
from itertools import combinations

import pytest

from coline.graph6 import emit_graph6, parse_edge_list, parse_graph6
from coline.graphcore import (
    Graph,
    add_dominating_vertex,
    build_named,
    coline,
    complement,
    components,
    disjoint_union,
    line_graph,
    strip_isolated,
)
from coline.oracle import canonical_graph, is_isomorphic


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, (2,))  # wrong adjacency length
    with pytest.raises(ValueError):
        Graph(2, (1, 1))  # self-loop at 0
    with pytest.raises(ValueError):
        Graph(2, (2, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 1), (1, 0)])  # duplicate
    with pytest.raises(ValueError):
        Graph.from_edges(-1, [])  # negative vertex count
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])  # endpoint out of range
    with pytest.raises(ValueError, match="^self-loop at 1$"):
        Graph.from_edges(2, [(1, 1)])
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert g.m == 2
    assert g.degrees() == (1, 2, 1)
    assert g.edges() == ((0, 1), (1, 2))


def _reference_validation_error(n: int, adj: tuple[int, ...]) -> str | None:
    """The constructor's checks as a loop over every matrix bit."""
    if n < 0:
        return "vertex count must be non-negative"
    if len(adj) != n:
        return "adjacency length does not match vertex count"
    full = (1 << n) - 1
    for v, mask in enumerate(adj):
        if mask & ~full:
            return f"vertex {v} has neighbours outside 0..{n - 1}"
        if mask >> v & 1:
            return f"vertex {v} has a self-loop"
    for v in range(n):
        for u in range(n):
            if adj[v] >> u & 1 and not adj[u] >> v & 1:
                return f"adjacency not symmetric at ({v}, {u})"
    return None


def _random_symmetric(rng: random.Random, n: int, density: float) -> list[int]:
    adj = [0] * n
    for u, v in combinations(range(n), 2):
        if rng.random() < density:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


def test_graph_validation_matches_per_bit_reference():
    rng = random.Random(2024)
    for n in list(range(41)) + [63, 64, 65, 127, 128, 129]:
        cases = []
        for density in (0.0, 0.1, 0.5, 1.0):
            cases.append(_random_symmetric(rng, n, density))
        if n >= 2:
            for _ in range(3):
                adj = _random_symmetric(rng, n, rng.random())
                u, v = rng.sample(range(n), 2)
                adj[u] ^= 1 << v  # one flipped bit
                cases.append(adj)
            # asymmetric: independent random off-diagonal bits
            cases.append([rng.getrandbits(n) & ~(1 << v) for v in range(n)])
        if n >= 1:
            adj = _random_symmetric(rng, n, 0.3)
            v = rng.randrange(n)
            adj[v] |= 1 << v  # self-loop
            cases.append(adj)
            adj = _random_symmetric(rng, n, 0.3)
            adj[rng.randrange(n)] |= 1 << (n + rng.randrange(3))  # out of range
            cases.append(adj)
            adj = _random_symmetric(rng, n, 0.3)
            adj[rng.randrange(n)] = -1
            cases.append(adj)
        cases.append(_random_symmetric(rng, n + 1, 0.5))  # too many rows
        for adj in cases:
            expected = _reference_validation_error(n, tuple(adj))
            if expected is None:
                assert Graph(n, tuple(adj)).adj == tuple(adj)
            else:
                with pytest.raises(ValueError) as err:
                    Graph(n, tuple(adj))
                assert type(err.value) is ValueError
                assert str(err.value) == expected, (n, adj)
    with pytest.raises(ValueError, match="^vertex count must be non-negative$"):
        Graph(-1, ())


def test_subgraph_and_with_edge_reject_bad_vertices():
    p3 = build_named("P3")
    for vertices in ((0, 0), (0, 7), (-1, 1), (2, 1, 2)):
        with pytest.raises(ValueError):
            p3.subgraph(vertices)
    for u, v in ((0, 5), (5, 0), (-1, 2), (1, 1)):
        with pytest.raises(ValueError):
            p3.with_edge(u, v)
    assert p3.subgraph((2, 1)) == Graph.from_edges(2, [(0, 1)])
    assert p3.subgraph(()) == Graph(0, ())
    assert p3.with_edge(2, 0) == build_named("K3")


def _derived_graphs(g: Graph, rng: random.Random) -> list[Graph]:
    """Every graph the package derives from ``g`` without re-checking it."""
    vertices = rng.sample(range(g.n), rng.randint(0, g.n))
    out = [
        line_graph(g)[0],
        complement(g),
        coline(g)[0],
        canonical_graph(g),
        strip_isolated(g),
        g.subgraph(tuple(vertices)),
    ]
    if g.n >= 2:
        out.append(g.with_edge(*rng.sample(range(g.n), 2)))
    return out


def _random_graph6(rng: random.Random, n: int, density: float) -> str:
    """A graph6 string whose triangle bits are drawn at random."""
    bits = [int(rng.random() < density) for _ in range(n * (n - 1) // 2)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k : k + 6])), 2)) for k in range(0, len(bits), 6)
    )
    empty = emit_graph6(Graph.from_edges(n, []))
    return empty[: len(empty) - len(body)] + body


def _built_graphs(rng: random.Random) -> list[Graph]:
    """Graphs from every builder that returns its rows without a check."""
    out = []
    for n in (0, 1, 2, 5, 8, 63, 64, 65):
        density = 0.3 if n < 10 else 3 / n
        edges = [e if rng.random() < 0.5 else e[::-1] for e in combinations(range(n), 2)]
        edges = [e for e in edges if rng.random() < density]
        rng.shuffle(edges)
        g = Graph.from_edges(n, edges)
        parsed = parse_edge_list(f"n={n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        dominated = add_dominating_vertex(g)
        out += [g, parsed, dominated, disjoint_union(parsed, dominated)]
        out.append(parse_graph6(_random_graph6(rng, n, density)))
    names = ["K1", "K4", "C5", "P1", "P4", "K1_4", "F2", "F3", "K4_minus", "K3_plus"]
    names += ["K3_circ_K1", "H1", "H2", "H3", "Petersen", "3K2+C5+K1_4"]
    return out + [build_named(name) for name in names]


def test_derived_graphs_are_valid(classes_up_to_6):
    rng = random.Random(16)
    graphs = []
    for g in classes_up_to_6:
        graphs += [g, disjoint_union(g, Graph(3, (0, 0, 0)))]
    for n in (7, 8, 9, 63, 64, 65, 129):
        for density in ((0.2, 0.6) if n < 10 else (2 / n, 4 / n)):
            graphs.append(Graph(n, tuple(_random_symmetric(rng, n, density))))
    graphs += _built_graphs(random.Random(17))
    # the enumerated classes themselves are canonical relabellings; a
    # builder's output is checked before anything is derived from it
    for g in graphs:
        assert Graph(g.n, g.adj) == g, g
    for g in graphs:
        for h in _derived_graphs(g, rng):
            assert Graph(h.n, h.adj) == h, (g, h)


def test_edge_count_is_half_degree_sum():
    for name in ("K5", "C6", "H1", "H2", "H3", "K3_circ_K1", "Petersen"):
        g = build_named(name)
        assert sum(g.degrees()) == 2 * g.m


def test_complement_of_complete_is_edgeless():
    assert complement(build_named("K5")).m == 0


def test_c5_is_self_coline():
    c5 = build_named("C5")
    assert is_isomorphic(complement(c5), c5)
    assert is_isomorphic(coline(c5)[0], c5)


def test_complement_of_c6_is_prism():
    g = complement(build_named("C6"))
    assert g.n == 6 and g.m == 9
    assert set(g.degrees()) == {3}
    # two disjoint triangles joined by a perfect matching: contains K3
    assert is_isomorphic(g, coline(build_named("C6"))[0])


def test_double_complement_is_identity():
    for name in ("K5", "C6", "P4", "H1", "K1_4", "Petersen"):
        g = build_named(name)
        assert complement(complement(g)) == g


def test_line_graph_examples():
    k3 = build_named("K3")
    lg, edges = line_graph(build_named("K1_3"))
    assert is_isomorphic(lg, k3)
    assert len(edges) == 3
    lg, _ = line_graph(build_named("C5"))
    assert is_isomorphic(lg, build_named("C5"))
    lg, _ = line_graph(build_named("P3"))
    assert lg.n == 2 and lg.m == 1


@pytest.fixture(scope="module")
def large_inputs():
    """The CI smoke test's seeded G(1000, 5000) and K100, the edge limit's
    densest input (4,950 coline vertices)."""
    pairs = list(combinations(range(1000), 2))
    sparse = Graph.from_edges(1000, random.Random(1000).sample(pairs, 5000))
    return sparse, build_named("K100")


def test_coline_is_complement_of_line_graph(large_inputs):
    names = ("K4", "C6", "H2", "K1_4", "F4", "K3+P3")
    for g in [build_named(name) for name in names] + list(large_inputs):
        cg, edge_list = coline(g)
        lg, same_list = line_graph(g)
        assert edge_list == same_list == g.edges()
        assert cg == complement(lg)
        assert cg.n == g.m


def _pairwise_line_graph(g: Graph) -> Graph:
    """Reference line graph: test every pair of edges for a shared endpoint."""
    edge_list = g.edges()
    adj = [0] * len(edge_list)
    for i, j in combinations(range(len(edge_list)), 2):
        if set(edge_list[i]) & set(edge_list[j]):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph(len(edge_list), tuple(adj))


def test_line_graph_matches_pairwise_definition(classes_up_to_6):
    rng = random.Random(60)
    sparse = Graph.from_edges(60, rng.sample(list(combinations(range(60), 2)), 180))
    for g in classes_up_to_6 + [sparse]:
        reference = _pairwise_line_graph(g)
        assert line_graph(g) == (reference, g.edges())
        assert coline(g) == (complement(reference), g.edges())


def _reference_components(g: Graph, within: int | None = None) -> tuple[int, ...]:
    """Breadth-first search over vertex sets that reads every row of every
    component, ordered by smallest member."""
    left = {v for v in range(g.n) if within is None or within >> v & 1}
    comps = []
    while left:
        queue = [min(left)]
        seen = set(queue)
        for v in queue:
            for u in range(g.n):
                if g.adj[v] >> u & 1 and u in left and u not in seen:
                    seen.add(u)
                    queue.append(u)
        comps.append(sum(1 << v for v in seen))
        left -= seen
    return tuple(comps)


def test_components_match_reference_search():
    rng = random.Random(29)
    graphs = []
    for n in (0, 1, 2, 5, 17, 40, 64, 65, 100):
        for density in (0.02, 0.05, 0.1, 0.3, 0.6, 1.0):
            graphs.append(Graph(n, tuple(_random_symmetric(rng, n, density))))
    # near-complete colines of sparse graphs, where growth stops earliest
    for n in (12, 30, 60):
        pairs = list(combinations(range(n), 2))
        graphs.append(coline(Graph.from_edges(n, rng.sample(pairs, 2 * n)))[0])
    for g in graphs:
        masks = [None, 0] + [1 << v for v in range(0, g.n, 7)]
        masks += [rng.getrandbits(g.n) for _ in range(3)]
        for within in masks:
            assert components(g, within) == _reference_components(g, within), (g, within)


def test_large_sparse_input_has_connected_coline(large_inputs):
    sparse, _ = large_inputs
    l, _ = coline(sparse)
    assert components(l) == ((1 << 5000) - 1,)


def test_edge_count_is_cached_per_graph():
    g = build_named("H2")
    a, b = Graph(g.n, g.adj), Graph(g.n, g.adj)
    # equality and hashing see the rows only, whether m was read or not
    for reader in (None, a, b):
        if reader is not None:
            assert reader.m == 7
        assert a == b and hash(a) == hash(b)
    derived = [
        g.with_edge(4, 5),
        g.subgraph((0, 1, 2, 5)),
        complement(g),
        coline(g)[0],
        strip_isolated(Graph(9, g.adj + (0, 0))),
        strip_isolated(g),
    ]
    for h in derived:
        assert h.m == len(h.edges())
    assert [h.m for h in derived] == [8, 4, 14, 11, 7, 7]
    for h in (a, Graph(g.n, g.adj)):  # m read, and not read, before pickling
        copy = pickle.loads(pickle.dumps(h))
        assert copy == h and hash(copy) == hash(h) and copy.m == 7


def test_coline_examples():
    pet = build_named("Petersen")
    assert is_isomorphic(coline(build_named("K5"))[0], pet)
    three_k2 = build_named("3K2")
    assert is_isomorphic(coline(build_named("K4"))[0], three_k2)
    cg, _ = coline(build_named("K1_4"))
    assert cg.n == 4 and cg.m == 0


def test_coline_ignores_isolated_vertices():
    g = build_named("C4")
    padded = Graph(6, g.adj + (0, 0))
    assert is_isomorphic(coline(g)[0], coline(padded)[0])


def test_disjoint_union_counts():
    u = disjoint_union(build_named("K3"), build_named("K2"))
    assert u.n == 5 and u.m == 4
    assert is_isomorphic(build_named("C4+K2"), disjoint_union(build_named("C4"), build_named("K2")))
    assert is_isomorphic(build_named("H3"), disjoint_union(build_named("K3_circ_K1"), build_named("K2")))


def test_add_dominating_vertex():
    star = add_dominating_vertex(Graph(3, (0, 0, 0)))
    assert is_isomorphic(star, build_named("K1_3"))
    wheel = add_dominating_vertex(build_named("C4"))
    assert wheel.n == 5 and wheel.m == 8
    c5 = build_named("C5")
    lhs = add_dominating_vertex(coline(c5)[0])
    rhs, _ = coline(disjoint_union(c5, build_named("K2")))
    assert is_isomorphic(lhs, rhs)


def test_build_named():
    assert is_isomorphic(build_named("F2"), build_named("K3"))
    assert is_isomorphic(build_named("F3"), build_named("K3_plus"))
    h3 = build_named("H3")
    assert h3.n == 8 and h3.m == 7
    assert is_isomorphic(build_named("2K2"), disjoint_union(build_named("K2"), build_named("K2")))
    with pytest.raises(ValueError):
        build_named("Q7")
    with pytest.raises(ValueError, match="bad count '0' in '0K2'"):
        build_named("0K2")
    with pytest.raises(ValueError, match="bad component '' in 'K2\\+'"):
        build_named("K2+")


@pytest.mark.parametrize("name, value", [("C2", 2), ("P0", 0), ("K1_0", 0), ("F1", 1)])
def test_build_named_rejects_atoms_below_their_minimum(name, value):
    # the parser checks each atom's parameter; the builders behind it do not
    with pytest.raises(ValueError, match=f"^parameter {value} too small for '{name}'$"):
        build_named(name)


def test_h_graphs_shape():
    net = build_named("K3_circ_K1")
    for name in ("H1", "H2", "H3"):
        g = build_named(name)
        assert g.m == 7
        from coline.oracle import contains_subgraph
        assert contains_subgraph(g, net)
    assert build_named("H1").n == 6
    assert build_named("H2").n == 7
    assert build_named("H3").n == 8


def test_strip_isolated():
    g = Graph.from_edges(5, [(1, 3)])
    core = strip_isolated(g)
    assert core == Graph.from_edges(2, [(0, 1)])
    h = build_named("C4")
    assert strip_isolated(h) is h
