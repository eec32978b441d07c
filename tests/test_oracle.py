import ast
import gc
import hashlib
import json
import math
import random
import tracemalloc
from itertools import combinations, permutations
from pathlib import Path

import pytest

from coline import oracle
from coline.graph6 import emit_graph6, parse_graph6
from coline.graphcore import Graph, add_dominating_vertex, build_named, coline, coline_components, components
from coline.oracle import (
    CycleOrPath,
    canonical_form,
    canonical_graph,
    cms_exact,
    contains_power_ham_cycle,
    contains_subgraph,
    find_roots,
    hamiltonian_cycle,
    hamiltonian_path,
    induced_k2_3k1,
    is_isomorphic,
    is_tough,
    is_valid_in,
    iter_class_tree,
    iter_graph_classes,
    longest_cycle,
)

SYMMETRIC_CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus_symmetric.json"


def brute_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Reference check: try every vertex permutation."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    n = g1.n
    for perm in permutations(range(n)):
        if all(
            g1.has_edge(u, v) == g2.has_edge(perm[u], perm[v])
            for u in range(n)
            for v in range(u + 1, n)
        ):
            return True
    return False


def relabel(g: Graph, perm) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


# --- Hamiltonian search -------------------------------------------------------

def test_hamiltonian_cycle_examples():
    petersen_like, _ = coline(build_named("K5"))
    assert hamiltonian_cycle(petersen_like) is None
    c5 = build_named("C5")
    cycle = hamiltonian_cycle(c5)
    assert cycle is not None and len(cycle) == 5
    prism, _ = coline(build_named("C6"))
    assert hamiltonian_cycle(prism) is not None


def test_is_valid_in_rejects_bad_walks():
    p3 = build_named("P3")
    assert not is_valid_in(CycleOrPath((0, 3), False), p3)  # vertex 3 outside 0..2
    assert not is_valid_in(CycleOrPath((-1, 0), False), p3)
    assert not is_valid_in(CycleOrPath((0, 1), True), p3)  # two vertices close no cycle
    assert not is_valid_in(CycleOrPath((3, 0), False), p3)  # out of range, read first
    assert not is_valid_in(CycleOrPath((0, 1, 2, 0), False), build_named("K3"))  # repeats 0


def test_oracles_on_the_empty_graph():
    empty = Graph(0, ())
    assert is_tough(empty) == oracle.ToughnessResult(True, None, True)
    assert hamiltonian_path(empty) is None
    assert find_roots(empty) == oracle.RootSearch((empty,), True)


def test_class_tree_below_one_edge_is_empty():
    assert list(iter_class_tree(1, 5)) == []
    assert list(iter_class_tree(5, 0)) == []


def test_hamiltonian_cycle_needs_three_vertices():
    assert hamiltonian_cycle(Graph(2, (2, 1))) is None
    assert hamiltonian_cycle(Graph(1, (0,))) is None
    assert hamiltonian_cycle(Graph(0, ())) is None


def test_hamiltonian_path_examples():
    petersen_like, _ = coline(build_named("K5"))
    path = hamiltonian_path(petersen_like)
    assert path is not None and len(path) == 10
    assert hamiltonian_path(Graph(2, (0, 0))) is None
    corona_coline, _ = coline(build_named("K3_circ_K1"))
    assert hamiltonian_path(corona_coline) is None
    assert hamiltonian_path(Graph(1, (0,))) is not None


def test_returned_walks_are_valid(classes_up_to_6):
    for g in classes_up_to_6:
        cycle = hamiltonian_cycle(g)
        if cycle is not None:
            assert cycle.closed and len(cycle) == g.n and is_valid_in(cycle, g)
        path = hamiltonian_path(g)
        if path is not None:
            assert not path.closed and len(path) == g.n and is_valid_in(path, g)


def test_spanning_witnesses_are_the_first_orderings(classes_up_to_6):
    # the path is the first vertex ordering that is a path, the cycle the
    # first ordering from vertex 0 that closes into a cycle
    def is_path(g, order):
        return all(g.has_edge(a, b) for a, b in zip(order, order[1:]))

    def brute_path(g):
        return next((p for p in permutations(range(g.n)) if is_path(g, p)), None)

    def brute_cycle(g):
        if g.n < 3:
            return None
        orders = ((0,) + p for p in permutations(range(1, g.n)))
        return next((c for c in orders if is_path(g, c) and g.has_edge(c[-1], 0)), None)

    graphs = classes_up_to_6 + [coline(g)[0] for g in iter_graph_classes(12, 6)]
    assert len(graphs) == 268
    for g in graphs:
        path, cycle = hamiltonian_path(g), hamiltonian_cycle(g)
        assert (path and path.vertices) == brute_path(g), emit_graph6(g)
        assert (cycle and cycle.vertices) == brute_cycle(g), emit_graph6(g)


def test_spanning_walk_builds_valid_walks_or_none(classes_up_to_6):
    # None only means no cycle was built; a built cycle is valid and spans,
    # so it exists only where the exhaustive search finds one: on g a
    # spanning cycle, on g plus a dominating vertex a spanning path of g
    built = 0
    for g in classes_up_to_6:
        for host, search in ((g, hamiltonian_cycle), (add_dominating_vertex(g), hamiltonian_path)):
            walk = oracle.spanning_walk(host)
            if walk is None:
                continue
            built += 1
            assert walk.closed and len(walk) == host.n and is_valid_in(walk, host)
            assert search(g) is not None
            assert oracle.spanning_walk(host) == walk  # deterministic
    assert built > len(classes_up_to_6)


def test_spanning_walk_edge_cases():
    petersen, _ = coline(build_named("K5"))
    assert oracle.spanning_walk(petersen) is None
    assert oracle.spanning_walk(add_dominating_vertex(petersen)) is not None
    assert oracle.spanning_walk(Graph(2, (2, 1))) is None  # K1 plus a dominating vertex
    assert oracle.spanning_walk(Graph(0, ())) is None
    assert oracle.spanning_walk(build_named("2K3")) is None  # disconnected
    # co(K100), 4,950 vertices: rotation and extension, no search
    big, _ = coline(build_named("K100"))
    cycle = oracle.spanning_walk(big)
    assert cycle is not None and len(cycle) == big.n and is_valid_in(cycle, big)


def test_spanning_searches_skip_graphs_with_large_independent_sets(monkeypatch):
    # co(K1_8+6K2): 14 vertices, the 8 star edges pairwise non-adjacent
    l, _ = coline(build_named("K1_8+6K2"))
    assert l.n == 14 and oracle._independence_number(l) == 8
    calls = []
    cycle_extend = oracle._cycle_extend
    monkeypatch.setattr(oracle, "_cycle_extend", lambda *a: calls.append(a) or cycle_extend(*a))
    assert hamiltonian_cycle(l) is None
    assert hamiltonian_path(l) is None
    assert calls == []


def test_spanning_witnesses_are_pinned(classes_sweep_range):
    # The cycle and path each search returns on every 8/10 coline, as found
    # when the searches still cut a node whose remaining vertices were
    # disconnected: leaving out a cut must not change the search order.
    lines = []
    for g in sorted(classes_sweep_range, key=lambda g: (g.m, emit_graph6(g))):
        l, _ = coline(g)
        cycle, path = hamiltonian_cycle(l), hamiltonian_path(l)
        lines.append(repr((cycle and cycle.vertices, path and path.vertices)))
    assert _sha1_lines(lines) == "aad910663bc334183c515ff47b11589b400d0def"


def test_independence_number_matches_all_subsets(classes_up_to_6):
    def brute(g):
        return max(
            len(s)
            for k in range(g.n + 1)
            for s in combinations(range(g.n), k)
            if not any(g.has_edge(u, v) for u, v in combinations(s, 2))
        )

    for g in classes_up_to_6:
        for h in (g, coline(g)[0]):
            if h.n <= 10:
                assert oracle._independence_number(h) == brute(h)


def test_longest_cycle_examples():
    assert len(longest_cycle(build_named("Petersen"))) == 9
    assert longest_cycle(build_named("P5")) is None
    h3_coline, _ = coline(build_named("H3"))
    assert h3_coline.n == 7
    assert hamiltonian_cycle(h3_coline) is None
    assert len(longest_cycle(h3_coline)) == 6


def test_longest_cycle_deterministic():
    prism, _ = coline(build_named("C6"))
    assert longest_cycle(prism) == longest_cycle(prism)


def _brute_circumference(g: Graph) -> int:
    """The most vertices on a cycle of ``g``, 0 for a forest: every vertex
    subset, in every order that starts at its smallest vertex."""
    return max(
        (
            k
            for k in range(3, g.n + 1)
            for subset in combinations(range(g.n), k)
            for rest in permutations(subset[1:])
            if all(g.has_edge(a, b) for a, b in zip(subset[:1] + rest, rest + subset[:1]))
        ),
        default=0,
    )


def test_longest_cycle_is_longest(classes_up_to_6):
    # a longest cycle has n vertices exactly when g is Hamiltonian
    graphs = [h for g in classes_up_to_6 for h in (g, coline(g)[0]) if h.n <= 6]
    assert len(graphs) == 208
    for g in graphs:
        best = longest_cycle(g)
        assert best is None or (best.closed and is_valid_in(best, g)), emit_graph6(g)
        assert (0 if best is None else len(best)) == _brute_circumference(g), emit_graph6(g)


def test_longest_cycles_of_the_sweep_range_are_pinned(classes_sweep_range):
    # the cycles the lemma checks read: any change to the search's order or
    # cuts that returns another cycle changes this digest
    cycles = []
    for g in sorted(classes_sweep_range, key=lambda g: (g.m, emit_graph6(g))):
        l, _ = coline(g)
        if hamiltonian_cycle(l) is None and (best := longest_cycle(l)) is not None:
            cycles.append(repr(best.vertices))
    assert len(cycles) == 285
    assert _sha1_lines(cycles) == "96c3ee40a5299e84f17e728a8f2da44d0e27f231"


# --- toughness and connectivity -------------------------------------------------

def test_is_tough_examples():
    star = is_tough(build_named("K1_3"))
    assert not star.value
    assert star.witness.components_after == 3 and len(star.witness.cutset) == 1
    h1_coline, _ = coline(build_named("H1"))
    assert is_tough(h1_coline).value
    bad, _ = coline(build_named("C4+K2"))
    assert not is_tough(bad).value


def test_tough_witness_recomputes(classes_up_to_6):
    for g in classes_up_to_6:
        result = is_tough(g)
        if result.witness is None:
            continue
        cut = 0
        for v in result.witness.cutset:
            cut |= 1 << v
        remaining = (1 << g.n) - 1 & ~cut
        count = len(components(g, within=remaining))
        assert count == result.witness.components_after
        assert count > len(result.witness.cutset)


def _reference_component_count(g: Graph, removed: set[int]) -> int:
    left = set(range(g.n)) - removed
    count = 0
    while left:
        count += 1
        stack = [left.pop()]
        while stack:
            v = stack.pop()
            for u in [u for u in left if g.has_edge(u, v)]:
                left.remove(u)
                stack.append(u)
    return count


def _reference_toughness(g: Graph):
    """Every cutset size up to n - 2, in the order is_tough documents."""
    if g.n == 0:
        return True, None
    count = _reference_component_count(g, set())
    if count > 1:
        return False, ((), count)
    for size in range(1, g.n - 1):
        for cut in combinations(range(g.n), size):
            count = _reference_component_count(g, set(cut))
            if count > size and count >= 2:
                return False, (cut, count)
    return True, None


def test_is_tough_matches_all_subsets_reference(classes_up_to_6):
    for g in classes_up_to_6:
        for h in (g, coline(g)[0]):
            result = is_tough(h)
            witness = result.witness
            if witness is not None:
                witness = (witness.cutset, witness.components_after)
            assert (result.value, witness) == _reference_toughness(h)


def _every_cutset_toughness(g: Graph):
    """(value, witness) trying every cutset of each size below
    min(n/2, alpha), lexicographically, with no single-vertex rule."""
    if g.n == 0 or g.m == g.n * (g.n - 1) // 2:
        return True, None
    count = len(components(g))
    if count > 1:
        return False, ((), count)
    full = (1 << g.n) - 1
    for size in range(1, min((g.n + 1) // 2, oracle._independence_number(g))):
        for cut in combinations(range(g.n), size):
            count = len(components(g, full & ~sum(1 << v for v in cut)))
            if count > size:
                return False, (cut, count)
    return True, None


def _gnp_graphs(count: int, seed: int, max_n: int) -> list[Graph]:
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n, p = rng.randint(1, max_n), rng.random()
        graphs.append(Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    return graphs


def test_is_tough_matches_every_cutset_reference(classes_sweep_range):
    graphs = [coline(g)[0] for g in classes_sweep_range] + _gnp_graphs(500, 1974, 12)
    for h in graphs:
        result = is_tough(h)
        witness = result.witness
        if witness is not None:
            witness = (witness.cutset, witness.components_after)
        assert (result.value, witness) == _every_cutset_toughness(h), emit_graph6(h)


def test_is_tough_component_counts_are_bounded(classes_sweep_range, monkeypatch):
    # Only the cutsets holding the whole neighbourhood of a vertex or an edge
    # are tried at sizes where a violation must leave a component of at most
    # two vertices: 22,149 component counts over the 8/10 colines, one of
    # them per coline to decide connectivity, where the vertex rule alone
    # takes 68,660 and trying every cutset 197,264.  Connectivity tests are
    # counted too, so the bound, 22,195, is what is_tough made when it
    # tested connectivity first and then counted the 46 disconnected colines'
    # components again.
    colines = [coline(g)[0] for g in classes_sweep_range]
    calls = 0

    def counting(real):
        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        return counted

    monkeypatch.setattr(oracle, "components", counting(oracle.components))
    monkeypatch.setattr(oracle, "is_connected", counting(oracle.is_connected))
    for l in colines:
        is_tough(l)
    assert calls <= 22_195


def test_complete_graphs_vacuously_tough():
    for n in (1, 2, 4):
        result = is_tough(build_named(f"K{n}"))
        assert result.value and result.vacuous


def test_tough_implies_two_connected(classes_sweep_range):
    for g in classes_sweep_range[:400]:
        l, _ = coline(g)
        if l.n < 3:
            continue
        result = is_tough(l)
        complete = l.m == l.n * (l.n - 1) // 2
        if result.value and not complete:
            full = (1 << l.n) - 1
            for v in range(l.n):
                assert len(components(l, full & ~(1 << v))) == 1


# --- isomorphism and canonical forms ---------------------------------------------

def assert_isomorphism(g1: Graph, g2: Graph, cert) -> None:
    """The certificate is a bijection keeping every edge and every non-edge."""
    assert cert is not None
    mapping = cert.mapping
    assert sorted(mapping) == list(range(g1.n)) and g1.n == g2.n
    for u in range(g1.n):
        for v in range(u + 1, g1.n):
            assert g1.has_edge(u, v) == g2.has_edge(mapping[u], mapping[v])


def test_isomorphism_examples():
    assert is_isomorphic(coline(build_named("K5"))[0], build_named("Petersen"))
    assert is_isomorphic(build_named("K3"), build_named("K1_3")) is None
    from coline.graphcore import line_graph

    assert is_isomorphic(line_graph(build_named("K3"))[0], line_graph(build_named("K1_3"))[0])
    # 2-regular graphs of equal size: every degree test passes
    assert is_isomorphic(build_named("C100"), build_named("2C50")) is None
    assert is_isomorphic(build_named("2C50"), build_named("C100")) is None


def test_certificate_is_a_real_isomorphism():
    rng = random.Random(7)
    for name in ("Petersen", "C100"):
        g1 = build_named(name)
        perm = list(range(g1.n))
        rng.shuffle(perm)
        g2 = relabel(g1, perm)
        assert_isomorphism(g1, g2, is_isomorphic(g1, g2))


def test_isomorphism_search_takes_a_thousand_vertices():
    # one search level per pattern vertex: a recursive search overflowed here
    p1000 = build_named("P1000")
    mapping = is_isomorphic(p1000, build_named("P1000")).mapping
    assert sorted(mapping) == list(range(1000))
    assert all(p1000.has_edge(mapping[u], mapping[v]) for u, v in p1000.edges())


def test_no_verdict_oracle_reaches_the_labeller(monkeypatch, classes_sweep_range):
    """The verdict oracles, is_isomorphic among them, cross-check
    canonical_form and the decisions built on it, so none may reach the
    labeller's colour refinement or labelling."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a verdict oracle reached the canonical labeller")

    for name in ("_refine", "_neighbour_lists", "_canonical_labelling"):
        monkeypatch.setattr(oracle, name, forbidden)
    co_k5, petersen = coline(build_named("K5"))[0], build_named("Petersen")
    assert_isomorphism(co_k5, petersen, is_isomorphic(co_k5, petersen))
    blockers = [build_named(name) for name in ("K3_plus", "K4_minus", "K3_circ_K1", "K4")]
    rng = random.Random(19)
    for g in rng.sample(classes_sweep_range, 100):
        perm = list(range(g.n))
        rng.shuffle(perm)
        shuffled = relabel(g, perm)
        assert_isomorphism(g, shuffled, is_isomorphic(g, shuffled))
        l, _ = coline(g)
        is_tough(l)
        hamiltonian_cycle(l)
        hamiltonian_path(l)
        longest_cycle(l)
        oracle.spanning_walk(l)
        oracle.spanning_walk(add_dominating_vertex(l))
        for blocker in blockers:
            contains_subgraph(l, blocker)
        induced_k2_3k1(l)
        contains_power_ham_cycle(l, 1)
        cms_exact(g)


VERDICT_ORACLES = (
    "is_isomorphic", "is_tough", "hamiltonian_cycle", "hamiltonian_path", "longest_cycle",
    "spanning_walk", "contains_subgraph", "induced_k2_3k1", "contains_power_ham_cycle", "cms_exact",
)
LABELLER = {
    "_refine", "_neighbour_lists", "_canonical_adj", "_canonical_search", "_lifted_generators",
    "_canonical_labelling",
}


def _reached_in_oracle_module(names) -> set[str]:
    """The top-level definitions of oracle.py that ``names`` reach by the
    names their definitions reference, ``names`` included."""
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    reached, frontier = set(), list(names)
    while frontier:
        name = frontier.pop()
        if name not in reached:
            reached.add(name)
            frontier += {n.id for n in ast.walk(defined[name]) if isinstance(n, ast.Name)} & defined.keys()
    return reached


def test_no_verdict_oracle_reaches_the_labeller_statically():
    """The sampled test above on every path: no name a verdict oracle's
    definition references leads, through oracle.py, to the labeller."""
    reached = _reached_in_oracle_module(VERDICT_ORACLES)
    assert not reached & LABELLER, sorted(reached & LABELLER)
    # the walk follows calls: into the searches, and from the canonical
    # form and the class enumeration into every part of the labeller
    assert {"_cycle_extend", "_independence_number", "_embed"} <= reached
    assert LABELLER <= _reached_in_oracle_module(["canonical_form", "iter_graph_classes"])


def test_canonical_form_examples():
    c5 = build_named("C5")
    assert canonical_form(c5) == canonical_form(coline(c5)[0])
    assert canonical_form(build_named("K3")) != canonical_form(build_named("K1_3"))
    forms = {
        canonical_form(relabel(c5, perm)) for perm in permutations(range(5))
    }
    assert len(forms) == 1
    # K0 and K1 take the general path: their own rows, in their own order
    for g in (Graph(0, ()), build_named("K1")):
        assert canonical_graph(g) == g
    assert oracle._canonical_labelling(1, (0,)) == (build_named("K1"), (0,), ())


def test_canonical_form_agrees_with_permutation_oracle():
    small = [g for g in _classes(5) if g.n <= 5]
    buckets = {}
    for g in small:
        buckets.setdefault((g.n, g.m), []).append(g)
    for group in buckets.values():
        for g1, g2 in combinations(group, 2):
            brute = brute_isomorphic(g1, g2)
            assert (canonical_form(g1) == canonical_form(g2)) == brute
            assert (is_isomorphic(g1, g2) is not None) == brute
        for g in group:
            assert brute_isomorphic(g, canonical_graph(g))
            assert_isomorphism(g, canonical_graph(g), is_isomorphic(g, canonical_graph(g)))


def _classes(max_vertices):
    return list(iter_graph_classes(max_vertices, max_vertices * (max_vertices - 1) // 2))


def test_canonical_form_invariant_under_relabeling(classes_sweep_range):
    rng = random.Random(11)
    sample = rng.sample(classes_sweep_range, 60)
    for g in sample:
        perm = list(range(g.n))
        rng.shuffle(perm)
        shuffled = relabel(g, perm)
        assert canonical_form(shuffled) == canonical_form(g)
        assert is_isomorphic(shuffled, g) is not None


def _sha1_lines(lines) -> str:
    return hashlib.sha1("\n".join(lines).encode("ascii")).hexdigest()


def _level_sorted(classes) -> list[str]:
    """graph6 of ``classes`` by edge count, then graph6: independent of the
    order the enumeration yields them in."""
    return [emit_graph6(g) for g in sorted(classes, key=lambda g: (g.m, emit_graph6(g)))]


def test_canonical_forms_are_pinned(classes_7_9):
    # Digests of the forms an unpruned search gives, of each component on
    # its own where two or more have an edge: the packaged catalog and
    # every sweep key depend on them, so pruning must not move them.
    classes = _level_sorted(classes_7_9)
    assert len(classes) == 373
    assert _sha1_lines(classes) == "2276a3f4ec228bc7eab4e8d0539ef3ec84ab6be2"
    inputs = json.loads(SYMMETRIC_CORPUS.read_text())["inputs"]
    assert len(inputs) == 46
    forms = [emit_graph6(canonical_graph(parse_graph6(entry["graph6"]))) for entry in inputs]
    assert _sha1_lines(forms) == "62ec0c4f35d8021617afdec5f40a0bd01d641af5"


def _sparse_with_isolated(n: int, seed: int) -> Graph:
    """3n random edges among n - 4 of n vertices, labels shuffled: a sparse
    G(n, 3n) with at least four scattered isolated vertices."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    pairs = rng.sample(list(combinations(range(n - 4), 2)), 3 * n)
    return Graph.from_edges(n, [(order[u], order[v]) for u, v in pairs])


def test_sparse_canonical_forms_are_pinned():
    # The forms of large sparse inputs, which classify prints as their
    # canonical id: refinement all but discretises them at the root, a path
    # the small and symmetric pins above barely reach.
    rng = random.Random(3)
    forms = []
    for n, seed in ((60, 1), (120, 2), (200, 3), (300, 4)):
        g = _sparse_with_isolated(n, seed)
        form = emit_graph6(canonical_graph(g))
        perm = list(range(n))
        rng.shuffle(perm)
        assert emit_graph6(canonical_graph(relabel(g, perm))) == form, n
        forms.append(form)
    assert _sha1_lines(forms) == "27f58ae3fa9599e2f775cfb2346667ed59eb9844"


def _sparse_gnm(n: int, m: int, seed: int) -> Graph:
    """m distinct random edges on n vertices, drawn with ``seed``."""
    return Graph.from_edges(n, random.Random(seed).sample(list(combinations(range(n), 2)), m))


def test_canonical_form_builds_rows_only_where_they_are_read(monkeypatch):
    # refinement discretises G(300, 900) at the root, so its search has one
    # leaf: the form is written from the leaf's order and g's edges, and
    # only canonical_graph, which returns rows, builds them
    rows = _counted(monkeypatch, "_adjacency_rows")
    g = _sparse_gnm(300, 900, 900)
    form = canonical_form(g)
    assert rows == []
    assert emit_graph6(canonical_graph(g)).encode() == form
    assert len(rows) == 1


def test_sparse_classify_paths_equal_the_full_builds(classes_sweep_range):
    # what classify reads without building, against what it used to build
    rng = random.Random(45)
    graphs = list(classes_sweep_range) + [Graph(0, ()), build_named("K2")]
    graphs += [build_named(f"{m}K2") for m in range(1, 31)]
    graphs += [build_named(f"{kind}{n}") for kind in ("K1_", "K") for n in range(1, 15)]
    for seed in range(20):
        n = rng.randint(10, 120)
        graphs.append(_sparse_gnm(n, min(3 * n, n * (n - 1) // 2), seed))
    for g in graphs:
        name = emit_graph6(g)
        assert coline_components(g) == components(coline(g)[0]), name
        assert canonical_form(g) == emit_graph6(canonical_graph(g)).encode(), name


def test_class_enumeration_8_10_is_pinned(classes_sweep_range):
    classes = _level_sorted(classes_sweep_range)
    assert len(classes) == 1500
    levels = {}
    for g in classes_sweep_range:
        levels[g.m] = levels.get(g.m, 0) + 1
    assert levels == {1: 1, 2: 2, 3: 5, 4: 11, 5: 24, 6: 56, 7: 115, 8: 221, 9: 402, 10: 663}
    assert _sha1_lines(classes) == "fa8c3c15c0d1c783f815735f02998767953274e0"
    # the order the walk yields them in, which its subtrees follow
    yielded = [emit_graph6(g) for g in classes_sweep_range]
    assert _sha1_lines(yielded) == "a8042f2d5a3b886494e3321c72e63d804d4263cf"


def test_class_tree_splits_into_subtrees(classes_7_9):
    # the walk down to 5 edges, with the walk below each 5-edge class in
    # its place, is the whole walk, in its order: what the sweep's tasks
    # rely on
    pieced = []
    for pair in iter_class_tree(7, 5):
        below = iter_class_tree(7, 9, pair) if pair[0].m == 5 else [pair]
        pieced += [g for g, _ in below]
    assert pieced == classes_7_9
    assert len(pieced) == 373 and sum(g.m == 5 for g in pieced) == 21


def _counted(monkeypatch, name: str) -> list:
    """Route calls to ``oracle.<name>`` through a wrapper that appends one
    entry per call to the returned list."""
    calls = []
    real = getattr(oracle, name)

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(oracle, name, counting)
    return calls


def test_class_enumeration_labels_few_children(monkeypatch):
    # Canonical augmentation labels only children whose added edge has the
    # top rating: 1,768 labellings here, where labelling every child took
    # 15,291.
    labellings = _counted(monkeypatch, "_canonical_labelling")
    assert sum(1 for _ in iter_graph_classes(8, 10)) == 1500
    assert len(labellings) <= 1800


def _unpruned_augmentations(g: Graph, generators, max_vertices: int):
    """One-edge extensions ``(rows, edge)``, one per orbit of the group
    ``generators`` generate, with no child skipped by its degree sum."""

    def extended(rows, u, v):
        grown = list(rows)
        grown[u] |= 1 << v
        grown[v] |= 1 << u
        return tuple(grown)

    n, seen = g.n, set()
    for u, v in combinations(range(n), 2):
        if not g.has_edge(u, v) and (u, v) not in seen:
            seen |= oracle._pair_orbit((u, v), generators)
            yield extended(g.adj, u, v), (u, v)
    if n + 1 <= max_vertices:
        orbits = list(range(n))
        for gamma in generators:
            oracle._join_orbits(orbits, enumerate(gamma))
        for u in range(n):
            if orbits[u] == u:
                yield extended(g.adj + (0,), u, n), (u, n)
    if n + 2 <= max_vertices:
        yield extended(g.adj + (0, 0), n, n + 1), (n, n + 1)


def test_augmentation_skips_only_children_accept_rejects(monkeypatch, classes_7_9):
    # A child whose added edge has a smaller degree sum than an edge of its
    # parent is never top-rated, so skipping it before it is built leaves
    # the classes and their order as the unpruned walk gives them.
    accepts = _counted(monkeypatch, "_accept")
    assert sum(1 for _ in iter_graph_classes(8, 10)) == 1500
    # a work counter: the children built and rated at 8/10 (9,205 unpruned)
    assert len(accepts) == 3791
    monkeypatch.setattr(oracle, "_augmentations", _unpruned_augmentations)
    accepts.clear()
    assert list(iter_graph_classes(7, 9)) == classes_7_9
    assert len(accepts) == 1765  # the pruned walk rates 838 children here


def test_class_enumeration_leaves_nothing_behind():
    # The walk memoises nothing, so what it allocated is freed when it ends.
    # A full collection also empties the interpreter's free lists, which
    # would otherwise keep the walk's last tuples.  6/9 rather than 8/10
    # because tracing multiplies the walk's time by about seven; a
    # labelling cache would keep about 96 KB here.
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert sum(1 for _ in iter_graph_classes(6, 9)) == 122
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert left < 64 * 1024


def _automorphism_count(g: Graph) -> int:
    """|Aut(g)| by backtracking over degree-preserving vertex maps."""
    degrees = g.degrees()
    image = [0] * g.n

    def extend(v: int, used: int) -> int:
        if v == g.n:
            return 1
        count = 0
        for w in range(g.n):
            if used >> w & 1 or degrees[w] != degrees[v]:
                continue
            if all(g.has_edge(u, v) == g.has_edge(image[u], w) for u in range(v)):
                image[v] = w
                count += extend(v + 1, used | 1 << w)
        return count

    return extend(0, 0)


def _group_order(n: int, generators) -> int:
    """The order of the permutation group ``generators`` generate: the
    product of its basic orbit lengths on the base 0, 1, ..., n - 1, by the
    Schreier–Sims algorithm.  A closure would not finish on S40."""
    identity = tuple(range(n))
    strong = [[] for _ in range(n)]  # strong[i]: generators fixing 0..i-1
    # orbits[i][p]: an element u fixing 0..i-1 with u[i] == p, and u⁻¹
    orbits = [{i: (identity, identity)} for i in range(n)]

    def insert(g, i):
        # Sift g, which fixes 0..i-1, down the chain.  A residue that does
        # not sift through joins the strong generators of the levels it
        # fixes, and each new (point, generator) pair there gives a
        # Schreier generator, inserted one level down.
        start = i
        while i < n and g != identity:
            if g[i] not in orbits[i]:
                break
            inverse = orbits[i][g[i]][1]
            g, i = tuple(inverse[w] for w in g), i + 1
        else:
            return
        for level in range(i, start - 1, -1):
            strong[level].append(g)
            orbit = orbits[level]
            pending = [(g, p) for p in list(orbit)]
            while pending:
                s, p = pending.pop()
                u = orbit[p][0]
                if s[p] in orbit:
                    back = orbit[s[p]][1]
                    insert(tuple(back[s[w]] for w in u), level + 1)
                else:
                    u = tuple(s[w] for w in u)
                    inverse = [0] * n
                    for v, w in enumerate(u):
                        inverse[w] = v
                    orbit[s[p]] = (u, tuple(inverse))
                    pending += [(r, s[p]) for r in strong[level]]

    for gamma in generators:
        insert(tuple(gamma), 0)
    return math.prod(len(orbit) for orbit in orbits)


def test_labelling_generators_generate_the_automorphism_group(classes_up_to_7):
    # Canonical augmentation accepts a child only when its added edge is in
    # the orbit of the canonical deletion edge under the found generators,
    # so every class is reached only if they generate all of Aut(child).
    # Component recursion labels each disconnected one by its components,
    # and isolated vertices join the small ones as components of their own.
    graphs = classes_up_to_7 + [
        Graph(g.n + 2, g.adj + (0, 0)) for g in classes_up_to_7 if g.n <= 6 and len(components(g)) > 1
    ]
    assert sum(len(components(g)) > 1 for g in graphs) == 48 + 13
    for g in graphs:
        _, _, generators = oracle._canonical_labelling(g.n, g.adj)
        assert _group_order(g.n, generators) == _automorphism_count(g), emit_graph6(g)


def test_labelling_generators_are_automorphisms(classes_7_9):
    rng = random.Random(1998)
    graphs = _symmetric_graphs()
    for g in classes_7_9:
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs += [g, relabel(g, perm)]
    for g in graphs:
        canon, position, generators = oracle._canonical_labelling(g.n, g.adj)
        assert canon == relabel(g, position)
        for gamma in generators:
            assert sorted(gamma) == list(range(g.n))
            assert relabel(canon, gamma) == canon


def test_class_counts_match_oeis(classes_up_to_6, classes_up_to_7):
    # A000664: graphs with m edges and no isolated vertices; 2m vertices
    # hold every one of them, the matching mK2 exactly.
    for m, want in enumerate((1, 2, 5, 11, 26, 68, 177, 497, 1476), 1):
        assert sum(g.m == m for g in iter_graph_classes(2 * m, m)) == want
    # A000088 minus the edgeless graph: 156 graphs on 6 vertices, 1044 on 7
    assert len(classes_up_to_6) == 155
    assert len(classes_up_to_7) == 1043


def _symmetric_graphs():
    names = [f"K{n}" for n in range(1, 13)]
    names += [f"K1_{n}" for n in (1, 2, 3, 5, 9, 10, 17, 40)]
    names += [f"{n}K2" for n in range(1, 9)]
    names += [f"C{n}" for n in (3, 4, 5, 6, 9, 12, 40)]
    names += ["K5"] + [f"K5+{k}K1" for k in range(1, 8)]
    names.append("Petersen")
    return [build_named(name) for name in names]


def _round_refine(neighbours, colors):
    """Colour refinement as whole rounds: every vertex gets the rank of its
    (colour, sorted neighbour colours) among all signatures, until a round
    returns its input."""
    while True:
        signatures = [
            (c, tuple(sorted(colors[u] for u in around))) for c, around in zip(colors, neighbours)
        ]
        lookup = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new = tuple(lookup[sig] for sig in signatures)
        if new == colors:
            return new
        colors = new


def _colour_cells(colors) -> list[list[int]]:
    """The vertices of each colour, by colour, each cell in vertex order."""
    return [[v for v, c in enumerate(colors) if c == colour] for colour in sorted(set(colors))]


def test_refine_matches_round_reference(monkeypatch):
    calls = 0
    real_refine = oracle._refine

    def checked_refine(neighbours, colors, cells):
        nonlocal calls
        calls += 1
        refined, cells = real_refine(neighbours, colors, cells)
        assert refined == _round_refine(neighbours, colors)
        assert cells == _colour_cells(refined)
        return refined, cells

    monkeypatch.setattr(oracle, "_refine", checked_refine)
    labellings = _counted(monkeypatch, "_canonical_labelling")
    assert sum(1 for _ in iter_graph_classes(8, 10)) == 1500
    # the search tree of an 8/10 enumeration: a change in the number of
    # refinements means the labeller explores a different tree
    assert calls == 3403
    assert len(labellings) <= 1800
    for entry in json.loads(SYMMETRIC_CORPUS.read_text())["inputs"]:
        oracle._canonical_adj(parse_graph6(entry["graph6"]))
    monkeypatch.undo()
    rng = random.Random(2014)
    # the last three: no vertex, one vertex, and isolated vertices 1, 3, 4
    extra = [Graph(0, ()), Graph(1, (0,)), Graph.from_edges(6, [(0, 2), (2, 5)])]
    for g in _gnp_graphs(400, 1981, 14) + extra:
        neighbours = oracle._neighbour_lists(g)
        assert neighbours == [[u for u in range(g.n) if row >> u & 1] for row in g.adj]
        if g.n == 0:
            continue
        colors = list(g.degrees())
        colors[rng.randrange(g.n)] = -1
        colors = tuple(colors)
        refined = _round_refine(neighbours, colors)
        got = oracle._refine(neighbours, colors, _colour_cells(colors))
        assert got == (refined, _colour_cells(refined))


def test_canonical_form_invariant_on_symmetric_graphs():
    rng = random.Random(2014)
    for g in _symmetric_graphs():
        canon = canonical_graph(g)
        form = emit_graph6(canon).encode("ascii")
        assert is_isomorphic(canon, g) is not None
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)) == form


def test_canonical_graph_conjugates_no_generators(monkeypatch, capsys):
    # canonical_graph keeps the rows alone; only the class enumeration
    # needs the generators conjugated onto them
    from coline.cli import main

    def forbidden(*args):
        raise AssertionError("canonical_graph conjugated the generators")

    star = build_named("K1_999")
    perm = list(range(star.n))[::-1]
    monkeypatch.setattr(oracle, "_canonical_labelling", forbidden)
    assert canonical_form(star) == canonical_form(relabel(star, perm))
    assert main(["classify", "--named", "K5"]) == 0
    assert json.loads(capsys.readouterr().out)["graph"]["canonical_graph6"] == "D~{"


def test_path_search_runs_on_the_dominating_vertex_extension(monkeypatch):
    # the rows the traceability bridge (criterion 9) is checked on
    seen = []
    real = oracle.hamiltonian_cycle
    monkeypatch.setattr(oracle, "hamiltonian_cycle", lambda g: seen.append(g) or real(g))
    for name in ("P5", "K1_3", "C6"):
        g = build_named(name)
        seen.clear()
        hamiltonian_path(g)
        assert seen == [add_dominating_vertex(g)], name


def test_canonical_search_work_is_polynomial_on_symmetric_graphs(monkeypatch):
    calls = 0
    real_refine = oracle._refine

    def counting_refine(g, colors, cells):
        nonlocal calls
        calls += 1
        return real_refine(g, colors, cells)

    monkeypatch.setattr(oracle, "_refine", counting_refine)
    # each refines to a homogeneous colouring at the root, where the search
    # takes one leaf without refining again
    for name in ("K12", "K1_40", "K5+7K1", "K1_999", "K100"):
        g = build_named(name)
        calls = 0
        oracle._canonical_adj(g)
        assert calls == 1, name


def test_canonical_search_trees_are_pinned(monkeypatch):
    # graphs whose search branches and prunes by orbits: a node that skips
    # a different set of children changes its refinement count.  The two
    # seeded random cubic graphs find automorphisms that move the prefix
    # of a node pushed later, which that node's orbits must leave out.
    # The disconnected ones are searched whole, as ``canonical_graph``
    # no longer does (below).
    refinements = _counted(monkeypatch, "_refine")
    named = {
        "8K2": 64, "20K2": 400, "10K3": 252, "C40": 6,
        "Petersen": 15, "6C4": 113, "4K1_3": 30, "K3+2K2": 4,
    }
    cubic = {"MKW@GoA@S_?D@DoG?": 18, "MAGs?OBQ?LY??Sg?_": 14}
    pinned = [(name, build_named(name), want) for name, want in named.items()]
    pinned += [(form, parse_graph6(form), want) for form, want in cubic.items()]
    for name, g, want in pinned:
        refinements.clear()
        oracle._canonical_search(g)
        assert len(refinements) == want, name


def test_component_recursion_searches_each_component_once(monkeypatch):
    # Components with the same rows share one search, so the refinements
    # are those of one component.  One search over the whole graph took
    # 10,000, 90,000 and 4,959 on 100K2, 300P3 and 40C25.
    refinements = _counted(monkeypatch, "_refine")
    named = {
        "8K2": 1, "20K2": 1, "10K3": 1, "6C4": 3, "4K1_3": 1, "K3+2K2": 2,
        "100K2": 1, "300P3": 1, "40C25": 6, "2C4+K3+5K1": 4,
    }
    for name, want in named.items():
        refinements.clear()
        canonical_graph(build_named(name))
        assert len(refinements) == want, name


def test_one_component_with_edges_is_searched_whole(monkeypatch):
    # isolated vertices alone start no component recursion, which would
    # relabel the giant component of a sparse input to split them off
    searched = []
    real = oracle._canonical_search
    monkeypatch.setattr(oracle, "_canonical_search", lambda g: searched.append(g) or real(g))
    for g in (build_named("K5+3K1"), build_named("C11"), _sparse_with_isolated(60, 1)):
        assert sum(1 for mask in components(g) if mask & mask - 1) == 1
        searched.clear()
        canonical_graph(g)
        assert searched == [g], emit_graph6(g)


# Disconnected graphs that mix isomorphic and non-isomorphic components,
# with and without isolated vertices; the last two have one component
# with an edge, which is searched whole with its isolated vertices.
DISCONNECTED_SPECS = (
    "2K2", "3K2", "2K2+K1", "K3+2K2", "K3+P3", "C4+K2", "2C4+K3+5K1", "K1_3+K1_3+K2+2K1",
    "P4+P4+C4+C4+4K1", "3K3+2P3+2K1", "Petersen+Petersen+K2", "C5+C6", "C11", "K4+3K1",
)


def test_component_recursion_forms_are_canonical():
    rng = random.Random(2011)
    forms = {}
    for spec in DISCONNECTED_SPECS:
        g = build_named(spec)
        canon = canonical_graph(g)
        assert is_isomorphic(g, canon) is not None, spec
        for _ in range(20):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_graph(relabel(g, perm)) == canon, spec
        forms[spec] = canon
    assert len(set(forms.values())) == len(DISCONNECTED_SPECS)


# Forms that component recursion moved, old: new.  The catalog members
# and the census of the 8/10 report (H3 is G@@CG[), the derived trace9,
# and classify's canonical_graph6 of 2K2.
REPINNED_FORMS = {
    "E_N?": "EWCW", "E`QG": "E`Cg", "EwF_": "E`Kw", "F?YCg": "FW?Ow", "FGECW": "F_C`W",
    "FGaSW": "F_GpW", "F_Ce?": "F`?GW", "F_MEG": "FWCOw", "F`BEW": "F`?pw", "Fw?^?": "FWCWw",
    "G@OCCK": "G`??O[", "G_CcEC": "G`?GO[", "Gw?Gf?": "G`?GW[", "G@@CG[": "G_?PG[",
    "D`o": "D`K", "EGaW": "E_Gw", "E`bG": "E`Gw", "CK": "C`",
}


def test_repinned_forms_are_isomorphic_to_their_old_forms():
    # by the embedding search, which shares no code with the labeller
    for old, new in REPINNED_FORMS.items():
        g, h = parse_graph6(old), parse_graph6(new)
        assert is_isomorphic(g, h) is not None, (old, new)
        assert emit_graph6(canonical_graph(g)) == new, old


def test_homogeneous_shortcut_keeps_every_form_and_group(monkeypatch, classes_7_9):
    # Below a homogeneous node every leaf is an image of the first under
    # the permutations inside the cells, so taking that leaf alone moves
    # neither the minimum leaf nor the group the generators generate.
    inputs = json.loads(SYMMETRIC_CORPUS.read_text())["inputs"]
    graphs = classes_7_9 + [parse_graph6(entry["graph6"]) for entry in inputs]
    graphs += _symmetric_graphs()
    labelled = [oracle._canonical_labelling(g.n, g.adj) for g in graphs]
    monkeypatch.setattr(oracle, "_homogeneous", lambda adj, cells: False)
    for g, (canon, _, generators) in zip(graphs, labelled):
        plain, _, plain_generators = oracle._canonical_labelling(g.n, g.adj)
        assert canon.adj == plain.adj, emit_graph6(g)
        order = _group_order(g.n, plain_generators)
        assert _group_order(g.n, generators) == order, emit_graph6(g)


# --- containment -----------------------------------------------------------------

def test_contains_subgraph_examples():
    assert contains_subgraph(build_named("K4"), build_named("K3"))
    assert contains_subgraph(build_named("H2"), build_named("K3_circ_K1"))
    assert not contains_subgraph(build_named("H1"), build_named("K4_minus"))
    assert not contains_subgraph(build_named("H1"), build_named("F4"))


def test_is_induced_free_examples():
    pattern = build_named("K2+3K1")
    assert induced_k2_3k1(coline(build_named("K5"))[0]) is None
    assert induced_k2_3k1(pattern) == (0, 1, 2, 3, 4)
    # induced, not just contained: K6 holds K2+3K1 as a subgraph
    assert contains_subgraph(build_named("K6"), pattern)
    assert induced_k2_3k1(build_named("K6")) is None


# Named patterns on at most 5 vertices with a class of twins (u, v with
# N(u) - v == N(v) - u).  Twins give a pattern many equivalent embeddings,
# so a search rule that wrongly prunes some of them would show here.
TWIN_PATTERNS = (
    "K2", "3K1", "K2+K1", "P3", "K3", "2K2", "C4", "K1_3", "K3+K1", "P3+K1",
    "K3_plus", "K4_minus", "K4", "K2+3K1", "K1_4", "K5",
)


def _has_twins(g: Graph) -> bool:
    return any(
        g.adj[u] & ~(1 << v) == g.adj[v] & ~(1 << u) for u, v in combinations(range(g.n), 2)
    )


def _labelled_induced_subgraphs(host: Graph, size: int) -> set[int]:
    """Edge masks (bit of pair index over combinations(range(size), 2)) of
    the graphs that every injective sequence of ``size`` host vertices
    induces."""
    pairs = list(combinations(range(size), 2))
    return {
        sum(1 << i for i, (a, b) in enumerate(pairs) if host.has_edge(image[a], image[b]))
        for image in permutations(range(host.n), size)
    }


def _first_k2_3k1(g: Graph):
    """The least ``(a, b, x, y, z)`` with ab the only edge among the five
    (a < b, x < y < z), over every 5-set of ``g``; None if there is none."""
    found = []
    for five in combinations(range(g.n), 5):
        edges = [pair for pair in combinations(five, 2) if g.has_edge(*pair)]
        if len(edges) == 1:
            found.append(edges[0] + tuple(v for v in five if v not in edges[0]))
    return min(found, default=None)


def test_embedding_searches_match_permutation_reference(classes_up_to_6, classes_up_to_7):
    patterns = [build_named(name) for name in TWIN_PATTERNS]
    assert all(_has_twins(p) for p in patterns)
    hosts = list(classes_up_to_6)
    hosts += [coline(g)[0] for g in classes_up_to_7 if g.m <= 7]
    k2_3k1 = 1  # the edge mask of K2+3K1: pair (0, 1), the first of combinations(range(5), 2)
    for host in hosts:
        induced = {}
        for pattern in patterns:
            if pattern.n > host.n:
                assert not contains_subgraph(host, pattern)
                continue
            if pattern.n not in induced:
                induced[pattern.n] = _labelled_induced_subgraphs(host, pattern.n)
            want = sum(
                1 << i
                for i, (a, b) in enumerate(combinations(range(pattern.n), 2))
                if pattern.has_edge(a, b)
            )
            found = induced[pattern.n]
            assert contains_subgraph(host, pattern) == any(mask & want == want for mask in found)
        witness = induced_k2_3k1(host)
        assert (witness is None) == (k2_3k1 not in induced.get(5, ()))
        assert witness == _first_k2_3k1(host)
    # hosts that hold copies: every witness induces K2+3K1, and is the first
    holding = 0
    for host in _gnp_graphs(400, 1970, 9):
        witness = induced_k2_3k1(host)
        assert witness == _first_k2_3k1(host)
        if witness is not None:
            holding += 1
            a, b = witness[:2]
            assert [pair for pair in combinations(witness, 2) if host.has_edge(*pair)] == [(a, b)]
    assert holding == 81  # of the 400, so the witnesses are exercised too


# --- powers of a Hamiltonian cycle and cms ------------------------------------------

def test_contains_power_ham_cycle():
    assert contains_power_ham_cycle(build_named("K5"), 2)
    assert not contains_power_ham_cycle(build_named("Petersen"), 1)
    prism, _ = coline(build_named("C6"))
    assert contains_power_ham_cycle(prism, 1)
    assert contains_power_ham_cycle(prism, 0)
    assert not contains_power_ham_cycle(Graph(2, (2, 1)), 1)
    assert contains_power_ham_cycle(Graph(2, (2, 1)), 0)  # k = 0 holds below 3 vertices too
    with pytest.raises(ValueError, match="power must be non-negative"):
        contains_power_ham_cycle(prism, -1)


def test_power_one_matches_hamiltonicity(classes_up_to_6):
    for g in classes_up_to_6[:120]:
        assert contains_power_ham_cycle(g, 1) == (hamiltonian_cycle(g) is not None)


def _power_cycle_masks(n: int, k: int) -> set[int]:
    """Pair masks (bit u * n + v, u < v) of the k-th powers of every
    spanning cycle on vertices 0..n-1."""
    masks = set()
    for rest in permutations(range(1, n)):
        order = (0,) + rest
        mask = 0
        for i in range(n):
            for d in range(1, min(k, n - 1) + 1):
                u, v = sorted((order[i], order[(i + d) % n]))
                mask |= 1 << u * n + v
        masks.add(mask)
    return masks


def test_power_ham_cycle_matches_cyclic_order_reference(classes_up_to_7):
    # Every graph on at most 7 vertices, relabelled too, and dense random
    # graphs on 8, where the window first wraps past a position it skips.
    rng = random.Random(7)
    graphs = []
    for g in classes_up_to_7:
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs += [g, relabel(g, perm)]
    for _ in range(300):
        p = rng.choice((0.6, 0.7, 0.8, 0.9))
        graphs.append(Graph.from_edges(8, [e for e in combinations(range(8), 2) if rng.random() < p]))
    for k in (1, 2, 3):
        masks = {n: _power_cycle_masks(n, k) for n in range(3, 9)}
        for g in graphs:
            if g.n < 3:
                continue
            edges = sum(1 << u * g.n + v for u, v in g.edges() if u < v)
            want = any(mask & ~edges == 0 for mask in masks[g.n])
            assert contains_power_ham_cycle(g, k) == want, (emit_graph6(g), k)


def test_cms_exact():
    assert cms_exact(build_named("K5")) == 1
    assert cms_exact(build_named("C6")) >= 2
    assert cms_exact(build_named("C5")) == 2  # co(C5) = C5 holds no square of a cycle
    assert cms_exact(build_named("K2")) == 1
    # a perfect matching has a complete coline graph, so every window works
    assert cms_exact(build_named("5K2")) == 5
    with pytest.raises(ValueError):
        cms_exact(Graph(3, (0, 0, 0)))


# --- roots ---------------------------------------------------------------------------

def test_find_roots_whitney_pair():
    result = find_roots(Graph(3, (0, 0, 0)))
    names = {canonical_form(g) for g in result.roots}
    assert names == {canonical_form(build_named("K3")), canonical_form(build_named("K1_3"))}
    assert result.complete


def test_cycle_or_path_is_a_frozen_value():
    walk = CycleOrPath((0, 2, 1), True)
    assert len(walk) == 3 and len(CycleOrPath((), False)) == 0
    assert repr(walk) == "CycleOrPath(vertices=(0, 2, 1), closed=True)"
    assert walk == CycleOrPath((0, 2, 1), True) and hash(walk) == hash(CycleOrPath((0, 2, 1), True))
    assert walk != CycleOrPath((0, 2, 1), False) and walk != ((0, 2, 1), True)
    for field in ("vertices", "closed"):
        with pytest.raises(AttributeError):
            setattr(walk, field, ())
        with pytest.raises(AttributeError):
            delattr(walk, field)
    assert walk.vertices == (0, 2, 1) and walk.closed


def test_find_roots_c5():
    result = find_roots(build_named("C5"))
    assert [canonical_form(g) for g in result.roots] == [canonical_form(build_named("C5"))]
    assert not result.complete  # roots on up to 10 vertices are conceivable
    assert find_roots(build_named("C4")).complete  # a 4-edge root has at most 8 vertices
    # K5 minus an edge: its one root, 3K2+P3, has 9 vertices, beyond the budget
    assert find_roots(coline(build_named("3K2+P3"))[0]) == oracle.RootSearch((), False)


def test_find_roots_more_edges_than_fit_skips_enumeration(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated classes for an impossible root")

    monkeypatch.setattr(oracle, "iter_graph_classes", no_enumeration)
    # P40 has 40 vertices, so a root needs 40 edges; 8 vertices hold 28
    assert find_roots(build_named("P40")) == oracle.RootSearch((), False)


def test_find_roots_petersen(served_sweep_range):
    result = find_roots(build_named("Petersen"))
    assert [canonical_form(g) for g in result.roots] == [canonical_form(build_named("K5"))]
    assert not result.complete  # 9..20-vertex roots are beyond the budget
