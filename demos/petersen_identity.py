"""The marquee example: co(K5) is the Petersen graph.

Builds K5, takes its coline graph (vertices = edges of K5, joined when
disjoint), and lets the exact oracles tell the whole story: isomorphic to
Petersen, tough, not Hamiltonian, longest cycle of length 9, traceable.
Finally searches for every root graph that produces this coline graph.
"""

from coline import (
    build_named,
    coline,
    emit_graph6,
    find_roots,
    hamiltonian_cycle,
    hamiltonian_path,
    is_isomorphic,
    is_tough,
    longest_cycle,
)

k5 = build_named("K5")
l, edge_list = coline(k5)
print(f"K5 has {k5.m} edges, so co(K5) has {l.n} vertices and {l.m} edges")
print(f"vertex i of co(K5) is edge {edge_list[0]} .. {edge_list[-1]} of K5")

petersen = build_named("Petersen")
cert = is_isomorphic(l, petersen)
print(f"isomorphic to the Petersen graph: {cert is not None}")
print(f"  one isomorphism: {cert.mapping}")

print(f"tough: {is_tough(l).value}")
print(f"Hamiltonian cycle: {hamiltonian_cycle(l)}")
best = longest_cycle(l)
print(f"longest cycle has length {len(best)}: {best.vertices}")
path = hamiltonian_path(l)
print(f"but a spanning path exists: {path.vertices}")

result = find_roots(l)
print(f"root graphs on <= 8 vertices: {[emit_graph6(g) for g in result.roots]}"
      f" (K5 is {emit_graph6(k5)}; search complete: {result.complete})")
