"""Regenerate the exception catalogs from first principles.

The 18 graphs with non-tough coline graphs not already explained by edge
counting and the 21 survivors of the five-clause Hamiltonicity criterion
are not transcribed from anywhere: an exhaustive sweep with the exact
oracles recovers them, and hard count checks make any drift fail loudly.
The 9 extra non-traceable cases follow from the 18: co(G) has a spanning
path exactly when co(G + K2) is Hamiltonian, so they are the 18 members
with a K2 component, less it.
"""

from coline import build_named, coline, emit_graph6, hamiltonian_path, is_tough
from coline.characterize import plus_k2
from coline.oracle import canonical_form
from coline.sweep import bootstrap_catalog

catalog, summary = bootstrap_catalog()
print(f"bootstrap summary: {summary}")

print("\nthe 18 toughness exceptions (canonical graph6, n, m):")
for g in catalog.toughness_exceptions:
    l, _ = coline(g)
    assert not is_tough(l).value
    print(f"  {emit_graph6(g):10s} n={g.n} m={g.m}")

print("\nthe 9 traceability exceptions, each a toughness exception less a K2:")
tough_forms = {canonical_form(g) for g in catalog.toughness_exceptions}
for g in catalog.trace_exceptions:
    l, _ = coline(g)
    assert hamiltonian_path(l) is None
    member = canonical_form(plus_k2(g))
    assert member in tough_forms
    print(f"  {emit_graph6(g):10s} n={g.n} m={g.m}  = {member.decode():8s} less K2")

print("\nthe 21 five-clause survivors are the 18 plus H1, H2, H3:")
survivors = {g.adj for g in catalog.wu_meng_21}
print(f"  wu_meng_21 size = {len(catalog.wu_meng_21)}")
print(f"  every toughness exception is among them: "
      f"{all(g.adj in survivors for g in catalog.toughness_exceptions)}")
for name in ("H1", "H2", "H3"):
    member = canonical_form(build_named(name)) in {
        canonical_form(g) for g in catalog.wu_meng_21
    }
    print(f"  {name} among them: {member}")
