"""Longest-cycle structure checks, positive and negative.

On a certified longest cycle every structural property holds (otherwise a
longer cycle could be spliced together), so the checkers stay silent.
Handing them a deliberately short cycle makes each one fire, which is what
certifies they test something real.  The trivial-components property holds
only on tough hosts, so a genuine longest cycle of a non-tough coline is
its control.
"""

import itertools

from coline import build_named, coline, longest_cycle
from coline.lemmacheck import (
    check_trivial_components,
    make_context,
    run_all_checks,
)
from coline.oracle import CycleOrPath

print("positive direction: the four tough non-Hamiltonian coline graphs")
for name in ("K5", "H1", "H2", "H3"):
    g = build_named(name)
    l, _ = coline(g)
    cycle = longest_cycle(l)
    ctx = make_context(l, cycle)
    violations = run_all_checks(ctx) + check_trivial_components(ctx)
    print(f"  co({name}): longest cycle {len(cycle)}/{l.n}, violations: {len(violations)}")

print("\nnegative control: a 4-cycle in the prism co(C6)")
prism, _ = coline(build_named("C6"))
for combo in itertools.permutations(range(6), 4):
    if combo[0] == 0 and all(prism.has_edge(combo[i], combo[(i + 1) % 4]) for i in range(4)):
        off = [v for v in range(6) if v not in combo]
        if prism.has_edge(*off):
            control = CycleOrPath(combo, True)
            break
ctx = make_context(prism, control)
violations = run_all_checks(ctx)
kinds = sorted({v.kind for v in violations})
print(f"  short cycle {control.vertices}: {len(violations)} violations of kinds {kinds}")
print(f"  first witness: {violations[0]}")

print("\nnegative control: a longest cycle of the non-tough co(C4+K2)")
l, _ = coline(build_named("C4+K2"))
ctx = make_context(l, longest_cycle(l))
(violation,) = check_trivial_components(ctx)
others = len(run_all_checks(ctx))
print(f"  longest cycle {len(ctx.cycle)}/{l.n}: {violation.detail}; other violations: {others}")
