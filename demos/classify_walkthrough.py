"""Classify a handful of graphs and confirm every verdict with the oracle.

The decision procedures answer in polynomial time from edge counts, a few
subgraph tests and catalog membership; the exponential searches then
recompute each verdict from scratch on the coline graph.
"""

from coline import build_named, coline
from coline.characterize import build_report, load_catalog
from coline.oracle import hamiltonian_cycle, hamiltonian_path, is_tough

catalog = load_catalog()

for name in ("K5", "H1", "H3", "C6", "K3_circ_K1", "C4+K2", "K1_4", "F4"):
    g = build_named(name)
    report = build_report(g, catalog)
    l, _ = coline(g)
    hamiltonian = hamiltonian_cycle(l) is not None
    agree = (
        is_tough(l).value == report.tough.value
        and hamiltonian == report.hamiltonian.value == report.wu_meng.value
        and (hamiltonian_path(l) is not None) == report.traceable.value
    )
    print(f"{name:12s} m={report.m:2d} max_deg={report.max_degree}")
    print(f"  tough:       {report.tough.value}  clause={report.tough.clause}")
    print(f"  hamiltonian: {report.hamiltonian.value}  clause={report.hamiltonian.clause}"
          f"  (five-clause: {report.wu_meng.clause})")
    print(f"  traceable:   {report.traceable.value}  clause={report.traceable.clause}")
    print(f"  oracle agrees on all three: {agree}")
