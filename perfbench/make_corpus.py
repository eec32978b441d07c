"""Write the benchmark's recorded expectations.

Run from the repository root:  python3 perfbench/make_corpus.py

* ``corpus_symmetric.json``: the symmetric classify corpus.  Each verdict is
  the decision procedure's; where the coline has at most ORACLE_MAX_EDGES
  vertices it is confirmed against the exact oracles, and the script stops
  on any disagreement.  Coline component counts are computed here, not by
  the program.
* ``expected_certify.json``: per sweep range, the class count, the exception
  census sizes, and isomorphism invariants of the self-coline graphs and
  Whitney pairs, so that the check survives a change of canonical labelling.

Rerun only when the recorded truth changes; the benchmark reads these files
and never regenerates them.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from corpus import (  # noqa: E402
    EXPECTED_CERTIFY,
    SYMMETRIC_CORPUS,
    VERDICTS,
    decode_graph6,
    encode_graph6,
    invariants,
)

from coline import characterize, oracle, sweep  # noqa: E402
from coline.characterize import ScopeError  # noqa: E402
from coline.graphcore import Graph, build_named, coline  # noqa: E402

ORACLE_MAX_EDGES = 12
CERTIFY_RANGES = ((8, 10), (5, 6))


def symmetric_names() -> list[str]:
    names = [f"K1_{k}" for k in range(2, 9)]
    names += [f"K{k}" for k in range(3, 9)]
    names += [f"{k}K2" for k in range(2, 6)]
    names += [f"C{k}" for k in range(4, 13)]
    names += ["Petersen", "2K3", "3K3", "K4+K4", "2C4", "K1_4+K1_4"]
    names += [name for name in characterize.NAMED_CATALOG_GRAPHS if name not in names]
    return names


def coline_components(edges) -> int:
    """Components of the disjointness graph on the edges."""
    unseen = set(range(len(edges)))
    count = 0
    while unseen:
        count += 1
        frontier = [unseen.pop()]
        while frontier:
            i = frontier.pop()
            for j in [j for j in unseen if not set(edges[i]) & set(edges[j])]:
                unseen.discard(j)
                frontier.append(j)
    return count


def entry_for(name: str, g: Graph, catalog) -> dict:
    edges = list(g.edges())
    entry = {"name": name, "graph6": encode_graph6(g.n, edges)}
    entry["invariants"] = invariants(g.n, edges)
    entry["coline_components"] = coline_components(edges)
    try:
        report = characterize.build_report(g, catalog)
    except ScopeError:
        entry["verdicts"] = None
        entry["oracle_confirmed"] = False
        return entry
    entry["verdicts"] = {key: getattr(report, key).value for key in VERDICTS}
    entry["oracle_confirmed"] = g.m <= ORACLE_MAX_EDGES
    if entry["oracle_confirmed"]:
        l, _ = coline(g)
        hamiltonian = oracle.hamiltonian_cycle(l) is not None
        truth = {
            "tough": oracle.is_tough(l).value,
            "hamiltonian": hamiltonian,
            "wu_meng": hamiltonian,
            "traceable": oracle.hamiltonian_path(l) is not None,
        }
        if truth != entry["verdicts"]:
            raise SystemExit(f"{name}: decisions {entry['verdicts']} != oracles {truth}")
    return entry


def symmetric_corpus(catalog) -> dict:
    graphs = {name: build_named(name) for name in symmetric_names()}
    k5 = build_named("K5")
    for extra in range(1, 6):
        graphs[f"K5+{extra}K1"] = Graph(k5.n + extra, k5.adj + (0,) * extra)
    inputs = [entry_for(name, g, catalog) for name, g in graphs.items()]
    for entry in inputs:
        n, edges = decode_graph6(entry["graph6"])
        assert invariants(n, edges) == entry["invariants"], entry["name"]
    return {"oracle_max_edges": ORACLE_MAX_EDGES, "inputs": inputs}


def certify_expectations(catalog) -> dict:
    table = {}
    for max_vertices, max_edges in CERTIFY_RANGES:
        expected = sweep.expected_census(catalog, max_vertices, max_edges)
        self_coline = sorted(
            invariants(*decode_graph6(form.decode("ascii")))
            for form in sweep.self_coline_census(min(max_vertices, 7))
        )
        whitney = sorted(
            sorted(invariants(g.n, g.edges()) for g in pair)
            for pair in sweep.whitney_census(min(max_vertices, 6))
        )
        table[f"{max_vertices}x{max_edges}"] = {
            "classes": sum(1 for _ in sweep.enumerate_classes(max_vertices, max_edges)),
            "census_sizes": {key: len(forms) for key, forms in sorted(expected.items())},
            "self-coline": self_coline,
            "whitney-pairs": whitney,
        }
    return table


def write_json(path: str, table: dict) -> None:
    """One top-level entry, or one list item, per line."""
    lines = []
    for key, value in table.items():
        if isinstance(value, list):
            items = ",\n  ".join(json.dumps(item) for item in value)
            lines.append(f"{json.dumps(key)}: [\n  {items}\n ]")
        else:
            lines.append(f"{json.dumps(key)}: {json.dumps(value)}")
    with open(path, "w", encoding="ascii") as handle:
        handle.write("{\n " + ",\n ".join(lines) + "\n}\n")


def main() -> None:
    catalog = characterize.load_catalog()
    write_json(SYMMETRIC_CORPUS, symmetric_corpus(catalog))
    write_json(EXPECTED_CERTIFY, certify_expectations(catalog))


if __name__ == "__main__":
    main()
