"""Hamiltonicity, toughness and traceability of coline graphs.

The coline graph co(G) has the edges of G as vertices, joined when they
share no endpoint (the complement of the line graph).  This package
provides the graph constructions, polynomial-time decision procedures for
co(G) based on complete characterisations, exact exponential-time oracles
that double-check every verdict, and an exhaustive small-graph sweep that
reproduces the exception catalogs from scratch.

The package root is the decision layer: the constructions, graph6, the
oracles and the decisions.  The sweep and the catalog bootstrap live in
``coline.sweep`` and are imported from there, so a process that only
classifies never loads them or their process pool.

Nor does it load ``dataclasses``.  The records the oracles and decisions
return (``ToughnessResult``, ``ClauseVerdict``, ``Catalog``,
``DecisionReport`` and the rest) are ``NamedTuple``s, which cost little to
create at import.  ``Graph`` and ``CycleOrPath`` are small plain classes
with the equality, hashing and repr of a frozen dataclass: ``Graph``
checks its rows and caches its edge count, and the ``len()`` of a
``CycleOrPath`` is its vertex count, so neither fits a tuple.
"""

__version__ = "0.1.0"

from .graphcore import (
    Graph,
    add_dominating_vertex,
    build_named,
    coline,
    components,
    disjoint_union,
    is_connected,
    line_graph,
    strip_isolated,
)
from .graph6 import emit_graph6, parse_edge_list, parse_graph6
from .oracle import (
    CycleOrPath,
    IsoCertificate,
    RootSearch,
    ToughnessResult,
    ToughnessWitness,
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
    longest_cycle,
)
from .characterize import (
    Catalog,
    ClauseVerdict,
    ColineCase,
    ColineClass,
    DecisionReport,
    ScopeError,
    build_report,
    classify_disconnected_coline,
    decide_coline_hamiltonian,
    decide_coline_tough,
    decide_coline_traceable,
    decide_wu_meng,
    is_type_A,
    load_catalog,
    rho,
)

__all__ = [name for name in dir() if not name.startswith("_")]
