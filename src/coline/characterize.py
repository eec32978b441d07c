"""Polynomial-time decision procedures for coline graphs.

Each decision mirrors a complete characterisation: toughness and
Hamiltonicity of co(G) reduce to edge/degree counts, a handful of subgraph
tests and membership in small frozen exception catalogs.  The catalogs are
not hand-entered; they are produced once by the exhaustive sweep (see
``coline.sweep.bootstrap_catalog``) and validated against their defining
predicates on load.  The named roots the clauses test against are built
here, from code, and never stored in the catalog file.
"""

from __future__ import annotations

import os
from enum import Enum
from functools import cache
from itertools import combinations
from typing import NamedTuple

from . import oracle
from .graph6 import Graph6Error, emit_graph6, parse_graph6
from .graphcore import (
    Graph,
    _f_graph,
    build_named,
    coline,
    components,
    strip_isolated,
)

CATALOG_FORMAT = "coline-catalog v2"

# The range the sweep covers by default and the acceptance tests certify:
# inside it every verdict has been checked against the exact oracles.
DEFAULT_MAX_VERTICES = 8
DEFAULT_MAX_EDGES = 10

NAMED_CATALOG_GRAPHS = (
    "K5", "H1", "H2", "H3", "K3_circ_K1",
    "K3+P3", "K3+2K2", "C4+K2", "K3_plus", "K4_minus", "K4",
)
# The named roots every clause below tests against; the only copy.
NAMED = {name: build_named(name) for name in NAMED_CATALOG_GRAPHS}

# Catalog sections: (section tag, Catalog field, required member count).
CATALOG_SECTIONS = (
    ("tough18", "toughness_exceptions", 18),
    ("trace9", "trace_exceptions", 9),
)

# The roots whose coline is tough but not Hamiltonian.
NON_HAMILTONIAN_ROOTS = ("K5", "H1", "H2", "H3")
# Wu-Meng clause (iii): roots excluded by isomorphism.
WU_MENG_NAMED = ("K3+P3", "K3+2K2", "C4+K2")
# Wu-Meng clause (iv): with m edges, a root containing one of these (as a
# non-induced subgraph) is excluded.
WU_MENG_BLOCKERS = {6: ("K3_plus",), 7: ("K4_minus", "K3_circ_K1"), 8: ("K4",)}
# The corona of K3: traceability clause (iv), never a trace9 member.
CORONA = "K3_circ_K1"
# The 4-cycle: a disconnected-coline family of its own.
_C4 = build_named("C4")


class ScopeError(ValueError):
    """Input outside the range where the characterisation applies."""


class CatalogError(RuntimeError):
    """Missing, malformed or internally inconsistent catalog data."""


class ColineCase(Enum):
    STAR = "star"
    TYPE_A = "type-A"
    C4 = "C4"
    F = "F_k"
    K4_MINUS = "K4_minus"
    K4 = "K4"
    CONNECTED = "connected"


class ColineClass(NamedTuple):
    """Which disconnection family co(G) falls into, with c(co(G)) and rho."""

    case: ColineCase
    parameter: int | None  # lambda for stars, k for F_k
    component_count: int
    rho: int | None


class ClauseVerdict(NamedTuple):
    """Outcome of one clause-based decision.

    ``clause`` is the first matching exception clause ("none" when the
    property holds); ``all_matches`` lists every clause that fired, since
    the clauses of a characterisation may overlap.
    """

    value: bool
    clause: str
    all_matches: tuple[str, ...]


class Catalog(NamedTuple):
    toughness_exceptions: tuple[Graph, ...]
    trace_exceptions: tuple[Graph, ...]

    @property
    def wu_meng_21(self) -> tuple[Graph, ...]:
        """The roots Wu-Meng clauses (iii)/(iv) exclude past the counting
        clauses: the non-tough ones and the tough non-Hamiltonian ones
        except K5, which is clause (v).  Bootstrap checks this equality."""
        return self.toughness_exceptions + tuple(
            NAMED[name] for name in NON_HAMILTONIAN_ROOTS if name != "K5"
        )


class DecisionReport(NamedTuple):
    m: int
    max_degree: int
    tough: ClauseVerdict
    hamiltonian: ClauseVerdict
    wu_meng: ClauseVerdict
    traceable: ClauseVerdict


# --- Lemma-style classification of disconnected colines ----------------------

def _has_dominating_edge(g: Graph) -> bool:
    """Some edge meets every other edge."""
    degrees = g.degrees()
    return any(degrees[u] + degrees[v] - 2 == g.m - 1 for u, v in g.edges())


def is_type_A(g: Graph) -> bool:
    """Some edge meets every other edge, and co(G) has exactly 2 components."""
    return _has_dominating_edge(g) and len(components(coline(g)[0])) == 2


def rho(g: Graph) -> int | None:
    """|E(G)| + c(co(G)) when co(G) is disconnected, else None.

    Any supergraph of G with fewer than rho(G) edges cannot have a tough
    coline graph, which is what makes this quantity useful.
    """
    return classify_disconnected_coline(g).rho


def classify_disconnected_coline(g: Graph) -> ColineClass:
    """Place g in the six-family classification of disconnected colines.

    Isolated vertices of g are ignored.  The families as literally stated
    overlap on K_{1,2} (a star whose single edge pair is mutually
    adjacent), so stars take precedence; the concrete small graphs are
    matched before the type-A fallback.
    """
    core = strip_isolated(g)
    l, _ = coline(core)
    count = len(components(l))
    if count < 2:
        return ColineClass(ColineCase.CONNECTED, None, count, None)
    value = core.m + count

    # with no isolated vertex, a vertex on all m = n - 1 edges makes the core K_{1,m}
    if core.m == core.n - 1 == core.max_degree():
        return ColineClass(ColineCase.STAR, core.m, count, value)
    if oracle.is_isomorphic(core, _C4):
        return ColineClass(ColineCase.C4, None, count, value)
    if oracle.is_isomorphic(core, NAMED["K4_minus"]):
        return ColineClass(ColineCase.K4_MINUS, None, count, value)
    if oracle.is_isomorphic(core, NAMED["K4"]):
        return ColineClass(ColineCase.K4, None, count, value)
    # F_k has k + 1 vertices and k + 1 edges
    k = core.m - 1
    if core.n == k + 1 and oracle.is_isomorphic(core, _f_graph(k)):
        return ColineClass(ColineCase.F, k, count, value)
    if count == 2 and _has_dominating_edge(core):
        return ColineClass(ColineCase.TYPE_A, None, count, value)
    raise AssertionError(
        f"disconnected coline escaped the classification: {emit_graph6(core)}"
    )


# --- clause machinery ---------------------------------------------------------

def _clause_centres(core: Graph, slack: int) -> tuple[str, tuple[int, ...]] | None:
    """The counting clause that fires and the maximum-degree vertices it
    names: "(i)" and one vertex when m < 2*Delta - slack, "(ii)" and two
    adjacent ones when m = 2*Delta - slack, otherwise None."""
    degrees = core.degrees()
    delta = max(degrees, default=0)
    bound = 2 * delta - slack
    if core.m < bound:
        return "(i)", (degrees.index(delta),)
    if core.m == bound:
        for u, v in core.edges():
            if degrees[u] == delta and degrees[v] == delta:
                return "(ii)", (u, v)
    return None


def counting_clause(core: Graph, slack: int) -> str | None:
    """The counting clause that fires for a root without isolated vertices.

    "(i)" when m < 2*Delta - slack, "(ii)" when m = 2*Delta - slack and two
    maximum-degree vertices are adjacent, otherwise None.  Slack is 0 for
    toughness and the Wu-Meng criterion, 1 for traceability.
    """
    fired = _clause_centres(core, slack)
    return None if fired is None else fired[0]


def clause_cutset(core: Graph, slack: int) -> tuple[int, ...] | None:
    """The cutset S the firing counting clause names, as vertices of
    co(core) (edge indices of ``core.edges()``), or None if none fires.

    S is every edge off the stars of the clause's vertices.  Removing it
    leaves those stars, whose edges pairwise meet: under (i) Delta isolated
    vertices, under (ii) the edge uv isolated from the rest.  Within the
    decisions' scope (3 edges for toughness, 2 for traceability) that is at
    least |S| + 1 + slack components, and at least 2, so co(core) is not
    tough and, with slack 1, not traceable.
    """
    fired = _clause_centres(core, slack)
    if fired is None:
        return None
    centres = fired[1]
    return tuple(i for i, (a, b) in enumerate(core.edges()) if a not in centres and b not in centres)


def wu_meng_blocker(core: Graph) -> str | None:
    """"(iii)" when core is a named Wu-Meng exception, "(iv)" when it has a
    size-gated blocker subgraph, otherwise None.  The two never overlap:
    the named exceptions have 5 edges, the blockers apply at 6 to 8."""
    if any(oracle.is_isomorphic(core, NAMED[name]) for name in WU_MENG_NAMED):
        return "(iii)"
    if any(
        oracle.contains_subgraph(core, NAMED[name])
        for name in WU_MENG_BLOCKERS.get(core.m, ())
    ):
        return "(iv)"
    return None


def _verdict(matches: list[str | None]) -> ClauseVerdict:
    matches = [label for label in matches if label]
    if matches:
        return ClauseVerdict(False, matches[0], tuple(matches))
    return ClauseVerdict(True, "none", ())


def decide_coline_tough(g: Graph, catalog: Catalog | None = None) -> ClauseVerdict:
    """Is co(G) tough?  Requires m >= 3 (smaller colines are degenerate)."""
    catalog = catalog or load_catalog()
    core = strip_isolated(g)
    m = core.m
    if m < 3:
        raise ScopeError(f"toughness decision needs at least 3 edges, got {m}")
    matches = [counting_clause(core, 0)]
    if any(oracle.is_isomorphic(core, h) for h in catalog.toughness_exceptions):
        matches.append("(iii)")
    return _verdict(matches)


def _hamiltonian_from(core: Graph, tough: ClauseVerdict) -> ClauseVerdict:
    """Hamiltonicity of co(core) from its toughness verdict: tough colines
    are Hamiltonian except for four root graphs; non-tough colines never are."""
    matches = [] if tough.value else [f"not-tough{tough.clause}"]
    matches += [name for name in NON_HAMILTONIAN_ROOTS if oracle.is_isomorphic(core, NAMED[name])]
    return _verdict(matches)


def decide_coline_hamiltonian(g: Graph, catalog: Catalog | None = None) -> ClauseVerdict:
    """Is co(G) Hamiltonian?  Decides toughness, then reads Hamiltonicity off it."""
    core = strip_isolated(g)
    return _hamiltonian_from(core, decide_coline_tough(core, catalog))


def decide_wu_meng(g: Graph) -> ClauseVerdict:
    """The five-clause Hamiltonicity criterion for co(G).

    Subgraph tests in clause (iv) are non-induced containment.  Every
    clause is a count or a named root, so no catalog is read.
    """
    core = strip_isolated(g)
    m = core.m
    if m < 3:
        raise ScopeError(f"Hamiltonicity decision needs at least 3 edges, got {m}")
    matches = [counting_clause(core, 0), wu_meng_blocker(core)]
    if oracle.is_isomorphic(core, NAMED["K5"]):
        matches.append("(v)")
    return _verdict(matches)


def decide_coline_traceable(g: Graph, catalog: Catalog | None = None) -> ClauseVerdict:
    """Does co(G) have a spanning path?  Requires m >= 2."""
    catalog = catalog or load_catalog()
    core = strip_isolated(g)
    m = core.m
    if m < 2:
        raise ScopeError(f"traceability decision needs at least 2 edges, got {m}")
    matches = [counting_clause(core, 1)]
    if any(oracle.is_isomorphic(core, h) for h in catalog.trace_exceptions):
        matches.append("(iii)")
    if oracle.is_isomorphic(core, NAMED[CORONA]):
        matches.append("(iv)")
    return _verdict(matches)


def build_report(g: Graph, catalog: Catalog | None = None) -> DecisionReport:
    """Full per-graph verdict bundle.  Toughness is decided once and
    Hamiltonicity follows from that verdict."""
    core = strip_isolated(g)
    tough = decide_coline_tough(core, catalog)
    return DecisionReport(
        m=core.m,
        max_degree=core.max_degree(),
        tough=tough,
        hamiltonian=_hamiltonian_from(core, tough),
        wu_meng=decide_wu_meng(core),
        traceable=decide_coline_traceable(core, catalog),
    )


# --- catalog file handling ----------------------------------------------------

def emit_catalog(catalog: Catalog) -> str:
    lines = [CATALOG_FORMAT]
    for section, field, _ in CATALOG_SECTIONS:
        lines.append(f"[{section}]")
        lines.extend(emit_graph6(g) for g in getattr(catalog, field))
    return "\n".join(lines) + "\n"


def parse_catalog(text: str) -> Catalog:
    lines = [(k, line.strip()) for k, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines or lines[0][1] != CATALOG_FORMAT:
        raise CatalogError(f"bad or missing format header, expected {CATALOG_FORMAT!r}")
    sections: dict[str, list[Graph]] = {section: [] for section, _, _ in CATALOG_SECTIONS}
    current = None
    for number, line in lines[1:]:
        if line.startswith("["):
            current = line[1:-1] if line.endswith("]") else None
            if current not in sections:
                raise CatalogError(f"line {number}: unknown section header {line!r}")
            continue
        if current is None:
            raise CatalogError(f"line {number}: data before any section: {line!r}")
        try:
            sections[current].append(parse_graph6(line))
        except Graph6Error as exc:
            raise CatalogError(f"[{current}] line {number}: {exc}") from exc
    return Catalog(**{field: tuple(sections[section]) for section, field, _ in CATALOG_SECTIONS})


def validate_catalog(catalog: Catalog) -> None:
    """Check cardinalities and every member's defining predicate.

    Raises CatalogError on the first failure; a failure signals a corrupted
    file or a bootstrap bug, never something to adjust silently.
    """
    for section, field, expected in CATALOG_SECTIONS:
        graphs = getattr(catalog, field)
        if len(graphs) != expected:
            raise CatalogError(f"{section} has {len(graphs)} members, expected {expected}")
        # decisions compare members with the stripped core, which never
        # has an isolated vertex, so such a member could never match
        for g in graphs:
            if not all(g.adj):
                raise CatalogError(f"{section} member {emit_graph6(g)} has an isolated vertex")
        if any(oracle.is_isomorphic(g, h) for g, h in combinations(graphs, 2)):
            raise CatalogError(f"{section} contains isomorphic duplicates")
    for g in catalog.toughness_exceptions:
        if counting_clause(g, 0):
            raise CatalogError("tough18 member already covered by a counting clause")
        l, _ = coline(g)
        if oracle.is_tough(l).value:
            raise CatalogError(f"tough18 member {emit_graph6(g)} has a tough coline")
    for g in catalog.trace_exceptions:
        if counting_clause(g, 1):
            raise CatalogError("trace9 member already covered by a counting clause")
        if oracle.is_isomorphic(g, NAMED[CORONA]):
            raise CatalogError("trace9 must not contain the corona of K3")
        l, _ = coline(g)
        if oracle.hamiltonian_path(l) is not None:
            raise CatalogError(f"trace9 member {emit_graph6(g)} has a traceable coline")


# Read beside this module rather than through importlib.resources, which
# on Python 3.12 and later imports inspect and ast into every process.
_PACKAGED_CATALOG = os.path.join(os.path.dirname(__file__), "data", "catalog.txt")


def _read_checked(path: str | os.PathLike) -> Catalog:
    # a non-ASCII byte stays one character, for the graph6 parser to reject
    with open(path, "rb") as handle:
        text = handle.read().decode("ascii", "surrogateescape")
    catalog = parse_catalog(text)
    validate_catalog(catalog)
    return catalog


@cache
def _packaged_catalog() -> Catalog:
    try:
        return _read_checked(_PACKAGED_CATALOG)
    except FileNotFoundError as exc:
        raise CatalogError("packaged catalog missing; run the catalog bootstrap") from exc


def load_catalog(path: str | os.PathLike | None = None) -> Catalog:
    """Load and validate the catalog at ``path``, or the packaged one, which
    is read once per process."""
    if path is None:
        return _packaged_catalog()
    return _read_checked(path)
