"""Exhaustive small-graph verification harness.

The sweep walks every isomorphism class of graphs without isolated
vertices inside configurable size bounds, decides toughness, Hamiltonicity
and traceability of each coline graph twice (characterisation vs exact
oracle) and records any disagreement.  It also accumulates the exception
censuses and compares them with the catalog, so its report alone says
whether a sweep passed; and it can bootstrap the catalogs from scratch.

Verdicts are isomorphism-invariant (a tested property), so checking one
canonical representative per class is equivalent to checking every
labelled graph; classes are produced by edge-augmentation rather than by
streaming all labelled bitmasks, which keeps the 8-vertex sweep tractable.
The labelled stream is still available for small ranges.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from multiprocessing import Pool

from . import characterize, lemmacheck, oracle
from .characterize import (
    CATALOG_SECTIONS,
    CORONA,
    NAMED,
    NON_HAMILTONIAN_ROOTS,
    Catalog,
    CatalogError,
    ClauseVerdict,
    ColineCase,
    counting_clause,
    validate_catalog,
    wu_meng_blocker,
)
from .graph6 import emit_graph6
from .graphcore import Graph, build_named, coline, components, is_connected, line_graph

DEFAULT_MAX_VERTICES = 8
DEFAULT_MAX_EDGES = 10

# Every coline graph is (K2+3K1)-free.
_FORBIDDEN_PATTERN = build_named("K2+3K1")


@dataclass(frozen=True)
class SweepConfig:
    max_vertices: int = DEFAULT_MAX_VERTICES
    max_edges: int = DEFAULT_MAX_EDGES
    worker_count: int = 1

    def __post_init__(self) -> None:
        if not 2 <= self.max_vertices <= 10:
            raise ValueError("max_vertices must be between 2 and 10")
        if not 1 <= self.max_edges <= self.max_vertices * (self.max_vertices - 1) // 2:
            raise ValueError("max_edges must fit on max_vertices vertices")
        if self.worker_count < 1:
            raise ValueError("worker_count must be positive")
        most = max(2, os.cpu_count() or 1)  # one process per CPU, 2 even on one
        if self.worker_count > most:
            raise ValueError(f"worker_count must be at most {most}")


@dataclass
class SweepReport:
    graphs_scanned: int
    mismatches: list[tuple[str, str, str, str]]  # canon, check, theorem, oracle
    exception_census: dict[str, frozenset[str]]
    timings: dict[str, float]
    config: SweepConfig
    census_ok: dict[str, bool]  # catalog census -> equals expected_census
    extras: dict = field(default_factory=dict)

    @property
    def partial(self) -> bool:
        """A failure stopped the examination; extras["error"] says which."""
        return "error" in self.extras

    @property
    def passed(self) -> bool:
        """No verdict mismatch, no failure and every catalog census as expected."""
        return not (self.mismatches or self.partial) and all(self.census_ok.values())


def enumerate_labeled(max_vertices: int, max_edges: int):
    """Every labelled graph on exactly max_vertices vertices with at most
    max_edges edges, as ascending edge-subset bitmasks."""
    if max_vertices < 0 or max_edges < 0:
        raise ValueError("bounds must be non-negative")
    slots = list(combinations(range(max_vertices), 2))
    for mask in range(1 << len(slots)):
        if mask.bit_count() > max_edges:
            continue
        yield Graph.from_edges(
            max_vertices, [slots[i] for i in range(len(slots)) if mask >> i & 1]
        )


# The package's public name for the class enumeration.
enumerate_classes = oracle.iter_graph_classes


# --- per-class examination ---------------------------------------------------

def _examine_class(g: Graph, catalog: Catalog) -> dict:
    start = time.perf_counter()
    canon = emit_graph6(g)  # classes arrive canonically labelled
    record: dict = {"canon": canon, "mismatches": [], "census": [], "timings": {}}
    l, _ = coline(g)

    def clock(name: str, start: float) -> None:
        record["timings"][name] = record["timings"].get(name, 0.0) + time.perf_counter() - start

    clock("canonical_coline", start)

    if g.m >= 3:
        start = time.perf_counter()
        verdict = characterize.decide_coline_tough(g, catalog)
        tough_oracle = oracle.is_tough(l)
        if verdict.value != tough_oracle.value:
            record["mismatches"].append(
                ("toughness", _fmt(verdict), str(tough_oracle.value))
            )
        if verdict.clause == "(iii)":
            record["census"].append("tough-exceptions")
        clock("toughness", start)

        start = time.perf_counter()
        main = characterize.decide_coline_hamiltonian(g, catalog)
        five_clause = characterize.decide_wu_meng(g)
        ham_exists = oracle.hamiltonian_cycle(l) is not None
        if main.value != ham_exists:
            record["mismatches"].append(("hamiltonicity", _fmt(main), str(ham_exists)))
        if five_clause.value != ham_exists:
            record["mismatches"].append(("wu-meng", _fmt(five_clause), str(ham_exists)))
        cms_ge2 = oracle.contains_power_ham_cycle(l, 1)
        if cms_ge2 != main.value:
            record["mismatches"].append(("cms-ge2", _fmt(main), str(cms_ge2)))
        fired = set(five_clause.all_matches)
        if fired & {"(iii)", "(iv)"} and not fired & {"(i)", "(ii)"}:
            record["census"].append("wu-meng-21")
        clock("hamiltonicity", start)

    if g.m >= 2:
        start = time.perf_counter()
        verdict = characterize.decide_coline_traceable(g, catalog)
        path = oracle.hamiltonian_path(l)
        if verdict.value != (path is not None):
            record["mismatches"].append(
                ("traceability", _fmt(verdict), str(path is not None))
            )
        if verdict.clause == "(iii)":
            record["census"].append("trace-exceptions")
        if verdict.clause == "(iv)":
            record["census"].append("trace-corona")
        clock("traceability", start)

    start = time.perf_counter()
    klass = characterize.classify_disconnected_coline(g)
    problem = _classification_problem(g, l, klass)
    if problem:
        record["mismatches"].append(("classification", str(klass.case.value), problem))
    clock("classification", start)

    start = time.perf_counter()
    if not oracle.is_induced_free(l, _FORBIDDEN_PATTERN):
        record["mismatches"].append(("induced-freeness", "free", "induced copy found"))
    clock("induced_freeness", start)

    if g.m >= 3 and tough_oracle.value and not ham_exists:
        record["census"].append("tough-not-hamiltonian")
        start = time.perf_counter()
        cycle = oracle.longest_cycle(l)
        ctx = lemmacheck.make_context(l, cycle)
        for violation in lemmacheck.run_all_checks(ctx):
            record["mismatches"].append(
                (f"lemma:{violation.kind}", "no violation", violation.detail)
            )
        for violation in lemmacheck.check_trivial_components(ctx, g):
            record["mismatches"].append(
                ("lemma:trivial-components", "no violation", violation.detail)
            )
        clock("lemma_properties", start)

    return record


def _fmt(verdict: ClauseVerdict) -> str:
    return f"{verdict.value} clause={verdict.clause}"


_CASE_RULES = {
    ColineCase.STAR: lambda p, m: (p, 2 * p),
    ColineCase.TYPE_A: lambda p, m: (2, m + 2),
    ColineCase.C4: lambda p, m: (2, 6),
    ColineCase.F: lambda p, m: (3, p + 4),
    ColineCase.K4_MINUS: lambda p, m: (3, 8),
    ColineCase.K4: lambda p, m: (3, 9),
}


def _classification_problem(g: Graph, l: Graph, klass) -> str | None:
    count = len(components(l))
    if klass.component_count != count:
        return f"component count {count} != reported {klass.component_count}"
    if klass.case is ColineCase.CONNECTED:
        return "coline disconnected but classified connected" if count >= 2 else None
    if count < 2:
        return "coline connected but classified disconnected"
    expected_c, expected_rho = _CASE_RULES[klass.case](klass.parameter, g.m)
    if (klass.component_count, klass.rho) != (expected_c, expected_rho):
        return f"(c, rho) = ({count}, {klass.rho}) != expected ({expected_c}, {expected_rho})"
    return None


# --- sweep driver --------------------------------------------------------------

def run_sweep(config: SweepConfig, catalog: Catalog | None = None) -> SweepReport:
    """Cross-verify every decision procedure over the configured range and
    compare each catalog census with ``expected_census`` for ``catalog``.

    A failure surfaces as a partial report, whose graphs_scanned counts
    the classes examined before it, rather than as a crash.  One worker
    examines in-process; more share a pool.
    """
    catalog = catalog or characterize.load_catalog()
    start = time.perf_counter()
    classes = list(oracle.iter_graph_classes(config.max_vertices, config.max_edges))
    enumerated = time.perf_counter()
    examine = partial(_examine_class, catalog=catalog)
    workers = config.worker_count
    records: list[dict] = []
    extras: dict = {}
    with (Pool(workers) if workers > 1 else nullcontext()) as pool:
        if pool is None:
            results = map(examine, classes)
        else:
            results = pool.imap(examine, classes, chunksize=max(1, len(classes) // (workers * 8)))
        try:
            for record in results:
                records.append(record)
        except Exception as exc:  # noqa: BLE001 - partial report carries the error
            extras["error"] = repr(exc)
    began = time.perf_counter()
    records.sort(key=lambda r: r["canon"])

    mismatches = []
    expected = expected_census(catalog, config.max_vertices, config.max_edges)
    census: dict[str, set[str]] = {key: set() for key in expected}
    timings = {"enumeration": enumerated - start}
    for record in records:
        for check, theorem, seen in record["mismatches"]:
            mismatches.append((record["canon"], check, theorem, seen))
        for key in record["census"]:
            census[key].add(record["canon"])
        for check, dt in record["timings"].items():
            timings[check] = timings.get(check, 0.0) + dt
    census_ok = {key: census[key] == want for key, want in sorted(expected.items())}
    timings["merge"] = time.perf_counter() - began

    began = time.perf_counter()
    forms = self_coline_census(min(config.max_vertices, 7))
    census["self-coline"] = {f.decode("ascii") for f in forms}
    timings["self_coline"] = time.perf_counter() - began
    began = time.perf_counter()
    pairs = whitney_census(min(config.max_vertices, 6))
    census["whitney-pairs"] = {
        " ".join(sorted(emit_graph6(g) for g in pair))
        for pair in pairs
    }
    timings["whitney"] = time.perf_counter() - began
    timings["total"] = time.perf_counter() - start
    return SweepReport(
        graphs_scanned=len(records),
        mismatches=mismatches,
        exception_census={k: frozenset(v) for k, v in sorted(census.items())},
        timings=timings,
        config=config,
        census_ok=census_ok,
        extras=extras,
    )


def expected_census(catalog: Catalog, max_vertices: int, max_edges: int) -> dict[str, frozenset[str]]:
    """The catalog-derived censuses restricted to a sweep range."""

    def in_range(g: Graph) -> bool:
        return g.n <= max_vertices and g.m <= max_edges

    def forms(graphs) -> frozenset[str]:
        return frozenset(
            oracle.canonical_form(g).decode("ascii") for g in graphs if in_range(g)
        )

    return {
        "tough-exceptions": forms(catalog.toughness_exceptions),
        "trace-exceptions": forms(catalog.trace_exceptions),
        "trace-corona": forms([NAMED[CORONA]]),
        "wu-meng-21": forms(catalog.wu_meng_21),
        "tough-not-hamiltonian": forms(NAMED[name] for name in NON_HAMILTONIAN_ROOTS),
    }


def report_to_text(report: SweepReport) -> str:
    cfg = report.config
    lines = [
        "coline sweep report",
        f"bounds: max_vertices={cfg.max_vertices} max_edges={cfg.max_edges}",
        "bound rationale: the counting clauses settle every graph analytically; "
        "all catalogued exceptions have at most 8 edges and 8 non-isolated "
        "vertices, and the largest named exception has 10 edges.",
        "checks: classification, hamiltonicity, induced_freeness, lemma_properties, "
        "self_coline, toughness, traceability, whitney",
        f"workers: {cfg.worker_count}",
        f"classes scanned: {report.graphs_scanned}",
        f"partial: {report.partial}",
        f"passed: {report.passed}",
        "",
        f"mismatches: {len(report.mismatches)}",
    ]
    for canon, check, theorem, seen in report.mismatches:
        lines.append(f"  {canon}  {check}  theorem={theorem}  oracle={seen}")
    lines.append("")
    lines.append("census:")
    for key, forms in sorted(report.exception_census.items()):
        lines.append(f"  {key}: {len(forms)}")
        for form in sorted(forms):
            lines.append(f"    {form}")
    lines.append("")
    lines.append("timings (s):")
    for key, dt in sorted(report.timings.items()):
        lines.append(f"  {key}: {dt:.3f}")
    return "\n".join(lines) + "\n"


# --- catalog bootstrap ----------------------------------------------------------

def bootstrap_catalog(
    max_vertices: int = DEFAULT_MAX_VERTICES, max_edges: int = DEFAULT_MAX_EDGES
) -> tuple[Catalog, dict]:
    """Derive the exception catalogs from the oracle alone and validate them.

    Counts that differ from 18/9, or Wu-Meng clauses (iii)/(iv) excluding
    other roots than ``Catalog.wu_meng_21``, abort loudly: that means an
    oracle or enumeration bug (or a genuine discrepancy), never data to
    adjust.
    """
    # classes arrive canonically labelled, so their graph6 is the class key
    tough_exceptions: dict[str, Graph] = {}
    trace_exceptions: dict[str, Graph] = {}
    wu_meng: set[str] = set()

    for g in oracle.iter_graph_classes(max_vertices, max_edges):
        if g.m >= 3 and counting_clause(g, 0) is None:
            l, _ = coline(g)
            if not oracle.is_tough(l).value:
                tough_exceptions[emit_graph6(g)] = g
            if wu_meng_blocker(g):
                wu_meng.add(emit_graph6(g))
        if g.m >= 2 and counting_clause(g, 1) is None:
            if oracle.is_isomorphic(g, NAMED[CORONA]):
                continue
            l, _ = coline(g)
            if oracle.hamiltonian_path(l) is None:
                trace_exceptions[emit_graph6(g)] = g

    summary = {
        "tough_count": len(tough_exceptions),
        "trace_count": len(trace_exceptions),
        "wu_meng_count": len(wu_meng),
        "max_exception_vertices": max(
            (g.n for g in tough_exceptions.values()), default=0
        ),
    }
    found = {"toughness_exceptions": tough_exceptions, "trace_exceptions": trace_exceptions}
    for section, field, want in CATALOG_SECTIONS:
        if len(found[field]) != want:
            raise CatalogError(
                f"bootstrap found {len(found[field])} {section} members, expected {want}; "
                "this signals a bug or a genuine discrepancy, not data to adjust"
            )
    catalog = Catalog(**{field: tuple(found[field][k] for k in sorted(found[field])) for field in found})
    if wu_meng != {emit_graph6(oracle.canonical_graph(g)) for g in catalog.wu_meng_21}:
        raise CatalogError(
            f"Wu-Meng clauses (iii)/(iv) exclude {len(wu_meng)} roots, "
            "expected the tough18 roots plus H1, H2, H3"
        )
    validate_catalog(catalog)
    return catalog, summary


# --- standalone censuses ---------------------------------------------------------

def self_coline_census(max_vertices: int = 7) -> frozenset[bytes]:
    """Canonical forms of all G (no isolated vertices, at most max_vertices
    vertices) with co(G) isomorphic to G.  Such G must have m = n."""
    if max_vertices > 8:
        raise ValueError("census budget is max_vertices <= 8")
    found = set()
    for g in oracle.iter_graph_classes(max_vertices, max_vertices):
        if g.m != g.n:
            continue
        l, _ = coline(g)
        key = emit_graph6(g).encode("ascii")  # g is canonically labelled
        if oracle.canonical_form(l) == key:
            found.add(key)
    return frozenset(found)


def whitney_census(max_vertices: int = 6) -> tuple[tuple[Graph, Graph], ...]:
    """All pairs of non-isomorphic connected graphs on at most max_vertices
    vertices whose line graphs are isomorphic."""
    if max_vertices > 6:
        raise ValueError("census budget is max_vertices <= 6")
    groups: dict[bytes, list[Graph]] = {}
    limit = max_vertices * (max_vertices - 1) // 2
    for g in oracle.iter_graph_classes(max_vertices, limit):
        if not is_connected(g):
            continue
        lg, _ = line_graph(g)
        groups.setdefault(oracle.canonical_form(lg), []).append(g)
    pairs = []
    for key in sorted(groups):
        members = groups[key]
        for a, b in combinations(members, 2):
            pairs.append((a, b))
    return tuple(pairs)
