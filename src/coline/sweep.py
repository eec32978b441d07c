"""Exhaustive small-graph verification harness.

The sweep walks every isomorphism class of graphs without isolated vertices
inside configurable size bounds, decides toughness, Hamiltonicity and
traceability of each coline graph twice (characterisation vs exact oracle)
and records any disagreement.  It also tags each class with the exception
censuses its oracle verdicts put it in (``census_tags``) and compares them
with the catalog, so its report alone says whether a sweep passed; the
catalog bootstrap runs the same walk and examination without a catalog, on
one worker per CPU unless told otherwise.

Verdicts are isomorphism-invariant (a tested property), so checking one
canonical representative per class is equivalent to checking every
labelled graph.  Classes come from canonical augmentation
(``oracle.iter_class_tree``) rather than from all labelled bitmasks,
which keeps the 8-vertex sweep tractable.  The walk is split at a fixed
edge count: the parent walks down to it, and each class there roots one
task that walks its own subtree, examines each class as the walk yields
it and folds the record into a tally it returns; the few classes above
the split make one more task.  So the enumeration runs where the
examination does, in the workers; only the classes and the tallies cross
between processes, and the parent, which only merges the tallies, holds
nothing per class.  A failed task or a dead worker ends the walk with a
partial report: queued tasks are dropped, running ones finish.
"""

from __future__ import annotations

import os
import threading
import time
from bisect import insort
from collections import Counter, defaultdict
from concurrent import futures  # the process pool itself loads on first use
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations

from . import characterize, lemmacheck, oracle
from .characterize import (
    DEFAULT_MAX_EDGES,
    DEFAULT_MAX_VERTICES,
    NAMED,
    NON_HAMILTONIAN_ROOTS,
    Catalog,
    CatalogError,
    ClauseVerdict,
    ColineCase,
    clause_cutset,
    plus_k2,
    validate_catalog,
    wu_meng_blocker,
)
from .graph6 import emit_graph6, parse_graph6
from .graphcore import Graph, add_dominating_vertex, coline, components, is_connected, line_graph

SLOWEST_SHOWN = 10  # classes listed with their per-check times in a report


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
    # "slowest": (canon, seconds, per-check seconds) of the slowest classes;
    # "certificates": verdicts by source, keyed by CERTIFICATE_KEYS;
    # "error": why the examination stopped early
    extras: dict = field(default_factory=dict)

    @property
    def partial(self) -> bool:
        """A failure stopped the examination; extras["error"] says which."""
        return "error" in self.extras

    @property
    def passed(self) -> bool:
        """No verdict mismatch, no failure and every catalog census as expected."""
        return not (self.mismatches or self.partial) and all(self.census_ok.values())


# An alias of oracle.iter_graph_classes, still called by perfbench/make_corpus.py.
enumerate_classes = oracle.iter_graph_classes


# --- per-class examination ---------------------------------------------------

def _examine_class(g: Graph, catalog: Catalog | None) -> dict:
    """One class's record: its ``graph``, ``mismatches``, ``timings``,
    ``certificates`` and ``census`` tags; with no catalog (the bootstrap's)
    only its census tags."""
    start = time.perf_counter()
    record = {"graph": g, "mismatches": [], "timings": {}, "certificates": Counter()}
    l, _ = coline(g)

    def clock(name: str, start: float) -> None:
        record["timings"][name] = record["timings"].get(name, 0.0) + time.perf_counter() - start

    def compare(check: str, verdict: ClauseVerdict, seen: bool) -> None:
        if verdict.value != seen:
            record["mismatches"].append((check, f"{verdict.value} clause={verdict.clause}", str(seen)))

    clock("coline", start)
    start = time.perf_counter()
    cuts = clause_cutset(g), clause_cutset(plus_k2(g))
    clock("certificates", start)
    tough, hamiltonian, traceable = oracle_verdicts(l, cuts, record["certificates"], record["timings"])
    start = time.perf_counter()
    record["census"] = census_tags(g, cuts, tough, hamiltonian, traceable)
    clock("census", start)
    if catalog is None:
        return record

    start = time.perf_counter()
    if g.m >= 3:
        decided = characterize.build_report(g, catalog)
        clock("decisions", start)
        compare("toughness", decided.tough, tough)
        compare("hamiltonicity", decided.hamiltonian, hamiltonian)
        compare("wu-meng", decided.wu_meng, hamiltonian)
        if record["certificates"]["search:hamiltonicity"]:
            # a second search, sharing no code, where no cycle certified the verdict
            start = time.perf_counter()
            compare("cms-ge2", decided.hamiltonian, oracle.contains_power_ham_cycle(l, 1))
            clock("power_cycle", start)
        compare("traceability", decided.traceable, traceable)
    elif g.m == 2:  # below 3 edges build_report is out of scope
        verdict = characterize.decide_coline_traceable(g, catalog)
        clock("decisions", start)
        compare("traceability", verdict, traceable)

    start = time.perf_counter()
    klass = characterize.classify_disconnected_coline(g)
    problem = _classification_problem(g, l, klass)
    if problem:
        record["mismatches"].append(("classification", str(klass.case.value), problem))
    clock("classification", start)

    start = time.perf_counter()
    if oracle.induced_k2_3k1(l) is not None:  # every coline is (K2+3K1)-free
        record["mismatches"].append(("induced-freeness", "free", "induced copy found"))
    clock("induced_freeness", start)

    if tough and not hamiltonian:
        start = time.perf_counter()
        ctx = lemmacheck.make_context(l, oracle.longest_cycle(l))
        violations = lemmacheck.run_all_checks(ctx) + lemmacheck.check_trivial_components(ctx)
        for violation in violations:
            record["mismatches"].append((f"lemma:{violation.kind}", "no violation", violation.detail))
        clock("lemma_properties", start)

    return record


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


# --- certified oracle verdicts ---------------------------------------------------

# What oracle_verdicts counts: verdicts from a spanning cycle of l ("cycle") or of
# l plus a dominating vertex ("path"), from a cutset, and from exhaustive searches.
CERTIFICATE_KEYS = (
    "cycle", "path", "cutset", "search:toughness", "search:hamiltonicity", "search:traceability",
)


def _spans(l: Graph) -> bool:
    walk = oracle.spanning_walk(l)
    return walk is not None and walk.closed and len(walk) == l.n and oracle.is_valid_in(walk, l)


def oracle_verdicts(l: Graph, cuts: tuple, tally: Counter, timings: dict[str, float]) -> tuple[bool, bool, bool]:
    """Toughness and Hamiltonicity (from 3 edges, False below) and
    traceability (from 2 edges, False below) of ``l`` = co(G), l.n = G.m.

    Each verdict comes from a certificate that validates on ``l`` where one
    does, else from its exhaustive oracle.  A spanning cycle gives all
    three (a Hamiltonian graph is 1-tough, Chvatal 1973), one through an
    added dominating vertex traceability.  A cutset S whose removal leaves
    more than |S| components, and at least 2, rules out toughness and
    Hamiltonicity; one that leaves |S| + 2 or more rules out traceability
    too.  The cycles come from ``oracle.spanning_walk``, the cutset from
    ``cuts``, what ``clause_cutset`` names for G and for G + K2: the
    second less its added vertex l.n where it fires, else the first.  The
    validation reads no clause, so a wrong cutset cannot make a verdict.
    ``tally`` counts the verdicts by source (``CERTIFICATE_KEYS``), and
    ``timings`` gets a ``certificates`` clock and one per search run.
    """
    start = time.perf_counter()
    tough = hamiltonian = False if l.n < 3 else None  # None: not decided yet
    traceable = False if l.n < 2 else None
    cut = cuts[0] if cuts[1] is None else tuple(v for v in cuts[1] if v != l.n)
    if cut is not None:
        count = len(components(l, (1 << l.n) - 1 - sum(1 << v for v in cut)))
        if tough is None and count > max(len(cut), 1):
            tough = hamiltonian = False
            tally["cutset"] += 2
        if count >= len(cut) + 2:
            traceable = False
            tally["cutset"] += 1
    if tough is None and _spans(l):
        tough = hamiltonian = traceable = True
        tally["cycle"] += 3
    if traceable is None and _spans(add_dominating_vertex(l)):
        traceable = True
        tally["path"] += 1
    timings["certificates"] = timings.get("certificates", 0.0) + time.perf_counter() - start

    def searched(name: str, start: float) -> None:
        tally[f"search:{name}"] += 1
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - start

    if tough is None:
        start = time.perf_counter()
        tough = oracle.is_tough(l).value
        searched("toughness", start)
    if hamiltonian is None:
        start = time.perf_counter()
        hamiltonian = oracle.hamiltonian_cycle(l) is not None
        searched("hamiltonicity", start)
    if traceable is None:
        start = time.perf_counter()
        traceable = oracle.hamiltonian_path(l) is not None
        searched("traceability", start)
    return tough, hamiltonian, traceable


# --- sweep driver --------------------------------------------------------------

def _split_level(max_edges: int) -> int:
    """The edge count at which the parent hands subtrees to the workers.

    Deep enough that no one subtree dominates the range, shallow enough
    that the parent's own walk and its classes stay few: at 10/12, splitting
    at 5 edges leaves one subtree with most of the work.
    """
    return min(max(5, max_edges - 5), max_edges)


@dataclass
class _Tally:
    """What a run of examinations adds to a report, folded in as each record
    arrives, so it holds nothing per class beyond the slowest few."""

    scanned: int = 0
    mismatches: list[tuple[str, str, str, str]] = field(default_factory=list)
    census: dict[str, set[str]] = field(default_factory=dict)
    timings: Counter = field(default_factory=Counter)
    certificates: Counter = field(default_factory=Counter)
    slowest: list[tuple[str, float, dict]] = field(default_factory=list)  # slowest first, ties by canon
    error: str | None = None

    def keep_slowest(self, entries) -> None:
        for entry in entries:
            insort(self.slowest, entry, key=lambda e: (-e[1], e[0]))
        del self.slowest[SLOWEST_SHOWN:]

    def fold(self, record: dict) -> None:
        began = time.perf_counter()
        self.scanned += 1
        total = sum(record["timings"].values())
        slow = len(self.slowest) < SLOWEST_SHOWN or total >= self.slowest[-1][1]
        named = record["mismatches"] or record["census"] or slow
        canon = emit_graph6(record["graph"]) if named else None
        self.mismatches += [(canon, *mismatch) for mismatch in record["mismatches"]]
        for key in record["census"]:
            self.census.setdefault(key, set()).add(canon)
        self.timings.update(record["timings"])
        self.certificates.update(record["certificates"])
        if slow:
            self.keep_slowest([(canon, total, record["timings"])])
        self.timings["merge"] += time.perf_counter() - began

    def merge(self, other: _Tally) -> None:
        began = time.perf_counter()
        self.scanned += other.scanned
        self.mismatches += other.mismatches
        for key, forms in other.census.items():
            self.census.setdefault(key, set()).update(forms)
        self.timings.update(other.timings)
        self.certificates.update(other.certificates)
        self.keep_slowest(other.slowest)
        self.error = self.error or other.error
        self.timings["merge"] += time.perf_counter() - began


def _examined(classes, catalog: Catalog | None) -> _Tally:
    """A task: examine each class of the ``(class, generators)`` iterable
    ``classes`` as it is produced, timing the production under
    ``enumeration``.  A failure stops the run and is kept in ``error``."""
    tally = _Tally()
    classes = iter(classes)
    try:
        while True:
            start = time.perf_counter()
            pair = next(classes, None)
            tally.timings["enumeration"] += time.perf_counter() - start
            if pair is None:
                break
            tally.fold(_examine_class(pair[0], catalog))
    except Exception as exc:  # noqa: BLE001 - a partial tally carries the error
        tally.error = repr(exc)
    return tally


def _subtree(root: tuple, catalog: Catalog | None, max_vertices: int, max_edges: int) -> _Tally:
    """A task: ``root`` and every class below it, walked and examined."""
    return _examined(oracle.iter_class_tree(max_vertices, max_edges, root), catalog)


def _self_coline(max_vertices: int) -> _Tally:
    """A task: the self-coline census, on at most 7 vertices."""
    tally = _Tally()
    began = time.perf_counter()
    tally.census["self-coline"] = {f.decode("ascii") for f in self_coline_census(min(max_vertices, 7))}
    tally.timings["self_coline"] = time.perf_counter() - began
    return tally


def _whitney(max_vertices: int) -> _Tally:
    """A task: the Whitney census, on at most 6 vertices."""
    tally = _Tally()
    began = time.perf_counter()
    pairs = whitney_census(min(max_vertices, 6))
    tally.census["whitney-pairs"] = {" ".join(sorted(emit_graph6(g) for g in pair)) for pair in pairs}
    tally.timings["whitney"] = time.perf_counter() - began
    return tally


def _end_with_parent() -> None:
    """Pool initializer: a daemon thread ends this worker once the process
    that started the pool dies.  It waits on that process's sentinel, a
    pipe the process holds open until it dies, under every start method; a
    parent pid read here would already be the new parent's if the pool's
    process died before this worker got to run."""
    from multiprocessing import parent_process  # loaded in any pool worker

    def watch() -> None:
        parent_process().join()
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _walk(tally: _Tally, config: SweepConfig, catalog: Catalog | None, extra_tasks: list) -> None:
    """Examine every class of ``config``'s range with ``catalog`` (see
    ``_examine_class``), run ``extra_tasks`` too and merge each tally into
    ``tally``.  The parent walks the class tree down to ``_split_level``
    edges and then only merges: the classes above that level make the first
    task, and each class at the level, with its automorphism generators,
    roots one ``_subtree`` task.  One worker runs the tasks in order,
    in-process; more share a process pool of at most one worker per task,
    whose tallies are merged as they complete, since none depends on the
    order.  A failed task or a dead worker is kept in ``tally.error``, with
    ``tally.scanned`` counting the classes examined before it in the tallies
    merged; the queued tasks are dropped and the running ones finish before
    the pool shuts down.  A worker whose parent is killed ends too
    (``_end_with_parent``).
    """
    began = time.perf_counter()
    split = _split_level(config.max_edges)
    above, roots = [], []
    for pair in oracle.iter_class_tree(config.max_vertices, split):
        (roots if pair[0].m == split else above).append(pair)
    tally.timings["enumeration"] += time.perf_counter() - began
    tasks = [partial(_examined, above, catalog)]
    tasks += [partial(_subtree, root, catalog, config.max_vertices, config.max_edges) for root in roots]
    tasks += extra_tasks
    workers = min(config.worker_count, len(tasks))
    pool = None
    if workers > 1:
        pool = futures.ProcessPoolExecutor(workers, initializer=_end_with_parent)
    try:
        parts = (task() for task in tasks) if pool is None else (
            future.result() for future in futures.as_completed([pool.submit(task) for task in tasks]))
        for part in parts:
            tally.merge(part)
            if tally.error is not None:
                break
    except Exception as exc:  # noqa: BLE001 - the tally carries the error
        tally.error = repr(exc)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def run_sweep(config: SweepConfig, catalog: Catalog | None = None) -> SweepReport:
    """Cross-verify every decision procedure over the configured range and
    compare each catalog census with ``expected_census`` for ``catalog``.
    ``_walk`` examines the classes, with the self-coline and Whitney
    censuses as two more tasks; a failure gives a partial report, not a crash."""
    catalog = catalog or characterize.load_catalog()
    start = time.perf_counter()
    expected = expected_census(catalog, config.max_vertices, config.max_edges)
    tally = _Tally()
    # every search keeps its clock, at 0.0 where certificates decided all
    tally.timings.update(dict.fromkeys(("toughness", "hamiltonicity", "power_cycle", "traceability"), 0.0))
    tally.timings["expected_census"] = time.perf_counter() - start
    _walk(tally, config, catalog, [partial(task, config.max_vertices) for task in (_self_coline, _whitney)])
    began = time.perf_counter()
    tally.mismatches.sort(key=lambda mismatch: mismatch[0])  # stable: a class keeps its check order
    census = {key: set() for key in expected} | tally.census
    census_ok = {key: census[key] == want for key, want in sorted(expected.items())}
    extras: dict = {} if tally.error is None else {"error": tally.error}
    extras["slowest"] = tally.slowest
    extras["certificates"] = {key: tally.certificates[key] for key in CERTIFICATE_KEYS}
    tally.timings["merge"] += time.perf_counter() - began
    timings = dict(tally.timings)
    timings["total"] = time.perf_counter() - start
    return SweepReport(
        graphs_scanned=tally.scanned,
        mismatches=tally.mismatches,
        exception_census={k: frozenset(v) for k, v in sorted(census.items())},
        timings=timings,
        config=config,
        census_ok=census_ok,
        extras=extras,
    )


def census_tags(g: Graph, cuts: tuple, tough: bool, hamiltonian: bool, traceable: bool) -> list[str]:
    """The catalog censuses a class is in, from the oracle verdicts on its
    coline: the only definition of each census.  No verdict is read where
    its counting clause names a cutset in ``cuts``, those of g and of
    ``plus_k2(g)`` (always so below 3 edges for toughness, 2 for
    traceability), and ``hamiltonian`` only when ``tough``."""
    tags = []
    if cuts[0] is None:
        if not tough:
            tags.append("tough-exceptions")
        elif not hamiltonian:
            tags.append("tough-not-hamiltonian")
        if wu_meng_blocker(g):
            tags.append("wu-meng-21")
    if not traceable and cuts[1] is None:
        corona = oracle.is_isomorphic(g, NAMED["K3_circ_K1"])
        tags.append("trace-corona" if corona else "trace-exceptions")
    return tags


def expected_census(catalog: Catalog, max_vertices: int, max_edges: int) -> dict[str, frozenset[str]]:
    """The catalog-derived censuses restricted to a sweep range."""

    def forms(graphs) -> frozenset[str]:
        in_range = (g for g in graphs if g.n <= max_vertices and g.m <= max_edges)
        return frozenset(oracle.canonical_form(g).decode("ascii") for g in in_range)

    return {
        "tough-exceptions": forms(catalog.toughness_exceptions),
        "trace-exceptions": forms(catalog.trace_exceptions),
        "trace-corona": forms([NAMED["K3_circ_K1"]]),
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
        "power_cycle, self_coline, toughness, traceability, whitney",
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
    lines.append("")
    lines.append("slowest classes (ms):")
    for canon, total, checks in report.extras.get("slowest", ()):
        times = " ".join(f"{check}={1000 * dt:.1f}" for check, dt in sorted(checks.items()))
        lines.append(f"  {canon}  total={1000 * total:.1f}  {times}")
    lines.append("")
    lines.append("certificates (verdicts):")
    for key, count in report.extras.get("certificates", {}).items():
        lines.append(f"  {key}: {count}")
    return "\n".join(lines) + "\n"


# --- catalog bootstrap ----------------------------------------------------------

def bootstrap_catalog(
    max_vertices: int = DEFAULT_MAX_VERTICES,
    max_edges: int = DEFAULT_MAX_EDGES,
    worker_count: int | None = None,
) -> tuple[Catalog, dict]:
    """Derive the exception catalogs from the oracles alone and validate them.

    ``_walk`` examines the classes of ``SweepConfig(max_vertices, max_edges,
    worker_count)`` without a catalog, so the range and the worker count have
    the sweep's bounds (2 to 10 vertices, at most max(2, CPUs) workers).
    ``worker_count`` defaults to one per CPU; 1 runs the walk in-process.
    The tough18 are the classes ``census_tags`` puts there, sorted, so the
    catalog does not depend on the worker count.  ``validate_catalog``
    checks it, its 18/9 counts first, and then every census (the trace one
    against the derived trace9) must equal ``expected_census`` for it.  A
    failure of either, or of an examination, aborts loudly: an oracle or
    enumeration bug (or a genuine discrepancy), never data to adjust.
    """
    if worker_count is None:
        worker_count = os.cpu_count() or 1
    tally = _Tally()
    _walk(tally, SweepConfig(max_vertices, max_edges, worker_count), None, [])
    if tally.error:
        raise CatalogError(f"bootstrap stopped after {tally.scanned} classes: {tally.error}")
    census = defaultdict(set, tally.census)
    catalog = Catalog(tuple(parse_graph6(form) for form in sorted(census["tough-exceptions"])))
    validate_catalog(catalog)
    wrong = [
        f"{key} has {len(census[key])} members, expected {len(want)}"
        for key, want in sorted(expected_census(catalog, max_vertices, max_edges).items())
        if census[key] != want
    ]
    if wrong:
        raise CatalogError(f"bootstrap census mismatch: {'; '.join(wrong)}")
    summary = {
        "tough_count": len(catalog.toughness_exceptions),
        "trace_count": len(catalog.trace_exceptions),
        "wu_meng_count": len(census["wu-meng-21"]),
        "max_exception_vertices": max(g.n for g in catalog.toughness_exceptions),
    }
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
        if sorted(l.degrees()) != sorted(g.degrees()):
            continue  # not isomorphic, so no labelling needed
        key = emit_graph6(g).encode("ascii")  # g is canonically labelled
        if oracle.canonical_form(l) == key:
            found.add(key)
    return frozenset(found)


def whitney_census(max_vertices: int = 6) -> tuple[tuple[Graph, Graph], ...]:
    """All pairs of non-isomorphic connected graphs on at most max_vertices
    vertices whose line graphs are isomorphic."""
    if max_vertices > 6:
        raise ValueError("census budget is max_vertices <= 6")
    # Only line graphs that share their degree sequence with another can be
    # isomorphic to it, so only those are labelled.
    buckets: dict[tuple, list[tuple[Graph, Graph]]] = defaultdict(list)
    limit = max_vertices * (max_vertices - 1) // 2
    for g in oracle.iter_graph_classes(max_vertices, limit):
        if is_connected(g):
            lg, _ = line_graph(g)
            buckets[tuple(sorted(lg.degrees()))].append((g, lg))
    groups: dict[bytes, list[Graph]] = defaultdict(list)
    for bucket in buckets.values():
        if len(bucket) >= 2:
            for g, lg in bucket:
                groups[oracle.canonical_form(lg)].append(g)
    return tuple(
        pair for key in sorted(groups) for pair in combinations(sorted(groups[key], key=emit_graph6), 2)
    )
