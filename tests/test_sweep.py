import ast
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
import weakref
import zlib
from collections import Counter
from importlib import resources
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from coline import characterize, oracle
from coline.characterize import Catalog, CatalogError, emit_catalog
from coline.graph6 import emit_graph6, parse_graph6
from coline.cli import main
from coline.graphcore import Graph, add_dominating_vertex, build_named, coline, components, strip_isolated
from coline.oracle import canonical_form, canonical_graph, hamiltonian_cycle, hamiltonian_path, is_tough, is_valid_in
from coline.sweep import (
    CERTIFICATE_KEYS,
    SLOWEST_SHOWN,
    SweepConfig,
    bootstrap_catalog,
    expected_census,
    oracle_verdicts,
    report_to_text,
    run_sweep,
    self_coline_census,
    whitney_census,
)


def enumerate_labeled(max_vertices: int, max_edges: int):
    """Every labelled graph on exactly max_vertices vertices with at most
    max_edges edges, as ascending edge-subset bitmasks: the reference the
    class enumeration is checked against."""
    slots = list(combinations(range(max_vertices), 2))
    for mask in range(1 << len(slots)):
        if mask.bit_count() <= max_edges:
            yield Graph.from_edges(max_vertices, [e for i, e in enumerate(slots) if mask >> i & 1])


def test_enumerate_labeled_counts():
    assert sum(1 for _ in enumerate_labeled(4, 6)) == 64
    assert sum(1 for _ in enumerate_labeled(3, 3)) == 8
    assert sum(1 for _ in enumerate_labeled(5, 4)) == sum(comb(10, k) for k in range(5))


def test_enumerate_labeled_is_deterministic():
    first = [g.edges() for g in enumerate_labeled(4, 3)]
    second = [g.edges() for g in enumerate_labeled(4, 3)]
    assert first == second


def test_class_enumeration_matches_labeled_dedup():
    labeled = {}
    for core in {strip_isolated(g) for g in enumerate_labeled(5, 8)}:
        if core.m >= 1:
            labeled.setdefault(core.m, set()).add(canonical_form(core))
    classes = {}
    for g in oracle.iter_graph_classes(5, 8):
        classes.setdefault(g.m, set()).add(canonical_form(g))
    assert labeled == classes


def test_classes_are_canonically_labelled(classes_7_9):
    # the sweep keys each class by its graph6 without relabelling it
    for g in classes_7_9:
        assert canonical_graph(g) == g


def test_class_representatives_have_no_isolated_vertices():
    for g in oracle.iter_graph_classes(6, 6):
        assert all(g.adj)
        assert g.n <= 6 and 1 <= g.m <= 6


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(max_vertices=11)
    with pytest.raises(ValueError):
        SweepConfig(max_vertices=4, max_edges=7)
    with pytest.raises(ValueError):
        SweepConfig(worker_count=0)


def test_worker_count_is_capped(monkeypatch):
    import coline.sweep as sweep_module

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(sweep_module.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(ValueError, match="at most"):
        SweepConfig(worker_count=10**6)
    assert SweepConfig(worker_count=2).worker_count == 2
    assert SweepConfig().worker_count == 1  # in-process unless asked
    # the bounds themselves: 2 to 10 vertices, 1 edge up to a complete graph
    for bounds in ((2, 1), (10, 45)):
        assert SweepConfig(*bounds).max_edges == bounds[1]
    for bounds in ((1, 1), (11, 10), (8, 0)):
        with pytest.raises(ValueError):
            SweepConfig(*bounds)
    most = max(2, os.cpu_count() or 1)
    assert SweepConfig(worker_count=most).worker_count == most
    with pytest.raises(ValueError, match=f"at most {most}$"):
        SweepConfig(worker_count=most + 1)


def test_small_sweep_is_clean(catalog):
    config = SweepConfig(max_vertices=6, max_edges=9)
    report = run_sweep(config, catalog)
    assert not report.partial
    assert report.mismatches == []
    # the range misses the 8-vertex exceptions but what it finds must agree
    expected = expected_census(catalog, 6, 9)
    for key, want in expected.items():
        assert report.exception_census[key] == want
    assert report.passed


def test_every_catalog_census_is_reported_even_when_empty(catalog):
    report = run_sweep(SweepConfig(max_vertices=5, max_edges=6), catalog)
    census = report.exception_census
    expected = expected_census(catalog, 5, 6)
    assert set(expected) <= set(census)
    assert report.census_ok == {key: True for key in sorted(expected)}
    assert sum(not census[key] for key in expected) >= 3
    assert report.passed and "passed: True" in report_to_text(report)


def test_sweep_timings_cover_enumeration(catalog):
    report = run_sweep(SweepConfig(max_vertices=6, max_edges=8, worker_count=1), catalog)
    timings = dict(report.timings)
    total = timings.pop("total")
    for phase in (
        "enumeration",
        "coline",
        "certificates",
        "toughness",
        "hamiltonicity",
        "power_cycle",
        "traceability",
        "classification",
        "induced_freeness",
        "merge",
        "self_coline",
        "whitney",
    ):
        assert phase in timings
    assert 0.95 * total <= sum(timings.values()) <= total
    # every check timed per class is named on the report's checks: line; the
    # certificates clock times the toughness, hamiltonicity and traceability
    # checks where a certificate decides them
    text = report_to_text(report)
    listed = set(next(line for line in text.splitlines() if line.startswith("checks: "))[8:].split(", "))
    unlisted = {"enumeration", "merge", "expected_census", "coline", "census", "decisions", "certificates"}
    assert set(timings) - unlisted <= listed


def test_sweep_streams_classes_into_examination(catalog, monkeypatch):
    # each class of a subtree is examined as its walk yields it, before
    # the walk yields the next one, and every subtree is examined
    import coline.sweep as sweep_module

    events = []
    walk, examine = oracle.iter_class_tree, sweep_module._examine_class

    def walking(max_vertices, max_edges, root=None):
        for pair in walk(max_vertices, max_edges, root):
            if root is not None:
                events.append(("yielded", emit_graph6(pair[0])))
            yield pair

    def examining(g, catalog):
        events.append(("examined", emit_graph6(g)))
        return examine(g, catalog)

    monkeypatch.setattr(oracle, "iter_class_tree", walking)
    monkeypatch.setattr(sweep_module, "_examine_class", examining)
    report = run_sweep(SweepConfig(max_vertices=6, max_edges=8, worker_count=1), catalog)
    walked = [i for i, (kind, _) in enumerate(events) if kind == "yielded"]
    assert walked and len(events) - walked[0] == 2 * len(walked)
    for i in walked:
        assert events[i + 1] == ("examined", events[i][1])
    examined = {canon for kind, canon in events if kind == "examined"}
    assert len(examined) == report.graphs_scanned == 101


def test_sweep_reports_its_slowest_classes(catalog):
    report = run_sweep(SweepConfig(max_vertices=5, max_edges=6), catalog)
    slowest = report.extras["slowest"]
    assert len(slowest) == 10 < report.graphs_scanned
    totals = [total for _, total, _ in slowest]
    assert totals == sorted(totals, reverse=True)
    for _, total, checks in slowest:
        assert total == pytest.approx(sum(checks.values()))
    text = report_to_text(report)
    assert text.index("timings (s):") < text.index("slowest classes (ms):")
    listed = next(line for line in text.splitlines() if line.startswith(f"  {slowest[0][0]}  total="))
    assert listed.startswith(f"  {slowest[0][0]}  total={1000 * totals[0]:.1f}  ") and " coline=" in listed


def test_sweep_keeps_no_record_per_class(catalog, monkeypatch):
    # each record is folded into the report as it arrives and then dropped
    import coline.sweep as sweep_module

    class Record(dict):
        pass

    examine = sweep_module._examine_class
    alive, most = set(), 0

    def examining(g, catalog):
        nonlocal most
        record = Record(examine(g, catalog))
        alive.add(id(record))
        weakref.finalize(record, alive.discard, id(record))
        most = max(most, len(alive))
        return record

    monkeypatch.setattr(sweep_module, "_examine_class", examining)
    report = run_sweep(SweepConfig(max_vertices=6, max_edges=8, worker_count=1), catalog)
    assert report.passed and report.graphs_scanned == 101
    assert most <= 2


def test_slowest_classes_are_the_top_of_a_full_sort(catalog, monkeypatch):
    # three distinct fake times, so most classes tie; a tie goes to the
    # smaller canon
    import coline.sweep as sweep_module

    examine = sweep_module._examine_class
    entries = []

    def examining(g, catalog):
        record = examine(g, catalog)
        canon = emit_graph6(record["graph"])
        record["timings"] = {"toughness": 0.001 * (zlib.crc32(canon.encode()) % 3)}
        entries.append((canon, record["timings"]["toughness"], record["timings"]))
        return record

    monkeypatch.setattr(sweep_module, "_examine_class", examining)
    report = run_sweep(SweepConfig(max_vertices=5, max_edges=6, worker_count=1), catalog)
    want = sorted(entries, key=lambda entry: (-entry[1], entry[0]))[:SLOWEST_SHOWN]
    assert report.extras["slowest"] == want
    assert len(want) == SLOWEST_SHOWN and want[0][1] == want[-1][1]


def test_tally_names_only_the_classes_it_keeps(monkeypatch):
    # a class with no mismatch and no census tag is encoded only if it
    # enters the slowest; a tie enters when its canon is the smaller
    import coline.sweep as sweep_module

    encoded = []
    monkeypatch.setattr(sweep_module, "emit_graph6", lambda g: encoded.append(g) or emit_graph6(g))
    classes = sorted(oracle.iter_graph_classes(5, 6), key=emit_graph6, reverse=True)

    def folded(times):
        tally, entries = sweep_module._Tally(), []
        for g, seconds in zip(classes, times):
            timings = {"toughness": seconds}
            tally.fold({"graph": g, "mismatches": [], "timings": timings, "certificates": Counter(), "census": []})
            entries.append((emit_graph6(g), seconds, timings))
        assert tally.slowest == sorted(entries, key=lambda entry: (-entry[1], entry[0]))[:SLOWEST_SHOWN]

    folded([1.0 / (i + 1) for i in range(len(classes))])  # each slower than the next
    assert len(encoded) == SLOWEST_SHOWN < len(classes)
    folded([0.001] * len(classes))  # all tied: the smallest canons, which come last


def _report_without_clocks(report) -> str:
    """The report text above its timings plus its certificates block,
    without the ``workers:`` line: what no worker count may change, cut as
    ``tests/smoke.py`` cuts a report file."""
    text = report_to_text(report)
    head = text[: text.index("timings (s):")]
    lines = [line for line in head.splitlines(keepends=True) if not line.startswith("workers: ")]
    return "".join(lines) + text[text.index("certificates (verdicts):"):]


SWEEP_8_10 = Path(__file__).resolve().parent / "golden" / "sweep-8-10-unclocked.txt"


def test_acceptance_sweep_report_is_the_committed_text(full_sweep):
    # the 8/10 report without its clocks, byte for byte: classes,
    # mismatches, censuses and certificate counts
    assert _report_without_clocks(full_sweep) == SWEEP_8_10.read_text()


def test_sweep_identical_single_and_multi_worker(catalog):
    # 7/9 splits into many subtrees, which two workers finish in any order
    one = run_sweep(SweepConfig(max_vertices=7, max_edges=9, worker_count=1), catalog)
    many = run_sweep(SweepConfig(max_vertices=7, max_edges=9, worker_count=2), catalog)
    assert one.passed and one.graphs_scanned == 373
    assert _report_without_clocks(one) == _report_without_clocks(many)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="workers see the patch only when forked")
def test_worker_failure_surfaces_as_partial_report(catalog, monkeypatch):
    # a failure inside a worker's subtree stops the sweep: the report is
    # partial, names it, and no worker is left running
    import coline.sweep as sweep_module

    real = sweep_module._examine_class
    parent = os.getpid()
    target = min(emit_graph6(g) for g in oracle.iter_graph_classes(6, 8) if g.m == 8)

    def flaky(g, catalog):
        if emit_graph6(g) == target:
            raise RuntimeError(f"simulated worker failure in {os.getpid()}")
        return real(g, catalog)

    monkeypatch.setattr(sweep_module, "_examine_class", flaky)
    report = run_sweep(SweepConfig(max_vertices=6, max_edges=8, worker_count=2), catalog)
    assert report.partial and not report.passed
    assert "simulated worker failure in " in report.extras["error"]
    assert f"failure in {parent}'" not in report.extras["error"]
    assert report.graphs_scanned < 101
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="workers see the patch only when forked")
def test_dead_worker_ends_the_sweep(catalog, monkeypatch, capsys):
    # a worker that dies outright, as under the OOM killer, ends the sweep
    # with a partial report, through the API and the CLI, and no child
    # process is left behind
    import coline.sweep as sweep_module

    real = sweep_module._examine_class
    parent = os.getpid()
    target = min(emit_graph6(g) for g in oracle.iter_graph_classes(6, 8) if g.m == 8)

    def dying(g, catalog):
        if emit_graph6(g) == target and os.getpid() != parent:
            os._exit(1)
        return real(g, catalog)

    monkeypatch.setattr(sweep_module, "_examine_class", dying)
    report = run_sweep(SweepConfig(max_vertices=6, max_edges=8, worker_count=2), catalog)
    assert report.partial and not report.passed
    assert report.extras["error"].startswith("BrokenProcessPool(")
    assert multiprocessing.active_children() == []
    assert main(["sweep", "--max-vertices", "6", "--max-edges", "8", "--workers", "2"]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("partial run after ") and " classes: BrokenProcessPool(" in last
    assert multiprocessing.active_children() == []


def _running(pid) -> bool:
    """Whether process ``pid`` exists and is not a zombie, read from /proc."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork"
    or not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="reads the workers from /proc/<pid>/task/<pid>/children, where they are listed only when forked",
)
def test_workers_end_when_the_sweep_is_killed():
    # a sweep killed outright, as by the OOM killer or SIGKILL, leaves no
    # worker running on without it
    command = [sys.executable, "-m", "coline.cli", "sweep", "--max-vertices", "10", "--max-edges", "12", "--workers", "2"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    sweep = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        children = Path(f"/proc/{sweep.pid}/task/{sweep.pid}/children")
        deadline = time.monotonic() + 30
        workers = []
        while len(workers) < 2 and time.monotonic() < deadline and sweep.poll() is None:
            time.sleep(0.05)
            workers = children.read_text().split()
        assert len(workers) == 2, workers
        sweep.kill()
        sweep.wait(timeout=10)
        deadline = time.monotonic() + 5
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers)), workers
    finally:
        try:
            os.killpg(sweep.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        sweep.wait(timeout=10)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the late initializer is a local function")
def test_worker_ends_when_its_parent_died_before_it_ran():
    # a worker whose initializer runs only after the pool's process died,
    # as on a loaded host, must still see that death and end
    script = textwrap.dedent("""
        import os, time
        from concurrent import futures
        from coline.sweep import _end_with_parent
        def late():
            time.sleep(0.5)
            _end_with_parent()
        pool = futures.ProcessPoolExecutor(1, initializer=late)
        pool.submit(int)
        print(*pool._processes, flush=True)
        os._exit(0)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    parent = subprocess.Popen([sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        worker = int(parent.stdout.readline())
        parent.wait(timeout=10)
        deadline = time.monotonic() + 5
        while _running(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(worker)
    finally:
        try:
            os.killpg(parent.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        parent.stdout.close()


def test_sweep_parent_does_not_enumerate(catalog, monkeypatch):
    # the parent labels only the classes above the split level and the
    # catalog's census graphs; a full 8/10 enumeration labels 1,768.  The
    # forked workers' labellings do not reach this counter.
    labellings = 0
    label = oracle._canonical_labelling

    def counting(n, adj):
        nonlocal labellings
        labellings += 1
        return label(n, adj)

    monkeypatch.setattr(oracle, "_canonical_labelling", counting)
    report = run_sweep(SweepConfig(max_vertices=8, max_edges=10, worker_count=2), catalog)
    assert report.passed and report.graphs_scanned == 1500
    assert 0 < labellings <= 150


def test_report_text_roundtrip(tmp_path, monkeypatch):
    import coline.sweep as sweep_module

    reports = []

    def recording(*args, **kwargs):
        reports.append(run_sweep(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(sweep_module, "run_sweep", recording)
    out = tmp_path / "report.txt"
    code = main(["sweep", "--max-vertices", "5", "--max-edges", "6", "--output", str(out)])
    assert code == 0 and len(reports) == 1
    text = out.read_text()
    assert text == report_to_text(reports[0])
    assert "mismatches: 0" in text
    assert "passed: True" in text
    assert "census:" in text


def test_bootstrap_reproduces_packaged_catalog(catalog, served_sweep_range):
    rebuilt, summary = bootstrap_catalog()
    packaged = resources.files("coline").joinpath("data/catalog.txt").read_bytes()
    assert emit_catalog(rebuilt).encode("ascii") == packaged
    assert summary["tough_count"] == 18
    assert summary["trace_count"] == 9
    assert summary["wu_meng_count"] == 21
    assert summary["max_exception_vertices"] == 8
    assert [canonical_form(g) for g in rebuilt.toughness_exceptions] == [
        canonical_form(g) for g in catalog.toughness_exceptions
    ]
    assert [canonical_form(g) for g in rebuilt.trace_exceptions] == [
        canonical_form(g) for g in catalog.trace_exceptions
    ]
    assert [canonical_form(g) for g in rebuilt.wu_meng_21] == [
        canonical_form(g) for g in catalog.wu_meng_21
    ]


def test_bootstrap_checks_wu_meng_exclusions(monkeypatch, served_sweep_range):
    # without the 6-edge blocker, clause (iv) misses the 6-edge tough18
    # roots, so the enumerated exclusions no longer equal Catalog.wu_meng_21
    monkeypatch.delitem(characterize.WU_MENG_BLOCKERS, 6)
    with pytest.raises(CatalogError, match=r"wu-meng-21 has 17 members, expected 21"):
        bootstrap_catalog(8, 10, worker_count=1)  # in-process, the patch reaches it under any start method


def test_bootstrap_checks_tough_non_hamiltonian_roots(monkeypatch, served_sweep_range):
    # the oracles find four tough non-Hamiltonian roots; a root list short
    # of H3 expects three, and the bootstrap must say so
    import coline.sweep as sweep_module

    monkeypatch.setattr(sweep_module, "NON_HAMILTONIAN_ROOTS", ("K5", "H1", "H2"))
    with pytest.raises(CatalogError, match=r"tough-not-hamiltonian has 4 members, expected 3"):
        bootstrap_catalog(8, 10, worker_count=1)


def test_sweep_census_does_not_repeat_the_catalog(catalog):
    # the census comes from the oracles, so a catalog short of a tough18
    # member in range fails the census instead of agreeing with it
    short = Catalog(tuple(g for g in catalog.toughness_exceptions if emit_graph6(g) != "Dls"))
    report = run_sweep(SweepConfig(max_vertices=6, max_edges=9), short)
    missing = canonical_form(parse_graph6("Dls")).decode()
    assert missing in report.exception_census["tough-exceptions"]
    assert report.census_ok["tough-exceptions"] is False
    assert not report.passed
    # and the verdicts that read the catalog disagree with the oracles there
    checks = {check for canon, check, _, _ in report.mismatches if canon == missing}
    assert {"toughness", "hamiltonicity"} <= checks
    assert {canon for canon, _, _, _ in report.mismatches} == {missing}


def test_sweep_certifies_the_report_bundle(catalog, monkeypatch):
    # the sweep checks the verdicts classify prints: flipping one of them
    # on one class is the one mismatch it reports
    target = emit_graph6(canonical_graph(build_named("C5")))
    build = characterize.build_report

    def flipped(g, catalog=None):
        report = build(g, catalog)
        if emit_graph6(g) != target:
            return report
        wrong = characterize.ClauseVerdict(not report.traceable.value, "flipped", ("flipped",))
        return report._replace(traceable=wrong)

    monkeypatch.setattr(characterize, "build_report", flipped)
    report = run_sweep(SweepConfig(max_vertices=5, max_edges=6), catalog)
    assert report.mismatches == [(target, "traceability", "False clause=flipped", "True")]
    assert not report.passed


def test_sweep_decides_toughness_once_per_class(catalog, monkeypatch):
    decided = []
    decide = characterize.decide_coline_tough

    def counting(g, catalog=None):
        decided.append(emit_graph6(g))
        return decide(g, catalog)

    monkeypatch.setattr(characterize, "decide_coline_tough", counting)
    run_sweep(SweepConfig(max_vertices=6, max_edges=8, worker_count=1), catalog)
    # each class once, and G + K2 once for the traceability of each class
    classes = [emit_graph6(g) for g in oracle.iter_graph_classes(6, 8) if g.m >= 3]
    classes += [emit_graph6(characterize.plus_k2(g)) for g in oracle.iter_graph_classes(6, 8) if g.m >= 2]
    assert sorted(decided) == sorted(classes)


def test_bootstrap_makes_no_decision_and_loads_no_catalog(monkeypatch, served_sweep_range):
    # the bootstrap derives the catalog, so its examination of each class
    # stops at the census tags
    def forbidden(*args, **kwargs):
        raise AssertionError("the bootstrap read a decision or a catalog")

    for name in ("load_catalog", "build_report", "decide_coline_traceable"):
        monkeypatch.setattr(characterize, name, forbidden)
    rebuilt, _ = bootstrap_catalog(8, 10, worker_count=1)
    packaged = resources.files("coline").joinpath("data/catalog.txt").read_bytes()
    assert emit_catalog(rebuilt).encode("ascii") == packaged


def test_bootstrap_failure_raises_catalog_error(monkeypatch, served_sweep_range):
    import coline.sweep as sweep_module

    real = sweep_module.oracle_verdicts
    failing, _ = coline(canonical_graph(build_named("C5")))

    def flaky(l, *args):
        if l == failing:
            raise RuntimeError("simulated oracle failure")
        return real(l, *args)

    monkeypatch.setattr(sweep_module, "oracle_verdicts", flaky)
    with pytest.raises(CatalogError, match=r"bootstrap stopped after \d+ classes: .*simulated oracle failure"):
        bootstrap_catalog(8, 10, worker_count=1)


def test_pooled_bootstrap_emits_packaged_catalog(served_sweep_range):
    rebuilt, _ = bootstrap_catalog(8, 10, worker_count=2)
    packaged = resources.files("coline").joinpath("data/catalog.txt").read_bytes()
    assert emit_catalog(rebuilt).encode("ascii") == packaged
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="workers see the patch only when forked")
def test_pooled_bootstrap_worker_failure_raises_catalog_error(monkeypatch, served_sweep_range):
    # C5 has 5 edges, the 8/10 split level, so it roots a task a worker runs
    import coline.sweep as sweep_module

    real = sweep_module._examine_class
    parent = os.getpid()
    failing = canonical_form(build_named("C5")).decode()

    def flaky(g, catalog):
        if emit_graph6(g) == failing:
            raise RuntimeError(f"simulated worker failure in {os.getpid()}")
        return real(g, catalog)

    monkeypatch.setattr(sweep_module, "_examine_class", flaky)
    stopped = r"bootstrap stopped after \d+ classes: .*simulated worker failure in "
    with pytest.raises(CatalogError, match=stopped) as raised:
        bootstrap_catalog(8, 10, worker_count=2)
    assert f"failure in {parent}'" not in str(raised.value)
    assert multiprocessing.active_children() == []


def test_walk_starts_at_most_one_worker_per_task(catalog, monkeypatch, served_sweep_range):
    # a stand-in pool records its size and runs each task as it is submitted
    import coline.sweep as sweep_module
    from concurrent import futures

    started = []

    class InProcessPool:
        def __init__(self, max_workers, initializer=None):
            started.append(max_workers)

        def submit(self, task):
            future = futures.Future()
            future.set_result(task())
            return future

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(sweep_module.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    # 3/2 makes four tasks: K2 above the split, P3 at it and the two censuses
    assert run_sweep(SweepConfig(3, 2, worker_count=64), catalog).passed
    assert started == [4]
    # the bootstrap's default is one worker per CPU
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    rebuilt, _ = bootstrap_catalog()
    assert started == [4, 3]
    assert emit_catalog(rebuilt) == emit_catalog(catalog)


def test_bootstrap_count_check_fires_on_narrow_range():
    # a 6-vertex window cannot contain all 18 exceptions, nor a 7-vertex one
    with pytest.raises(CatalogError):
        bootstrap_catalog(max_vertices=6, max_edges=9)
    with pytest.raises(CatalogError, match=r"tough18\b.*\b15\b|\b15 tough18\b"):
        bootstrap_catalog(7, 9, worker_count=1)


def test_self_coline_census():
    forms = self_coline_census(7)
    assert forms == {
        canonical_form(build_named("C5")),
        canonical_form(build_named("K3_circ_K1")),
    }
    assert canonical_form(build_named("C4")) not in forms
    assert canonical_form(build_named("K3")) not in forms
    assert self_coline_census(8) == forms  # the budget's edge: no 8-vertex one


def test_census_budgets():
    with pytest.raises(ValueError, match="max_vertices <= 8"):
        self_coline_census(9)
    with pytest.raises(ValueError, match="max_vertices <= 6"):
        whitney_census(7)


def test_whitney_census():
    pairs = whitney_census()  # the default budget, 6 vertices
    assert len(pairs) == 1
    forms = {canonical_form(g) for g in pairs[0]}
    assert forms == {canonical_form(build_named("K3")), canonical_form(build_named("K1_3"))}


def test_failure_surfaces_as_partial_report(catalog, monkeypatch):
    import coline.sweep as sweep_module

    real = sweep_module._examine_class
    calls = {"count": 0}

    def flaky(g, catalog):
        calls["count"] += 1
        if calls["count"] == 5:
            raise RuntimeError("simulated worker failure")
        return real(g, catalog)

    monkeypatch.setattr(sweep_module, "_examine_class", flaky)
    report = run_sweep(SweepConfig(max_vertices=5, max_edges=6), catalog)
    assert report.partial
    assert report.graphs_scanned == 4
    assert "simulated worker failure" in report.extras["error"]


def test_bootstrap_members_revalidate(catalog):
    for g in catalog.toughness_exceptions:
        l, _ = coline(g)
        assert not is_tough(l).value
    for g in catalog.wu_meng_21:
        l, _ = coline(g)
        assert hamiltonian_cycle(l) is None


def _exhaustive_verdicts(g: Graph, l: Graph) -> tuple[bool, bool, bool]:
    in_scope = g.m >= 3
    return (
        in_scope and is_tough(l).value,
        in_scope and hamiltonian_cycle(l) is not None,
        g.m >= 2 and hamiltonian_path(l) is not None,
    )


def _cutsets(g: Graph) -> tuple:
    return characterize.clause_cutset(g), characterize.clause_cutset(characterize.plus_k2(g))


def test_certified_verdicts_match_the_exhaustive_oracles(classes_sweep_range):
    # every verdict a certificate gives, yes (a cycle) or no (a cutset),
    # equals the exhaustive oracle's, and every certificate is what it claims
    tally: Counter = Counter()
    for g in classes_sweep_range:
        if g.m < 2:
            continue
        l, _ = coline(g)
        cut, plus_cut = _cutsets(g)
        assert oracle_verdicts(l, (cut, plus_cut), tally, {}) == _exhaustive_verdicts(g, l), emit_graph6(g)
        for host in (l, add_dominating_vertex(l)):
            walk = oracle.spanning_walk(host)
            if walk is not None:
                assert walk.closed and len(walk) == host.n and is_valid_in(walk, host)
        # toughness from 3 edges by the cutset of G; traceability from 2 by
        # that of G + K2 less its added vertex g.m, which it always holds
        cuts = [(0, cut)] if g.m >= 3 else []
        if plus_cut is not None:
            assert g.m in plus_cut, emit_graph6(g)
            cuts.append((1, tuple(v for v in plus_cut if v != g.m)))
        for extra, cut in cuts:
            if cut is not None:
                kept = sum(1 << v for v in range(l.n) if v not in cut)
                assert len(components(l, kept)) >= max(len(cut) + 1 + extra, 2), emit_graph6(g)
    assert set(tally) <= set(CERTIFICATE_KEYS)
    assert tally["cycle"] and tally["path"] and tally["cutset"]


def test_invalid_certificates_decide_nothing(classes_up_to_6, catalog, monkeypatch):
    # a constructor that returns cycles that are not cycles, and cutsets
    # that are wrong, for G and for G + K2, leave every verdict to the oracles
    monkeypatch.setattr(oracle, "spanning_walk", lambda l: oracle.CycleOrPath(tuple(range(l.n)), True))
    for g in classes_up_to_6:
        if g.m >= 2:
            l, _ = coline(g)
            wrong = tuple(range(g.m // 2))
            for cuts in ((wrong, None), (None, wrong + (g.m,))):
                assert oracle_verdicts(l, cuts, Counter(), {}) == _exhaustive_verdicts(g, l), emit_graph6(g)
    # with no cycle at all, a sweep searches every Hamiltonicity verdict, so
    # its cms-ge2 cross-check meets Hamiltonian colines too, co(C5) = C5
    # among them, which holds a spanning cycle but not its square
    monkeypatch.setattr(oracle, "spanning_walk", lambda l: None)
    report = run_sweep(SweepConfig(max_vertices=5, max_edges=6, worker_count=1), catalog)
    assert report.passed and report.extras["certificates"]["cycle"] == 0
    assert report.extras["certificates"]["search:hamiltonicity"] > 0


def test_traceability_is_searched_only_where_no_spanning_path_exists(classes_sweep_range):
    # a cycle through a dominating vertex certifies every traceable 8/10
    # coline, so the search runs only on the non-traceable ones no cutset
    # certifies: the corona and 6 of the 9 trace exceptions
    searched = []
    for g in classes_sweep_range:
        if g.m >= 2:
            l, _ = coline(g)
            tally: Counter = Counter()
            oracle_verdicts(l, _cutsets(g), tally, {})
            if tally["search:traceability"]:
                searched.append(emit_graph6(g))
                assert hamiltonian_path(l) is None, emit_graph6(g)
    assert len(searched) == 7


def test_certified_verdicts_read_nothing_from_characterize_statically():
    # oracle_verdicts validates the cutsets it is handed: neither it nor
    # what it reaches in sweep.py names anything bound from characterize
    import coline.sweep as sweep_module

    tree = ast.parse(Path(sweep_module.__file__).read_text(encoding="utf-8"))
    bound = {"characterize"}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "characterize":
            bound |= {alias.asname or alias.name for alias in node.names}
    defined = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def referenced(names) -> set[str]:
        reached, frontier = set(), list(names)
        while frontier:
            name = frontier.pop()
            if name not in reached:
                reached.add(name)
                frontier += {n.id for n in ast.walk(defined[name]) if isinstance(n, ast.Name)} & defined.keys()
        return {n.id for name in reached for n in ast.walk(defined[name]) if isinstance(n, ast.Name)}

    names = referenced(["oracle_verdicts"])
    assert "_spans" in names and not names & bound, sorted(names & bound)
    # the examination that hands it the cutsets does name them
    assert {"clause_cutset", "plus_k2"} <= referenced(["_examine_class"]) & bound


def test_sweep_names_the_cutsets_of_each_class_once(catalog, monkeypatch):
    # one clause_cutset call for G and one for G + K2 per class, shared by
    # the certified verdicts and the census tags
    import coline.sweep as sweep_module

    named = []
    real = sweep_module.clause_cutset

    def counting(g):
        named.append(emit_graph6(g))
        return real(g)

    monkeypatch.setattr(sweep_module, "clause_cutset", counting)
    run_sweep(SweepConfig(max_vertices=6, max_edges=8, worker_count=1), catalog)
    classes = list(oracle.iter_graph_classes(6, 8))
    assert sorted(named) == sorted(emit_graph6(h) for g in classes for h in (g, characterize.plus_k2(g)))


def test_flipped_decisions_still_show_as_mismatches(catalog, monkeypatch):
    # a Hamiltonian class (certified by a cycle), a counting-clause class
    # (by a cutset) and a catalog class (by the exhaustive oracles)
    from coline.sweep import _examine_class

    targets = [canonical_graph(build_named(name)) for name in ("C5", "K1_3+K2")]
    targets.append(canonical_graph(catalog.toughness_exceptions[0]))
    build = characterize.build_report

    def flipped(g, catalog=None):
        report = build(g, catalog)

        def flip(verdict):
            return characterize.ClauseVerdict(not verdict.value, "flipped", ("flipped",))

        return report._replace(tough=flip(report.tough), hamiltonian=flip(report.hamiltonian),
                               traceable=flip(report.traceable))

    monkeypatch.setattr(characterize, "build_report", flipped)
    for g in targets:
        record = _examine_class(g, catalog)
        checks = {check for check, _, _ in record["mismatches"]}
        assert {"toughness", "hamiltonicity", "traceability"} <= checks, emit_graph6(g)
    # a report lists them in class order, each class's in the order checked,
    # which is not the order of the check names
    report = run_sweep(SweepConfig(max_vertices=4, max_edges=4, worker_count=1), catalog)
    canons = [mismatch[0] for mismatch in report.mismatches]
    assert canons == sorted(canons) and len(set(canons)) > 1
    assert [check for canon, check, _, _ in report.mismatches if canon == canons[0]][:2] == [
        "toughness", "hamiltonicity"]
    # below 3 edges only traceability is decided, by its own procedure
    decide = characterize.decide_coline_traceable
    monkeypatch.setattr(characterize, "decide_coline_traceable",
                        lambda g, catalog: decide(g, catalog)._replace(value=not decide(g, catalog).value))
    for name in ("P3", "2K2"):
        record = _examine_class(canonical_graph(build_named(name)), catalog)
        assert [check for check, _, _ in record["mismatches"]] == ["traceability"], name


def test_sweep_searches_only_where_no_certificate_validates(full_sweep):
    # 8/10: the 18 catalog non-tough classes and the 4 roots have no
    # certificate for toughness and Hamiltonicity, the corona and 6 of the
    # 9 trace exceptions none for traceability (the cutset of G certifies
    # C~, D`K and E`Gw)
    counts = full_sweep.extras["certificates"]
    assert list(counts) == list(CERTIFICATE_KEYS)
    assert counts["search:toughness"] <= 25
    assert counts["search:hamiltonicity"] <= 25
    assert counts["search:traceability"] <= 13
    text = report_to_text(full_sweep)
    assert text.index("slowest classes (ms):") < text.index("certificates (verdicts):")
    assert f"\n  search:toughness: {counts['search:toughness']}\n" in text
