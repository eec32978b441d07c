"""CI's smoke checks, each in a new interpreter that writes only into a temporary directory.

``python tests/smoke.py [NAME]`` runs all of them, or one, from the repo root with nothing
installed; a failure prints the check's name, the expected and the actual value."""

import difflib, json, multiprocessing, os, random, re, resource, subprocess, sys, tempfile, time
from contextlib import suppress
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
if __name__ != "__main__":  # in a check: the runner stays small, as a child inherits its peak RSS
    from coline import (Graph, build_named, canonical_graph, classify_disconnected_coline, coline,
                        emit_graph6, is_isomorphic, is_tough, longest_cycle, oracle, sweep)
    from coline.cli import main
    from coline.lemmacheck import check_trivial_components, make_context, run_all_checks

def expect(what, expected, actual):
    if expected != actual and isinstance(expected, str) and "\n" in expected:  # texts: a diff
        lines = difflib.unified_diff(expected.split("\n"), actual.split("\n"), n=0, lineterm="")
        expected, actual = [], [*lines][2:6]
    if expected != actual:
        raise AssertionError(f"{what}: expected {expected!r}, got {actual!r}")

def cli(*args, seconds, code=0, cwd=ROOT, stdout=subprocess.PIPE):  # its stdout and stderr
    done = subprocess.run([sys.executable, "-m", "coline.cli", *args], cwd=cwd, env=ENV,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=seconds)
    expect(f"exit code of {args}, stderr ending {done.stderr[-200:]!r}", code, done.returncode)
    return done.stdout, done.stderr

def classify_named(tmp):  # each within its bound in s, under a timeout of at least 10 s
    for args, bound in [("P1000", 60), ("K1_999", 10), ("K1_300", 10), ("K1_200", 10), ("K100", 10),
                        ("H1+3K1 --verify", 10), ("K1_8+6K2 --verify", 20)] + [(name, 1) for name in (
            "500K2 333K3 4K1_100 25K1_20 166K1_3 300P3 200P4 250K3 200C4 150C5 K1_500+200K2 "
            "3K1_100 100K4 40C25 60K5 K50+100K2 200K2").split()]:  # disconnected: once 9 s to over 60 s
        start, _ = time.monotonic(), cli("classify", "--named", *args.split(), seconds=max(bound, 10))
        expect(f"classify --named {args} within {bound} s", True, time.monotonic() - start < bound)
    report = json.loads(cli("classify", "--named", "2K2", seconds=10)[0])
    expect("2K2 traceable", True, report["verdicts"]["traceable"]["value"])

def seeded(tmp, n, facts):  # classify G(n, 5n), drawn with seed n, on n of 1000 vertices
    rng = random.Random(n)
    kept = range(n) if n == 1000 else sorted(rng.sample(range(1000), n))
    edges = [(kept[a], kept[b]) for a, b in rng.sample(list(combinations(range(n), 2)), 5 * n)]
    report = json.loads(cli("classify", "--graph6", emit_graph6(Graph.from_edges(1000, edges)), seconds=10)[0])
    expect("report", facts, [(part, key, report[part][key]) for part, key, _ in facts])

def book_graph(tmp):  # edge 01 plus 0w and 1w for w = 2..501: 1,001 edges, past the name limit
    klass = classify_disconnected_coline(
        Graph.from_edges(502, [(0, 1)] + [(a, w) for w in range(2, 502) for a in (0, 1)]))
    expect("case, rho", ["TYPE_A", 1003], [klass.case.name, klass.rho])

def isomorphic(tmp, a, b, expected):
    expect(f"{a} ~ {b}", expected, is_isomorphic(build_named(a), build_named(b)) is not None)

def digest(tmp, names, expected):  # of the canonical forms of names, or of all 9/11 classes
    import hashlib  # here: its OpenSSL would add 4 MB to the peak RSS of sweep_9_11
    graphs = ([canonical_graph(build_named(name)) for name in names.split()] if names else
              sorted(oracle.iter_graph_classes(9, 11), key=lambda g: (g.m, emit_graph6(g))))
    lines = [emit_graph6(g).encode() for g in graphs]
    expect("count, sha1", expected, [len(lines), hashlib.sha1(b"\n".join(lines)).hexdigest()])

def lemmas_9_11(tmp):  # on a longest cycle of each non-Hamiltonian 9/11 coline
    pairs = ((l, longest_cycle(l)) for l, _ in map(coline, oracle.iter_graph_classes(9, 11)))
    contexts = [make_context(l, c) for l, c in pairs if c is not None and len(c) < l.n]
    fired = [ctx.host for ctx in contexts if check_trivial_components(ctx)]
    expect("colines, general violations, trivial-components firings, tough ones", [733, 0, 11, 0], [len(contexts),
           sum(len(run_all_checks(c)) for c in contexts), len(fired), sum(is_tough(l).value for l in fired)])

def sweeps(tmp):  # the 8/10 report above its clocks is the golden text at 2 and at 1 worker
    golden = (ROOT / "tests" / "golden" / "sweep-8-10-unclocked.txt").read_text()
    for args, seconds, line in [
            ("--max-vertices 5 --max-edges 6 --workers 2", 10, "mismatches: 0"),
            ("--workers 2", 120, "passed: True"), ("--workers 1", 120, "passed: True"),
            ("--max-vertices 10 --max-edges 12 --workers 2", 120, "passed: True")]:
        cli("sweep", *args.split(), "--output", f"{tmp}/report.txt", seconds=seconds)
        report = Path(tmp, "report.txt").read_text()
        expect(f"{line!r} in the report of sweep {args}", True, f"\n{line}\n" in report)
        if "--max-edges" not in args:  # less `workers:` and the clocks, which end at certificates
            cut = re.sub(r"(?m)^workers: .*\n", "", report)
            unclocked = cut[:cut.index("timings (s):")] + cut[cut.index("certificates (verdicts)"):]
            expect(f"the report of sweep {args} above its clocks", golden, unclocked)

def sweep_9_11(tmp):  # in-process, so that the peak RSS is the sweep parent's
    code = main(f"sweep --max-vertices 9 --max-edges 11 --workers 2 --output {tmp}/r911".split())
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    got = re.findall(r"(?m)^(?:passed|  path|  search:traceability): (.*)$", Path(tmp, "r911").read_text())
    expect(f"exit code, RSS {peak:.1f} MB < 30, the 3 lines", [0, 1, "True", "477", "7"], [code, peak < 30, *got])

def catalog_bootstrap(tmp):  # in tmp, where the default --output, coline-catalog.txt, goes
    packaged = (ROOT / "src" / "coline" / "data" / "catalog.txt").read_bytes().decode()  # as `cmp`
    for workers in ["--workers 1", ""]:  # in-process, then the default: one worker per CPU
        counts = json.loads(cli("catalog", "bootstrap", *workers.split(), seconds=60, cwd=tmp)[0])
        expect(f"catalog of {workers!r}", packaged, Path(tmp, "coline-catalog.txt").read_bytes().decode())
        expect("counts", [18, 9, 21], [counts.get(f"{x}_count") for x in ("tough", "trace", "wu_meng")])

def subcommands(tmp):
    reader, writer = os.pipe()
    os.close(reader)  # as `| head -c 10` closes it, but before the first write
    cli("catalog", "show", seconds=10, stdout=writer)
    for args, code in [("cms --named C5+C7", 0), ("roots --named P40", 0),
                       ("--catalog src/coline/data/catalog.txt catalog validate", 0),
                       ("classify --named K101", 2), ("classify --graph6 D~{ --bogus", 2),
                       ("sweep --output /nonexistent/dir/r.txt", 3),
                       ("catalog bootstrap --output /nonexistent/dir/c.txt", 3)]:
        err = cli(*args.split(), seconds=10, code=code)[1]
        expect(f"usage line in stderr of {args}", "--bogus" in args, "{classify,sweep,cms,catalog,roots}" in err)

def planted_failures(tmp):  # 50 sweeps where one class raises, then one where it kills its worker
    target = min(emit_graph6(g) for g in oracle.iter_graph_classes(6, 8) if g.m == 8)
    def planted(g, catalog, real=sweep._examine_class):
        if emit_graph6(g) == target:
            raise os._exit(1) if die else RuntimeError("planted failure")
        return real(g, catalog)
    sweep._examine_class = planted
    for die in [False] * 50 + [True]:
        report = sweep.run_sweep(sweep.SweepConfig(6, 8, 2))
        error = ("BrokenProcessPool(" if die else "RuntimeError(") in report.extras.get("error", "")
        expect("partial, error named, children left", [True, True, []],
               [report.partial, error, multiprocessing.active_children()])

CHECKS = {  # name: (the bound in s of its own interpreter, or None; the check; its arguments)
    "classify_named": (None, classify_named),
    "classify_sparse": (10, seeded, 1000, [("coline", "components", 1)]),
    "classify_padded": (10, seeded, 500, [("graph", "non_isolated", 500), ("coline", "n", 2500)]),
    "book_graph": (10, book_graph), "c200_not_2c100": (10, isomorphic, "C200", "2C100", False),
    "p1000_is_p1000": (10, isomorphic, "P1000", "P1000", True),
    "canonical_forms": (60, digest, "K1_999 K1_300 K100 P1000 C500 60K2 30K3 K5+30K1",
                        [8, "3883e8a4161399e7bfe6a6da3fecbb5bfd7598eb"]),
    "classes_9_11": (60, digest, "", [6260, "4c836425499ed06416f55f149b3383810d5e867d"]),
    "lemmas_9_11": (60, lemmas_9_11), "sweeps": (None, sweeps), "sweep_9_11": (120, sweep_9_11),
    "catalog_bootstrap": (None, catalog_bootstrap), "subcommands": (None, subcommands),
    "planted_failures": (60, planted_failures)}

if __name__ == "__main__":  # each check in a new process group, ended with all it started
    failed = 0
    for name in sys.argv[1:] or CHECKS:  # an unknown name fails as a check
        with tempfile.TemporaryDirectory() as tmp, subprocess.Popen([sys.executable, "-c",
                f"import smoke; _, check, *args = smoke.CHECKS[{name!r}]; check({tmp!r}, *args)"],
                env=ENV, stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
            try:
                err = proc.communicate(timeout=CHECKS.get(name, [None])[0])[1]
            except subprocess.TimeoutExpired:
                err = f"did not end within {CHECKS[name][0]} s, so it was killed"
            with suppress(ProcessLookupError):
                os.killpg(proc.pid, 9)  # SIGKILL: what it left running ends, as under `timeout`
        failed += proc.returncode != 0
        print(f"FAIL {name}\n{err}" if proc.returncode else f"ok   {name}", flush=True)
    sys.exit(1 if failed else 0)
