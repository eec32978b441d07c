import argparse
import json
import os
import random
import subprocess
import sys
from importlib import resources
from itertools import combinations

import pytest

from coline import __version__, characterize, cli, lemmacheck, oracle
from coline.cli import main
from coline.graph6 import emit_graph6
from coline.graphcore import Graph, build_named, coline
from coline.oracle import canonical_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_k5_verify(capsys):
    code, out, _ = run_cli(capsys, "classify", "--named", "K5", "--verify")
    assert code == 0
    report = json.loads(out)
    assert report["graph"]["m"] == 10
    assert report["verdicts"]["tough"]["value"] is True
    assert report["verdicts"]["hamiltonian"] == {
        "value": False,
        "clause": "K5",
        "all_matches": ["K5"],
    }
    assert report["verdicts"]["traceable"]["value"] is True
    assert all(entry["agrees"] for entry in report["oracle"].values())
    assert report["coline"] == {"n": 10, "components": 1}
    assert report["within_verified_range"] is True
    assert report["versions"]["tool"]


def test_classify_labels_out_of_range_inputs(capsys):
    code, out, _ = run_cli(capsys, "classify", "--named", "K6")  # 15 edges
    assert code == 0
    report = json.loads(out)
    assert report["within_verified_range"] is False
    assert report["verdicts"]["hamiltonian"]["value"] is True


def test_classify_corona(capsys):
    code, out, _ = run_cli(capsys, "classify", "--named", "K3_circ_K1")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["traceable"]["clause"] == "(iv)"
    assert "oracle" not in report


def test_classify_c6_all_true(capsys):
    code, out, _ = run_cli(capsys, "classify", "--named", "C6", "--verify")
    assert code == 0
    report = json.loads(out)
    verdicts = report["verdicts"]
    assert verdicts["tough"]["value"] and verdicts["hamiltonian"]["value"]
    assert verdicts["traceable"]["value"]


def test_classify_verify_checks_wu_meng(capsys, monkeypatch):
    decide = characterize.decide_wu_meng

    def flipped(g):
        verdict = decide(g)
        return characterize.ClauseVerdict(not verdict.value, "flipped", ("flipped",))

    monkeypatch.setattr(characterize, "decide_wu_meng", flipped)
    code, out, _ = run_cli(capsys, "classify", "--named", "C6", "--verify")
    assert code == 1
    assert json.loads(out)["oracle"]["wu_meng"] == {"value": True, "agrees": False}


def _verdicts(*verdicts):
    keys = ("tough", "hamiltonian", "wu_meng", "traceable")
    return {
        key: {"value": value, "clause": clause, "all_matches": [] if clause == "none" else [clause]}
        for key, (value, clause) in zip(keys, verdicts)
    }


_VERIFY_JSON = {
    # not tough: removing coline vertices 3 and 4 leaves 3 components
    "K3+P3": (
        {"canonical_graph6": "EWCW", "n": 6, "m": 5, "max_degree": 2, "non_isolated": 6},
        {"n": 5, "components": 1},
        _verdicts((False, "(iii)"), (False, "not-tough(iii)"), (False, "(iii)"), (True, "none")),
        {
            "tough": {
                "value": False,
                "vacuous": False,
                "agrees": True,
                "witness": {"cutset": [3, 4], "components_after": 3},
            },
            "hamiltonian": {"value": False, "agrees": True, "witness": None},
            "wu_meng": {"value": False, "agrees": True},
            "traceable": {"value": True, "agrees": True, "witness": [0, 3, 1, 4, 2]},
        },
    ),
    # Hamiltonian, with cycle and path witnesses
    "C6": (
        {"canonical_graph6": "EkGW", "n": 6, "m": 6, "max_degree": 2, "non_isolated": 6},
        {"n": 6, "components": 1},
        _verdicts((True, "none"), (True, "none"), (True, "none"), (True, "none")),
        {
            "tough": {"value": True, "vacuous": False, "agrees": True, "witness": None},
            "hamiltonian": {"value": True, "agrees": True, "witness": [0, 3, 1, 4, 2, 5]},
            "wu_meng": {"value": True, "agrees": True},
            "traceable": {"value": True, "agrees": True, "witness": [0, 3, 1, 4, 2, 5]},
        },
    ),
    # out of scope: the oracles answer alone
    "K2": (
        {"canonical_graph6": "A_", "n": 2, "m": 1, "max_degree": 1, "non_isolated": 2},
        {"n": 1, "components": 1},
        {"out_of_scope": "toughness decision needs at least 3 edges, got 1"},
        {"tough": True, "hamiltonian": False, "traceable": True},
    ),
    # out of scope for toughness, but traceability is decided from 2 edges
    "2K2": (
        {"canonical_graph6": "C`", "n": 4, "m": 2, "max_degree": 1, "non_isolated": 4},
        {"n": 2, "components": 1},
        {
            "out_of_scope": "toughness decision needs at least 3 edges, got 2",
            "traceable": {"value": True, "clause": "none", "all_matches": []},
        },
        {"tough": True, "hamiltonian": False, "traceable": True},
    ),
}


@pytest.mark.parametrize("name", sorted(_VERIFY_JSON))
def test_classify_verify_json_is_pinned(capsys, name):
    graph, coline_json, verdicts, oracle_json = _VERIFY_JSON[name]
    expected = {
        "graph": graph,
        "coline": coline_json,
        "within_verified_range": True,
        "versions": {"tool": __version__, "catalog": characterize.CATALOG_FORMAT},
        "verdicts": verdicts,
        "oracle": oracle_json,
    }
    code, out, _ = run_cli(capsys, "classify", "--named", name, "--verify")
    assert code == 0
    assert out == json.dumps(expected, indent=2) + "\n"


def test_classify_verify_agrees(capsys):
    for name in ("K5", "H1", "C6", "K3_circ_K1", "C4+K2"):
        code, out, _ = run_cli(capsys, "classify", "--named", name, "--verify")
        assert code == 0, name
        oracle_json = json.loads(out)["oracle"]
        assert len(oracle_json) == 4
        assert all(entry["agrees"] for entry in oracle_json.values()), name


def test_classify_verify_edge_budget(capsys):
    code, _, err = run_cli(capsys, "classify", "--named", "K7", "--verify")  # 21 edges
    assert code == 2
    assert "16 edges" in err
    code, _, _ = run_cli(capsys, "classify", "--named", "K7")
    assert code == 0
    code, _, _ = run_cli(capsys, "classify", "--named", "C6", "--verify")
    assert code == 0


def test_classify_verify_sparse_coline_without_spanning_walks(capsys):
    # co(K1_8+6K2) has 14 vertices and 8 pairwise non-adjacent ones, so the
    # spanning-cycle and spanning-path oracles answer without a search
    code, out, _ = run_cli(capsys, "classify", "--named", "K1_8+6K2", "--verify")
    assert code == 0
    oracle_report = json.loads(out)["oracle"]
    assert len(oracle_report) == 4
    assert all(entry["agrees"] for entry in oracle_report.values())


def test_classify_padded_input_relabels_once(capsys, monkeypatch):
    _, out, _ = run_cli(capsys, "classify", "--named", "H1")
    plain = json.loads(out)
    relabels = []
    strip = characterize.strip_isolated

    def counting_strip(g):
        core = strip(g)
        if core is not g:
            relabels.append(core)
        return core

    monkeypatch.setattr(characterize, "strip_isolated", counting_strip)
    code, out, _ = run_cli(capsys, "classify", "--named", "H1+3K1")
    assert code == 0
    padded = json.loads(out)
    assert padded["verdicts"] == plain["verdicts"]
    assert padded["graph"]["n"] == 9 and padded["graph"]["non_isolated"] == 6
    assert padded["within_verified_range"] is True
    assert len(relabels) == 1


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("escaped the classification")

    monkeypatch.setattr(characterize, "build_report", broken)
    code, out, err = run_cli(capsys, "classify", "--named", "C6")
    assert code == 1
    assert err == "internal error: AssertionError: escaped the classification\n"
    assert "Traceback" not in err and out == ""


def test_classify_graph6_input(capsys):
    code, out, _ = run_cli(capsys, "classify", "--graph6", emit_graph6(build_named("C6")))
    assert code == 0
    assert json.loads(out)["verdicts"]["hamiltonian"]["value"] is True


def test_only_raw_rows_are_checked(capsys, monkeypatch):
    # the parsers and builders make valid rows, and what is derived from
    # them stays valid, so only rows handed to Graph(n, adj) are checked
    characterize.load_catalog()
    rng = random.Random(300)
    g = Graph.from_edges(300, rng.sample(list(combinations(range(300), 2)), 900))
    checked = []
    check = Graph.__init__

    def counting_check(self, n, adj):
        checked.append(n)
        check(self, n, adj)

    monkeypatch.setattr(Graph, "__init__", counting_check)
    code, out, _ = run_cli(capsys, "classify", "--graph6", emit_graph6(g))
    assert code == 0 and json.loads(out)["graph"]["m"] == 900
    assert checked == []
    assert build_named("500K2").m == 500 and checked == []
    assert Graph(g.n, g.adj) == g and checked == [300]


def test_classify_edge_list_input(capsys, tmp_path):
    path = tmp_path / "c6.txt"
    path.write_text("n=6\n" + "\n".join(f"{u} {v}" for u, v in build_named("C6").edges()))
    code, out, _ = run_cli(capsys, "classify", "-i", str(path))
    assert code == 0
    assert json.loads(out)["graph"]["m"] == 6


def test_classify_out_of_scope(capsys):
    code, out, _ = run_cli(capsys, "classify", "--named", "K2", "--verify")
    assert code == 0
    report = json.loads(out)
    assert "out_of_scope" in report["verdicts"]
    assert report["oracle"]["traceable"] is True


def test_classify_two_edges_decides_traceability(capsys):
    # co(K1_2) is two isolated vertices, co(2K2) is K2; one edge has no verdict
    for name, value, clause in (("K1_2", False, "(i)"), ("2K2", True, "none")):
        code, out, _ = run_cli(capsys, "classify", "--named", name)
        assert code == 0
        verdicts = json.loads(out)["verdicts"]
        assert set(verdicts) == {"out_of_scope", "traceable"}
        assert (verdicts["traceable"]["value"], verdicts["traceable"]["clause"]) == (value, clause), name
        assert (oracle.hamiltonian_path(coline(build_named(name))[0]) is not None) == value
    code, out, _ = run_cli(capsys, "classify", "--named", "K2")
    assert set(json.loads(out)["verdicts"]) == {"out_of_scope"}


def test_bad_graph6_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "classify", "--graph6", "D~{X")
    assert code == 2
    assert "error" in err


def test_unknown_name_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "classify", "--named", "Zorp")
    assert code == 2


def test_oversized_inputs_are_usage_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "classify", "--named", "K99999999")
    assert code == 2 and "1000 vertices" in err
    code, _, err = run_cli(capsys, "classify", "--named", "99999999K2")
    assert code == 2 and "1000 vertices" in err
    path = tmp_path / "huge.txt"
    path.write_text("n=2000000\n0 1\n")
    code, _, err = run_cli(capsys, "classify", "-i", str(path))
    assert code == 2 and "limit" in err
    path.write_text("0 1\n1 99999999\n")
    code, _, err = run_cli(capsys, "classify", "-i", str(path))
    assert code == 2 and "limit" in err
    header = bytes([126, 63, 63 + (2000 >> 6), 63 + (2000 & 63)]).decode("ascii")
    code, _, err = run_cli(capsys, "classify", "--graph6", header)
    assert code == 2 and "limit" in err
    # edge limit: K100 has 4950 edges and is accepted, K101 has 5050
    assert build_named("K100").m == 4950
    for spec in ("K101", "K100+C51", "2K100"):
        code, _, err = run_cli(capsys, "classify", "--named", spec)
        assert code == 2 and "5000 edges" in err, spec
    k101 = emit_graph6(Graph.from_edges(101, combinations(range(101), 2)))
    code, _, err = run_cli(capsys, "classify", "--graph6", k101)
    assert code == 2 and "5050 edges exceed the limit of 5000" in err
    path.write_text("".join(f"{u} {v}\n" for u, v in combinations(range(101), 2)))
    code, _, err = run_cli(capsys, "classify", "-i", str(path))
    assert code == 2 and "5050 edges exceed the limit of 5000" in err


def test_missing_input_file_is_io_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "classify", "-i", str(tmp_path / "nope.txt"))
    assert code == 3


def test_invalid_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["classify"])  # no input source
    assert err.value.code == 2


# "CATALOG" stands for a copy of the packaged catalog
PARSER_ARGVS = (
    ["--help"],
    ["classify", "--help"],
    ["sweep", "--help"],
    ["cms", "--help"],
    ["catalog", "--help"],
    ["roots", "--help"],
    [],
    ["frob"],
    ["classify"],
    ["classify", "--graph6", "D~{", "--bogus"],
    ["sweep", "--bogus"],
    ["cms", "--named", "K5", "--bogus"],
    ["catalog", "show", "--bogus"],
    ["roots", "--named", "K5", "--bogus"],
    ["catalog", "frob"],
    ["sweep", "--workers", "x"],
    ["--catalog", "CATALOG", "classify", "--named", "K5"],
    ["--catalog=CATALOG", "classify", "--named", "K5"],
    ["--cat", "CATALOG", "classify", "--named", "K5"],
    # what the subcommand's own parser leaves over goes to the full tree
    ["classify", "--graph6", "Bw", "--bogus"],
    ["classify", "--named", "K5", "--catalog", "CATALOG"],
    ["sweep", "--workers", "1", "extra"],
    ["roots", "--named", "K3", "-x"],
    ["catalog", "show", "extra"],
)


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_cli_text_matches_the_full_parser(capsys, monkeypatch, tmp_path, argv):
    catalog = tmp_path / "catalog.txt"
    catalog.write_bytes(resources.files("coline").joinpath("data/catalog.txt").read_bytes())
    argv = [arg.replace("CATALOG", str(catalog)) for arg in argv]
    got = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
    assert got == _outcome(capsys, argv)


def test_main_builds_only_the_named_subcommand(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["classify", "--named", "K5"]) == 0
    assert built == ["coline classify"]
    built.clear()
    with pytest.raises(SystemExit):
        main(["--help"])
    assert len(built) == 6


def test_classify_loads_only_the_decision_layer():
    # a classify process never imports the sweep, the lemma checks, a
    # process pool, dataclasses (with the inspect and ast it pulls in) or
    # pathlib; a sweep run later in the same interpreter loads them.  The
    # interpreter starts without site, which on some hosts imports pathlib
    script = """
import contextlib, io, json, sys
import coline
from coline import cli
with contextlib.redirect_stdout(io.StringIO()):
    classified = cli.main(["classify", "--named", "K5"])
loaded = [
    name
    for name in (
        "coline.sweep", "coline.lemmacheck", "multiprocessing", "dataclasses", "inspect", "ast",
        "pathlib",
    )
    if name in sys.modules
]
with contextlib.redirect_stdout(io.StringIO()) as out:
    swept = cli.main(["sweep", "--max-vertices", "4", "--max-edges", "3"])
print(json.dumps([classified, loaded, swept, out.getvalue()]))
"""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    classified, loaded, swept, out = json.loads(result.stdout)
    assert classified == 0
    assert loaded == []
    assert swept == 0 and "mismatches: 0" in out


def test_cms_command(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "cms", "--named", "K5")
    assert code == 0
    report = json.loads(out)
    assert report["cms"] == 1
    assert report["cms_ge2_iff_hamiltonian"] is True
    code, out, _ = run_cli(capsys, "cms", "--named", "C6")
    assert json.loads(out)["cms"] >= 2
    code, out, _ = run_cli(capsys, "cms", "--named", "K2")
    report = json.loads(out)
    assert report["cms"] == 1 and report["verdicts"]["hamiltonian"] is None
    # a decision that disagrees with cms is a mismatch
    planted = characterize.ClauseVerdict(True, "planted", ("planted",))
    monkeypatch.setattr(characterize, "decide_coline_hamiltonian", lambda g, catalog: planted)
    code, out, _ = run_cli(capsys, "cms", "--named", "K5")
    assert code == 1 and json.loads(out)["cms_ge2_iff_hamiltonian"] is False


def test_cms_budget(capsys):
    code, _, err = run_cli(capsys, "cms", "--named", "K6")  # 15 edges
    assert code == 2


def test_cms_without_edges_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "cms", "--named", "K1")
    assert (code, out) == (2, "")
    assert "cms needs at least one edge" in err


def test_roots_command(capsys):
    code, out, _ = run_cli(capsys, "roots", "--graph6", "B?")  # edgeless on 3
    assert code == 0
    report = json.loads(out)
    assert report["roots"] == ["Bw", "CF"]  # sorted by graph6
    from coline.graph6 import parse_graph6
    from coline.oracle import canonical_form

    got = {canonical_form(parse_graph6(code)) for code in report["roots"]}
    assert got == {
        canonical_form(build_named("K3")),
        canonical_form(build_named("K1_3")),
    }
    assert report["complete"] is True


def test_sweep_command(capsys, tmp_path):
    out_path = tmp_path / "report.txt"
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--max-vertices", "6",
        "--max-edges", "9",
        "--output", str(out_path),
    )
    assert code == 0
    assert "mismatches: 0" in out
    assert out_path.exists()


def test_sweep_census_mismatch_exits_1(capsys, monkeypatch, tmp_path):
    import coline.sweep as sweep_module

    real = sweep_module._examine_class

    def no_corona(g, catalog):
        record = real(g, catalog)
        record["census"] = [key for key in record["census"] if key != "trace-corona"]
        return record

    monkeypatch.setattr(sweep_module, "_examine_class", no_corona)
    report = tmp_path / "report.txt"
    code, out, _ = run_cli(
        capsys, "sweep", "--max-vertices", "6", "--max-edges", "8", "--output", str(report)
    )
    assert code == 1
    assert "mismatches: 0" in out
    assert "trace-corona: 0 (MISMATCH)\n" in out
    assert "passed: False" in report.read_text()


def _planted_classification(change):
    def plant(klass):
        return klass._replace(**change(klass))

    return plant


# Each case makes one predicate of the sweep wrong on one class, named as
# in build_named: (module, function, class, wrong answer from the right
# one, the mismatch's check, theorem and oracle fields).
PLANTED = {
    "classification-count": (
        "characterize", "classify_disconnected_coline", "K1_3",
        _planted_classification(lambda k: {"component_count": k.component_count + 1}),
        "classification", "star", "component count 3 != reported 4",
    ),
    "classification-connected": (
        "characterize", "classify_disconnected_coline", "K1_3",
        _planted_classification(lambda k: {"case": characterize.ColineCase.CONNECTED}),
        "classification", "connected", "coline disconnected but classified connected",
    ),
    "classification-connected-C4": (  # a coline of exactly 2 components
        "characterize", "classify_disconnected_coline", "C4",
        _planted_classification(lambda k: {"case": characterize.ColineCase.CONNECTED}),
        "classification", "connected", "coline disconnected but classified connected",
    ),
    "classification-disconnected": (
        "characterize", "classify_disconnected_coline", "C5",
        _planted_classification(lambda k: {"case": characterize.ColineCase.STAR}),
        "classification", "star", "coline connected but classified disconnected",
    ),
    "classification-rho": (
        "characterize", "classify_disconnected_coline", "K1_3",
        _planted_classification(lambda k: {"rho": k.rho + 1}),
        "classification", "star", "(c, rho) = (3, 7) != expected (3, 6)",
    ),
    "induced-freeness": (
        "oracle", "induced_k2_3k1", "C5",
        lambda found: (0, 1, 2, 3, 4),
        "induced-freeness", "free", "induced copy found",
    ),
    "lemma": (
        "lemmacheck", "run_all_checks", "K5",
        lambda found: found + [lemmacheck.Violation("planted", (0,), "planted violation")],
        "lemma:planted", "no violation", "planted violation",
    ),
}


@pytest.mark.parametrize("case", sorted(PLANTED))
def test_sweep_reports_a_planted_mismatch(capsys, monkeypatch, tmp_path, case):
    # every class on at most 5 vertices; the predicate is wrong on one
    # class only, so the sweep reports that one check on that class
    module_name, function, name, wrong, check, theorem, seen = PLANTED[case]
    module = {"characterize": characterize, "oracle": oracle, "lemmacheck": lemmacheck}[module_name]
    target = canonical_graph(build_named(name))
    target_coline, _ = coline(target)
    real = getattr(module, function)

    def planted(arg):
        found = real(arg)
        host = arg.host if module is lemmacheck else arg
        return wrong(found) if host in (target, target_coline) else found

    monkeypatch.setattr(module, function, planted)
    report = tmp_path / "report.txt"
    code, out, _ = run_cli(
        capsys, "sweep", "--max-vertices", "5", "--max-edges", "10", "--output", str(report)
    )
    assert code == 1
    line = f"  {emit_graph6(target)}  {check}  theorem={theorem}  oracle={seen}\n"
    assert f"\nmismatches: 1\n{line}" in out
    text = report.read_text()
    assert f"\nmismatches: 1\n{line}\n" in text
    assert "passed: False" in text and "partial: False" in text


def test_sweep_reports_a_partial_run(capsys, monkeypatch, tmp_path):
    import coline.sweep as sweep_module

    real = sweep_module._examine_class
    examined = []

    def failing(g, catalog):
        if len(examined) == 4:
            raise RuntimeError("planted failure")
        examined.append(g)
        return real(g, catalog)

    monkeypatch.setattr(sweep_module, "_examine_class", failing)
    report = tmp_path / "report.txt"
    code, out, _ = run_cli(
        capsys, "sweep", "--max-vertices", "5", "--max-edges", "6", "--output", str(report)
    )
    assert code == 1
    assert "classes scanned: 4\nmismatches: 0\n" in out
    assert out.endswith("partial run after 4 classes: RuntimeError('planted failure')\n")
    assert "partial: True\npassed: False\n" in report.read_text()


@pytest.mark.parametrize("command", [["sweep"], ["catalog", "bootstrap"]])
@pytest.mark.parametrize("where", ["missing-dir", "directory", "denied"])
def test_unwritable_output_fails_before_the_run(capsys, monkeypatch, tmp_path, command, where):
    import coline.sweep as sweep_module

    def never(*args, **kwargs):
        raise AssertionError("ran although --output cannot be written")

    monkeypatch.setattr(sweep_module, "run_sweep", never)
    monkeypatch.setattr(sweep_module, "bootstrap_catalog", never)
    target = tmp_path / "absent" / "out.txt" if where == "missing-dir" else tmp_path
    if where == "denied":  # as for a user without write permission: root is never denied
        monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
        target = tmp_path / "out.txt"
    code, out, err = run_cli(capsys, *command, "--output", str(target))
    assert code == 3
    assert err.startswith("i/o error: [Errno") and str(target) in err
    assert out == "" and list(tmp_path.iterdir()) == []


def test_empty_output_path_fails_before_bootstrap(capsys, monkeypatch):
    # an empty path names no file: opening it raises ENOENT, so the check does
    import coline.sweep as sweep_module

    def never(*args, **kwargs):
        raise AssertionError("ran although --output cannot be written")

    monkeypatch.setattr(sweep_module, "bootstrap_catalog", never)
    code, out, err = run_cli(capsys, "catalog", "bootstrap", "--output", "")
    assert code == 3
    assert err.startswith("i/o error: [Errno 2]") and out == ""


def test_sweep_bad_flags(capsys):
    code, _, err = run_cli(capsys, "sweep", "--max-vertices", "40")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--checks", "all"])
    assert exc.value.code == 2


def test_sweep_worker_cap_starts_no_processes(capsys, monkeypatch):
    import coline.sweep as sweep_module

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(sweep_module.futures, "ProcessPoolExecutor", no_pool)
    code, _, err = run_cli(capsys, "sweep", "--workers", "1000000")
    assert code == 2 and "worker_count must be at most" in err


@pytest.mark.parametrize("workers, message", [("1000000", "worker_count must be at most"),
                                              ("0", "worker_count must be positive")])
def test_bootstrap_worker_count_is_checked_first(capsys, monkeypatch, tmp_path, workers, message):
    # a bad count exits 2 before any pool starts or the output is checked
    import coline.sweep as sweep_module

    def never(*args, **kwargs):
        raise AssertionError("a worker pool or the bootstrap was started")

    monkeypatch.setattr(sweep_module.futures, "ProcessPoolExecutor", never)
    monkeypatch.setattr(sweep_module, "bootstrap_catalog", never)
    target = tmp_path / "absent" / "catalog.txt"
    code, out, err = run_cli(capsys, "catalog", "bootstrap", "--workers", workers, "--output", str(target))
    assert code == 2 and message in err and out == ""


def test_catalog_validate_and_show(capsys):
    code, out, _ = run_cli(capsys, "catalog", "validate")
    assert code == 0 and "valid" in out
    code, out, _ = run_cli(capsys, "catalog", "show")
    assert code == 0
    assert out.startswith(f"format: {characterize.CATALOG_FORMAT}\n")
    assert "[tough18] (18)" in out and "[trace9] (9)" in out
    assert "[named]" not in out and "[wumeng21]" not in out


def test_catalog_of_the_old_format_is_rejected(capsys, tmp_path):
    # a v2 file stored the trace9 beside the tough18; v3 derives them
    packaged = resources.files("coline").joinpath("data/catalog.txt").read_text("ascii")
    old = tmp_path / "catalog-v2.txt"
    old.write_text("coline-catalog v2\n" + packaged.split("\n", 1)[1]
                   + "[trace9]\nCl\nC~\nDKk\nDUk\nD`o\nDe{\nEGaW\nE`bG\nEwF_\n")
    code, out, err = run_cli(capsys, "--catalog", str(old), "catalog", "validate")
    assert (code, out) == (1, "")
    assert err == "catalog error: bad or missing format header, expected 'coline-catalog v3'\n"


def test_catalog_bootstrap_writes_file(capsys, tmp_path, served_sweep_range):
    target = tmp_path / "catalog.txt"
    code, out, err = run_cli(capsys, "catalog", "bootstrap", "--output", str(target))
    assert code == 0
    summary = json.loads(out)
    assert [summary[f"{x}_count"] for x in ("tough", "trace", "wu_meng")] == [18, 9, 21]
    assert err == f"wrote {target}\n"
    packaged = resources.files("coline").joinpath("data/catalog.txt").read_bytes()
    assert target.read_bytes() == packaged
    code, out, _ = run_cli(capsys, "--catalog", str(target), "catalog", "validate")
    assert code == 0


@pytest.mark.parametrize("closed_on", ["write", "flush"])  # unbuffered or buffered stdout
def test_closed_stdout_exits_0(capsys, monkeypatch, closed_on):
    class ClosedPipe:
        def write(self, text):
            if closed_on == "write":
                raise BrokenPipeError(32, "Broken pipe")
            return len(text)

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["catalog", "show"]) == 0
    assert not isinstance(sys.stdout, ClosedPipe)  # so the exit-time flush cannot raise
    assert capsys.readouterr().err == ""


def test_corrupt_catalog_exits_1(capsys, tmp_path):
    from coline.characterize import emit_catalog, load_catalog

    text = emit_catalog(load_catalog())
    lines = text.splitlines()
    index = lines.index("[tough18]") + 1
    broken = "\n".join(lines[:index] + lines[index + 1 :]) + "\n"
    target = tmp_path / "broken.txt"
    target.write_text(broken, encoding="ascii")
    code, _, err = run_cli(capsys, "--catalog", str(target), "catalog", "validate")
    assert code == 1
    assert "catalog error" in err
    # a member that is not graph6, named by section and line
    target.write_text(text.replace(lines[index], "!!!"), encoding="ascii")
    code, _, err = run_cli(capsys, "--catalog", str(target), "catalog", "validate")
    assert code == 1
    assert err.startswith(f"catalog error: [tough18] line {index + 1}: byte 33 outside graph6 range")
    # a header must be exactly [tag]
    target.write_text(text.replace("[tough18]\n", "[tough18\n"), encoding="ascii")
    code, out, err = run_cli(capsys, "--catalog", str(target), "catalog", "validate")
    assert code == 1 and out == ""
    assert err.startswith("catalog error: line 2: unknown section header '[tough18'")


def test_unreadable_catalog_is_io_error(capsys, tmp_path):
    for path in (tmp_path / "missing.txt", tmp_path):
        code, out, err = run_cli(capsys, "--catalog", str(path), "catalog", "validate")
        assert code == 3 and out == ""
        assert err.startswith("i/o error: [Errno") and str(path) in err


def test_non_ascii_catalog_byte_names_its_line(capsys, tmp_path):
    text = characterize.emit_catalog(characterize.load_catalog()).encode("ascii")
    lines = text.splitlines()
    index = lines.index(b"[tough18]") + 1
    target = tmp_path / "catalog.txt"
    cases = (
        (b"\x7f", "byte 127 outside graph6 range"),
        (b"\xc3", "character '\\udcc3' is not ASCII"),
    )
    for byte, reason in cases:
        target.write_bytes(text.replace(lines[index], lines[index][:1] + byte + lines[index][2:]))
        code, out, err = run_cli(capsys, "--catalog", str(target), "catalog", "validate")
        assert code == 1 and out == ""
        assert err == f"catalog error: [tough18] line {index + 1}: {reason} (byte 1)\n"
