import pickle
import random

import pytest

from coline import oracle
from coline.characterize import (
    CATALOG_FORMAT,
    CatalogError,
    ColineCase,
    ScopeError,
    build_report,
    classify_disconnected_coline,
    counting_clause,
    decide_coline_hamiltonian,
    decide_coline_tough,
    decide_coline_traceable,
    decide_wu_meng,
    emit_catalog,
    is_type_A,
    load_catalog,
    parse_catalog,
    rho,
    validate_catalog,
)
from coline.graph6 import emit_graph6
from coline.graphcore import Graph, build_named, coline
from coline.oracle import canonical_form, is_isomorphic


def test_classify_examples():
    klass = classify_disconnected_coline(build_named("K1_4"))
    assert (klass.case, klass.parameter, klass.component_count, klass.rho) == (
        ColineCase.STAR, 4, 4, 8,
    )
    klass = classify_disconnected_coline(build_named("P4"))
    assert (klass.case, klass.component_count, klass.rho) == (ColineCase.TYPE_A, 2, 5)
    klass = classify_disconnected_coline(build_named("K4_minus"))
    assert (klass.case, klass.component_count, klass.rho) == (ColineCase.K4_MINUS, 3, 8)
    klass = classify_disconnected_coline(build_named("C6"))
    assert klass.case is ColineCase.CONNECTED and klass.rho is None
    klass = classify_disconnected_coline(build_named("C4"))
    assert (klass.case, klass.rho) == (ColineCase.C4, 6)
    klass = classify_disconnected_coline(build_named("K4"))
    assert (klass.case, klass.rho) == (ColineCase.K4, 9)
    klass = classify_disconnected_coline(build_named("F5"))
    assert (klass.case, klass.parameter, klass.rho) == (ColineCase.F, 5, 9)
    # K3 is the k=2 member of the F family
    klass = classify_disconnected_coline(build_named("K3"))
    assert (klass.case, klass.parameter, klass.rho) == (ColineCase.F, 2, 6)


def test_classify_takes_a_thousand_vertices():
    # the F_k test is an isomorphism search with one level per vertex
    klass = classify_disconnected_coline(build_named("F998"))
    assert (klass.case, klass.parameter, klass.rho) == (ColineCase.F, 998, 1002)


def test_classify_book_graph_past_the_name_limit():
    # edge 01 meets every edge 0w and 1w (w = 2..501): 1001 edges, type A;
    # F_1000 would have 1001 vertices, more than a name may build
    edges = [(0, 1)] + [(a, w) for w in range(2, 502) for a in (0, 1)]
    book = Graph.from_edges(502, edges)
    assert book.m == 1001
    klass = classify_disconnected_coline(book)
    assert (klass.case, klass.component_count, klass.rho) == (ColineCase.TYPE_A, 2, 1003)
    assert rho(book) == 1003


def test_classify_star_precedence_over_type_a():
    # K_{1,2} fits both the star family and the type-A definition
    p3 = build_named("P3")
    assert is_type_A(p3)
    klass = classify_disconnected_coline(p3)
    assert (klass.case, klass.parameter, klass.rho) == (ColineCase.STAR, 2, 4)


def test_is_type_a():
    assert is_type_A(build_named("P4"))
    assert not is_type_A(build_named("C4"))
    assert not is_type_A(build_named("K1_3"))


def test_classifier_agrees_with_is_type_a(classes_sweep_range):
    # the classifier decides type A from its own component count, so check
    # it against is_type_A, which builds the coline afresh; the two meet
    # only on K_{1,2}, which the classifier gives to the stars
    disconnected = type_a = 0
    for g in classes_sweep_range:
        klass = classify_disconnected_coline(g)
        if klass.case is ColineCase.CONNECTED:
            continue
        disconnected += 1
        type_a += klass.case is ColineCase.TYPE_A
        star = klass.case is ColineCase.STAR
        assert (klass.case is ColineCase.TYPE_A) == (is_type_A(g) and not star), g
        if star and is_type_A(g):
            assert is_isomorphic(g, build_named("P3")), g
    assert (disconnected, type_a) == (46, 31)


def test_rho():
    assert rho(build_named("C4")) == 6
    assert rho(build_named("F5")) == 9
    assert rho(build_named("C6")) is None


def test_rho_is_a_toughness_obstruction():
    # a supergraph of G' with fewer than rho(G') edges never has a tough
    # coline graph: the added edges form a cutset leaving c(co(G')) parts
    from coline.oracle import is_tough

    for name in ("C4", "K1_3", "F3", "K4_minus", "K4"):
        base = build_named(name)
        bound = rho(base)
        assert bound is not None
        room = bound - 1 - base.m
        if room <= 0:
            continue
        # grow by pendant edges on fresh vertices, staying under the bound
        grown = base
        for extra in range(room):
            grown = Graph.from_edges(grown.n + 1, grown.edges() + ((0, grown.n),))
            assert grown.m < bound
            l, _ = coline(grown)
            assert not is_tough(l).value


def test_classify_strips_isolated_vertices():
    g = build_named("C4")
    padded = Graph(7, g.adj + (0, 0, 0))
    klass = classify_disconnected_coline(padded)
    assert (klass.case, klass.component_count, klass.rho) == (ColineCase.C4, 2, 6)


def test_decide_tough(catalog):
    verdict = decide_coline_tough(build_named("K1_3"), catalog)
    assert (verdict.value, verdict.clause) == (False, "(i)")
    verdict = decide_coline_tough(build_named("C4+K2"), catalog)
    assert (verdict.value, verdict.clause) == (False, "(iii)")
    assert decide_coline_tough(build_named("C4+K2")) == verdict  # no catalog: the packaged one
    assert decide_coline_tough(build_named("K5"), catalog).value
    assert decide_coline_tough(build_named("H1"), catalog).value
    verdict = decide_coline_tough(build_named("C4"), catalog)
    assert (verdict.value, verdict.clause) == (False, "(ii)")


def test_decide_hamiltonian(catalog):
    verdict = decide_coline_hamiltonian(build_named("K5"), catalog)
    assert (verdict.value, verdict.clause) == (False, "K5")
    verdict = decide_coline_hamiltonian(build_named("H3"), catalog)
    assert (verdict.value, verdict.clause) == (False, "H3")
    assert decide_coline_hamiltonian(build_named("H3")) == verdict  # no catalog: the packaged one
    assert decide_coline_hamiltonian(build_named("C6"), catalog).value
    verdict = decide_coline_hamiltonian(build_named("K1_4"), catalog)
    assert not verdict.value and verdict.clause.startswith("not-tough")


def test_decide_wu_meng():
    verdict = decide_wu_meng(build_named("K3+2K2"))
    assert (verdict.value, verdict.clause) == (False, "(iii)")
    verdict = decide_wu_meng(build_named("H2"))
    assert (verdict.value, verdict.clause) == (False, "(iv)")
    verdict = decide_wu_meng(build_named("K5"))
    assert (verdict.value, verdict.clause) == (False, "(v)")
    assert decide_wu_meng(build_named("C6")).value


def test_decide_traceable(catalog):
    verdict = decide_coline_traceable(build_named("K3_circ_K1"), catalog)
    assert (verdict.value, verdict.clause) == (False, "(iv)")
    verdict = decide_coline_traceable(build_named("P3"), catalog)
    assert (verdict.value, verdict.clause) == (False, "(i)")
    assert decide_coline_traceable(build_named("K5"), catalog).value
    verdict = decide_coline_traceable(build_named("C4"), catalog)
    assert (verdict.value, verdict.clause) == (False, "(iii)")
    assert decide_coline_traceable(build_named("C4")) == verdict  # no catalog: the packaged one


def test_scope_errors(catalog):
    with pytest.raises(ScopeError):
        decide_coline_tough(build_named("K2"), catalog)
    with pytest.raises(ScopeError):
        decide_wu_meng(build_named("2K2"))
    with pytest.raises(ScopeError):
        decide_coline_traceable(build_named("K2"), catalog)
    # m = 2 is enough for traceability
    assert not decide_coline_traceable(build_named("P3"), catalog).value
    # the public clause test takes the empty graph, which has no maximum degree
    assert counting_clause(Graph(0, ())) is None


def test_verdicts_ignore_isolated_vertices(catalog):
    g = build_named("K5")
    padded = Graph(7, g.adj + (0, 0))
    assert decide_coline_hamiltonian(padded, catalog) == decide_coline_hamiltonian(g, catalog)
    assert decide_coline_tough(padded, catalog) == decide_coline_tough(g, catalog)
    assert decide_coline_traceable(padded, catalog) == decide_coline_traceable(g, catalog)


def test_verdicts_isomorphism_invariant(catalog, classes_sweep_range):
    rng = random.Random(3)
    for g in rng.sample([g for g in classes_sweep_range if g.m >= 3], 40):
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert decide_coline_tough(g, catalog) == decide_coline_tough(relabeled, catalog)
        assert decide_wu_meng(g) == decide_wu_meng(relabeled)
        assert decide_coline_hamiltonian(g, catalog) == decide_coline_hamiltonian(
            relabeled, catalog
        )
        assert decide_coline_traceable(g, catalog) == decide_coline_traceable(
            relabeled, catalog
        )


def test_report_implications(catalog, classes_sweep_range):
    rng = random.Random(5)
    for g in rng.sample([g for g in classes_sweep_range if g.m >= 3], 30):
        report = build_report(g, catalog)
        if report.hamiltonian.value:
            assert report.tough.value
            assert report.traceable.value
        assert report.hamiltonian.value == report.wu_meng.value


def test_report_decides_toughness_once(catalog, monkeypatch):
    # build_report reads Hamiltonicity off its one toughness verdict, as
    # decide_coline_hamiltonian does off its own; traceability decides the
    # toughness of G + K2
    import coline.characterize as characterize_module

    calls = []
    decide = characterize_module.decide_coline_tough

    def counting(g, catalog=None):
        calls.append(g)
        return decide(g, catalog)

    monkeypatch.setattr(characterize_module, "decide_coline_tough", counting)
    for name in ("K5", "H1", "C6", "C4+K2", "K1_4"):
        g = build_named(name)
        calls.clear()
        hamiltonian = decide_coline_hamiltonian(g, catalog)
        report = build_report(g, catalog)
        assert calls == [g, g, characterize_module.plus_k2(g)], name
        assert report.hamiltonian == hamiltonian
        assert report.tough == decide(g, catalog)


def test_catalog_counts(catalog):
    assert len(catalog.toughness_exceptions) == 18
    assert len(catalog.trace_exceptions) == 9
    # the derived trace9: the forms the v2 catalog file stored, four of
    # them relabelled by component recursion
    assert sorted(canonical_form(g).decode() for g in catalog.trace_exceptions) == (
        "Cl C~ DKk DUk D`K De{ E_Gw E`Gw E`Kw".split()
    )
    assert len({canonical_form(g) for g in catalog.wu_meng_21}) == 21
    member_forms = {canonical_form(g) for g in catalog.toughness_exceptions}
    assert canonical_form(build_named("C4+K2")) in member_forms
    for name in ("K3+P3", "K3+2K2", "K4+K2"):
        assert canonical_form(build_named(name)) in member_forms
    # H1, H2, H3 have tough colines, so they are not toughness exceptions
    for name in ("H1", "H2", "H3"):
        assert canonical_form(build_named(name)) not in member_forms


def test_catalog_round_trip(catalog):
    text = emit_catalog(catalog)
    again = parse_catalog(text)
    validate_catalog(again)
    assert [canonical_form(g) for g in again.toughness_exceptions] == [
        canonical_form(g) for g in catalog.toughness_exceptions
    ]


def test_records_survive_pickling(catalog):
    # the sweep's worker processes send these records back pickled
    k5, claw = build_named("K5"), build_named("K1_3")
    records = [
        catalog,
        classify_disconnected_coline(build_named("K1_4")),
        build_report(k5, catalog),
        build_report(k5, catalog).tough,
        oracle.is_tough(claw),
        oracle.is_tough(claw).witness,
        oracle.is_isomorphic(k5, k5),
        oracle.find_roots(Graph(3, (0, 0, 0))),
        oracle.hamiltonian_cycle(coline(build_named("C6"))[0]),
    ]
    assert None not in records
    for record in records:
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and copy == record and hash(copy) == hash(record)
    assert pickle.loads(pickle.dumps(catalog)).wu_meng_21 == catalog.wu_meng_21


def test_catalog_rejects_corruption(catalog, tmp_path):
    with pytest.raises(CatalogError):
        parse_catalog("nonsense v9\n[tough18]\n")
    with pytest.raises(CatalogError, match="line 2: data before any section"):
        parse_catalog(f"{CATALOG_FORMAT}\nD~{{\n[tough18]\n")
    text = emit_catalog(catalog)
    # drop one toughness exception: cardinality check must fire
    lines = text.splitlines()
    index = lines.index("[tough18]") + 1
    removed = lines[:index] + lines[index + 1 :]
    broken = parse_catalog("\n".join(removed) + "\n")
    with pytest.raises(CatalogError):
        validate_catalog(broken)
    # and a wrong member must fail its defining predicate
    swapped = text.replace(lines[index], "D~{")  # K5 has a tough coline
    with pytest.raises(CatalogError):
        validate_catalog(parse_catalog(swapped))
    # an unreadable file is an I/O error, not a corrupt catalog
    with pytest.raises(FileNotFoundError):
        load_catalog(tmp_path / "missing.txt")


# In place of a name: the last member with its vertices reversed, or the
# first member with an isolated vertex appended.
COPY_OF_LAST = "copy-of-last"
WITH_ISOLATED = "with-isolated"


@pytest.mark.parametrize(
    "section, replacement, message",
    [
        # clause (i) covers K1_3 (m < 2*Delta), clause (ii) 2K2 (m = 2*Delta)
        ("tough18", "K1_3", "tough18 member already covered by a counting clause"),
        ("tough18", "2K2", "tough18 member already covered by a counting clause"),
        # the corona plus K2: with it the derived trace9 would hold the corona
        ("tough18", "H3", "tough18 member G.* has a tough coline"),
        ("tough18", COPY_OF_LAST, "tough18 contains isomorphic duplicates"),
        ("tough18", WITH_ISOLATED, r"tough18 member Els\? has an isolated vertex"),
    ],
)
def test_catalog_rejects_wrong_member(catalog, section, replacement, message):
    lines = emit_catalog(catalog).splitlines()
    first = lines.index(f"[{section}]") + 1
    members = catalog.toughness_exceptions
    if replacement == COPY_OF_LAST:
        g = members[-1]
        copy = Graph.from_edges(g.n, [(g.n - 1 - u, g.n - 1 - v) for u, v in g.edges()])
        assert copy != g  # a relabelling, not the same labelled graph
        lines[first] = emit_graph6(copy)
    elif replacement == WITH_ISOLATED:
        g = members[0]
        lines[first] = emit_graph6(Graph(g.n + 1, g.adj + (0,)))
    else:
        lines[first] = emit_graph6(build_named(replacement))
    with pytest.raises(CatalogError, match=message):
        validate_catalog(parse_catalog("\n".join(lines) + "\n"))


def test_decisions_test_isomorphism_only_at_the_core_size(monkeypatch, catalog):
    # the catalog members and the named roots are bucketed by (n, m) when
    # they are made, so no decision compares graphs of another order or size
    pairs = []
    real = oracle.is_isomorphic
    monkeypatch.setattr(oracle, "is_isomorphic", lambda g, h: pairs.append((g, h)) or real(g, h))
    names = ("K5", "H1", "H2", "H3", "K3+P3", "C4+K2", "K3+2K2", "K4+K2", "C6", "Petersen", "K1_4")
    reports = {name: build_report(build_named(name), catalog) for name in names}
    assert all((g.n, g.m) == (h.n, h.m) for g, h in pairs)
    assert len(pairs) < 40
    assert [reports[name].hamiltonian.clause for name in ("K5", "H1", "H2", "H3")] == [
        "K5", "H1", "H2", "H3",
    ]
    assert reports["K5"].wu_meng.all_matches == ("(v)",)
    assert reports["K3+P3"].wu_meng.clause == "(iii)"
    assert reports["K4+K2"].tough.all_matches == ("(iii)",)


def test_loading_the_catalog_labels_nothing(monkeypatch):
    # validation decides duplicates by isomorphism tests, as every decision
    # decides membership, not by labelling each member canonically
    import coline.characterize as characterize_module

    labellings = []
    real = oracle._canonical_labelling

    def counting(*args):
        labellings.append(None)
        return real(*args)

    monkeypatch.setattr(oracle, "_canonical_labelling", counting)
    characterize_module._packaged_catalog.cache_clear()
    load_catalog()
    assert labellings == []

