import pytest

from coline.graph6 import (
    Graph6Error,
    emit_graph6,
    parse_edge_list,
    parse_graph6,
)
from coline.graphcore import Graph, build_named
from coline.oracle import is_isomorphic


def test_known_encoding():
    assert emit_graph6(build_named("K5")) == "D~{"
    assert parse_graph6("D~{") == build_named("K5")


def test_round_trip_bytes(classes_up_to_6):
    for g in classes_up_to_6:
        code = emit_graph6(g)
        assert emit_graph6(parse_graph6(code)) == code
        assert parse_graph6(code) == g


def test_round_trip_edge_cases():
    for g in (Graph(0, ()), Graph(1, (0,)), Graph(2, (0, 0)), Graph(2, (2, 1))):
        assert parse_graph6(emit_graph6(g)) == g


def test_large_header():
    g = Graph(63, tuple(0 for _ in range(63))).with_edge(0, 62)
    code = emit_graph6(g)
    assert code.startswith("~")
    assert parse_graph6(code) == g


def test_coline_k5_code_is_petersen():
    code = emit_graph6(build_named("K5"))
    from coline.graphcore import coline

    cg, _ = coline(parse_graph6(code))
    assert is_isomorphic(cg, build_named("Petersen"))


def test_parse_errors_carry_offsets():
    with pytest.raises(Graph6Error) as err:
        parse_graph6("")
    assert err.value.offset == 0
    with pytest.raises(Graph6Error) as err:
        parse_graph6("D~{X")  # trailing garbage
    assert err.value.offset == 3
    with pytest.raises(Graph6Error) as err:
        parse_graph6("D~")  # truncated
    assert err.value.offset == 2
    with pytest.raises(Graph6Error) as err:
        parse_graph6("D\x1f{{")  # byte below 63
    assert err.value.offset == 1


def test_edge_list_round_trip(classes_up_to_6):
    h2 = "n=7\n0 1\n0 2\n0 3\n1 2\n1 4\n2 5\n3 6\n"
    assert parse_edge_list(h2) == build_named("H2")
    for g in classes_up_to_6:
        text = f"n={g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
        assert parse_edge_list(text) == g


def test_edge_list_format():
    text = "# comment\nn=5\n0 1\n1 2\n"
    g = parse_edge_list(text)
    assert g.n == 5 and g.m == 2
    with pytest.raises(ValueError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(ValueError):
        parse_edge_list("n=2\n0 5\n")
    with pytest.raises(ValueError):
        parse_edge_list("a b\n")
