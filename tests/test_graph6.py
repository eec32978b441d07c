import random
from itertools import combinations

import pytest

from coline.graph6 import (
    Graph6Error,
    emit_graph6,
    parse_edge_list,
    parse_graph6,
)
from coline.graphcore import MAX_INPUT_EDGES, Graph, build_named
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
    with pytest.raises(Graph6Error, match="beyond 258047 vertices") as err:
        parse_graph6("~~??????")
    assert err.value.offset == 1
    with pytest.raises(Graph6Error, match="truncated size header") as err:
        parse_graph6("~??")
    assert err.value.offset == 3


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
    with pytest.raises(ValueError, match="^line 1: bad vertex count 'n=x'$"):
        parse_edge_list("n=x\n0 1\n")
    with pytest.raises(ValueError, match="^line 1: negative vertex count$"):
        parse_edge_list("n=-1\n")
    with pytest.raises(ValueError, match="^line 2: negative vertex index$"):
        parse_edge_list("0 1\n-1 2\n")


def _reference_emit(g: Graph) -> str:
    """graph6 written one upper-triangle bit at a time."""
    n = g.n
    out = bytearray([n + 63] if n <= 62 else [126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    bits = [g.adj[row] >> col & 1 for col in range(1, n) for row in range(col)]
    bits += [0] * (-len(bits) % 6)
    for i in range(0, len(bits), 6):
        out.append(sum(bit << (5 - j) for j, bit in enumerate(bits[i:i + 6])) + 63)
    return out.decode("ascii")


def _reference_parse(code: str) -> Graph:
    """graph6 read one body bit at a time; raises on nonzero padding."""
    data = code.encode("ascii")
    if data[0] == 126:
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        pos = 4
    else:
        n, pos = data[0] - 63, 1
    pairs = [(row, col) for col in range(1, n) for row in range(col)]
    adj = [0] * n
    for offset, byte in enumerate(data[pos:]):
        for j in range(6):
            if (byte - 63) >> (5 - j) & 1:
                index = 6 * offset + j
                if index >= len(pairs):
                    raise Graph6Error("nonzero padding bits", pos + offset)
                row, col = pairs[index]
                adj[row] |= 1 << col
                adj[col] |= 1 << row
    return Graph(n, tuple(adj))


def test_codec_matches_per_bit_reference():
    rng = random.Random(6)
    for n in list(range(13)) + [62, 63, 64, 100, 300]:
        for density in (0.0, 0.02, 0.1, 0.5, 1.0):
            edges = [e for e in combinations(range(n), 2) if rng.random() < density]
            g = Graph.from_edges(n, edges)
            code = emit_graph6(g)
            assert code == _reference_emit(g)
            if g.m > MAX_INPUT_EDGES:
                with pytest.raises(Graph6Error, match=f"{g.m} edges exceed the limit"):
                    parse_graph6(code)
            else:
                assert parse_graph6(code) == _reference_parse(code) == g


def test_parse_matches_per_bit_reference_on_random_bodies():
    rng = random.Random(63)
    for n in list(range(2, 13)) + [62, 63, 64, 100]:
        header = _reference_emit(Graph(n, (0,) * n))
        header = header[: 1 if n <= 62 else 4]
        length = (n * (n - 1) // 2 + 5) // 6
        for _ in range(20):
            # sparse random bodies, so the edge limit stays out of the way
            body = "".join(chr(63 + (rng.getrandbits(6) if rng.random() < 0.2 else 0)) for _ in range(length))
            code = header + body
            try:
                expected = _reference_parse(code)
            except Graph6Error as exc:
                with pytest.raises(Graph6Error) as err:
                    parse_graph6(code)
                assert str(err.value) == str(exc) and err.value.offset == exc.offset
            else:
                assert parse_graph6(code) == expected


def test_nonzero_padding_keeps_its_offset():
    # K4 has 6 triangle bits, so one byte and no padding; K5 has 10 bits,
    # two bytes and 2 padding bits in the last.
    assert parse_graph6("D~{") == build_named("K5")
    for last in ("|", "}", "~"):
        with pytest.raises(Graph6Error) as err:
            parse_graph6("D~" + last)
        assert err.value.offset == 2 and "nonzero padding bits" in str(err.value)
    # 64 vertices give 2016 bits, 336 whole bytes; 65 give 2080 bits and
    # 2 padding bits in the last of 347 bytes
    g = Graph.from_edges(64, [(0, 63)])
    code = emit_graph6(g)
    assert len(code) == 4 + 336 and parse_graph6(code) == g
    code = emit_graph6(Graph(65, (0,) * 65))
    with pytest.raises(Graph6Error) as err:
        parse_graph6(code[:-1] + chr(63 + 1))
    assert err.value.offset == len(code) - 1
