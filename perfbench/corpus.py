"""Benchmark inputs and their expected verdicts.

The classify workloads hand the program graph6 strings only.  The
symmetric corpus and its expectations are read from
``corpus_symmetric.json`` (written by ``make_corpus.py``); the sparse inputs
are drawn here from the benchmark seed, and their expectations follow from
the counting clauses, so no call into the program is needed to know them.
This module imports nothing from the program.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
SYMMETRIC_CORPUS = os.path.join(HERE, "corpus_symmetric.json")
EXPECTED_CERTIFY = os.path.join(HERE, "expected_certify.json")

# One draw per size, so the seed moves the edges but not the amount of work.
SPARSE_SIZES = tuple(range(60, 301, 6))
SPARSE_EDGE_FACTOR = 3

# Every catalogued exception and named graph has at most this many edges, so
# beyond it the counting clauses alone decide all four properties.
CATALOG_MAX_EDGES = 10

VERDICTS = ("tough", "hamiltonian", "wu_meng", "traceable")


def encode_graph6(n: int, edges) -> str:
    """graph6 for n <= 258047 vertices, upper triangle column by column."""
    present = {(min(u, v), max(u, v)) for u, v in edges}
    header = [n + 63] if n <= 62 else [126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    out = bytearray(header)
    acc = filled = 0
    for col in range(1, n):
        for row in range(col):
            acc = acc << 1 | ((row, col) in present)
            filled += 1
            if filled == 6:
                out.append(acc + 63)
                acc = filled = 0
    if filled:
        out.append((acc << (6 - filled)) + 63)
    return out.decode("ascii")


def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    data = text.strip().encode("ascii")
    if data[0] == 126:
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n, body = data[0] - 63, data[1:]
    bits = [(byte - 63) >> shift & 1 for byte in body for shift in range(5, -1, -1)]
    edges = []
    index = 0
    for col in range(1, n):
        for row in range(col):
            if bits[index]:
                edges.append((row, col))
            index += 1
    return n, edges


def invariants(n: int, edges) -> list:
    """Isomorphism invariants [n, m, sorted degrees], stable under relabelling."""
    degrees = [0] * n
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    return [n, len(edges), sorted(degrees)]


def counting_expectation(n: int, edges) -> dict:
    """Verdicts for a graph with more edges than any catalogued graph.

    Toughness and both Hamiltonicity criteria fail exactly when m < 2*Delta,
    or m = 2*Delta with two adjacent vertices of maximum degree;
    traceability likewise with 2*Delta - 1.  A coline with m > 2*Delta lies
    outside all six disconnected families, so it is connected.
    """
    m = len(edges)
    if m <= CATALOG_MAX_EDGES:
        raise ValueError("counting clauses decide only graphs beyond the catalog")
    degrees = [0] * n
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    delta = max(degrees)
    adjacent_max = any(degrees[u] == delta == degrees[v] for u, v in edges)
    tough = not (m < 2 * delta or (m == 2 * delta and adjacent_max))
    traceable = not (m < 2 * delta - 1 or (m == 2 * delta - 1 and adjacent_max))
    return {
        "verdicts": {"tough": tough, "hamiltonian": tough, "wu_meng": tough, "traceable": traceable},
        "coline_components": 1 if m > 2 * delta else None,
    }


def sparse_graph(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """G(n, m) with m = 3n: distinct uniform pairs, kept as drawn."""
    edges: set[tuple[int, int]] = set()
    while len(edges) < SPARSE_EDGE_FACTOR * n:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def sparse_inputs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    entries = []
    for n in SPARSE_SIZES:
        edges = sparse_graph(rng, n)
        entry = {"name": f"G({n},{len(edges)})", "graph6": encode_graph6(n, edges)}
        entry["invariants"] = invariants(n, edges)
        entry.update(counting_expectation(n, edges))
        entries.append(entry)
    return entries


def symmetric_inputs(seed: int) -> list[dict]:
    """The fixed symmetric corpus, in an order drawn from the seed."""
    with open(SYMMETRIC_CORPUS, encoding="ascii") as handle:
        entries = json.load(handle)["inputs"]
    random.Random(seed).shuffle(entries)
    return entries


def load_expected_certify(max_vertices: int, max_edges: int) -> dict:
    with open(EXPECTED_CERTIFY, encoding="ascii") as handle:
        table = json.load(handle)
    key = f"{max_vertices}x{max_edges}"
    if key not in table:
        raise ValueError(f"no recorded certify expectations for range {key}")
    return table[key]
