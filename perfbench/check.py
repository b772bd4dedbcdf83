"""The benchmark's own answer checker and its store of expected optima.

The checker never calls the code under test: it tests the returned vertex
set against the generated edge set (every pair adjacent), counts attribute
values over the graph's domain, and applies the relative model's rule (each
value at least ``k``, largest minus smallest count at most ``delta``).  The
size must equal the optimum that ``oracle.py`` established once, with a
second solver configuration, and stored in ``expected.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def query_key(k: int, delta: int) -> str:
    return f"k{k}d{delta}"


def check_clique(edges: set, attributes: dict, clique, k: int, delta: int,
                 expected_size: int) -> str | None:
    """``None`` when ``clique`` is a maximum relative fair clique, else why not.

    ``edges`` holds each edge as its ``edge_key``; ``attributes`` maps every
    vertex of the graph to its value.
    """
    members = list(clique)
    if len(set(members)) != len(members):
        return "clique repeats a vertex"
    missing = [v for v in members if v not in attributes]
    if missing:
        return f"unknown vertices {missing[:3]}"
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            if edge_key(u, v) not in edges:
                return f"({u}, {v}) is not an edge"
    counts = {value: 0 for value in set(attributes.values())}
    for v in members:
        counts[attributes[v]] += 1
    if min(counts.values()) < k:
        return f"value counts {counts} below k={k}"
    if max(counts.values()) - min(counts.values()) > delta:
        return f"value counts {counts} differ by more than delta={delta}"
    if len(members) != expected_size:
        return f"size {len(members)}, expected optimum {expected_size}"
    return None


def edge_key(u: int, v: int) -> tuple[int, int]:
    """An edge as an ordered pair: a tuple of ints, which the cyclic GC
    stops tracking, so the checker's edge set adds little to the
    collections the measured program pays for."""
    return (u, v) if u < v else (v, u)


def edge_set(graph) -> set:
    return {edge_key(u, v) for u, v in graph.edges()}


def attribute_map(graph) -> dict:
    return {v: graph.attribute(v) for v in graph.vertices()}
