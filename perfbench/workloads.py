"""The benchmark's inputs: graphs, query cycles and the service request stream.

Every workload fixes its graph *structure* (generator and generator seed) and
lets ``--seed`` rename it: vertex ids are a seeded sample of integers,
assigned in the base graph's vertex order, so the renamed graph is the base
graph under new labels.  The optimum of every query is then the same for
every seed and ``expected.json`` holds it once per (workload, query).  The
seed also orders the warm query cycle and drives the service request stream.

Keeping the vertex order keeps the work nearly the same from seed to seed.
A seeded shuffle of the insertion order changed the warm-search branch count
by up to 7% between seeds (725k vs 774k per query), which would hide the
host-calibrated spread the benchmark is gated on; with the order kept the
counts differ by under 0.5%.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.graph import AttributedGraph, community_graph, erdos_renyi_graph, quasi_clique_blobs

#: (k, delta) cycle of the warm and parallel workloads: all four answers come
#: out of the same blobs, so every op costs about the same.
SEARCH_QUERIES = ((2, 1), (2, 2), (3, 1), (3, 2))
COLD_QUERY = (2, 1)
SERVICE_GRAPHS = 4
#: The two queries each served graph is asked; client ``c`` owns graphs
#: ``2c`` and ``2c+1``, so each client asks all four (k, delta).
SERVICE_QUERIES = (((2, 1), (3, 1)), ((2, 2), (3, 2)))
#: Each served graph has this many toggles.  A toggle removes
#: ``TOGGLE_EDGES`` edges and adds as many non-edges inside one community;
#: the graph's next mutation reverts it, so a graph is only ever in its base
#: state or in one toggled state (1 + TOGGLES states).
TOGGLES = 3
TOGGLE_EDGES = 3
#: Solves per graph per block of a client's stream (plus one mutation).
BLOCK_SOLVES = 6


def cold_base() -> AttributedGraph:
    """ROADMAP profile cell ``community-dense``: n=2000, m=35,118."""
    return community_graph(20, 100, intra_probability=0.35, inter_edges=4, seed=8)


def blobs_base() -> AttributedGraph:
    """ER(1000, 0.004) background plus 8 blobs of 100 at p=0.65 (n=1800)."""
    background = erdos_renyi_graph(1000, 0.004, seed=2)
    return quasi_clique_blobs(background, num_blobs=8, blob_size=100,
                              edge_probability=0.65, seed=3)


def service_base(index: int) -> AttributedGraph:
    """One served graph: 8 communities of 60 (n=480)."""
    return community_graph(8, 60, intra_probability=0.4, inter_edges=3, seed=100 + index)


def toggle_batches(base: AttributedGraph, index: int) -> list[tuple[list, list]]:
    """The fixed ``(removed edges, added edges)`` of each toggle of a served graph.

    Toggle ``t`` works inside community ``t`` (vertex ids ``60t .. 60t+59``
    in the base labelling), a small local change of the kind incremental
    refresh is built for.  Mixing additions with removals keeps the result
    cache from promoting old answers, so the next solve of the graph always
    pays ``refresh``.
    """
    rng = random.Random(1000 + index)
    batches = []
    for t in range(TOGGLES):
        members = range(60 * t, 60 * (t + 1))
        pairs = [(u, v) for u in members for v in members if u < v]
        present = [pair for pair in pairs if base.has_edge(*pair)]
        absent = [pair for pair in pairs if not base.has_edge(*pair)]
        batches.append((rng.sample(present, TOGGLE_EDGES), rng.sample(absent, TOGGLE_EDGES)))
    return batches


def toggled(base: AttributedGraph, batch: tuple[list, list]) -> AttributedGraph:
    """``base`` with one toggle applied."""
    graph = base.copy()
    removed, added = batch
    for u, v in removed:
        graph.remove_edge(u, v)
    for u, v in added:
        graph.add_edge(u, v)
    return graph


@dataclass
class Relabelled:
    """A renamed copy of a base graph and the map from base ids to new ids."""

    graph: AttributedGraph
    mapping: dict

    def edges(self, edges) -> list[tuple]:
        return [(self.mapping[u], self.mapping[v]) for u, v in edges]


def relabel(base: AttributedGraph, seed: int) -> Relabelled:
    """Copy ``base`` with seeded vertex ids, keeping its vertex and edge order."""
    rng = random.Random(seed)
    vertices = sorted(base.vertices())
    ids = sorted(rng.sample(range(10 * len(vertices)), len(vertices)))
    mapping = dict(zip(vertices, ids))
    graph = AttributedGraph()
    for vertex in base.vertices():
        graph.add_vertex(mapping[vertex], base.attribute(vertex))
    for u, v in base.edges():
        graph.add_edge(mapping[u], mapping[v])
    return Relabelled(graph, mapping)


def search_cycle(seed: int) -> list[tuple[int, int]]:
    """The warm/parallel query cycle in a seeded order."""
    queries = list(SEARCH_QUERIES)
    random.Random(seed).shuffle(queries)
    return queries


@dataclass
class Request:
    """One step of a service client's stream."""

    graph: int
    kind: str  # "solve" | "toggle" | "revert"
    query: tuple[int, int] | None = None
    toggle: int | None = None
    #: Graph state the answer is checked against: None = base, t = toggle t applied.
    state: int | None = None


def client_stream(seed: int, client: int):
    """Endless seeded request stream of one client.

    The stream is a run of blocks.  In a block each of the client's two
    graphs gets six solves and one mutation (one request in seven), which
    applies a toggle or reverts the previous one.  The first solve after a
    mutation pays ``refresh`` and a re-solve, the first solve of the graph's
    other query after it is a plain miss, and every other solve hits the
    result cache.  Where the mutation falls and how the two graphs' requests
    interleave come from the seed alone, not the client, so both clients'
    streams have the same shape: in every round both send a hit, both a
    miss, or both a mutation, and a hit never waits behind the other
    client's solve.  That keeps the median a cache hit and the 90th
    percentile a refresh, far from the edges of either mode.
    """
    shape = random.Random(seed)
    owned = (2 * client, 2 * client + 1)
    applied: dict[int, int | None] = {graph: None for graph in owned}
    while True:
        sequences = []
        for slot, graph in enumerate(owned):
            queries = SERVICE_QUERIES[slot]
            at = shape.randrange(1, BLOCK_SOLVES - 1)
            before = [shape.choice(queries) for _ in range(at)]
            first = shape.sample(queries, 2)
            after = first + [shape.choice(queries) for _ in range(BLOCK_SOLVES - at - 2)]
            toggle = applied[graph]
            if toggle is None:
                toggle = shape.randrange(TOGGLES)
                mutation = Request(graph, "toggle", toggle=toggle, state=toggle)
                state_after = toggle
            else:
                mutation = Request(graph, "revert", toggle=toggle, state=None)
                state_after = None
            sequence = [Request(graph, "solve", query=q, state=applied[graph]) for q in before]
            sequence.append(mutation)
            sequence += [Request(graph, "solve", query=q, state=state_after) for q in after]
            applied[graph] = state_after
            sequences.append(sequence)
        picks = [0] * len(sequences[0]) + [1] * len(sequences[1])
        shape.shuffle(picks)
        cursors = [0, 0]
        for pick in picks:
            yield sequences[pick][cursors[pick]]
            cursors[pick] += 1
