"""The paper's reduction lemmas as executable properties on small graphs.

Two independent oracles check the mask-native kernel pipeline:

* the dict reference pipeline (``use_kernel=False``) — stage by stage, the
  kernel path must keep exactly the same vertices and edges;
* brute-force clique enumeration — every relative fair clique of parameter
  ``k`` (a clique with at least ``k`` vertices of each attribute, fair for
  ``delta`` = its count gap) must survive the whole pipeline with all of its
  vertices and edges (Lemmas 2-4).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import AttributeCountError
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.builders import complete_graph
from repro.graph.generators import erdos_renyi_graph
from repro.reduction.pipeline import DEFAULT_STAGES, STAGE_REGISTRY, ReductionPipeline

MAX_N = 12


@st.composite
def small_graphs(draw) -> AttributedGraph:
    """A binary-attributed graph on at most ``MAX_N`` vertices."""
    n = draw(st.integers(min_value=2, max_value=MAX_N))
    density = draw(st.sampled_from([0.3, 0.6, 0.9]))
    attributes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    coins = draw(
        st.lists(st.floats(0, 1), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    )
    graph = AttributedGraph()
    for vertex in range(n):
        graph.add_vertex(vertex, "a" if attributes[vertex] else "b")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for (u, v), coin in zip(pairs, coins):
        if coin < density:
            graph.add_edge(u, v)
    return graph


def _shape(graph: AttributedGraph) -> tuple:
    vertices = frozenset((v, graph.attribute(v)) for v in graph.vertices())
    edges = frozenset(frozenset(edge) for edge in graph.edges())
    return vertices, edges


def _run(graph: AttributedGraph, k: int, stages, use_kernel: bool):
    """Per-stage ``(name, shape, counts)`` — or the exception type raised."""
    try:
        result = ReductionPipeline(stages, use_kernel=use_kernel).run(graph, k)
    except AttributeCountError as error:
        return type(error)
    return [
        (
            stage.name,
            _shape(stage.graph),
            stage.vertices_before,
            stage.vertices_after,
            stage.edges_before,
            stage.edges_after,
            stage.extra,
        )
        for stage in result.stages
    ], _shape(result.graph)


def _assert_parity(graph: AttributedGraph, k: int, stages=DEFAULT_STAGES):
    kernel = _run(graph, k, stages, use_kernel=True)
    reference = _run(graph, k, stages, use_kernel=False)
    assert kernel == reference
    return kernel


def _fair_cliques(graph: AttributedGraph, k: int) -> list[frozenset]:
    """Every clique with at least ``k`` vertices of each of ``a`` and ``b``.

    Plain recursive enumeration of all cliques over sets — independent of
    the kernel, the colorings and every reduction under test.
    """
    order = sorted(graph.vertices())
    neighbors = {v: set(graph.neighbors(v)) for v in order}
    found: list[frozenset] = []

    def extend(clique: list, candidates: list) -> None:
        counts = [graph.attribute(v) for v in clique]
        if counts.count("a") >= k and counts.count("b") >= k:
            found.append(frozenset(clique))
        for position, vertex in enumerate(candidates):
            extend(
                clique + [vertex],
                [w for w in candidates[position + 1:] if w in neighbors[vertex]],
            )

    extend([], order)
    return found


def _assert_fair_cliques_survive(graph: AttributedGraph, k: int, stages=DEFAULT_STAGES):
    cliques = _fair_cliques(graph, k)
    try:
        reduced = ReductionPipeline(stages).run(graph, k).graph
    except AttributeCountError:
        # Only a one-valued input gets here (a stage never strips a value
        # from a binary graph), and it has no fair clique.
        assert not cliques
        return
    for clique in cliques:
        members = sorted(clique)
        assert all(reduced.has_vertex(v) for v in members), (k, members)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                assert reduced.has_edge(u, v), (k, members, (u, v))


stage_orders = st.one_of(
    st.just(DEFAULT_STAGES),
    st.lists(st.sampled_from(sorted(STAGE_REGISTRY)), min_size=1, max_size=4),
)


class TestMaskPipelineMatchesDictReference:
    @given(graph=small_graphs(), k=st.integers(1, 4), stages=stage_orders)
    @settings(max_examples=120, deadline=None)
    def test_stage_survivors_equal(self, graph, k, stages):
        _assert_parity(graph, k, tuple(stages))

    def test_k1_thresholds_clamp_to_zero(self):
        # k=1: the core stages keep everything (a colorful 0-core), a mixed
        # edge demands (0, 0) and a same-attribute edge one color of the
        # other side (its k-2 demand clamps to 0).
        graph = complete_graph({i: "ab"[i % 2] for i in range(6)})
        graph.add_vertex("lone", "a")
        graph.add_vertex("pa", "a")
        graph.add_vertex("pb", "b")
        graph.add_vertex("qa", "a")
        graph.add_edge("pa", "pb")  # mixed pendant edge: kept
        graph.add_edge("pa", "qa")  # a-a edge without a b neighbour: peeled
        stages, final = _assert_parity(graph, 1)
        core, support, enhanced = stages
        assert core[3] == graph.num_vertices  # the isolated vertex too
        assert support[6] == {"edges_peeled": 1}
        assert enhanced[6] == {"edges_peeled": 0}
        vertices, edges = final
        assert {v for v, _ in vertices} == set(range(6)) | {"pa", "pb"}
        assert frozenset(("pa", "pb")) in edges
        assert len(edges) == 15 + 1

    def test_stage_that_empties_the_graph_stops_the_pipeline(self):
        path = AttributedGraph()
        for vertex in range(8):
            path.add_vertex(vertex, "ab"[vertex % 2])
        for vertex in range(7):
            path.add_edge(vertex, vertex + 1)
        stages, final = _assert_parity(path, 3)
        assert [stage[0] for stage in stages] == ["EnColorfulCore"]
        assert stages[0][3] == 0
        assert final == (frozenset(), frozenset())

    def test_heavy_peel(self):
        graph = erdos_renyi_graph(MAX_N, 0.75, seed=4)
        for k in (3, 4):
            stages, _ = _assert_parity(graph, k, ("ColorfulSup", "EnColorfulSup"))
            peeled = sum(stage[6]["edges_peeled"] for stage in stages)
            assert peeled >= graph.num_edges // 4, (k, peeled)

    def test_non_binary_domain_raises_at_binary_stage_entry(self):
        # ColorfulCore accepts any domain; the binary-only stage after it
        # must refuse the three-valued survivors, as the dict path does.
        graph = complete_graph({i: "abc"[i % 3] for i in range(6)})
        stages = ("ColorfulCore", "ColorfulSup")
        assert _assert_parity(graph, 2, stages) is AttributeCountError


class TestFairCliquesSurvive:
    @given(graph=small_graphs(), k=st.integers(1, 4), stages=stage_orders)
    @settings(max_examples=120, deadline=None)
    def test_every_fair_clique_survives(self, graph, k, stages):
        _assert_fair_cliques_survive(graph, k, tuple(stages))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_balanced_clique_survives_untouched(self, k):
        graph = complete_graph({i: "ab"[i % 2] for i in range(2 * k)})
        reduced = ReductionPipeline().run(graph, k).graph
        assert _shape(reduced) == _shape(graph)
