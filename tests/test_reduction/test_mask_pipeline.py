"""The kernel reduction pipeline compiles once and materialises once.

Each stage hands the next a :class:`~repro.kernel.reduce.SurvivorState`
over the one compiled kernel; only the final survivors become an
``AttributedGraph``.  Intermediate stage graphs are built on first access and
must look exactly like the graph a recompile-per-stage pipeline produced: the
survivors in ``str(id)`` order, their attributes and labels, and the
surviving edges.
"""

from __future__ import annotations

import pytest

import repro.kernel.compile as compile_module
from repro.api import FairCliqueQuery, FairCliqueSession
from repro.graph.generators import community_graph
from repro.kernel.reduce import SurvivorState
from repro.reduction import ReductionResult
from repro.reduction.pipeline import DEFAULT_STAGES, ReductionPipeline


@pytest.fixture
def layer_calls(monkeypatch):
    """Count kernel compiles/materialisations made inside ``ReductionPipeline.run``."""
    calls = {"compile": 0, "materialize": 0}
    inside = []
    original_compile = compile_module.compile_kernel
    original_materialize = compile_module.GraphKernel.materialize
    original_run = ReductionPipeline.run

    def compile_kernel(*args, **kwargs):
        calls["compile"] += bool(inside)
        return original_compile(*args, **kwargs)

    def materialize(*args, **kwargs):
        calls["materialize"] += bool(inside)
        return original_materialize(*args, **kwargs)

    def run(*args, **kwargs):
        inside.append(True)
        try:
            return original_run(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(compile_module, "compile_kernel", compile_kernel)
    monkeypatch.setattr(compile_module.GraphKernel, "materialize", materialize)
    monkeypatch.setattr(ReductionPipeline, "run", run)
    return calls


def _graph():
    return community_graph(6, 30, intra_probability=0.5, inter_edges=3, seed=2)


def test_cold_solve_compiles_and_materialises_once_in_reduction(layer_calls):
    report = FairCliqueSession(_graph()).solve(
        FairCliqueQuery(model="relative", k=2, delta=1)
    )
    assert report.size > 0
    assert layer_calls == {"compile": 1, "materialize": 1}


def _expected_stage_graphs(graph, k):
    """The dict reference pipeline's stage graphs (same survivors by Lemmas 1-4)."""
    return [stage.graph for stage in ReductionPipeline(use_kernel=False).run(graph, k).stages]


@pytest.mark.parametrize("k", [2, 3])
def test_lazy_stage_graphs_match_recompiled_stage_graphs(k):
    graph = _graph()
    result = ReductionPipeline().run(graph, k)
    assert [stage.name for stage in result.stages] == list(DEFAULT_STAGES)
    assert result.stages[-1].graph is result.graph
    assert result.stages[-1].survivors is None  # dropped once materialised
    for stage, expected in zip(result.stages, _expected_stage_graphs(graph, k)):
        if stage is not result.stages[-1]:
            assert isinstance(stage.survivors, SurvivorState)
        lazy = stage.graph
        assert lazy is stage.graph  # built once, then kept
        assert stage.survivors is None
        # A recompiled stage graph lists its survivors in kernel (str) order.
        assert list(lazy.vertices()) == sorted(expected.vertices(), key=str)
        for vertex in lazy.vertices():
            assert lazy.attribute(vertex) == graph.attribute(vertex)
            assert lazy.label(vertex) == graph.label(vertex)
        assert {frozenset(e) for e in lazy.edges()} == {frozenset(e) for e in expected.edges()}
        assert (stage.vertices_after, stage.edges_after) == (
            lazy.num_vertices,
            lazy.num_edges,
        )


def test_intermediate_graphs_materialise_only_on_access(monkeypatch):
    built = []
    original = compile_module.GraphKernel.materialize

    def materialize(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(compile_module.GraphKernel, "materialize", materialize)
    result = ReductionPipeline().run(_graph(), 2)
    assert built == [result.graph]
    first = result.stages[0].graph
    assert result.stages[0].graph is first
    assert result.stages[-1].graph is result.graph
    assert built == [result.graph, first]


def test_result_needs_exactly_one_of_graph_and_survivors():
    graph = _graph()
    state = SurvivorState.of(graph.compile())
    with pytest.raises(ValueError):
        ReductionResult("ColorfulCore", None, 1, 1, 0, 0)
    with pytest.raises(ValueError):
        ReductionResult("ColorfulCore", graph, 1, 1, 0, 0, survivors=state)


def test_results_compare_by_name_counts_and_extra():
    graph = _graph()
    kernel_stages = ReductionPipeline().run(graph, 2).stages
    dict_stages = ReductionPipeline(use_kernel=False).run(graph, 2).stages
    assert kernel_stages == dict_stages
    assert "EnColorfulCore" in repr(kernel_stages[0])
    assert kernel_stages[0] != kernel_stages[1]


def test_restrict_shares_untouched_rows():
    graph = community_graph(3, 10, intra_probability=0.6, inter_edges=0, seed=1)
    state = SurvivorState.of(graph.compile())
    dropped = 0  # only the rows of its neighbours are rewritten
    restricted = state.restrict(state.alive & ~(1 << dropped))
    assert restricted.adj[dropped] == 0
    for index, row in enumerate(state.adj):
        if index != dropped and not (row >> dropped) & 1:
            assert restricted.adj[index] is row
        else:
            assert not (restricted.adj[index] >> dropped) & 1
