"""Vertex-level graph reductions: ColorfulCore (Lemma 1) and EnColorfulCore (Lemma 2).

These are the pre-existing reductions the paper builds on.  Both remove
*vertices* whose color/attribute structure makes it impossible for them to sit
inside a relative fair clique with parameter ``k``:

* ``ColorfulCore``    — keep the colorful ``(k-1)``-core (Definition 3, Lemma 1);
  defined over any attribute domain (the multi-attribute weak model uses it
  as its only reduction stage — every member of a weak fair clique has, for
  every value, at least ``k-1`` distinct colors among its neighbours of that
  value);
* ``EnColorfulCore``  — keep the enhanced colorful ``(k-1)``-core
  (Definitions 4-5, Lemma 2), which is never larger because it refuses to
  count one color for both attributes; binary domains only.

Both return a :class:`ReductionResult` describing what survived, so the
experiment harness can report remaining-vertex/edge curves (Figs. 4-5).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.coloring.greedy import Coloring, greedy_coloring
from repro.cores.colorful import colorful_k_core
from repro.cores.enhanced import enhanced_colorful_k_core
from repro.graph.attributed_graph import AttributedGraph, Vertex
from repro.graph.validation import validate_binary_values, validate_parameters

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.kernel.reduce import SurvivorState


class ReductionResult:
    """Outcome of one reduction stage.

    Attributes
    ----------
    name:
        Human-readable stage name (``"EnColorfulCore"``, ``"ColorfulSup"``…).
    graph:
        The reduced graph (an independent copy; the input graph is untouched).
        A kernel stage builds it from ``survivors`` on first access: the
        pipeline materialises only its final stage's graph.
    vertices_before / vertices_after:
        Vertex counts on entry and exit.
    edges_before / edges_after:
        Edge counts on entry and exit.
    survivors:
        The :class:`~repro.kernel.reduce.SurvivorState` a kernel stage left,
        which the next pipeline stage starts from; ``None`` on the dict path
        and once ``graph`` has been built from it.

    Exactly one of ``graph`` and ``survivors`` is given.  Two results are
    equal when their names, counts and ``extra`` are.
    """

    def __init__(
        self,
        name: str,
        graph: AttributedGraph | None,
        vertices_before: int,
        vertices_after: int,
        edges_before: int,
        edges_after: int,
        extra: dict | None = None,
        *,
        survivors: "SurvivorState | None" = None,
    ) -> None:
        if (graph is None) == (survivors is None):
            raise ValueError("ReductionResult needs exactly one of graph and survivors")
        self.name = name
        self._graph = graph
        self.vertices_before = vertices_before
        self.vertices_after = vertices_after
        self.edges_before = edges_before
        self.edges_after = edges_after
        self.extra = {} if extra is None else extra
        self.survivors = survivors

    @property
    def graph(self) -> AttributedGraph:
        """The reduced graph, materialised from ``survivors`` on first access."""
        if self._graph is None:
            self._graph = self.survivors.materialize()
            self.survivors = None
        return self._graph

    def _key(self) -> tuple:
        return (
            self.name,
            self.vertices_before,
            self.vertices_after,
            self.edges_before,
            self.edges_after,
            self.extra,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReductionResult):
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None  # results are mutable

    def __repr__(self) -> str:
        return (
            f"ReductionResult(name={self.name!r}, "
            f"vertices_before={self.vertices_before}, vertices_after={self.vertices_after}, "
            f"edges_before={self.edges_before}, edges_after={self.edges_after}, "
            f"extra={self.extra!r})"
        )

    @property
    def vertices_removed(self) -> int:
        """Number of vertices deleted by this stage."""
        return self.vertices_before - self.vertices_after

    @property
    def edges_removed(self) -> int:
        """Number of edges deleted by this stage."""
        return self.edges_before - self.edges_after

    @property
    def vertex_retention(self) -> float:
        """Fraction of vertices kept (1.0 when the input was already empty)."""
        if self.vertices_before == 0:
            return 1.0
        return self.vertices_after / self.vertices_before

    @property
    def edge_retention(self) -> float:
        """Fraction of edges kept (1.0 when the input had no edges)."""
        if self.edges_before == 0:
            return 1.0
        return self.edges_after / self.edges_before

    def summary(self) -> str:
        """One-line human-readable summary used by reports and the CLI."""
        return (
            f"{self.name}: |V| {self.vertices_before} -> {self.vertices_after}, "
            f"|E| {self.edges_before} -> {self.edges_after}"
        )


#: Stage name of each kernel stage, keyed by ``(support, enhanced)``.
_KERNEL_STAGE_NAMES = {
    (False, False): "ColorfulCore",
    (False, True): "EnColorfulCore",
    (True, False): "ColorfulSup",
    (True, True): "EnColorfulSup",
}


def kernel_reduction(
    source: "AttributedGraph | SurvivorState",
    k: int,
    coloring: Coloring | None,
    *,
    support: bool,
    enhanced: bool,
) -> ReductionResult:
    """Run one reduction stage on the compiled kernel (shared by all four stages).

    ``source`` is a graph (compiled, or its memoized kernel reused) or the
    survivor state of the previous stage.  The survivors are recolored with
    the greedy coloring of their own surviving adjacency unless ``coloring``
    is given, so each stage sees the colors a recompiled stage graph would.
    The enhanced and support stages are binary-only: they raise
    :class:`~repro.exceptions.AttributeCountError` when the survivors do not
    carry exactly two attribute values.
    """
    from repro.kernel.coloring import coloring_to_array, greedy_color_array
    from repro.kernel.reduce import SurvivorState

    if isinstance(source, SurvivorState):
        state = source
    else:
        state = SurvivorState.of(source.compile())
    if support or enhanced:
        validate_binary_values(state.values())
    if coloring is None:
        colors = greedy_color_array(state.kernel, state.alive, state.adj)
    else:
        colors = coloring_to_array(state.kernel, coloring)
    extra: dict = {}
    if support:
        survivors, extra["edges_peeled"] = state.peel_support(k, colors, enhanced)
    else:
        survivors = state.peel_core(k - 1, colors, enhanced)
    return ReductionResult(
        name=_KERNEL_STAGE_NAMES[support, enhanced],
        graph=None,
        vertices_before=state.num_vertices,
        vertices_after=survivors.num_vertices,
        edges_before=state.num_edges,
        edges_after=survivors.num_edges,
        extra=extra,
        survivors=survivors,
    )


def colorful_core_reduction(
    graph: AttributedGraph,
    k: int,
    coloring: Coloring | None = None,
    *,
    use_kernel: bool = True,
) -> ReductionResult:
    """Apply the ColorfulCore reduction: keep the colorful ``(k-1)``-core (Lemma 1).

    Runs on the compiled bitset kernel by default (``graph`` may then also
    be a previous kernel stage's survivor state); ``use_kernel=False``
    forces the dict-based reference peel (identical survivors).
    """
    validate_parameters(k, 0)
    if use_kernel:
        return kernel_reduction(graph, k, coloring, support=False, enhanced=False)
    if coloring is None:
        coloring = greedy_coloring(graph)
    survivors = colorful_k_core(graph, k - 1, coloring)
    reduced = graph.subgraph(survivors)
    return ReductionResult(
        name="ColorfulCore",
        graph=reduced,
        vertices_before=graph.num_vertices,
        vertices_after=reduced.num_vertices,
        edges_before=graph.num_edges,
        edges_after=reduced.num_edges,
    )


def enhanced_colorful_core_reduction(
    graph: AttributedGraph,
    k: int,
    coloring: Coloring | None = None,
    *,
    use_kernel: bool = True,
) -> ReductionResult:
    """Apply the EnColorfulCore reduction: keep the enhanced colorful ``(k-1)``-core (Lemma 2).

    Runs on the compiled bitset kernel by default (``graph`` may then also
    be a previous kernel stage's survivor state); ``use_kernel=False``
    forces the dict-based reference peel (identical survivors).
    """
    validate_parameters(k, 0)
    if use_kernel:
        return kernel_reduction(graph, k, coloring, support=False, enhanced=True)
    if coloring is None:
        coloring = greedy_coloring(graph)
    survivors = enhanced_colorful_k_core(graph, k - 1, coloring)
    reduced = graph.subgraph(survivors)
    return ReductionResult(
        name="EnColorfulCore",
        graph=reduced,
        vertices_before=graph.num_vertices,
        vertices_after=reduced.num_vertices,
        edges_before=graph.num_edges,
        edges_after=reduced.num_edges,
    )


def drop_isolated_vertices(graph: AttributedGraph) -> ReductionResult:
    """Remove vertices with no incident edges (house-keeping stage after edge peels)."""
    survivors: list[Vertex] = [v for v in graph.vertices() if graph.degree(v) > 0]
    reduced = graph.subgraph(survivors)
    return ReductionResult(
        name="DropIsolated",
        graph=reduced,
        vertices_before=graph.num_vertices,
        vertices_after=reduced.num_vertices,
        edges_before=graph.num_edges,
        edges_after=reduced.num_edges,
    )
