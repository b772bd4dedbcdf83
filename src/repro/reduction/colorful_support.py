"""ColorfulSup — the colorful-support-based edge reduction (Algorithm 1, Lemma 3).

The *colorful support* of an edge ``(u, v)`` for attribute ``a_i`` is the
number of distinct colors among the common neighbours of ``u`` and ``v`` whose
attribute is ``a_i`` (Definition 6).  Any edge inside a relative fair clique of
parameter ``k`` must satisfy, depending on its endpoint attributes:

==========================  =====================  =====================
endpoints                   required ``sup_a``      required ``sup_b``
==========================  =====================  =====================
both attribute ``a``        ``k - 2``              ``k``
both attribute ``b``        ``k``                  ``k - 2``
one of each                 ``k - 1``              ``k - 1``
==========================  =====================  =====================

``colorful_support_reduction`` peels edges that violate these thresholds in a
truss-decomposition style: removing an edge destroys the triangles through it,
which lowers the colorful support of the other two triangle edges, which may
trigger further removals, and so on to a fixed point.  The remaining graph is
the maximal subgraph of Lemma 3 and therefore still contains every relative
fair clique of the input.
"""

from __future__ import annotations

from collections import deque

from repro.coloring.greedy import Coloring, greedy_coloring
from repro.graph.attributed_graph import AttributedGraph, Vertex
from repro.graph.validation import validate_binary_attributes, validate_parameters
from repro.reduction.core_reduction import ReductionResult, kernel_reduction

EdgeKey = tuple[Vertex, Vertex]


def edge_key(u: Vertex, v: Vertex) -> EdgeKey:
    """Return a canonical (order-independent) dictionary key for edge ``(u, v)``."""
    return (u, v) if str(u) <= str(v) else (v, u)


def support_thresholds(
    attribute_u: str,
    attribute_v: str,
    attribute_a: str,
    k: int,
) -> tuple[int, int]:
    """Return the ``(required sup_a, required sup_b)`` thresholds of Lemma 3.

    Negative thresholds (possible for ``k < 2``) are clamped to zero since a
    support count can never be negative and the condition is then vacuous.
    """
    if attribute_u == attribute_v:
        if attribute_u == attribute_a:
            need_a, need_b = k - 2, k
        else:
            need_a, need_b = k, k - 2
    else:
        need_a, need_b = k - 1, k - 1
    return max(need_a, 0), max(need_b, 0)


def colorful_supports(
    graph: AttributedGraph,
    coloring: Coloring | None = None,
) -> dict[EdgeKey, dict[str, int]]:
    """Compute ``sup_a`` and ``sup_b`` for every edge of ``graph`` (Definition 6).

    Mainly a diagnostic / testing helper; the peeling routine below maintains
    the same quantities incrementally.
    """
    attribute_a, attribute_b = validate_binary_attributes(graph)
    if coloring is None:
        coloring = greedy_coloring(graph)
    supports: dict[EdgeKey, dict[str, int]] = {}
    for u, v in graph.edges():
        colors: dict[str, set[int]] = {attribute_a: set(), attribute_b: set()}
        for w in graph.common_neighbors(u, v):
            colors[graph.attribute(w)].add(coloring[w])
        supports[edge_key(u, v)] = {
            attribute_a: len(colors[attribute_a]),
            attribute_b: len(colors[attribute_b]),
        }
    return supports


def colorful_support_reduction(
    graph: AttributedGraph,
    k: int,
    coloring: Coloring | None = None,
    *,
    use_kernel: bool = True,
) -> ReductionResult:
    """Run the ColorfulSup edge-peeling reduction (Algorithm 1).

    Returns a :class:`ReductionResult` whose graph is the maximal subgraph of
    Lemma 3 with isolated vertices dropped.  The input graph is not modified.

    By default the peel runs on the compiled bitset kernel (same survivors —
    the Lemma 3 subgraph is unique — at a fraction of the cost), and
    ``graph`` may also be the survivor state of a previous kernel stage
    (see :func:`~repro.reduction.core_reduction.kernel_reduction`);
    ``use_kernel=False`` forces the original dict-based peel, kept for
    parity testing and as a reference implementation.
    """
    validate_parameters(k, 0)
    if use_kernel:
        return kernel_reduction(graph, k, coloring, support=True, enhanced=False)
    attribute_a, attribute_b = validate_binary_attributes(graph)
    working = graph.copy()
    if coloring is None:
        coloring = greedy_coloring(graph)

    # M[(u,v)][(attribute, color)] -> number of common neighbours of u and v
    # with that attribute and color;  sup[(u,v)][attribute] -> distinct colors.
    tracker: dict[EdgeKey, dict[tuple[str, int], int]] = {}
    support: dict[EdgeKey, dict[str, int]] = {}
    for u, v in working.edges():
        key = edge_key(u, v)
        counts: dict[tuple[str, int], int] = {}
        sup = {attribute_a: 0, attribute_b: 0}
        for w in working.common_neighbors(u, v):
            slot = (working.attribute(w), coloring[w])
            if slot not in counts:
                sup[slot[0]] += 1
            counts[slot] = counts.get(slot, 0) + 1
        tracker[key] = counts
        support[key] = sup

    def violates(u: Vertex, v: Vertex) -> bool:
        need_a, need_b = support_thresholds(
            working.attribute(u), working.attribute(v), attribute_a, k
        )
        sup = support[edge_key(u, v)]
        return sup[attribute_a] < need_a or sup[attribute_b] < need_b

    queue: deque[EdgeKey] = deque()
    condemned: set[EdgeKey] = set()
    for u, v in working.edges():
        if violates(u, v):
            key = edge_key(u, v)
            queue.append(key)
            condemned.add(key)

    while queue:
        u, v = queue.popleft()
        if not working.has_edge(u, v):
            continue
        # Snapshot the surviving triangles through (u, v) before deleting it.
        common = working.common_neighbors(u, v)
        working.remove_edge(u, v)
        for w in common:
            for x, y, lost in ((u, w, v), (v, w, u)):
                key = edge_key(x, y)
                if key in condemned or not working.has_edge(x, y):
                    continue
                slot = (working.attribute(lost), coloring[lost])
                counts = tracker[key]
                remaining = counts.get(slot, 0) - 1
                if remaining <= 0:
                    counts.pop(slot, None)
                    support[key][slot[0]] -= 1
                    if violates(x, y):
                        queue.append(key)
                        condemned.add(key)
                else:
                    counts[slot] = remaining

    survivors = [vertex for vertex in working.vertices() if working.degree(vertex) > 0]
    reduced = working.subgraph(survivors)
    return ReductionResult(
        name="ColorfulSup",
        graph=reduced,
        vertices_before=graph.num_vertices,
        vertices_after=reduced.num_vertices,
        edges_before=graph.num_edges,
        edges_after=reduced.num_edges,
        extra={"edges_peeled": graph.num_edges - working.num_edges},
    )

