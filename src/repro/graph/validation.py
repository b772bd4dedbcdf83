"""Validation helpers for graphs and search parameters.

These checks centralise the preconditions shared by the reduction, bounding,
and search layers: the graph must carry exactly two attribute values, and the
fairness parameters ``k`` and ``delta`` must be sensible integers.
"""

from __future__ import annotations

from repro.exceptions import AttributeCountError, InvalidParameterError
from repro.graph.attributed_graph import AttributedGraph


def validate_parameters(k: int, delta: int) -> None:
    """Validate the fairness parameters of the relative fair clique model.

    ``k`` must be at least 1 (each attribute needs at least one vertex for the
    model to be meaningful; the paper uses k >= 2) and ``delta`` must be
    non-negative.
    """
    if not isinstance(k, int) or isinstance(k, bool):
        raise InvalidParameterError(f"k must be an int, got {type(k).__name__}")
    if not isinstance(delta, int) or isinstance(delta, bool):
        raise InvalidParameterError(f"delta must be an int, got {type(delta).__name__}")
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if delta < 0:
        raise InvalidParameterError(f"delta must be >= 0, got {delta}")


def validate_binary_attributes(graph: AttributedGraph) -> tuple[str, str]:
    """Check the graph carries exactly two attribute values and return them.

    An empty graph or a graph whose vertices all share one attribute cannot
    contain any relative fair clique for k >= 1, but rather than silently
    returning an empty answer the caller usually wants to know the input was
    malformed; hence the explicit error.
    """
    return validate_binary_values(graph.attribute_values())


def validate_binary_values(values: tuple[str, ...]) -> tuple[str, str]:
    """:func:`validate_binary_attributes` for an already-known value tuple."""
    if len(values) != 2:
        raise AttributeCountError(
            "the relative fair clique model requires exactly two attribute values; "
            f"graph has {len(values)}: {values!r}"
        )
    return values[0], values[1]


def graph_supports_fair_clique(graph: AttributedGraph, k: int, delta: int) -> bool:
    """Cheap feasibility pre-check: can *any* fair clique possibly exist?

    Returns False when the graph has fewer than ``k`` vertices of either
    attribute or fewer than ``2k`` vertices overall.  This is a necessary
    (never sufficient) condition used to short-circuit hopeless searches.
    """
    validate_parameters(k, delta)
    values = graph.attribute_values()
    if len(values) < 2:
        return False
    histogram = graph.attribute_histogram()
    if graph.num_vertices < 2 * k:
        return False
    return all(histogram.get(value, 0) >= k for value in values[:2])
