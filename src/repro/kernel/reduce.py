"""Mask-native reduction stages on the compiled kernel.

The reduction pipeline compiles its input once.  Every stage then works on a
:class:`SurvivorState` — the one kernel, a vertex mask, and per-vertex
adjacency ints — and hands the next stage a new state instead of a
materialised :class:`~repro.graph.attributed_graph.AttributedGraph`.

The two support peels (Algorithm 1 / Lemma 3 and Lemma 4) keep no per-edge
color histograms.  Each ``(side, color)`` class of the stage's coloring is
one vertex mask, so an edge's colorful support is read by ANDing its common
neighbourhood ``adj[u] & adj[v]`` with the class masks, stopping as soon as
the edge's demand is met.  When a peel destroys a triangle, one AND tells
whether the lost vertex's class is still present among the other edge's
common neighbours; only if it is gone can that edge's support have dropped,
and only then is the edge re-tested.

Every peel reaches the unique maximal subgraph of its lemma (the survival
conditions are monotone in the edge/vertex set), so the survivors equal the
dict reference implementations' — asserted by the parity suites.
"""

from __future__ import annotations

from repro.kernel.bitops import bits_list, mask_above
from repro.kernel.compile import GraphKernel
from repro.kernel.cores import colorful_k_core_mask, enhanced_colorful_k_core_mask


class SurvivorState:
    """The survivors of one compiled ``kernel`` after some reduction stages.

    ``alive`` is the vertex mask; ``adj[i]`` holds the surviving neighbours of
    vertex ``i`` (always a subset of ``alive``; ``0`` for a dead vertex).
    Rows a stage leaves unchanged are the same int objects as its input's,
    so a state costs only the rows its stage rewrote.

    A state is never modified after construction; peels return new states.
    """

    __slots__ = ("kernel", "alive", "adj")

    def __init__(self, kernel: GraphKernel, alive: int, adj: list[int]) -> None:
        self.kernel = kernel
        self.alive = alive
        self.adj = adj

    @classmethod
    def of(cls, kernel: GraphKernel) -> "SurvivorState":
        """The state holding every vertex and edge of ``kernel``."""
        return cls(kernel, kernel.full_mask, list(kernel.adj_bits))

    @property
    def num_vertices(self) -> int:
        """Number of surviving vertices."""
        return self.alive.bit_count()

    @property
    def num_edges(self) -> int:
        """Number of surviving edges."""
        return count_edges(self.adj)

    def values(self) -> tuple[str, ...]:
        """Attribute values carried by at least one survivor (sorted).

        These are the ``attribute_values()`` of the materialised survivor
        graph.  A non-empty state always carries the kernel's whole domain
        (a core stage keeps a vertex only beside neighbours of every value,
        or keeps everything when ``k = 1``; every edge a support stage keeps
        has both values among its endpoints and common neighbours), so
        attribute code 0 stays ``attribute_a`` from stage to stage.
        """
        alive = self.alive
        kernel = self.kernel
        return tuple(
            kernel.attribute_values[code]
            for code, mask in enumerate(kernel.attr_masks)
            if mask & alive
        )

    def restrict(self, alive: int) -> "SurvivorState":
        """The state keeping only the vertices of ``alive`` (a subset of ours)."""
        removed = self.alive & ~alive
        if not removed:
            return self
        adj = list(self.adj)
        touched = 0
        for index in bits_list(removed):
            touched |= adj[index]
            adj[index] = 0
        keep = ~removed
        for index in bits_list(touched & alive):
            adj[index] &= keep
        return SurvivorState(self.kernel, alive, adj)

    def peel_core(self, k: int, colors: list[int], enhanced: bool) -> "SurvivorState":
        """Keep the (enhanced) colorful ``k``-core of the survivors (Lemmas 1-2)."""
        peel = enhanced_colorful_k_core_mask if enhanced else colorful_k_core_mask
        return self.restrict(peel(self.kernel, k, colors, self.alive, adjacency=self.adj))

    def peel_support(
        self, k: int, colors: list[int], enhanced: bool
    ) -> tuple["SurvivorState", int]:
        """Run a support peel; return ``(new state, edges peeled)``.

        Vertices left without an edge are dropped, as the stage graph does.
        """
        adj = list(self.adj)
        peeled = _support_peel(self.kernel, adj, self.alive, k, colors, enhanced)
        return SurvivorState(self.kernel, survivors_mask(adj), adj), peeled

    def materialize(self):
        """The survivors as an :class:`AttributedGraph` (original ids)."""
        return self.kernel.materialize(self.alive, self.adj)


def _support_peel(
    kernel: GraphKernel,
    adj: list[int],
    alive: int,
    k: int,
    colors: list[int],
    enhanced: bool,
) -> int:
    """Peel ``adj`` in place to the Lemma 3 (or Lemma 4) subgraph; return edges peeled.

    Attribute code 0 is side ``a``, code 1 side ``b``.  An edge's demands
    ``(need_a, need_b)`` are those of Lemma 3: ``k-2``/``k`` for two
    side-``a`` endpoints, ``k``/``k-2`` for two side-``b`` endpoints,
    ``k-1``/``k-1`` otherwise, clamped at 0.  ColorfulSup needs ``need_a``
    color classes present on side ``a`` and ``need_b`` on side ``b``;
    EnColorfulSup also needs ``need_a + need_b`` distinct colors in all,
    which is exactly when the Definition 7 greedy assignment of mixed colors
    meets both demands.
    """
    is_a = [code == 0 for code in kernel.attr_codes]
    # One (side-a mask, side-b mask, union) per color class of the survivors.
    side_masks: dict[int, list[int]] = {}
    for index in bits_list(alive):
        masks = side_masks.get(colors[index])
        if masks is None:
            masks = side_masks[colors[index]] = [0, 0]
        masks[0 if is_a[index] else 1] |= 1 << index
    classes = [(a, b, a | b) for _, (a, b) in sorted(side_masks.items())]
    class_of = [0] * kernel.n
    for index in bits_list(alive):
        masks = side_masks[colors[index]]
        class_of[index] = masks[0] if is_a[index] else masks[1]

    # demands[is_a[u] + is_a[v]] = (need_a, need_b, need_total)
    def demand(need_a: int, need_b: int) -> tuple[int, int, int]:
        need_a, need_b = max(need_a, 0), max(need_b, 0)
        return need_a, need_b, need_a + need_b if enhanced else 0

    demands = (demand(k, k - 2), demand(k - 1, k - 1), demand(k - 2, k))

    def supported(u: int, v: int, common: int) -> bool:
        need_a, need_b, need_total = demands[is_a[u] + is_a[v]]
        if need_a <= 0 and need_b <= 0 and need_total <= 0:
            return True
        for mask_a, mask_b, mask_any in classes:
            if common & mask_any:
                need_total -= 1
                if need_a > 0 and common & mask_a:
                    need_a -= 1
                if need_b > 0 and common & mask_b:
                    need_b -= 1
                if need_a <= 0 and need_b <= 0 and need_total <= 0:
                    return True
        return False

    # Initial scan; failing edges go at once (the fixed point is unique, so
    # removal order does not matter) and their triangles are re-checked below.
    removed: list[tuple[int, int, int]] = []
    for u in bits_list(alive):
        for v in bits_list(adj[u] & mask_above(u)):
            common = adj[u] & adj[v]
            if not supported(u, v, common):
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
                removed.append((u, v, common))

    peeled = 0
    while removed:
        u, v, common = removed.pop()
        peeled += 1
        for w in bits_list(common):
            for x, lost in ((u, v), (v, u)):
                # The triangle (x, w, lost) is gone; edge (x, w) lost ``lost``.
                if not (adj[x] >> w) & 1:
                    continue
                shared = adj[x] & adj[w]
                if shared & class_of[lost] or supported(x, w, shared):
                    continue
                adj[x] ^= 1 << w
                adj[w] ^= 1 << x
                removed.append((x, w, shared))
    return peeled


def colorful_support_peel(
    kernel: GraphKernel,
    k: int,
    colors: list[int],
) -> tuple[list[int], int]:
    """Run the ColorfulSup edge peel; return ``(surviving adjacency, edges peeled)``.

    The returned adjacency is a per-vertex bitset list over kernel indices;
    vertices isolated by the peel simply end up with an empty mask.
    """
    adj = list(kernel.adj_bits)
    peeled = _support_peel(kernel, adj, kernel.full_mask, k, colors, False)
    return adj, peeled


def enhanced_support_peel(
    kernel: GraphKernel,
    k: int,
    colors: list[int],
) -> tuple[list[int], int]:
    """Run the EnColorfulSup edge peel; return ``(surviving adjacency, edges peeled)``."""
    adj = list(kernel.adj_bits)
    peeled = _support_peel(kernel, adj, kernel.full_mask, k, colors, True)
    return adj, peeled


def survivors_mask(adj: list[int]) -> int:
    """Bitset of vertices that still have at least one incident edge."""
    mask = 0
    for index, neighbors in enumerate(adj):
        if neighbors:
            mask |= 1 << index
    return mask


def count_edges(adj: list[int], mask: int | None = None) -> int:
    """Number of undirected edges in a bitset adjacency (restricted to ``mask``)."""
    total = 0
    if mask is None:
        for neighbors in adj:
            total += neighbors.bit_count()
        return total // 2
    for index in bits_list(mask):
        total += (adj[index] & mask).bit_count()
    return total // 2
