"""Spans around calls into each layer's public functions, recorded from outside.

:meth:`Tracer.install` replaces a fixed list of functions with wrappers that
record ``(id, parent, name, start, end, attrs)``; the program itself is not
edited.  Spans stay in memory until the run ends.  A span's parent is the
innermost traced call active in the same context (a ``ContextVar``), and the
service's executor is wrapped so a solve running on a worker thread is still
the child of the HTTP handler that awaits it.  A layer's self time is its
spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from collections import defaultdict

#: Reduction stages in pipeline order; their self time makes up ``reduction.s``.
STAGES = ("EnColorfulCore", "ColorfulSup", "EnColorfulSup")

#: Units of the per-layer metrics, in the order ``BENCHMARK.json`` lists
#: them.  Times are self seconds per workload op unless the name says
#: otherwise; counts are per op; ratios are over the traced window.
PER_LAYER = {
    "kernel.compile_s": "s",
    "kernel.compiles": "count",
    "kernel.materializations": "count",
    "reduction.s": "s",
    "reduction.EnColorfulCore_s": "s",
    "reduction.ColorfulSup_s": "s",
    "reduction.EnColorfulSup_s": "s",
    "reduction.edges_removed_ratio": "ratio",
    "heuristic.s": "s",
    "heuristic.seed_ratio": "ratio",
    "search.s": "s",
    "search.branches": "count",
    "search.bound_prune_ratio": "ratio",
    "parallel.s": "s",
    "parallel.plan_s": "s",
    "parallel.ship_s": "s",
    "parallel.shards": "count",
    "parallel.retries": "count",
    "parallel.branches": "count",
    "api.solve_s": "s",
    "api.self_s": "s",
    "api.reduction_hit_ratio": "ratio",
    "incremental.refresh_s": "s",
    "incremental.patch_s": "s",
    "incremental.patched_ratio": "ratio",
    "incremental.reductions_reused_ratio": "ratio",
    "service.solve_hit_s": "s",
    "service.solve_miss_s": "s",
    "service.mutate_s": "s",
    "service.handler_s": "s",
    "service.wire_s": "s",
    "service.cache_hit_ratio": "ratio",
    "service.rejected": "count",
    "durability.wal_append_s": "s",
    "durability.wal_appends": "count",
    "durability.fsyncs": "count",
    "host.calib_s": "s",
    "host.calib_spread": "ratio",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Trace calls to ``owner.attr`` (or ``owner[attr]`` for a dict).

        ``before(args)`` runs ahead of the call and its value reaches
        ``after(args, result, state)``, whose dict becomes the span's attrs;
        both run outside the span's timed interval.
        """
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else inspect.getattr_static(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def traced(*args, **kwargs):
                state = before(args) if before else None
                span_id, parent, token = tracer._enter()
                start = time.perf_counter()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    tracer._current.reset(token)
                tracer.spans.append((span_id, parent, name, start, end,
                                     after(args, result, state) if after else None))
                return result
        else:
            @functools.wraps(original)
            def traced(*args, **kwargs):
                state = before(args) if before else None
                span_id, parent, token = tracer._enter()
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    tracer._current.reset(token)
                tracer.spans.append((span_id, parent, name, start, end,
                                     after(args, result, state) if after else None))
                return result

        if is_dict:
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, is_dict))

    def _enter(self):
        span_id = next(self._ids)
        parent = self._current.get()
        return span_id, parent, self._current.set(span_id)

    def uninstall(self) -> None:
        for owner, attr, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    # The layers
    # ------------------------------------------------------------------ #
    def install(self, *, service: bool = False) -> "Tracer":
        """Wrap every layer boundary the benchmark reports on."""
        import repro.incremental.patch as patch_module
        import repro.kernel.compile as compile_module
        import repro.parallel.executor as parallel_executor
        import repro.parallel.shm as shm_module
        from repro.api.session import FairCliqueSession
        from repro.heuristic.heur_rfc import HeurRFC
        from repro.kernel.search import KernelBranchAndBound
        from repro.parallel.executor import ParallelMaxRFC
        from repro.reduction.pipeline import STAGE_REGISTRY

        self.wrap(FairCliqueSession, "solve", "api.solve",
                  before=_reduction_telemetry, after=_solve_attrs)
        self.wrap(FairCliqueSession, "refresh", "incremental.refresh",
                  after=lambda args, result, state: {"reductions": result.get("reductions") or {}})
        self.wrap(patch_module, "patch_kernel", "incremental.patch")
        self.wrap(compile_module, "compile_kernel", "kernel.compile")
        self.wrap(compile_module.GraphKernel, "materialize", "kernel.materialize")
        for stage in STAGES:
            self.wrap(STAGE_REGISTRY, stage, f"reduction.{stage}", after=_stage_attrs)
        self.wrap(HeurRFC, "solve", "heuristic",
                  after=lambda args, result, state: {"seed": len(result.clique)})
        self.wrap(KernelBranchAndBound, "run", "search")
        self.wrap(ParallelMaxRFC, "_search_components", "parallel",
                  before=lambda args: args[0].parallel.workers,
                  after=lambda args, result, workers: {"workers": workers})
        self.wrap(parallel_executor, "plan_shards", "parallel.plan")
        self.wrap(shm_module, "export_snapshot", "parallel.ship")
        if service:
            self._install_service()
        return self

    def _install_service(self) -> None:
        import repro.service.app as app_module
        from repro.api.report import SolveReport
        from repro.durability.wal import WriteAheadLog
        from repro.service.app import FairCliqueService
        from repro.service.executor import ThreadPoolBackend

        self.wrap(FairCliqueService, "_handle_solve", "service.solve")
        self.wrap(FairCliqueService, "_handle_graph_mutations", "service.mutate")
        self.wrap(FairCliqueService, "_handle_graph_upload", "service.upload")
        for function in ("dumps", "parse_query_request", "parse_mutations_request",
                         "graph_from_wire"):
            self.wrap(app_module, function, f"wire.{function}")
        self.wrap(SolveReport, "to_wire", "wire.report")
        self.wrap(WriteAheadLog, "append", "durability.wal_append")
        self.wrap(WriteAheadLog, "_sync", "durability.fsync")
        # Worker threads do not inherit the submitting task's context; carry
        # it over so a solve stays the child of the handler awaiting it.
        original_submit = ThreadPoolBackend.submit

        def submit(backend, fn, /, *args, **kwargs):
            return original_submit(backend, contextvars.copy_context().run, fn,
                                   *args, **kwargs)

        ThreadPoolBackend.submit = submit
        self._patches.append((ThreadPoolBackend, "submit", original_submit, False))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _reduction_telemetry(args) -> tuple[int, int]:
    telemetry = args[0].context.telemetry
    return telemetry["reduction_hits"], telemetry["reduction_misses"]


def _solve_attrs(args, report, before) -> dict:
    session = args[0]
    stats = report.stats
    telemetry = session.context.telemetry
    attrs = {
        "size": report.size,
        "branches": stats.branches_explored,
        "pruned_by_bound": stats.pruned_by_bound,
        "bound_evaluations": stats.bound_evaluations,
        "reduction_hits": telemetry["reduction_hits"] - before[0],
        "reduction_misses": telemetry["reduction_misses"] - before[1],
    }
    parallel = (report.metadata or {}).get("parallel")
    if parallel:
        attrs["parallel"] = {
            "shards": parallel.get("shards", 0),
            "retries": (parallel.get("shards_retried", 0) + parallel.get("pool_respawns", 0)
                        + parallel.get("serial_fallbacks", 0)
                        + (1 if "fallback" in parallel else 0)),
        }
    return attrs


def _stage_attrs(args, result, state) -> dict:
    return {"edges_before": result.edges_before, "edges_after": result.edges_after}


# ---------------------------------------------------------------------- #
# Aggregation
# ---------------------------------------------------------------------- #
def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the union of its children's intervals."""
    children: dict = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append((span[3], span[4]))
    result = {}
    for span_id, _, _, start, end, _ in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span_id] = (end - start) - covered
    return result


def layer_metrics(spans, ops: int) -> dict[str, float]:
    """Per-layer metrics over ``spans`` recorded while ``ops`` ops ran.

    Times are self seconds per op; counts are per op; ratios are over the
    whole traced window.
    """
    ops = max(ops, 1)
    own = self_times(spans)
    by_id = {span[0]: span for span in spans}
    total_self: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    for span in spans:
        total_self[span[2]] += own[span[0]]
        count[span[2]] += 1

    def ancestor(span, name):
        parent = span[1]
        while parent is not None and parent in by_id:
            if by_id[parent][2] == name:
                return by_id[parent]
            parent = by_id[parent][1]
        return None

    solves = [s for s in spans if s[2] == "api.solve" and s[5]]
    serial = [s for s in solves if "parallel" not in s[5]]
    sharded = [s for s in solves if "parallel" in s[5]]
    hits = sum(s[5]["reduction_hits"] for s in solves)
    misses = sum(s[5]["reduction_misses"] for s in solves)
    evaluations = sum(s[5]["bound_evaluations"] for s in solves)
    stage_spans = [s for s in spans if s[2].startswith("reduction.")]
    edges_in = sum(s[5]["edges_before"] for s in stage_spans if s[2] == f"reduction.{STAGES[0]}")
    edges_removed = sum(s[5]["edges_before"] - s[5]["edges_after"] for s in stage_spans)
    seed_ratios = []
    for span in spans:
        if span[2] == "heuristic":
            solve = ancestor(span, "api.solve")
            if solve is not None and solve[5] and solve[5]["size"]:
                seed_ratios.append(span[5]["seed"] / solve[5]["size"])
    sharded_self = sum(own[s[0]] for s in spans if s[2] == "parallel" and s[5]["workers"] > 1)
    refresh_modes: dict[str, int] = defaultdict(int)
    for span in spans:
        if span[2] == "incremental.refresh":
            for mode, n in span[5]["reductions"].items():
                refresh_modes[mode] += n
    kernel_builds = count["incremental.patch"] + count["kernel.compile"]

    solve_handlers = [s for s in spans if s[2] == "service.solve"]
    miss_ids = {ancestor(s, "service.solve")[0] for s in solves
                if ancestor(s, "service.solve") is not None}
    hit_durations = [s[4] - s[3] for s in solve_handlers if s[0] not in miss_ids]
    miss_durations = [s[4] - s[3] for s in solve_handlers if s[0] in miss_ids]
    mutate_durations = [s[4] - s[3] for s in spans if s[2] == "service.mutate"]
    wal_durations = [s[4] - s[3] for s in spans if s[2] == "durability.wal_append"]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    metrics = {
        "kernel.compile_s": total_self["kernel.compile"] / ops,
        "kernel.compiles": count["kernel.compile"] / ops,
        "kernel.materializations": count["kernel.materialize"] / ops,
        "reduction.s": sum(total_self[f"reduction.{stage}"] for stage in STAGES) / ops,
    }
    for stage in STAGES:
        metrics[f"reduction.{stage}_s"] = total_self[f"reduction.{stage}"] / ops
    metrics.update({
        "reduction.edges_removed_ratio": edges_removed / edges_in if edges_in else 0.0,
        "heuristic.s": total_self["heuristic"] / ops,
        "heuristic.seed_ratio": mean(seed_ratios),
        "search.s": total_self["search"] / ops,
        "search.branches": sum(s[5]["branches"] for s in serial) / ops,
        "search.bound_prune_ratio": (sum(s[5]["pruned_by_bound"] for s in solves) / evaluations
                                     if evaluations else 0.0),
        "parallel.s": sharded_self / ops,
        "parallel.plan_s": total_self["parallel.plan"] / ops,
        "parallel.ship_s": total_self["parallel.ship"] / ops,
        "parallel.shards": sum(s[5]["parallel"]["shards"] for s in sharded) / ops,
        "parallel.retries": sum(s[5]["parallel"]["retries"] for s in sharded) / ops,
        "parallel.branches": sum(s[5]["branches"] for s in sharded) / ops,
        "api.solve_s": sum(s[4] - s[3] for s in spans if s[2] == "api.solve") / ops,
        "api.self_s": total_self["api.solve"] / ops,
        "api.reduction_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "incremental.refresh_s": total_self["incremental.refresh"] / ops,
        "incremental.patch_s": total_self["incremental.patch"] / ops,
        "incremental.patched_ratio": (count["incremental.patch"] / kernel_builds
                                      if kernel_builds else 0.0),
        "incremental.reductions_reused_ratio": (
            refresh_modes["reused"] / sum(refresh_modes.values()) if refresh_modes else 0.0),
        "service.solve_hit_s": mean(hit_durations),
        "service.solve_miss_s": mean(miss_durations),
        "service.mutate_s": mean(mutate_durations),
        "service.handler_s": sum(total_self[name] for name in
                                 ("service.solve", "service.mutate")) / ops,
        "service.wire_s": sum(v for name, v in total_self.items()
                              if name.startswith("wire.")) / ops,
        "durability.wal_append_s": sum(wal_durations) / ops,
        "durability.wal_appends": len(wal_durations) / ops,
        "durability.fsyncs": count["durability.fsync"] / ops,
    })
    return metrics


def self_split(spans, ops: int) -> dict[str, float]:
    """Self seconds per op of every span name, largest first (for run records)."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span[2]] += own[span[0]]
    return dict(sorted(((name, value / max(ops, 1)) for name, value in totals.items()),
                       key=lambda item: -item[1]))
