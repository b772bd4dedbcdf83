"""The in-process workloads: cold-solve, warm-search and parallel-search.

Each op is one ``FairCliqueSession.solve`` call, timed alone.  A calibration
sample runs after every op, so op ``i`` is divided by the mean of the samples
taken just before and just after it.  Before each op the workload prepares
its input (a graph copy on cold-solve) and a full garbage collection runs:
the collection keeps the cyclic-GC debt left by the previous op from landing
in the next op at a varying point, so it sits outside the timed op, but it
counts in ``ops_per_kcal`` with the rest of the time between samples.  The
answer check runs after the sample, so only the benchmark's own checking and
probing are left out of the run's busy time.
"""

from __future__ import annotations

import gc
import statistics
import time

from perfbench import check, workloads
from perfbench.probe import Calibration
from repro.api import FairCliqueSession


class ColdSolve:
    """A fresh session on a fresh copy of the graph, one query per op."""

    name = "cold-solve"
    cycle = 1

    def __init__(self, seed: int, expected: dict) -> None:
        self.seed = seed
        self.expected = expected["cold-solve"][check.query_key(*workloads.COLD_QUERY)]

    def setup(self, mark) -> None:
        self.graph = workloads.relabel(workloads.cold_base(), self.seed).graph
        self.edges = check.edge_set(self.graph)
        self.attributes = check.attribute_map(self.graph)

    def prepare(self, index: int):
        return self.graph.copy()

    def op(self, index: int, graph):
        k, delta = workloads.COLD_QUERY
        with FairCliqueSession(graph) as session:
            return session.solve(model="relative", k=k, delta=delta)

    def check(self, index: int, report) -> str | None:
        k, delta = workloads.COLD_QUERY
        return check.check_clique(self.edges, self.attributes, report.clique, k, delta,
                                  self.expected)

    def close(self) -> None:
        pass


class WarmSearch:
    """One prepared session answering a seeded cycle of exact queries.

    Warm starts are off, so every pass over the cycle is the same search and
    its branch counts repeat exactly; reductions and kernels are memoized in
    set-up, so an op is the heuristic seed plus branch-and-bound.
    """

    name = "warm-search"
    workers = 1

    def __init__(self, seed: int, expected: dict) -> None:
        self.seed = seed
        self.expected = expected["blobs"]
        self.queries = workloads.search_cycle(seed)
        self.cycle = len(self.queries)
        self.session = None

    def setup(self, mark) -> None:
        self.close()
        self.graph = workloads.relabel(workloads.blobs_base(), self.seed).graph
        self.edges = check.edge_set(self.graph)
        self.attributes = check.attribute_map(self.graph)
        self.session = FairCliqueSession(self.graph, warm_start=False)
        context = self.session.context
        for k in sorted({k for k, _ in self.queries}):
            mark()
            reduction, _, _ = context.reduced(k)
            context.kernel(reduction.graph)

    def prepare(self, index: int):
        return self.queries[index % self.cycle]

    def op(self, index: int, query):
        k, delta = query
        return self.session.solve(model="relative", k=k, delta=delta,
                                  workers=self.workers if self.workers > 1 else None)

    def check(self, index: int, report) -> str | None:
        k, delta = self.queries[index % self.cycle]
        return check.check_clique(self.edges, self.attributes, report.clique, k, delta,
                                  self.expected[check.query_key(k, delta)])

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None


class ParallelSearch(WarmSearch):
    """The warm-search cycle with a two-process search pool per solve."""

    name = "parallel-search"
    workers = 2


WORKLOADS = {cls.name: cls for cls in (ColdSolve, WarmSearch, ParallelSearch)}


def measure(workload, seconds: float, calibration: Calibration, *,
            whole_cycles: bool = False) -> dict:
    """Run ops for ``seconds``; return per-op seconds and cal, busy cal and checks.

    ``busy_cal`` holds, per op, the time from the sample before it to the
    sample after it (input preparation, collection and op) in cal.
    """
    op_seconds: list[float] = []
    op_cal: list[float] = []
    busy_cal: list[float] = []
    problems: list[str] = []
    before = calibration.take()
    started = time.perf_counter()
    index = 0
    while True:
        busy_from = time.perf_counter()
        prepared = workload.prepare(index)
        gc.collect()
        t0 = time.perf_counter()
        try:
            report = workload.op(index, prepared)
        except Exception as error:  # noqa: BLE001 - a failed op is counted, not fatal
            report, problem = None, f"{type(error).__name__}: {error}"
        done = time.perf_counter()
        after = calibration.take()
        if report is not None:
            problem = workload.check(index, report)
        cal = (before + after) / 2
        op_seconds.append(done - t0)
        op_cal.append((done - t0) / cal)
        busy_cal.append((done - busy_from) / cal)
        if problem:
            problems.append(f"op {index}: {problem}")
        before = after
        index += 1
        if time.perf_counter() - started >= seconds and (
                not whole_cycles or index % workload.cycle == 0):
            break
    return {"seconds": op_seconds, "cal": op_cal, "busy_cal": busy_cal,
            "problems": problems}


def summarize(result: dict) -> dict:
    """End-to-end figures of one measured window.

    ``ops_per_kcal`` divides the verified ops by the window's busy time in
    cal: its wall time less the probes and the answer checks, each stretch
    converted by the samples around it.
    """
    cal = result["cal"]
    ok = len(cal) - len(result["problems"])
    return {
        "ops": len(cal),
        "ok": ok,
        "solve_p50_cal": statistics.median(cal),
        "solve_p90_cal": statistics.quantiles(cal, n=10, method="inclusive")[8],
        "ops_per_kcal": 1000 * ok / sum(result["busy_cal"]),
        "solve_p50_s": statistics.median(result["seconds"]),
    }
