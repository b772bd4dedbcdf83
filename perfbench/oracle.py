"""Establish the expected optima in ``expected.json`` (run once, not per run).

Usage, from the repository root::

    python3 perfbench/oracle.py

The optima come from a second solver configuration, not the one the
benchmark times: the dict-based reduction and search path
(``use_kernel=False``, one worker) on the unrelabelled base graphs.  Because
``--seed`` only relabels a workload's graphs, one optimum per (workload,
graph state, query) serves every seed.  Each clique the oracle returns must
also pass the benchmark's own checker.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import check, workloads  # noqa: E402
from repro.api import solve  # noqa: E402


def optimum(graph, k: int, delta: int) -> int:
    report = solve(graph, model="relative", k=k, delta=delta,
                   options={"use_kernel": False})
    problem = check.check_clique(check.edge_set(graph), check.attribute_map(graph),
                                 report.clique, k, delta, report.size)
    if problem or not report.optimal:
        raise SystemExit(f"oracle answer failed the checker: {problem}")
    return report.size


def main() -> int:
    expected: dict = {"configuration": "dict path (use_kernel=False), workers=1"}
    cold = workloads.cold_base()
    expected["cold-solve"] = {check.query_key(*workloads.COLD_QUERY):
                              optimum(cold, *workloads.COLD_QUERY)}
    blobs = workloads.blobs_base()
    expected["blobs"] = {check.query_key(k, d): optimum(blobs, k, d)
                         for k, d in workloads.SEARCH_QUERIES}
    service: dict = {}
    for index in range(workloads.SERVICE_GRAPHS):
        base = workloads.service_base(index)
        states = {"base": base}
        for toggle, batch in enumerate(workloads.toggle_batches(base, index)):
            states[str(toggle)] = workloads.toggled(base, batch)
        queries = workloads.SERVICE_QUERIES[index % 2]
        service[str(index)] = {
            state: {check.query_key(k, d): optimum(graph, k, d) for k, d in queries}
            for state, graph in states.items()
        }
        print(f"service graph {index}: {service[str(index)]}", flush=True)
    expected["service-mixed"] = service
    with open(check.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(json.dumps(expected, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
