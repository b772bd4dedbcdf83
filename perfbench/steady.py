"""Steadiness check: is every end-to-end metric repeatable within its bound?

Usage, from the repository root::

    python3 perfbench/steady.py [--against EARLIER.json] [--out FILE]

Runs every workload once on each of seeds 1-10 (``--trace 0``) and reports,
per metric, the median and the interquartile range over the median.  A
spread above the metric's bound in ``BENCHMARK.json`` is a failure; one
above a third of the bound is reported as above target.  With ``--against``
(a report an earlier run wrote with ``--out``), a median worse than the
earlier one by more than the bound is a failure too.  Then it runs the
traced workload twice on each of seeds 1 and 2 and requires the exact counts
below to repeat exactly between the two runs of one seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
TRACE_SEEDS = (1, 2)
#: Counts that must repeat exactly on each serial workload.  parallel.branches
#: is exempt: the shared incumbent's timing changes how much is pruned.
EXACT = {
    "cold-solve": ("search.branches", "kernel.compiles", "kernel.materializations",
                   "reduction.edges_removed_ratio"),
    "warm-search": ("search.branches", "kernel.compiles", "kernel.materializations",
                    "reduction.edges_removed_ratio"),
    "service-mixed": ("service.cache_hit_ratio",),
}


def run_once(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                               timeout=900, check=False)
    if completed.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["record"] = next((json.loads(line[len("record "):]) for line in lines
                             if line.startswith("record ")), {})
    return result


def spread(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def worse_by(median: float, earlier: float, better: str) -> float:
    """How much worse ``median`` is than ``earlier``, as a share of ``earlier``."""
    change = (median - earlier) / earlier
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", help="report of an earlier run to compare medians with")
    parser.add_argument("--out", help="write the report here")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text())["spread"] if args.against else {}
    names = [w["name"] for w in bench["workloads"]]
    report: dict = {"spread": {}, "exact": {}}
    failures, above_target = [], []
    for workload in names:
        runs = [run_once(workload, seed, bench["run_seconds"], False) for seed in SEEDS]
        failures += [f"{workload} seed {seed}: correct={r['correct']} failed={r['failed']}"
                     for seed, r in zip(SEEDS, runs) if not r["correct"]]
        rows = {}
        for name, metric in metrics.items():
            bound = metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            median, iqr = spread(values)
            rows[name] = {"median": median, "iqr_over_median": iqr, "values": values}
            verdict = "ok"
            if iqr > bound:
                verdict = "TOO NOISY"
                failures.append(f"{workload} {name}: spread {iqr:.3f} > bound {bound:.3f}")
            elif iqr > bound / 3:
                verdict = "above target"
                above_target.append(f"{workload} {name}: spread {iqr:.3f} > bound/3 {bound / 3:.3f}")
            line = (f"{workload:16} {name:14} median {median:12.4f}  spread {iqr:6.3f}"
                    f"  bound {bound:5.2f}  {verdict}")
            if workload in earlier:
                before = earlier[workload][name]["median"]
                worse = worse_by(median, before, metric["better"])
                line += f"  vs earlier {before:.4f} ({worse:+.3f} worse)"
                if worse > bound:
                    failures.append(f"{workload} {name}: median {median:.4f} worse than"
                                    f" earlier {before:.4f} by {worse:.3f} > bound {bound:.3f}")
            print(line, flush=True)
        rows["records"] = [r["record"] for r in runs]
        report["spread"][workload] = rows
    for workload in names:
        for seed in TRACE_SEEDS:
            first, second = (run_once(workload, seed, bench["run_seconds"], True)
                             for _ in range(2))
            for name in EXACT.get(workload, ()):
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                report["exact"][f"{workload}/{seed}/{name}"] = [a, b]
                verdict = "repeats" if a == b else "DIFFERS"
                if a != b:
                    failures.append(f"{workload} seed {seed} {name}: {a} vs {b}")
                print(f"{workload:16} seed {seed} {name:30} {a!r:>14} {b!r:>14}  {verdict}",
                      flush=True)
    report["failures"] = failures
    report["above_target"] = above_target
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for line in above_target:
        print(f"above target {line}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
