"""Run one benchmark workload and print its metrics as the last stdout line.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold-solve --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the
window untraced and half with every layer boundary wrapped, and prints the
per-layer metrics.  Times are gated in ``cal``, the duration of the host
probe in ``probe.py``; raw seconds and the probe statistics are in the
``record`` line printed before the result.
"""

from __future__ import annotations

import argparse
import atexit
import json
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("cold-solve", "warm-search", "parallel-search", "service-mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any child it has reaped, in MB.

    parallel-search solves in forked pool workers, which are reaped after
    each solve, so the children's peak is theirs; the other in-process
    workloads start no children.
    """
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def stop_resource_tracker() -> None:
    """Stop the resource tracker a shared-memory export started, and wait for it.

    parallel-search ships kernels through shared memory, which starts
    multiprocessing's tracker process; left alone it outlives this process.
    Registered before anything else, so it runs after every other exit hook,
    including the one that unlinks the last segments.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def run_inprocess(args) -> tuple[dict, dict]:
    from perfbench import check, inproc, trace
    from perfbench.probe import SETUP_REPS, Calibration, timed_setups

    workload = inproc.WORKLOADS[args.workload](args.seed, check.load_expected())
    setups = timed_setups(workload.setup, SETUP_REPS if not args.trace else 1)
    calibration = Calibration()
    try:
        if not args.trace:
            result = inproc.measure(workload, args.seconds, calibration)
            figures = inproc.summarize(result)
            metrics = {
                "setup_s": (setups["setup_s"], "s"),
                "solve_p50_cal": (figures["solve_p50_cal"], "cal"),
                "solve_p90_cal": (figures["solve_p90_cal"], "cal"),
                "ops_per_kcal": (figures["ops_per_kcal"], "1/kcal"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
                "ok_ratio": (figures["ok"] / figures["ops"], "ratio"),
            }
            record = {**setups, **figures}
            return metrics, {"record": record, "result": result, "calibration": calibration}
        plain = inproc.measure(workload, args.seconds / 2, calibration)
        tracer = trace.Tracer().install()
        try:
            traced = inproc.measure(workload, args.seconds / 2, calibration,
                                    whole_cycles=True)
        finally:
            tracer.uninstall()
        ops = len(traced["cal"])
        layers = trace.layer_metrics(tracer.spans, ops)
        layers["trace.overhead_ratio"] = (statistics.median(traced["cal"])
                                          / statistics.median(plain["cal"]))
        # The service counts are measured by HTTP clients; in-process there are none.
        layers["service.cache_hit_ratio"] = 0.0
        layers["service.rejected"] = 0
        result = {key: plain[key] + traced[key] for key in plain}
        record = {"traced_ops": ops, "untraced_ops": len(plain["cal"]),
                  "self_s_per_op": trace.self_split(tracer.spans, ops)}
        return ({name: (value, None) for name, value in layers.items()},
                {"record": record, "result": result, "calibration": calibration})
    finally:
        workload.close()


def main(argv=None) -> int:
    args = parse_args(argv)
    atexit.register(stop_resource_tracker)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.trace import PER_LAYER

    if args.workload == "service-mixed":
        from perfbench import service_load
        metrics, detail = service_load.run(args, ROOT)
    else:
        metrics, detail = run_inprocess(args)
    result = detail["result"]
    calibration = detail["calibration"].summary()
    attempted = len(result["cal"])
    failed = len(result["problems"])
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        metrics["host.calib_s"] = (calibration["calib_s"], None)
        metrics["host.calib_spread"] = (calibration["calib_spread"], None)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "host": calibration, **detail["record"]}
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit or PER_LAYER[name]}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
