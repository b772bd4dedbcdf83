"""The service-mixed workload: two HTTP clients against ``repro serve``.

The server runs as a subprocess with its write-ahead log under the checkout
(``.perfbench_run/``), so graph mutations pay a real WAL append.  Each client
owns two of the four graphs and follows its own seeded stream of solves and
mutation batches (``workloads.client_stream``), so which solves hit the
result cache and where the writes fall is fixed by the seed.  The clients
send in rounds (see :class:`Load`), and the host probe runs after every
eighth round, so it never competes with a request; a request's latency in
``cal`` is its seconds over the mean of the samples taken before and after
its group of rounds.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from perfbench import check, trace, workloads
from perfbench.probe import SETUP_REPS, Calibration, timed_setups
from repro.api import FairCliqueQuery
from repro.service.client import ServiceClient, ServiceError

PROBE_EVERY_ROUNDS = 8
#: Solves per client over which ``service.cache_hit_ratio`` is counted: a
#: fixed prefix of a seeded stream, so the ratio repeats exactly per seed.
HIT_PREFIX = 30
BOOT_TIMEOUT_S = 60
STOP_TIMEOUT_S = 30


class Fleet:
    """The relabelled graphs of one seed and their per-state checker data."""

    def __init__(self, seed: int, expected: dict) -> None:
        self.expected = expected["service-mixed"]
        self.graphs = []
        self.batches = []
        self.edge_sets = []
        self.attributes = []
        for index in range(workloads.SERVICE_GRAPHS):
            base = workloads.service_base(index)
            relabelled = workloads.relabel(base, seed * 31 + index)
            batches = [(relabelled.edges(removed), relabelled.edges(added))
                       for removed, added in workloads.toggle_batches(base, index)]
            edges = check.edge_set(relabelled.graph)
            states = {None: edges}
            for toggle, (removed, added) in enumerate(batches):
                states[toggle] = ((edges - {check.edge_key(*edge) for edge in removed})
                                  | {check.edge_key(*edge) for edge in added})
            self.graphs.append(relabelled.graph)
            self.batches.append(batches)
            self.edge_sets.append(states)
            self.attributes.append(check.attribute_map(relabelled.graph))

    def mutation_ops(self, request) -> list[tuple]:
        """Wire ops of a toggle (remove, then add) or of its revert."""
        removed, added = self.batches[request.graph][request.toggle]
        if request.kind == "toggle":
            return ([("remove_edge", u, v) for u, v in removed]
                    + [("add_edge", u, v) for u, v in added])
        return ([("remove_edge", u, v) for u, v in added]
                + [("add_edge", u, v) for u, v in removed])

    def check_solve(self, request, envelope) -> str | None:
        k, delta = request.query
        state = "base" if request.state is None else str(request.state)
        expected = self.expected[str(request.graph)][state][check.query_key(k, delta)]
        return check.check_clique(self.edge_sets[request.graph][request.state],
                                  self.attributes[request.graph],
                                  envelope["report"]["clique"], k, delta, expected)


class Server:
    """A ``repro serve`` subprocess on a free port, optionally traced."""

    def __init__(self, root: Path, run_dir: Path, *, spans: Path | None = None) -> None:
        self.run_dir = run_dir
        run_dir.mkdir(parents=True, exist_ok=True)
        serve_args = ["serve", "--port", "0", "--data-dir", str(run_dir / "data")]
        if spans is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [sys.executable, str(root / "perfbench" / "serve_traced.py"),
                       "--spans", str(spans), *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.log_path = run_dir / "server.log"
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(command, stdout=self._log, stderr=subprocess.STDOUT,
                                        stdin=subprocess.DEVNULL, env=env)
        self.address = self._wait_for_address()

    def _wait_for_address(self) -> str:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            for line in self.log_path.read_text(errors="replace").splitlines():
                if "listening on " in line:
                    return line.split("listening on ", 1)[1].split()[0]
            if self.process.poll() is not None:
                break
            time.sleep(0.02)
        log = self.log_path.read_text(errors="replace")
        self.stop()
        raise RuntimeError(f"server did not start: {log}")

    def stop(self) -> None:
        """SIGINT (graceful drain), wait, SIGKILL if it hangs; remove its files."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
        shutil.rmtree(self.run_dir, ignore_errors=True)


def boot(root: Path, fleet: Fleet, run_dir: Path, spans: Path | None = None,
         mark=lambda: None) -> Server:
    """Start a server, upload the graphs and answer every base query once.

    ``mark()`` is called between steps (see ``probe.timed_setups``).
    """
    server = Server(root, run_dir, spans=spans)
    try:
        mark()
        client = ServiceClient(server.address, retries=0)
        for index, graph in enumerate(fleet.graphs):
            client.upload_graph(f"g{index}", graph)
        for index in range(len(fleet.graphs)):
            for k, delta in workloads.SERVICE_QUERIES[index % 2]:
                mark()
                client.solve_raw(f"g{index}", FairCliqueQuery(model="relative", k=k, delta=delta))
    except BaseException:
        server.stop()
        raise
    return server


class Load:
    """Two closed-loop clients sending their requests in rounds.

    In each round both clients send their next request at once and the
    round ends when both have answered, so which request of one client
    overlaps which of the other is fixed by the seed.  Every
    ``PROBE_EVERY_ROUNDS`` rounds the host probe runs with nothing in flight.
    """

    def __init__(self, address: str, fleet: Fleet, seed: int) -> None:
        self.fleet = fleet
        self.clients = [ServiceClient(address, retries=0) for _ in range(2)]
        self.streams = [workloads.client_stream(seed, i) for i in range(2)]
        self.started = 0.0
        #: Per client, one (kind, seconds, problem, cached, status, group)
        #: per request.
        self.outcomes: list[list[tuple]] = [[], []]
        self.groups: list[tuple[float, float]] = []

    def request(self, index: int) -> tuple:
        client = self.clients[index]
        request = next(self.streams[index])
        graph_id = f"g{request.graph}"
        cached, status = False, 200
        started = time.perf_counter()
        try:
            if request.kind == "solve":
                k, delta = request.query
                envelope = client.solve_raw(
                    graph_id, FairCliqueQuery(model="relative", k=k, delta=delta))
                elapsed = time.perf_counter() - started
                cached = bool(envelope.get("cached"))
                problem = self.fleet.check_solve(request, envelope)
            else:
                ops = self.fleet.mutation_ops(request)
                reply = client.mutate_graph(graph_id, ops)
                elapsed = time.perf_counter() - started
                problem = (None if reply.get("applied") == len(ops)
                           else f"mutation applied {reply.get('applied')} of {len(ops)}")
        except (ServiceError, OSError, ValueError, KeyError, TypeError) as error:
            elapsed = time.perf_counter() - started
            status = getattr(error, "status", None)
            problem = f"{type(error).__name__}: {error}"
        return request.kind, elapsed, problem, cached, status

    def run(self, seconds: float, calibration: Calibration) -> None:
        """Drive both clients for ``seconds``, probing between groups of rounds.

        ``self.groups`` gets one ``(serving seconds, cal)`` per group of
        ``PROBE_EVERY_ROUNDS`` rounds, ``cal`` being the mean of the samples
        just before and after the group; each outcome records its group.
        """
        before = calibration.take()
        self.started = time.perf_counter()
        rounds = 0
        group_started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=2) as pool:
            while True:
                futures = [pool.submit(self.request, i) for i in range(2)]
                for outcomes, future in zip(self.outcomes, futures):
                    outcomes.append(future.result() + (len(self.groups),))
                rounds += 1
                done = time.perf_counter() - self.started >= seconds
                if rounds % PROBE_EVERY_ROUNDS == 0 or done:
                    serving = time.perf_counter() - group_started
                    after = calibration.take()
                    self.groups.append((serving, (before + after) / 2))
                    before = after
                    group_started = time.perf_counter()
                if done:
                    return


def measure(fleet: Fleet, seed: int, calibration: Calibration, seconds: float,
            server: Server) -> Load:
    """One measured window against a booted server, which is stopped after it."""
    try:
        load = Load(server.address, fleet, seed)
        load.run(seconds, calibration)
    finally:
        server.stop()
    return load


def summarize(load: Load) -> dict:
    """Figures of one window.

    Each request is divided by the cal of its group of rounds.  The
    percentiles are over solve requests, the metric being solve latency;
    mutations count in ``ops_per_kcal`` and ``ok_ratio``, and their median
    is in the record.
    """
    requests = [o for client in load.outcomes for o in client]
    problems = [f"{o[0]} request: {o[2]}" for o in requests if o[2]]
    ok = len(requests) - len(problems)
    solves = [o for o in requests if o[0] == "solve"]
    solve_cal = [o[1] / load.groups[o[5]][1] for o in solves]
    mutations = [o[1] for o in requests if o[0] != "solve"]
    serving_cal = sum(seconds / cal for seconds, cal in load.groups)
    return {
        "ops": len(requests),
        "ok": ok,
        "solves": len(solves),
        "cached": sum(1 for o in solves if o[3]),
        "mutations": len(mutations),
        "beyond_p90": len(solve_cal) - int(0.9 * len(solve_cal)) - 1,
        "solve_p50_cal": statistics.median(solve_cal),
        "solve_p90_cal": statistics.quantiles(solve_cal, n=10, method="inclusive")[8],
        "ops_per_kcal": 1000 * ok / serving_cal,
        "solve_p50_s": statistics.median(o[1] for o in solves),
        "mutation_p50_s": statistics.median(mutations) if mutations else None,
        "serving_s": sum(seconds for seconds, _ in load.groups),
        "problems": problems,
        "cal": [o[1] / load.groups[o[5]][1] for o in requests],
    }


def run(args, root: Path) -> tuple[dict, dict]:
    fleet = Fleet(args.seed, check.load_expected())
    calibration = Calibration()
    run_base = root / ".perfbench_run" / str(os.getpid())
    if not args.trace:
        servers = []
        setups = timed_setups(
            lambda mark: servers.append(
                boot(root, fleet, run_base / f"setup{len(servers)}", mark=mark)),
            SETUP_REPS, between=lambda: servers[-1].stop())
        load = measure(fleet, args.seed, calibration, args.seconds, servers[-1])
        # The server is the only child process, so the children's peak RSS is its own.
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        figures = summarize(load)
        metrics = {
            "setup_s": (setups["setup_s"], "s"),
            "solve_p50_cal": (figures["solve_p50_cal"], "cal"),
            "solve_p90_cal": (figures["solve_p90_cal"], "cal"),
            "ops_per_kcal": (figures["ops_per_kcal"], "1/kcal"),
            "peak_rss_mb": (rss, "MB"),
            "ok_ratio": (figures["ok"] / figures["ops"], "ratio"),
        }
        record = {**setups,
                  **{k: v for k, v in figures.items() if k not in ("problems", "cal")}}
        shutil.rmtree(run_base, ignore_errors=True)
        return metrics, {"record": record, "calibration": calibration,
                         "result": {"cal": figures["cal"], "problems": figures["problems"]}}

    plain_load = measure(fleet, args.seed, calibration, args.seconds / 2,
                         boot(root, fleet, run_base / "plain"))
    spans_path = run_base / "spans.json"
    traced_load = measure(
        fleet, args.seed, calibration, args.seconds / 2,
        boot(root, fleet, run_base / "traced", spans=spans_path))
    with open(spans_path, encoding="utf-8") as handle:
        spans = [tuple(span) for span in json.load(handle) if span[3] >= traced_load.started]
    shutil.rmtree(run_base, ignore_errors=True)
    plain = summarize(plain_load)
    traced = summarize(traced_load)
    layers = trace.layer_metrics(spans, traced["ops"])
    prefix = [o for client in traced_load.outcomes
              for o in [o for o in client if o[0] == "solve"][:HIT_PREFIX]]
    layers["service.cache_hit_ratio"] = sum(1 for o in prefix if o[3]) / max(len(prefix), 1)
    layers["service.rejected"] = sum(1 for client in traced_load.outcomes for o in client
                                     if o[4] in (429, 503))
    layers["trace.overhead_ratio"] = traced["solve_p50_cal"] / plain["solve_p50_cal"]
    record = {"traced_ops": traced["ops"], "untraced_ops": plain["ops"],
              "hit_prefix_solves": len(prefix),
              "self_s_per_op": trace.self_split(spans, traced["ops"])}
    return ({name: (value, None) for name, value in layers.items()},
            {"record": record, "calibration": calibration,
             "result": {"cal": plain["cal"] + traced["cal"],
                        "problems": plain["problems"] + traced["problems"]}})
