"""One command for the end-to-end benchmark of the service and the fleet.

Run one workload (the form the regression gate uses)::

    python3 benchmarks/e2e/run.py --workload svc_small --seed 1 --seconds 20 --trace 0

or all four, repeated, with a results file::

    PYTHONPATH=src python -m benchmarks.e2e.run --seed 1 --repeat 5 --out results.json

``--trace 0`` prints every end-to-end metric named in ``BENCHMARK.json``;
``--trace 1`` runs a traced variant of the workload and prints every
per-layer metric, the workload-specific layer metrics and the per-request
ledger.  The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A wrong answer, a server error,
or a failed security audit on a read-only workload makes the command exit
non-zero.  See ``benchmarks/e2e/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def _bootstrap() -> None:
    """Import the program from this checkout's ``src/``.

    The script's own directory is dropped from ``sys.path`` so this
    package's ``trace`` module never shadows the standard library's.
    """
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


_bootstrap()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

from repro.service import ServiceClient  # noqa: E402

from benchmarks.e2e import ledger as ledger_module  # noqa: E402
from benchmarks.e2e.children import fleet_main, pin, service_main  # noqa: E402
from benchmarks.e2e.ledger import Spans, median, percentile  # noqa: E402
from benchmarks.e2e.load import (  # noqa: E402
    PhaseResult,
    closed_loop,
    collections_deferred,
    open_loop,
    pipelined,
)
from benchmarks.e2e.trace import Tracer, wire_targets  # noqa: E402
from benchmarks.e2e.workloads import (  # noqa: E402
    ATTRIBUTE,
    PROBE_TENANT,
    TENANTS,
    WORKLOADS,
    Oracle,
    OpStream,
    Workload,
    poisson_schedule,
    stream_seed,
    tenant_dataset,
)

BENCHMARK_FILE = ROOT / "BENCHMARK.json"
#: untimed closed-loop load before the measured windows: at capacity, long
#: enough for the hot bins' caches to fill on every workload
WARMUP_S = 2.0
#: length of one fixed-rate window and of one capacity window; the run
#: alternates them, so both kinds sample the host's state over the whole
#: run, and read latency is a median over windows, so a burst of load from
#: outside the benchmark spoils one window rather than the run
WINDOW_S = 1.0
#: requests kept outstanding in a capacity window
CAPACITY_WINDOW = 16
#: inserts per second a read-only workload's fixed-rate windows send to
#: the probe tenant
PROBE_RATE = 20.0
#: a fixed-rate window whose generator lateness p99 exceeds this was sent late
LATE_LIMIT_S = 1e-3
#: how long the parent waits for its child to set up, or to answer a command
SETUP_TIMEOUT_S = 90.0
COMMAND_TIMEOUT_S = 30.0
#: one workload run is stopped (and fails) after this long
RUN_LIMIT_S = 160


class BenchmarkError(RuntimeError):
    """The program under test failed, or its child process did."""


# -- child processes ------------------------------------------------------------------
def _receive(conn, timeout: float):
    if not conn.poll(timeout):
        raise BenchmarkError(f"child sent nothing within {timeout:.0f}s")
    try:
        message = conn.recv()
    except EOFError:
        raise BenchmarkError("child exited without answering") from None
    if isinstance(message, tuple) and message and message[0] == "error":
        raise BenchmarkError(f"child failed:\n{message[1]}")
    return message


def _call(conn, command: str, argument=None):
    conn.send((command, argument))
    return _receive(conn, COMMAND_TIMEOUT_S)


def _reap(process) -> None:
    """Wait for a child; terminate, then kill, one that will not exit."""
    for stop, patience in ((None, 5.0), (process.terminate, 2.0), (process.kill, 2.0)):
        if stop is not None:
            stop()
        process.join(timeout=patience)
        if not process.is_alive():
            return


def _stop_resource_tracker() -> None:
    """Stop, and wait for, the resource-tracker process that the spawn
    start method runs beside the children, so no process outlives the run."""
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def _spawn(target, *args):
    context = multiprocessing.get_context("spawn")
    parent_conn, child_conn = context.Pipe()
    process = context.Process(target=target, args=(child_conn, *args), daemon=True)
    process.start()
    child_conn.close()
    return process, parent_conn


def _cpu_split() -> Tuple[List[int], List[int], List[int]]:
    """(usable CPUs, the program's CPUs, the load generator's CPUs).

    With two or more CPUs the program runs on the first and the load
    generator on the rest, as if they were different hosts; with one CPU
    neither is pinned.
    """
    usable = sorted(os.sched_getaffinity(0))
    if len(usable) < 2:
        return usable, [], []
    return usable, usable[:1], usable[1:]


# -- service workloads ------------------------------------------------------------------
class _ServiceRun:
    """The load generator's side of one service workload run."""

    def __init__(self, client: ServiceClient, conn, workload: Workload, seed: int,
                 oracles: Dict[str, Oracle]):
        self.client = client
        self.conn = conn
        self.workload = workload
        self.seed = seed
        self.oracles = oracles
        self.read_only = workload.write_fraction == 0
        #: the workload's own traffic goes to its tenants, never to the probe
        self.traffic = {tenant: oracles[tenant] for tenant in TENANTS}
        #: every phase sent, by name, for the correctness checks
        self.phases: Dict[str, PhaseResult] = {}

    def fixed_rate(self, name: str, seconds: float) -> PhaseResult:
        """One open-loop phase at the workload's rate; a read-only workload
        also sends the probe tenant inserts at ``PROBE_RATE``."""
        streams = [("traffic", self.workload, self.traffic)]
        if self.read_only:
            inserts = dataclasses.replace(self.workload, write_fraction=1.0, rate=PROBE_RATE)
            streams.append(("probe", inserts, {PROBE_TENANT: self.oracles[PROBE_TENANT]}))
        arrivals = []
        for label, workload, oracles in streams:
            stream = f"{name}.{label}"
            offsets = poisson_schedule(
                workload.rate, seconds, stream_seed(self.seed, f"arrivals|{workload.name}|{stream}")
            )
            ops = OpStream(workload, self.seed, stream, oracles).take(len(offsets))
            arrivals += zip(offsets, ops)
        arrivals.sort(key=lambda arrival: arrival[0])
        self.phases[name] = open_loop(
            self.client, [op for _, op in arrivals], [at for at, _ in arrivals], ATTRIBUTE
        )
        return self.phases[name]

    def window(self, name: str, seconds: float, counters: Dict[str, float]) -> PhaseResult:
        """One fixed-rate window; adds the child's counter deltas over it
        (sensitive rows scanned, queries served) to ``counters``."""
        before = _call(self.conn, "mark")
        phase = self.fixed_rate(name, seconds)
        after = _call(self.conn, "mark")
        for key in ("scanned", "queries"):
            counters[key] = counters.get(key, 0) + after[key] - before[key]
        phase.gc_full_s = after["gc_full_s"] - before["gc_full_s"]
        return phase

    def capacity(self, name: str, seconds: float) -> PhaseResult:
        """One closed-loop window with ``CAPACITY_WINDOW`` requests outstanding."""
        stream = OpStream(self.workload, self.seed, name, self.traffic)
        self.phases[name] = closed_loop(self.client, stream, CAPACITY_WINDOW, seconds, ATTRIBUTE)
        return self.phases[name]

    def check(self) -> Tuple[List[str], PhaseResult]:
        """Oracle-check every answer, then read back every value that
        received inserts: each acknowledged insert must be there once."""
        for phase in self.phases.values():
            for request in phase.requests:
                tenant, op, payload = request.op
                if op == "insert":
                    acknowledged = bool(request.done) and request.error is None
                    self.oracles[tenant].note_insert(payload[0], acknowledged)
        # a tenant nothing was written to must answer exactly; otherwise an
        # answer is the base rows plus some of the inserts sent
        mode = "exact" if self.read_only else "bounded"
        wrong = []
        for phase in self.phases.values():
            wrong += _wrong_answers(phase, self.oracles, mode)
        final_ops = [
            (tenant, "query", (ATTRIBUTE, value))
            for tenant, oracle in self.oracles.items() for value in sorted(oracle.sent)
        ]
        final = pipelined(self.client, final_ops, CAPACITY_WINDOW, ATTRIBUTE)
        wrong += _wrong_answers(final, self.oracles, "final")
        wrong += [f"final read failed: {error!r}" for error in final.errors()]
        return wrong, final


def _wrong_answers(phase: PhaseResult, oracles: Dict[str, Oracle], mode: str) -> List[str]:
    """``mode`` names the :class:`Oracle` check: exact, bounded or final."""
    wrong = []
    for request in phase.requests:
        tenant, op, payload = request.op
        if op == "query" and request.digest is not None:
            if not getattr(oracles[tenant], mode)(payload[1], request.digest):
                wrong.append(f"{tenant}: {mode} check failed for {payload[1]!r}")
    return wrong


def _on_time(windows: List[PhaseResult]) -> List[PhaseResult]:
    """The windows whose schedule the generator kept."""
    return [w for w in windows if percentile(w.lateness(), 0.99) <= LATE_LIMIT_S]


def _delta(before: Dict[str, float], after: Dict[str, float], key: str) -> float:
    return after[key] - before[key]


def _set_phase(conn, tracer: Optional[Tracer], phase: Optional[str]) -> None:
    """Record spans under ``phase`` in both processes (stop with None)."""
    if tracer is not None:
        _call(conn, "phase", phase)
        tracer.phase = phase


def _rate(phases: List[PhaseResult]) -> float:
    """Operations completed per second over ``phases`` together."""
    return sum(p.succeeded() for p in phases) / max(1e-9, sum(p.finished - p.started for p in phases))


def _window_median(windows: List[PhaseResult], op: str) -> float:
    """Median over windows of each window's median latency for ``op``."""
    medians = [median(w.latencies(op)) for w in windows if w.latencies(op)]
    return median(medians)


def run_service(workload: Workload, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    usable, server_cpus, load_cpus = _cpu_split()
    process, conn = _spawn(service_main, workload, seed, trace, server_cpus)
    pin(load_cpus)
    client: Optional[ServiceClient] = None
    tracer: Optional[Tracer] = None
    window_s = min(WINDOW_S, seconds / 2)
    count = max(1, round(seconds / (2 * window_s)))
    try:
        # the oracles are built while the child provisions
        oracles = {t: Oracle(tenant_dataset(workload, seed, t)) for t in TENANTS}
        oracles[PROBE_TENANT] = Oracle(tenant_dataset(workload, seed, TENANTS[0]))
        ready = _receive(conn, SETUP_TIMEOUT_S)
        client = ServiceClient(*ready["address"])
        run = _ServiceRun(client, conn, workload, seed, oracles)
        if trace:
            tracer = Tracer("client").install(wire_targets())
        run.capacity("warmup", min(WARMUP_S, seconds / 2))
        _call(conn, "collect")
        fixed, saturated, untraced, counters = [], [], [], {}
        start = _call(conn, "mark")
        with collections_deferred():
            for index in range(count if not trace else 2 * count):
                if not trace:
                    fixed.append(run.window(f"fixed{index}", window_s, counters))
                    saturated.append(run.capacity(f"capacity{index}", window_s))
                elif index % 2:
                    _set_phase(conn, tracer, "traced")
                    fixed.append(run.window(f"fixed{index}", window_s, counters))
                    _set_phase(conn, tracer, None)
                else:
                    # traced and untraced windows alternate: their p50
                    # ratio is the tracing overhead
                    untraced.append(run.window(f"untraced{index}", window_s, {}))
        end = _call(conn, "mark")
        audits = _call(conn, "audit")
        # the final-state reads follow the inserts, so the read path's
        # crypto is traced with cold caches on every workload
        _set_phase(conn, tracer, "final")
        wrong, final = run.check()
        _set_phase(conn, tracer, None)
        client.close()
        client = None
        stopped = _call(conn, "stop")
    finally:
        if tracer is not None:
            tracer.uninstall()
        if client is not None:
            client.close()
        conn.close()
        _reap(process)
        pin(usable)

    measured = [p for name, p in run.phases.items() if name != "warmup"]
    attempted = sum(len(p.requests) for p in measured) + len(final.requests)
    rejected = sum(p.rejected() for p in measured)
    errors = [repr(e) for p in measured for e in p.errors()]
    audit_failed = [
        f"{tenant}: audit failed {report['violations']}"
        for tenant, report in audits.items()
        if run.read_only and not (report["eq1"] and report["eq2"])
    ]
    problems = wrong + errors + audit_failed
    # latency counts from the due time, so a late send is measured, not
    # hidden; windows the generator sent late are counted and reported
    on_time = _on_time(fixed)
    details: Dict[str, object] = {
        "workload": workload.name,
        "seed": seed,
        "requests": {name: len(p.requests) for name, p in run.phases.items()},
        "rejected": rejected,
        "problems": problems[:20],
        "audits": audits,
        "audit_gated": run.read_only,
        "windows": len(fixed),
        "on_time_windows": len(on_time),
        "late_ms_p99": [1e3 * percentile(w.lateness(), 0.99) for w in fixed],
        "final_state_values": len(final.requests),
    }
    values: Dict[str, float] = {}
    if not trace:
        reads = [x for w in fixed for x in w.latencies("query")]
        writes = [x for w in fixed for x in w.latencies("insert")]
        values.update({
            "p50_ms": 1e3 * _window_median(fixed, "query"),
            "p99_ms": 1e3 * percentile(reads, 0.99),
            # a window holds only 12-20 inserts, too few for a steady
            # per-window median: pool them
            "write_p50_ms": 1e3 * median(writes),
            "write_p99_ms": 1e3 * percentile(writes, 0.99),
            "max_qps": _rate(saturated),
            "setup_s": median(ready["setup_s"]),
            "peak_rss_mb": stopped["peak_rss_kb"] / 1024.0,
            "rows_per_result": _delta(start, end, "shipped") / max(
                1, sum(p.result_rows() for p in measured)
            ),
            # service-only layer figures that need no tracing
            "server.reject_frac": _delta(start, end, "rejected") / max(
                1, _delta(start, end, "admitted") + _delta(start, end, "rejected")
            ),
            "server.rss_growth_kb_per_kop": _delta(start, end, "rss_kb") / max(
                1e-9, sum(len(p.requests) for p in measured) / 1000
            ),
            # the share of the measured time the server spent in full
            # garbage collections, when it admits and serves nothing
            "server.gc_full_frac": _delta(start, end, "gc_full_s") / _delta(start, end, "at"),
        })
        details["samples"] = {"reads": len(reads), "writes": len(writes)}
        details["window_p50_ms"] = [1e3 * median(w.latencies("query")) for w in fixed]
        details["window_qps"] = [_rate([w]) for w in saturated]
        details["window_gc_ms"] = [1e3 * w.gc_full_s for w in fixed]
        details["gc_full"] = _delta(start, end, "gc_full")
    else:
        # the ledger covers the operations whose latency is timed; the
        # per-call figures cover every traced call
        server = Spans(stopped["spans"], phases=("traced",))
        client_spans = Spans(tracer.export(), phases=("traced",))
        every_call = Spans(stopped["spans"], phases=("traced", "final"))
        setup = Spans(stopped["spans"], phases=("setup",))
        wire, queue_total = ledger_module.wire_metrics(server, client_spans)
        service_total = sum(server.out[i] for i in server.by_name.get("FrameChannel.send_message", ()))
        values.update(wire)
        values.update(ledger_module.program_metrics(
            every_call, queries=every_call.count("DBOwner.query"),
            served=every_call.count("CloudServer.serve"),
        ))
        values.update(ledger_module.setup_metrics(setup, setups=len(ready["setup_s"])))
        lateness = [x for w in fixed for x in w.lateness()]
        latencies = [x for w in fixed for x in w.latencies("query") + w.latencies("insert")]
        finite = [x for x in latencies if x != float("inf")]
        rows = ledger_module.ledger(
            [(server, ledger_module.PROGRAM_LAYERS), (client_spans, ledger_module.CLIENT_LAYERS)],
            requests=len(latencies), mean_latency_s=statistics.fmean(finite) if finite else 0.0,
            queue_wait_s=queue_total, generator_wait_s=sum(lateness),
        )
        values.update(ledger_module.layer_metrics(rows))
        values.update({
            # tails from the untraced windows: tracing would inflate them
            "p99_ms": 1e3 * percentile([x for w in untraced for x in w.latencies("query")], 0.99),
            "write_p99_ms": 1e3 * percentile(
                [x for w in untraced for x in w.latencies("insert")], 0.99
            ),
            "gen.late_ms.p99": 1e3 * percentile(lateness, 0.99),
            "cloud.rows_scanned_per_query": counters["scanned"] / max(1, counters["queries"]),
            "setup.fake_rows": median(ready["fake_rows"]),
            "trace.overhead_frac": (
                _window_median(fixed, "query") / max(1e-12, _window_median(untraced, "query")) - 1.0
            ),
            "trace.coverage_frac": ledger_module.coverage(
                server, ["TenantSession.execute"], service_total
            ),
        })
        details["ledger"] = rows
        # parents are indices into each process's own list
        details["spans"] = {"server": stopped["spans"], "client": tracer.export()}
    return {
        "values": values,
        "attempted": attempted,
        "failed": len(problems) + rejected,
        "correct": not problems,
        "details": details,
    }


# -- fleet workload ------------------------------------------------------------------------
def run_fleet(workload: Workload, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    usable, program_cpus, _load_cpus = _cpu_split()
    process, conn = _spawn(fleet_main, workload, seed, seconds, trace, program_cpus)
    try:
        result = _receive(conn, SETUP_TIMEOUT_S + seconds)
    finally:
        conn.close()
        _reap(process)
    cycles = result["cycles"]
    problems = list(result["failures"])
    attempted = sum(c["queries"] + workload.batch_inserts for c in cycles)
    details = {
        "workload": workload.name,
        "seed": seed,
        "cycles": len(cycles),
        "problems": problems[:20],
        "audits": result["audits"],
        "audit_gated": False,
        "final_state_values": result["final_checked"],
    }
    measured = [c for c in cycles if c["traced"] == trace]
    batch_s = [c["batch_s"] for c in measured]
    insert_s = [c["insert_s"] for c in measured]
    cycle_s = [c["batch_s"] + c["insert_s"] for c in measured]
    queries = sum(c["queries"] for c in measured)
    values: Dict[str, float] = {}
    if not trace:
        values.update({
            "p50_ms": 1e3 * median(batch_s),
            "p99_ms": 1e3 * percentile(batch_s, 0.99),
            "write_p50_ms": 1e3 * median(insert_s),
            "write_p99_ms": 1e3 * percentile(insert_s, 0.99),
            "max_qps": median([c["queries"] / (c["batch_s"] + c["insert_s"]) for c in measured]),
            "setup_s": median(result["setup_s"]),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "rows_per_result": sum(c["shipped"] for c in measured) / max(
                1, sum(c["rows_out"] for c in measured)
            ),
        })
        details["samples"] = {"batches": len(batch_s), "writes": len(insert_s)}
    else:
        spans = Spans(result["spans"], phases=("traced",))
        setup = Spans(result["spans"], phases=("setup",))
        values.update(ledger_module.program_metrics(
            spans, queries=queries, served=sum(c["served"] for c in measured),
        ))
        values.update(ledger_module.setup_metrics(setup, setups=len(result["setup_s"])))
        rows = ledger_module.ledger(
            [(spans, ledger_module.PROGRAM_LAYERS)], requests=queries,
            mean_latency_s=sum(cycle_s) / max(1, queries),
        )
        values.update(ledger_module.layer_metrics(rows))
        untraced = [c for c in cycles if not c["traced"]]
        values.update({
            # tails from the untraced cycles: tracing would inflate them
            "p99_ms": 1e3 * percentile([c["batch_s"] for c in untraced], 0.99),
            "write_p99_ms": 1e3 * percentile([c["insert_s"] for c in untraced], 0.99),
            # the harness's own time between cycles: the closed loop's lateness
            "gen.late_ms.p99": 1e3 * percentile(
                [b["started"] - a["finished"] for a, b in zip(cycles, cycles[1:])], 0.99
            ),
            "cloud.rows_scanned_per_query": sum(c["scanned"] for c in measured) / max(1, queries),
            "setup.fake_rows": median(result["fake_rows"]),
            "trace.overhead_frac": (
                median(batch_s) / max(1e-12, median([c["batch_s"] for c in untraced])) - 1.0
            ),
            "trace.coverage_frac": ledger_module.coverage(
                spans, ["QueryBinningEngine.execute_workload_with_rows", "DBOwner.insert_many"],
                sum(cycle_s),
            ),
        })
        details["ledger"] = rows
        details["spans"] = {"fleet": result["spans"]}
    return {
        "values": values,
        "attempted": attempted,
        "failed": len(problems),
        "correct": not problems,
        "details": details,
    }


@contextlib.contextmanager
def _time_limit(seconds: int):
    """Raise :class:`BenchmarkError` in the main thread after ``seconds``."""

    def expire(_signum, _frame):
        raise BenchmarkError(f"run exceeded {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> Dict[str, object]:
    """Run one workload once; ``toy`` shrinks it to seconds (smoke tests)."""
    workload = WORKLOADS[name]
    if toy:
        workload = workload.toy()
    runner = run_service if workload.kind == "service" else run_fleet
    return runner(workload, seed, seconds, trace)


# -- reporting ----------------------------------------------------------------------
def load_definitions() -> Dict[str, object]:
    return json.loads(BENCHMARK_FILE.read_text())


def environment() -> Dict[str, object]:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
    }


def summarize(runs: List[Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Median, IQR and max-min spread of each value over repeated runs."""
    summary = {}
    for name in runs[0]:
        values = [run[name] for run in runs]
        quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        mid = statistics.median(values)
        summary[name] = {
            "median": mid,
            "iqr_frac": (quartiles[2] - quartiles[0]) / mid if mid else 0.0,
            "spread_frac": (max(values) - min(values)) / mid if mid else 0.0,
        }
    return summary


def _print_summary(summary, units: Dict[str, str], listed: List[str], runs: int) -> None:
    """The metrics BENCHMARK.json lists, then the others this run measured."""

    def show(metric: str) -> None:
        row = summary[metric]
        spread = (f"  iqr {100 * row['iqr_frac']:.1f}%  spread {100 * row['spread_frac']:.1f}%"
                  if runs > 1 else "")
        print(f"  {metric:<32}{row['median']:>14.4f} {units.get(metric, ''):<10}{spread}")

    for metric in listed:
        show(metric)
    extra = sorted(set(summary) - set(listed))
    if extra:
        print("  also measured (workload-specific, not in BENCHMARK.json):")
        for metric in extra:
            show(metric)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload; prints median, IQR and max-min spread")
    parser.add_argument("--out", type=Path, default=None,
                        help="write every run's values and details (with --trace 1, its spans) as JSON")
    args = parser.parse_args(argv)
    definitions = load_definitions()
    seconds = args.seconds or float(definitions["run_seconds"])
    names = args.workload or list(WORKLOADS)
    trace = bool(args.trace)
    listed = [m["name"] for m in definitions["per_layer" if trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in definitions["end_to_end"] + definitions["per_layer"]}

    report: Dict[str, object] = {"environment": environment(), "seconds": seconds,
                                 "trace": trace, "workloads": {}}
    attempted = failed = 0
    correct = True
    final_metrics: Dict[str, Dict[str, object]] = {}
    for name in names:
        runs, details = [], []
        for _ in range(max(1, args.repeat)):
            with _time_limit(RUN_LIMIT_S):
                outcome = run_workload(name, args.seed, seconds, trace)
            missing = [metric for metric in listed if metric not in outcome["values"]]
            if missing:
                raise BenchmarkError(f"{name} did not measure {missing}")
            runs.append(outcome["values"])
            details.append(outcome["details"])
            attempted += outcome["attempted"]
            failed += outcome["failed"]
            correct = correct and outcome["correct"]
        summary = summarize(runs)
        report["workloads"][name] = {"runs": runs, "summary": summary, "details": details}
        print(f"\n== {name} (seed {args.seed}, {seconds:g}s, trace {int(trace)}, "
              f"{len(runs)} run{'s' if len(runs) > 1 else ''})")
        _print_summary(summary, units, listed, len(runs))
        for detail in details:
            if "ledger" in detail:
                print(ledger_module.format_ledger(detail["ledger"], "  ledger (per operation)"))
            for problem in detail["problems"]:
                print(f"  problem: {problem}", file=sys.stderr)
            if "windows" in detail and 2 * detail["on_time_windows"] < detail["windows"]:
                print(f"  warning: the generator's lateness p99 exceeded {1e3 * LATE_LIMIT_S:g} ms in"
                      f" {detail['windows'] - detail['on_time_windows']} of {detail['windows']} windows",
                      file=sys.stderr)
        prefix = "" if len(names) == 1 else f"{name}."
        for metric in listed:
            final_metrics[prefix + metric] = {"value": summary[metric]["median"], "unit": units[metric]}
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2, default=str) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": final_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        status = main()
    finally:
        _stop_resource_tracker()
    sys.exit(status)
