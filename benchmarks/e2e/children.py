"""The program's side of a run, executed in a child process.

:func:`service_main` provisions the tenants and serves them with
:class:`~repro.service.server.EncryptedSearchService` (its defaults: 4
workers, queue depth 64) while the parent process generates load; the
parent drives the child through a small command loop over a
``multiprocessing`` pipe.  :func:`fleet_main` runs the ``fleet_sse``
closed loop in-process against the library and sends its raw measurements
back.  Both are spawned fresh per workload, so peak RSS and every cache
belong to one workload.
"""

from __future__ import annotations

import gc
import os
import resource
import sys
import time
import traceback
from typing import Dict, List, Optional

from repro.adversary.auditor import PartitionedSecurityAuditor
from repro.crypto.nondeterministic import NonDeterministicScheme
from repro.crypto.searchable import SSEScheme
from repro.owner.db_owner import DBOwner
from repro.service import EncryptedSearchService, TenantRegistry

from benchmarks.e2e.trace import Tracer, program_targets, wire_targets
from benchmarks.e2e.workloads import (
    PROBE_TENANT,
    TENANTS,
    Oracle,
    Workload,
    digest_rows,
    fleet_cycles,
    policy,
    stream_seed,
    tenant_dataset,
)

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3


def pin(cpus) -> None:
    """Restrict this process's current thread, and the threads it starts
    afterwards, to ``cpus`` (no-op when ``cpus`` is empty)."""
    if cpus:
        os.sched_setaffinity(0, set(cpus))


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def current_rss_kb() -> int:
    try:
        with open("/proc/self/statm") as statm:
            resident_pages = int(statm.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0
    return resident_pages * os.sysconf("SC_PAGE_SIZE") // 1024


class FullCollections:
    """How many full garbage collections this process ran, and for how
    long (``gc.callbacks`` run on the collecting thread)."""

    def __init__(self):
        self.seconds = 0.0
        self.count = 0
        self._started = 0.0
        gc.callbacks.append(self._observe)

    def _observe(self, phase: str, info: Dict[str, int]) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.count += 1

    def close(self) -> None:
        gc.callbacks.remove(self._observe)


def _report(report) -> Dict[str, object]:
    return {
        "eq1": report.eq1_association_preserved,
        "eq2": report.eq2_frequency_preserved,
        "views": report.details.get("views_audited"),
        "violations": report.violations[:3],
    }


def _send_failure(conn) -> None:
    traceback.print_exc(file=sys.stderr)
    try:
        conn.send(("error", traceback.format_exc()))
    except (OSError, ValueError):
        pass


# -- service ------------------------------------------------------------------------
class _Server:
    """The tenants, the service, and the counters the parent asks for."""

    def __init__(self, workload: Workload, seed: int, tracer: Optional[Tracer]):
        self.registry = TenantRegistry()
        self.gc = FullCollections()
        self.service: Optional[EncryptedSearchService] = None
        self.setup_s: List[float] = []
        self.fake_rows: List[int] = []
        datasets = {tenant: tenant_dataset(workload, seed, tenant) for tenant in TENANTS}
        # its own copy: an owner's inserts mutate the relation it was given
        datasets[PROBE_TENANT] = tenant_dataset(workload, seed, TENANTS[0])
        self.attribute = datasets[TENANTS[0]].attribute
        if tracer is not None:
            tracer.phase = "setup"
        # three timed set-ups per run: setup_s is their median
        for tenant, dataset in datasets.items():
            self._provision(tenant, dataset, seed)
        if tracer is not None:
            tracer.phase = None
        self.warmed = workload.prewarm
        if self.warmed:
            for tenant in TENANTS:
                owner = self.registry.get(tenant).owner
                owner.execute_workload(self.attribute, datasets[tenant].all_values)

    def _provision(self, name: str, dataset, seed: int) -> None:
        started = time.perf_counter()
        session = self.registry.provision(
            name, dataset.relation, policy(), attributes=(dataset.attribute,),
            permutation_seed=stream_seed(seed, f"permutation|{name}") % (1 << 31),
        )
        self.setup_s.append(time.perf_counter() - started)
        self.fake_rows.append(session.owner.engine_for(dataset.attribute).fake_rows_outsourced)

    def mark(self) -> Dict[str, float]:
        """Cumulative cloud and service counters, and the current RSS."""
        counters: Dict[str, float] = {"queries": 0, "shipped": 0, "scanned": 0}
        for tenant in TENANTS + (PROBE_TENANT,):
            stats = self.registry.get(tenant).owner.engine_for(self.attribute).cloud.stats
            counters["queries"] += stats.queries_served
            counters["shipped"] += stats.non_sensitive_rows_returned + stats.sensitive_rows_returned
            counters["scanned"] += stats.sensitive_rows_scanned
        counters.update(self.service.stats() if self.service is not None else {})
        counters["rss_kb"] = current_rss_kb()
        counters["gc_full_s"] = self.gc.seconds
        counters["gc_full"] = self.gc.count
        counters["at"] = time.perf_counter()
        return counters

    def audit(self) -> Dict[str, Dict[str, object]]:
        return {
            tenant: _report(self.registry.get(tenant).owner.audit(
                self.attribute, full_domain_queried=self.warmed
            ))
            for tenant in TENANTS
        }


def service_main(conn, workload: Workload, seed: int, trace: bool, cpus=()) -> None:
    """Serve the workload's tenants until the parent says ``stop``.

    Commands are ``(name, argument)`` pairs: ``mark`` returns counters,
    ``collect`` runs a full garbage collection so a measured phase starts
    from the same heap state on every run, ``phase`` starts or stops span
    recording under the given phase name, ``audit`` runs the paper's
    security audit per tenant, and ``stop`` drains the service and returns
    peak RSS and the recorded spans.
    """
    pin(cpus)
    tracer = None
    if trace:
        tracer = Tracer("server").install(
            wire_targets() + program_targets([NonDeterministicScheme])
        )
    server: Optional[_Server] = None
    try:
        server = _Server(workload, seed, tracer)
        server.service = EncryptedSearchService(server.registry).start()
        conn.send({
            "address": server.service.address,
            "setup_s": server.setup_s,
            "fake_rows": server.fake_rows,
        })
        while True:
            try:
                command, argument = conn.recv()
            except EOFError:
                return  # the parent is gone; shut down
            if command == "mark":
                conn.send(server.mark())
            elif command == "collect":
                gc.collect()
                conn.send(None)
            elif command == "phase":
                if tracer is not None:
                    tracer.phase = argument
                conn.send(None)
            elif command == "audit":
                conn.send(server.audit())
            elif command == "stop":
                server.service.stop()
                server.service = None
                conn.send({
                    "peak_rss_kb": peak_rss_kb(),
                    "spans": tracer.export() if tracer is not None else [],
                })
                return
    except BaseException:
        _send_failure(conn)
        raise
    finally:
        if server is not None:
            if server.service is not None:
                server.service.stop(drain=False)
            server.registry.close_all()
            server.gc.close()
        conn.close()


# -- fleet --------------------------------------------------------------------------
def fleet_main(conn, workload: Workload, seed: int, seconds: float, trace: bool, cpus=()) -> None:
    """Run ``fleet_sse``'s closed loop and send the raw measurements back.

    One caller alternates a ``workload.batch``-query sharded batch with an
    ``insert_many`` of ``workload.batch_inserts`` sensitive rows; every
    answer is checked against the oracle off the timed path.
    """
    pin(cpus)
    tracer = Tracer("fleet").install(program_targets([SSEScheme])) if trace else None
    owners: List[DBOwner] = []
    try:
        dataset = tenant_dataset(workload, seed, "fleet")
        oracle = Oracle(dataset)
        attribute = dataset.attribute
        setup_s = []
        if tracer is not None:
            tracer.phase = "setup"
        for repeat in range(SETUP_REPEATS):
            owner = DBOwner(
                dataset.relation, policy(), scheme_factory=SSEScheme, num_clouds=2,
                permutation_seed=stream_seed(seed, "permutation|fleet") % (1 << 31),
            )
            owners.append(owner)
            started = time.perf_counter()
            owner.outsource(attribute)
            setup_s.append(time.perf_counter() - started)
            if repeat < SETUP_REPEATS - 1:
                owners.pop().close()
                del owner
                gc.collect()
        owner = owners[-1]
        if tracer is not None:
            tracer.phase = None
        engine = owner.engine_for(attribute)
        fleet = engine.multi_cloud
        cycles = fleet_cycles(workload, seed, oracle)
        failures: List[str] = []

        def counters() -> Dict[str, int]:
            return {
                name: fleet.aggregate_stat(name)
                for name in ("queries_served", "sensitive_rows_scanned",
                             "non_sensitive_rows_returned", "sensitive_rows_returned")
            }

        def cycle(traced: bool) -> Dict[str, object]:
            """One batch and its inserts; the answers are checked after the
            clock stops."""
            values, inserts = next(cycles)
            before = counters()
            if tracer is not None:
                tracer.phase = "traced" if traced else None
            started = time.perf_counter()
            results = engine.execute_workload_with_rows(values, placement="sharded")
            batch_done = time.perf_counter()
            owner.insert_many(inserts)
            finished = time.perf_counter()
            if tracer is not None:
                tracer.phase = None
            after = counters()
            rows_out = 0
            for value, (rows, _trace) in zip(values, results):
                rows_out += len(rows)
                if not oracle.final(value, digest_rows(rows, attribute)):
                    failures.append(f"wrong answer for {value!r}")
            for values_inserted in inserts:
                oracle.note_insert(values_inserted, acknowledged=True)
            return {
                "traced": traced, "started": started, "finished": finished,
                "batch_s": batch_done - started, "insert_s": finished - batch_done,
                "queries": len(values), "rows_out": rows_out,
                "shipped": sum(after[name] - before[name] for name in (
                    "non_sensitive_rows_returned", "sensitive_rows_returned")),
                "served": after["queries_served"] - before["queries_served"],
                "scanned": after["sensitive_rows_scanned"] - before["sensitive_rows_scanned"],
            }

        cycle(traced=False)  # warm-up: the first batch after set-up pays one-off costs
        gc.collect()
        # with tracing, traced and untraced cycles alternate: their batch
        # time ratio is the tracing overhead
        measured = [cycle(traced=False)]
        end = measured[0]["started"] + seconds
        while time.perf_counter() < end:
            measured.append(cycle(traced=trace and len(measured) % 2 == 1))

        # final state: every value that received inserts, exactly once each
        inserted = sorted(oracle.acked)
        final = engine.execute_workload_with_rows(inserted, placement="sharded")
        for value, (rows, _trace) in zip(inserted, final):
            if not oracle.final(value, digest_rows(rows, attribute)):
                failures.append(f"final state wrong for {value!r}")

        audits = {}
        for member in fleet.servers:
            auditor = PartitionedSecurityAuditor(
                num_non_sensitive_values=engine.metadata.num_non_sensitive_values,
                layout=engine.layout,
                sensitive_counts=engine.metadata.sensitive_counts,
            )
            audits[member.name] = _report(auditor.audit(member.view_log, full_domain_queried=False))
        conn.send({
            "setup_s": setup_s,
            "fake_rows": [engine.fake_rows_outsourced],
            "cycles": measured,
            "final_checked": len(inserted),
            "failures": failures,
            "audits": audits,
            "peak_rss_kb": peak_rss_kb(),
            "spans": tracer.export() if tracer is not None else [],
        })
    except BaseException:
        _send_failure(conn)
        raise
    finally:
        for owner in owners:
            owner.close()
        conn.close()
