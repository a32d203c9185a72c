"""Process-backed fleet members: parity, fault tolerance, and lifecycle.

``MultiCloud(member_backend="process")`` must be *observationally invisible*:
identical results, traces, per-query view content, and aggregated statistics
versus the thread backend (and therefore versus the single reference server)
for every scheme — the process boundary may move compute, never information.
The fault-injection harness must hold unchanged too, including for a member
whose worker process genuinely dies.
"""

from __future__ import annotations

import pytest

from repro.cloud.multi_cloud import MultiCloud
from repro.cloud.process_member import process_backend_available
from repro.cloud.server import CloudServer
from repro.crypto.arx_index import ArxIndexScheme
from repro.crypto.deterministic import DeterministicScheme
from repro.crypto.nondeterministic import NonDeterministicScheme
from repro.crypto.searchable import SSEScheme
from repro.exceptions import CloudError, ProcessMemberError

SCHEMES = {
    "deterministic": DeterministicScheme,
    "arx-index": ArxIndexScheme,
    "non-deterministic": NonDeterministicScheme,
    "sse": SSEScheme,
}

pytestmark = [
    pytest.mark.multicloud,
    pytest.mark.skipif(
        not process_backend_available(),
        reason="process-backed members need the fork start method",
    ),
]


class TestProcessBackendParity:
    """The full parity-harness contract, with process members standing in."""

    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
    def test_process_backend_matches_sequential_reference(
        self, parity_harness, scheme_name
    ):
        """Results, traces, split views, and statistics all match the single
        sequential reference server — the same bar the thread backend meets."""
        harness = parity_harness(SCHEMES[scheme_name], member_backend="process")
        workload = harness.workload()
        sequential = harness.run("sequential", workload)
        sharded = harness.run("sharded", workload)
        runs = {"sequential": sequential, "sharded": sharded}
        harness.assert_identical_results(runs)
        harness.assert_identical_traces(runs)
        harness.assert_sharded_view_parity(sequential, sharded, workload)
        harness.assert_sharded_statistics_parity(sequential, sharded)

    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
    def test_process_backend_matches_thread_backend(
        self, parity_harness, scheme_name
    ):
        """Per-member observations are bit-identical across backends: same
        view content in the same order on the same members, same statistics,
        same network charges."""
        thread_harness = parity_harness(SCHEMES[scheme_name])
        process_harness = parity_harness(
            SCHEMES[scheme_name], member_backend="process"
        )
        workload = thread_harness.workload()
        thread_run = thread_harness.run("sharded", workload)
        process_run = process_harness.run("sharded", workload)

        assert process_run.result_rids == thread_run.result_rids
        assert thread_run.fleet is not None and process_run.fleet is not None
        for thread_member, process_member in zip(
            thread_run.fleet.servers, process_run.fleet.servers
        ):
            assert len(process_member.view_log) == len(thread_member.view_log)
            for theirs, ours in zip(thread_member.view_log, process_member.view_log):
                assert ours.query_id == theirs.query_id
                assert ours.non_sensitive_request == theirs.non_sensitive_request
                assert ours.sensitive_request_size == theirs.sensitive_request_size
                assert ours.returned_sensitive_rids == theirs.returned_sensitive_rids
                assert [row.rid for row in ours.returned_non_sensitive] == [
                    row.rid for row in theirs.returned_non_sensitive
                ]
                assert ours.sensitive_bin_index == theirs.sensitive_bin_index
                assert ours.non_sensitive_bin_index == theirs.non_sensitive_bin_index
            assert process_member.stats == thread_member.stats
            assert process_member.network.total_tuples() == (
                thread_member.network.total_tuples()
            )
            assert (
                process_member.observation_snapshot()
                == thread_member.observation_snapshot()
            )

    def test_inserts_through_proxies(self, parity_harness):
        """The non-batch fleet surface (inserts into a live layout) works
        identically behind the process boundary.  Each backend gets its own
        freshly generated dataset — inserts mutate the partition."""
        from repro.workloads.generator import generate_partitioned_dataset

        runs = {}
        for backend in ("thread", "process"):
            dataset = generate_partitioned_dataset(
                num_values=24,
                sensitivity_fraction=0.5,
                association_fraction=0.6,
                tuples_per_value=3,
                skew_exponent=1.1,
                seed=9,
            )
            harness = parity_harness(
                DeterministicScheme, dataset=dataset, member_backend=backend
            )
            engine = harness.make_engine(sharded=True)
            sensitive_value = engine.partition.sensitive.rows[0][engine.attribute]
            cleartext_value = engine.partition.non_sensitive.rows[0][
                engine.attribute
            ]
            for value, sensitive in (
                (sensitive_value, True),
                (cleartext_value, False),
            ):
                source = (
                    engine.partition.sensitive
                    if sensitive
                    else engine.partition.non_sensitive
                ).rows[0]
                template = dict(source.values)
                template[engine.attribute] = value
                engine.insert(engine.partition.insert(template, sensitive=sensitive))
            outcome = engine.execute_workload_with_rows(
                [sensitive_value, cleartext_value], placement="sharded"
            )
            runs[backend] = [
                sorted(row.rid for row in rows) for rows, _trace in outcome
            ]
        assert runs["process"] == runs["thread"]


class TestProcessBackendFaults:
    """Fault-injection parity and real process-death failover."""

    @pytest.mark.faults
    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
    def test_injected_crash_parity(self, fault_harness, scheme_name):
        """The fault-injecting server crashes *inside its worker process*;
        the degraded run must stay bit-identical to the healthy run."""
        harness = fault_harness(SCHEMES[scheme_name], member_backend="process")
        workload = harness.workload()
        healthy = harness.run("sharded", workload)
        victim, load = harness.busiest_member(healthy, workload)
        degraded = harness.run_with_failure(workload, victim, at_offset=load // 2)
        harness.assert_degraded_parity(healthy, degraded)
        assert victim in degraded.fleet.failed_members

    @pytest.mark.faults
    def test_real_worker_death_fails_over(self, fault_harness):
        """Killing the actual member process (SIGTERM, no cooperation from
        the server object) routes its work to replicas: results identical to
        a healthy run, the member excluded, no double-counted observations."""
        harness = fault_harness(DeterministicScheme, member_backend="process")
        workload = harness.workload()
        healthy = harness.run("sharded", workload)
        victim, _load = harness.busiest_member(healthy, workload)

        engine = harness.make_engine(sharded=True)
        fleet = engine.multi_cloud
        assert fleet is not None
        proxy = fleet[victim]
        proxy._process.terminate()
        proxy._process.join(timeout=5.0)

        outcome = engine.execute_workload_with_rows(workload, placement="sharded")
        rids = [sorted(row.rid for row in rows) for rows, _trace in outcome]
        assert rids == healthy.result_rids
        assert victim in fleet.failed_members
        assert len(fleet[victim].view_log) == 0  # the dead member saw nothing
        report = fleet.last_report
        assert report is not None
        assert all(
            placement is None or placement[0] != victim
            for pair in report.placements
            for placement in pair
        )

    @pytest.mark.faults
    def test_unreplicated_fleet_degrades_cleanly_on_worker_death(
        self, parity_harness
    ):
        """Without replicas a dead worker's bins are unservable: the batch
        raises FleetDegradedError instead of hanging or dropping queries."""
        harness = parity_harness(
            DeterministicScheme, member_backend="process", num_shards=3
        )
        engine = harness.make_engine(sharded=True)
        fleet = engine.multi_cloud
        workload = harness.workload()
        # find a victim that actually serves work for this workload
        requests, _slots = engine.build_requests(list(workload))
        loads = [0] * len(fleet)
        for request in requests:
            for member in engine.shard_router.route(request):
                if member is not None:
                    loads[member] += 1
        victim = max(range(len(loads)), key=loads.__getitem__)
        proxy = fleet[victim]
        proxy._process.terminate()
        proxy._process.join(timeout=5.0)
        from repro.exceptions import FleetDegradedError

        with pytest.raises(FleetDegradedError):
            engine.execute_workload_with_rows(workload, placement="sharded")


class TestProcessMemberLifecycle:
    def test_close_is_idempotent_and_mirrors_survive(self, parity_harness):
        harness = parity_harness(DeterministicScheme, member_backend="process")
        workload = harness.workload()
        run = harness.run("sharded", workload)
        fleet = run.fleet
        assert fleet is not None
        views_before = [len(server.view_log) for server in fleet.servers]
        stats_before = [server.stats for server in fleet.servers]
        fleet.close()
        fleet.close()  # idempotent
        assert [len(server.view_log) for server in fleet.servers] == views_before
        assert [server.stats for server in fleet.servers] == stats_before
        with pytest.raises(ProcessMemberError):
            fleet[0].build_index(harness.dataset.attribute)

    def test_context_manager_closes_workers(self):
        with MultiCloud(2, member_backend="process") as fleet:
            processes = [server._process for server in fleet.servers]
            assert all(process.is_alive() for process in processes)
        for process in processes:
            process.join(timeout=5.0)
            assert not process.is_alive()

    def test_unknown_backend_rejected(self):
        with pytest.raises(CloudError):
            MultiCloud(2, member_backend="subinterpreter")

    def test_thread_backend_unchanged_by_close(self):
        fleet = MultiCloud(2)  # thread backend: close() is a no-op
        fleet.close()
        assert isinstance(fleet[0], CloudServer)
