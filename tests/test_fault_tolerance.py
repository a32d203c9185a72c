"""Fault-injection parity: killing a fleet member must be unobservable.

The repo's availability claim extends the parity claim of
``tests/test_multicloud_parity.py``: with ``replication_factor ≥ 2``, any
single fleet member may crash at any point of a sharded batch — before its
batch starts, mid-batch (partial work lost with the crash), or while the
owner is already decrypting other members' responses — and the degraded run
still returns the same rows, records the same per-query adversarial
information (each half exactly once, on a live member), and aggregates to
the same statistics as the healthy run.  These tests drive the reusable
:class:`tests.conftest.FaultInjectionHarness` across all four bundled
encrypted-search schemes, plus the retry/exclusion machinery and the
``FleetDegradedError`` path when no live replica remains.
"""

import pytest

from repro.cloud.server import CloudServer
from repro.exceptions import CloudError
from repro.crypto.arx_index import ArxIndexScheme
from repro.crypto.deterministic import DeterministicScheme
from repro.crypto.nondeterministic import NonDeterministicScheme
from repro.crypto.searchable import SSEScheme
from repro.exceptions import FleetDegradedError, MemberFailure

SCHEMES = {
    "deterministic": DeterministicScheme,
    "arx-index": ArxIndexScheme,
    "non-deterministic": NonDeterministicScheme,
    "sse": SSEScheme,
}

pytestmark = [pytest.mark.multicloud, pytest.mark.faults]


class TestSingleMemberFailureParity:
    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES), ids=sorted(SCHEMES))
    def test_failure_at_every_point_is_unobservable(self, fault_harness, scheme_name):
        """Scheme × failure point: kill the busiest member (a) before its
        batch, (b) mid-batch, (c) after all but one of its requests — by
        which time the other members have completed and the owner's
        decryption overlap has already consumed their responses."""
        harness = fault_harness(SCHEMES[scheme_name])
        workload = harness.workload()
        healthy = harness.run("sharded", workload)
        victim, load = harness.busiest_member(healthy, workload)
        assert load >= 2, "workload too small to place a mid-batch failure"
        for at_offset in (0, load // 2, load - 1):
            degraded = harness.run_with_failure(workload, victim, at_offset=at_offset)
            fleet = degraded.fleet
            assert fleet[victim].dead
            assert fleet[victim].failures_injected >= 1
            assert victim in fleet.failed_members
            report = fleet.last_report
            assert report.failed_members == frozenset({victim})
            # every half the victim was serving moved to a live candidate
            assert report.rerouted_halves == load
            for sensitive_placement, cleartext_placement in report.placements:
                for placement in (sensitive_placement, cleartext_placement):
                    if placement is not None:
                        assert placement[0] != victim
            # the crash lost the victim's in-flight work: nothing recorded
            assert len(fleet[victim].view_log) == 0
            harness.assert_degraded_parity(healthy, degraded)

    def test_any_member_is_survivable(self, fault_harness):
        """The acceptance criterion's 'any single fleet member': every member
        of the fleet is killed mid-batch in turn, and every degraded run is
        bit-identical to the healthy one."""
        harness = fault_harness(DeterministicScheme)
        workload = harness.workload(repeats=1)
        healthy = harness.run("sharded", workload)
        loads = harness.member_loads(healthy, workload)
        assert all(load > 0 for load in loads), "every member should be serving"
        for victim, load in enumerate(loads):
            degraded = harness.run_with_failure(
                workload, victim, at_offset=load // 2
            )
            harness.assert_degraded_parity(healthy, degraded)

    def test_two_members_failing_in_the_same_wave_converge(self, fault_harness):
        """Two simultaneous crashes: halves re-routed from the first victim
        may initially target the second (not yet excluded when the first
        failure is handled); the wave-boundary revalidation must move them
        on before any excluded member is handed work.  5 members with k=3
        and non-adjacent victims keep every candidate chain alive."""
        harness = fault_harness(
            DeterministicScheme, num_shards=5, replication_factor=3
        )
        workload = harness.workload()
        healthy = harness.run("sharded", workload)
        engine = harness.make_engine(sharded=True)
        fleet = engine.multi_cloud
        for victim in (0, 2):
            fleet[victim].schedule_failure(at_offset=1)
        outcome = engine.execute_workload_with_rows(
            list(workload), placement="sharded"
        )
        assert fleet.last_report.failed_members == frozenset({0, 2})
        for sensitive_placement, cleartext_placement in fleet.last_report.placements:
            for placement in (sensitive_placement, cleartext_placement):
                if placement is not None:
                    assert placement[0] not in (0, 2)
        degraded = type(healthy)(
            placement="sharded",
            engine=engine,
            result_rids=[sorted(r.rid for r in rows) for rows, _ in outcome],
            traces=[trace for _rows, trace in outcome],
        )
        harness.assert_degraded_parity(healthy, degraded)

    def test_deterministic_cloud_error_propagates_without_failover(
        self, fault_harness
    ):
        """A non-crash CloudError (malformed request, misconfiguration) is
        not an outage: it must reach the caller unchanged, and the raising
        member must not be marked failed."""

        class MisconfiguredServer(CloudServer):
            reject = False

            def process_batch(self, requests):
                if self.reject:
                    raise CloudError("deterministic request error")
                return super().process_batch(requests)

        harness = fault_harness(DeterministicScheme)
        harness.server_factory = MisconfiguredServer
        workload = harness.workload()
        engine = harness.make_engine(sharded=True)
        engine.multi_cloud[0].reject = True
        with pytest.raises(CloudError, match="deterministic request error"):
            engine.execute_workload_with_rows(list(workload), placement="sharded")
        assert engine.multi_cloud.failed_members == set()

    def test_failure_during_decrypt_overlap_really_overlapped(self, fault_harness):
        """Pin the 'during decrypt overlap' scenario structurally: by the
        time the victim's crash is handled, responses from other members
        have already been consumed (the failover wave runs strictly after
        wave-one completions were handed to the response consumer)."""
        harness = fault_harness(DeterministicScheme)
        workload = harness.workload()
        healthy = harness.run("sharded", workload)
        victim, load = harness.busiest_member(healthy, workload)
        engine = harness.make_engine(sharded=True)
        engine.multi_cloud[victim].schedule_failure(at_offset=load - 1)
        consumed_before_failover = []

        def consumer(request, response):
            consumed_before_failover.append(
                len(engine.multi_cloud.failed_members) == 0
            )

        requests, _slots = engine.build_requests(list(workload))
        engine.multi_cloud.process_batch(
            requests, engine.shard_router, response_consumer=consumer
        )
        # some halves were consumed while the victim was still considered
        # live (wave one), some only after its exclusion (failover wave)
        assert any(consumed_before_failover)
        assert not all(consumed_before_failover)


class TestRetryAndExclusion:
    def test_transient_failure_recovers_on_retry_without_failover(self, fault_harness):
        """One crash inside the per-member retry budget: the member's batch
        is simply re-served by the member itself — no exclusion, no
        re-routing, and (because the crash restored its observations) no
        double-recorded views."""
        harness = fault_harness(DeterministicScheme)
        workload = harness.workload()
        healthy = harness.run("sharded", workload)
        victim, load = harness.busiest_member(healthy, workload)
        degraded = harness.run_with_failure(
            workload, victim, at_offset=load // 2, failures=1, permanent=False
        )
        fleet = degraded.fleet
        assert not fleet[victim].dead
        assert fleet[victim].failures_injected == 1
        assert victim not in fleet.failed_members
        assert fleet.last_report.failed_members == frozenset()
        assert fleet.last_report.rerouted_halves == 0
        assert len(fleet[victim].view_log) == load
        harness.assert_degraded_parity(healthy, degraded)

    def test_retry_budget_exhaustion_fails_over(self, fault_harness):
        """A member that keeps crashing past its retry budget is excluded and
        its work moves to replicas — still with full parity."""
        harness = fault_harness(DeterministicScheme)
        workload = harness.workload()
        healthy = harness.run("sharded", workload)
        victim, load = harness.busiest_member(healthy, workload)
        degraded = harness.run_with_failure(
            workload, victim, at_offset=load // 2, failures=5, permanent=False
        )
        fleet = degraded.fleet
        # initial attempt + one retry (MultiCloud default budget), then excluded
        assert fleet[victim].failures_injected == 2
        assert victim in fleet.failed_members
        assert fleet.last_report.rerouted_halves == load
        harness.assert_degraded_parity(healthy, degraded)

    def test_failed_member_stays_excluded_in_later_batches(self, fault_harness):
        """The exclusion set persists: after a crash, subsequent workloads
        route straight to replicas without tripping over the dead member."""
        harness = fault_harness(DeterministicScheme)
        workload = harness.workload()
        healthy = harness.run("sharded", workload)
        victim, load = harness.busiest_member(healthy, workload)
        degraded = harness.run_with_failure(workload, victim, at_offset=load // 2)
        fleet = degraded.fleet
        views_after_first = len(fleet[victim].view_log)
        # same engine, second batch: no new failures, same results as healthy
        outcome = degraded.engine.execute_workload_with_rows(
            list(workload), placement="sharded"
        )
        assert fleet.last_report.failed_members == frozenset()
        assert [sorted(r.rid for r in rows) for rows, _ in outcome] == (
            healthy.result_rids
        )
        assert len(fleet[victim].view_log) == views_after_first
        harness.assert_no_member_saw_both_halves(degraded)


class TestFleetDegradation:
    def test_no_live_replica_raises_clear_error(self, fault_harness):
        """Without replication a member crash is unsurvivable for its bins:
        the batch must fail fast with FleetDegradedError, not hang or return
        partial results."""
        harness = fault_harness(DeterministicScheme, replication_factor=1)
        workload = harness.workload()
        healthy = harness.run("sharded", workload)
        victim, load = harness.busiest_member(healthy, workload)
        engine = harness.make_engine(sharded=True)
        # a successful batch first, so the stale-report check below is real
        engine.execute_workload_with_rows(list(workload[:3]), placement="sharded")
        assert engine.multi_cloud.last_report is not None
        engine.multi_cloud[victim].schedule_failure(at_offset=load // 2)
        with pytest.raises(FleetDegradedError) as excinfo:
            engine.execute_workload_with_rows(list(workload), placement="sharded")
        message = str(excinfo.value)
        assert "no live member" in message
        assert "replication_factor" in message
        # the underlying member error is chained and quoted, not swallowed
        assert isinstance(excinfo.value.__cause__, MemberFailure)
        assert "member errors" in message and f"cloud-{victim}" in message
        # an aborted batch must not leave the previous batch's report behind
        assert engine.multi_cloud.last_report is None

    def test_losing_the_whole_replica_chain_raises(self, fault_harness):
        """k = 2 tolerates one failure per bin but not two: killing a member
        and its ring successor exhausts some bin's chain."""
        harness = fault_harness(DeterministicScheme)  # 4 members, k = 2
        workload = harness.workload()
        engine = harness.make_engine(sharded=True)
        fleet = engine.multi_cloud
        loads_engine = harness.run("sharded", workload)
        loads = harness.member_loads(loads_engine, workload)
        victim = max(range(len(loads)), key=loads.__getitem__)
        successor = (victim + 1) % len(fleet)
        fleet[victim].schedule_failure(at_offset=0)
        fleet[successor].schedule_failure(at_offset=0)
        with pytest.raises(FleetDegradedError):
            engine.execute_workload_with_rows(list(workload), placement="sharded")

    def test_coordinator_rolls_back_members_that_do_not_self_restore(
        self, fault_harness
    ):
        """The one-view-per-half guarantee must not depend on the member
        implementation cleaning up after itself: a plain server that records
        part of its batch and then raises (no self-restore) is rolled back
        by the coordinator's pre-wave snapshot, so the re-routed halves are
        still recorded exactly once fleet-wide."""

        class AbruptlyCrashingServer(CloudServer):
            """Serves a prefix, then raises without restoring anything."""

            crash_after: int = None  # armed post-construction

            def process_batch(self, requests):
                if self.crash_after is None:
                    return super().process_batch(requests)
                crash_after, self.crash_after = self.crash_after, None
                super().process_batch(list(requests[:crash_after]))
                raise MemberFailure(f"{self.name} crashed without cleanup")

        harness = fault_harness(DeterministicScheme)
        harness.server_factory = AbruptlyCrashingServer
        workload = harness.workload()
        healthy = harness.run("sharded", workload)
        victim, load = harness.busiest_member(healthy, workload)
        engine = harness.make_engine(sharded=True)
        fleet = engine.multi_cloud
        fleet[victim].crash_after = load // 2
        outcome = engine.execute_workload_with_rows(
            list(workload), placement="sharded"
        )
        # the crashed attempt's partial views were rolled back by the
        # coordinator; the member then served its retried batch in full
        assert fleet.last_report.failed_members == frozenset()
        assert len(fleet[victim].view_log) == load
        degraded = type(healthy)(
            placement="sharded",
            engine=engine,
            result_rids=[sorted(r.rid for r in rows) for rows, _ in outcome],
            traces=[trace for _rows, trace in outcome],
        )
        harness.assert_degraded_parity(healthy, degraded)

    def test_crash_restores_observation_snapshot(self, fault_harness):
        """The crash semantics behind stats parity, asserted directly: a
        mid-batch crash leaves the victim's views, statistics, transfer
        totals, and query-id counter exactly as they were before the batch."""
        harness = fault_harness(DeterministicScheme)
        workload = harness.workload()
        healthy = harness.run("sharded", workload)
        victim, load = harness.busiest_member(healthy, workload)
        degraded = harness.run_with_failure(workload, victim, at_offset=load // 2)
        server = degraded.fleet[victim]
        assert len(server.view_log) == 0
        assert server.stats.queries_served == 0
        assert server.stats.sensitive_tokens_processed == 0
        assert server.network.total_tuples("download") == 0
        # only the outsourcing uploads survive the crash
        assert server.network.total_tuples("upload") > 0
