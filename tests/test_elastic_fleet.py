"""Elastic fleet: membership churn under load must be unobservable.

The elasticity claim composes the parity and fault-tolerance claims: a fleet
may lose members (crash, wedge), re-replicate the lost slices onto
survivors, retire members gracefully, and admit fresh ones — all between
batches of a sustained workload — and every run across every intermediate
membership returns the same rows, records the same per-query adversarial
information, and aggregates to the same statistics as a healthy fleet.
These tests drive :class:`repro.cloud.lifecycle.FleetLifecycleManager`
through every transition across all four bundled schemes and both member
backends, re-proving the non-collusion invariant and ``replication_factor``-
way redundancy over every ring the fleet passes through.
"""

import time
from itertools import combinations
from types import SimpleNamespace

import pytest

from repro.cloud.lifecycle import FleetLifecycleManager
from repro.cloud.multi_cloud import ShardRouter
from repro.cloud.process_member import process_backend_available
from repro.crypto.arx_index import ArxIndexScheme
from repro.crypto.deterministic import DeterministicScheme
from repro.crypto.nondeterministic import NonDeterministicScheme
from repro.crypto.searchable import SSEScheme
from repro.data.partition import replica_chain
from repro.exceptions import CloudError, ConfigurationError, MemberTimeout
from repro.owner.db_owner import DBOwner
from repro.workloads.employee import build_employee_relation, employee_policy

SCHEMES = {
    "deterministic": DeterministicScheme,
    "arx-index": ArxIndexScheme,
    "non-deterministic": NonDeterministicScheme,
    "sse": SSEScheme,
}

pytestmark = [pytest.mark.multicloud, pytest.mark.faults]

process_only = pytest.mark.skipif(
    not process_backend_available(), reason="process backend needs fork start method"
)

BACKENDS = ["thread", pytest.param("process", marks=process_only)]


def fleet_run(harness, engine, workload):
    """One measured sharded run on an existing (possibly churned) engine.

    Resets fleet observations first so the run's views and statistics are
    directly comparable to a healthy single-run reference, and returns a
    :class:`~tests.conftest.StrategyRun`-shaped record the harness
    assertions accept.
    """
    engine.multi_cloud.reset_observations()
    outcome = engine.execute_workload_with_rows(list(workload), placement="sharded")
    return SimpleNamespace(
        placement="sharded",
        engine=engine,
        fleet=engine.multi_cloud,
        cloud=engine.cloud,
        result_rids=[sorted(row.rid for row in rows) for rows, _trace in outcome],
        traces=[trace for _rows, trace in outcome],
    )


def kill_member(fleet, index, backend):
    """Make member ``index`` permanently dead, per backend."""
    if backend == "process":
        proxy = fleet[index]
        proxy._process.kill()
        proxy._process.join(timeout=10)
    else:
        fleet[index].schedule_failure(at_offset=0, failures=1, permanent=True)


# -- routing-layer units ---------------------------------------------------------


class TestLiveMembershipRouting:
    """Pure :class:`ShardRouter` membership semantics, no fleet involved."""

    def make_router(self, live=None, n=5, k=2):
        return ShardRouter(12, 9, n, replication_factor=k, live_members=live)

    def test_explicit_full_membership_is_the_static_router(self):
        static = self.make_router()
        live = self.make_router(live=range(5))
        assert live.replica_assignment() == static.replica_assignment()
        for sensitive_bin in range(12):
            anchor = static.shard_of_sensitive(sensitive_bin)
            assert static.replicas_of_sensitive(sensitive_bin) == replica_chain(
                anchor, 5, 2
            )
            for non_sensitive_bin in range(9):
                assert live.cleartext_candidates(
                    non_sensitive_bin, anchor
                ) == static.cleartext_candidates(non_sensitive_bin, anchor)

    def test_chains_skip_dead_members_and_keep_live_primaries(self):
        dead = 2
        router = self.make_router(live=[0, 1, 3, 4])
        static = self.make_router()
        for sensitive_bin in range(12):
            chain = router.replicas_of_sensitive(sensitive_bin)
            assert len(chain) == 2 == len(set(chain))
            assert dead not in chain
            primary = static.shard_of_sensitive(sensitive_bin)
            if primary != dead:
                # bins anchored on live members never move their primary
                assert chain[0] == primary

    def test_dead_member_cleartext_load_spreads_over_survivors(self):
        """Rendezvous failover: one member's cleartext traffic does not pile
        onto a single deterministic successor."""
        dead = 4
        full = self.make_router()
        degraded = self.make_router(live=[0, 1, 2, 3])
        replacements = set()
        moved = 0
        for sensitive_bin in range(12):
            anchor = full.shard_of_sensitive(sensitive_bin)
            for non_sensitive_bin in range(9):
                before = full.shard_of_non_sensitive(non_sensitive_bin, anchor)
                after = degraded.cleartext_candidates(non_sensitive_bin, anchor)
                assert dead not in after
                if before == dead:
                    moved += 1
                    replacements.add(after[0])
        assert moved > 0
        assert len(replacements) > 1, (
            "every displaced cleartext pick landed on the same survivor"
        )

    def test_disjointness_proved_over_every_membership(self):
        """Chain and cleartext candidates stay live, non-empty, and disjoint
        for every bin pair under every admissible membership subset."""
        memberships = [
            live
            for size in (3, 4, 5)
            for live in combinations(range(5), size)
        ]
        for live in memberships:
            router = self.make_router(live=live)
            for sensitive_bin in [None, *range(12)]:
                chain = router.replicas_of_sensitive(sensitive_bin)
                assert len(chain) == 2
                assert set(chain) <= set(live)
                anchor = (
                    0
                    if sensitive_bin is None
                    else router.shard_of_sensitive(sensitive_bin)
                )
                for non_sensitive_bin in [None, *range(9)]:
                    candidates = router.cleartext_candidates(
                        non_sensitive_bin, anchor
                    )
                    assert candidates, (live, sensitive_bin, non_sensitive_bin)
                    assert set(candidates) <= set(live)
                    assert not set(candidates) & set(chain)

    def test_membership_validation(self):
        with pytest.raises(CloudError, match="outside the"):
            self.make_router(live=[0, 1, 5])
        with pytest.raises(CloudError, match="live members"):
            self.make_router(live=[0, 1])  # k=2 needs at least 3 live

    def test_with_membership_and_rebalanced_preserve_shape(self):
        full = self.make_router()
        shrunk = full.with_membership([0, 2, 3, 4])
        assert shrunk.live_members == frozenset({0, 2, 3, 4})
        assert shrunk.num_shards == 5
        assert shrunk.replication_factor == 2
        grown = shrunk.rebalanced(6, live_members=[0, 2, 3, 4, 5])
        assert grown.num_shards == 6
        assert grown.live_members == frozenset({0, 2, 3, 4, 5})


# -- slice-migration primitives --------------------------------------------------


class TestSlicePrimitives:
    def test_slice_roundtrip_preserves_results_and_accounts_traffic(
        self, fault_harness
    ):
        harness = fault_harness(DeterministicScheme)
        workload = harness.workload(repeats=1)
        engine = harness.make_engine(sharded=True)
        baseline = fleet_run(harness, engine, workload).result_rids

        server = engine.multi_cloud[0]
        downloads_before = server.network.total_tuples("download")
        stored = server.stored_sensitive_bins()
        assert stored, "member 0 should hold at least one bin slice"
        target_bin = sorted(b for b in stored if b is not None)[0]

        slices = server.sensitive_slice([target_bin])
        assert list(slices) == [target_bin]
        rows = slices[target_bin]
        assert len(rows) == stored[target_bin]

        dropped = server.drop_sensitive_bins([target_bin])
        assert dropped == len(rows)
        assert target_bin not in server.stored_sensitive_bins()

        server.receive_migrated_slice(slices)
        assert server.stored_sensitive_bins()[target_bin] == len(rows)

        # migration traffic is charged to its own directions, never download
        assert server.network.total_tuples("migration-out") == len(rows)
        assert server.network.total_tuples("migration-in") == len(rows)
        assert server.network.total_tuples("migration-drop") == len(rows)
        assert server.network.total_tuples("download") == downloads_before

        # the re-installed slice serves queries bit-identically
        assert fleet_run(harness, engine, workload).result_rids == baseline


# -- lifecycle accessors ---------------------------------------------------------


class TestLifecycleAccessors:
    def test_engine_without_fleet_refuses(self, qb_engine):
        with pytest.raises(ConfigurationError, match="MultiCloud"):
            qb_engine.fleet_lifecycle()

    def test_manager_is_cached_and_router_adopted(self, fault_harness):
        harness = fault_harness(DeterministicScheme)
        engine = harness.make_engine(sharded=True)
        manager = engine.fleet_lifecycle()
        assert engine.fleet_lifecycle() is manager
        old_router = engine.shard_router
        manager.add_member()
        assert engine.shard_router is manager.router
        assert engine.shard_router is not old_router

    def test_owner_lifecycle_pass_through(self):
        owner = DBOwner(
            build_employee_relation(),
            employee_policy(),
            num_clouds=4,
            replication_factor=2,
            permutation_seed=7,
        )
        owner.outsource("EId")
        manager = owner.lifecycle_for("EId")
        assert isinstance(manager, FleetLifecycleManager)
        assert manager is owner.lifecycle_for("EId")
        assert manager.prove_non_collusion() > 0
        index, _report = manager.add_member()
        assert index == 4
        engine = owner.engine_for("EId")
        assert engine.shard_router is manager.router
        healthy = [row["LastName"] for row in owner.query("EId", "E259")]
        assert healthy == ["Williams", "Williams"]


# -- membership operations -------------------------------------------------------


class TestMembershipOps:
    def test_graceful_remove_migrates_before_departure(self, fault_harness):
        harness = fault_harness(DeterministicScheme, num_shards=5)
        workload = harness.workload(repeats=1)
        healthy = harness.run("sharded", workload)
        engine = harness.make_engine(sharded=True)
        fleet = engine.multi_cloud
        manager = engine.fleet_lifecycle()

        leaving = 1
        leaving_bins = set(fleet[leaving].stored_sensitive_bins())
        report = manager.remove_member(leaving)

        assert leaving in fleet.departed_members
        assert fleet.live_members == frozenset({0, 2, 3, 4})
        # every slice the leaver held found exactly one new home
        copied = {b for _source, _target, bins in report.copies for b in bins}
        assert copied == leaving_bins
        # no point scrubbing a member that is leaving anyway
        assert all(member != leaving for member, _bins in report.drops)
        # storage matches the shrunk ring everywhere, at full redundancy
        for index in sorted(fleet.live_members):
            for bin_index in fleet[index].stored_sensitive_bins():
                assert index in engine.shard_router.replicas_of_sensitive(bin_index)
        assert set(manager.replication_health().values()) == {2}
        manager.prove_non_collusion()

        run = fleet_run(harness, engine, workload)
        harness.assert_degraded_parity(healthy, run)

    def test_add_member_copies_only_reassigned_bins(self, fault_harness):
        harness = fault_harness(DeterministicScheme, num_shards=4)
        workload = harness.workload(repeats=1)
        healthy = harness.run("sharded", workload)
        engine = harness.make_engine(sharded=True)
        fleet = engine.multi_cloud
        manager = engine.fleet_lifecycle()
        old_router = manager.router
        old_chains = {
            bin_index: set(old_router.replicas_of_sensitive(bin_index))
            for bin_index in range(old_router.num_sensitive_bins)
        }

        index, report = manager.add_member()
        assert index == 4
        assert fleet.live_members == frozenset(range(5))
        new_router = manager.router
        for _source, target, bins in report.copies:
            for bin_index in bins:
                new_chain = set(new_router.replicas_of_sensitive(bin_index))
                assert target in new_chain
                # only chains that actually changed moved any data
                assert new_chain != old_chains.get(bin_index, new_chain - {target})
        assert set(manager.replication_health().values()) == {2}
        run = fleet_run(harness, engine, workload)
        harness.assert_degraded_parity(healthy, run)

    def test_replace_member_restores_slot(self, fault_harness):
        harness = fault_harness(DeterministicScheme, num_shards=4)
        workload = harness.workload(repeats=1)
        healthy = harness.run("sharded", workload)
        engine = harness.make_engine(sharded=True)
        fleet = engine.multi_cloud
        manager = engine.fleet_lifecycle()

        victim, _load = harness.busiest_member(healthy, workload)
        kill_member(fleet, victim, "thread")
        degraded = fleet_run(harness, engine, workload)
        harness.assert_degraded_parity(healthy, degraded)
        assert victim in fleet.failed_members

        manager.replace_member(victim)
        assert victim not in fleet.failed_members
        assert victim not in fleet.departed_members
        assert not getattr(fleet[victim], "dead", False)
        assert set(manager.replication_health().values()) == {2}
        run = fleet_run(harness, engine, workload)
        harness.assert_degraded_parity(healthy, run)

    def test_remove_refused_below_replication_floor(self, fault_harness):
        harness = fault_harness(DeterministicScheme, num_shards=3)
        engine = harness.make_engine(sharded=True)
        manager = engine.fleet_lifecycle()
        with pytest.raises(CloudError, match="live members"):
            manager.remove_member(0)
        # the refused transition left the fleet untouched
        assert engine.multi_cloud.live_members == frozenset(range(3))
        assert not engine.multi_cloud.departed_members

    def test_departed_slot_is_never_readmitted(self, fault_harness):
        harness = fault_harness(DeterministicScheme, num_shards=5)
        engine = harness.make_engine(sharded=True)
        fleet = engine.multi_cloud
        manager = engine.fleet_lifecycle()
        manager.remove_member(2)
        with pytest.raises(CloudError, match="departed"):
            fleet.mark_recovered(2)
        with pytest.raises(CloudError, match="already departed"):
            manager.remove_member(2)
        # the all-member sweep skips (rather than trips over) the tombstone
        fleet.failed_members.add(2)
        fleet.mark_all_recovered()
        assert 2 in fleet.failed_members


# -- full elastic cycle across schemes and backends ------------------------------


class TestElasticCycle:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES), ids=sorted(SCHEMES))
    def test_kill_restore_join_cycle_is_unobservable(
        self, fault_harness, scheme_name, backend
    ):
        """Kill the busiest member mid-workload, re-replicate onto the
        survivors, then grow the fleet — every run stays bit-identical to
        the healthy reference and every ring keeps the invariants."""
        harness = fault_harness(
            SCHEMES[scheme_name], num_shards=5, member_backend=backend
        )
        workload = harness.workload(repeats=1)
        healthy = harness.run("sharded", workload)

        engine = harness.make_engine(sharded=True)
        fleet = engine.multi_cloud
        manager = engine.fleet_lifecycle()
        rings = [manager.router]
        assert manager.prove_non_collusion() > 0

        victim, _load = harness.busiest_member(healthy, workload)
        victim_bins = set(fleet[victim].stored_sensitive_bins())

        kill_member(fleet, victim, backend)
        degraded = fleet_run(harness, engine, workload)
        harness.assert_degraded_parity(healthy, degraded)
        assert victim in fleet.failed_members

        report = manager.restore_redundancy()
        rings.append(manager.router)
        assert victim in fleet.departed_members
        assert fleet.live_members == frozenset(range(5)) - {victim}
        # exactly the victim's slices were re-homed, each to one new member
        copied = {b for _source, _target, bins in report.copies for b in bins}
        assert copied == victim_bins
        health = manager.replication_health()
        assert health and set(health.values()) == {2}
        restored = fleet_run(harness, engine, workload)
        harness.assert_degraded_parity(healthy, restored)

        index, _join_report = manager.add_member()
        rings.append(manager.router)
        assert index == 5
        assert set(manager.replication_health().values()) == {2}
        grown = fleet_run(harness, engine, workload)
        harness.assert_degraded_parity(healthy, grown)

        # the invariant held on every ring the fleet passed through
        for ring in rings:
            assert manager.prove_non_collusion(ring) > 0
        assert len(manager.history) == 2


# -- RPC deadlines and health probes (process backend only) ----------------------


@process_only
class TestRpcDeadlines:
    def test_wedged_member_times_out_and_fails_over(self, fault_harness):
        harness = fault_harness(
            DeterministicScheme,
            member_backend="process",
            rpc_timeout=1.0,
            member_retries=0,
        )
        workload = harness.workload(repeats=1)
        healthy = harness.run("sharded", workload)
        engine = harness.make_engine(sharded=True)
        fleet = engine.multi_cloud

        victim, _load = harness.busiest_member(healthy, workload)
        fleet[victim].schedule_stall(forever=True)
        started = time.monotonic()
        run = fleet_run(harness, engine, workload)
        harness.assert_degraded_parity(healthy, run)
        # the deadline reaped the wedge: no 3600s sleep leaked into the run
        assert time.monotonic() - started < 30.0
        assert victim in fleet.failed_members
        assert fleet[victim].closed
        assert isinstance(fleet._member_errors[victim], MemberTimeout)
        # an abandoned worker is not re-admittable — only replaceable
        with pytest.raises(CloudError, match="abandoned"):
            fleet.mark_recovered(victim)
        fleet.mark_all_recovered()
        assert victim in fleet.failed_members

    def test_slow_member_is_not_failed_over(self, fault_harness):
        """Finite latency is not a failure: generous deadlines must let a
        slow-but-progressing member answer."""
        harness = fault_harness(
            DeterministicScheme, member_backend="process", rpc_timeout=30.0
        )
        workload = harness.workload(repeats=1)
        healthy = harness.run("sharded", workload)
        engine = harness.make_engine(sharded=True)
        fleet = engine.multi_cloud

        victim, _load = harness.busiest_member(healthy, workload)
        fleet[victim].schedule_stall(seconds=0.2, stalls=1)
        run = fleet_run(harness, engine, workload)
        harness.assert_degraded_parity(healthy, run)
        assert not fleet.failed_members
        assert not fleet[victim].closed

    def test_probe_detects_dead_worker_and_excludes_it(self, fault_harness):
        harness = fault_harness(DeterministicScheme, member_backend="process")
        engine = harness.make_engine(sharded=True)
        fleet = engine.multi_cloud
        manager = engine.fleet_lifecycle(probe_timeout=5.0)

        assert manager.probe() == {index: True for index in range(4)}

        kill_member(fleet, 2, "process")
        health = manager.probe()
        assert health[2] is False
        assert all(health[index] for index in (0, 1, 3))
        assert 2 in fleet.failed_members
        # probing again does not re-admit the excluded member
        health = manager.probe()
        assert health[2] is False
        assert 2 in fleet.failed_members

    def test_close_does_not_hang_on_wedged_worker(self, fault_harness):
        harness = fault_harness(
            DeterministicScheme, member_backend="process", rpc_timeout=1.0
        )
        engine = harness.make_engine(sharded=True)
        fleet = engine.multi_cloud
        fleet[1].schedule_stall(forever=True)
        # the wedge fires on the next batch; the deadline abandons the worker
        with pytest.raises(MemberTimeout):
            fleet[1].process_batch([])
        assert fleet[1].closed
        started = time.monotonic()
        fleet.close()
        assert time.monotonic() - started < 10.0


# -- the scripted churn scenario -------------------------------------------------


@pytest.mark.chaos
@process_only
class TestChurnScenario:
    def test_scripted_churn_under_sustained_load(self, fault_harness):
        """The acceptance scenario: wedge one member, kill another,
        re-replicate onto the survivors, join a fresh member — under a
        sustained workload, with zero wrong results, bit-identical
        observables, and the non-collusion proof over every intermediate
        ring."""
        harness = fault_harness(
            DeterministicScheme,
            num_shards=5,
            member_backend="process",
            rpc_timeout=2.0,
        )
        workload = harness.workload()
        healthy = harness.run("sharded", workload)

        engine = harness.make_engine(sharded=True)
        fleet = engine.multi_cloud
        manager = engine.fleet_lifecycle(probe_timeout=2.0)
        rings = [manager.router]

        def sustained_phase(description):
            run = fleet_run(harness, engine, workload)
            assert run.result_rids == healthy.result_rids, description
            harness.assert_degraded_parity(healthy, run)
            return run

        sustained_phase("healthy baseline")

        # phase 1: member 0 wedges mid-workload; the RPC deadline reaps it
        fleet[0].schedule_stall(forever=True)
        sustained_phase("wedged member failed over")
        assert 0 in fleet.failed_members
        # the deadline abandoned the wedged worker (the recorded exclusion
        # error is the retry's "process is down" follow-up, a MemberFailure;
        # the MemberTimeout itself is pinned in TestRpcDeadlines)
        assert fleet[0].closed

        # phase 2: member 2 dies outright (no goodbye, SIGKILL)
        kill_member(fleet, 2, "process")
        sustained_phase("killed member failed over")
        assert 2 in fleet.failed_members

        # phase 3: probes confirm the picture, losses are made permanent,
        # and redundancy is rebuilt from the survivors
        health = manager.probe()
        assert {index for index, ok in health.items() if not ok} == {0, 2}
        manager.restore_redundancy()
        rings.append(manager.router)
        assert fleet.departed_members == {0, 2}
        assert fleet.live_members == frozenset({1, 3, 4})
        assert set(manager.replication_health().values()) == {2}
        sustained_phase("after re-replication")

        # phase 4: a fresh member joins and takes over its share of slices
        index, _report = manager.add_member()
        rings.append(manager.router)
        assert index == 5
        assert fleet.live_members == frozenset({1, 3, 4, 5})
        assert set(manager.replication_health().values()) == {2}
        sustained_phase("after join")

        # the placement invariant held on every ring the fleet crossed
        for ring in rings:
            assert manager.prove_non_collusion(ring) > 0
        assert len(manager.history) == 2
