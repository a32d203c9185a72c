"""Replica placement: exhaustive non-collusion, determinism, and rebalance.

Replication adds a second way for a bin's token half to reach a member —
replica storage and failover service — so the PR 2 non-collusion property
("the two halves of a request land on different members") must be
strengthened to a *set-level* invariant: for every sensitive bin, the set of
members that may ever hold or serve its token half (primary plus replicas)
is disjoint from the set of members that may ever serve its paired cleartext
traffic (preferred placement plus every failover candidate).  This file
proves that exhaustively over a grid of fleet shapes, replication factors,
and policies, pins replica determinism under rebuild/rebalance (the PR 2
coverage gap around ``rebalanced`` + ``reset_observations``), and checks the
replicated storage layer actually materialises the router's promises.
"""

import random

import pytest

from repro.cloud.multi_cloud import MultiCloud, ShardRouter
from repro.cloud.server import BatchRequest, CloudServer
from repro.core.engine import QueryBinningEngine
from repro.crypto.base import SearchToken
from repro.crypto.primitives import SecretKey
from repro.crypto.searchable import SSEScheme
from repro.data.partition import replica_chain
from repro.exceptions import CloudError, PartitioningError

pytestmark = [pytest.mark.multicloud, pytest.mark.faults]

POLICIES = ["hash", "range"]

#: (num_servers, replication_factor) — every combination with at least one
#: cleartext-capable member left over, including the k = n - 1 extreme where
#: the cleartext segment shrinks to a single member.
FLEET_GRID = [
    (num_servers, replication_factor)
    for num_servers in (2, 3, 4, 6)
    for replication_factor in (1, 2, 3, 5)
    if replication_factor + 1 <= num_servers
]

#: (sensitive bins, non-sensitive bins) layout shapes for the grid sweep.
BIN_SHAPES = [(5, 7), (12, 12), (2, 9)]


def _request(sensitive_bin, non_sensitive_bin):
    return BatchRequest(
        attribute="A",
        cleartext_values=("w",),
        tokens=(SearchToken(payload=b"t"),),
        sensitive_bin_index=sensitive_bin,
        non_sensitive_bin_index=non_sensitive_bin,
    )


class TestReplicaChains:
    @pytest.mark.parametrize("fleet", FLEET_GRID)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_replicas_are_distinct_primary_first(self, fleet, policy):
        num_servers, replication_factor = fleet
        router = ShardRouter(
            8, 8, num_servers, policy=policy, replication_factor=replication_factor
        )
        for bin_index in range(8):
            chain = router.replicas_of_sensitive(bin_index)
            assert len(chain) == replication_factor
            assert len(set(chain)) == replication_factor
            assert chain[0] == router.shard_of_sensitive(bin_index)
            assert all(0 <= member < num_servers for member in chain)

    def test_replica_chain_is_the_ring_successors(self):
        assert replica_chain(2, 5, 3) == (2, 3, 4)
        assert replica_chain(4, 5, 3) == (4, 0, 1)
        assert replica_chain(1, 4, 1) == (1,)

    def test_replica_chain_validation(self):
        with pytest.raises(PartitioningError):
            replica_chain(0, 4, 0)
        with pytest.raises(PartitioningError):
            replica_chain(0, 4, 5)


class TestExhaustiveNonCollusion:
    """The acceptance-criteria sweep: token members ∩ cleartext members = ∅."""

    @pytest.mark.parametrize("shape", BIN_SHAPES)
    @pytest.mark.parametrize("fleet", FLEET_GRID)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_no_member_holds_token_slice_and_paired_cleartext(
        self, shape, fleet, policy
    ):
        """For every bin pair, *every* candidate the router could ever pick
        for the cleartext half — preferred or failover — avoids *every*
        member holding the sensitive bin's slice (primary or replica)."""
        sensitive_bins, non_sensitive_bins = shape
        num_servers, replication_factor = fleet
        router = ShardRouter(
            sensitive_bins,
            non_sensitive_bins,
            num_servers,
            policy=policy,
            replication_factor=replication_factor,
        )
        for sensitive_bin in range(sensitive_bins):
            token_members = set(router.replicas_of_sensitive(sensitive_bin))
            anchor = router.shard_of_sensitive(sensitive_bin)
            for non_sensitive_bin in range(non_sensitive_bins):
                candidates = router.cleartext_candidates(non_sensitive_bin, anchor)
                # the full failover chain covers the whole cleartext segment
                assert len(set(candidates)) == num_servers - replication_factor
                overlap = token_members & set(candidates)
                assert not overlap, (
                    f"pair ({sensitive_bin}, {non_sensitive_bin}) can co-locate "
                    f"on members {sorted(overlap)} under {policy} with "
                    f"{num_servers} servers, k={replication_factor}"
                )

    @pytest.mark.parametrize("fleet", FLEET_GRID)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_route_candidates_agree_with_route_and_stay_disjoint(self, fleet, policy):
        num_servers, replication_factor = fleet
        router = ShardRouter(
            6, 6, num_servers, policy=policy, replication_factor=replication_factor
        )
        for sensitive_bin in range(6):
            for non_sensitive_bin in range(6):
                request = _request(sensitive_bin, non_sensitive_bin)
                sensitive_candidates, cleartext_candidates = router.route_candidates(
                    request
                )
                assert (sensitive_candidates[0], cleartext_candidates[0]) == (
                    router.route(request)
                )
                assert not set(sensitive_candidates) & set(cleartext_candidates)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_unknown_bins_keep_the_invariant(self, policy):
        """Bins born after the router (incremental re-binning) fall back to
        hash placement but must honour the same segment split."""
        router = ShardRouter(4, 4, 5, policy=policy, replication_factor=2)
        for sensitive_bin in range(4, 30):
            token_members = set(router.replicas_of_sensitive(sensitive_bin))
            anchor = router.shard_of_sensitive(sensitive_bin)
            for non_sensitive_bin in range(4, 30):
                candidates = router.cleartext_candidates(non_sensitive_bin, anchor)
                assert not token_members & set(candidates)


class TestReplicationDefaults:
    def test_default_replication_matches_pr2_placement(self):
        """``replication_factor=1`` must reproduce the unreplicated router
        bit-for-bit: same primaries, single-member chains, same preferred
        cleartext member — existing deployments see no movement."""
        plain = ShardRouter(10, 8, 4)
        assert plain.replication_factor == 1
        for sensitive_bin in range(10):
            assert plain.replicas_of_sensitive(sensitive_bin) == (
                plain.shard_of_sensitive(sensitive_bin),
            )
        for non_sensitive_bin in range(8):
            for anchor in range(4):
                preferred = plain.shard_of_non_sensitive(non_sensitive_bin, anchor)
                assert preferred == plain.cleartext_candidates(
                    non_sensitive_bin, anchor
                )[0]
                assert preferred != anchor

    def test_replication_validation(self):
        with pytest.raises(CloudError):
            ShardRouter(4, 4, 3, replication_factor=0)
        with pytest.raises(CloudError):
            ShardRouter(4, 4, 3, replication_factor=3)  # no cleartext member left
        ShardRouter(4, 4, 3, replication_factor=2)  # largest valid k at 3 servers


class TestRebalanceRegression:
    """The PR 2 coverage gap: ``rebalanced`` after member join/leave."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_rebalanced_preserves_replication_and_is_deterministic(self, policy):
        router = ShardRouter(10, 8, 4, policy=policy, replication_factor=2)
        grown = router.rebalanced(6)
        assert grown.replication_factor == 2
        fresh = ShardRouter(10, 8, 6, policy=policy, replication_factor=2)
        assert grown.replica_assignment() == fresh.replica_assignment()
        # shrinking back (member leave) reproduces the original chains
        shrunk = grown.rebalanced(4)
        assert shrunk.replica_assignment() == router.replica_assignment()
        # an explicit override changes k without touching the policy
        stronger = router.rebalanced(4, replication_factor=3)
        assert stronger.replication_factor == 3
        assert stronger.policy == policy

    def test_rebalanced_to_too_small_fleet_is_rejected(self):
        router = ShardRouter(6, 6, 4, replication_factor=3)
        with pytest.raises(CloudError):
            router.rebalanced(3)  # 3 servers cannot host k=3 plus a cleartext member

    def test_rebin_clears_fleet_observations_and_recovers_members(
        self, parity_dataset
    ):
        """Re-binning after a failure re-outsources every member from scratch:
        observation logs restart, the failed-member exclusion is lifted, and
        the rebuilt replica placement equals a freshly computed router's."""
        from repro.crypto.deterministic import DeterministicScheme

        engine = QueryBinningEngine(
            partition=parity_dataset.partition,
            attribute=parity_dataset.attribute,
            scheme=DeterministicScheme(SecretKey.from_passphrase("rebin-key")),
            cloud=CloudServer(),
            rng=random.Random(17),
            multi_cloud=MultiCloud(4),
            replication_factor=2,
        ).setup()
        fleet = engine.multi_cloud
        engine.execute_workload_with_rows(
            list(parity_dataset.all_values), placement="sharded"
        )
        fleet.failed_members.add(2)  # as if member 2 had crashed
        assert any(len(server.view_log) > 0 for server in fleet.servers)

        engine.rebin()

        assert fleet.failed_members == set()
        for server in fleet.servers:
            assert len(server.view_log) == 0
            assert server.stats.queries_served == 0
        rebuilt = engine.shard_router
        fresh = ShardRouter(
            engine.layout.num_sensitive_bins,
            engine.layout.num_non_sensitive_bins,
            4,
            policy=engine.shard_policy,
            replication_factor=2,
        )
        assert rebuilt.replica_assignment() == fresh.replica_assignment()
        # and the redeployed fleet still answers identically to the reference
        value = parity_dataset.all_values[0]
        [(rows, _trace)] = engine.execute_workload_with_rows(
            [value], placement="sharded"
        )
        assert sorted(r.rid for r in rows) == sorted(
            r.rid for r in engine.query(value)
        )


class TestReplicatedStorage:
    """The storage layer materialises the router's chains exactly."""

    @pytest.fixture(scope="class")
    def replicated_engine(self, parity_dataset):
        engine = QueryBinningEngine(
            partition=parity_dataset.partition,
            attribute=parity_dataset.attribute,
            scheme=SSEScheme(SecretKey.from_passphrase("replica-store-key")),
            cloud=CloudServer(),
            rng=random.Random(17),
            multi_cloud=MultiCloud(4),
            replication_factor=2,
        )
        return engine.setup()

    def test_fleet_stores_exactly_k_copies(self, replicated_engine):
        engine = replicated_engine
        fleet_total = sum(
            server.encrypted_row_count for server in engine.multi_cloud.servers
        )
        assert fleet_total == 2 * engine.cloud.encrypted_row_count

    def test_every_row_lives_exactly_on_its_bin_chain(self, replicated_engine):
        engine = replicated_engine
        router = engine.shard_router
        holders = {}
        for index, server in enumerate(engine.multi_cloud.servers):
            for row in server.stored_encrypted_rows:
                holders.setdefault(row.rid, set()).add(index)
        for row in engine.partition.sensitive.rows:
            location = engine.layout.locate_sensitive(row[engine.attribute])
            assert location is not None
            expected = set(router.replicas_of_sensitive(location[0]))
            assert holders[row.rid] == expected

    def test_replica_members_hold_identical_bin_slices(self, replicated_engine):
        """A failover must be bit-identical, so each member of a bin's chain
        stores the same ciphertext sequence for the bin (fakes included)."""
        engine = replicated_engine
        router = engine.shard_router
        for bin_index in range(engine.layout.num_sensitive_bins):
            slices = []
            for member in router.replicas_of_sensitive(bin_index):
                store = engine.multi_cloud[member]._bin_store
                assert store is not None
                slices.append([row.rid for row in store.get(bin_index, [])])
            assert slices[0], f"bin {bin_index} stored nowhere"
            assert all(current == slices[0] for current in slices[1:])

    def test_owner_passes_replication_through(self):
        """DBOwner(replication_factor=...) reaches the attribute's router and
        the sharded placement still answers correctly."""
        from repro.owner.db_owner import DBOwner
        from repro.workloads.employee import build_employee_relation, employee_policy

        owner = DBOwner(
            build_employee_relation(),
            employee_policy(),
            permutation_seed=7,
            num_clouds=4,
            replication_factor=2,
        )
        engine = owner.outsource("EId")
        assert engine.replication_factor == 2
        assert engine.shard_router.replication_factor == 2
        fleet = owner.multi_cloud_for("EId")
        assert sum(s.encrypted_row_count for s in fleet.servers) == (
            2 * engine.cloud.encrypted_row_count
        )
        [trace] = owner.execute_workload("EId", ["E259"], placement="sharded")
        assert trace.rows_after_merge == len(owner.query("EId", "E259"))

    def test_replicated_insert_reaches_the_whole_chain(self, parity_dataset):
        engine = QueryBinningEngine(
            partition=parity_dataset.partition,
            attribute=parity_dataset.attribute,
            scheme=SSEScheme(SecretKey.from_passphrase("replica-insert-key")),
            cloud=CloudServer(),
            rng=random.Random(17),
            multi_cloud=MultiCloud(4),
            replication_factor=2,
        ).setup()
        value = next(
            v
            for v in parity_dataset.all_values
            if engine.layout.locate_sensitive(v) is not None
        )
        bin_index = engine.layout.locate_sensitive(value)[0]
        chain = engine.shard_router.replicas_of_sensitive(bin_index)
        before = [engine.multi_cloud[m].encrypted_row_count for m in chain]
        template = next(iter(engine.partition.sensitive.rows))
        new_values = dict(template.values)
        new_values[engine.attribute] = value
        engine.insert(engine.partition.insert(new_values, sensitive=True))
        after = [engine.multi_cloud[m].encrypted_row_count for m in chain]
        assert after == [count + 1 for count in before]
        # ...and nowhere else
        fleet_total = sum(
            server.encrypted_row_count for server in engine.multi_cloud.servers
        )
        assert fleet_total == 2 * engine.cloud.encrypted_row_count
