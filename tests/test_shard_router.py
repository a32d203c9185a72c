"""Property-style coverage of the shard router's placement guarantees.

Three invariants carry the multi-cloud security and correctness story:

1. *Totality* — every bin maps to exactly one member, so a bin's whole slice
   (real and fake tuples) lives on one server and retrievals never cross
   servers.
2. *Determinism* — placement is a pure function of (bin counts, fleet
   size): rebuilding or rebalancing reproduces the same assignment,
   so setup can be re-run and fleets resized without consulting stored
   state.
3. *Non-collusion* — for every (sensitive bin, non-sensitive bin) pair the
   two request halves land on different members, so no single server can
   associate the pair (the paper's non-colluding-clouds assumption).

Totality and non-collusion are proved with every slot live and again after
the fleet has lost a member.
"""

import pytest

from repro.cloud.multi_cloud import ShardRouter
from repro.cloud.server import BatchRequest
from repro.crypto.base import SearchToken
from repro.data.partition import hash_shard_assignment, stable_item_hash
from repro.exceptions import CloudError, PartitioningError

pytestmark = pytest.mark.multicloud

#: (sensitive bins, non-sensitive bins, shards) shapes swept by the
#: property tests: squares, skewed rectangles, fewer bins than shards, and
#: single-bin degenerate layouts.
SHAPES = [
    (4, 4, 2),
    (7, 5, 3),
    (5, 7, 4),
    (2, 9, 6),
    (12, 12, 5),
    (1, 1, 2),
    (3, 3, 8),
]

#: Membership views every placement property is proved over: all slots
#: live, and the view the fleet lifecycle installs after losing one member
#: of a fleet one slot larger (``with_membership``), so both route over the
#: same number of live members.  Slot 0 is the one lost, because requests
#: without a sensitive bin anchor there.
MEMBERSHIPS = ["full", "slot-0-lost"]


def _router(sensitive_bins, non_sensitive_bins, members, membership):
    """A router over ``members`` live members in ``membership``'s view."""
    if membership == "full":
        return ShardRouter(sensitive_bins, non_sensitive_bins, members)
    return ShardRouter(
        sensitive_bins, non_sensitive_bins, members + 1
    ).with_membership(range(1, members + 1))


def _request(sensitive_bin, non_sensitive_bin):
    return BatchRequest(
        attribute="A",
        cleartext_values=("w",),
        tokens=(SearchToken(payload=b"t"),),
        sensitive_bin_index=sensitive_bin,
        non_sensitive_bin_index=non_sensitive_bin,
    )


class TestAssignmentPolicies:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 7])
    def test_hash_assignment_total_and_in_range(self, num_shards):
        assignment = hash_shard_assignment(range(50), num_shards)
        assert sorted(assignment) == list(range(50))
        assert all(0 <= shard < num_shards for shard in assignment.values())

    def test_hash_assignment_independent_of_item_set(self):
        """Adding items never moves existing ones (stable under growth)."""
        small = hash_shard_assignment(range(10), 4)
        large = hash_shard_assignment(range(100), 4)
        assert all(large[item] == shard for item, shard in small.items())

    def test_hash_is_process_stable(self):
        """crc32-backed, not the salted builtin ``hash``."""
        assert stable_item_hash(3) == stable_item_hash(3)
        assert hash_shard_assignment(range(6), 3) == hash_shard_assignment(range(6), 3)

    def test_zero_shards_rejected(self):
        with pytest.raises(PartitioningError):
            hash_shard_assignment(range(3), 0)


class TestShardRouterPlacement:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("membership", MEMBERSHIPS)
    def test_every_bin_maps_to_exactly_one_shard(self, shape, membership):
        sensitive_bins, non_sensitive_bins, shards = shape
        router = _router(sensitive_bins, non_sensitive_bins, shards, membership)
        assignment = router.sensitive_assignment()
        assert sorted(assignment) == list(range(sensitive_bins))
        for bin_index in range(sensitive_bins):
            shard = router.shard_of_sensitive(bin_index)
            assert 0 <= shard < router.num_shards
            # the public accessor and the stored assignment agree
            assert shard == assignment[bin_index]
            # one live member holds the slice: the primary while it is
            # live, else the primary's ring successor
            [holder] = router.replicas_of_sensitive(bin_index)
            assert holder in router.live_members
            if shard in router.live_members:
                assert holder == shard
            else:
                assert holder == (shard + 1) % router.num_shards

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("membership", MEMBERSHIPS)
    def test_no_shard_receives_both_halves_of_any_bin_pair(self, shape, membership):
        """The non-collusion guarantee, exhaustively over all bin pairs."""
        sensitive_bins, non_sensitive_bins, shards = shape
        router = _router(sensitive_bins, non_sensitive_bins, shards, membership)
        for sensitive_bin in range(sensitive_bins):
            for non_sensitive_bin in range(non_sensitive_bins):
                sensitive_shard, cleartext_shard = router.route(
                    _request(sensitive_bin, non_sensitive_bin)
                )
                assert sensitive_shard is not None and cleartext_shard is not None
                assert sensitive_shard != cleartext_shard, (
                    f"pair ({sensitive_bin}, {non_sensitive_bin}) co-located "
                    f"on shard {sensitive_shard}"
                )
                assert {sensitive_shard, cleartext_shard} <= router.live_members

    @pytest.mark.parametrize("membership", MEMBERSHIPS)
    def test_unknown_bins_still_route_and_never_collude(self, membership):
        """Layout growth (incremental re-binning) must not break routing."""
        router = _router(4, 4, 3, membership)
        for sensitive_bin in range(4, 40):
            for non_sensitive_bin in range(4, 40):
                sensitive_shard, cleartext_shard = router.route(
                    _request(sensitive_bin, non_sensitive_bin)
                )
                assert sensitive_shard in router.live_members
                assert cleartext_shard in router.live_members
                assert sensitive_shard != cleartext_shard

    @pytest.mark.parametrize("membership", MEMBERSHIPS)
    def test_half_free_requests_route_partially(self, membership):
        router = _router(4, 4, 2, membership)
        token_only = BatchRequest(
            attribute="A", tokens=(SearchToken(payload=b"t"),), sensitive_bin_index=1
        )
        sensitive_shard, cleartext_shard = router.route(token_only)
        assert sensitive_shard is not None and cleartext_shard is None
        assert sensitive_shard in router.live_members
        # a cleartext half without a sensitive bin anchors on slot 0, and
        # still routes to a live member when slot 0 is lost
        cleartext_only = BatchRequest(
            attribute="A", cleartext_values=("w",), non_sensitive_bin_index=2
        )
        sensitive_shard, cleartext_shard = router.route(cleartext_only)
        assert sensitive_shard is None and cleartext_shard is not None
        assert cleartext_shard in router.live_members


class TestRebalancing:
    def test_rebalancing_is_deterministic(self):
        """Same layout + same count ⇒ same assignment, however you got there."""
        router = ShardRouter(10, 8, 3)
        grown = router.rebalanced(5)
        fresh = ShardRouter(10, 8, 5)
        assert grown.sensitive_assignment() == fresh.sensitive_assignment()
        # ...and shrinking back reproduces the original
        shrunk = grown.rebalanced(3)
        assert shrunk.sensitive_assignment() == router.sensitive_assignment()

    @pytest.mark.parametrize("membership", MEMBERSHIPS)
    def test_rebalanced_fleet_keeps_non_collusion(self, membership):
        if membership == "full":
            router = ShardRouter(6, 6, 2).rebalanced(4)
        else:
            # a fleet grown while it still carries a lost slot
            router = ShardRouter(6, 6, 2).rebalanced(5, live_members=range(1, 5))
        for sensitive_bin in range(6):
            for non_sensitive_bin in range(6):
                sensitive_shard, cleartext_shard = router.route(
                    _request(sensitive_bin, non_sensitive_bin)
                )
                assert sensitive_shard != cleartext_shard
                assert {sensitive_shard, cleartext_shard} <= router.live_members

    def test_hash_policy_rebalance_only_moves_bins_between_shard_counts(self):
        """Hash placement of a bin depends only on (bin, count) — the usual
        modular-rehash property — so two routers at the same count always
        agree even if their layouts differ in the *other* side's bin count."""
        first = ShardRouter(8, 3, 4)
        second = ShardRouter(8, 11, 4)
        assert first.sensitive_assignment() == second.sensitive_assignment()


class TestValidation:
    def test_single_shard_rejected(self):
        with pytest.raises(CloudError):
            ShardRouter(4, 4, 1)

    def test_fleet_rejects_mismatched_router(self):
        """A router sized for a different fleet must not silently misroute:
        bin slices do not migrate, so serving through it would return empty
        results (too few shards) or crash (too many)."""
        from repro.cloud.multi_cloud import MultiCloud

        fleet = MultiCloud(4)
        with pytest.raises(CloudError):
            fleet.process_batch([_request(0, 0)], ShardRouter(6, 6, 6))

    def test_counter_mutating_schemes_declare_concurrency_unsafe(self):
        """The fleet serialises members for schemes whose search() mutates
        shared counters; the declaration is what triggers that."""
        from repro.crypto.base import EncryptedSearchScheme
        from repro.crypto.deterministic import DeterministicScheme
        from repro.crypto.homomorphic import PaillierScheme
        from repro.crypto.secret_sharing import SecretSharingScheme

        assert EncryptedSearchScheme.concurrent_search_safe is True
        assert DeterministicScheme.concurrent_search_safe is True
        assert PaillierScheme.concurrent_search_safe is False
        assert SecretSharingScheme.concurrent_search_safe is False
