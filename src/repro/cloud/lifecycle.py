"""Elastic fleet lifecycle: health probes, membership churn, re-replication.

The multi-cloud's wave-based failover (:mod:`repro.cloud.multi_cloud`) keeps
a *batch* alive through member crashes, but it leaves the fleet degraded:
lost replicas stay lost, a dead member's slots stay dead, and redundancy
erodes with every loss until some bin's whole chain is gone.  This module
owns the *fleet* across those events.  A :class:`FleetLifecycleManager`
pairs every membership transition with the slice migration that makes the
new routing true, and re-proves the placement invariants over every
intermediate state:

* **Failure detection.**  :meth:`FleetLifecycleManager.probe` pings every
  member under a deadline; a wedged or dead member is excluded from routing
  (and a wedged process worker abandoned) before it can stall a batch.

* **Re-replication.**  After confirmed losses,
  :meth:`FleetLifecycleManager.restore_redundancy` rebuilds every bin's
  ``replication_factor``-way redundancy by copying the lost replicas' bin
  slices from surviving chain members onto the slices' new homes.

* **Runtime join / leave / replace.**
  :meth:`FleetLifecycleManager.add_member`,
  :meth:`FleetLifecycleManager.remove_member`, and
  :meth:`FleetLifecycleManager.replace_member` grow, shrink, and repair the
  fleet under load, migrating exactly the bin slices whose ownership moved —
  never a full re-outsource, never a re-bin.

Migration moves ciphertext slices between members byte-for-byte (storage
order within a bin is identical on every replica), so a degraded or
post-churn run stays *bit-identical* to a healthy one — results, adversary
views, and statistics alike.  Every transition is validated before the new
router is installed: storage non-collusion (no member stores a bin slice
outside the chains the router assigns it) and k-way redundancy per bin; a
violation raises instead of silently installing an unsafe ring.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.cloud.multi_cloud import MultiCloud, ShardRouter
from repro.exceptions import (
    CloudError,
    FleetDegradedError,
    SecurityViolation,
)


def _bin_order(bin_index: Optional[int]) -> Tuple[int, int]:
    """Sort key placing the unassigned pseudo-bin (``None``) first."""
    return (0, 0) if bin_index is None else (1, bin_index)


@dataclass(frozen=True)
class MigrationReport:
    """What one membership transition actually moved.

    ``copies`` holds one ``(source, target, bins)`` entry per executed slice
    transfer; ``drops`` one ``(member, bins)`` entry per slice removal.
    ``bins_copied`` counts (bin, target) pairs — the same bin landing on two
    new homes counts twice, mirroring the storage it creates.
    """

    copies: Tuple[Tuple[int, int, Tuple[Optional[int], ...]], ...]
    drops: Tuple[Tuple[int, Tuple[Optional[int], ...]], ...]
    rows_copied: int
    rows_dropped: int

    @property
    def bins_copied(self) -> int:
        return sum(len(bins) for _source, _target, bins in self.copies)

    @property
    def bins_dropped(self) -> int:
        return sum(len(bins) for _member, bins in self.drops)


class FleetLifecycleManager:
    """Drives one fleet's membership through failures, joins, and repairs.

    Parameters
    ----------
    fleet:
        The :class:`~repro.cloud.multi_cloud.MultiCloud` being managed.
    router:
        The fleet's current :class:`~repro.cloud.multi_cloud.ShardRouter`.
        Every transition replaces it (see ``on_router_change``); read the
        current one back from :attr:`router`.
    probe_timeout:
        Deadline in seconds for health probes; ``None`` uses each member's
        own RPC timeout.  Only process-backed members can enforce it —
        thread-backed members are alive by construction (Python threads
        cannot be killed, so a thread backend cannot wedge independently of
        the coordinator).
    on_router_change:
        Callback invoked with each newly installed router — the hook the
        query engine uses to start routing through the new membership.
    """

    def __init__(
        self,
        fleet: MultiCloud,
        router: ShardRouter,
        probe_timeout: Optional[float] = None,
        on_router_change: Optional[Callable[[ShardRouter], None]] = None,
    ):
        if router.num_shards != len(fleet):
            raise CloudError(
                f"router was built for {router.num_shards} slots, fleet has "
                f"{len(fleet)}"
            )
        self.fleet = fleet
        self.router = router
        self.probe_timeout = probe_timeout
        self._on_router_change = on_router_change
        #: migration reports in transition order (operational audit trail)
        self.history: List[MigrationReport] = []
        #: one membership transition (or probe sweep) at a time: health
        #: checks and migrations read-modify-write the fleet's exclusion
        #: sets and the installed router, which must change atomically.
        self._lock = threading.RLock()

    # -- health ---------------------------------------------------------------------
    def _is_open(self, index: int) -> bool:
        return not getattr(self.fleet.servers[index], "closed", False)

    def probe(self) -> Dict[int, bool]:
        """Ping every non-departed member; exclude the ones that fail.

        Returns slot → healthy.  A member that misses the deadline (its
        worker is then abandoned), is already closed, or errors out of the
        probe is added to the fleet's ``failed_members`` with the probe
        error recorded, so the next batch routes around it immediately
        instead of discovering the loss mid-wave.  A healthy reply does
        *not* re-admit an excluded member — recovery is an explicit
        decision (:meth:`~repro.cloud.multi_cloud.MultiCloud.mark_recovered`
        or :meth:`replace_member`).
        """
        with self._lock:
            health: Dict[int, bool] = {}
            for index in sorted(self.fleet.live_members):
                try:
                    self.fleet.servers[index].ping(timeout=self.probe_timeout)
                except CloudError as error:
                    health[index] = False
                    self.fleet.failed_members.add(index)
                    self.fleet._member_errors.setdefault(index, error)
                else:
                    health[index] = True
            return health

    def confirm_loss(self, index: int) -> None:
        """Declare member ``index`` permanently lost (no data movement yet).

        The slot is tombstoned — its member leaves the fleet for good and
        routing membership shrinks accordingly on the next transition.
        Follow with :meth:`restore_redundancy` to rebuild the redundancy the
        loss cost; or repair the slot with :meth:`replace_member` instead.
        """
        with self._lock:
            self.fleet.remove_member(index)

    # -- invariants -----------------------------------------------------------------
    def _participants(self) -> List[int]:
        """Members whose storage exists and is reachable: open, not departed.

        Suspected-failed members stay in — their storage is real and must be
        accounted for (a transient exclusion must not cause duplicate
        copies); members actually gone (closed workers, tombstoned slots)
        cannot hold anything reachable.
        """
        return [
            index
            for index in sorted(self.fleet.live_members)
            if self._is_open(index)
        ]

    def replication_health(self) -> Dict[Optional[int], int]:
        """Stored-replica count per sensitive bin across reachable members.

        A fully healthy fleet reports ``replication_factor`` for every bin;
        lower counts measure eroded redundancy, higher counts indicate a
        migration that has not dropped moved-away slices yet.
        """
        with self._lock:
            counts: Dict[Optional[int], int] = {}
            for index in self._participants():
                if index in self.fleet.failed_members:
                    continue
                for bin_index in self.fleet.servers[index].stored_sensitive_bins():
                    counts[bin_index] = counts.get(bin_index, 0) + 1
            return counts

    def prove_non_collusion(self, router: Optional[ShardRouter] = None) -> int:
        """Prove the routing non-collusion invariant over every bin pair.

        For every sensitive bin (the unassigned pseudo-bin included) and
        every non-sensitive bin, the cleartext candidate set must be
        non-empty and disjoint from the sensitive bin's token chain — no
        member may ever see both halves of a bin pair, under the healthy
        placement *or any failover choice*.  Returns the number of pairs
        proved; raises :class:`~repro.exceptions.SecurityViolation` on the
        first violating pair.
        """
        router = router or self.router
        sensitive_bins: List[Optional[int]] = [None]
        sensitive_bins.extend(range(router.num_sensitive_bins))
        non_sensitive_bins: List[Optional[int]] = [None]
        non_sensitive_bins.extend(range(router.num_non_sensitive_bins))
        proved = 0
        for sensitive_bin in sensitive_bins:
            chain = set(router.replicas_of_sensitive(sensitive_bin))
            anchor = (
                0
                if sensitive_bin is None
                else router.shard_of_sensitive(sensitive_bin)
            )
            for non_sensitive_bin in non_sensitive_bins:
                candidates = router.cleartext_candidates(non_sensitive_bin, anchor)
                if not candidates:
                    raise SecurityViolation(
                        f"bin pair ({sensitive_bin!r}, {non_sensitive_bin!r}) "
                        "has no eligible cleartext member — the membership "
                        "cannot host the pair without collusion"
                    )
                overlap = chain.intersection(candidates)
                if overlap:
                    raise SecurityViolation(
                        f"members {sorted(overlap)} are cleartext candidates "
                        f"for non-sensitive bin {non_sensitive_bin!r} while "
                        f"holding sensitive bin {sensitive_bin!r}'s token "
                        "slice — token and cleartext halves would co-locate"
                    )
                proved += 1
        return proved

    def _validate_transition(self, router: ShardRouter) -> None:
        """Prove storage matches ``router`` before installing it.

        Storage non-collusion: every reachable member stores only bin slices
        the router's chains assign it (a stray slice could meet the bin's
        cleartext traffic on the same member).  Redundancy: every stored bin
        is held by exactly ``replication_factor`` members.
        """
        participants = self._participants()
        holders: Dict[Optional[int], Set[int]] = {}
        for index in participants:
            stored = self.fleet.servers[index].stored_sensitive_bins()
            stray = [
                bin_index
                for bin_index in stored
                if index not in router.replicas_of_sensitive(bin_index)
            ]
            if stray:
                raise SecurityViolation(
                    f"member {index} stores bin slices "
                    f"{sorted(stray, key=_bin_order)} outside its token "
                    "chains — migration left a slice behind"
                )
            for bin_index in stored:
                holders.setdefault(bin_index, set()).add(index)
        expected = router.replication_factor
        for bin_index, members in sorted(holders.items(), key=lambda kv: _bin_order(kv[0])):
            if len(members) != expected:
                raise FleetDegradedError(
                    f"bin {bin_index!r} is stored on {len(members)} members "
                    f"{sorted(members)}, expected {expected}-way redundancy"
                )
        self.prove_non_collusion(router)

    # -- slice migration ------------------------------------------------------------
    def _initialise_member(self, index: int) -> None:
        """Bring a fresh, empty member up to deployment state (no slices)."""
        deployment = self.fleet.last_deployment
        if deployment is None:
            raise CloudError(
                "the fleet has no recorded deployment; outsource before "
                "performing membership changes"
            )
        server = self.fleet.servers[index]
        server.store_non_sensitive(deployment.non_sensitive)
        server.store_sensitive([], deployment.scheme)
        server.build_index(deployment.attribute)

    def _migrate_to(
        self,
        router: ShardRouter,
        populating: FrozenSet[int] = frozenset(),
        departing: FrozenSet[int] = frozenset(),
    ) -> MigrationReport:
        """Move bin slices until storage matches ``router``'s chains exactly.

        For every stored bin: members the new chain adds receive the slice
        (copied once from a surviving holder — preferring a chain member,
        then any healthy holder, then a suspected-failed one as last
        resort), and holders the chain no longer includes drop theirs.
        ``populating`` members are copy targets being brought up (never
        sources); ``departing`` members are sources only (no point dropping
        from a member about to leave).  All reads happen before any drop, so
        a member may simultaneously lose one bin and source another.
        """
        fleet = self.fleet
        participants = self._participants()
        stored = {
            index: set(fleet.servers[index].stored_sensitive_bins())
            for index in participants
        }
        all_bins = sorted(set().union(*stored.values()) if stored else (), key=_bin_order)
        # source → target → bins, and member → bins to drop
        copy_plan: Dict[int, Dict[int, List[Optional[int]]]] = {}
        drop_plan: Dict[int, List[Optional[int]]] = {}
        for bin_index in all_bins:
            chain = router.replicas_of_sensitive(bin_index)
            desired = set(chain)
            bin_holders = {index for index in participants if bin_index in stored[index]}
            missing = sorted(desired - bin_holders)
            if missing:
                unreachable = [
                    target
                    for target in missing
                    if target in fleet.departed_members or not self._is_open(target)
                ]
                if unreachable:
                    raise CloudError(
                        f"bin {bin_index!r} must be re-replicated onto "
                        f"{unreachable}, but those members are gone — confirm "
                        "their loss (restore_redundancy) or replace them first"
                    )
                healthy = [
                    index
                    for index in bin_holders - populating
                    if index not in fleet.failed_members
                ]
                in_chain = [member for member in chain if member in healthy]
                suspected = sorted(bin_holders - populating - set(healthy))
                source_order = in_chain + sorted(set(healthy) - set(in_chain)) + suspected
                if not source_order:
                    raise FleetDegradedError(
                        f"bin {bin_index!r} has no surviving replica to copy "
                        "from; its slice is lost — raise replication_factor "
                        "or restore the members holding it"
                    )
                source = source_order[0]
                for target in missing:
                    copy_plan.setdefault(source, {}).setdefault(target, []).append(
                        bin_index
                    )
            for member in sorted(bin_holders - desired - departing):
                drop_plan.setdefault(member, []).append(bin_index)

        copies: List[Tuple[int, int, Tuple[Optional[int], ...]]] = []
        rows_copied = 0
        # all slice reads happen up front: a source may also be dropping
        # bins, and a departing member may be released right after
        fetched: Dict[int, Tuple[list, Dict[int, int]]] = {}
        for source in sorted(copy_plan):
            union_bins = sorted(
                {b for bins in copy_plan[source].values() for b in bins},
                key=_bin_order,
            )
            fetched[source] = fleet.servers[source].sensitive_slice(union_bins)
        for source in sorted(copy_plan):
            rows, assignment = fetched[source]
            for target in sorted(copy_plan[source]):
                wanted = set(copy_plan[source][target])
                slice_rows = [
                    row for row in rows if assignment.get(row.rid) in wanted
                ]
                slice_assignment = {
                    rid: bin_index
                    for rid, bin_index in assignment.items()
                    if bin_index in wanted
                }
                fleet.servers[target].receive_migrated_slice(
                    slice_rows, bin_assignment=slice_assignment or None
                )
                copies.append(
                    (source, target, tuple(sorted(wanted, key=_bin_order)))
                )
                rows_copied += len(slice_rows)

        drops: List[Tuple[int, Tuple[Optional[int], ...]]] = []
        rows_dropped = 0
        for member in sorted(drop_plan):
            bins = sorted(set(drop_plan[member]), key=_bin_order)
            rows_dropped += fleet.servers[member].drop_sensitive_bins(bins)
            drops.append((member, tuple(bins)))

        report = MigrationReport(
            copies=tuple(copies),
            drops=tuple(drops),
            rows_copied=rows_copied,
            rows_dropped=rows_dropped,
        )
        self.history.append(report)
        return report

    def _install(self, router: ShardRouter) -> None:
        self._validate_transition(router)
        self.router = router
        if self._on_router_change is not None:
            self._on_router_change(router)

    # -- transitions ----------------------------------------------------------------
    def restore_redundancy(self) -> MigrationReport:
        """Confirm every excluded member lost and rebuild k-way redundancy.

        Members currently excluded (``failed_members``) or whose workers are
        gone are tombstoned; every bin slice they held is re-replicated onto
        the next live chain members, copied from surviving holders.  The
        routing membership shrinks to the survivors, and the new router is
        installed once storage (and the non-collusion proof) matches it.
        """
        with self._lock:
            fleet = self.fleet
            losses = [
                index
                for index in sorted(fleet.live_members)
                if index in fleet.failed_members or not self._is_open(index)
            ]
            for index in losses:
                fleet.remove_member(index)
            router = self.router.with_membership(sorted(fleet.live_members))
            report = self._migrate_to(router)
            self._install(router)
            return report

    def add_member(self) -> Tuple[int, MigrationReport]:
        """Join a fresh member and rebalance bin slices onto it.

        The member is initialised from the recorded deployment, receives
        every slice the rebalanced routing assigns it (copied from current
        holders), members whose chains shrank drop the moved slices, and the
        grown router is installed.  Returns ``(new slot, migration)``.
        """
        with self._lock:
            fleet = self.fleet
            index = fleet.add_member()
            self._initialise_member(index)
            router = self.router.rebalanced(
                len(fleet), live_members=sorted(fleet.live_members)
            )
            report = self._migrate_to(router, populating=frozenset({index}))
            self._install(router)
            return index, report

    def remove_member(self, index: int) -> MigrationReport:
        """Gracefully retire member ``index``, migrating its slices away first.

        The member serves as a migration source until its slices have new
        homes, then leaves the fleet for good (its slot is tombstoned).
        Use :meth:`confirm_loss` + :meth:`restore_redundancy` for members
        that are already gone.
        """
        with self._lock:
            fleet = self.fleet
            if index in fleet.departed_members:
                raise CloudError(
                    f"member {index} has already departed the fleet"
                )
            router = self.router.with_membership(
                sorted(fleet.live_members - {index})
            )
            report = self._migrate_to(router, departing=frozenset({index}))
            fleet.remove_member(index)
            self._install(router)
            return report

    def replace_member(self, index: int) -> MigrationReport:
        """Swap a fresh member into slot ``index`` and restore its slices.

        Covers both repairing a lost member and rotating a healthy one out.
        The fresh member is initialised from the recorded deployment, every
        slice the slot's chains assign it is copied from surviving holders,
        and only then is the slot re-admitted to routing.
        """
        with self._lock:
            fleet = self.fleet
            fleet.replace_member(index)
            self._initialise_member(index)
            router = self.router.with_membership(sorted(fleet.live_members))
            report = self._migrate_to(router, populating=frozenset({index}))
            fleet.mark_recovered(index)
            self._install(router)
            return report
