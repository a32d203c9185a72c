"""Sharded execution across multiple non-colluding clouds.

The paper's query-binning architecture assumes sensitive data can be spread
across clouds that do not collude.  This module provides the fleet-side half
of that architecture:

* :class:`MultiCloud` — a fixed set of :class:`CloudServer` members, each
  recording its *own* adversarial view, statistics, and network charges;
* :class:`ShardRouter` — the partition-aware placement function that assigns
  QB bins to members and routes request halves to them.

Placement
---------
Sensitive bin ``b`` has its primary on member ``crc32(b) % count``
(:func:`repro.data.partition.hash_shard_assignment`): placement of a bin is
independent of every other bin, so layouts that grow (incremental
re-binning) never move existing bins.

At outsourcing time every member receives the cleartext non-sensitive
relation (it is public) but only the encrypted rows of the sensitive bins the
router assigned to it, so a bin's whole slice — real and fake tuples alike —
lives on exactly one member and a bin retrieval never crosses servers.

The non-collusion model
-----------------------
A binned request has two halves: the opaque tokens for a sensitive bin and
the cleartext values of a non-sensitive bin.  Observing *both* halves of one
query is exactly what lets an adversary associate the two bins (the paper's
Table V leakage), so the router never co-locates them.  With
``replication_factor = k`` the router carves the member ring into two
segments *per sensitive bin* ``s`` with primary member ``p``:

* the **token segment** ``{p, p+1, ..., p+k-1}`` (mod count) — the primary
  and its ``k-1`` ring successors, the only members ever storing or serving
  ``s``'s encrypted slice (primary or replica);
* the **cleartext segment** ``{p+k, ..., p+count-1}`` (mod count) — the only
  members ever serving the cleartext half of a request anchored at ``s``;
  the router picks ``p + k + crc32(ns_bin) % (count - k)`` and failover
  walks the rest of the segment.

The two segments are disjoint by construction, so *no placement the fleet
can ever produce* — primary routing, replica storage, or failover — puts a
bin's token half and its paired cleartext traffic on the same member.  At
``k = 1`` this degrades to PR 2's offset rule exactly.  Each member records
views containing either tokens or cleartext values, never both, and the
fleet as a whole observes exactly the information a single server would have
observed — the parity tests in ``tests/test_multicloud_parity.py`` and the
exhaustive grid in ``tests/test_replica_router.py`` pin this down.

Fault tolerance
---------------
:meth:`MultiCloud.process_batch` survives member failures.  A member whose
batch raises :class:`~repro.exceptions.MemberFailure` (the crash signal; a
deterministic :class:`CloudError` such as a malformed request propagates
instead of masquerading as an outage) is retried up to ``member_retries``
times (transient faults), then added to the fleet's persistent
``failed_members`` set; every half it was serving is re-routed to the next
live candidate — sensitive halves walk the bin's replica chain, cleartext
halves walk the cleartext segment — and served in a follow-up wave.  A
crashed member is assumed to lose the volatile observations of its in-flight
batch (see :meth:`CloudServer.restore_observations`), so a degraded run
records exactly one view per half fleet-wide and aggregates to the same
statistics as a healthy run.  When a half's candidates are all dead the
batch raises :class:`~repro.exceptions.FleetDegradedError` instead of
hanging or silently dropping requests.

Concurrency and member backends
-------------------------------
:meth:`MultiCloud.process_batch` splits a batch per member and serves the
per-member batches concurrently.  Two backends place the member compute:

``member_backend="thread"`` (default)
    every member is an in-process :class:`CloudServer` served on a thread
    pool.  Cheap and zero-copy, but all members compute under the
    coordinator's GIL: CPU-bound cloud work (SSE trial decryption above
    all) is time-sliced, not parallel.  Members share one
    :class:`EncryptedSearchScheme` object (the keys are the owner's);
    schemes whose cloud-side matching mutates internal counters declare
    ``concurrent_search_safe = False`` and are served one member at a time
    rather than racing on ``+=``.

``member_backend="process"``
    every member's server lives in its own worker process behind a
    :class:`~repro.cloud.process_member.ProcessMemberProxy`.  Requests and
    responses are picklable wire types; observations sync back to the
    coordinator with every reply, so adversary/auditor code still sees
    exactly the single-server information split.  The coordinator threads
    release the GIL while waiting on worker pipes, which is what finally
    lets trial-decryption work scale with member count on multi-core
    hardware.  Each worker holds its *own* scheme copy, so
    ``concurrent_search_safe = False`` schemes need no serialisation (their
    internal work counters then tally per-worker work and are not synced
    back to the owner's scheme object).  Call :meth:`MultiCloud.close`
    (or use the fleet as a context manager) to reap the workers.

Either way each member's state is touched by only one worker at a time, and
each member processes its requests in arrival order, so per-server view
logs, statistics, and network charges are deterministic regardless of
scheduling.  The optional ``response_consumer`` runs in the *calling*
thread as members complete, which is what lets the query engine overlap
owner-side decryption with the remaining members' searches — under
failover it is invoked exactly once per half, whenever the half's serving
member (original or replica) completes.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.cloud.process_member import ProcessMemberProxy
from repro.cloud.server import BatchRequest, CloudServer, QueryResponse
from repro.cloud.storage import SliceMap
from repro.crypto.base import EncryptedRow, EncryptedSearchScheme
from repro.data.partition import (
    hash_shard_assignment,
    rendezvous_order,
    replica_chain,
    stable_item_hash,
)
from repro.data.relation import Relation, Row
from repro.exceptions import CloudError, FleetDegradedError, MemberFailure

#: (server index, absolute view-log position) where one request half was
#: served.
HalfPlacement = Optional[Tuple[int, int]]


@dataclass(frozen=True)
class FleetBatchReport:
    """How the last :meth:`MultiCloud.process_batch` call actually placed work.

    ``placements`` holds one ``(sensitive half, cleartext half)`` entry per
    input request, recording where each half was *finally served* after any
    failover, as ``(server index, absolute view-log position)``, or
    ``None`` for a half the request does not carry.  ``failed_members``
    holds the members newly detected as failed during this batch;
    ``rerouted_halves`` counts the halves that had to move to a replica.
    The fault-injection parity harness reads this to look up per-query views
    in a degraded run.
    """

    placements: Tuple[Tuple[HalfPlacement, HalfPlacement], ...]
    failed_members: frozenset
    rerouted_halves: int


@dataclass(frozen=True)
class FleetDeployment:
    """What the fleet was last outsourced with — the context membership
    changes need to initialise fresh members (join/replace) without a full
    re-outsource: the cleartext relation and index attribute every member
    mirrors, and the scheme whose cloud-side logic serves the slices."""

    attribute: str
    non_sensitive: Relation
    scheme: EncryptedSearchScheme


@dataclass
class _HalfUnit:
    """One request half in flight: its candidates and current assignee."""

    slot: int
    kind: str  # "sensitive" | "cleartext"
    request: BatchRequest
    candidates: Tuple[int, ...]
    attempt: int = 0
    member: int = -1


class ShardRouter:
    """Deterministic assignment of QB bins — and request halves — to members.

    Parameters
    ----------
    num_sensitive_bins / num_non_sensitive_bins:
        The bin counts of the layout being sharded.
    num_shards:
        Fleet size; at least ``replication_factor + 1``, because the token
        segment of every bin takes ``replication_factor`` members and the
        non-collusion guarantee needs at least one member left over for the
        cleartext half.
    replication_factor:
        How many members hold each sensitive bin's slice (primary included).
        ``1`` (the default) reproduces PR 2's unreplicated placement exactly;
        ``k ≥ 2`` tolerates ``k - 1`` failed members per bin.  Replicas are
        the primary's ring successors, which keeps them inside the bin's
        token segment — see the module docstring's non-collusion model.

    Bins outside the counts the router was built for (layouts can grow
    through incremental re-binning) fall back to hash placement, so routing
    stays total without rebuilding.

    ``live_members`` (default: every slot) restricts routing to a subset of
    the fleet's member slots — the elastic-fleet membership view.  Primaries
    keep their *static* slot assignment (so bins anchored on live members
    never move when an unrelated member dies), but chains walk the ring
    skipping non-live slots: a bin whose static chain touches a dead member
    extends to the next live successor, which is exactly where the lifecycle
    manager re-replicates its slice.  The cleartext segment becomes "every
    live member outside the bin's live chain", ordered by rendezvous hash
    after the static preferred pick — so a dead member's cleartext load
    spreads across all eligible survivors instead of piling onto one
    deterministic successor.  Full membership degrades to the static
    behaviour bit-for-bit.
    """

    def __init__(
        self,
        num_sensitive_bins: int,
        num_non_sensitive_bins: int,
        num_shards: int,
        replication_factor: int = 1,
        live_members: Optional[Sequence[int]] = None,
    ):
        if num_shards < 2:
            raise CloudError(
                "shard routing needs at least 2 servers so the cleartext half "
                f"never lands on the sensitive half's server (got {num_shards})"
            )
        if replication_factor < 1:
            raise CloudError(
                f"replication_factor must be at least 1, got {replication_factor}"
            )
        if num_shards < replication_factor + 1:
            raise CloudError(
                f"replication_factor={replication_factor} needs at least "
                f"{replication_factor + 1} servers — {replication_factor} token "
                "members per bin plus one member left over for the cleartext "
                f"half (got {num_shards})"
            )
        self.num_sensitive_bins = num_sensitive_bins
        self.num_non_sensitive_bins = num_non_sensitive_bins
        self.num_shards = num_shards
        self.replication_factor = replication_factor
        if live_members is None:
            self.live_members = frozenset(range(num_shards))
        else:
            self.live_members = frozenset(live_members)
            if not self.live_members <= frozenset(range(num_shards)):
                raise CloudError(
                    f"live_members {sorted(self.live_members)} outside the "
                    f"fleet's {num_shards} slots"
                )
            if len(self.live_members) < replication_factor + 1:
                raise CloudError(
                    f"{len(self.live_members)} live members cannot host "
                    f"replication_factor={replication_factor} plus a disjoint "
                    "cleartext member; replace failed members or lower the "
                    "replication factor"
                )
        self._full_membership = len(self.live_members) == num_shards
        self._sensitive_assignment: Dict[object, int] = hash_shard_assignment(
            range(num_sensitive_bins), num_shards
        )
        # The cleartext half is placed by an *offset into the cleartext
        # segment* of the anchoring sensitive member, never by an absolute
        # shard, so it can collide neither with the sensitive half nor with
        # any of its replicas, no matter which member owns the bin.  The raw
        # hash placement is kept (not the precomputed offset) so failover
        # can walk the rest of the segment deterministically from it.
        self._non_sensitive_raw: Dict[object, int] = hash_shard_assignment(
            range(num_non_sensitive_bins), num_shards
        )

    # -- bin-level placement -------------------------------------------------
    def shard_of_sensitive(self, bin_index: int) -> int:
        """The member owning (primary for) sensitive bin ``bin_index``."""
        shard = self._sensitive_assignment.get(bin_index)
        if shard is None:  # bin created after the router was built
            shard = stable_item_hash(bin_index) % self.num_shards
        return shard

    def _chain_from(self, primary: int) -> Tuple[int, ...]:
        """The live token chain anchored at slot ``primary``.

        Full membership: the static ring successors.  Partial membership:
        the first ``replication_factor`` *live* slots at or after
        ``primary`` on the ring — the chain a bin's slice is re-replicated
        onto after a member loss.
        """
        if self._full_membership:
            return replica_chain(primary, self.num_shards, self.replication_factor)
        collected: List[int] = []
        for offset in range(self.num_shards):
            member = (primary + offset) % self.num_shards
            if member in self.live_members:
                collected.append(member)
                if len(collected) == self.replication_factor:
                    break
        return tuple(collected)

    def replicas_of_sensitive(self, bin_index: Optional[int]) -> Tuple[int, ...]:
        """Every member holding bin ``bin_index``'s slice, primary first.

        This is the failover order for the bin's token half.  ``None`` (rows
        or requests without a bin annotation) anchors on member 0, matching
        :meth:`route` and the outsourcing path for unplaced rows.
        """
        primary = 0 if bin_index is None else self.shard_of_sensitive(bin_index)
        return self._chain_from(primary)

    def cleartext_candidates(
        self, bin_index: Optional[int], sensitive_shard: int
    ) -> Tuple[int, ...]:
        """The failover order for a cleartext half anchored at ``sensitive_shard``.

        All candidates lie in the anchor's cleartext segment (the live
        members minus the anchor's live token chain), so every choice —
        preferred or failover — is guaranteed disjoint from the bin's
        primary *and* replicas.  The first candidate is the static hash
        pick when it is eligible (healthy placement never moves); the rest
        are ordered by rendezvous hash per bin, so a failed member's
        cleartext traffic spreads over *all* eligible survivors instead of
        walking one deterministic successor.
        """
        window = self.num_shards - self.replication_factor
        if bin_index is None:
            raw = 0
        else:
            raw = self._non_sensitive_raw.get(bin_index)
            if raw is None:
                raw = stable_item_hash(bin_index)
        preferred = (
            sensitive_shard + self.replication_factor + raw % window
        ) % self.num_shards
        chain = set(self._chain_from(sensitive_shard))
        eligible = self.live_members - chain
        ordered: List[int] = []
        if preferred in eligible:
            ordered.append(preferred)
        ordered.extend(
            member
            for member in rendezvous_order(bin_index, sorted(eligible))
            if member != preferred
        )
        return tuple(ordered)

    def shard_of_non_sensitive(self, bin_index: Optional[int], sensitive_shard: int) -> int:
        """The preferred member for a cleartext half, guaranteed ≠ any token member."""
        return self.cleartext_candidates(bin_index, sensitive_shard)[0]

    def route_candidates(
        self, request: BatchRequest
    ) -> Tuple[Optional[Tuple[int, ...]], Optional[Tuple[int, ...]]]:
        """Ordered candidate members for each half of one request.

        First entries are the healthy-fleet placement (identical to
        :meth:`route`); the rest are the failover order.  A half the request
        does not carry maps to ``None``.
        """
        anchor = 0
        if request.sensitive_bin_index is not None:
            anchor = self.shard_of_sensitive(request.sensitive_bin_index)
        sensitive: Optional[Tuple[int, ...]] = None
        if request.has_sensitive_half:
            sensitive = self._chain_from(anchor)
        non_sensitive: Optional[Tuple[int, ...]] = None
        if request.has_non_sensitive_half:
            non_sensitive = self.cleartext_candidates(
                request.non_sensitive_bin_index, anchor
            )
        return sensitive, non_sensitive

    def route(self, request: BatchRequest) -> Tuple[Optional[int], Optional[int]]:
        """(sensitive member, cleartext member) for one request's halves.

        A half the request does not carry routes to ``None``.  Requests
        without a sensitive bin annotation (un-binned engines) anchor their
        sensitive half on member 0 so routing stays total.
        """
        sensitive, non_sensitive = self.route_candidates(request)
        return (
            sensitive[0] if sensitive is not None else None,
            non_sensitive[0] if non_sensitive is not None else None,
        )

    def rebalanced(
        self,
        num_shards: int,
        replication_factor: Optional[int] = None,
        live_members: Optional[Sequence[int]] = None,
    ) -> "ShardRouter":
        """The router for the same layout on a different fleet size.

        Pure function of (bin counts, count, replication factor,
        membership): rebalancing to ``k`` servers and back reproduces the
        original assignment — replica chains included — exactly.  The
        replication factor is preserved unless explicitly overridden;
        membership defaults to every slot of the new size (pass
        ``live_members`` when growing a fleet that still carries failed or
        departed slots).
        """
        return ShardRouter(
            self.num_sensitive_bins,
            self.num_non_sensitive_bins,
            num_shards,
            replication_factor=(
                self.replication_factor
                if replication_factor is None
                else replication_factor
            ),
            live_members=live_members,
        )

    def with_membership(self, live_members: Sequence[int]) -> "ShardRouter":
        """The same router restricted to ``live_members``.

        The elastic-fleet transition primitive: primaries stay on their
        static slots, chains and cleartext segments are recomputed over the
        live subset.  Routing through the result is only correct once the
        slices it promises have actually been migrated — use
        :class:`repro.cloud.lifecycle.FleetLifecycleManager`, which pairs
        every membership change with the matching slice migration.
        """
        return ShardRouter(
            self.num_sensitive_bins,
            self.num_non_sensitive_bins,
            self.num_shards,
            replication_factor=self.replication_factor,
            live_members=live_members,
        )

    def sensitive_assignment(self) -> Dict[int, int]:
        """A copy of the bin → primary member map (introspection / tests)."""
        return dict(self._sensitive_assignment)

    def replica_assignment(self) -> Dict[int, Tuple[int, ...]]:
        """The bin → (primary, replicas...) map (introspection / tests)."""
        return {
            bin_index: self.replicas_of_sensitive(bin_index)
            for bin_index in range(self.num_sensitive_bins)
        }


class MultiCloud:
    """A fixed set of non-colluding cloud servers.

    ``use_encrypted_indexes`` is forwarded to every member so a fleet can be
    configured exactly like the single reference server it is compared
    against.  ``server_factory`` lets tests substitute member
    implementations (e.g. the fault-injecting server); it receives the same
    keyword arguments :class:`CloudServer` takes.  ``member_retries`` is the
    per-member retry budget :meth:`process_batch` spends on a failing member
    before excluding it and failing its work over to replicas.

    ``member_backend`` selects where member compute runs: ``"thread"``
    keeps every member in-process (the default), ``"process"`` places each
    member's server in its own worker process behind a
    :class:`~repro.cloud.process_member.ProcessMemberProxy` so CPU-bound
    schemes escape the GIL — see the module docstring.  Process fleets own
    worker processes; call :meth:`close` (or use the fleet as a context
    manager) when done.

    ``failed_members`` persists across batches: once a member is excluded it
    receives no further work until the fleet is explicitly repaired
    (:meth:`mark_all_recovered`, e.g. after a re-outsourcing rebin replaces
    the member).
    """

    MEMBER_BACKENDS = ("thread", "process")

    def __init__(
        self,
        count: int = 2,
        use_encrypted_indexes: bool = True,
        server_factory: Optional[Callable[..., CloudServer]] = None,
        member_retries: int = 1,
        member_backend: str = "thread",
        rpc_timeout: Optional[float] = None,
        storage_backend: str = "memory",
        storage_dir: Optional[str] = None,
    ):
        if count < 2:
            raise CloudError("a multi-cloud deployment needs at least 2 servers")
        if member_retries < 0:
            raise CloudError(f"member_retries must be >= 0, got {member_retries}")
        if member_backend not in self.MEMBER_BACKENDS:
            raise CloudError(
                f"unknown member_backend {member_backend!r}; choose from "
                f"{list(self.MEMBER_BACKENDS)}"
            )
        # Member-construction config is retained: elastic membership ops
        # (add_member/replace_member) build new members identical to the
        # originals.
        self._server_factory = server_factory
        self._use_encrypted_indexes = use_encrypted_indexes
        self._rpc_timeout = rpc_timeout
        #: forwarded to every member (``"memory"`` or ``"sqlite"``); process
        #: members build their backend worker-side, so the database file
        #: lives in the worker process that serves it.
        self._storage_backend = storage_backend
        self._storage_dir = storage_dir
        self.member_backend = member_backend
        self.servers: List[CloudServer] = [
            self._new_member(index) for index in range(count)
        ]
        self.member_retries = member_retries
        self.failed_members: Set[int] = set()
        #: slots whose members left the fleet for good (graceful leave or
        #: loss without replacement).  Slots are stable identities — a
        #: departed slot is never reused except by replace_member — so
        #: reports, error maps, and router live sets stay index-consistent
        #: across membership churn.
        self.departed_members: Set[int] = set()
        self.last_report: Optional[FleetBatchReport] = None
        #: what outsource_sharded last deployed (fresh members need it)
        self.last_deployment: Optional[FleetDeployment] = None
        #: last crash observed per member, kept for diagnosis: a
        #: FleetDegradedError reports *why* the exhausted chain's candidates
        #: died instead of leaving only "all failed".
        self._member_errors: Dict[int, CloudError] = {}
        #: serializes whole batches (and observation resets) through the
        #: fleet: wave planning, per-wave snapshots, failover bookkeeping,
        #: and ``last_report`` all assume one batch in flight at a time.
        #: Re-entrant so fleet-level helpers can nest a batch.
        self._batch_lock = threading.RLock()

    def _new_member(self, index: int) -> CloudServer:
        """Build one member exactly as the constructor would have."""
        if self.member_backend == "process":
            return ProcessMemberProxy(
                name=f"cloud-{index}",
                server_factory=self._server_factory,
                rpc_timeout=self._rpc_timeout,
                use_encrypted_indexes=self._use_encrypted_indexes,
                storage_backend=self._storage_backend,
                storage_dir=self._storage_dir,
            )
        make_server = self._server_factory or CloudServer
        return make_server(
            name=f"cloud-{index}",
            use_encrypted_indexes=self._use_encrypted_indexes,
            storage_backend=self._storage_backend,
            storage_dir=self._storage_dir,
        )

    def __len__(self) -> int:
        return len(self.servers)

    def __getitem__(self, index: int) -> CloudServer:
        return self.servers[index]

    # -- lifecycle ----------------------------------------------------------------
    def close(self) -> None:
        """Release member resources (worker processes under ``"process"``).

        Idempotent; a thread-backed fleet has nothing to release.  Proxy
        mirrors (views, statistics, transfer totals) stay readable after close,
        so analysis code may inspect a closed fleet — it just cannot serve
        further batches.
        """
        for server in self.servers:
            close = getattr(server, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "MultiCloud":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    # -- elastic membership -------------------------------------------------------
    @property
    def live_members(self) -> FrozenSet[int]:
        """Slots currently part of the fleet (departed tombstones excluded).

        Failed-but-present members *are* live: they still hold their slices
        and may recover.  Routing excludes them transiently via
        ``failed_members``; only a departure (or replacement) changes the
        membership a router should be built for.
        """
        return frozenset(
            index
            for index in range(len(self.servers))
            if index not in self.departed_members
        )

    def _validate_slot(self, index: int) -> None:
        if not 0 <= index < len(self.servers):
            raise CloudError(
                f"no member slot {index}; fleet has slots 0..{len(self.servers) - 1}"
            )

    def add_member(self) -> int:
        """Append a fresh, empty member slot and return its index.

        The new member is built exactly like the originals (same backend,
        server factory, RPC timeout) but holds no data and is
        not yet part of any router's membership.  Pair with
        :meth:`FleetLifecycleManager.add_member <repro.cloud.lifecycle.FleetLifecycleManager.add_member>`,
        which initialises the member from :attr:`last_deployment`, migrates
        the bin slices the rebalanced router assigns it, and swaps routers —
        adding a raw slot without migrating is only safe for tests.
        """
        index = len(self.servers)
        self.servers.append(self._new_member(index))
        return index

    def remove_member(self, index: int) -> None:
        """Tombstone slot ``index``: the member leaves the fleet for good.

        The slot is *retained* (never reused, except by
        :meth:`replace_member`) so member indexes stay stable across churn —
        reports, error maps, and router live sets never need remapping.  The
        member's resources are released; its observation mirrors stay
        readable.  This does **not** migrate the member's slices — the
        lifecycle manager migrates first, then calls this.
        """
        self._validate_slot(index)
        if index in self.departed_members:
            raise CloudError(f"member {index} has already departed the fleet")
        self.departed_members.add(index)
        self.failed_members.discard(index)
        self._member_errors.pop(index, None)
        close = getattr(self.servers[index], "close", None)
        if close is not None:
            close()

    def replace_member(self, index: int) -> CloudServer:
        """Swap a fresh, empty member into slot ``index`` and return it.

        The old member (crashed, abandoned, or simply being rotated out) is
        released.  The fresh member starts *excluded* (in
        ``failed_members``): it holds none of the slot's slices yet, so
        routing to it would return wrong results.  Re-admit it with
        :meth:`mark_recovered` once its slices are restored — the lifecycle
        manager's ``replace_member`` does initialise + migrate + re-admit as
        one operation.
        """
        self._validate_slot(index)
        close = getattr(self.servers[index], "close", None)
        if close is not None:
            close()
        fresh = self._new_member(index)
        self.servers[index] = fresh
        self.departed_members.discard(index)
        self.failed_members.add(index)
        self._member_errors.pop(index, None)
        return fresh

    def _excluded(self, member: int) -> bool:
        """Whether routing must skip ``member`` (failed or departed)."""
        return member in self.failed_members or member in self.departed_members

    # -- outsourcing --------------------------------------------------------------
    def outsource_sharded(
        self,
        attribute: str,
        non_sensitive: Relation,
        slices: SliceMap,
        scheme: EncryptedSearchScheme,
        router: ShardRouter,
    ) -> None:
        """Shard the encrypted relation across members by sensitive bin.

        Every member receives the public cleartext relation (with a hash
        index over ``attribute``) and exactly the slices of the bins the
        router assigned to it — as primary or replica: under
        ``router.replication_factor = k`` each bin's whole slice (real and
        fake tuples alike) is stored identically on all ``k`` members of the
        bin's token segment, so any of them can serve a retrieval
        bit-identically.  ``slices`` maps each sensitive bin to its
        ciphertexts, fakes included.  Rows under ``None`` (stored without a
        bin) land on member 0's replica chain so no ciphertext is ever
        dropped, mirroring where their requests anchor.
        """
        if router.num_shards != len(self.servers):
            raise CloudError(
                f"router was built for {router.num_shards} shards, fleet has "
                f"{len(self.servers)}"
            )
        for index, (server, member_slices) in enumerate(
            zip(self.servers, self._member_slices(slices, router))
        ):
            if index in self.departed_members:
                continue
            server.store_non_sensitive(non_sensitive)
            server.store_sensitive(member_slices, scheme)
            server.build_index(attribute)
        # Retained so membership changes can initialise fresh members
        # (cleartext relation + scheme + index attribute) without a full
        # re-outsource; slices themselves migrate via the lifecycle manager.
        self.last_deployment = FleetDeployment(
            attribute=attribute, non_sensitive=non_sensitive, scheme=scheme
        )

    def _member_slices(
        self, slices: SliceMap, router: ShardRouter
    ) -> List[Dict[Optional[int], Sequence[EncryptedRow]]]:
        """Each member's slice map: every bin's slice goes, as one shared
        list, to each member of the bin's replica chain."""
        per_member: List[Dict[Optional[int], Sequence[EncryptedRow]]] = [
            {} for _ in self.servers
        ]
        for bin_index, rows in slices.items():
            for member in router.replicas_of_sensitive(bin_index):
                per_member[member][bin_index] = rows
        return per_member

    def append_sensitive_sharded(self, slices: SliceMap, router: ShardRouter) -> None:
        """Route freshly inserted ciphertexts to the members holding their bins.

        Replica-consistent: an insert reaches *every* member of its bin's
        replica chain in the same call, so primaries and replicas never
        diverge and a failover performed at any point between inserts
        returns exactly what the primary would have.
        """
        for index, (server, member_slices) in enumerate(
            zip(self.servers, self._member_slices(slices, router))
        ):
            if member_slices and index not in self.departed_members:
                server.append_sensitive(member_slices)

    def register_non_sensitive_row(self, row: Row) -> None:
        """Account for a cleartext row inserted into the shared relation."""
        for index, server in enumerate(self.servers):
            if index in self.departed_members:
                continue
            server.register_non_sensitive_row(row)

    # -- querying --------------------------------------------------------------------
    def _plan(
        self, requests: Sequence[BatchRequest], router: ShardRouter
    ) -> Tuple[List[_HalfUnit], List[Tuple[Optional[int], Optional[int]]]]:
        """Split a batch into half units carrying their failover candidates.

        Returns the units (in request order, sensitive half before cleartext
        half) and, per input request, the unit slots of its two halves.
        """
        if router.num_shards != len(self.servers):
            raise CloudError(
                f"router was built for {router.num_shards} shards, fleet has "
                f"{len(self.servers)}; resize with router.rebalanced() and "
                "re-outsource (bin slices do not migrate on their own)"
            )
        units: List[_HalfUnit] = []
        slot_pairs: List[Tuple[Optional[int], Optional[int]]] = []
        for request in requests:
            sensitive_candidates, cleartext_candidates = router.route_candidates(
                request
            )
            sensitive_slot: Optional[int] = None
            if sensitive_candidates is not None:
                sensitive_slot = len(units)
                units.append(
                    _HalfUnit(
                        slot=sensitive_slot,
                        kind="sensitive",
                        request=request.sensitive_half(),
                        candidates=sensitive_candidates,
                    )
                )
            cleartext_slot: Optional[int] = None
            if cleartext_candidates is not None:
                cleartext_slot = len(units)
                units.append(
                    _HalfUnit(
                        slot=cleartext_slot,
                        kind="cleartext",
                        request=request.non_sensitive_half(),
                        candidates=cleartext_candidates,
                    )
                )
            slot_pairs.append((sensitive_slot, cleartext_slot))
        return units, slot_pairs

    def _assign_live_member(self, unit: _HalfUnit) -> None:
        """Point ``unit`` at its first candidate not failed or departed."""
        while unit.attempt < len(unit.candidates):
            member = unit.candidates[unit.attempt]
            if not self._excluded(member):
                unit.member = member
                return
            unit.attempt += 1
        bin_index = (
            unit.request.sensitive_bin_index
            if unit.kind == "sensitive"
            else unit.request.non_sensitive_bin_index
        )
        # chain the most recent crash from the exhausted chain itself, not
        # whichever member happened to fail last fleet-wide
        cause: Optional[CloudError] = None
        for member in unit.candidates:
            if member in self._member_errors:
                cause = self._member_errors[member]
        causes = "; ".join(
            f"cloud-{member}: {str(self._member_errors[member])!r}"
            for member in unit.candidates
            if member in self._member_errors
        )
        raise FleetDegradedError(
            f"no live member can serve the {unit.kind} half for bin "
            f"{bin_index!r}: every candidate {list(unit.candidates)} has "
            f"failed (failed members: {sorted(self.failed_members)}"
            + (f"; member errors: {causes}" if causes else "")
            + "); raise replication_factor or replace the failed members and "
            "re-outsource"
        ) from cause

    def process_batch(
        self,
        requests: Sequence[BatchRequest],
        router: ShardRouter,
        response_consumer: Optional[
            Callable[[BatchRequest, QueryResponse], None]
        ] = None,
    ) -> List[QueryResponse]:
        """Serve a batch across the fleet concurrently; responses in input order.

        Each request is split into its sensitive and cleartext halves, the
        halves are routed by ``router``, and every member serves its slice
        through its own :meth:`CloudServer.process_batch` (keeping the
        per-member dedup, view, and accounting semantics) on a worker thread.
        ``response_consumer`` — when given — is invoked in the calling thread
        with each (half request, response) pair as soon as its member
        finishes, so the owner can decrypt one member's results while the
        others are still searching.

        Execution is wave-based so member failures never fail the batch: a
        member whose batch raises :class:`~repro.exceptions.MemberFailure`
        is retried up to the fleet's ``member_retries`` budget, then added
        to ``failed_members``;
        its halves advance along their candidate chains (replicas for token
        halves, the cleartext segment for cleartext halves) and are served in
        the next wave.  Only a half whose candidates are *all* failed raises
        :class:`~repro.exceptions.FleetDegradedError`.  A healthy fleet runs
        exactly one wave, identical to the pre-failover semantics.  The final
        placement of every half is recorded in :attr:`last_report`.

        The merged response for a request stitches its halves back together;
        the encrypted row list of the sensitive half is passed through *by
        identity*, so deduplicated retrievals stay shared and the owner can
        key decryption caches on it exactly as in the single-server batch
        path.

        One batch flows through the fleet at a time: the batch lock guards
        wave planning, per-wave snapshots, and ``last_report``, so concurrent
        sessions (service tenants sharing one fleet) queue here rather than
        corrupt each other's failover bookkeeping.
        """
        with self._batch_lock:
            return self._process_batch_locked(requests, router, response_consumer)

    def _process_batch_locked(
        self,
        requests: Sequence[BatchRequest],
        router: ShardRouter,
        response_consumer: Optional[
            Callable[[BatchRequest, QueryResponse], None]
        ] = None,
    ) -> List[QueryResponse]:
        # Invalidate up front: if this batch aborts (FleetDegradedError, a
        # mismatched router), a caller must not mistake the previous batch's
        # report for this one's.
        self.last_report = None
        units, slot_pairs = self._plan(requests, router)
        for unit in units:
            self._assign_live_member(unit)
        responses: List[Optional[QueryResponse]] = [None] * len(units)
        positions: List[HalfPlacement] = [None] * len(units)
        retries_left = {index: self.member_retries for index in range(len(self.servers))}
        failed_this_batch: Set[int] = set()
        rerouted = 0
        workers = len(self.servers)
        # Thread-backed members share one scheme object; schemes whose
        # search() mutates internal work counters declare themselves
        # concurrency-unsafe and get served one member at a time (correct
        # counters over overlap).  Process-backed members each hold their
        # own scheme copy, so no serialisation is needed there.
        if self.member_backend == "thread" and any(
            server.scheme is not None and not server.scheme.concurrent_search_safe
            for server in self.servers
        ):
            workers = 1
        pending = list(units)
        while pending:
            # Re-validate assignments at every wave boundary: a half
            # re-queued while its member still looked live may have lost
            # that member to an exclusion handled *later in the same wave*
            # (two members failing together); an excluded member must never
            # be handed further work.
            for unit in pending:
                if self._excluded(unit.candidates[unit.attempt]):
                    self._assign_live_member(unit)
                    rerouted += 1
            groups: Dict[int, List[_HalfUnit]] = {}
            for unit in pending:  # pending is kept in slot order
                groups.setdefault(unit.member, []).append(unit)
            # Absolute view-log base per member, read before any worker runs:
            # a member's log grows only under its own (single) worker.
            log_bases = {
                member: len(self.servers[member].view_log) for member in groups
            }
            # Pre-wave observation snapshots back the crash semantics for
            # *any* member implementation: whatever a member recorded before
            # raising is rolled back below, so a retried or re-routed half
            # can never be double-counted in views, statistics, or transfer
            # totals.  (The fault-injecting test server restores itself too —
            # the restore is idempotent against the same snapshot.)
            snapshots = {
                member: self.servers[member].observation_snapshot()
                for member in groups
            }
            next_pending: List[_HalfUnit] = []
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(
                        self.servers[member].process_batch,
                        [unit.request for unit in group],
                    ): member
                    for member, group in groups.items()
                }
                for future in as_completed(futures):
                    member = futures[future]
                    group = groups[member]
                    try:
                        member_responses = future.result()
                    except MemberFailure as error:
                        # Only crash signals trigger failover; a deterministic
                        # CloudError (malformed request, misconfiguration)
                        # propagates instead of poisoning healthy members'
                        # standing in failed_members.  The member's worker is
                        # done (the future resolved), so restoring its
                        # snapshot races with nothing.
                        self.servers[member].restore_observations(
                            snapshots[member]
                        )
                        self._member_errors[member] = error
                        if retries_left[member] > 0:
                            retries_left[member] -= 1
                        else:
                            self.failed_members.add(member)
                            failed_this_batch.add(member)
                        # re-routing (and its accounting) happens at the next
                        # wave boundary, where exclusions from the whole wave
                        # are known
                        next_pending.extend(group)
                        continue
                    for offset, (unit, response) in enumerate(
                        zip(group, member_responses)
                    ):
                        responses[unit.slot] = response
                        positions[unit.slot] = (member, log_bases[member] + offset)
                        if response_consumer is not None:
                            response_consumer(unit.request, response)
            next_pending.sort(key=lambda unit: unit.slot)
            pending = next_pending

        self.last_report = FleetBatchReport(
            placements=tuple(
                (
                    positions[sensitive_slot] if sensitive_slot is not None else None,
                    positions[cleartext_slot] if cleartext_slot is not None else None,
                )
                for sensitive_slot, cleartext_slot in slot_pairs
            ),
            failed_members=frozenset(failed_this_batch),
            rerouted_halves=rerouted,
        )

        # Member responses are interned per distinct request (repeated bin
        # pairs return the *same* response object), so the stitched whole
        # responses are memoised by half identity: steady-state repeats of a
        # bin pair share one merged response instead of re-allocating it per
        # query.  Consumers treat responses as read-only, exactly as they do
        # the member responses themselves.
        merged: List[QueryResponse] = []
        merged_memo: Dict[Tuple[int, int], QueryResponse] = {}
        for sensitive_slot, cleartext_slot in slot_pairs:
            sensitive_response: Optional[QueryResponse] = None
            if sensitive_slot is not None:
                sensitive_response = responses[sensitive_slot]
            non_sensitive_response: Optional[QueryResponse] = None
            if cleartext_slot is not None:
                non_sensitive_response = responses[cleartext_slot]
            memo_key = (id(sensitive_response), id(non_sensitive_response))
            whole = merged_memo.get(memo_key)
            if whole is None:
                whole = QueryResponse(
                    non_sensitive_rows=(
                        non_sensitive_response.non_sensitive_rows
                        if non_sensitive_response is not None
                        else []
                    ),
                    encrypted_rows=(
                        sensitive_response.encrypted_rows
                        if sensitive_response is not None
                        else []
                    ),
                    non_sensitive_scanned=(
                        non_sensitive_response.non_sensitive_scanned
                        if non_sensitive_response is not None
                        else 0
                    ),
                    sensitive_scanned=(
                        sensitive_response.sensitive_scanned
                        if sensitive_response is not None
                        else 0
                    ),
                    transfer_seconds=(
                        (sensitive_response.transfer_seconds if sensitive_response else 0.0)
                        + (
                            non_sensitive_response.transfer_seconds
                            if non_sensitive_response
                            else 0.0
                        )
                    ),
                )
                merged_memo[memo_key] = whole
            merged.append(whole)
        return merged

    # -- adversarial analysis -----------------------------------------------------------
    def total_transfer_tuples(self, direction: Optional[str] = None) -> int:
        """Tuples moved fleet-wide (parity comparisons vs. a single server)."""
        return sum(
            server.network.total_tuples(direction) for server in self.servers
        )

    def aggregate_stat(self, field_name: str) -> int:
        """Sum one :class:`CloudStatistics` counter across the fleet."""
        return sum(getattr(server.stats, field_name) for server in self.servers)

    def reset_observations(self) -> None:
        """Clear every member's views and counters (between experiments).

        Total over a churning fleet: a member discovered unreachable during
        the reset is excluded exactly like a mid-batch failure (and its
        local mirrors still cleared) instead of failing the fleet-wide
        reset — resets between workloads must not depend on every member
        being alive.
        """
        with self._batch_lock:
            self._reset_observations_locked()

    def _reset_observations_locked(self) -> None:
        for index, server in enumerate(self.servers):
            try:
                server.reset_observations()
            except CloudError as error:
                if index not in self.departed_members:
                    self.failed_members.add(index)
                    self._member_errors.setdefault(index, error)
                if getattr(server, "closed", False):
                    # the failed RPC marked the proxy closed; this pass is
                    # mirror-only and cannot raise again
                    server.reset_observations()

    def mark_recovered(self, index: int) -> None:
        """Forget one member's failed-member exclusion.

        Refuses members that *cannot* serve again no matter what the caller
        believes: departed slots (their data is gone with them) and
        process-backed members whose worker was abandoned — re-admitting
        either would hand queries to a member that answers wrongly or not at
        all.  Those slots are repaired with :meth:`replace_member` (which
        installs a fresh, markable member) instead.  A member that is merely
        *suspected* down is fine to re-admit: the next batch's
        retry/failover machinery re-detects (and re-excludes) it if the
        suspicion was right.
        """
        self._validate_slot(index)
        if index in self.departed_members:
            raise CloudError(
                f"member {index} has departed the fleet; departed slots are "
                "never re-admitted — join a fresh member with add_member or "
                "re-populate the slot with replace_member"
            )
        if getattr(self.servers[index], "closed", False):
            raise CloudError(
                f"member {index} was abandoned (its worker process is gone) "
                "and cannot serve again; swap in a fresh member with "
                "replace_member and restore its slices before re-admitting"
            )
        self.failed_members.discard(index)
        self._member_errors.pop(index, None)

    def mark_all_recovered(self) -> None:
        """Forget the exclusions of every *re-admittable* failed member.

        Call after the fleet has been repaired *and* re-outsourced — e.g. a
        re-binning rebuilds every member's slices from scratch, which is
        exactly a fleet redeployment.  Unlike the per-member
        :meth:`mark_recovered` this skips (rather than refuses) slots that
        can never serve again — departed members and abandoned workers —
        so a redeployment over a partially-elastic fleet still clears what
        it can; repair the skipped slots with :meth:`replace_member`.
        """
        for index in sorted(self.failed_members):
            if index in self.departed_members:
                continue
            if getattr(self.servers[index], "closed", False):
                continue
            self.mark_recovered(index)
