"""End-to-end query engines over a partitioned relation.

Two engines are provided:

* :class:`QueryBinningEngine` — the paper's contribution: builds bins at
  setup time, pads sensitive bins with fake encrypted tuples when needed,
  outsources both partitions, and answers selection queries by retrieving the
  bin pair chosen by Algorithm 2 and merging/filtering at the owner.
* :class:`NaivePartitionedEngine` — the insecure strawman of §II
  (Example 2 / Table II): the same partitioned storage, but each query is sent
  as-is to both partitions, which leaks associations through the adversarial
  view.  It exists so the examples, tests, and security benchmarks can contrast
  the two.
"""

from __future__ import annotations

import itertools
import random
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cloud.lifecycle import FleetLifecycleManager
from repro.cloud.multi_cloud import MultiCloud, ShardRouter
from repro.cloud.server import BatchRequest, CloudServer, QueryResponse
from repro.core.binning import create_bins, layout_covers_all_bin_pairs
from repro.core.bins import BinLayout
from repro.core.general_binning import create_general_bins
from repro.core.metadata import OwnerMetadata
from repro.core.planner import BinningPlan, plan_binning
from repro.core.retrieval import BinRetriever, RetrievalDecision
from repro.crypto.base import EncryptedRow, EncryptedSearchScheme
from repro.data.partition import PartitionResult
from repro.data.relation import Row
from repro.exceptions import ConfigurationError
from repro.query.merge import group_rows_by_value, merge_results
from repro.query.selection import BinnedQuery, SelectionQuery


@dataclass
class ExecutionTrace:
    """Per-query accounting returned by ``query_with_trace``."""

    query: SelectionQuery
    binned: Optional[BinnedQuery]
    sensitive_values_requested: int
    non_sensitive_values_requested: int
    encrypted_rows_returned: int
    non_sensitive_rows_returned: int
    rows_after_merge: int
    transfer_seconds: float

    @property
    def total_rows_returned(self) -> int:
        return self.encrypted_rows_returned + self.non_sensitive_rows_returned


class _PartitionedEngineBase:
    """Shared plumbing: outsourcing and owner-side decryption/merging."""

    def __init__(
        self,
        partition: PartitionResult,
        attribute: str,
        scheme: EncryptedSearchScheme,
        cloud: Optional[CloudServer] = None,
    ):
        self.partition = partition
        self.attribute = attribute
        self.scheme = scheme
        self.cloud = cloud or CloudServer()
        #: the per-tenant engine lock: one owner-side operation (setup,
        #: query, workload, insert) at a time.  The owner memo is read and
        #: filled by queries and *cleared* by inserts; without this lock a
        #: mid-query insert from a second session can clear a memo the
        #: query is iterating.  Inserts also place new values into the
        #: layout under it.  Re-entrant: the query pipeline nests the
        #: locked rewrite helpers, and the scheme/metadata objects are
        #: owned by exactly one engine.
        self._lock = threading.RLock()
        self._outsourced = False
        self._fake_rid_counter = itertools.count(start=-1, step=-1)

    # -- owner-side helpers ------------------------------------------------------
    def _encrypt_sensitive_rows(self) -> List[EncryptedRow]:
        rows = list(self.partition.sensitive.rows)
        if not rows:
            return []
        return self.scheme.encrypt_rows(rows, self.attribute)

    def _make_fake_rows(
        self, layout: BinLayout
    ) -> Tuple[List[EncryptedRow], List[int]]:
        """Create the padding tuples the general case requires.

        Each sensitive bin with a deficit receives fake tuples whose searched
        attribute equals one of the bin's values, so retrieving the bin always
        returns the same (padded) number of encrypted rows.  All fake source
        rows are built first and encrypted in a single batch call; the second
        return value gives each fake's sensitive bin index (parallel to the
        first), which places it in the cloud's store.
        """
        sources: List[Row] = []
        source_bins: List[int] = []
        sensitive_rows = list(self.partition.sensitive.rows)
        template_by_value: Dict[object, Row] = {}
        for row in sensitive_rows:
            template_by_value.setdefault(row[self.attribute], row)
        default_template = sensitive_rows[0] if sensitive_rows else None
        for bin_ in layout.sensitive_bins:
            deficit = layout.fake_tuples.get(bin_.index, 0)
            if deficit <= 0 or not bin_.values:
                continue
            anchor_value = bin_.values[0]
            base = template_by_value.get(anchor_value, default_template)
            if base is None:
                continue
            for _ in range(deficit):
                values = dict(base.values)
                values[self.attribute] = anchor_value
                sources.append(
                    Row(rid=next(self._fake_rid_counter), values=values, sensitive=True)
                )
                source_bins.append(bin_.index)
        if not sources:
            return [], []
        return self.scheme.make_fake_rows(self.attribute, sources), source_bins

    def _decrypt_and_merge(
        self, query: SelectionQuery, response: QueryResponse
    ) -> List[Row]:
        sensitive_rows = self.scheme.decrypt_rows(response.encrypted_rows)
        return merge_results(query, sensitive_rows, response.non_sensitive_rows)

    # -- trace construction ----------------------------------------------------------
    @staticmethod
    def _empty_trace(query: SelectionQuery) -> ExecutionTrace:
        """The trace of a query whose value retrieves nothing (rule 'none')."""
        return ExecutionTrace(
            query=query,
            binned=None,
            sensitive_values_requested=0,
            non_sensitive_values_requested=0,
            encrypted_rows_returned=0,
            non_sensitive_rows_returned=0,
            rows_after_merge=0,
            transfer_seconds=0.0,
        )

    @staticmethod
    def _trace_for(
        query: SelectionQuery,
        decision: RetrievalDecision,
        response: QueryResponse,
        rows_after_merge: int,
    ) -> ExecutionTrace:
        """The trace of an executed retrieval (one construction site for all paths)."""
        binned = BinnedQuery(
            original=query,
            sensitive_values=decision.sensitive_values,
            non_sensitive_values=decision.non_sensitive_values,
            sensitive_bin_index=decision.sensitive_bin_index,
            non_sensitive_bin_index=decision.non_sensitive_bin_index,
        )
        return ExecutionTrace(
            query=query,
            binned=binned,
            sensitive_values_requested=len(decision.sensitive_values),
            non_sensitive_values_requested=len(decision.non_sensitive_values),
            encrypted_rows_returned=len(response.encrypted_rows),
            non_sensitive_rows_returned=len(response.non_sensitive_rows),
            rows_after_merge=rows_after_merge,
            transfer_seconds=response.transfer_seconds,
        )


class QueryBinningEngine(_PartitionedEngineBase):
    """The Query Binning execution engine.

    Typical usage::

        engine = QueryBinningEngine(partition, attribute="EId", scheme=scheme)
        engine.setup()
        rows = engine.query("E259")

    Parameters
    ----------
    partition:
        The sensitive/non-sensitive split produced by the owner.
    attribute:
        The searchable attribute bins are built for.
    scheme:
        The cryptographic technique protecting the sensitive partition.
    cloud:
        The (simulated) public cloud; a fresh one is created when omitted.
    add_fake_tuples:
        Whether to pad sensitive bins to equal tuple counts (general case).
    rng / permutation_seed:
        Deterministic control over the secret permutation, for tests and
        reproducible benchmarks.
    force_strategy / force_layout:
        Overrides forwarded to the planner (used by the Figure 6c sweep).
    multi_cloud / shard_policy:
        Attaching a :class:`MultiCloud` makes ``setup()`` additionally shard
        the encrypted relation across its members (bins assigned by a
        :class:`ShardRouter` under ``shard_policy``) and unlocks
        ``execute_workload(..., placement="sharded")``, which fans request
        halves out to the fleet concurrently.  The single ``cloud`` server
        stays fully populated either way — it is the sequential reference
        the parity tests compare the fleet against.
    replication_factor:
        How many fleet members hold each sensitive bin's slice (primary
        included).  ``k ≥ 2`` lets sharded execution survive up to ``k - 1``
        member failures per bin: the fleet re-routes a failed member's
        in-flight halves to a live replica mid-batch with results, views,
        and statistics identical to a healthy run (degraded mode).  Replica
        placement never co-locates a bin's token slice with its paired
        cleartext traffic, so replication preserves the non-collusion
        guarantee; it costs ``k``× cloud-side ciphertext storage.
    """

    def __init__(
        self,
        partition: PartitionResult,
        attribute: str,
        scheme: EncryptedSearchScheme,
        cloud: Optional[CloudServer] = None,
        add_fake_tuples: bool = True,
        rng: Optional[random.Random] = None,
        permutation_seed: Optional[int] = None,
        force_strategy: Optional[str] = None,
        force_layout: Optional[Tuple[int, int]] = None,
        multi_cloud: Optional[MultiCloud] = None,
        shard_policy: str = "hash",
        replication_factor: int = 1,
    ):
        super().__init__(partition, attribute, scheme, cloud)
        self.add_fake_tuples = add_fake_tuples
        self.multi_cloud = multi_cloud
        self.shard_policy = shard_policy
        self.replication_factor = replication_factor
        self.shard_router: Optional[ShardRouter] = None
        self._lifecycle: Optional[FleetLifecycleManager] = None
        self._rng = rng if rng is not None else (
            random.Random(permutation_seed) if permutation_seed is not None else None
        )
        self._force_strategy = force_strategy
        self._force_layout = force_layout
        self.metadata: Optional[OwnerMetadata] = None
        self.plan: Optional[BinningPlan] = None
        self.layout: Optional[BinLayout] = None
        self.retriever: Optional[BinRetriever] = None
        self.fake_rows_outsourced = 0
        # The owner memo.  Under Algorithm 2 every value of a bin pair maps
        # to the same retrieval, so a query's decision, request, tokens and
        # decrypted rows are functions of the layout and the scheme's owner
        # metadata, and the layout bounds each dict: one entry per layout
        # value, sensitive bin, or bin pair.  ``_invalidate`` is the only
        # code that clears them.
        #: query value -> decision; only decisions that retrieve something
        self._decisions: Dict[object, RetrievalDecision] = {}
        #: sensitive bin -> token tuple, shared by all the bin's requests
        self._token_cache: Dict[int, Tuple] = {}
        #: bin pair -> interned request; the cloud's retrieval interning
        #: and the fleet's half splitting then hit by object identity
        self._request_cache: Dict[Tuple[int, int], BatchRequest] = {}
        #: sensitive bin -> decrypted rows; a bin's padded ciphertext set is
        #: fixed between sensitive inserts, whichever placement served it
        self._decrypted_bin_cache: Dict[int, List[Row]] = {}
        #: the ``layout.version`` the memo was filled under
        self._memo_version: Optional[int] = None

    def _invalidate(self) -> None:
        """Clear the owner memo; the only code that does.

        Runs on ``setup()`` (a new layout), on sensitive inserts (the
        scheme's owner metadata and the bins' ciphertexts change), and when
        :meth:`build_requests` finds ``layout.version`` changed (an insert
        placed a new value in place).
        """
        self._decisions.clear()
        self._token_cache.clear()
        self._request_cache.clear()
        self._decrypted_bin_cache.clear()
        self._memo_version = self.layout.version if self.layout is not None else None

    # -- setup -----------------------------------------------------------------------
    def setup(self) -> "QueryBinningEngine":
        """Build metadata and bins, encrypt, and outsource both partitions."""
        with self._lock:
            return self._setup_locked()

    def _setup_locked(self) -> "QueryBinningEngine":
        sensitive_counts = dict(self.partition.sensitive.value_counts(self.attribute))
        non_sensitive_counts = dict(
            self.partition.non_sensitive.value_counts(self.attribute)
        )
        self.metadata = OwnerMetadata.from_counts(
            self.attribute, sensitive_counts, non_sensitive_counts
        )
        self.plan = plan_binning(
            self.metadata,
            force_strategy=self._force_strategy,
            force_layout=self._force_layout,
        )

        self.layout = self._build_layout(
            sensitive_counts,
            non_sensitive_counts,
            (self.plan.num_sensitive_bins, self.plan.num_non_sensitive_bins),
        )
        if self._force_layout is None and not layout_covers_all_bin_pairs(self.layout):
            # The planner's preferred (e.g. nearest-square) layout cannot keep
            # every sensitive bin associated with every non-sensitive bin for
            # this data; fall back to the exact factorisation, which always
            # can (every non-sensitive bin is completely full).
            self.layout = self._build_layout(sensitive_counts, non_sensitive_counts, None)
        self.metadata.layout = self.layout
        self.metadata.strategy = self.plan.strategy
        self.retriever = BinRetriever(self.layout)
        self._invalidate()

        encrypted = self._encrypt_sensitive_rows()
        # The bin assignment groups the cloud's store by sensitive bin and
        # places rows on the shard router's members.
        bin_assignment: Dict[int, int] = {}
        for row in self.partition.sensitive.rows:
            location = self.layout.locate_sensitive(row[self.attribute])
            if location is not None:
                bin_assignment[row.rid] = location[0]
        if self.add_fake_tuples:
            fakes, fake_bins = self._make_fake_rows(self.layout)
            self.fake_rows_outsourced = len(fakes)
            for fake, bin_index in zip(fakes, fake_bins):
                bin_assignment[fake.rid] = bin_index
            encrypted = encrypted + fakes

        self.cloud.store_non_sensitive(self.partition.non_sensitive)
        self.cloud.store_sensitive(encrypted, self.scheme, bin_assignment)
        self.cloud.build_index(self.attribute)
        if self.multi_cloud is not None:
            self.shard_router = ShardRouter(
                self.layout.num_sensitive_bins,
                self.layout.num_non_sensitive_bins,
                len(self.multi_cloud),
                policy=self.shard_policy,
                replication_factor=self.replication_factor,
                # a fleet that has seen membership churn keeps its departed
                # slots tombstoned; route (and outsource) around them
                live_members=sorted(self.multi_cloud.live_members),
            )
            self.multi_cloud.outsource_sharded(
                self.attribute,
                self.partition.non_sensitive,
                encrypted,
                self.scheme,
                bin_assignment,
                self.shard_router,
            )
        self._outsourced = True
        return self

    def fleet_lifecycle(
        self,
        probe_timeout: Optional[float] = None,
    ) -> FleetLifecycleManager:
        """The lifecycle manager driving this engine's fleet membership.

        Cached per fleet: repeated calls return the same manager (so its
        transition history accumulates), re-synced to the engine's current
        router — a ``setup()`` re-run (re-binning) replaces the router, and
        the manager must drive transitions from the fresh one.  Router
        changes the manager performs are adopted by the engine immediately,
        so sharded execution routes through the new membership from the next
        batch on.  ``probe_timeout`` applies when the manager is (re)built,
        not retroactively.
        """
        if self.multi_cloud is None:
            raise ConfigurationError(
                "fleet lifecycle management requires a MultiCloud attached "
                "at construction"
            )
        if self.shard_router is None:
            raise ConfigurationError("call setup() before managing the fleet")
        manager = self._lifecycle
        if manager is None or manager.fleet is not self.multi_cloud:
            fleet = self.multi_cloud

            def adopt_router(router: ShardRouter) -> None:
                self.shard_router = router

            manager = FleetLifecycleManager(
                fleet,
                self.shard_router,
                probe_timeout=probe_timeout,
                on_router_change=adopt_router,
            )
            self._lifecycle = manager
        elif manager.router is not self.shard_router:
            manager.router = self.shard_router
        return manager

    def _build_layout(
        self,
        sensitive_counts: Dict[object, int],
        non_sensitive_counts: Dict[object, int],
        bin_counts: Optional[Tuple[int, int]],
    ) -> BinLayout:
        """Build a layout with explicit bin counts, or with the defaults."""
        assert self.plan is not None
        num_sensitive_bins, num_non_sensitive_bins = bin_counts or (None, None)
        if self.plan.strategy == "base":
            return create_bins(
                list(sensitive_counts),
                list(non_sensitive_counts),
                num_sensitive_bins=num_sensitive_bins,
                num_non_sensitive_bins=num_non_sensitive_bins,
                rng=self._rng,
                attribute=self.attribute,
            )
        result = create_general_bins(
            sensitive_counts,
            non_sensitive_counts,
            num_sensitive_bins=num_sensitive_bins,
            num_non_sensitive_bins=num_non_sensitive_bins,
            rng=self._rng,
            attribute=self.attribute,
        )
        return result.layout

    def _require_setup(self) -> None:
        if not self._outsourced or self.retriever is None:
            raise ConfigurationError("call setup() before issuing queries")

    # -- querying -----------------------------------------------------------------------
    def rewrite(self, value: object) -> BinnedQuery:
        """Expose the QB rewriting of a query (without executing it)."""
        with self._lock:
            self._require_setup()
            assert self.retriever is not None
            return self.retriever.rewrite(SelectionQuery(self.attribute, value))

    def query(self, value: object) -> List[Row]:
        """Answer ``SELECT * WHERE attribute = value`` securely."""
        rows, _trace = self.query_with_trace(value)
        return rows

    def query_with_trace(self, value: object) -> Tuple[List[Row], ExecutionTrace]:
        """Answer a query and return the execution trace for cost accounting."""
        return self._execute([value], "sequential")[0]

    def _decrypt_bin(
        self, sensitive_bin_index: int, encrypted_rows: Sequence[EncryptedRow]
    ) -> List[Row]:
        """Sensitive bin ``sensitive_bin_index``'s decrypted rows, decrypted
        at most once between invalidations."""
        rows = self._decrypted_bin_cache.get(sensitive_bin_index)
        if rows is None:
            rows = self.scheme.decrypt_rows(encrypted_rows)
            self._decrypted_bin_cache[sensitive_bin_index] = rows
        return rows

    def tokens_for_decision(self, decision: RetrievalDecision) -> Tuple:
        """Search tokens for a retrieval decision, memoized per sensitive bin.

        Every query landing on sensitive bin ``i`` requests the same value
        set, so its token tuple is computed once and shared by all of the
        bin's requests until the owner memo is invalidated.
        """
        with self._lock:
            if not decision.sensitive_values:
                return ()
            bin_index = decision.sensitive_bin_index
            tokens = self._token_cache.get(bin_index)
            if tokens is None:
                tokens = tuple(
                    self.scheme.tokens_for_values(
                        list(decision.sensitive_values), self.attribute
                    )
                )
                self._token_cache[bin_index] = tokens
            return tokens

    def request_for_decision(self, decision: RetrievalDecision) -> BatchRequest:
        """The interned cloud request for one retrieval decision.

        A bin pair's request is a pure function of the layout (value sets)
        and the scheme's owner metadata (tokens), so the same frozen
        :class:`BatchRequest` object is reused for every query answered from
        the pair — steady-state queries rewrite with zero tuple building,
        and downstream consumers (the cloud's retrieval interning, the
        fleet's half splitting) hit their caches by object identity.
        """
        with self._lock:
            key = (decision.sensitive_bin_index, decision.non_sensitive_bin_index)
            request = self._request_cache.get(key)
            if request is None:
                request = BatchRequest(
                    attribute=self.attribute,
                    cleartext_values=decision.non_sensitive_values,
                    tokens=self.tokens_for_decision(decision),
                    sensitive_bin_index=decision.sensitive_bin_index,
                    non_sensitive_bin_index=decision.non_sensitive_bin_index,
                )
                self._request_cache[key] = request
            return request

    def build_requests(
        self, values: Sequence[object]
    ) -> Tuple[List[BatchRequest], List[Optional[RetrievalDecision]]]:
        """Owner-side rewrite of a workload into cloud batch requests.

        Returns the request list plus, per input value, the retrieval
        decision (``None`` when the value retrieves nothing — such values
        produce no request).  Every query runs through it, whatever its
        placement, and the benchmark harness sends the same request stream.
        Decisions and requests are memoized, so a steady-state workload
        rewrite is a decision memo probe plus a request memo probe per
        query.  Values that retrieve nothing are not memoized: values arrive
        from outside, and the memo must stay bounded by the layout.
        """
        with self._lock:
            self._require_setup()
            assert self.layout is not None and self.retriever is not None
            if self._memo_version != self.layout.version:
                self._invalidate()
            decisions = self._decisions
            retrieve = self.retriever.retrieve
            requests: List[BatchRequest] = []
            slots: List[Optional[RetrievalDecision]] = []
            for value in values:
                decision = decisions.get(value)
                if decision is None:
                    decision = retrieve(value)
                    if not decision.retrieves_anything:
                        slots.append(None)
                        continue
                    decisions[value] = decision
                requests.append(self.request_for_decision(decision))
                slots.append(decision)
            return requests, slots

    def execute_workload(
        self, values: Iterable[object], placement: str = "batched"
    ) -> List[ExecutionTrace]:
        """Run a sequence of selection queries; returns their traces.

        Every placement runs the same pipeline: one rewrite
        (:meth:`build_requests`), one fetch of the cloud's responses, and
        one loop that decrypts, merges, and builds the traces.
        ``placement`` decides only how the responses are fetched:

        ``"sequential"``
            one :meth:`CloudServer.serve` call per query, the path a single
            :meth:`query` takes; use it when timing individual queries.
        ``"batched"``
            the whole workload through one :meth:`CloudServer.process_batch`
            call, whose query ids (and view order) stay contiguous even when
            other sessions share the cloud.
        ``"sharded"``
            the workload fanned out across the attached :class:`MultiCloud`:
            request halves are routed to non-colluding members by the
            :class:`ShardRouter` and served concurrently, and owner-side
            decryption of finished members overlaps the remaining members'
            searches.

        The cloud interns retrievals for every placement, so each distinct
        bin-pair retrieval is computed once whichever is chosen.  Traces,
        per-query results, adversarial views, and statistics are
        placement-invariant (the parity suite pins this); only wall-clock
        work placement differs.  Sharded execution contacts two servers per
        query, so each trace carries one extra round-trip latency in
        ``transfer_seconds`` — tuple transfer counts are identical.
        """
        return [trace for _rows, trace in self._execute(values, placement)]

    def execute_workload_with_rows(
        self, values: Iterable[object], placement: str = "batched"
    ) -> List[Tuple[List[Row], ExecutionTrace]]:
        """Like :meth:`execute_workload`, also returning each query's rows.

        The parity test harness uses this to assert result equality across
        placements without issuing extra (view-recording) queries.
        """
        return self._execute(values, placement)

    def _execute(
        self, values: Iterable[object], placement: str
    ) -> List[Tuple[List[Row], ExecutionTrace]]:
        """The one query pipeline: rewrite, fetch, then decrypt/merge/trace."""
        if placement not in ("sequential", "batched", "sharded"):
            raise ConfigurationError(
                f"unknown placement {placement!r}; choose from "
                "'sequential', 'batched', 'sharded'"
            )
        with self._lock:
            values = list(values)
            requests, slots = self.build_requests(values)
            responses = iter(self._fetch(placement, requests))

            # Per-workload grouped-bin memo: a hot bin's rows are indexed by
            # value once, so the per-query merge is two dict probes + a union
            # over the matching rows instead of a linear rescan of both bins
            # (the owner-side hot loop under skewed workloads).  Keyed by
            # *bin index*: a bin's contents are fixed for the duration of a
            # workload run, and many distinct bin *pairs* share a half —
            # keying by response row list would re-group a hot
            # non-sensitive bin once per pair it appears in.  Grouping costs
            # about two linear scans, so a bin is only grouped when the
            # workload lands on it often enough to amortise that (cold-tail
            # singletons and single queries keep the plain scan).
            grouped_cache: Dict[object, Dict[object, List[Row]]] = {}
            half_uses: Dict[object, int] = {}
            for decision in slots:
                if decision is None:
                    continue
                for key in (
                    ("s", decision.sensitive_bin_index),
                    ("ns", decision.non_sensitive_bin_index),
                ):
                    half_uses[key] = half_uses.get(key, 0) + 1

            def matching(kind: str, bin_index, rows: List[Row], query) -> List[Row]:
                key = (kind, bin_index)
                if bin_index is None or half_uses.get(key, 0) < 3:
                    return [
                        row for row in rows
                        if row.values.get(query.attribute) == query.value
                    ]
                index = grouped_cache.get(key)
                if index is None:
                    index = group_rows_by_value(rows, self.attribute)
                    grouped_cache[key] = index
                return index.get(query.value, [])

            results: List[Tuple[List[Row], ExecutionTrace]] = []
            for value, decision in zip(values, slots):
                query = SelectionQuery(self.attribute, value)
                if decision is None:
                    results.append(([], self._empty_trace(query)))
                    continue
                response = next(responses)
                sensitive_rows = self._decrypt_bin(
                    decision.sensitive_bin_index, response.encrypted_rows
                )
                rows = merge_results(
                    query,
                    matching("s", decision.sensitive_bin_index, sensitive_rows, query),
                    matching(
                        "ns",
                        decision.non_sensitive_bin_index,
                        response.non_sensitive_rows,
                        query,
                    ),
                    already_filtered=True,
                )
                results.append(
                    (rows, self._trace_for(query, decision, response, len(rows)))
                )
            return results

    def _fetch(
        self, placement: str, requests: List[BatchRequest]
    ) -> List[QueryResponse]:
        """The cloud's responses to ``requests``, in order; the only step
        that depends on the placement."""
        if placement == "sequential":
            serve = self.cloud.serve
            return [serve(request) for request in requests]
        if placement == "batched":
            return self.cloud.process_batch(requests)
        if self.multi_cloud is None or self.shard_router is None:
            raise ConfigurationError(
                "sharded placement requires a MultiCloud attached at "
                "construction (and setup() run since)"
            )

        def decrypt_early(request: BatchRequest, response: QueryResponse) -> None:
            # Runs in the coordinating thread as each member completes,
            # overlapping owner-side decryption with the searches still in
            # flight on other members.  Fills the per-bin plaintext memo the
            # decrypt loop reads, so nothing is decrypted twice.  Under member
            # failure the fleet invokes this exactly once per half — for the
            # replica's response, never the crashed attempt's — and a
            # replica's slice holds the same ciphertexts as the primary's,
            # so the memo stays placement-agnostic.  Cleartext halves carry
            # no encrypted rows and are skipped.
            if response.encrypted_rows:
                self._decrypt_bin(
                    request.sensitive_bin_index, response.encrypted_rows
                )

        return self.multi_cloud.process_batch(
            requests,
            self.shard_router,
            response_consumer=decrypt_early,
        )

    # -- inserts ------------------------------------------------------------------------
    def insert(self, row: Row) -> None:
        """Absorb one row already in this engine's partition (see
        :meth:`insert_many`)."""
        with self._lock:
            self._insert_many_locked([row])

    def insert_many(self, rows: Sequence[Row]) -> None:
        """Absorb rows that :meth:`PartitionResult.insert` put into this
        engine's partition.

        :meth:`BinLayout.place` puts a value the layout lacks on its row's
        side into a free slot; when no slot will do, the engine rebins,
        which re-outsources the whole partition, these rows included.
        Otherwise the sensitive rows are encrypted in one
        :meth:`~repro.crypto.base.EncryptedSearchScheme.encrypt_rows` batch
        and shipped in one ``append_sensitive`` call, and the owner memo is
        invalidated once.  The scheme encrypts them in arrival order, so
        stateful schemes (Arx occurrence counters, address books) end in the
        state one :meth:`insert` per row would leave.
        """
        with self._lock:
            self._insert_many_locked(rows)

    def _insert_many_locked(self, rows: Sequence[Row]) -> None:
        self._require_setup()
        layout, metadata = self.layout, self.metadata
        assert layout is not None and metadata is not None
        for row in rows:
            if not layout.place(row[self.attribute], row.sensitive):
                self.rebin()
                return
        sensitive_rows: List[Row] = []
        bin_assignment: Dict[int, int] = {}
        for row in rows:
            value = row[self.attribute]
            if row.sensitive:
                sensitive_rows.append(row)
                bin_assignment[row.rid] = layout.locate_sensitive(value)[0]
                counts = metadata.sensitive_counts
            else:
                self.cloud.register_non_sensitive_row(row)
                if self.multi_cloud is not None:
                    self.multi_cloud.register_non_sensitive_row(row)
                counts = metadata.non_sensitive_counts
            counts[value] = counts.get(value, 0) + 1
        if sensitive_rows:
            encrypted = self.scheme.encrypt_rows(sensitive_rows, self.attribute)
            self.cloud.append_sensitive(encrypted, bin_assignment)
            if self.multi_cloud is not None and self.shard_router is not None:
                self.multi_cloud.append_sensitive_sharded(
                    encrypted, bin_assignment, self.shard_router
                )
            # Owner metadata changed once for the whole batch; invalidate
            # the owner memo once to match.
            self._invalidate()

    def rebin(self) -> "QueryBinningEngine":
        """Rebuild bins from the current partition and re-outsource it.

        Observation logs are cleared on every store the engine re-outsources
        to — the single reference server and, when attached, the whole
        sharded fleet — so the fleet-vs-reference parity invariants hold
        across a rebin exactly as they do from a fresh setup.

        For a sharded engine a rebin is also a fleet redeployment: the
        engine's ``setup()`` rebuilds the :class:`ShardRouter` as a pure
        function of (new bin counts, policy, fleet size, replication
        factor), so primary *and replica* placement of the rebuilt layout is
        deterministic, and every member — replicas included — receives its
        slices from scratch.  Members previously excluded as failed are
        therefore marked recovered (a deployment that re-outsources to a
        member has, by definition, replaced it); a member that is in fact
        still down is re-detected by the next batch's failover machinery.
        """
        with self._lock:
            self.cloud.reset_observations()
            if self.multi_cloud is not None:
                self.multi_cloud.reset_observations()
                self.multi_cloud.mark_all_recovered()
            return self.setup()


class NaivePartitionedEngine(_PartitionedEngineBase):
    """Partitioned execution *without* binning (the leaky baseline of §II)."""

    def setup(self) -> "NaivePartitionedEngine":
        with self._lock:
            encrypted = self._encrypt_sensitive_rows()
            self.cloud.store_non_sensitive(self.partition.non_sensitive)
            self.cloud.store_sensitive(encrypted, self.scheme)
            self.cloud.build_index(self.attribute)
            self._outsourced = True
            return self

    def query(self, value: object) -> List[Row]:
        rows, _trace = self.query_with_trace(value)
        return rows

    def query_with_trace(self, value: object) -> Tuple[List[Row], ExecutionTrace]:
        with self._lock:
            if not self._outsourced:
                raise ConfigurationError("call setup() before issuing queries")
            query = SelectionQuery(self.attribute, value)
            tokens = self.scheme.tokens_for_values([value], self.attribute)
            response = self.cloud.process_request(self.attribute, [value], tokens)
            rows = self._decrypt_and_merge(query, response)
            trace = ExecutionTrace(
                query=query,
                binned=None,
                sensitive_values_requested=1,
                non_sensitive_values_requested=1,
                encrypted_rows_returned=len(response.encrypted_rows),
                non_sensitive_rows_returned=len(response.non_sensitive_rows),
                rows_after_merge=len(rows),
                transfer_seconds=response.transfer_seconds,
            )
            return rows, trace

    def execute_workload(self, values: Iterable[object]) -> List[ExecutionTrace]:
        return [self.query_with_trace(value)[1] for value in values]
