"""The untrusted public cloud server.

A :class:`CloudServer` stores the cleartext non-sensitive relation (with
hash indexes over its searchable attributes) and the encrypted sensitive
relation (whatever the chosen :class:`~repro.crypto.base.EncryptedSearchScheme`
produced).  It answers the two halves of a partitioned query and, being
honest-but-curious, faithfully records an :class:`AdversarialView` for every
request it serves.

The sensitive half is always answered by ``scheme.search``; only its input
differs.  The owner sends the sensitive bin assignment with the ciphertexts,
and the storage backend groups rows by bin, so a request that names its
sensitive bin searches that bin's slice (plus any rows the owner left
unplaced).  A request that names no bin searches every stored row: the
linear scan, which is the reference semantics the slice must reproduce.

Interned retrievals
-------------------
QB workloads are repetitive by construction: every value of a bin pair maps
to the *same* request.  The server therefore interns one
:class:`_Retrieval` — the computed result rows, the prebuilt
:class:`QueryResponse`, and the prebuilt
:class:`~repro.adversary.view.ViewTemplate` — per distinct request, keyed by
the request itself, and serves every repeat from it.  Serving a steady-state
cache-hit query then does near-zero allocation: one dict probe, a handful of
counter increments, one transfer counted, and one compact view-log record.
The cache is dropped whenever stored data changes (outsourcing, appends,
inserts), so cached retrievals can never go stale.

Interning never merges queries' observable effects: each request still
produces its own query id, adversarial view, ``CloudStatistics``
increments, and network transfer, exactly as if computed from scratch — the
cache-hit path re-applies the statistics the skipped compute would have
produced.  Only work counters (the hash indexes' probe counters,
scheme-internal tallies such as Paillier's ``homomorphic_ops``) reflect the
deduplicated compute: they count the probes and cryptographic operations
actually performed.

Observations
------------
What a server has observed is one record of plain values,
:class:`ObservationSnapshot`: the view-log length, the
``CloudStatistics`` counters, the network transfer totals, and the query-id
counter.  ``ObservationSnapshot.of`` is the only capture and
``ObservationSnapshot.restore`` the only restore; crash rollback, resets,
and the process-member proxy's sync all go through them.  The statistics
are what the benchmark harness converts into simulated times via the cost
model, so experiments do not depend on wall-clock noise.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.adversary.view import AdversarialView, ViewLog, ViewTemplate
from repro.cloud.indexes import HashIndex
from repro.cloud.network import NetworkModel, TransferTotals
from repro.cloud.storage import StorageBackend, make_storage_backend
from repro.crypto.base import EncryptedRow, EncryptedSearchScheme, SearchToken
from repro.data.relation import Relation, Row
from repro.exceptions import CloudError


@dataclass
class QueryResponse:
    """What the cloud ships back to the DB owner for one binned query."""

    non_sensitive_rows: List[Row]
    encrypted_rows: List[EncryptedRow]
    non_sensitive_scanned: int
    sensitive_scanned: int
    transfer_seconds: float = 0.0

    @property
    def total_returned(self) -> int:
        return len(self.non_sensitive_rows) + len(self.encrypted_rows)


@dataclass
class CloudStatistics:
    """Cumulative work counters for the cloud (feeds the cost model)."""

    queries_served: int = 0
    non_sensitive_rows_returned: int = 0
    sensitive_rows_returned: int = 0
    non_sensitive_probes: int = 0
    sensitive_tokens_processed: int = 0
    #: encrypted rows actually examined while answering sensitive sub-queries
    #: (= relation size per query under a linear scan; one bin's slice when
    #: the request names its bin).
    sensitive_rows_scanned: int = 0

    def as_tuple(self) -> Tuple[int, ...]:
        """The counters as a plain tuple (cheap snapshotting)."""
        return (
            self.queries_served,
            self.non_sensitive_rows_returned,
            self.sensitive_rows_returned,
            self.non_sensitive_probes,
            self.sensitive_tokens_processed,
            self.sensitive_rows_scanned,
        )

    @classmethod
    def from_tuple(cls, values: Sequence[int]) -> "CloudStatistics":
        return cls(*values)


@dataclass(frozen=True)
class ObservationSnapshot:
    """A point-in-time capture of a server's observable side effects.

    Taken at the start of a batch and restored when the member crashes
    mid-batch: a crashed server loses the volatile state of its in-flight
    work (views buffered, counters bumped, transfers counted), which is
    exactly what lets a failover re-serve the batch on a replica without
    double-counting the lost attempt.  Only *observations* are covered —
    stored relations and indexes are durable and survive the restore.

    The snapshot holds plain values only — the view log's *length* rather
    than a copy, counter values rather than counter objects — so taking one
    costs the same however much the server has observed.  The view log is
    append-only; the only write a restore makes to it is truncating it back
    to the recorded length.  The fault-tolerance path takes one snapshot per
    member per wave, so this must stay cheap even when nothing fails.

    The same record syncs a process member: every worker reply carries the
    worker's snapshot, and the proxy applies it with :meth:`restore`.
    """

    view_count: int
    stats: Tuple[int, ...]
    transfers: TransferTotals
    queries_issued: int

    @classmethod
    def of(cls, server) -> "ObservationSnapshot":
        """Capture ``server``'s observations (the caller holds its lock)."""
        return cls(
            view_count=len(server.view_log),
            stats=server.stats.as_tuple(),
            transfers=server.network.totals(),
            queries_issued=server._queries_issued,
        )

    @classmethod
    def cleared(cls, server) -> "ObservationSnapshot":
        """``server``'s observations after a reset: none, except that query
        ids keep counting so they stay unique across experiments."""
        return cls(
            view_count=0,
            stats=CloudStatistics().as_tuple(),
            transfers=(),
            queries_issued=server._queries_issued,
        )

    def restore(self, server) -> None:
        """Roll ``server``'s observations to this snapshot (the caller
        holds its lock)."""
        server.view_log.truncate(self.view_count)
        server.stats = CloudStatistics.from_tuple(self.stats)
        server.network.restore(self.transfers)
        server._queries_issued = self.queries_issued


@dataclass(frozen=True)
class BatchRequest:
    """One partitioned request inside a :meth:`CloudServer.process_batch` call.

    Mirrors the parameters of :meth:`CloudServer.process_request`; values and
    tokens are tuples so the server can intern retrievals per distinct
    request.  Requests are picklable wire types: a multi-cloud fleet ships
    them to process-backed members, so they must carry no live references to
    server state.  Hashes and the two half-requests are cached on the
    instance (bins repeat, so the same request object is hashed and split
    many times) but excluded from pickles.
    """

    attribute: str
    cleartext_values: Tuple[object, ...] = ()
    tokens: Tuple[SearchToken, ...] = ()
    sensitive_bin_index: Optional[int] = None
    non_sensitive_bin_index: Optional[int] = None

    # -- sharded execution protocol ------------------------------------------
    #
    # Multi-cloud placement never ships a whole request to one server: the
    # encrypted half and the cleartext half are served by *different*
    # members, so no single server's view associates a sensitive bin with a
    # non-sensitive bin.  Each half deliberately drops the other side's bin
    # annotation — a server that never receives the other half has no way to
    # reconstruct it, and the recorded views must reflect that.

    @property
    def has_sensitive_half(self) -> bool:
        return bool(self.tokens)

    @property
    def has_non_sensitive_half(self) -> bool:
        return bool(self.cleartext_values)

    def sensitive_half(self) -> "BatchRequest":
        """The token half as shipped to the server owning the sensitive bin."""
        half = self.__dict__.get("_sensitive_half")
        if half is None:
            if not self.cleartext_values and self.non_sensitive_bin_index is None:
                half = self  # already a pure token half
            else:
                half = BatchRequest(
                    attribute=self.attribute,
                    cleartext_values=(),
                    tokens=self.tokens,
                    sensitive_bin_index=self.sensitive_bin_index,
                    non_sensitive_bin_index=None,
                )
            object.__setattr__(self, "_sensitive_half", half)
        return half

    def non_sensitive_half(self) -> "BatchRequest":
        """The cleartext half as shipped to a non-colluding second server."""
        half = self.__dict__.get("_non_sensitive_half")
        if half is None:
            if not self.tokens and self.sensitive_bin_index is None:
                half = self  # already a pure cleartext half
            else:
                half = BatchRequest(
                    attribute=self.attribute,
                    cleartext_values=self.cleartext_values,
                    tokens=(),
                    sensitive_bin_index=None,
                    non_sensitive_bin_index=self.non_sensitive_bin_index,
                )
            object.__setattr__(self, "_non_sensitive_half", half)
        return half

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(
                (
                    self.attribute,
                    self.cleartext_values,
                    self.tokens,
                    self.sensitive_bin_index,
                    self.non_sensitive_bin_index,
                )
            )
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        state.pop("_sensitive_half", None)
        state.pop("_non_sensitive_half", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)


@dataclass
class _Retrieval:
    """One distinct request's interned compute results and observables.

    ``response`` and ``view_template`` are shared by every query served from
    this retrieval; consumers treat responses as read-only (the engine keys
    its decryption cache on the *identity* of ``response.encrypted_rows``,
    which is exactly what makes the sharing useful).
    """

    response: QueryResponse
    view_template: ViewTemplate
    cleartext_value_count: int
    token_count: int
    sensitive_scanned: int


class CloudServer:
    """An honest-but-curious cloud hosting one partitioned relation."""

    def __init__(
        self,
        name: str = "public-cloud",
        use_encrypted_indexes: bool = True,
        storage_backend: object = "memory",
        storage_dir: Optional[str] = None,
    ):
        """``storage_backend`` selects where the encrypted stores live:
        ``"memory"`` (the historical dict/list stores) or ``"sqlite"`` (a
        per-member WAL-mode database file, placed under ``storage_dir`` or
        the system temp dir, removed when the server is closed or
        collected).  An already built
        :class:`~repro.cloud.storage.StorageBackend` is also accepted."""
        self.name = name
        self.network = NetworkModel()
        #: gates the bin-slice read; turning it off forces the linear-scan
        #: reference path (benchmark baseline).
        self.use_encrypted_indexes = use_encrypted_indexes
        #: the encrypted store — rows grouped by bin, and the rid → sensitive
        #: bin assignment slice migration reads — lives behind this backend.
        self.storage: StorageBackend = make_storage_backend(
            storage_backend, member_name=name, directory=storage_dir
        )
        self._non_sensitive: Optional[Relation] = None
        self._indexes: Dict[str, HashIndex] = {}
        self._scheme: Optional[EncryptedSearchScheme] = None
        self.view_log = ViewLog()
        self.stats = CloudStatistics()
        self._queries_issued = 0
        #: request → interned retrieval; dropped whenever stored data changes
        self._retrievals: Dict[BatchRequest, _Retrieval] = {}
        #: half-level interning under the pair-level cache above: distinct
        #: bin *pairs* share halves (one sensitive bin associates with many
        #: non-sensitive bins and vice versa), so a pair miss reuses any
        #: half already computed for another pair instead of re-probing /
        #: re-searching it.  Keyed by the request content (value tuple /
        #: (bin, tokens)) — pure memoization of deterministic lookups, with
        #: the skipped statistics re-charged so ``CloudStatistics`` stays
        #: identical.
        self._ns_half_cache: Dict[Tuple, List[Row]] = {}
        self._s_half_cache: Dict[Tuple, Tuple[List[EncryptedRow], int]] = {}
        #: serializes every observable transition — serving, mutation, cache
        #: invalidation, snapshot/restore — so concurrent sessions (service
        #: tenants, fleet failover, lifecycle migration) see each request's
        #: side effects (query id, view record, counters, counted transfer)
        #: land atomically.  Re-entrant because batch serving and migration
        #: helpers nest locked calls.
        self._lock = threading.RLock()

    # -- storage introspection (tests read this) -------------------------------------
    @property
    def _bin_store(self) -> Dict[int, List[EncryptedRow]]:
        """The bin-addressed store as a dict view."""
        return self.storage.bin_store_view()

    def _invalidate_retrievals(self) -> None:
        """Drop interned retrievals after any stored-data mutation."""
        self._retrievals.clear()
        self._ns_half_cache.clear()
        self._s_half_cache.clear()

    def invalidate_retrievals(self) -> None:
        """Public cache flush (benchmarks restoring the cold-compute regime).

        Dropping the interned retrievals is always safe — the next serve of
        each request recomputes and re-interns it — and is how the
        throughput benchmarks measure the compute-bound regime (every
        distinct request re-scanned per measured pass) instead of the
        fixed-cost floor a warm cache settles into.
        """
        with self._lock:
            self._invalidate_retrievals()

    # -- outsourcing -------------------------------------------------------------
    def store_non_sensitive(self, relation: Relation) -> None:
        """Receive the cleartext non-sensitive relation from the owner."""
        with self._lock:
            self._non_sensitive = relation
            self._indexes.clear()
            self._invalidate_retrievals()
            self.network.record("upload", len(relation))

    def store_sensitive(
        self,
        encrypted_rows: Sequence[EncryptedRow],
        scheme: EncryptedSearchScheme,
        bin_assignment: Optional[Mapping[int, int]] = None,
    ) -> None:
        """Receive the encrypted sensitive rows and the scheme's cloud logic.

        Only the scheme's *cloud-side* behaviour (``search``) is exercised by
        the server; the owner keeps the keys.

        ``bin_assignment`` (rid → sensitive bin index) is what a Query
        Binning owner sends along: it lets the cloud group ciphertexts by
        bin so each bin retrieval scans one slice instead of the whole
        relation.  The grouping reveals nothing new — bin membership is
        exactly what the adversary reconstructs from repeated retrievals.
        Rows it does not place are scanned by every bin retrieval.
        """
        encrypted_rows = list(encrypted_rows)
        with self._lock:
            self._scheme = scheme
            self._invalidate_retrievals()
            self.storage.reset(encrypted_rows, bin_assignment)
            self.network.record("upload", len(encrypted_rows))

    def append_sensitive(
        self,
        encrypted_rows: Sequence[EncryptedRow],
        bin_assignment: Optional[Mapping[int, int]] = None,
    ) -> None:
        """Receive additional encrypted rows (inserts, fake-tuple padding)."""
        with self._lock:
            self._append_rows(encrypted_rows, bin_assignment)
            self.network.record("upload", len(encrypted_rows))

    def receive_migrated_slice(
        self,
        encrypted_rows: Sequence[EncryptedRow],
        bin_assignment: Optional[Mapping[int, int]] = None,
    ) -> None:
        """Install bin slices copied over from another member.

        Storage semantics are exactly :meth:`append_sensitive`; the transfer
        is charged to the member-to-member ``"migration-in"`` direction so
        owner-upload accounting (and its parity comparisons) never absorbs
        re-replication traffic.
        """
        with self._lock:
            self._append_rows(encrypted_rows, bin_assignment)
            self.network.record("migration-in", len(encrypted_rows))

    def _append_rows(
        self,
        encrypted_rows: Sequence[EncryptedRow],
        bin_assignment: Optional[Mapping[int, int]],
    ) -> None:
        self._invalidate_retrievals()
        self.storage.append(encrypted_rows, bin_assignment)

    def register_non_sensitive_row(self, row: Row) -> None:
        """Account for a cleartext row already present in the stored relation.

        Used when the owner inserts directly into the (shared) relation object
        and the cloud only needs to refresh its indexes and count the transfer.
        """
        with self._lock:
            if self._non_sensitive is None:
                raise CloudError("no non-sensitive relation outsourced yet")
            if row.rid not in self._non_sensitive:
                raise CloudError(
                    f"row {row.rid} is not part of the stored relation"
                )
            for index in self._indexes.values():
                index.add_row(row)
            self._invalidate_retrievals()
            self.network.record("upload", 1)

    def build_index(self, attribute: str) -> None:
        """Build a hash index over the cleartext relation for ``attribute``."""
        with self._lock:
            if self._non_sensitive is None:
                raise CloudError("no non-sensitive relation outsourced yet")
            self._indexes[attribute] = HashIndex(self._non_sensitive, attribute)

    # -- slice migration ------------------------------------------------------------
    #
    # Elastic-fleet support: membership changes move bin *slices* between
    # members instead of re-outsourcing the world.  The three methods below
    # are the per-member primitives the fleet lifecycle manager composes:
    # report what is stored, read a slice out, drop a slice that moved away.
    # ``None`` stands for the pseudo-bin of rows the owner never placed.

    def stored_sensitive_bins(self) -> Dict[Optional[int], int]:
        """Stored row count per sensitive bin (``None`` = unassigned rows)."""
        with self._lock:
            return self.storage.bin_counts()

    def sensitive_slice(
        self, bins: Sequence[Optional[int]]
    ) -> Tuple[List[EncryptedRow], Dict[int, int]]:
        """The stored rows of ``bins`` (storage order) plus their bin map.

        Storage order within each bin is identical on every replica (pinned
        by the replicated-storage tests), so a slice read from *any* chain
        member re-creates the bin bit-identically on its destination.  Over
        a SQLite backend this is one keyed ``SELECT`` against the bin index,
        not a Python row loop.
        """
        with self._lock:
            rows, assignment = self.storage.slice_bins(bins)
            self.network.record("migration-out", len(rows))
            return rows, assignment

    def drop_sensitive_bins(self, bins: Sequence[Optional[int]]) -> int:
        """Remove the slices of ``bins`` this member no longer owns.

        The backend re-places the surviving rows in their bins.  Returns the
        number of rows dropped.  Over a SQLite backend the whole drop is one
        keyed ``DELETE`` transaction.
        """
        with self._lock:
            dropped = self.storage.drop_bins(bins)
            if not dropped:
                return 0
            self._invalidate_retrievals()
            self.network.record("migration-drop", dropped)
            return dropped

    def close(self) -> None:
        """Release storage resources (a SQLite backend's database file)."""
        self.storage.close()

    def ping(self, timeout: Optional[float] = None) -> str:
        """Liveness probe; an in-process server is alive by construction.

        ``timeout`` is accepted (and ignored) so fleet health probes can call
        every member uniformly — only the process-backed proxy can actually
        enforce a deadline.
        """
        return self.name

    # -- introspection --------------------------------------------------------------
    @property
    def non_sensitive_relation(self) -> Relation:
        if self._non_sensitive is None:
            raise CloudError("no non-sensitive relation outsourced yet")
        return self._non_sensitive

    @property
    def encrypted_row_count(self) -> int:
        return self.storage.row_count()

    @property
    def scheme(self) -> Optional[EncryptedSearchScheme]:
        """The outsourced scheme's cloud-side logic (``None`` before setup)."""
        return self._scheme

    @property
    def stored_encrypted_rows(self) -> Tuple[EncryptedRow, ...]:
        """A copy of the encrypted relation in storage order (analysis code
        reads it; no query path does)."""
        with self._lock:
            return tuple(self.storage.all_rows())

    # -- query processing --------------------------------------------------------
    def _select_non_sensitive(self, attribute: str, values: Sequence[object]) -> List[Row]:
        index = self._indexes.get(attribute)
        if index is None:
            self.build_index(attribute)
            index = self._indexes[attribute]
        self.stats.non_sensitive_probes += len(values)
        return index.lookup_many(values)

    def _search_sensitive(
        self, tokens: Sequence[SearchToken], sensitive_bin_index: Optional[int]
    ) -> Tuple[List[EncryptedRow], int]:
        """Serve the sensitive half; returns (matches, rows examined).

        The one place the read path is chosen: a request that names its
        sensitive bin searches the bin's slice plus the unplaced rows, and
        one that does not (or a server built with
        ``use_encrypted_indexes=False``) searches every stored row.  Either
        way ``search`` is one batched pass over the candidates (e.g. SSE
        trial decryption with per-token HMAC templates).

        Under Query Binning a bin's tokens match only rows of that bin, so
        both inputs return the same rows (parity is covered by tests); only
        the number of rows examined differs.
        """
        scheme = self._scheme
        if scheme is None:
            raise CloudError("no sensitive relation outsourced yet")
        if sensitive_bin_index is not None and self.use_encrypted_indexes:
            candidates = self.storage.bin_candidates(sensitive_bin_index)
        else:
            candidates = self.storage.all_rows()
        return scheme.search(candidates, tokens), len(candidates)

    def _compute_retrieval(self, request: BatchRequest) -> _Retrieval:
        """Run one distinct request's real compute and intern the results.

        Halves are interned one level below the pair-level cache: the
        cleartext selection is a deterministic function of (attribute,
        value tuple) and the encrypted search of (bin, token tuple), so a
        pair miss whose half was already computed for *another* pair reuses
        it.  A reused cleartext half charges the ``non_sensitive_probes``
        the fresh lookup would have, and the per-query sensitive statistics
        are charged by :meth:`_serve_locked` either way, so interning depth
        is invisible in ``CloudStatistics``; only work counters (index
        probes, scheme crypto-op tallies) reflect it, exactly as documented
        on :meth:`process_batch`.
        """
        non_sensitive_rows: List[Row] = []
        if request.cleartext_values:
            ns_key = (request.attribute, request.cleartext_values)
            cached_ns = self._ns_half_cache.get(ns_key)
            if cached_ns is None:
                non_sensitive_rows = self._select_non_sensitive(
                    request.attribute, request.cleartext_values
                )
                self._ns_half_cache[ns_key] = non_sensitive_rows
            else:
                non_sensitive_rows = cached_ns
                self.stats.non_sensitive_probes += len(request.cleartext_values)

        encrypted_matches: List[EncryptedRow] = []
        sensitive_scanned = 0
        if request.tokens:
            s_key = (request.sensitive_bin_index, request.tokens)
            cached_s = self._s_half_cache.get(s_key)
            if cached_s is None:
                encrypted_matches, sensitive_scanned = self._search_sensitive(
                    request.tokens, request.sensitive_bin_index
                )
                self._s_half_cache[s_key] = (encrypted_matches, sensitive_scanned)
            else:
                encrypted_matches, sensitive_scanned = cached_s

        total_returned = len(non_sensitive_rows) + len(encrypted_matches)
        response = QueryResponse(
            non_sensitive_rows=non_sensitive_rows,
            encrypted_rows=encrypted_matches,
            non_sensitive_scanned=len(request.cleartext_values),
            sensitive_scanned=sensitive_scanned,
            # deterministic: depends only on the (fixed) returned tuple count
            transfer_seconds=self.network.transfer_seconds(total_returned),
        )
        view_template = ViewTemplate(
            attribute=request.attribute,
            non_sensitive_request=request.cleartext_values,
            sensitive_request_size=len(request.tokens),
            returned_non_sensitive=tuple(non_sensitive_rows),
            returned_sensitive_rids=tuple([row.rid for row in encrypted_matches]),
            sensitive_bin_index=request.sensitive_bin_index,
            non_sensitive_bin_index=request.non_sensitive_bin_index,
        )
        return _Retrieval(
            response=response,
            view_template=view_template,
            cleartext_value_count=len(request.cleartext_values),
            token_count=len(request.tokens),
            sensitive_scanned=sensitive_scanned,
        )

    def _serve(self, request: BatchRequest) -> QueryResponse:
        """Serve one request through the interned-retrieval hot path.

        Every query — cache hit or miss — gets its own query id, view-log
        record, statistics increments, and counted network transfer; only the
        *compute* (index probes, scans, scheme matching, tuple building) is
        shared between repeats of the same request.

        The whole serve — id allocation, compute-or-intern, counter bumps,
        transfer count, view record — happens under the server lock, so a
        concurrent mutation can never clear a cache this request is reading
        and every query's observables land as one atomic unit.
        """
        with self._lock:
            return self._serve_locked(request)

    def _serve_locked(self, request: BatchRequest) -> QueryResponse:
        query_id = self._queries_issued
        self._queries_issued += 1

        stats = self.stats
        retrieval = self._retrievals.get(request)
        if retrieval is None:
            retrieval = self._compute_retrieval(request)
            self._retrievals[request] = retrieval
        else:
            # Charge the probes the skipped cleartext lookup would have
            # made, so interning is invisible in the statistics.
            stats.non_sensitive_probes += retrieval.cleartext_value_count

        if retrieval.token_count:
            stats.sensitive_rows_scanned += retrieval.sensitive_scanned
            stats.sensitive_tokens_processed += retrieval.token_count

        response = retrieval.response
        self.network.record("download", response.total_returned)

        stats.queries_served += 1
        stats.non_sensitive_rows_returned += len(response.non_sensitive_rows)
        stats.sensitive_rows_returned += len(response.encrypted_rows)

        self.view_log.record(query_id, retrieval.view_template)
        return response

    def serve(self, request: BatchRequest) -> QueryResponse:
        """Serve one prebuilt request object (the no-rewrap single-query path).

        Equivalent to :meth:`process_request` but takes the engine's interned
        :class:`BatchRequest` directly, so a steady-state sequential query
        allocates no fresh tuples on its way to the interned retrieval.
        """
        return self._serve(request)

    def process_request(
        self,
        attribute: str,
        cleartext_values: Sequence[object],
        tokens: Sequence[SearchToken],
        sensitive_bin_index: Optional[int] = None,
        non_sensitive_bin_index: Optional[int] = None,
    ) -> QueryResponse:
        """Serve one partitioned request (both halves) and log the view.

        Parameters mirror what actually travels over the wire: the cleartext
        values of the non-sensitive bin and the opaque tokens of the sensitive
        bin.  Bin indexes serve two roles: they annotate the recorded view
        for later analysis (the adversary could recover them by grouping
        identical requests), and the sensitive one addresses the bin slice
        the search reads.
        """
        return self._serve(
            BatchRequest(
                attribute=attribute,
                cleartext_values=tuple(cleartext_values),
                tokens=tuple(tokens),
                sensitive_bin_index=sensitive_bin_index,
                non_sensitive_bin_index=non_sensitive_bin_index,
            )
        )

    def process_batch(self, requests: Sequence[BatchRequest]) -> List[QueryResponse]:
        """Serve many requests, computing each distinct retrieval only once.

        QB workloads are heavily repetitive — every value of a bin pair maps
        to the *same* request — so the interned-retrieval cache serves
        repeats (within this batch, across batches, and across the sequential
        path alike) without recomputing the lookup or the encrypted search.
        Deduplication never merges queries' observable effects: each request
        still produces its own query id, adversarial view,
        ``CloudStatistics`` increments, and network transfer, exactly as if
        served from scratch.  Only the compute is shared, so work counters
        that tally index probes or cryptographic operations actually
        performed will reflect the deduplication.

        The lock is taken once for the whole batch, so a batch's query ids
        (and its adversarial-view order) stay contiguous even when other
        sessions are serving concurrently.
        """
        with self._lock:
            serve = self._serve_locked
            return [serve(request) for request in requests]

    def reset_observations(self) -> None:
        """Clear adversarial views and counters (between experiments)."""
        with self._lock:
            ObservationSnapshot.cleared(self).restore(self)

    # -- crash semantics -----------------------------------------------------------
    def observation_snapshot(self) -> ObservationSnapshot:
        """Capture the server's observable side effects (see the snapshot doc)."""
        with self._lock:
            return ObservationSnapshot.of(self)

    def restore_observations(self, snapshot: ObservationSnapshot) -> None:
        """Roll observable side effects back to ``snapshot``.

        Models a member crash: everything the member buffered for the
        in-flight batch — views, statistics, counted transfers, the query-id
        counter — is lost with the process, leaving only the state that
        existed when the batch started.  Durable storage (relations,
        ciphertexts, indexes' contents) is untouched.
        """
        with self._lock:
            snapshot.restore(self)
