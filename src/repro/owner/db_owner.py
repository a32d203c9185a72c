"""The trusted DB-owner façade.

:class:`DBOwner` is the highest-level API of the library.  It wires together
the pieces a real deployment would need:

1. partition the relation under a :class:`SensitivityPolicy`;
2. pick (or accept) a cryptographic scheme per searchable attribute;
3. run QB setup (bin creation, encryption, fake-tuple padding, outsourcing);
4. answer selection queries by rewriting them through the bins and merging
   the results;
5. absorb inserts: each row is split by the partition's policy once
   (:meth:`PartitionResult.insert`), then every outsourced attribute's
   engine places its value in the bins, rebinning when no slot is free;
6. optionally audit the cloud's recorded views against the partitioned data
   security definition.

Example
-------
>>> from repro.owner import DBOwner
>>> from repro.workloads.employee import build_employee_relation, employee_policy
>>> owner = DBOwner(build_employee_relation(), employee_policy())
>>> owner.outsource("EId")
>>> [row["LastName"] for row in owner.query("EId", "E259")]
['Williams', 'Williams']
"""

from __future__ import annotations

import random
import threading
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.adversary.auditor import PartitionedSecurityAuditor, SecurityReport
from repro.cloud.lifecycle import FleetLifecycleManager
from repro.cloud.multi_cloud import MultiCloud
from repro.cloud.server import CloudServer
from repro.core.engine import ExecutionTrace, QueryBinningEngine
from repro.crypto.base import EncryptedSearchScheme
from repro.crypto.nondeterministic import NonDeterministicScheme
from repro.data.partition import PartitionResult, SensitivityPolicy, partition_relation
from repro.data.relation import Relation, Row
from repro.exceptions import ConfigurationError, QueryError
from repro.owner.keystore import KeyStore

SchemeFactory = Callable[[], EncryptedSearchScheme]


class DBOwner:
    """The trusted party that owns the data and the keys."""

    def __init__(
        self,
        relation: Relation,
        policy: SensitivityPolicy,
        keystore: Optional[KeyStore] = None,
        scheme_factory: Optional[SchemeFactory] = None,
        cloud: Optional[CloudServer] = None,
        permutation_seed: Optional[int] = None,
        num_clouds: Optional[int] = None,
        replication_factor: int = 1,
        storage_backend: str = "memory",
        storage_dir: Optional[str] = None,
    ):
        """``num_clouds`` (≥2) outsources every attribute to a sharded
        :class:`MultiCloud` fleet of that size in addition to the reference
        server, unlocking ``execute_workload(..., placement="sharded")``.
        ``replication_factor`` (≥1, at most ``num_clouds - 1``) stores each
        sensitive bin's slice on that many members so sharded execution
        survives member failures; replica placement respects the
        non-collusion rules (a bin's replica never lands on a member serving
        its paired cleartext traffic).

        The owner keeps ``relation``'s schema and its partition, not the
        relation itself."""
        self.schema = relation.schema
        self.policy = policy
        self.keystore = keystore or KeyStore()
        #: every cloud-side store this owner creates — the reference server,
        #: per-attribute servers, fleet members — uses this storage engine
        #: (``"memory"`` or ``"sqlite"``; see :mod:`repro.cloud.storage`).
        self._storage_backend = storage_backend
        self._storage_dir = storage_dir
        self.cloud = cloud or CloudServer(
            storage_backend=storage_backend, storage_dir=storage_dir
        )
        self._scheme_factory = scheme_factory
        self._permutation_seed = permutation_seed
        self._num_clouds = num_clouds
        self._replication_factor = replication_factor
        self.partition: PartitionResult = partition_relation(relation, policy)
        self._engines: Dict[str, QueryBinningEngine] = {}
        self._schemes: Dict[str, EncryptedSearchScheme] = {}
        self._multi_clouds: Dict[str, MultiCloud] = {}
        #: guards the owner's own structural state — the engine/scheme/fleet
        #: registries and the partition that inserts grow.
        #: Queries deliberately run outside it (each engine has its own
        #: lock), so one attribute's slow workload never blocks another's.
        self._lock = threading.RLock()
        self._closed = False

    # -- setup ------------------------------------------------------------------
    def _make_scheme(self, attribute: str) -> EncryptedSearchScheme:
        if self._scheme_factory is not None:
            return self._scheme_factory()
        return NonDeterministicScheme(key=self.keystore.scheme_key(attribute))

    def outsource(
        self,
        attribute: str,
        scheme: Optional[EncryptedSearchScheme] = None,
        add_fake_tuples: bool = True,
    ) -> QueryBinningEngine:
        """Run QB setup for ``attribute`` and outsource both partitions.

        Returns the engine, which is also cached so subsequent
        :meth:`query` calls for the attribute reuse it.
        """
        with self._lock:
            return self._outsource_locked(attribute, scheme, add_fake_tuples)

    def _outsource_locked(
        self,
        attribute: str,
        scheme: Optional[EncryptedSearchScheme],
        add_fake_tuples: bool,
    ) -> QueryBinningEngine:
        if attribute in self._engines:
            return self._engines[attribute]
        chosen_scheme = scheme or self._make_scheme(attribute)
        rng = (
            random.Random(self._permutation_seed)
            if self._permutation_seed is not None
            else None
        )
        # Each attribute gets its own cloud-side store: a deployment would
        # keep one encrypted copy of the relation with per-attribute search
        # tags, but separating the stores keeps the per-attribute adversarial
        # views and token spaces independent in the simulation.
        attribute_cloud = self.cloud if not self._engines else CloudServer(
            name=f"{self.cloud.name}/{attribute}",
            storage_backend=self._storage_backend,
            storage_dir=self._storage_dir,
        )
        # Each attribute likewise gets its own fleet: sharding is a function
        # of the attribute's bin layout, so fleets cannot be shared.  Members
        # mirror the reference server's index configuration so fleet and
        # reference serve requests through the same search paths.
        multi_cloud = (
            MultiCloud(
                self._num_clouds,
                use_encrypted_indexes=attribute_cloud.use_encrypted_indexes,
                storage_backend=self._storage_backend,
                storage_dir=self._storage_dir,
            )
            if self._num_clouds is not None
            else None
        )
        engine = QueryBinningEngine(
            partition=self.partition,
            attribute=attribute,
            scheme=chosen_scheme,
            cloud=attribute_cloud,
            add_fake_tuples=add_fake_tuples,
            rng=rng,
            multi_cloud=multi_cloud,
            replication_factor=self._replication_factor,
        )
        engine.setup()
        self._engines[attribute] = engine
        self._schemes[attribute] = chosen_scheme
        if multi_cloud is not None:
            self._multi_clouds[attribute] = multi_cloud
        return engine

    def engine_for(self, attribute: str) -> QueryBinningEngine:
        try:
            return self._engines[attribute]
        except KeyError:
            raise ConfigurationError(
                f"attribute {attribute!r} has not been outsourced yet; call outsource()"
            ) from None

    # -- querying -----------------------------------------------------------------
    def query(self, attribute: str, value: object) -> List[Row]:
        """Answer ``SELECT * WHERE attribute = value`` through QB."""
        return self.engine_for(attribute).query(value)

    def query_with_trace(
        self, attribute: str, value: object
    ) -> Tuple[List[Row], ExecutionTrace]:
        return self.engine_for(attribute).query_with_trace(value)

    def execute_workload(
        self,
        attribute: str,
        values: Iterable[object],
        placement: str = "batched",
    ) -> List[ExecutionTrace]:
        """Run a workload; returns its traces.

        ``placement="sequential"`` serves one request per query (identical
        observables and the same interned retrievals; use it when timing
        individual queries).  ``placement="sharded"`` fans the workload out
        across the attribute's :class:`MultiCloud` fleet (requires
        ``num_clouds`` at construction)."""
        return self.engine_for(attribute).execute_workload(values, placement=placement)

    def multi_cloud_for(self, attribute: str) -> MultiCloud:
        """The sharded fleet serving ``attribute`` (requires ``num_clouds``)."""
        try:
            return self._multi_clouds[attribute]
        except KeyError:
            raise ConfigurationError(
                f"attribute {attribute!r} has no sharded fleet; construct the "
                "owner with num_clouds >= 2 and outsource the attribute first"
            ) from None

    def lifecycle_for(self, attribute: str) -> "FleetLifecycleManager":
        """The lifecycle manager for ``attribute``'s fleet (membership ops).

        Convenience pass-through to
        :meth:`QueryBinningEngine.fleet_lifecycle`; router changes the
        manager performs are adopted by the attribute's engine immediately.
        """
        return self.engine_for(attribute).fleet_lifecycle()

    def insert(self, values: Mapping[str, object], sensitive: bool = False) -> None:
        """Insert one row: the partition's policy places it, and every
        outsourced attribute's engine absorbs it.

        ``sensitive`` is the row's own flag, which the policy honours when
        it uses row flags.  A malformed row raises :class:`SchemaError`
        before anything is stored.
        """
        with self._lock:
            self._check_rows([values])
            row = self.partition.insert(values, sensitive=sensitive)
            for engine in self._engines.values():
                engine.insert(row)

    def insert_many(
        self, rows: Sequence[Mapping[str, object]], sensitive: bool = False
    ) -> None:
        """Insert many rows, all flagged ``sensitive``, with one batched call
        per outsourced attribute.

        Every row is checked before any is stored, then each is put into the
        partition once and the whole batch goes to each engine's
        :meth:`~repro.core.engine.QueryBinningEngine.insert_many`, which
        encrypts and ships the sensitive rows as one batch instead of one
        RPC-and-cache-flush per row.  Unless a new value forces a rebin,
        stored state is identical to calling :meth:`insert` per row, in
        order.
        """
        with self._lock:
            rows = list(rows)
            self._check_rows(rows)
            placed = [
                self.partition.insert(values, sensitive=sensitive) for values in rows
            ]
            for engine in self._engines.values():
                engine.insert_many(placed)

    def _check_rows(self, rows: Sequence[Mapping[str, object]]) -> None:
        """Refuse a row that does not match the relation's schema, or that
        the partition would refuse."""
        for values in rows:
            self.schema.validate_row(values)
            self.partition.check(values)

    # -- lifecycle ------------------------------------------------------------------
    def close(self) -> None:
        """Release every cloud-side resource this owner created.

        Closes each outsourced attribute's fleet (worker processes under the
        process backend) and cloud server (a SQLite backend's database
        file), then the reference server.  Idempotent; the service layer's
        graceful shutdown drains in-flight work before calling this.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for fleet in self._multi_clouds.values():
                fleet.close()
            for engine in self._engines.values():
                engine.cloud.close()
            self.cloud.close()

    def __enter__(self) -> "DBOwner":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    # -- security auditing ----------------------------------------------------------
    def audit(self, attribute: str, full_domain_queried: bool = False) -> SecurityReport:
        """Audit the cloud's recorded views for ``attribute``'s engine."""
        engine = self.engine_for(attribute)
        if engine.metadata is None or engine.layout is None:
            raise QueryError("engine is not set up")
        auditor = PartitionedSecurityAuditor(
            num_non_sensitive_values=engine.metadata.num_non_sensitive_values,
            layout=engine.layout,
            sensitive_counts=engine.metadata.sensitive_counts,
        )
        return auditor.audit(engine.cloud.view_log, full_domain_queried=full_domain_queried)

    # -- introspection -----------------------------------------------------------------
    def searchable_attributes(self) -> Tuple[str, ...]:
        return self.schema.searchable_names

    def metadata_size_bytes(self) -> int:
        """Total owner-side metadata footprint across outsourced attributes."""
        return sum(
            engine.metadata.estimated_size_bytes()
            for engine in self._engines.values()
            if engine.metadata is not None
        )
