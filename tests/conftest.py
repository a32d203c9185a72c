"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import pytest

from repro.adversary.auditor import PartitionedSecurityAuditor
from repro.adversary.view import AdversarialView
from repro.cloud.multi_cloud import MultiCloud
from repro.cloud.server import BatchRequest, CloudServer, QueryResponse
from repro.exceptions import MemberFailure
from repro.core.engine import ExecutionTrace, NaivePartitionedEngine, QueryBinningEngine
from repro.crypto.nondeterministic import NonDeterministicScheme
from repro.crypto.primitives import SecretKey
from repro.data.partition import partition_relation
from repro.workloads.employee import (
    build_employee_relation,
    employee_partition,
    employee_policy,
)
from repro.workloads.generator import generate_partitioned_dataset


@pytest.fixture
def employee_relation():
    """The paper's 8-tuple Employee relation (Figure 1)."""
    return build_employee_relation()


@pytest.fixture
def employee_split():
    """The Employee partition of Figure 2 (Employee1/2/3)."""
    return employee_partition()


@pytest.fixture
def fixed_key():
    """A deterministic secret key for reproducible crypto tests."""
    return SecretKey.from_passphrase("test-suite-key")


@pytest.fixture
def small_dataset():
    """A small synthetic base-case dataset (uniform counts, 1 tuple/value)."""
    return generate_partitioned_dataset(
        num_values=30,
        sensitivity_fraction=0.4,
        association_fraction=0.5,
        tuples_per_value=1,
        seed=21,
    )


@pytest.fixture
def skewed_dataset():
    """A synthetic general-case dataset with Zipf-skewed multiplicities."""
    return generate_partitioned_dataset(
        num_values=40,
        sensitivity_fraction=0.5,
        association_fraction=0.6,
        tuples_per_value=5,
        skew_exponent=1.1,
        seed=33,
    )


@pytest.fixture
def qb_engine(small_dataset):
    """A ready-to-query QB engine over the small base-case dataset."""
    engine = QueryBinningEngine(
        partition=small_dataset.partition,
        attribute=small_dataset.attribute,
        scheme=NonDeterministicScheme(),
        cloud=CloudServer(),
        rng=random.Random(5),
    )
    return engine.setup()


@pytest.fixture
def naive_engine(employee_split):
    """The leaky (non-binned) partitioned engine over the Employee example."""
    engine = NaivePartitionedEngine(
        partition=employee_split,
        attribute="EId",
        scheme=NonDeterministicScheme(),
        cloud=CloudServer(),
    )
    return engine.setup()


@pytest.fixture
def qb_employee_engine(employee_split):
    """A QB engine over the Employee example with a fixed permutation."""
    engine = QueryBinningEngine(
        partition=employee_split,
        attribute="EId",
        scheme=NonDeterministicScheme(),
        cloud=CloudServer(),
        rng=random.Random(11),
    )
    return engine.setup()


# -- cross-strategy execution parity harness -----------------------------------
#
# The repo's core security claim is that every execution strategy — one
# request at a time, batched on one server, or sharded across a fleet —
# produces bit-identical results and adversarial observables.  Results are
# first checked against a plaintext oracle, so a bug every placement shares
# cannot hide behind their agreement.  The harness below is the reusable
# machinery for asserting that: any future execution
# strategy gets parity coverage by adding one ``run()`` call, not a new test
# file.


@dataclass
class StrategyRun:
    """Everything one execution strategy produced for one workload."""

    placement: str
    engine: QueryBinningEngine
    #: sorted result rids, one list per workload query
    result_rids: List[List[int]]
    traces: List[ExecutionTrace]

    @property
    def cloud(self) -> CloudServer:
        return self.engine.cloud

    @property
    def fleet(self) -> Optional[MultiCloud]:
        return self.engine.multi_cloud


class ExecutionParityHarness:
    """Runs one workload under several placements and compares observables.

    Engines are built over the *same* dataset with the *same* permutation
    seed and key, so their bin layouts are identical and any divergence in
    results, views, or statistics is attributable to the execution strategy
    under test.
    """

    PLACEMENTS: Tuple[str, ...] = ("sequential", "batched", "sharded")

    def __init__(
        self,
        dataset,
        scheme_factory: Callable[..., object],
        num_shards: int = 3,
        use_encrypted_indexes: bool = True,
        permutation_seed: int = 17,
        key_phrase: str = "parity-key",
        replication_factor: int = 1,
        server_factory: Optional[Callable[..., CloudServer]] = None,
        member_backend: str = "thread",
        member_retries: int = 1,
        rpc_timeout: Optional[float] = None,
        storage_backend: str = "memory",
    ):
        self.dataset = dataset
        self.scheme_factory = scheme_factory
        self.num_shards = num_shards
        self.use_encrypted_indexes = use_encrypted_indexes
        self.permutation_seed = permutation_seed
        self.key_phrase = key_phrase
        self.replication_factor = replication_factor
        self.server_factory = server_factory
        self.member_backend = member_backend
        self.member_retries = member_retries
        self.rpc_timeout = rpc_timeout
        self.storage_backend = storage_backend
        self._fleets: List[MultiCloud] = []
        self._servers: List[CloudServer] = []

    # -- construction --------------------------------------------------------
    def make_engine(self, sharded: bool = False) -> QueryBinningEngine:
        reference = CloudServer(
            use_encrypted_indexes=self.use_encrypted_indexes,
            storage_backend=self.storage_backend,
        )
        self._servers.append(reference)
        engine = QueryBinningEngine(
            partition=self.dataset.partition,
            attribute=self.dataset.attribute,
            scheme=self.scheme_factory(SecretKey.from_passphrase(self.key_phrase)),
            cloud=reference,
            rng=random.Random(self.permutation_seed),
            multi_cloud=(
                MultiCloud(
                    self.num_shards,
                    use_encrypted_indexes=self.use_encrypted_indexes,
                    server_factory=self.server_factory,
                    member_backend=self.member_backend,
                    member_retries=self.member_retries,
                    rpc_timeout=self.rpc_timeout,
                    storage_backend=self.storage_backend,
                )
                if sharded
                else None
            ),
            replication_factor=self.replication_factor,
        )
        if engine.multi_cloud is not None:
            self._fleets.append(engine.multi_cloud)
        return engine.setup()

    def close(self) -> None:
        """Reap worker processes and storage of everything this harness built.

        Proxy mirrors stay readable after close, so assertions may still
        inspect a closed run's views and statistics.
        """
        for fleet in self._fleets:
            fleet.close()
        for server in self._servers:
            server.close()

    def workload(self, repeats: int = 2, seed: int = 41) -> List[object]:
        values = list(self.dataset.all_values) * repeats
        random.Random(seed).shuffle(values)
        return values

    # -- execution -----------------------------------------------------------
    def run(self, placement: str, workload: Sequence[object]) -> StrategyRun:
        engine = self.make_engine(sharded=(placement == "sharded"))
        outcome = engine.execute_workload_with_rows(workload, placement=placement)
        return StrategyRun(
            placement=placement,
            engine=engine,
            result_rids=[sorted(row.rid for row in rows) for rows, _trace in outcome],
            traces=[trace for _rows, trace in outcome],
        )

    def run_all(
        self, workload: Optional[Sequence[object]] = None
    ) -> Dict[str, StrategyRun]:
        workload = list(workload) if workload is not None else self.workload()
        return {placement: self.run(placement, workload) for placement in self.PLACEMENTS}

    def run_concurrent(
        self, placement: str, workload: Sequence[object], num_clients: int = 4
    ) -> StrategyRun:
        """Replay ``workload`` from ``num_clients`` threads over ONE engine.

        Client ``i`` executes the round-robin slice ``workload[i::n]``; the
        per-query outcomes are reassembled into original workload order, so
        the returned :class:`StrategyRun` is directly comparable to a
        single-threaded :meth:`run` of the same placement.  All clients
        share one engine (and its cloud/fleet) — exactly the service
        layer's shape, where concurrent sessions hit one tenant — so this
        is the regression surface for the engine/server/fleet locking: any
        unsynchronized cache mutation shows up as divergent results, views,
        or statistics.
        """
        engine = self.make_engine(sharded=(placement == "sharded"))
        workload = list(workload)
        slices = [workload[i::num_clients] for i in range(num_clients)]
        outcomes: List[Optional[List[Tuple[List, ExecutionTrace]]]] = (
            [None] * num_clients
        )
        errors: List[BaseException] = []
        barrier = threading.Barrier(num_clients)

        def client(index: int) -> None:
            try:
                barrier.wait()  # maximize interleaving pressure
                outcomes[index] = engine.execute_workload_with_rows(
                    slices[index], placement=placement
                )
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(index,), daemon=True)
            for index in range(num_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        merged: List[Optional[Tuple[List, ExecutionTrace]]] = [None] * len(workload)
        for index, outcome in enumerate(outcomes):
            assert outcome is not None
            for position, pair in enumerate(outcome):
                merged[index + position * num_clients] = pair
        assert all(pair is not None for pair in merged)
        return StrategyRun(
            placement=placement,
            engine=engine,
            result_rids=[sorted(row.rid for row in rows) for rows, _trace in merged],
            traces=[trace for _rows, trace in merged],
        )

    # -- per-query view reconstruction ---------------------------------------
    def sharded_view_pairs(
        self, run: StrategyRun, workload: Sequence[object]
    ) -> List[Tuple[Optional[AdversarialView], Optional[AdversarialView]]]:
        """(sensitive-half view, cleartext-half view) per retrieving query.

        Looks each half's view up where the fleet's last batch served it
        (``last_report.placements``), after checking against the rebuilt
        request stream (a pure owner-side computation) that every half was
        served by the member the router picks for it.
        """
        assert run.fleet is not None and run.engine.shard_router is not None
        report = run.fleet.last_report
        assert report is not None, "run a sharded workload first"
        requests, _slots = run.engine.build_requests(list(workload))
        assert len(report.placements) == len(requests)
        fleet, router = run.fleet, run.engine.shard_router

        def view_at(placement):
            if placement is None:
                return None
            server_index, position = placement
            return fleet[server_index].view_log.views[position]

        pairs = []
        for request, placements in zip(requests, report.placements):
            served_by = tuple(
                None if placement is None else placement[0]
                for placement in placements
            )
            assert served_by == router.route(request)
            sensitive_placement, non_sensitive_placement = placements
            pairs.append((view_at(sensitive_placement), view_at(non_sensitive_placement)))
        return pairs

    # -- view content --------------------------------------------------------
    @staticmethod
    def _view_content(view: AdversarialView) -> Tuple:
        """A view's observable content, minus the per-server query id."""
        return (
            view.attribute,
            view.non_sensitive_request,
            view.sensitive_request_size,
            tuple(row.rid for row in view.returned_non_sensitive),
            view.returned_sensitive_rids,
            view.sensitive_bin_index,
            view.non_sensitive_bin_index,
        )

    def view_content_multisets(self, run: StrategyRun) -> List[Dict[Tuple, int]]:
        """Per-server multisets of view content, interleaving-independent.

        One dict per server (the reference server alone, or each fleet
        member), mapping view content to its occurrence count.  Concurrent
        clients record the same views in a different *order*; the multiset
        is the strongest observable that is invariant under reordering.
        """
        if run.fleet is not None:
            servers = [run.fleet[index] for index in range(len(run.fleet))]
        else:
            servers = [run.cloud]
        multisets: List[Dict[Tuple, int]] = []
        for server in servers:
            counts: Dict[Tuple, int] = {}
            for view in server.view_log:
                content = self._view_content(view)
                counts[content] = counts.get(content, 0) + 1
            multisets.append(counts)
        return multisets

    # -- assertions ----------------------------------------------------------
    def assert_concurrent_parity(
        self, reference: StrategyRun, concurrent: StrategyRun
    ) -> None:
        """Concurrent replay is observationally identical to single-threaded.

        Results are compared per original workload position (exact, not
        just as a multiset — reassembly restores order); traces match
        field-for-field; per-server adversarial views match as multisets
        (order is the one thing interleaving may legitimately permute); and
        statistics aggregate to the same totals.
        """
        self.assert_matches_oracle(concurrent)
        assert concurrent.result_rids == reference.result_rids
        assert len(concurrent.traces) == len(reference.traces)
        for ours, theirs in zip(concurrent.traces, reference.traces):
            assert ours.query == theirs.query
            assert ours.binned == theirs.binned
            assert ours.sensitive_values_requested == theirs.sensitive_values_requested
            assert (
                ours.non_sensitive_values_requested
                == theirs.non_sensitive_values_requested
            )
            assert ours.encrypted_rows_returned == theirs.encrypted_rows_returned
            assert (
                ours.non_sensitive_rows_returned == theirs.non_sensitive_rows_returned
            )
            assert ours.rows_after_merge == theirs.rows_after_merge
            assert ours.transfer_seconds == pytest.approx(theirs.transfer_seconds)
        assert self.view_content_multisets(concurrent) == self.view_content_multisets(
            reference
        )
        if reference.fleet is not None and concurrent.fleet is not None:
            for field_name in (
                "queries_served",
                "sensitive_tokens_processed",
                "sensitive_rows_returned",
                "non_sensitive_rows_returned",
                "non_sensitive_probes",
            ):
                assert concurrent.fleet.aggregate_stat(field_name) == (
                    reference.fleet.aggregate_stat(field_name)
                ), field_name
            assert concurrent.fleet.total_transfer_tuples("download") == (
                reference.fleet.total_transfer_tuples("download")
            )
        else:
            assert concurrent.cloud.stats == reference.cloud.stats
            assert concurrent.cloud.network.total_tuples("download") == (
                reference.cloud.network.total_tuples("download")
            )

    def oracle_rids(self) -> Dict[object, List[int]]:
        """The plaintext oracle: per value, the sorted rids of every row of
        ``Rs ∪ Rns`` whose searched attribute equals it.  Read at assertion
        time, so rows inserted into the shared partition count."""
        partition = self.dataset.partition
        attribute = self.dataset.attribute
        expected: Dict[object, List[int]] = {}
        for relation in (partition.sensitive, partition.non_sensitive):
            for row in relation:
                expected.setdefault(row.get(attribute), []).append(row.rid)
        return {value: sorted(rids) for value, rids in expected.items()}

    def assert_matches_oracle(self, run: StrategyRun) -> None:
        """Every query returned exactly the plaintext selection's rows."""
        expected = self.oracle_rids()
        for trace, rids in zip(run.traces, run.result_rids):
            value = trace.query.value
            assert rids == expected.get(value, []), (
                f"{run.placement} answered {value!r} with rids {rids}, "
                f"the plaintext oracle says {expected.get(value, [])}"
            )

    def assert_secure(self, run: StrategyRun) -> None:
        """The single server's views satisfy Eq. (1) and Eq. (2) over a
        workload that queried the whole domain."""
        engine = run.engine
        assert engine.metadata is not None and engine.layout is not None
        queried = {trace.query.value for trace in run.traces}
        assert queried >= set(self.dataset.all_values), "workload missed values"
        report = PartitionedSecurityAuditor(
            num_non_sensitive_values=engine.metadata.num_non_sensitive_values,
            layout=engine.layout,
            sensitive_counts=engine.metadata.sensitive_counts,
        ).audit(run.cloud.view_log, full_domain_queried=True)
        assert report.secure, f"{run.placement}: {report.violations}"

    def assert_identical_results(self, runs: Dict[str, StrategyRun]) -> None:
        """Every run matches the plaintext oracle (and, on one server, the
        auditor); only then must the placements agree with each other."""
        for run in runs.values():
            self.assert_matches_oracle(run)
            if run.fleet is None:
                self.assert_secure(run)
        reference = runs["sequential"]
        for placement, run in runs.items():
            assert run.result_rids == reference.result_rids, (
                f"{placement} returned different rows than sequential"
            )

    def assert_identical_traces(self, runs: Dict[str, StrategyRun]) -> None:
        """Traces match field-for-field; sharded transfer adds exactly the
        second server's round-trip latency (tuple counts stay identical)."""
        reference = runs["sequential"]
        for placement, run in runs.items():
            assert len(run.traces) == len(reference.traces)
            for ours, theirs in zip(run.traces, reference.traces):
                assert ours.query == theirs.query
                assert ours.binned == theirs.binned
                assert ours.sensitive_values_requested == theirs.sensitive_values_requested
                assert (
                    ours.non_sensitive_values_requested
                    == theirs.non_sensitive_values_requested
                )
                assert ours.encrypted_rows_returned == theirs.encrypted_rows_returned
                assert (
                    ours.non_sensitive_rows_returned == theirs.non_sensitive_rows_returned
                )
                assert ours.rows_after_merge == theirs.rows_after_merge
                if placement == "sharded" and ours.binned is not None:
                    latency = run.cloud.network.latency_seconds
                    assert ours.transfer_seconds == pytest.approx(
                        theirs.transfer_seconds + latency
                    )
                else:
                    assert ours.transfer_seconds == pytest.approx(theirs.transfer_seconds)

    def assert_single_server_parity(
        self, sequential: StrategyRun, batched: StrategyRun
    ) -> None:
        """Batched single-server execution is observationally identical."""
        assert sequential.cloud.stats == batched.cloud.stats
        assert len(sequential.cloud.view_log) == len(batched.cloud.view_log)
        for ours, theirs in zip(sequential.cloud.view_log, batched.cloud.view_log):
            assert ours.query_id == theirs.query_id
            assert ours.non_sensitive_request == theirs.non_sensitive_request
            assert ours.sensitive_request_size == theirs.sensitive_request_size
            assert ours.returned_sensitive_rids == theirs.returned_sensitive_rids
            assert ours.sensitive_bin_index == theirs.sensitive_bin_index
            assert ours.non_sensitive_bin_index == theirs.non_sensitive_bin_index

    def assert_sharded_view_parity(
        self,
        sequential: StrategyRun,
        sharded: StrategyRun,
        workload: Sequence[object],
    ) -> None:
        """Fleet views carry the same information, split across members.

        For every query the sensitive-half view matches the sequential view's
        encrypted observables and the cleartext-half view matches its
        cleartext observables — and each half provably lacks the *other*
        half, which is the non-collusion guarantee.
        """
        sequential_views = [
            view for view in sequential.cloud.view_log
        ]
        pairs = self.sharded_view_pairs(sharded, workload)
        assert len(pairs) == len(sequential_views)
        for reference, (sensitive_view, cleartext_view) in zip(sequential_views, pairs):
            assert sensitive_view is not None and cleartext_view is not None
            # the sensitive member sees the tokens and returned addresses...
            assert sensitive_view.sensitive_request_size == reference.sensitive_request_size
            assert sensitive_view.returned_sensitive_rids == reference.returned_sensitive_rids
            assert sensitive_view.sensitive_bin_index == reference.sensitive_bin_index
            # ...but no cleartext half, and no non-sensitive bin to pair with.
            assert sensitive_view.non_sensitive_request == ()
            assert sensitive_view.returned_non_sensitive == ()
            assert sensitive_view.non_sensitive_bin_index is None
            # the cleartext member sees the public half...
            assert cleartext_view.non_sensitive_request == reference.non_sensitive_request
            assert [r.rid for r in cleartext_view.returned_non_sensitive] == [
                r.rid for r in reference.returned_non_sensitive
            ]
            assert cleartext_view.non_sensitive_bin_index == reference.non_sensitive_bin_index
            # ...and not a single token.
            assert cleartext_view.sensitive_request_size == 0
            assert cleartext_view.returned_sensitive_rids == ()
            assert cleartext_view.sensitive_bin_index is None

    def assert_sharded_statistics_parity(
        self, sequential: StrategyRun, sharded: StrategyRun
    ) -> None:
        """Fleet-aggregated statistics equal the single reference server's."""
        fleet = sharded.fleet
        assert fleet is not None
        reference = sequential.cloud.stats
        for field_name in (
            "sensitive_tokens_processed",
            "sensitive_rows_returned",
            "non_sensitive_rows_returned",
            "non_sensitive_probes",
        ):
            assert fleet.aggregate_stat(field_name) == getattr(reference, field_name), (
                field_name
            )
        if self.use_encrypted_indexes:
            # Indexed paths examine exactly one bin's rows wherever the bin
            # lives, so even the scanned-row counters match; the linear-scan
            # fallback legitimately scans less on a sharded fleet.
            assert (
                fleet.aggregate_stat("sensitive_rows_scanned")
                == reference.sensitive_rows_scanned
            )
        # every retrieving query was served as exactly two half requests
        retrieving = sum(1 for trace in sequential.traces if trace.binned is not None)
        assert fleet.aggregate_stat("queries_served") == 2 * retrieving
        # the fleet shipped exactly the tuples the single server shipped
        assert fleet.total_transfer_tuples("download") == (
            sequential.cloud.network.total_tuples("download")
        )


# -- fault-injection harness ----------------------------------------------------
#
# The fault-tolerance claim mirrors the parity claim: killing any single
# fleet member at any point of a sharded batch must be unobservable — the
# degraded run returns the same rows, records the same per-query adversarial
# information (on different members), and aggregates to the same statistics
# as the healthy run.  ``FaultInjectingCloudServer`` is the chaos agent;
# ``FaultInjectionHarness`` runs healthy/degraded pairs and asserts the
# equivalence, for any scheme, member, and failure point.


class FaultInjectingCloudServer(CloudServer):
    """A :class:`CloudServer` that can crash on command.

    ``schedule_failure`` arms the member: its next ``process_batch`` call
    serves the first ``at_offset`` requests, then crashes — it rolls its
    observations back to the batch-start snapshot (a crashed process loses
    the volatile state of in-flight work) and raises
    :class:`~repro.exceptions.MemberFailure`.  ``failures`` controls how
    many calls fail (transient faults recover afterwards); ``permanent``
    marks the member dead so every later call fails immediately, modelling
    a machine that stays down.

    ``schedule_stall`` injects *latency* faults instead: the next batches
    sleep before serving — finite delays model slow-but-progressing members
    (which must NOT be failed over: they eventually answer correctly);
    ``forever=True`` models a wedged member that never answers.  A wedge is
    only usable behind a process-backed proxy, whose RPC deadline abandons
    the worker — a thread-backed member cannot be interrupted, so wedging it
    would hang the coordinator (exactly the failure mode RPC deadlines
    exist to prevent).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._fail_at_offset: Optional[int] = None
        self._failures_remaining = 0
        self._fail_permanently = True
        self._stall_seconds = 0.0
        self._stalls_remaining = 0
        self._stall_forever = False
        self.dead = False
        self.failures_injected = 0
        self.stalls_injected = 0

    def schedule_failure(
        self, at_offset: int = 0, failures: int = 1, permanent: bool = True
    ) -> None:
        """Arm the member to crash ``at_offset`` requests into its batches."""
        self._fail_at_offset = at_offset
        self._failures_remaining = failures
        self._fail_permanently = permanent

    def schedule_stall(
        self, seconds: float = 0.05, stalls: int = 1, forever: bool = False
    ) -> None:
        """Arm the member to sleep before serving its next ``stalls`` batches.

        ``forever=True`` wedges the member instead (process backend only —
        see the class docstring); ``seconds`` is ignored in that case.
        """
        self._stall_seconds = seconds
        self._stalls_remaining = stalls
        self._stall_forever = forever

    def process_batch(self, requests: Sequence[BatchRequest]) -> List[QueryResponse]:
        if self._stalls_remaining > 0:
            self._stalls_remaining -= 1
            self.stalls_injected += 1
            if self._stall_forever:
                while True:  # wedged: the proxy's RPC deadline reaps us
                    time.sleep(3600.0)
            time.sleep(self._stall_seconds)
        if self.dead:
            self.failures_injected += 1
            raise MemberFailure(f"{self.name} is down")
        if self._failures_remaining <= 0 or self._fail_at_offset is None:
            return super().process_batch(requests)
        snapshot = self.observation_snapshot()
        crash_offset = min(self._fail_at_offset, len(requests))
        if crash_offset:
            # The member really does the prefix's work (views recorded,
            # counters bumped) before dying — the restore below is what
            # guarantees the lost attempt never double-counts.
            super().process_batch(list(requests[:crash_offset]))
        self.restore_observations(snapshot)
        self._failures_remaining -= 1
        self.failures_injected += 1
        if self._fail_permanently:
            self.dead = True
        raise MemberFailure(
            f"{self.name} crashed after {crash_offset} of {len(requests)} requests"
        )


class FaultInjectionHarness(ExecutionParityHarness):
    """Kills chosen fleet members at chosen batch offsets and proves parity.

    Extends :class:`ExecutionParityHarness`: the healthy reference comes from
    ``run("sharded", workload)`` exactly as in the parity suite (the fault
    servers are benign until armed), ``run_with_failure`` replays the same
    workload on a fresh fleet with one member scheduled to crash, and
    ``assert_degraded_parity`` pins results, traces, per-query view content,
    and fleet-aggregated statistics of the degraded run to the healthy run.
    Defaults to a 4-member fleet with 2-way replication — the smallest shape
    where any single member can die and every bin keeps a live replica.
    """

    def __init__(
        self,
        dataset,
        scheme_factory: Callable[..., object],
        num_shards: int = 4,
        replication_factor: int = 2,
        **kwargs,
    ):
        super().__init__(
            dataset,
            scheme_factory,
            num_shards=num_shards,
            replication_factor=replication_factor,
            server_factory=FaultInjectingCloudServer,
            **kwargs,
        )

    # -- failure-point selection ---------------------------------------------
    def member_loads(self, run: StrategyRun, workload: Sequence[object]) -> List[int]:
        """How many half requests each member serves on a healthy run."""
        assert run.fleet is not None and run.engine.shard_router is not None
        requests, _slots = run.engine.build_requests(list(workload))
        loads = [0] * len(run.fleet)
        for request in requests:
            for member in run.engine.shard_router.route(request):
                if member is not None:
                    loads[member] += 1
        return loads

    def busiest_member(
        self, run: StrategyRun, workload: Sequence[object]
    ) -> Tuple[int, int]:
        """(member index, its half-request load) — a victim with in-flight work."""
        loads = self.member_loads(run, workload)
        victim = max(range(len(loads)), key=loads.__getitem__)
        return victim, loads[victim]

    # -- degraded execution ---------------------------------------------------
    def run_with_failure(
        self,
        workload: Sequence[object],
        victim: int,
        at_offset: int,
        failures: int = 1,
        permanent: bool = True,
    ) -> StrategyRun:
        """The sharded run with ``victim`` crashing ``at_offset`` into its batch."""
        engine = self.make_engine(sharded=True)
        assert engine.multi_cloud is not None
        engine.multi_cloud[victim].schedule_failure(
            at_offset=at_offset, failures=failures, permanent=permanent
        )
        outcome = engine.execute_workload_with_rows(
            list(workload), placement="sharded"
        )
        return StrategyRun(
            placement="sharded",
            engine=engine,
            result_rids=[sorted(row.rid for row in rows) for rows, _trace in outcome],
            traces=[trace for _rows, trace in outcome],
        )

    # -- view reconstruction ---------------------------------------------------
    # (``_view_content`` is inherited from :class:`ExecutionParityHarness`.)

    def half_view_contents(
        self, run: StrategyRun
    ) -> List[Tuple[Optional[Tuple], Optional[Tuple]]]:
        """(sensitive half, cleartext half) view content per request, as served.

        Uses the fleet's :class:`FleetBatchReport` — the *actual* post-failover
        placements — rather than replaying the healthy routing plan, so it is
        meaningful for degraded runs.
        """
        assert run.fleet is not None
        report = run.fleet.last_report
        assert report is not None, "run a sharded workload first"

        def view_at(placement):
            if placement is None:
                return None
            server_index, position = placement
            return self._view_content(
                run.fleet[server_index].view_log.views[position]
            )

        return [
            (view_at(sensitive_placement), view_at(cleartext_placement))
            for sensitive_placement, cleartext_placement in report.placements
        ]

    # -- assertions ------------------------------------------------------------
    def assert_degraded_parity(
        self, healthy: StrategyRun, degraded: StrategyRun
    ) -> None:
        """Degraded execution is observationally identical to healthy execution."""
        # the application sees the same rows...
        assert degraded.result_rids == healthy.result_rids
        # ...and the same traces, transfer accounting included (both runs are
        # sharded, so unlike the cross-placement comparison no latency
        # adjustment applies: a replica's round trip costs what the failed
        # primary's would have).
        assert len(degraded.traces) == len(healthy.traces)
        for ours, theirs in zip(degraded.traces, healthy.traces):
            assert ours.query == theirs.query
            assert ours.binned == theirs.binned
            assert ours.sensitive_values_requested == theirs.sensitive_values_requested
            assert (
                ours.non_sensitive_values_requested
                == theirs.non_sensitive_values_requested
            )
            assert ours.encrypted_rows_returned == theirs.encrypted_rows_returned
            assert ours.non_sensitive_rows_returned == theirs.non_sensitive_rows_returned
            assert ours.rows_after_merge == theirs.rows_after_merge
            assert ours.transfer_seconds == pytest.approx(theirs.transfer_seconds)
        # the fleet as a whole observed exactly the same information: every
        # query's two half views exist with identical content (on possibly
        # different members — that is the failover), ...
        assert self.half_view_contents(degraded) == self.half_view_contents(healthy)
        # ...statistics aggregate to the same totals (the crashed member's
        # lost partial work must not be double-counted anywhere), ...
        stat_fields = [
            "queries_served",
            "sensitive_tokens_processed",
            "sensitive_rows_returned",
            "non_sensitive_rows_returned",
            "non_sensitive_probes",
        ]
        if self.use_encrypted_indexes:
            # Indexed paths examine exactly one bin's slice wherever it is
            # served; the linear-scan fallback legitimately scans a replica's
            # (differently sized) whole store instead.
            stat_fields.append("sensitive_rows_scanned")
        assert healthy.fleet is not None and degraded.fleet is not None
        for field_name in stat_fields:
            assert degraded.fleet.aggregate_stat(field_name) == healthy.fleet.aggregate_stat(
                field_name
            ), field_name
        assert degraded.fleet.total_transfer_tuples("download") == (
            healthy.fleet.total_transfer_tuples("download")
        )
        # ...and failover never weakened non-collusion: replica service
        # included, no member ever saw both halves of a request.
        self.assert_no_member_saw_both_halves(degraded)

    @staticmethod
    def assert_no_member_saw_both_halves(run: StrategyRun) -> None:
        assert run.fleet is not None
        for server in run.fleet.servers:
            for view in server.view_log:
                assert not (
                    bool(view.non_sensitive_request) and view.sensitive_request_size > 0
                ), f"{server.name} observed both halves of a request"


@pytest.fixture(scope="session")
def parity_dataset():
    """A general-case dataset (skew forces fake tuples) for parity suites."""
    return generate_partitioned_dataset(
        num_values=24,
        sensitivity_fraction=0.5,
        association_fraction=0.6,
        tuples_per_value=3,
        skew_exponent=1.1,
        seed=9,
    )


@pytest.fixture
def parity_harness(parity_dataset):
    """Factory for :class:`ExecutionParityHarness` over the shared dataset.

    Usage::

        harness = parity_harness(DeterministicScheme, num_shards=4)
        runs = harness.run_all()
        harness.assert_identical_results(runs)
    """

    made: List[ExecutionParityHarness] = []

    def _make(scheme_factory, dataset=None, **kwargs) -> ExecutionParityHarness:
        harness = ExecutionParityHarness(
            dataset if dataset is not None else parity_dataset,
            scheme_factory,
            **kwargs,
        )
        made.append(harness)
        return harness

    yield _make
    for harness in made:
        harness.close()


@pytest.fixture
def fault_harness(parity_dataset):
    """Factory for :class:`FaultInjectionHarness` over the shared dataset.

    Usage::

        harness = fault_harness(DeterministicScheme)
        workload = harness.workload()
        healthy = harness.run("sharded", workload)
        victim, load = harness.busiest_member(healthy, workload)
        degraded = harness.run_with_failure(workload, victim, at_offset=load // 2)
        harness.assert_degraded_parity(healthy, degraded)
    """

    made: List[FaultInjectionHarness] = []

    def _make(scheme_factory, dataset=None, **kwargs) -> FaultInjectionHarness:
        harness = FaultInjectionHarness(
            dataset if dataset is not None else parity_dataset,
            scheme_factory,
            **kwargs,
        )
        made.append(harness)
        return harness

    yield _make
    for harness in made:
        harness.close()
