"""Storage-backend parity: the SQLite store is observably a memory store.

The tentpole claim of the storage engine is that ``storage_backend="sqlite"``
is *bit-identical* to the historical in-memory dict/list stores: same rows in
the same order from every read path, same bin slices, same migration
semantics, same observation counters — for every scheme, placement, and
member backend.  These tests pin that claim at three levels:

* backend unit parity — :class:`MemoryBackend` and :class:`SQLiteBackend`
  driven side by side through resets, appends, slices, and drops;
* server regression tests — every mutation path (append, migration in,
  bin drop, re-outsourcing) must invalidate the cached row snapshot and the
  interned retrievals, on both backends;
* execution parity — full workloads through the parity and fault harnesses,
  comparing memory and sqlite runs field for field.
"""

from __future__ import annotations

import os

import pytest

from repro.cloud.server import BatchRequest, CloudServer
from repro.cloud.storage import (
    STORAGE_BACKENDS,
    MemoryBackend,
    SQLiteBackend,
    make_storage_backend,
)
from repro.crypto.arx_index import ArxIndexScheme
from repro.crypto.base import EncryptedRow
from repro.crypto.deterministic import DeterministicScheme
from repro.crypto.nondeterministic import NonDeterministicScheme
from repro.crypto.primitives import SecretKey
from repro.crypto.searchable import SSEScheme
from repro.exceptions import CloudError

pytestmark = pytest.mark.storage

SCHEMES = {
    "deterministic": DeterministicScheme,
    "arx-index": ArxIndexScheme,
    "non-deterministic": NonDeterministicScheme,
    "sse": SSEScheme,
}


# -- backend unit parity ---------------------------------------------------------
#
# Drive both backends through the same mutation script and require every read
# surface to agree.  Rows are synthetic: EncryptedRow is a frozen value type,
# so `==` on reconstructed rows is exactly the bit-identity the claim needs.


def synthetic_rows(count: int, start_rid: int = 0) -> list:
    return [
        EncryptedRow(
            rid=start_rid + index,
            ciphertext=f"cipher-{start_rid + index}".encode(),
            search_tag=f"tag-{(start_rid + index) % 5}".encode(),
            is_fake=(index % 7 == 0),
        )
        for index in range(count)
    ]


def assert_backend_parity(memory, sqlite, bins) -> None:
    """Every read surface of the two backends agrees."""
    assert memory.row_count() == sqlite.row_count()
    assert list(memory.all_rows()) == list(sqlite.all_rows())
    assert memory.bin_counts() == sqlite.bin_counts()
    assert memory.bin_assignment_view() == sqlite.bin_assignment_view()
    assert memory.bin_store_view() == sqlite.bin_store_view()
    for bin_index in bins:
        assert list(memory.bin_candidates(bin_index)) == list(
            sqlite.bin_candidates(bin_index)
        )
    for probe in (list(bins), [None], list(bins) + [None], []):
        assert memory.slice_bins(probe) == sqlite.slice_bins(probe)


@pytest.fixture
def backend_pair():
    memory, sqlite = MemoryBackend(), SQLiteBackend()
    yield memory, sqlite
    sqlite.close()


class TestBackendUnitParity:
    def assignment_for(self, rows, shape: str, num_bins: int = 3):
        """rid → bin for every row (``full``), for all but every 4th row
        (``holes``), or no assignment at all (``none``)."""
        if shape == "none":
            return None
        return {
            row.rid: row.rid % num_bins
            for row in rows
            if shape == "full" or row.rid % 4 != 0
        }

    @pytest.mark.parametrize("shape", ["full", "holes", "none"])
    def test_reset_append_slice_drop_script(self, backend_pair, shape):
        memory, sqlite = backend_pair
        base = synthetic_rows(20)
        assignment = self.assignment_for(base, shape)
        for backend in (memory, sqlite):
            backend.reset(base, assignment)
        assert_backend_parity(memory, sqlite, bins=range(4))
        if assignment is None:
            # a store outsourced without an assignment keeps every row in
            # the overflow, so any bin retrieval scans the whole relation
            assert list(memory.bin_candidates(0)) == base

        # append a second batch; with holes, one row's assignment arrives
        # only now, and one appended row stays unassigned (the overflow
        # every bin scans)
        extra = synthetic_rows(8, start_rid=100)
        late = self.assignment_for(extra, shape)
        if shape == "holes":
            late[0] = 2  # base rid 0 was unassigned; its bin arrives late
        for backend in (memory, sqlite):
            backend.append(extra, late)
        assert_backend_parity(memory, sqlite, bins=range(4))

        # drop one bin plus the unassigned overflow, then a no-op drop
        dropped_memory = memory.drop_bins([1, None])
        dropped_sqlite = sqlite.drop_bins([1, None])
        assert dropped_memory == dropped_sqlite > 0
        assert_backend_parity(memory, sqlite, bins=range(4))
        assert memory.drop_bins([99]) == sqlite.drop_bins([99]) == 0
        assert_backend_parity(memory, sqlite, bins=range(4))

    def test_post_drop_replacement_from_assignment(self, backend_pair):
        """After a drop, surviving rows re-place from the *global* map.

        A row appended before its bin assignment existed sits in the
        unassigned overflow; the memory backend's post-drop rebuild moves it
        into its bin, and the SQLite backend must do the same.
        """
        memory, sqlite = backend_pair
        rows = synthetic_rows(6)
        for backend in (memory, sqlite):
            backend.reset(rows, None)
            # assignments arrive only with a later (empty) append
            backend.append([], {row.rid: 0 for row in rows[:3]})
        # before the drop both backends scan all six rows for any bin...
        assert len(memory.bin_candidates(0)) == len(sqlite.bin_candidates(0)) == 6
        for backend in (memory, sqlite):
            assert backend.drop_bins([99]) == 0  # nothing dropped, no rebuild
        assert len(sqlite.bin_candidates(0)) == 6
        # ...and dropping anything triggers the rebuild that re-places the
        # three assigned rows out of the overflow on both backends alike.
        sacrificial = synthetic_rows(1, start_rid=50)
        for backend in (memory, sqlite):
            backend.append(sacrificial, {50: 7})
            assert backend.drop_bins([7]) == 1
        assert_backend_parity(memory, sqlite, bins=range(3))
        for backend in (memory, sqlite):
            # the three assigned rows left the overflow for their bin...
            assert [row.rid for row in backend.bin_store_view().get(0, [])] == [0, 1, 2]
            # ...so a scan of any *other* bin now only sees the 3 unassigned
            assert len(backend.bin_candidates(1)) == 3

    def test_sqlite_transaction_rolls_back_atomically(self, backend_pair):
        memory, sqlite = backend_pair
        rows = synthetic_rows(5)
        for backend in (memory, sqlite):
            backend.reset(rows, None)
        before = list(sqlite.all_rows())
        with pytest.raises(RuntimeError):
            with sqlite.transaction():
                sqlite.append(synthetic_rows(3, start_rid=200), {200: 1})
                raise RuntimeError("mid-mutation crash")
        # tables *and* the Python-side counters rolled back together
        assert sqlite.all_rows() == before
        assert sqlite.row_count() == 5
        assert sqlite.bin_assignment_view() == {}
        # the next append lands at the positions the rollback released
        for backend in (memory, sqlite):
            backend.append(synthetic_rows(2, start_rid=300), None)
        assert_backend_parity(memory, sqlite, bins=range(3))


class TestBackendLifecycle:
    def test_make_storage_backend_resolution(self):
        assert isinstance(make_storage_backend(None), MemoryBackend)
        assert isinstance(make_storage_backend("memory"), MemoryBackend)
        sqlite = make_storage_backend("sqlite")
        try:
            assert isinstance(sqlite, SQLiteBackend)
        finally:
            sqlite.close()
        injected = MemoryBackend()
        assert make_storage_backend(injected) is injected
        with pytest.raises(CloudError):
            make_storage_backend("bogus")
        assert set(STORAGE_BACKENDS) == {"memory", "sqlite"}

    def test_sqlite_close_removes_owned_tempfile(self):
        backend = SQLiteBackend(member_name="cloud/member-1")
        path = backend.path
        assert os.path.exists(path)
        backend.close()
        backend.close()  # idempotent
        assert not os.path.exists(path)
        assert not os.path.exists(path + "-wal")

    def test_sqlite_explicit_path_is_preserved(self, tmp_path):
        path = str(tmp_path / "member.sqlite3")
        backend = SQLiteBackend(path=path)
        backend.append(synthetic_rows(3), None)
        backend.close()
        assert os.path.exists(path)

    def test_storage_dir_places_the_database(self, tmp_path):
        server = CloudServer(storage_backend="sqlite", storage_dir=str(tmp_path))
        try:
            assert os.path.dirname(server.storage.path) == str(tmp_path)
        finally:
            server.close()
        assert list(tmp_path.iterdir()) == []

    def test_unknown_backend_raises_cloud_error(self):
        with pytest.raises(CloudError):
            CloudServer(storage_backend="bogus")


# -- server mutation-path regressions --------------------------------------------
#
# The stale-cache audit: every mutation path must invalidate the cached row
# snapshot (`stored_encrypted_rows`) and the interned per-query retrievals, so
# reads *after* a mutation reflect it even when identical reads ran before it.


def outsourced_server(storage_backend: str, scheme, num_rows: int = 12):
    from repro.data.relation import Row

    rows = [
        Row(rid=index, values={"key": f"v{index % 4}", "payload": str(index)},
            sensitive=True)
        for index in range(num_rows)
    ]
    encrypted = scheme.encrypt_rows(rows, "key")
    assignment = {row.rid: row.rid % 3 for row in rows}
    server = CloudServer(storage_backend=storage_backend)
    server.store_sensitive(encrypted, scheme, assignment)
    return server, encrypted, assignment


@pytest.mark.parametrize("storage_backend", STORAGE_BACKENDS)
class TestMutationPathInvalidation:
    def test_receive_migrated_slice_refreshes_snapshot(self, storage_backend):
        scheme = DeterministicScheme(SecretKey.from_passphrase("mutate"))
        source, _rows, _assignment = outsourced_server("memory", scheme)
        target, _trows, _tassignment = outsourced_server(storage_backend, scheme)
        try:
            before = target.stored_encrypted_rows  # warm the cache
            slice_rows, slice_assignment = source.sensitive_slice([1])
            migrated = [
                EncryptedRow(
                    rid=row.rid + 1000,
                    ciphertext=row.ciphertext,
                    search_tag=row.search_tag,
                    is_fake=row.is_fake,
                )
                for row in slice_rows
            ]
            target.receive_migrated_slice(
                migrated,
                {rid + 1000: bin_ for rid, bin_ in slice_assignment.items()},
            )
            after = target.stored_encrypted_rows
            assert after == before + tuple(migrated)
            assert target.encrypted_row_count == len(before) + len(migrated)
            assert target.stored_sensitive_bins()[1] > source.stored_sensitive_bins()[1] - 1
        finally:
            source.close()
            target.close()

    def test_drop_sensitive_bins_refreshes_snapshot_and_serving(
        self, storage_backend
    ):
        scheme = DeterministicScheme(SecretKey.from_passphrase("mutate"))
        server, encrypted, assignment = outsourced_server(storage_backend, scheme)
        try:
            warm = server.stored_encrypted_rows
            assert len(warm) == len(encrypted)
            dropped = server.drop_sensitive_bins([2])
            expected_dropped = sum(1 for bin_ in assignment.values() if bin_ == 2)
            assert dropped == expected_dropped
            survivors = server.stored_encrypted_rows
            assert len(survivors) == len(encrypted) - dropped
            assert all(assignment[row.rid] != 2 for row in survivors)
            assert 2 not in server.stored_sensitive_bins()
            # a no-op drop must not clear anything
            again = server.stored_encrypted_rows
            assert server.drop_sensitive_bins([2]) == 0
            assert server.stored_encrypted_rows == again
        finally:
            server.close()

    def test_append_after_identical_query_serves_new_row(self, storage_backend):
        """The interned-retrieval regression: query, append, query again."""
        import random

        from repro.core.engine import QueryBinningEngine
        from repro.workloads.generator import generate_partitioned_dataset

        dataset = generate_partitioned_dataset(
            num_values=16,
            sensitivity_fraction=0.5,
            association_fraction=0.5,
            tuples_per_value=2,
            seed=13,
        )
        engine = QueryBinningEngine(
            partition=dataset.partition,
            attribute=dataset.attribute,
            scheme=DeterministicScheme(SecretKey.from_passphrase("mutate")),
            cloud=CloudServer(storage_backend=storage_backend),
            rng=random.Random(3),
        ).setup()
        try:
            value = next(iter(dataset.sensitive_counts))
            first = sorted(row.rid for row in engine.query(value))
            engine.insert(engine.partition.insert(
                {dataset.attribute: value, "payload": "fresh"}, sensitive=True
            ))
            second = sorted(row.rid for row in engine.query(value))
            assert len(second) == len(first) + 1
            assert set(first) < set(second)
            # a re-outsourcing (rebin path) rebuilds the store and still serves
            engine.cloud.reset_observations()
            engine.setup()
            third = sorted(row.rid for row in engine.query(value))
            assert set(second) <= set(third)  # fresh layout re-encrypts; the
            # original tuples plus the insert are all still retrievable
            assert len(third) >= len(second)
        finally:
            engine.cloud.close()

    def test_non_sensitive_append_reflected_in_serving(self, storage_backend):
        from repro.data.relation import Relation
        from repro.data.schema import Attribute, Schema

        relation = Relation(
            "ns", Schema([Attribute("key", dtype=str), Attribute("payload", dtype=str)])
        )
        first = relation.insert({"key": "a", "payload": "p"})
        server = CloudServer(storage_backend=storage_backend)
        try:
            server.store_non_sensitive(relation)
            server.build_index("key")
            assert [r.rid for r in server._select_non_sensitive("key", ["a"])] == [
                first.rid
            ]
            # owner inserts into the shared relation, then registers the row —
            # the indexed lookup must serve it immediately
            second = relation.insert({"key": "a", "payload": "q"})
            server.register_non_sensitive_row(second)
            assert [r.rid for r in server._select_non_sensitive("key", ["a"])] == [
                first.rid,
                second.rid,
            ]
        finally:
            server.close()

    def test_observation_snapshot_restore_round_trip(self, storage_backend):
        scheme = DeterministicScheme(SecretKey.from_passphrase("mutate"))
        server, _rows, _assignment = outsourced_server(storage_backend, scheme)

        def request(*values):
            tokens = scheme.tokens_for_values(list(values), "key")
            return BatchRequest(attribute="key", tokens=tuple(tokens))

        try:
            server.process_batch([request("v0")])
            snapshot = server.observation_snapshot()
            stats_then = server.stats.as_tuple()
            downloads_then = server.network.total_tuples("download")
            server.process_batch([request("v1", "v2"), request("v0")])
            assert server.stats.as_tuple() != stats_then
            assert server.network.total_tuples("download") > downloads_then
            assert len(server.view_log) == 3
            server.restore_observations(snapshot)
            assert server.stats.as_tuple() == stats_then
            assert server.network.total_tuples("download") == downloads_then
            assert server.network.transfers("download") == 1
            assert len(server.view_log) == 1
            assert server.observation_snapshot() == snapshot
        finally:
            server.close()


# -- execution parity across backends --------------------------------------------


def view_content(view):
    return (
        view.attribute,
        view.non_sensitive_request,
        view.sensitive_request_size,
        tuple(row.rid for row in view.returned_non_sensitive),
        view.returned_sensitive_rids,
        view.sensitive_bin_index,
        view.non_sensitive_bin_index,
    )


def assert_cross_backend_run_parity(memory_run, sqlite_run) -> None:
    """A sqlite run is field-for-field identical to the memory run."""
    assert sqlite_run.result_rids == memory_run.result_rids
    assert sqlite_run.traces == memory_run.traces
    assert sqlite_run.cloud.stats == memory_run.cloud.stats
    assert [view_content(v) for v in sqlite_run.cloud.view_log] == [
        view_content(v) for v in memory_run.cloud.view_log
    ]
    for direction in ("upload", "download"):
        assert sqlite_run.cloud.network.total_tuples(direction) == (
            memory_run.cloud.network.total_tuples(direction)
        )
    if memory_run.fleet is not None:
        assert sqlite_run.fleet is not None
        for field_name in (
            "queries_served",
            "sensitive_tokens_processed",
            "sensitive_rows_returned",
            "sensitive_rows_scanned",
            "non_sensitive_rows_returned",
            "non_sensitive_probes",
        ):
            assert sqlite_run.fleet.aggregate_stat(field_name) == (
                memory_run.fleet.aggregate_stat(field_name)
            ), field_name
        assert sqlite_run.fleet.total_transfer_tuples("download") == (
            memory_run.fleet.total_transfer_tuples("download")
        )
        for mem_server, sql_server in zip(
            memory_run.fleet.servers, sqlite_run.fleet.servers
        ):
            assert [view_content(v) for v in sql_server.view_log] == [
                view_content(v) for v in mem_server.view_log
            ]


@pytest.mark.multicloud
@pytest.mark.parametrize("scheme_name", sorted(SCHEMES), ids=sorted(SCHEMES))
class TestCrossBackendExecutionParity:
    def test_thread_fleet_all_placements(self, scheme_name, parity_harness):
        memory = parity_harness(SCHEMES[scheme_name])
        sqlite = parity_harness(SCHEMES[scheme_name], storage_backend="sqlite")
        workload = memory.workload()
        memory_runs = memory.run_all(workload)
        sqlite_runs = sqlite.run_all(workload)
        # the sqlite fleet satisfies the repo's own parity invariants...
        sqlite.assert_identical_results(sqlite_runs)
        sqlite.assert_identical_traces(sqlite_runs)
        sqlite.assert_single_server_parity(
            sqlite_runs["sequential"], sqlite_runs["batched"]
        )
        sqlite.assert_sharded_statistics_parity(
            sqlite_runs["sequential"], sqlite_runs["sharded"]
        )
        # ...and every placement is bit-identical to its memory twin
        for placement in memory.PLACEMENTS:
            assert_cross_backend_run_parity(
                memory_runs[placement], sqlite_runs[placement]
            )

    def test_stored_rows_identical_across_backends(self, scheme_name, parity_harness):
        """Outsourcing lands the same logical store in either backend.

        Ciphertext bytes differ between two independently keyed-up engines
        (AEAD nonces are random), so this compares the storage *structure*:
        row identity and order, fake-padding placement, and bin occupancy.
        Byte-exact write/read fidelity within one backend is pinned by the
        unit-parity tests above.
        """
        memory = parity_harness(SCHEMES[scheme_name])
        sqlite = parity_harness(SCHEMES[scheme_name], storage_backend="sqlite")
        memory_rows = memory.make_engine().cloud.stored_encrypted_rows
        sqlite_rows = sqlite.make_engine().cloud.stored_encrypted_rows
        assert [(row.rid, row.is_fake) for row in memory_rows] == [
            (row.rid, row.is_fake) for row in sqlite_rows
        ]
        assert memory.make_engine().cloud.stored_sensitive_bins() == (
            sqlite.make_engine().cloud.stored_sensitive_bins()
        )


@pytest.mark.multicloud
@pytest.mark.parametrize(
    "scheme_name",
    # one tag-matching scheme and the trial-decryption scheme cover both
    # kinds of search; the remaining schemes ride the (cheaper)
    # thread-backend matrix above
    ["deterministic", "sse"],
)
def test_process_fleet_backend_parity(scheme_name, parity_harness):
    memory = parity_harness(SCHEMES[scheme_name], member_backend="process")
    sqlite = parity_harness(
        SCHEMES[scheme_name], member_backend="process", storage_backend="sqlite"
    )
    workload = memory.workload()
    memory_run = memory.run("sharded", workload)
    sqlite_run = sqlite.run("sharded", workload)
    assert_cross_backend_run_parity(memory_run, sqlite_run)


@pytest.mark.faults
@pytest.mark.parametrize("scheme_name", ["deterministic", "sse"])
def test_sqlite_fault_parity_mid_batch_kill(scheme_name, fault_harness):
    """A member dies mid-batch over sqlite storage: parity must survive, and
    the degraded sqlite run must match the degraded memory run exactly."""
    sqlite = fault_harness(SCHEMES[scheme_name], storage_backend="sqlite")
    memory = fault_harness(SCHEMES[scheme_name])
    workload = sqlite.workload()
    healthy = sqlite.run("sharded", workload)
    victim, load = sqlite.busiest_member(healthy, workload)
    assert load > 1
    degraded = sqlite.run_with_failure(workload, victim, at_offset=load // 2)
    sqlite.assert_degraded_parity(healthy, degraded)
    memory_degraded = memory.run_with_failure(workload, victim, at_offset=load // 2)
    assert degraded.result_rids == memory_degraded.result_rids
    assert degraded.traces == memory_degraded.traces
    assert sqlite.half_view_contents(degraded) == memory.half_view_contents(
        memory_degraded
    )


@pytest.mark.faults
def test_sqlite_slice_migration_restores_redundancy(fault_harness):
    """Re-replication over sqlite members: the keyed SQL handoff end to end.

    Kill the busiest member, prove degraded parity, then
    ``restore_redundancy()`` — every re-homed slice is read from a
    surviving member's database (`sensitive_slice`), installed into the
    destination's (`receive_migrated_slice`), and the follow-up run is
    still bit-identical to the healthy reference.
    """
    from types import SimpleNamespace

    harness = fault_harness(
        DeterministicScheme, num_shards=5, storage_backend="sqlite"
    )
    workload = harness.workload(repeats=1)
    healthy = harness.run("sharded", workload)
    victim, load = harness.busiest_member(healthy, workload)
    degraded = harness.run_with_failure(workload, victim, at_offset=load // 2)
    harness.assert_degraded_parity(healthy, degraded)

    engine = degraded.engine
    fleet = engine.multi_cloud
    victim_bins = set(fleet[victim].stored_sensitive_bins())
    manager = engine.fleet_lifecycle()
    report = manager.restore_redundancy()
    assert victim in fleet.departed_members
    # exactly the victim's slices were re-homed, sourced via keyed SELECTs
    copied = {b for _source, _target, bins in report.copies for b in bins}
    assert copied == victim_bins
    assert set(manager.replication_health().values()) == {2}

    fleet.reset_observations()
    outcome = engine.execute_workload_with_rows(list(workload), placement="sharded")
    restored = SimpleNamespace(
        placement="sharded",
        engine=engine,
        fleet=fleet,
        cloud=engine.cloud,
        result_rids=[sorted(row.rid for row in rows) for rows, _trace in outcome],
        traces=[trace for _rows, trace in outcome],
    )
    harness.assert_degraded_parity(healthy, restored)


# -- threaded access ------------------------------------------------------------
#
# ``SQLiteBackend`` hands one connection (``check_same_thread=False``) to
# every fleet worker thread; before the connection mutex, interleaved
# cursors corrupted reads ("recursive use of cursors") and partially-applied
# writes were observable.  The hammer below is the regression pin: readers
# see every surface internally consistent while writers append and drop
# concurrently, and the end state is exactly the sequential end state.


class TestSQLiteThreadedAccess:
    def test_threaded_hammer_reads_stay_consistent(self):
        import threading

        backend = SQLiteBackend()
        base = synthetic_rows(30)
        assignment = {row.rid: row.rid % 3 for row in base}
        backend.reset(base, assignment)
        errors = []
        stop = threading.Event()
        appends, batch = 10, 5

        def reader():
            try:
                # every *single* read is a consistent snapshot: appends land
                # in whole batches, so any observed state is one of the
                # sequential states (mid-append row counts never show).
                # Cross-call comparisons are deliberately avoided — the
                # mutex serializes calls, not call *pairs*.
                valid_counts = {
                    len(base) + i * batch for i in range(appends + 1)
                }
                while not stop.is_set():
                    rows = backend.all_rows()
                    assert len(rows) == len({row.rid for row in rows})
                    assert len(rows) in valid_counts
                    counts = backend.bin_counts()
                    assert sum(counts.values()) in valid_counts
                    slice_rows, slice_map = backend.slice_bins([0, 1])
                    assert {row.rid for row in slice_rows} == set(slice_map)
            except Exception as exc:
                errors.append(exc)

        def writer():
            try:
                for index in range(appends):
                    fresh = synthetic_rows(batch, start_rid=1000 + index * batch)
                    backend.append(
                        fresh, {row.rid: row.rid % 3 for row in fresh}
                    )
            except Exception as exc:
                errors.append(exc)
            finally:
                stop.set()

        threads = [threading.Thread(target=reader, daemon=True) for _ in range(4)]
        threads.append(threading.Thread(target=writer, daemon=True))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors
        assert backend.row_count() == len(base) + appends * batch
        # end state matches the same script run sequentially
        reference = SQLiteBackend()
        reference.reset(base, assignment)
        for index in range(appends):
            fresh = synthetic_rows(batch, start_rid=1000 + index * batch)
            reference.append(fresh, {row.rid: row.rid % 3 for row in fresh})
        assert list(backend.all_rows()) == list(reference.all_rows())
        assert backend.bin_counts() == reference.bin_counts()
        reference.close()
        backend.close()

    def test_concurrent_transactions_serialize(self):
        import threading

        backend = SQLiteBackend()
        backend.reset(synthetic_rows(6), None)
        errors = []

        def drop_and_refill(start_rid):
            try:
                with backend.transaction():
                    # the whole read-modify-write is one critical section:
                    # no other thread's statements can land inside it
                    before = backend.row_count()
                    backend.append(synthetic_rows(2, start_rid=start_rid), None)
                    assert backend.row_count() == before + 2
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=drop_and_refill, args=(100 + i * 10,), daemon=True)
            for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors
        assert backend.row_count() == 6 + 12
        backend.close()
