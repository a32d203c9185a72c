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
    slice_rows,
    storage_order,
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


def by_bin(rows, place=lambda rid: rid % 3) -> dict:
    """``rows`` as a slice map: each row under ``place(rid)``, in row order."""
    slices: dict = {}
    for row in rows:
        slices.setdefault(place(row.rid), []).append(row)
    return slices


def assert_backend_parity(memory, sqlite, bins) -> None:
    """Every read surface of the two backends agrees, in storage order."""
    assert memory.row_count() == sqlite.row_count()
    assert list(memory.all_rows()) == list(sqlite.all_rows())
    assert memory.bin_counts() == sqlite.bin_counts()
    for bin_index in bins:
        assert list(memory.bin_candidates(bin_index)) == list(
            sqlite.bin_candidates(bin_index)
        )
    for probe in (list(bins), [None], list(bins) + [None], []):
        assert list(memory.slice_bins(probe).items()) == list(
            sqlite.slice_bins(probe).items()
        )
    # the full read is every slice, concatenated in storage order
    for backend in (memory, sqlite):
        everything = backend.slice_bins(backend.bin_counts())
        assert list(everything) == storage_order(everything)
        assert list(backend.all_rows()) == [
            row for rows in everything.values() for row in rows
        ]


@pytest.fixture
def backend_pair():
    memory, sqlite = MemoryBackend(), SQLiteBackend()
    yield memory, sqlite
    sqlite.close()


class TestBackendUnitParity:
    def place_for(self, shape: str, num_bins: int = 3):
        """rid → bin for every row (``full``), for all but every 4th row
        (``holes``, the rest under ``None``), or ``None`` for every row
        (``none``)."""
        if shape == "none":
            return lambda rid: None
        return lambda rid: (
            rid % num_bins if shape == "full" or rid % 4 != 0 else None
        )

    @pytest.mark.parametrize("shape", ["full", "holes", "none"])
    def test_reset_append_slice_drop_script(self, backend_pair, shape):
        memory, sqlite = backend_pair
        place = self.place_for(shape)
        base = synthetic_rows(20)
        for backend in (memory, sqlite):
            backend.reset(by_bin(base, place))
        assert_backend_parity(memory, sqlite, bins=range(4))
        if shape == "none":
            # a store outsourced without bins places no row, so every bin
            # slice is empty and only the linear scan reads them
            for backend in (memory, sqlite):
                assert list(backend.bin_candidates(0)) == []
                assert backend.bin_counts() == {None: len(base)}

        # append a second batch; with holes, one appended row stays
        # without a bin
        extra = synthetic_rows(8, start_rid=100)
        for backend in (memory, sqlite):
            backend.append(by_bin(extra, place))
        assert_backend_parity(memory, sqlite, bins=range(4))
        if shape == "holes":
            for backend in (memory, sqlite):
                assert 0 not in {row.rid for row in backend.bin_candidates(2)}
                assert 0 in {row.rid for row in backend.slice_bins([None])[None]}

        # drop one bin plus the rows stored without one, then a no-op drop
        dropped_memory = memory.drop_bins([1, None])
        dropped_sqlite = sqlite.drop_bins([1, None])
        assert dropped_memory == dropped_sqlite > 0
        assert_backend_parity(memory, sqlite, bins=range(4))
        assert memory.drop_bins([99]) == sqlite.drop_bins([99]) == 0
        assert_backend_parity(memory, sqlite, bins=range(4))

    def test_bin_read_returns_its_slice_alone(self, backend_pair):
        """A bin read returns exactly the bin's slice; rows stored without a
        bin are read only by the linear scan."""
        rows = synthetic_rows(12)

        def place(rid):  # rids 0, 4 and 8 are stored without a bin
            return rid % 3 if rid % 4 else None

        extra = synthetic_rows(4, start_rid=100)
        for backend in backend_pair:
            backend.reset(by_bin(rows, place))
            backend.append({1: [extra[0], extra[2]], None: [extra[1], extra[3]]})
            for bin_index in range(3):
                assert [row.rid for row in backend.bin_candidates(bin_index)] == [
                    row.rid for row in rows if place(row.rid) == bin_index
                ] + ([100, 102] if bin_index == 1 else [])
            # storage order: the rows without a bin, then bins ascending
            assert [row.rid for row in backend.all_rows()] == (
                [0, 4, 8, 101, 103] + [3, 6, 9] + [1, 7, 10, 100, 102] + [2, 5, 11]
            )
            assert backend.bin_counts()[None] == 5
        assert_backend_parity(*backend_pair, bins=range(3))

    @pytest.mark.parametrize("kind", ["memory", "sqlite"])
    def test_storage_order_through_reset_append_migration_and_drop(self, kind):
        """Storage order is defined once — rows without a bin first, then
        bins ascending, append order inside each bin — and holds through
        every mutation, whatever key order the slice maps arrive in."""
        backend = make_storage_backend(kind)
        peer = make_storage_backend("sqlite" if kind == "memory" else "memory")
        a, b, c, d, e, f, g = synthetic_rows(7)
        try:
            shared = [a, b]
            backend.reset({2: shared, None: [c], 0: [d]})
            # the store copies what it is handed: a replica chain shares one
            # list between members
            shared.append(g)
            assert list(backend.all_rows()) == [c, d, a, b]
            backend.append({0: [e], None: [f], 3: [g]})
            assert list(backend.all_rows()) == [c, f, d, e, a, b, g]
            assert list(backend.slice_bins([3, None, 0]).items()) == [
                (None, [c, f]),
                (0, [d, e]),
                (3, [g]),
            ]
            assert list(backend.bin_candidates(0)) == [d, e]

            # migration round trip: the slices a member ships re-create the
            # same store on a peer of the other kind, and dropping them and
            # taking them back leaves the store as it was
            everything = backend.slice_bins([None, 0, 2, 3])
            peer.reset(everything)
            assert list(peer.all_rows()) == list(backend.all_rows())
            moved = backend.slice_bins([0, None])
            assert backend.drop_bins([0, None]) == 4
            backend.append(moved)
            assert list(backend.all_rows()) == [c, f, d, e, a, b, g]

            # a drop pops whole slices, and the rest keep their order
            assert backend.drop_bins([2, None]) == 4
            assert list(backend.all_rows()) == [d, e, g]
            assert backend.bin_counts() == {0: 2, 3: 1}
            assert backend.row_count() == 3
        finally:
            backend.close()
            peer.close()

    def test_sqlite_transaction_rolls_back_atomically(self, backend_pair):
        memory, sqlite = backend_pair
        rows = synthetic_rows(5)
        for backend in (memory, sqlite):
            backend.reset({None: rows})
        before = list(sqlite.all_rows())
        with pytest.raises(RuntimeError):
            with sqlite.transaction():
                late = synthetic_rows(3, start_rid=200)
                sqlite.append({1: late[:1], None: late[1:]})
                raise RuntimeError("mid-mutation crash")
        # tables *and* the Python-side counters rolled back together
        assert sqlite.all_rows() == before
        assert sqlite.row_count() == 5
        assert sqlite.bin_counts() == {None: 5}
        # the next append lands at the positions the rollback released
        for backend in (memory, sqlite):
            backend.append({None: synthetic_rows(2, start_rid=300)})
        assert_backend_parity(memory, sqlite, bins=range(3))


class TestMemoryBackendLayout:
    @staticmethod
    def _row_lists(value) -> list:
        """Every sequence of rows reachable from ``value`` through dicts."""
        if isinstance(value, dict):
            return [found for item in value.values() for found in
                    TestMemoryBackendLayout._row_lists(item)]
        if isinstance(value, (list, tuple)) and any(
            isinstance(item, EncryptedRow) for item in value
        ):
            return [value]
        return []

    def test_each_stored_row_is_held_once_in_its_slice(self):
        """The memory store keeps no row list beside its slices: after a
        reset and two appends, each stored row sits in exactly one list,
        the one its bin reads."""
        backend = MemoryBackend()
        rows = synthetic_rows(12)
        backend.reset(by_bin(rows[:6]))
        backend.append(by_bin(rows[6:9], place=lambda rid: None))
        backend.append({1: rows[9:]})
        held = [
            found
            for value in vars(backend).values()
            for found in self._row_lists(value)
        ]
        assert sorted(id(row) for found in held for row in found) == sorted(
            id(row) for row in rows
        )
        slices = {
            bin_index: backend.bin_candidates(bin_index)
            for bin_index in backend.bin_counts()
        }
        assert sorted(map(id, held)) == sorted(map(id, slices.values()))
        assert [row.rid for row in slices[None]] == [6, 7, 8]
        assert [row.rid for row in slices[1]] == [1, 4, 9, 10, 11]


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
        backend.append({None: synthetic_rows(3)})
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
    server.store_sensitive(by_bin(encrypted), scheme)
    return server, encrypted, assignment


@pytest.mark.parametrize("storage_backend", STORAGE_BACKENDS)
class TestMutationPathInvalidation:
    def test_receive_migrated_slice_refreshes_snapshot(self, storage_backend):
        scheme = DeterministicScheme(SecretKey.from_passphrase("mutate"))
        source, _rows, _assignment = outsourced_server("memory", scheme)
        target, _trows, assignment = outsourced_server(storage_backend, scheme)
        try:
            before = target.stored_encrypted_rows  # warm the cache
            (moved_rows,) = source.sensitive_slice([1]).values()
            migrated = [
                EncryptedRow(
                    rid=row.rid + 1000,
                    ciphertext=row.ciphertext,
                    search_tag=row.search_tag,
                    is_fake=row.is_fake,
                )
                for row in moved_rows
            ]
            target.receive_migrated_slice({1: migrated})
            after = target.stored_encrypted_rows
            # storage order: the migrated rows close bin 1's slice
            tail = tuple(row for row in before if assignment[row.rid] == 2)
            assert after == before[: -len(tail)] + tuple(migrated) + tail
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


@pytest.mark.parametrize("storage_backend", STORAGE_BACKENDS)
class TestServerSliceMaps:
    def test_sensitive_slice_is_a_slice_map_in_storage_order(self, storage_backend):
        """A member ships exactly the stored bins it is asked for, keyed in
        storage order whatever order they are asked in, each slice in
        append order; the full read is those slices concatenated."""
        scheme = DeterministicScheme(SecretKey.from_passphrase("slices"))
        server, encrypted, assignment = outsourced_server(storage_backend, scheme)
        try:
            late, unbinned = synthetic_rows(2, start_rid=500)
            server.append_sensitive({None: [unbinned], 0: [late]})
            slices = server.sensitive_slice([2, None, 0, 7])
            assert list(slices) == [None, 0, 2]
            assert slices[None] == [unbinned]
            assert slices[0] == [
                row for row in encrypted if assignment[row.rid] == 0
            ] + [late]
            assert slices[2] == [row for row in encrypted if assignment[row.rid] == 2]
            assert server.network.total_tuples("migration-out") == slice_rows(slices)
            everything = server.sensitive_slice(list(server.stored_sensitive_bins()))
            assert server.stored_encrypted_rows == tuple(
                row for rows in everything.values() for row in rows
            )
        finally:
            server.close()


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
        backend.reset(by_bin(base))
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
                    slices = backend.slice_bins([0, 1])
                    assert set(slices) <= {0, 1}
                    assert all(
                        row.rid % 3 == bin_index
                        for bin_index, rows in slices.items()
                        for row in rows
                    )
            except Exception as exc:
                errors.append(exc)

        def writer():
            try:
                for index in range(appends):
                    fresh = synthetic_rows(batch, start_rid=1000 + index * batch)
                    backend.append(by_bin(fresh))
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
        reference.reset(by_bin(base))
        for index in range(appends):
            fresh = synthetic_rows(batch, start_rid=1000 + index * batch)
            reference.append(by_bin(fresh))
        assert list(backend.all_rows()) == list(reference.all_rows())
        assert backend.bin_counts() == reference.bin_counts()
        reference.close()
        backend.close()

    def test_concurrent_transactions_serialize(self):
        import threading

        backend = SQLiteBackend()
        backend.reset({None: synthetic_rows(6)})
        errors = []

        def drop_and_refill(start_rid):
            try:
                with backend.transaction():
                    # the whole read-modify-write is one critical section:
                    # no other thread's statements can land inside it
                    before = backend.row_count()
                    backend.append({None: synthetic_rows(2, start_rid=start_rid)})
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
