"""Concurrency regression pins for the shared-state fixes.

Each test here reproduces a specific unsynchronized-mutation bug the
locking sweep fixed; they fail (flakily but reliably under enough
iterations) if the corresponding lock is removed:

- the engine's owner memo cleared by inserts mid-query → the engine lock;
- the layout's location maps rebuilt in place by the incremental inserter
  mid-query → the engine lock, held by the inserter;
- ``CloudServer`` observation state (query ids, view log, half-level
  caches) interleaved by concurrent serves → the server lock;
- ``NetworkModel`` counters bumped from fleet worker threads → the
  network lock.
"""

import random
import sys
import threading
import time

import pytest

from repro.cloud.network import NetworkModel
from repro.cloud.server import CloudServer
from repro.core.engine import QueryBinningEngine
from repro.crypto.deterministic import DeterministicScheme
from repro.crypto.primitives import SecretKey
from repro.extensions.inserts import IncrementalInserter
from repro.workloads.generator import generate_partitioned_dataset


@pytest.fixture
def concurrency_engine(parity_dataset):
    engine = QueryBinningEngine(
        partition=parity_dataset.partition,
        attribute=parity_dataset.attribute,
        scheme=DeterministicScheme(SecretKey.from_passphrase("concurrency-key")),
        cloud=CloudServer(),
        rng=random.Random(17),
    ).setup()
    return engine, parity_dataset


class TestEngineMutateWhileQuery:
    """Satellite pin: inserts clearing owner caches under live queries."""

    def test_queries_stay_exact_under_concurrent_inserts(self, concurrency_engine):
        engine, dataset = concurrency_engine
        values = list(dataset.all_values)
        baseline = {
            value: sorted(row.rid for row in engine.query(value)) for value in values
        }
        # inserts target ONE existing sensitive value; every other value's
        # result set must stay bit-identical throughout, which is only true
        # if a query never observes a half-cleared cache.
        target = next(
            value
            for value in values
            if engine.layout.locate_sensitive(value) is not None
        )
        template = next(iter(engine.partition.sensitive.rows))
        queried = [value for value in values if value != target]
        errors = []
        mismatches = []
        stop = threading.Event()

        def querier(worker_values):
            try:
                while not stop.is_set():
                    for value in worker_values:
                        rids = sorted(row.rid for row in engine.query(value))
                        if rids != baseline[value]:
                            mismatches.append((value, rids))
                            return
            except Exception as exc:
                errors.append(exc)

        def inserter(count):
            try:
                for _ in range(count):
                    new_values = dict(template.values)
                    new_values[engine.attribute] = target
                    engine.insert(new_values, sensitive=True)
            except Exception as exc:
                errors.append(exc)
            finally:
                stop.set()

        num_inserts = 12
        threads = [
            threading.Thread(target=querier, args=(queried[i::3],), daemon=True)
            for i in range(3)
        ] + [threading.Thread(target=inserter, args=(num_inserts,), daemon=True)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors
        assert not mismatches, mismatches
        # the inserted rows are all present once the dust settles
        final = sorted(row.rid for row in engine.query(target))
        assert len(final) == len(baseline[target]) + num_inserts


class TestInPlaceInsertWhileQuery:
    """Satellite pin: placing a new value rebuilds the layout's location
    maps in place; a query that ran in between saw them empty and answered
    ``[]`` for values that have rows."""

    def test_queries_stay_exact_while_new_values_are_placed(self):
        # a private dataset: the inserts add values, which must not leak
        # into the session-scoped fixtures other modules share
        dataset = generate_partitioned_dataset(
            num_values=200,
            sensitivity_fraction=0.5,
            association_fraction=0.6,
            tuples_per_value=1,
            seed=21,
        )
        engine = QueryBinningEngine(
            partition=dataset.partition,
            attribute=dataset.attribute,
            scheme=DeterministicScheme(SecretKey.from_passphrase("concurrency-key")),
            cloud=CloudServer(),
            rng=random.Random(17),
        ).setup()
        values = list(dataset.all_values)
        baseline = {
            value: sorted(row.rid for row in engine.query(value)) for value in values
        }
        inserter = IncrementalInserter(engine)
        templates = {
            True: next(iter(engine.partition.sensitive.rows)),
            False: next(iter(engine.partition.non_sensitive.rows)),
        }
        errors = []
        mismatches = []
        stop = threading.Event()

        def querier():
            try:
                while not stop.is_set():
                    for value in values:
                        rids = sorted(row.rid for row in engine.query(value))
                        if rids != baseline[value]:
                            mismatches.append((value, rids))
                        if stop.is_set():
                            return
            except Exception as exc:
                errors.append(exc)

        def placer():
            try:
                deadline = time.monotonic() + 1.0
                count = 0
                while time.monotonic() < deadline:
                    sensitive = count % 2 == 0
                    new_values = dict(templates[sensitive].values)
                    new_values[engine.attribute] = f"new-{count}"
                    inserter.insert(new_values, sensitive=sensitive)
                    count += 1
            except Exception as exc:
                errors.append(exc)
            finally:
                stop.set()

        threads = [
            threading.Thread(target=querier, daemon=True),
            threading.Thread(target=placer, daemon=True),
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert inserter.stats.new_value_in_place > 0
        assert not mismatches, mismatches[:5]


class TestCloudServerConcurrentServe:
    """Satellite pin: the server's observation state under parallel serves."""

    def test_query_ids_and_views_stay_consistent(self, concurrency_engine):
        engine, dataset = concurrency_engine
        values = list(dataset.all_values) * 2
        requests, _slots = engine.build_requests(values)
        requests = [request for request in requests if request is not None]
        responses = [None] * len(requests)
        errors = []

        def serve(index, request):
            try:
                responses[index] = engine.cloud.serve(request)
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=serve, args=(index, request), daemon=True)
            for index, request in enumerate(requests)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors
        assert all(response is not None for response in responses)
        # one view per serve, and query ids issued exactly once each
        assert len(engine.cloud.view_log) == len(requests)
        issued = sorted(view.query_id for view in engine.cloud.view_log)
        assert issued == list(range(len(requests)))


class TestNetworkModelCounters:
    """Satellite pin: transfer log and wire-byte counter atomicity."""

    def test_counters_are_exact_under_contention(self):
        network = NetworkModel()
        workers, per_worker = 8, 200
        errors = []

        def hammer(worker):
            try:
                for i in range(per_worker):
                    network.record("download", f"w{worker}", tuples=3)
                    network.add_wire_bytes(7)
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(worker,), daemon=True)
            for worker in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors
        total = workers * per_worker
        assert len(network.log) == total
        assert network.total_tuples("download") == 3 * total
        assert network.wire_bytes == 7 * total
        # the simulated clock is additive: N identical transfers cost
        # exactly N times one transfer, regardless of interleaving
        assert network.total_seconds() == pytest.approx(
            total * network.transfer_seconds(3)
        )

    def test_snapshot_roundtrip_is_atomic(self):
        network = NetworkModel()
        network.record("download", "seed", tuples=1)
        length = len(network.log)
        network.record("download", "doomed", tuples=5)
        network.truncate_log(length)
        assert [entry.description for entry in network.log] == ["seed"]
