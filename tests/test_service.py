"""Service-layer tests: sessions, admission control, shutdown, parity.

Fast enough for tier-1 (the ``service`` marker's smoke contract): every
test runs against a real TCP server on an ephemeral loopback port, but with
the paper's 8-tuple Employee relation, so a full start/serve/stop cycle is
tens of milliseconds.  The latency/SLO characterization lives in
``benchmarks/bench_service_latency.py`` (``slowperf``).
"""

import threading
import time

import pytest

from repro.exceptions import (
    ConfigurationError,
    ServiceError,
    ServiceOverloadedError,
    UnknownTenantError,
)
from repro.owner.db_owner import DBOwner
from repro.service import EncryptedSearchService, ServiceClient, TenantRegistry
from repro.workloads.employee import build_employee_relation, employee_policy

pytestmark = pytest.mark.service


def make_registry(tenants=("acme",), attributes=("EId",)):
    registry = TenantRegistry()
    for name in tenants:
        registry.provision(
            name,
            build_employee_relation(),
            employee_policy(),
            attributes=attributes,
            permutation_seed=17,
        )
    return registry


@pytest.fixture
def service():
    svc = EncryptedSearchService(
        make_registry(("acme", "globex")), num_workers=2, queue_depth=16
    ).start()
    yield svc
    svc.stop()


def connect(service, **kwargs):
    host, port = service.address
    return ServiceClient(host, port, **kwargs)


class TestServiceBasics:
    def test_ping_query_insert_stats_roundtrip(self, service):
        with connect(service) as client:
            assert client.ping("acme") == "pong"
            rows = client.query("acme", "EId", "E259")
            reference = service.registry.get("acme").owner.query("EId", "E259")
            assert sorted(rid for rid, _values in rows) == sorted(
                row.rid for row in reference
            )
            # insert under an existing value; a new value would be placed
            # in a free slot or rebin (tests/test_write_path.py)
            before = len(rows)
            client.insert(
                "acme",
                {"EId": "E259", "FirstName": "New", "LastName": "Hire",
                 "SSN": "999", "Office": "B1", "Dept": "QA"},
            )
            after = client.query("acme", "EId", "E259")
            assert len(after) == before + 1
            assert any(values["LastName"] == "Hire" for _rid, values in after)
            stats = client.stats("acme")
            assert stats["tenant"] == "acme"
            assert stats["served"] >= 3
            assert stats["errors"] == 0

    def test_unknown_tenant_is_typed(self, service):
        with connect(service) as client:
            with pytest.raises(UnknownTenantError):
                client.ping("initech")

    def test_domain_errors_cross_the_wire_typed(self, service):
        with connect(service) as client:
            # LastName exists in the schema but was never outsourced
            with pytest.raises(ConfigurationError):
                client.query("acme", "LastName", "Smith")
            with pytest.raises(ServiceError):
                client.call("acme", "no-such-op")

    def test_tenants_are_isolated(self, service):
        """Separate keystores, owners, and clouds per tenant."""
        acme = service.registry.get("acme")
        globex = service.registry.get("globex")
        assert acme.owner.keystore is not globex.owner.keystore
        assert acme.owner.cloud is not globex.owner.cloud
        with connect(service) as client:
            acme_rows = client.query("acme", "EId", "E259")
            globex_rows = client.query("globex", "EId", "E259")
            # same public dataset here, but served from distinct stores:
            # the per-tenant query counters move independently
            assert sorted(r for r, _v in acme_rows) == sorted(
                r for r, _v in globex_rows
            )
        assert acme.owner.cloud.stats.queries_served > 0
        assert acme.owner.cloud.stats.queries_served == (
            globex.owner.cloud.stats.queries_served
        )


class TestConcurrentClients:
    def test_concurrent_clients_match_direct_execution(self, service):
        """Service-level parity: N clients replaying a trace through the
        wire see exactly what direct (in-process) sequential execution sees."""
        values = ["E259", "E110", "E259", "E365", "E110", "E259"] * 2
        direct_owner = DBOwner(
            build_employee_relation(), employee_policy(), permutation_seed=17
        )
        direct_owner.outsource("EId")
        expected = {
            value: sorted(row.rid for row in direct_owner.query("EId", value))
            for value in set(values)
        }
        results = {}
        errors = []

        def client_loop(index):
            try:
                with connect(service) as client:
                    slice_values = values[index::3]
                    futures = [
                        client.submit("acme", "query", ("EId", value))
                        for value in slice_values
                    ]
                    results[index] = [
                        sorted(rid for rid, _values in future.result(timeout=30))
                        for future in futures
                    ]
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=client_loop, args=(index,), daemon=True)
            for index in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors
        for index in range(3):
            assert results[index] == [
                expected[value] for value in values[index::3]
            ]

    def test_pipelined_requests_resolve_out_of_order_safely(self, service):
        with connect(service) as client:
            futures = [
                client.submit("acme", "query", ("EId", value))
                for value in ["E259", "E110", "E365"] * 4
            ]
            resolved = [future.result(timeout=30) for future in futures]
            assert all(isinstance(rows, list) for rows in resolved)


def _wait_until(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {message}")
        time.sleep(0.002)


def _gate_worker(registry, tenant="acme"):
    """Monkeypatch the tenant session so the (single) worker parks on an
    Event: ``entered`` fires once the worker has *dequeued* a request and is
    executing it, ``release`` lets every gated request finish.  With the
    worker provably blocked, queue occupancy — and therefore which requests
    get rejected — is deterministic instead of a race against the worker's
    dequeue speed."""
    session = registry.get(tenant)
    original = session.execute
    entered = threading.Event()
    release = threading.Event()

    def gated_execute(op, payload):
        entered.set()
        release.wait(timeout=30.0)
        return original(op, payload)

    session.execute = gated_execute
    return entered, release


class TestAdmissionControl:
    def test_overload_rejects_instead_of_queueing(self):
        registry = make_registry(("acme",))
        service = EncryptedSearchService(
            registry, num_workers=1, queue_depth=2
        ).start()
        try:
            entered, release = _gate_worker(registry)
            with connect(service) as client:
                # occupy the worker, then confirm it has left the queue
                first = client.submit("acme", "ping")
                assert entered.wait(timeout=10.0)
                # fill the (now empty) queue to exactly queue_depth
                queued = [client.submit("acme", "ping") for _ in range(2)]
                _wait_until(
                    lambda: service.stats()["admitted"] == 3,
                    message="burst admission",
                )
                # worker blocked + queue full: every further request MUST
                # be rejected, immediately, by the reader thread
                overflow = [client.submit("acme", "ping") for _ in range(5)]
                for future in overflow:
                    with pytest.raises(ServiceOverloadedError):
                        future.result(timeout=10)
                release.set()
                assert first.result(timeout=10) == "pong"
                assert [f.result(timeout=10) for f in queued] == ["pong"] * 2
            stats = service.stats()
            assert stats["admitted"] == 3
            assert stats["rejected"] == 5
            assert stats["pending"] == 0
        finally:
            service.stop()

    def test_rejection_is_immediate_not_queued(self):
        """A rejected request's response arrives while the backlog is still
        being served — backpressure, not tail latency.  The worker is parked
        on an un-set Event, so the rejection can only have come from the
        admission path, never from the backlog draining first."""
        registry = make_registry(("acme",))
        service = EncryptedSearchService(
            registry, num_workers=1, queue_depth=1
        ).start()
        try:
            entered, release = _gate_worker(registry)
            with connect(service) as client:
                blocked = client.submit("acme", "ping")
                assert entered.wait(timeout=10.0)
                queued = client.submit("acme", "ping")
                _wait_until(
                    lambda: service.stats()["admitted"] == 2,
                    message="queue to fill",
                )
                with pytest.raises(ServiceOverloadedError):
                    client.submit("acme", "ping").result(timeout=10)
                # the backlog is provably still in flight behind the gate
                assert not blocked.done()
                assert not queued.done()
                release.set()
                assert blocked.result(timeout=10) == "pong"
                assert queued.result(timeout=10) == "pong"
        finally:
            service.stop()


class TestGracefulShutdown:
    def test_drain_serves_admitted_requests(self):
        registry = make_registry(("acme",))
        service = EncryptedSearchService(
            registry, num_workers=1, queue_depth=16
        ).start()
        session = registry.get("acme")
        original = session.execute
        session.execute = lambda op, payload: (
            time.sleep(0.05) or original(op, payload)
        )
        client = connect(service)
        futures = [client.submit("acme", "ping") for _ in range(5)]
        time.sleep(0.02)  # ensure admission happened before the stop
        service.stop(drain=True)
        # every admitted request was served before the teardown
        assert [future.result(timeout=5) for future in futures] == ["pong"] * 5
        assert service.stats()["pending"] == 0
        client.close()

    def test_stop_closes_tenants(self):
        registry = make_registry(("acme",))
        service = EncryptedSearchService(registry, num_workers=1).start()
        service.stop()
        with pytest.raises(ServiceError):
            registry.get("acme").execute("ping", ())

    def test_stop_is_idempotent_and_refuses_new_connections(self):
        service = EncryptedSearchService(make_registry(), num_workers=1).start()
        host, port = service.address
        service.stop()
        service.stop()
        with pytest.raises((ConnectionError, OSError, EOFError)):
            ServiceClient(host, port).ping("acme")
