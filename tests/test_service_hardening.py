"""Wire hardening: handshake failures, reaping, frame caps, rate limits,
deadlines, dedup, and exact accounting under client death.

Every test runs against a real TCP service on an ephemeral loopback port,
with deadlines tightened to keep the suite seconds-fast.  The raw-socket
helpers below speak the service's message format (u32 length | u32 crc32 |
payload) directly, so the hostile-peer tests exercise the server with
byte sequences no well-behaved client would produce.
"""

import operator
import pickle
import socket
import struct
import threading
import time
import zlib

import pytest

from repro.cloud.process_member import (
    WIRE_MAGIC,
    WIRE_PICKLE_PROTOCOL,
    WIRE_VERSION,
    FrameChannel,
)
from repro.exceptions import (
    DeadlineExceededError,
    FrameTooLargeError,
    ServiceError,
    TenantRateLimitedError,
    WireTimeoutError,
)
from repro.service import (
    DedupWindow,
    EncryptedSearchService,
    RetryPolicy,
    ServiceClient,
    ServiceRequest,
    SocketConnection,
    TenantRegistry,
    TokenBucket,
)
from repro.service.protocol import _MESSAGE_HEADER, STATUS_ERROR, STATUS_OK
from repro.workloads.employee import build_employee_relation, employee_policy

pytestmark = pytest.mark.service

_HELLO = struct.Struct("<4sHH")


def make_registry(tenants=("acme",), **session_kwargs):
    registry = TenantRegistry()
    for name in tenants:
        registry.provision(
            name,
            build_employee_relation(),
            employee_policy(),
            attributes=("EId",),
            permutation_seed=17,
            **session_kwargs,
        )
    return registry


def _wait_until(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {message}")
        time.sleep(0.002)


def _counters(service, *names):
    stats = service.stats()
    return tuple(stats[name] for name in names)


def _gate_worker(registry, tenant="acme"):
    """Park the tenant's execute on an Event (see tests/test_service.py)."""
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


def _service_threads():
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("svc-")
    ]


# -- raw-socket protocol helpers ---------------------------------------------------


def send_raw_message(sock, payload: bytes) -> None:
    sock.sendall(_MESSAGE_HEADER.pack(len(payload), zlib.crc32(payload)) + payload)


def _recv_exact(sock, count: int) -> bytes:
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        if not chunk:
            raise EOFError("peer closed")
        data += chunk
    return data


def recv_raw_message(sock) -> bytes:
    length, crc = _MESSAGE_HEADER.unpack(_recv_exact(sock, _MESSAGE_HEADER.size))
    payload = _recv_exact(sock, length)
    assert zlib.crc32(payload) == crc
    return payload


def recv_frame_object(sock):
    """One whole FrameChannel frame: one message carrying a pickle."""
    return pickle.loads(recv_raw_message(sock))


class _RaisesOnLoad:
    """Pickles fine; unpickling calls ``loader(*args)``, which raises."""

    def __init__(self, loader, args):
        self.loader = loader
        self.args = args

    def __reduce__(self):
        return self.loader, self.args


def raw_handshake(sock) -> None:
    send_raw_message(
        sock, _HELLO.pack(WIRE_MAGIC, WIRE_VERSION, WIRE_PICKLE_PROTOCOL)
    )
    hello = recv_raw_message(sock)
    magic, version, _protocol = _HELLO.unpack(hello)
    assert magic == WIRE_MAGIC and version == WIRE_VERSION


# -- handshake failure modes -------------------------------------------------------


class TestHandshakeFailureModes:
    """A peer that never completes the hello costs one counter and one
    closed socket — never a parked reader thread or a stalled accept loop."""

    @pytest.fixture
    def service(self):
        svc = EncryptedSearchService(
            make_registry(), num_workers=1, handshake_timeout=0.3
        ).start()
        yield svc
        svc.stop()

    def _assert_failure_handled(self, service, sock):
        # the server closes the connection...
        sock.settimeout(5.0)
        deadline = time.monotonic() + 5.0
        while True:
            try:
                if sock.recv(4096) == b"":
                    break
            except OSError:
                break
            if time.monotonic() > deadline:
                raise AssertionError("server kept the bad connection open")
        # ...counts the failure, frees the reader thread, and still serves
        _wait_until(
            lambda: service.stats()["handshake_failures"] >= 1,
            message="handshake failure accounting",
        )
        _wait_until(
            lambda: "svc-reader" not in _service_threads(),
            message="reader thread to exit",
        )
        host, port = service.address
        with ServiceClient(host, port) as client:
            assert client.ping("acme") == "pong"

    def test_version_mismatch_hello(self, service):
        with socket.create_connection(service.address) as sock:
            send_raw_message(
                sock,
                _HELLO.pack(WIRE_MAGIC, WIRE_VERSION + 1, WIRE_PICKLE_PROTOCOL),
            )
            self._assert_failure_handled(service, sock)

    def test_garbage_before_hello(self, service):
        with socket.create_connection(service.address) as sock:
            # not even a framed message: the length prefix decodes to
            # ~542 MB, which the frame cap refuses before allocating
            sock.sendall(b"GET / HTTP/1.1\r\nHost: nope\r\n\r\n")
            self._assert_failure_handled(service, sock)

    def test_client_that_connects_but_never_sends(self, service):
        with socket.create_connection(service.address) as sock:
            # send nothing at all: the handshake deadline must reap us
            self._assert_failure_handled(service, sock)

    def test_wrong_magic_hello(self, service):
        with socket.create_connection(service.address) as sock:
            send_raw_message(
                sock, _HELLO.pack(b"XXXX", WIRE_VERSION, WIRE_PICKLE_PROTOCOL)
            )
            self._assert_failure_handled(service, sock)


# -- post-handshake reaping --------------------------------------------------------


class TestConnectionReaping:
    def test_slow_loris_mid_frame_is_reaped(self):
        """A frame that starts but never finishes trips message_timeout."""
        service = EncryptedSearchService(
            make_registry(), num_workers=1,
            read_deadline=30.0, message_timeout=0.3,
        ).start()
        try:
            with socket.create_connection(service.address) as sock:
                raw_handshake(sock)
                # announce 100 bytes, deliver 10, hold the line open
                sock.sendall(_MESSAGE_HEADER.pack(100, 0) + b"x" * 10)
                _wait_until(
                    lambda: service.stats()["reaped_connections"] >= 1,
                    message="slow-loris reap",
                )
                _wait_until(
                    lambda: service.stats()["open_connections"] == 0,
                    message="connection table cleanup",
                )
        finally:
            service.stop()

    def test_idle_connection_is_reaped_after_read_deadline(self):
        service = EncryptedSearchService(
            make_registry(), num_workers=1, read_deadline=0.3
        ).start()
        try:
            with socket.create_connection(service.address) as sock:
                raw_handshake(sock)
                _wait_until(
                    lambda: service.stats()["reaped_connections"] >= 1,
                    message="idle reap",
                )
                _wait_until(
                    lambda: "svc-reader" not in _service_threads(),
                    message="reader thread exit",
                )
        finally:
            service.stop()

    def test_corrupt_frame_fails_loudly_and_reaps(self):
        service = EncryptedSearchService(make_registry(), num_workers=1).start()
        try:
            with socket.create_connection(service.address) as sock:
                raw_handshake(sock)
                payload = b"not the bytes the checksum promises"
                sock.sendall(
                    _MESSAGE_HEADER.pack(len(payload), zlib.crc32(b"original"))
                    + payload
                )
                _wait_until(
                    lambda: service.stats()["corrupt_frames"] == 1,
                    message="corruption accounting",
                )
                assert service.stats()["reaped_connections"] >= 1
        finally:
            service.stop()

    def test_peer_that_stops_reading_is_reaped(self):
        """A response send that misses send_timeout reaps the connection,
        so the peer's other queued responses stop holding the workers."""
        service = EncryptedSearchService(
            make_registry(), num_workers=2, send_timeout=0.2
        ).start()
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
                # a small receive window fills after a few responses
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.connect(service.address)
                peer = FrameChannel(SocketConnection(sock, send_timeout=1.0))
                peer.send_hello()
                peer.recv_hello("service")
                try:
                    for request_id in range(100_000):
                        peer.send_message(ServiceRequest(request_id, "acme", "stats"))
                except (OSError, WireTimeoutError):
                    pass  # reaped, or the server stopped reading
                _wait_until(
                    lambda: _counters(
                        service, "reaped_connections", "pending", "open_connections"
                    ) == (1, 0, 0),
                    timeout=5.0,
                    message="the non-reading peer to be reaped",
                )
            host, port = service.address
            with ServiceClient(host, port, timeout=1.0) as client:
                started = time.monotonic()
                assert client.ping("acme") == "pong"
                assert time.monotonic() - started < 1.0
        finally:
            service.stop()

    @pytest.mark.filterwarnings(
        "error::pytest.PytestUnhandledThreadExceptionWarning"
    )
    @pytest.mark.parametrize(
        "loader,args",
        [
            (int, ("not a number",)),
            (getattr, (0, "no_such_attribute")),
            (operator.truediv, (1, 0)),
        ],
        ids=["ValueError", "AttributeError", "ZeroDivisionError"],
    )
    def test_frame_that_does_not_unpickle_is_reaped(self, loader, args):
        """A frame with a valid CRC whose pickle raises on load is counted
        and reaped like a corrupt one, never raised out of the reader."""
        service = EncryptedSearchService(make_registry(), num_workers=1).start()
        try:
            with socket.create_connection(service.address) as sock:
                peer = FrameChannel(SocketConnection(sock))
                peer.send_hello()
                peer.recv_hello("service")
                peer.send_message(_RaisesOnLoad(loader, args))
                _wait_until(
                    lambda: _counters(
                        service, "corrupt_frames", "reaped_connections",
                        "open_connections",
                    ) == (1, 1, 0),
                    timeout=5.0,
                    message="the frame to be counted and its connection reaped",
                )
                with pytest.raises(EOFError):
                    peer.recv_message()
            host, port = service.address
            with ServiceClient(host, port) as client:
                assert client.ping("acme") == "pong"
        finally:
            service.stop()


# -- frame size caps ---------------------------------------------------------------


class TestFrameSizeCaps:
    def test_client_side_cap_rejects_before_sending(self):
        service = EncryptedSearchService(make_registry(), num_workers=1).start()
        try:
            host, port = service.address
            with ServiceClient(host, port, max_frame_bytes=64 * 1024) as client:
                with pytest.raises(FrameTooLargeError):
                    client.insert(
                        "acme",
                        {"EId": "E259", "blob": "x" * (256 * 1024)},
                    )
                # nothing hit the wire: the connection is still good
                assert client.ping("acme") == "pong"
        finally:
            service.stop()

    def test_server_side_cap_refuses_oversized_announcement(self):
        """A forged frame header announcing 2 GiB must cost the peer its
        connection (typed courtesy response on id -1), not the server an
        allocation."""
        service = EncryptedSearchService(make_registry(), num_workers=1).start()
        try:
            with socket.create_connection(service.address) as sock:
                raw_handshake(sock)
                sock.sendall(_MESSAGE_HEADER.pack(1 << 31, 0))
                response = recv_frame_object(sock)
                assert response.request_id == -1
                assert response.status == STATUS_ERROR
                assert response.error_type == "FrameTooLargeError"
                _wait_until(
                    lambda: service.stats()["oversized_frames"] == 1,
                    message="oversize accounting",
                )
                with pytest.raises(EOFError):
                    recv_raw_message(sock)  # connection was dropped
        finally:
            service.stop()


# -- per-tenant rate limiting ------------------------------------------------------


class TestRateLimiting:
    def test_token_bucket_refill_math(self):
        now = [0.0]
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=lambda: now[0])
        assert [bucket.try_acquire() for _ in range(4)] == [True, True, True, False]
        now[0] += 0.1  # one token refilled
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        now[0] += 10.0  # refill caps at burst
        assert [bucket.try_acquire() for _ in range(4)] == [True, True, True, False]

    def test_noisy_tenant_is_shed_with_typed_rejection(self):
        now = [0.0]
        registry = TenantRegistry()
        registry.provision(
            "noisy",
            build_employee_relation(),
            employee_policy(),
            attributes=("EId",),
            permutation_seed=17,
            rate_limit=TokenBucket(rate=100.0, burst=3.0, clock=lambda: now[0]),
        )
        registry.provision(
            "calm",
            build_employee_relation(),
            employee_policy(),
            attributes=("EId",),
            permutation_seed=17,
        )
        service = EncryptedSearchService(registry, num_workers=2).start()
        try:
            host, port = service.address
            with ServiceClient(host, port) as client:
                outcomes = []
                for _ in range(5):  # frozen clock: no refill mid-burst
                    try:
                        outcomes.append(client.ping("noisy"))
                    except TenantRateLimitedError:
                        outcomes.append("shed")
                assert outcomes == ["pong", "pong", "pong", "shed", "shed"]
                # the compliant tenant is untouched by its neighbour's limit
                assert client.ping("calm") == "pong"
                now[0] += 1.0  # refill so the stats op itself is admitted
                noisy = client.stats("noisy")
                assert noisy["rate_limited"] == 2
                assert noisy["served"] == 3  # the pongs; sheds never ran
                assert client.stats("calm")["rate_limited"] == 0
            stats = service.stats()
            assert stats["rate_limited"] == 2
            assert stats["rejected"] == 0  # global queue never saturated
        finally:
            service.stop()

    def test_retrying_client_rides_out_the_limit(self):
        registry = make_registry(
            rate_limit=TokenBucket(rate=50.0, burst=1.0)
        )
        service = EncryptedSearchService(registry, num_workers=1).start()
        try:
            host, port = service.address
            with ServiceClient(
                host, port, retry=RetryPolicy(max_attempts=8, base_delay=0.01, seed=3)
            ) as client:
                assert [client.ping("acme") for _ in range(4)] == ["pong"] * 4
            assert service.registry.get("acme").stats()["rate_limited"] >= 1
        finally:
            service.stop()


# -- request deadlines -------------------------------------------------------------


class TestRequestDeadlines:
    def test_expired_request_is_dropped_unexecuted(self):
        registry = make_registry()
        service = EncryptedSearchService(registry, num_workers=1).start()
        try:
            entered, release = _gate_worker(registry)
            host, port = service.address
            with ServiceClient(host, port) as client:
                blocker = client.submit("acme", "ping")
                assert entered.wait(timeout=10.0)
                doomed = client.submit("acme", "ping", deadline=0.05)
                _wait_until(
                    lambda: service.stats()["admitted"] == 2,
                    message="doomed request admission",
                )
                time.sleep(0.15)  # let the deadline lapse while queued
                release.set()
                assert blocker.result(timeout=10) == "pong"
                with pytest.raises(DeadlineExceededError):
                    doomed.result(timeout=10)
                # dropped unexecuted: served counts only the gated ping
                session = registry.get("acme")
                assert session.stats()["expired"] == 1
            assert service.stats()["expired"] == 1
        finally:
            service.stop()

    def test_live_deadline_is_honoured(self):
        service = EncryptedSearchService(make_registry(), num_workers=1).start()
        try:
            host, port = service.address
            with ServiceClient(host, port) as client:
                assert client.ping("acme", deadline=30.0) == "pong"
            assert service.stats()["expired"] == 0
        finally:
            service.stop()


# -- dedup window ------------------------------------------------------------------


class TestDedupWindow:
    def test_primary_then_replay(self):
        window = DedupWindow(capacity=4)
        is_primary, outcome = window.claim(("c1", 7))
        assert is_primary and outcome is None
        window.complete(("c1", 7), (STATUS_OK, "result", None, None))
        is_primary, outcome = window.claim(("c1", 7))
        assert not is_primary
        assert outcome == (STATUS_OK, "result", None, None)

    def test_concurrent_duplicate_waits_for_primary(self):
        window = DedupWindow()
        key = ("c1", 1)
        assert window.claim(key) == (True, None)
        seen = []

        def replica():
            seen.append(window.claim(key, timeout=5.0))

        thread = threading.Thread(target=replica, daemon=True)
        thread.start()
        time.sleep(0.05)
        assert not seen  # replica is parked until the primary completes
        window.complete(key, (STATUS_OK, 42, None, None))
        thread.join(timeout=5.0)
        assert seen == [(False, (STATUS_OK, 42, None, None))]

    def test_window_evicts_oldest_completed_only(self):
        window = DedupWindow(capacity=2)
        window.claim(("c", 0))  # stays pending: never evictable
        for index in range(1, 5):
            window.claim(("c", index))
            window.complete(("c", index), (STATUS_OK, index, None, None))
        assert len(window) <= 3  # pending + capacity completed
        # the pending key survived every eviction round
        is_primary, _outcome = window.claim(("c", 4))
        assert not is_primary
        window.complete(("c", 0), (STATUS_OK, 0, None, None))

    def test_abandon_releases_claim(self):
        window = DedupWindow()
        assert window.claim(("c", 1)) == (True, None)
        window.abandon(("c", 1))
        assert window.claim(("c", 1)) == (True, None)  # claimable again

    def test_replayed_insert_applies_exactly_once(self):
        """Two deliveries of one (client_id, request_id) — here via two
        clients sharing an identity, each allocating request id 0 — must
        execute once: the second sees the recorded outcome, not a re-run."""
        registry = make_registry()
        service = EncryptedSearchService(registry, num_workers=2).start()
        try:
            host, port = service.address
            with ServiceClient(host, port) as probe:
                before = len(probe.query("acme", "EId", "E259"))
            row = {
                "EId": "E259", "FirstName": "Rep", "LastName": "Layed",
                "SSN": "998", "Office": "9", "Dept": "QA",
            }
            with ServiceClient(host, port, client_id="twin") as first:
                first.insert("acme", row)  # request id 0 under "twin"
            with ServiceClient(host, port, client_id="twin") as second:
                second.insert("acme", row)  # same key: replayed, not applied
            with ServiceClient(host, port) as probe:
                after = len(probe.query("acme", "EId", "E259"))
            assert after == before + 1  # exactly once
            assert registry.get("acme").stats()["deduplicated"] == 1
            assert service.stats()["deduplicated"] == 1
        finally:
            service.stop()

    def test_failure_outcomes_replay_as_failures(self):
        """A replayed request whose primary failed must see the recorded
        failure — never silently run the mutation a second time."""
        registry = make_registry()
        service = EncryptedSearchService(registry, num_workers=2).start()
        try:
            host, port = service.address
            bad_payload = ("not-a-mapping",)  # insert(values) wants a dict
            with ServiceClient(host, port, client_id="twin-f") as first:
                with pytest.raises(ServiceError):
                    first.call("acme", "insert", bad_payload)
            with ServiceClient(host, port, client_id="twin-f") as second:
                with pytest.raises(ServiceError):
                    # valid payload, but the key replays the recorded
                    # failure instead of executing this delivery
                    second.call(
                        "acme",
                        "insert",
                        ({"EId": "E259", "FirstName": "No", "LastName": "Never",
                          "SSN": "997", "Office": "9", "Dept": "QA"},),
                    )
            session = registry.get("acme")
            assert session.stats()["deduplicated"] == 1
            assert session.stats()["errors"] == 1  # only the primary ran
        finally:
            service.stop()


# -- admission accounting under client death ---------------------------------------


class TestAdmissionAccounting:
    def test_finish_runs_when_connection_dies_before_response(self):
        """The PR 9 gap: a connection gone by response time must not leak
        the pending slot — the drain barrier and stats() stay exact, and
        the undeliverable response is counted, not lost."""
        registry = make_registry()
        service = EncryptedSearchService(registry, num_workers=1).start()
        try:
            entered, release = _gate_worker(registry)
            host, port = service.address
            client = ServiceClient(host, port)
            client.submit("acme", "ping")
            assert entered.wait(timeout=10.0)
            client.close()  # the requester vanishes mid-execution
            _wait_until(
                lambda: service.stats()["open_connections"] == 0,
                message="dead connection cleanup",
            )
            release.set()
            _wait_until(
                lambda: service.stats()["pending"] == 0,
                message="pending slot release",
            )
            stats = service.stats()
            assert stats["admitted"] == 1
            assert stats["dropped_responses"] == 1
        finally:
            service.stop()
        assert _service_threads() == []

    def test_unencodable_response_is_dropped_and_the_connection_kept(self):
        """A response that fails to pickle never reaches the socket, so
        the stream is intact: only that response is lost, nothing is
        reaped, and the connection keeps serving."""
        registry = make_registry()
        session = registry.get("acme")
        execute = session.execute
        session.execute = lambda op, payload: (
            threading.Lock() if op == "stats" else execute(op, payload)
        )
        service = EncryptedSearchService(registry, num_workers=1).start()
        try:
            host, port = service.address
            with ServiceClient(host, port, timeout=5.0) as client:
                lost = client.submit("acme", "stats")
                _wait_until(
                    lambda: service.stats()["dropped_responses"] == 1,
                    message="the unencodable response to be dropped",
                )
                assert client.ping("acme") == "pong"
                assert not lost.done()
                assert _counters(
                    service, "reaped_connections", "open_connections"
                ) == (0, 1)
        finally:
            service.stop()


# -- client/connection lifecycle races ---------------------------------------------


class TestClientLifecycle:
    def test_socket_connection_close_is_concurrent_safe(self):
        left, right = socket.socketpair()
        try:
            connection = SocketConnection(left)
            errors = []

            def closer():
                try:
                    connection.close()
                except Exception as exc:  # pragma: no cover - the bug
                    errors.append(exc)

            threads = [
                threading.Thread(target=closer, daemon=True) for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=5.0)
            assert errors == []
            assert connection.closed
        finally:
            right.close()

    def test_death_mid_handshake_fails_construction_cleanly(self):
        """A server that accepts and hangs up before the hello must fail
        the constructor — no hang, no leaked receiver thread."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()[:2]
        accepted = []

        def accept_and_slam():
            sock, _addr = listener.accept()
            accepted.append(sock)
            sock.close()

        thread = threading.Thread(target=accept_and_slam, daemon=True)
        thread.start()
        try:
            with pytest.raises((OSError, EOFError)):
                ServiceClient(host, port, handshake_timeout=1.0)
            thread.join(timeout=5.0)
            assert "svc-client-recv" not in [
                t.name for t in threading.enumerate()
            ]
        finally:
            listener.close()

    def test_pending_futures_fail_exactly_once_when_server_dies(self):
        registry = make_registry()
        service = EncryptedSearchService(registry, num_workers=1).start()
        entered, release = _gate_worker(registry)
        host, port = service.address
        client = ServiceClient(host, port)
        try:
            in_flight = [client.submit("acme", "ping") for _ in range(4)]
            assert entered.wait(timeout=10.0)
            release.set()
            service.stop(drain=False)  # connections slam shut under the client
            resolved = []
            for future in in_flight:
                try:
                    resolved.append(future.result(timeout=10.0))
                except Exception as exc:
                    resolved.append(type(exc).__name__)
            # every future resolved exactly once — a hang here means a
            # future was never failed; an InvalidStateError in the receiver
            # means one was failed twice
            assert len(resolved) == 4
            client.close()
            client.close()  # idempotent under repeated/concurrent closers
        finally:
            service.stop()
            client.close()

    def test_retry_policy_is_deterministic_per_seed(self):
        import random as random_module

        policy = RetryPolicy(seed=11)
        first = [
            policy.delay(attempt, random_module.Random(11)) for attempt in range(4)
        ]
        second = [
            policy.delay(attempt, random_module.Random(11)) for attempt in range(4)
        ]
        assert first == second
        assert all(delay >= 0 for delay in first)
