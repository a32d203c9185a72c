"""The long-lived encrypted-search server.

:class:`EncryptedSearchService` turns the library into a service: a
threaded TCP front-end speaking the shared frame protocol
(:mod:`repro.service.protocol`), a bounded admission queue, a worker pool
executing tenant operations, and a graceful shutdown path that drains
in-flight work before tearing tenants down.

Threading model
---------------
One *accept* thread turns incoming connections into per-connection *reader*
threads.  A reader performs the hello handshake (under
``handshake_timeout`` — a peer that connects and never speaks, or speaks
garbage, costs one short-lived thread, never the accept loop), then
deserializes requests and admits them to a single bounded
:class:`queue.Queue` shared by ``num_workers`` *worker* threads; the worker
that picks a request up executes it against the tenant session and writes
the response back on the originating connection (under that connection's
send lock — responses from different workers may interleave on one socket,
and request ids let the client re-associate them).

Wire hardening
--------------
Every connection runs with the protocol-layer deadlines: ``read_deadline``
bounds idle waits between requests, ``message_timeout`` bounds each frame's
completion once started (slow-loris), ``send_timeout`` bounds response
writes to a peer that stopped reading, and ``max_frame_bytes`` caps what a
length prefix may announce.  A violated deadline, corrupt frame (a CRC
failure, or a frame that passes its CRC but does not unpickle), or
oversized frame reaps the connection: it is closed, removed from the
connection table, and counted in :meth:`stats`, and its reader exits — it
never leaks its thread, and the pending-request accounting stays exact
because workers finish their half independently (see below).  A response
send that misses ``send_timeout`` reaps the connection too, so the peer's
other queued responses fail fast instead of each holding a worker for the
whole deadline.

Admission control
-----------------
The queue is bounded (``queue_depth``).  When it is full the reader does
NOT block — it immediately sends a ``"rejected"`` response.  This is the
service's backpressure mechanism: past saturation, extra offered load turns
into explicit rejections (clients see
:class:`~repro.exceptions.ServiceOverloadedError` and may back off) instead
of unbounded queueing latency.  Before the shared queue, each request
passes its tenant's :class:`~repro.service.tenants.TokenBucket` (when
configured): a tenant over its rate gets a
:class:`~repro.exceptions.TenantRateLimitedError`-typed rejection charged
to *that tenant's* accounting, so a noisy tenant sheds its own load before
it can crowd the queue every tenant shares.

Deadlines and exactly-once
--------------------------
Requests may carry ``ttl_seconds``; a worker that dequeues a request whose
budget expired while queued drops it *unexecuted* with a
:class:`~repro.exceptions.DeadlineExceededError`-typed response — capacity
goes to callers still listening.  Mutating ops from an identified client
(``client_id`` set) pass the tenant's
:class:`~repro.service.tenants.DedupWindow`: a replayed ``insert`` (client
retry after connection loss, or duplicate delivery by a hostile network)
returns the original outcome instead of applying twice.

A worker always runs ``_finish_request`` — even when the response cannot
be delivered because the connection died after admission.  Undeliverable
responses are counted (``dropped_responses``) rather than leaked, so the
drain barrier and ``stats()`` stay exact under arbitrary client deaths.

Shutdown
--------
``stop(drain=True)`` first stops accepting connections and admitting
requests, then waits (up to ``drain_timeout``) for every already-admitted
request to complete and its response to be flushed, and only then stops the
workers, closes client connections, and closes every tenant (which in turn
closes fleets, worker processes, and storage files).  ``drain=False``
discards the backlog instead of serving it.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.cloud.process_member import FrameChannel
from repro.exceptions import (
    FrameTooLargeError,
    ServiceClosedError,
    WireTimeoutError,
)
from repro.service.protocol import (
    DEFAULT_MAX_MESSAGE_BYTES,
    MUTATING_OPS,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    ServiceRequest,
    ServiceResponse,
    SocketConnection,
)
from repro.service.tenants import TenantRegistry, TenantSession


class _ServiceConnection:
    """One client connection: a frame channel plus a send lock.

    Workers finishing out of order share the socket, so every outbound
    message goes through :meth:`send`, which serializes writes and never
    raises: a client that hung up no longer cares about its responses, and
    the server must not die on its behalf.
    """

    def __init__(self, channel: FrameChannel, count: Callable[[str], None]):
        self.channel = channel
        self._count = count
        self._send_lock = threading.Lock()
        self._reaped = False  # guarded by the send lock

    def send(self, response: ServiceResponse) -> bool:
        """Deliver one response; False when it could not be."""
        with self._send_lock:
            if self.channel.closed:
                return False
            try:
                self.channel.send_message(response)
                return True
            except WireTimeoutError:
                # the peer stopped reading and the frame may be half
                # written: the stream is unusable
                self._reap_locked()
            except (EOFError, OSError):
                self.channel.close()  # the peer hung up: not a reap
            except Exception:
                # pickling (or the frame cap) failed before a byte was
                # written: the stream is intact, only this response is lost
                pass
            return False

    def reap(self) -> None:
        """Close the connection and count it reaped (once per connection)."""
        with self._send_lock:
            self._reap_locked()

    def _reap_locked(self) -> None:
        if not self._reaped:
            self._reaped = True
            self._count("reaped_connections")
        self.channel.close()

    def close(self) -> None:
        with self._send_lock:
            self.channel.close()


class EncryptedSearchService:
    """A multi-tenant encrypted-search server over TCP."""

    def __init__(
        self,
        registry: Optional[TenantRegistry] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        num_workers: int = 4,
        queue_depth: int = 64,
        drain_timeout: float = 30.0,
        handshake_timeout: float = 5.0,
        read_deadline: Optional[float] = 30.0,
        message_timeout: Optional[float] = 10.0,
        send_timeout: Optional[float] = 10.0,
        max_frame_bytes: int = DEFAULT_MAX_MESSAGE_BYTES,
    ):
        """``port=0`` binds an ephemeral port (read it from :attr:`address`
        after :meth:`start`).  ``queue_depth`` bounds admitted-but-unserved
        requests across *all* connections; the four wire knobs
        (``handshake_timeout`` / ``read_deadline`` / ``message_timeout`` /
        ``send_timeout``) and ``max_frame_bytes`` are the per-connection
        hardening documented on the module."""
        self.registry = registry if registry is not None else TenantRegistry()
        self._host = host
        self._port = port
        self._num_workers = max(1, int(num_workers))
        self._queue_depth = max(1, int(queue_depth))
        self._drain_timeout = drain_timeout
        self._handshake_timeout = handshake_timeout
        self._read_deadline = read_deadline
        self._message_timeout = message_timeout
        self._send_timeout = send_timeout
        self._max_frame_bytes = int(max_frame_bytes)

        self._queue: "queue.Queue" = queue.Queue(maxsize=self._queue_depth)
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._workers: List[threading.Thread] = []
        self._readers: Dict[threading.Thread, None] = {}
        self._connections: List[_ServiceConnection] = []
        self._conn_lock = threading.Lock()

        #: in-flight accounting for the drain barrier: a request is pending
        #: from successful admission until its response has been sent (or
        #: dropped on a dead connection).
        self._pending = 0
        self._pending_cond = threading.Condition()

        self._stats_lock = threading.Lock()
        self._counters: Dict[str, int] = {
            "admitted": 0,
            "rejected": 0,
            "rate_limited": 0,
            "expired": 0,
            "deduplicated": 0,
            "dropped_responses": 0,
            "handshake_failures": 0,
            "reaped_connections": 0,
            "corrupt_frames": 0,
            "oversized_frames": 0,
        }

        self._started = False
        self._accepting = False
        self._stopped = False
        self._state_lock = threading.Lock()

    def _count(self, counter: str, amount: int = 1) -> None:
        with self._stats_lock:
            self._counters[counter] += amount

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> "EncryptedSearchService":
        with self._state_lock:
            if self._started:
                raise ServiceClosedError("service already started")
            self._started = True
            self._accepting = True
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(128)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="svc-accept", daemon=True
        )
        self._accept_thread.start()
        for index in range(self._num_workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"svc-worker-{index}", daemon=True
            )
            worker.start()
            self._workers.append(worker)
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The (host, port) the service is listening on."""
        if self._listener is None:
            raise ServiceClosedError("service is not started")
        return self._listener.getsockname()[:2]

    def stop(self, drain: bool = True) -> None:
        """Shut down; with ``drain`` serve the admitted backlog first."""
        with self._state_lock:
            if self._stopped or not self._started:
                self._stopped = True
                return
            self._stopped = True
            self._accepting = False
        # stop new connections: shutdown() (not just close()) is what wakes
        # a thread already blocked in accept() — a blocked accept holds a
        # kernel reference that keeps a merely-closed socket listening
        if self._listener is not None:
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        if drain:
            deadline = time.monotonic() + self._drain_timeout
            with self._pending_cond:
                while self._pending > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break  # drain timed out; abandon the stragglers
                    self._pending_cond.wait(remaining)
        else:
            # discard the backlog: nobody will be told, but every
            # connection is about to be closed anyway
            while True:
                try:
                    self._queue.get_nowait()
                    self._finish_request()
                except queue.Empty:
                    break
        for _ in self._workers:
            self._queue.put(None)
        for worker in self._workers:
            worker.join(timeout=self._drain_timeout)
        with self._conn_lock:
            connections = list(self._connections)
            readers = list(self._readers)
        for connection in connections:
            connection.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for reader in readers:
            reader.join(timeout=5.0)
        self.registry.close_all()

    def __enter__(self) -> "EncryptedSearchService":
        return self.start() if not self._started else self

    def __exit__(self, *_exc_info) -> None:
        self.stop()

    # -- stats --------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        with self._stats_lock:
            counters = dict(self._counters)
        with self._pending_cond:
            counters["pending"] = self._pending
        with self._conn_lock:
            counters["open_connections"] = len(self._connections)
        return counters

    # -- accept / read ------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while self._accepting:
            try:
                client_socket, _addr = self._listener.accept()
            except OSError:
                return  # listener closed: shutdown
            if not self._accepting:  # raced with stop(): refuse, don't serve
                client_socket.close()
                return
            # the handshake happens on the reader thread, never here: a
            # peer that connects and goes silent must not stall accept
            reader = threading.Thread(
                target=self._reader_loop, args=(client_socket,),
                name="svc-reader", daemon=True,
            )
            with self._conn_lock:
                self._readers[reader] = None
            reader.start()

    def _handshake(self, client_socket: socket.socket) -> Optional[_ServiceConnection]:
        """Run the hello exchange under ``handshake_timeout``; None on failure."""
        transport = SocketConnection(
            client_socket,
            read_timeout=self._handshake_timeout,
            message_timeout=self._handshake_timeout,
            send_timeout=self._send_timeout,
            max_message_bytes=self._max_frame_bytes,
        )
        channel = FrameChannel(transport)
        try:
            channel.recv_hello("service client")
            channel.send_hello()
        except Exception:
            # never-sends, garbage-before-hello, version mismatch, or a
            # peer that vanished: one counter, one closed socket, no thread
            self._count("handshake_failures")
            channel.close()
            return None
        # steady state: switch from the handshake deadline to the idle one
        transport.read_timeout = self._read_deadline
        transport.message_timeout = self._message_timeout
        return _ServiceConnection(channel, self._count)

    def _reader_loop(self, client_socket: socket.socket) -> None:
        connection = self._handshake(client_socket)
        if connection is None:
            self._forget_reader()
            return
        with self._conn_lock:
            self._connections.append(connection)
        try:
            self._read_requests(connection)
        finally:
            connection.close()
            with self._conn_lock:
                if connection in self._connections:
                    self._connections.remove(connection)
            self._forget_reader()

    def _forget_reader(self) -> None:
        with self._conn_lock:
            self._readers.pop(threading.current_thread(), None)

    def _read_requests(self, connection: _ServiceConnection) -> None:
        while True:
            try:
                message = connection.channel.recv_message()
            except (EOFError, OSError):
                return  # client hung up (or shutdown closed the socket)
            except FrameTooLargeError as error:
                # the request id is unknowable (the frame was refused), so
                # answer on id -1 as a courtesy, then drop the connection —
                # clients enforce the same cap before sending, making this
                # the hostile/corrupted-peer path, not a normal error path
                self._count("oversized_frames")
                connection.send(
                    ServiceResponse(
                        request_id=-1,
                        status=STATUS_ERROR,
                        error=str(error),
                        error_type="FrameTooLargeError",
                    )
                )
                connection.reap()
                return
            except WireTimeoutError:
                # idle past read_deadline or wedged mid-frame past
                # message_timeout: reap the connection, free the thread
                connection.reap()
                return
            except Exception:
                if connection.channel.closed:
                    return  # closed under us: shutdown or a send-side reap
                # a CRC failure, or a frame that passed its CRC but does
                # not unpickle: either way the stream cannot be trusted
                self._count("corrupt_frames")
                connection.reap()
                return
            if not isinstance(message, ServiceRequest):
                connection.send(
                    ServiceResponse(
                        request_id=getattr(message, "request_id", -1),
                        status=STATUS_ERROR,
                        error=f"expected a ServiceRequest, got {type(message).__name__}",
                        error_type="ServiceError",
                    )
                )
                continue
            self._admit(message, connection)

    def _admit(self, request: ServiceRequest, connection: _ServiceConnection) -> None:
        if not self._accepting:
            connection.send(
                ServiceResponse(
                    request_id=request.request_id,
                    status=STATUS_ERROR,
                    error="service is shutting down",
                    error_type="ServiceClosedError",
                )
            )
            return
        session = self._session_for(request)
        if session is not None and session.rate_limit is not None:
            if not session.rate_limit.try_acquire():
                session.note_rate_limited()
                self._count("rate_limited")
                connection.send(
                    ServiceResponse(
                        request_id=request.request_id,
                        status=STATUS_REJECTED,
                        error=(
                            f"tenant {request.tenant!r} is over its rate "
                            "limit; back off and retry"
                        ),
                        error_type="TenantRateLimitedError",
                    )
                )
                return
        # claim the pending slot BEFORE the put: a worker may finish the
        # request between put_nowait and a later increment, and the drain
        # barrier must never observe pending == 0 with work still queued
        self._begin_request()
        try:
            self._queue.put_nowait((request, connection, time.monotonic()))
        except queue.Full:
            self._finish_request()
            self._count("rejected")
            connection.send(
                ServiceResponse(
                    request_id=request.request_id,
                    status=STATUS_REJECTED,
                    error="admission queue is full",
                    error_type="ServiceOverloadedError",
                )
            )
            return
        self._count("admitted")

    def _session_for(self, request: ServiceRequest) -> Optional[TenantSession]:
        try:
            return self.registry.get(request.tenant)
        except Exception:
            # unknown tenant: admit anyway so the worker produces the
            # usual typed UnknownTenantError response
            return None

    # -- execution ----------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            request, connection, admitted_at = item
            try:
                response = self._serve(request, admitted_at)
                if not connection.send(response):
                    self._count("dropped_responses")
            finally:
                # unconditionally: the drain barrier and stats() must stay
                # exact even when serving or sending blew up — a connection
                # that died after admission must not leak its pending slot
                self._finish_request()

    def _serve(self, request: ServiceRequest, admitted_at: float) -> ServiceResponse:
        started = time.perf_counter()

        def finish(
            status: str,
            result: object = None,
            error: Optional[str] = None,
            error_type: Optional[str] = None,
        ) -> ServiceResponse:
            return ServiceResponse(
                request_id=request.request_id,
                status=status,
                result=result,
                error=error,
                error_type=error_type,
                service_seconds=time.perf_counter() - started,
            )

        session: Optional[TenantSession] = None
        dedup_key: Optional[Tuple[str, int]] = None
        try:
            session = self.registry.get(request.tenant)
            # a request whose client gave up while it queued is dropped
            # unexecuted — capacity goes to callers still listening
            if request.ttl_seconds is not None and (
                time.monotonic() - admitted_at > request.ttl_seconds
            ):
                session.note_expired()
                self._count("expired")
                return finish(
                    STATUS_ERROR,
                    error=(
                        f"request deadline of {request.ttl_seconds:.3f}s "
                        "expired while queued; dropped without executing"
                    ),
                    error_type="DeadlineExceededError",
                )
            if request.client_id and request.op in MUTATING_OPS:
                dedup_key = (request.client_id, request.request_id)
                is_primary, outcome = session.dedup.claim(dedup_key)
                if not is_primary:
                    # replayed delivery: return the original outcome; the
                    # mutation was applied exactly once, by the primary
                    session.note_deduplicated()
                    self._count("deduplicated")
                    status, result, error, error_type = outcome
                    return finish(status, result, error, error_type)
            result = session.execute(request.op, request.payload)
            if dedup_key is not None:
                session.dedup.complete(dedup_key, (STATUS_OK, result, None, None))
                dedup_key = None
            return finish(STATUS_OK, result=result)
        except Exception as exc:  # every failure becomes a response
            outcome = (STATUS_ERROR, None, str(exc), type(exc).__name__)
            if dedup_key is not None and session is not None:
                # record the failure too: the replay must see "it failed",
                # not silently run the mutation a second time
                session.dedup.complete(dedup_key, outcome)
                dedup_key = None
            return finish(STATUS_ERROR, error=str(exc), error_type=type(exc).__name__)
        finally:
            if dedup_key is not None and session is not None:
                session.dedup.abandon(dedup_key)

    # -- pending accounting -------------------------------------------------------
    def _begin_request(self) -> None:
        with self._pending_cond:
            self._pending += 1

    def _finish_request(self) -> None:
        with self._pending_cond:
            self._pending -= 1
            if self._pending <= 0:
                self._pending_cond.notify_all()
