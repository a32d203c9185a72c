"""Client for the encrypted-search service.

:class:`ServiceClient` owns one TCP connection and multiplexes any number
of in-flight requests over it.  A background receiver thread reads
responses and resolves the :class:`concurrent.futures.Future` registered
under each request id, so callers can either block per request
(:meth:`call`) or pipeline — fire many :meth:`submit` calls and collect the
futures later.  The open-loop load harness depends on pipelining: an
open-loop client must issue the next arrival on schedule even while earlier
requests are still in flight, or measured latency silently degrades into
closed-loop latency.

Response statuses map to exceptions: ``"rejected"`` raises
:class:`~repro.exceptions.ServiceOverloadedError` (or its
:class:`~repro.exceptions.TenantRateLimitedError` subclass — back off and
retry), ``"error"`` raises the server-side exception type when it is a
known :class:`~repro.exceptions.ReproError`, else
:class:`~repro.exceptions.ServiceError`.

Resilience (PR 10)
------------------
With a :class:`RetryPolicy`, :meth:`call` becomes an *idempotent retrying*
call: it allocates one request id for the logical request and replays that
same ``(client_id, request_id)`` across attempts — reconnecting first when
the connection died — with exponential backoff and **seeded** jitter (two
clients built with the same seed back off identically; chaos tests are
reproducible).  The server's per-tenant dedup window makes the replay
exactly-once for mutating ops: a retried ``insert`` whose first delivery
actually executed returns the original outcome instead of applying again.

Connection loss is handled exactly once: whichever of the receiver thread,
a failed send, or :meth:`close` notices first closes the transport
(idempotently) and fails every pending future; late arrivals on the dict
are impossible because futures are popped under the lock before being
resolved, and a client that died mid-handshake leaves no socket and no
receiver thread behind.
"""

from __future__ import annotations

import itertools
import os
import random
import socket
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Dict, Optional, Tuple

from repro import exceptions
from repro.cloud.process_member import FrameChannel
from repro.exceptions import (
    DeadlineExceededError,
    FrameTooLargeError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    WireProtocolError,
)
from repro.service.protocol import (
    DEFAULT_MAX_MESSAGE_BYTES,
    STATUS_OK,
    STATUS_REJECTED,
    ServiceRequest,
    ServiceResponse,
    SocketConnection,
)

_CLIENT_SEQUENCE = itertools.count()


def _default_client_id() -> str:
    """Unique per client object within and across processes on one host —
    the dedup key's namespace, not a secret."""
    return f"c{os.getpid()}-{next(_CLIENT_SEQUENCE)}"


class RetryPolicy:
    """Exponential backoff with seeded jitter.

    Attempt ``n`` (0-based) sleeps ``base_delay * multiplier**n`` capped at
    ``max_delay``, scaled by a jitter factor drawn from
    ``[1 - jitter, 1]`` using the policy's own seeded RNG — full
    determinism for tests, desynchronised retries in fleets (seed per
    client).  ``max_attempts`` counts total tries, first included.
    """

    def __init__(
        self,
        max_attempts: int = 6,
        base_delay: float = 0.02,
        multiplier: float = 2.0,
        max_delay: float = 2.0,
        jitter: float = 0.5,
        seed: int = 0,
    ):
        if max_attempts < 1:
            raise ServiceError("retry policy needs at least one attempt")
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.multiplier = float(multiplier)
        self.max_delay = float(max_delay)
        self.jitter = min(1.0, max(0.0, float(jitter)))
        self.seed = seed

    def delay(self, attempt: int, rng: random.Random) -> float:
        raw = min(self.max_delay, self.base_delay * self.multiplier ** attempt)
        return raw * rng.uniform(1.0 - self.jitter, 1.0)


#: Failures worth replaying the same request for: the transport died (the
#: server may or may not have seen the request — dedup disambiguates), the
#: wire itself misbehaved, or the server explicitly said "later".
_RETRYABLE = (
    ServiceClosedError,
    ServiceOverloadedError,
    WireProtocolError,
    ConnectionError,
    EOFError,
    OSError,
)


class ServiceClient:
    """One connection to an :class:`~repro.service.server.EncryptedSearchService`."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = None,
        client_id: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        chaos=None,
        connect_timeout: float = 10.0,
        handshake_timeout: float = 10.0,
        max_frame_bytes: int = DEFAULT_MAX_MESSAGE_BYTES,
    ):
        """``timeout`` bounds each blocking :meth:`call` *attempt* (None =
        wait forever); pipelined futures apply it at ``result()`` time.
        ``retry`` opts into the idempotent retrying behaviour; ``chaos``
        accepts a :class:`~repro.service.chaos.ChaosScenario` whose scripts
        fault-inject each successive connection (tests/benchmarks)."""
        self._host = host
        self._port = port
        self._timeout = timeout
        self.client_id = client_id if client_id is not None else _default_client_id()
        self._retry = retry
        self._chaos = chaos
        self._connect_timeout = connect_timeout
        self._handshake_timeout = handshake_timeout
        self._max_frame_bytes = int(max_frame_bytes)
        self._rng = random.Random(retry.seed if retry is not None else 0)

        self._send_lock = threading.RLock()
        self._pending_lock = threading.Lock()
        self._pending: Dict[int, "Future[ServiceResponse]"] = {}
        self._next_id = 0
        self._closed = False
        self._close_lock = threading.Lock()
        self._channel: Optional[FrameChannel] = None
        self._receiver: Optional[threading.Thread] = None
        self._connect()

    # -- connection management ----------------------------------------------------
    def _connect(self) -> None:
        """Dial, handshake (bounded), and start this connection's receiver."""
        sock = socket.create_connection(
            (self._host, self._port), timeout=self._connect_timeout
        )
        sock.settimeout(None)
        try:
            if self._chaos is not None:
                transport, channel = self._chaos.connect(
                    sock, max_message_bytes=self._max_frame_bytes
                )
            else:
                transport = SocketConnection(
                    sock, max_message_bytes=self._max_frame_bytes
                )
                channel = FrameChannel(transport)
            # a server that accepts but never answers the hello must fail
            # the constructor, not park it: bound the handshake reads
            transport.read_timeout = self._handshake_timeout
            transport.message_timeout = self._handshake_timeout
            channel.send_hello()
            channel.recv_hello("service")
            transport.read_timeout = None
            transport.message_timeout = None
        except BaseException:
            # mid-handshake death leaks nothing: no channel, no receiver
            # thread, and the socket is closed before the error surfaces
            sock.close()
            raise
        self._channel = channel
        self._receiver = threading.Thread(
            target=self._receive_loop, args=(channel,),
            name="svc-client-recv", daemon=True,
        )
        self._receiver.start()

    def _ensure_connected(self) -> None:
        """(Re)establish the connection; caller holds ``_send_lock``."""
        if self._channel is not None and not self._channel.closed:
            return
        old_receiver = self._receiver
        self._channel = None
        self._receiver = None
        if old_receiver is not None and old_receiver is not threading.current_thread():
            old_receiver.join(timeout=5.0)
        # anything still pending belonged to the dead connection
        self._fail_pending(ServiceClosedError("service connection lost"))
        self._connect()

    def _connection_lost(self, channel: FrameChannel, error: Exception) -> None:
        """Exactly-once cleanup for a dead connection, from any thread."""
        channel.close()  # idempotent: racing closers are safe
        self._fail_pending(error)

    # -- request issue ------------------------------------------------------------
    def submit(
        self,
        tenant: str,
        op: str,
        payload: Tuple = (),
        deadline: Optional[float] = None,
    ) -> "Future[object]":
        """Send one request without waiting; the future resolves to the
        op's result (or raises the mapped service exception).  ``deadline``
        is the request's time-to-live in seconds: the server drops it
        unexecuted once the budget expires."""
        with self._send_lock:
            if self._closed:
                raise ServiceClosedError("client is closed")
            self._ensure_connected()
            request_id = self._next_id
            self._next_id += 1
            return self._send_request(request_id, tenant, op, payload, deadline)

    def _send_request(
        self,
        request_id: int,
        tenant: str,
        op: str,
        payload: Tuple,
        deadline: Optional[float],
    ) -> "Future[object]":
        """Register a future and ship the request; caller holds ``_send_lock``."""
        channel = self._channel
        assert channel is not None
        future: "Future[object]" = Future()
        with self._pending_lock:
            self._pending[request_id] = future
        try:
            channel.send_message(
                ServiceRequest(
                    request_id=request_id,
                    tenant=tenant,
                    op=op,
                    payload=tuple(payload),
                    client_id=self.client_id,
                    ttl_seconds=deadline,
                )
            )
        except FrameTooLargeError:
            # nothing hit the wire (the transport checks before sending):
            # the connection is still good, only this request is refused
            with self._pending_lock:
                self._pending.pop(request_id, None)
            raise
        except Exception as exc:
            with self._pending_lock:
                self._pending.pop(request_id, None)
            self._connection_lost(channel, ServiceClosedError(
                f"service connection failed while sending: {exc}"
            ))
            raise ServiceClosedError(
                f"service connection failed while sending: {exc}"
            ) from exc
        return future

    def call(
        self,
        tenant: str,
        op: str,
        payload: Tuple = (),
        deadline: Optional[float] = None,
    ) -> object:
        """Send one request and block for its result.

        With a :class:`RetryPolicy` this is the idempotent retrying path:
        one request id for the logical request, replayed verbatim across
        reconnects, with seeded-jitter backoff between attempts.
        """
        if self._retry is None:
            return self.submit(tenant, op, payload, deadline).result(
                timeout=self._timeout
            )
        with self._send_lock:
            if self._closed:
                raise ServiceClosedError("client is closed")
            request_id = self._next_id
            self._next_id += 1
        last_error: Optional[Exception] = None
        for attempt in range(self._retry.max_attempts):
            if attempt:
                time.sleep(self._retry.delay(attempt - 1, self._rng))
            try:
                with self._send_lock:
                    if self._closed:
                        raise ServiceClosedError("client is closed")
                    self._ensure_connected()
                    future = self._send_request(
                        request_id, tenant, op, payload, deadline
                    )
                return future.result(timeout=self._timeout)
            except DeadlineExceededError:
                raise  # the deadline IS the retry budget; don't outlive it
            except FrameTooLargeError:
                raise  # deterministic: the replay would be oversized too
            except _RETRYABLE as exc:
                if self._closed:
                    raise
                last_error = exc
            except FutureTimeoutError:
                raise  # per-attempt timeout is the caller's patience bound
        assert last_error is not None
        raise last_error

    # -- convenience wrappers -----------------------------------------------------
    def ping(self, tenant: str, deadline: Optional[float] = None) -> object:
        return self.call(tenant, "ping", deadline=deadline)

    def query(
        self,
        tenant: str,
        attribute: str,
        value: object,
        deadline: Optional[float] = None,
    ) -> object:
        return self.call(tenant, "query", (attribute, value), deadline=deadline)

    def insert(
        self,
        tenant: str,
        values: Dict[str, object],
        sensitive: bool = False,
        deadline: Optional[float] = None,
    ) -> None:
        """Insert one row; ``sensitive`` is the row's own flag, which the
        tenant's policy honours when it uses row flags."""
        self.call(tenant, "insert", (dict(values), sensitive), deadline=deadline)

    def stats(self, tenant: str, deadline: Optional[float] = None) -> object:
        return self.call(tenant, "stats", deadline=deadline)

    # -- response plumbing --------------------------------------------------------
    def _receive_loop(self, channel: FrameChannel) -> None:
        while True:
            try:
                message = channel.recv_message()
            except Exception as error:
                # EOF/OSError on hangup, FrameCorruptionError on a flipped
                # bit, WireTimeoutError on a wedged server: all end this
                # connection the same way, exactly once
                self._connection_lost(
                    channel,
                    ServiceClosedError(f"service connection closed: {error}")
                    if not isinstance(error, ServiceError)
                    else error,
                )
                return
            if not isinstance(message, ServiceResponse):
                continue  # protocol noise; nothing to resolve
            with self._pending_lock:
                future = self._pending.pop(message.request_id, None)
            if future is None:
                continue  # duplicate or post-close response
            self._resolve(future, message)

    @staticmethod
    def _resolve(future: "Future[object]", message: ServiceResponse) -> None:
        """Resolve one future exactly once (popped owners can't race, but
        the InvalidStateError guard keeps even a pathological double-pop
        from killing the receiver thread)."""
        try:
            if message.status == STATUS_OK:
                future.set_result(message.result)
            elif message.status == STATUS_REJECTED:
                future.set_exception(ServiceClient._map_rejection(message))
            else:
                future.set_exception(ServiceClient._map_error(message))
        except Exception:
            pass  # already resolved by the failure path; first writer wins

    @staticmethod
    def _map_rejection(message: ServiceResponse) -> Exception:
        exc_cls = getattr(exceptions, message.error_type or "", None)
        if isinstance(exc_cls, type) and issubclass(exc_cls, ServiceOverloadedError):
            return exc_cls(message.error or "request rejected")
        return ServiceOverloadedError(message.error or "request rejected")

    @staticmethod
    def _map_error(message: ServiceResponse) -> Exception:
        """Re-raise the server's exception class when it is a known one."""
        exc_cls = getattr(exceptions, message.error_type or "", None)
        if isinstance(exc_cls, type) and issubclass(exc_cls, exceptions.ReproError):
            return exc_cls(message.error or "request failed")
        return ServiceError(
            f"{message.error_type or 'ServiceError'}: "
            f"{message.error or 'request failed'}"
        )

    def _fail_pending(self, error: Exception) -> None:
        with self._pending_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for future in pending:
            try:
                future.set_exception(error)
            except Exception:
                pass  # resolved concurrently; exactly-once either way

    # -- lifecycle ----------------------------------------------------------------
    def close(self) -> None:
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        channel = self._channel
        if channel is not None:
            channel.close()
        receiver = self._receiver
        if receiver is not None and receiver is not threading.current_thread():
            receiver.join(timeout=5.0)
        self._fail_pending(ServiceClosedError("client closed"))

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()
