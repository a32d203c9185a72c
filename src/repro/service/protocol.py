"""Wire protocol of the encrypted-search service.

The service speaks the *same* frame protocol as the process-member worker
pipe — :class:`~repro.cloud.process_member.FrameChannel`'s pickle-5
frames, hello handshake included — over a TCP socket instead of a
multiprocessing pipe.  :class:`SocketConnection` adapts a connected socket
to the small ``Connection`` surface the channel consumes (``send_bytes`` /
``recv_bytes`` / ``close``), so the framing and version negotiation are
shared with the fleet's RPC path rather than reimplemented.  One frame is
one socket message, ``u32 length | u32 crc32 | pickle-5 payload``, sent in
one write.

On top of the frames travel two message types: :class:`ServiceRequest`
(tenant, operation, payload, client-chosen request id) and
:class:`ServiceResponse` (the matching id, a status, and either a result or
an error).  Request ids let one connection pipeline many requests — the
open-loop load harness depends on that — and responses may arrive in any
order relative to other requests on the same connection.

Hardening
---------
The socket layer does not trust the peer or the network:

* a CRC mismatch raises :class:`~repro.exceptions.FrameCorruptionError`
  and poisons the connection (after a flipped bit the receiver cannot
  prove it is still frame-aligned);
* an announced length above ``max_message_bytes`` raises
  :class:`~repro.exceptions.FrameTooLargeError` *before* any allocation —
  a hostile length prefix costs the peer its connection, never the server
  its memory — and an oversized outbound message fails the same way
  before its first byte is written;
* ``read_timeout`` bounds the idle wait for a message's first byte and
  ``message_timeout`` bounds the wall clock from that first byte to the
  message's completion, so both a silent peer and a slow-loris peer (one
  byte per keep-alive) surface as
  :class:`~repro.exceptions.WireTimeoutError` instead of a parked thread;
* ``send_timeout`` bounds writes the same way, so a peer that stops
  *reading* cannot wedge a worker inside ``sendall``;
* :meth:`SocketConnection.close` is idempotent under concurrent callers.

All waits are ``select``-based rather than ``settimeout``-based: socket
timeouts are socket-global, and the server legitimately has one thread
reading a connection while another writes responses to it.
"""

from __future__ import annotations

import select
import socket
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.exceptions import (
    FrameCorruptionError,
    FrameTooLargeError,
    WireTimeoutError,
)

#: ops a :class:`ServiceRequest` may carry
SERVICE_OPS: Tuple[str, ...] = ("ping", "query", "insert", "stats")

#: ops whose effects mutate tenant state — the ones the server's dedup
#: window must make exactly-once under duplicate delivery / client replay
MUTATING_OPS: Tuple[str, ...] = ("insert",)

#: response statuses
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_REJECTED = "rejected"

#: u32 length + u32 crc32, the one header of every socket message
_MESSAGE_HEADER = struct.Struct("<II")

#: Default per-message size cap.  Far above any legitimate service frame
#: (requests are rows and tokens, not blobs) yet small enough that a
#: corrupted or hostile length prefix cannot commit the receiver to a
#: multi-gigabyte allocation.
DEFAULT_MAX_MESSAGE_BYTES = 32 * 1024 * 1024


@dataclass(frozen=True)
class ServiceRequest:
    """One client request as shipped over the wire.

    ``client_id`` + ``request_id`` form the idempotency key: a client that
    replays a request after a connection loss reuses both, and the server's
    per-tenant dedup window applies mutating ops exactly once.
    ``ttl_seconds`` is the client's deadline as a *relative* budget
    (absolute wall clocks do not transfer between machines); the server
    stamps admission time and drops the request unexecuted once the budget
    is spent.
    """

    request_id: int
    tenant: str
    op: str
    payload: Tuple = ()
    client_id: str = ""
    ttl_seconds: Optional[float] = None


@dataclass(frozen=True)
class ServiceResponse:
    """The server's reply to one :class:`ServiceRequest`.

    ``status`` is ``"ok"`` (``result`` holds the op's return value),
    ``"error"`` (``error`` holds the message, ``error_type`` the exception
    class name), or ``"rejected"`` (the admission queue was full or the
    tenant's rate limit was exhausted — an explicit overload signal, not a
    failure of the request itself; ``error_type`` distinguishes the two).
    ``service_seconds`` is the server-side time from admission to
    completion, letting clients split queueing from service time.
    """

    request_id: int
    status: str
    result: object = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    service_seconds: float = 0.0


class SocketConnection:
    """A ``multiprocessing.Connection``-shaped adapter over a TCP socket.

    Exposes what :class:`~repro.cloud.process_member.FrameChannel`
    consumes.  Each ``send_bytes`` ships one message (u32 length + u32
    crc32 + bytes) in one write; ``recv_bytes`` returns the next message's
    bytes once its length passed the cap and its CRC matched.

    ``read_timeout`` / ``message_timeout`` / ``send_timeout`` are the
    hardening deadlines documented on the module; ``None`` means wait
    forever (right for a trusted client blocking on its own pipelined
    responses).
    """

    def __init__(
        self,
        sock: socket.socket,
        read_timeout: Optional[float] = None,
        message_timeout: Optional[float] = None,
        send_timeout: Optional[float] = None,
        max_message_bytes: int = DEFAULT_MAX_MESSAGE_BYTES,
    ):
        self._socket = sock
        self._closed = False
        self._close_lock = threading.Lock()
        self.read_timeout = read_timeout
        self.message_timeout = message_timeout
        self.send_timeout = send_timeout
        self.max_message_bytes = int(max_message_bytes)
        # latency over throughput: each frame is already one write, so
        # Nagle only adds delay; best-effort because the transport also
        # wraps non-TCP sockets (AF_UNIX socketpairs in tests)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass

    # -- waits --------------------------------------------------------------------
    def _wait_readable(self, deadline: Optional[float], what: str) -> None:
        timeout = None if deadline is None else max(0.0, deadline - time.monotonic())
        readable, _w, _e = select.select([self._socket], [], [], timeout)
        if not readable:
            raise WireTimeoutError(f"read deadline expired waiting for {what}")

    def _wait_writable(self, deadline: Optional[float]) -> None:
        timeout = None if deadline is None else max(0.0, deadline - time.monotonic())
        _r, writable, _e = select.select([], [self._socket], [], timeout)
        if not writable:
            raise WireTimeoutError("send deadline expired (peer not reading)")

    @staticmethod
    def _deadline(timeout: Optional[float]) -> Optional[float]:
        return None if timeout is None else time.monotonic() + timeout

    # -- sends --------------------------------------------------------------------
    def _encode(self, data) -> bytes:
        """The socket message carrying ``data``: header and payload, ready
        for one write.  An oversized payload raises
        :class:`~repro.exceptions.FrameTooLargeError`, so nothing is sent."""
        view = memoryview(data)
        if view.nbytes > self.max_message_bytes:
            raise FrameTooLargeError(
                f"outbound message of {view.nbytes} bytes exceeds the "
                f"{self.max_message_bytes}-byte frame cap"
            )
        return _MESSAGE_HEADER.pack(view.nbytes, zlib.crc32(view)) + view

    def send_bytes(self, data) -> None:
        self._send_all(memoryview(self._encode(data)))

    def _send_all(self, view: memoryview) -> None:
        if self.send_timeout is None:
            self._socket.sendall(view)
            return
        # select-writable then send(): a blocking send only parks when the
        # buffer has NO room, which writability rules out, so each round
        # makes progress or times out — sendall could wedge past any clock
        deadline = self._deadline(self.send_timeout)
        sent = 0
        while sent < view.nbytes:
            self._wait_writable(deadline)
            sent += self._socket.send(view[sent:])

    # -- receives -----------------------------------------------------------------
    def _recv_exact(
        self,
        length: int,
        buffer,
        offset: int = 0,
        deadline: Optional[float] = None,
        first_byte_timeout: Optional[float] = None,
        midstream: bool = False,
    ) -> None:
        """Read exactly ``length`` bytes into ``buffer[offset:]``.

        ``first_byte_timeout`` (the idle deadline) applies to the wait for
        the first byte only; ``deadline`` is an absolute monotonic instant
        bounding the whole read (the anti-slow-loris clock).

        EOF at a message boundary is an orderly hangup (:class:`EOFError`);
        EOF after the peer announced bytes it never delivered —
        ``midstream`` or partway through this read — is a truncated stream
        and fails loudly as :class:`FrameCorruptionError`.
        """
        with memoryview(buffer) as view:
            target = view[offset : offset + length]
            read = 0
            while read < length:
                if read == 0 and first_byte_timeout is not None:
                    self._wait_readable(
                        self._deadline(first_byte_timeout), "next message"
                    )
                elif deadline is not None:
                    self._wait_readable(deadline, "rest of message")
                count = self._socket.recv_into(target[read:], length - read)
                if count == 0:
                    if read or midstream:
                        raise FrameCorruptionError(
                            "connection closed mid-message "
                            f"({read}/{length} bytes delivered)"
                        )
                    raise EOFError("service connection closed by peer")
                read += count

    def _recv_header(self) -> Tuple[int, int]:
        """(length, crc32) of the next message; the idle wait happens here."""
        prefix = bytearray(_MESSAGE_HEADER.size)
        self._recv_exact(
            _MESSAGE_HEADER.size,
            prefix,
            deadline=self._deadline(self.message_timeout),
            first_byte_timeout=self.read_timeout,
        )
        length, crc = _MESSAGE_HEADER.unpack(prefix)
        if length > self.max_message_bytes:
            raise FrameTooLargeError(
                f"inbound message announces {length} bytes, above the "
                f"{self.max_message_bytes}-byte frame cap; refusing to allocate"
            )
        return length, crc

    def _recv_checked(self, length: int, crc: int, buffer, offset: int) -> int:
        self._recv_exact(
            length,
            buffer,
            offset,
            deadline=self._deadline(self.message_timeout),
            midstream=True,  # the header promised these bytes
        )
        with memoryview(buffer) as view:
            actual = zlib.crc32(view[offset : offset + length])
        if actual != crc:
            raise FrameCorruptionError(
                f"message checksum mismatch (announced {crc:#010x}, "
                f"computed {actual:#010x}); closing the poisoned stream"
            )
        return length

    def recv_bytes(self) -> bytearray:
        length, crc = self._recv_header()
        buffer = bytearray(length)
        self._recv_checked(length, crc, buffer, 0)
        return buffer

    def recv_bytes_into(self, buffer, offset: int = 0) -> int:
        """Receive the next message into ``buffer`` at ``offset``; its length."""
        length, crc = self._recv_header()
        return self._recv_checked(length, crc, buffer, offset)

    # -- plumbing -----------------------------------------------------------------
    def close(self) -> None:
        # test-and-set under a lock: concurrent closers (client close() vs
        # receiver-thread failure path, server reader vs stop()) must not
        # both run the shutdown/close pair on the same fd
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # peer already gone
        self._socket.close()

    @property
    def closed(self) -> bool:
        return self._closed
