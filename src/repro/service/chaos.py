"""Deterministic fault injection for the service wire.

The fleet's :class:`FaultInjectionHarness` (tests/conftest.py) proves that
killing cloud members is unobservable; this module extends the same chaos
discipline up to the client↔service boundary.  A
:class:`ChaosConnection` / :class:`ChaosChannel` pair wraps one client
connection and injects faults at *scripted request offsets* — no wall-clock
randomness, no flaky probabilities at test time: a :class:`ChaosScript`
says exactly which request on which connection suffers what, and
:meth:`ChaosScenario.seeded` derives such scripts from a seed for
statistical (benchmark) use.

Fault kinds, and what each one proves when parity still holds:

``drop``
    The connection closes before the request is sent.  Proves the client
    reconnects and replays, and that a replayed request is not lost.
``truncate``
    The frame announces its full length but only a prefix of its payload
    arrives before the connection closes.  Proves the server's
    reader survives mid-frame EOF without leaking its thread or slot.
``stall``
    The frame pauses mid-send (slow-loris shape) and then completes.
    Proves a *slow* client is served, not reaped, while the pause stays
    under the server's ``message_timeout``.
``corrupt``
    One bit of the payload flips after the checksum was computed — exactly
    what in-flight corruption looks like.  Proves the CRC fails loudly
    (server reaps the poisoned stream) and the client's retry recovers.
``duplicate``
    The same request is delivered twice.  Proves the per-tenant dedup
    window applies mutating ops exactly once and that double responses on
    one request id are harmless.

Every injection is counted on its script (``script.injected``), so tests
assert the chaos actually happened — a parity suite whose faults silently
never fired proves nothing.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cloud.process_member import FrameChannel
from repro.exceptions import ServiceError
from repro.service.protocol import (
    _MESSAGE_HEADER,
    DEFAULT_MAX_MESSAGE_BYTES,
    ServiceRequest,
    SocketConnection,
)

#: The fault kinds a :class:`ChaosEvent` may carry.
CHAOS_KINDS: Tuple[str, ...] = ("drop", "truncate", "stall", "corrupt", "duplicate")


@dataclass(frozen=True)
class ChaosEvent:
    """One scripted fault: ``kind`` strikes the ``at_request``-th request
    sent on the connection (0-based, counting every attempt including
    replays).  ``seconds`` parameterises ``stall``, ``keep_bytes`` the
    truncation prefix, ``copies`` the duplicate fan-out."""

    kind: str
    at_request: int
    seconds: float = 0.02
    keep_bytes: int = 6
    copies: int = 2

    def __post_init__(self):
        if self.kind not in CHAOS_KINDS:
            raise ServiceError(
                f"unknown chaos kind {self.kind!r}; expected one of {CHAOS_KINDS}"
            )


class ChaosScript:
    """The faults for ONE connection: request offset → event.

    A connection-killing event (``drop``/``truncate``) ends the script
    early by construction — the client reconnects and draws the scenario's
    next script, so later offsets on a killed connection simply never
    happen.  ``injected`` counts the faults that actually fired.
    """

    def __init__(self, events: Iterable[ChaosEvent] = ()):
        self._events: Dict[int, ChaosEvent] = {}
        for event in events:
            if event.at_request in self._events:
                raise ServiceError(
                    f"two chaos events scripted at request {event.at_request}"
                )
            self._events[event.at_request] = event
        self.injected: "Counter[str]" = Counter()

    def event_for(self, request_index: int) -> Optional[ChaosEvent]:
        return self._events.get(request_index)

    def note(self, kind: str) -> None:
        self.injected[kind] += 1

    def __len__(self) -> int:
        return len(self._events)


class ChaosScenario:
    """Scripts for a client's successive connections, in dial order.

    Connection *n* (the initial dial, then each chaos- or fault-driven
    reconnect) runs under ``scripts[n]``; once the list is exhausted every
    further connection is clean — a scenario is a finite storm, after which
    the client must be able to finish its work.  Thread-safe: the client's
    reconnect path may run from any thread.
    """

    def __init__(self, scripts: Sequence[ChaosScript] = ()):
        self._scripts = list(scripts)
        self._lock = threading.Lock()
        self._issued: List[ChaosScript] = []

    @classmethod
    def seeded(
        cls,
        seed: int,
        connections: int,
        requests_per_connection: int,
        rates: Dict[str, float],
        seconds: float = 0.02,
        keep_bytes: int = 6,
    ) -> "ChaosScenario":
        """Derive scripts from a seed: each request offset independently
        draws one fault with the given per-kind probabilities (e.g.
        ``{"drop": 0.05}`` = 5% injected connection drops).  Same seed,
        same storm — the FaultInjectionHarness discipline."""
        if sum(rates.values()) > 1.0:
            raise ServiceError("chaos rates sum above 1.0")
        rng = random.Random(seed)
        scripts = []
        for _connection in range(connections):
            events = []
            for offset in range(requests_per_connection):
                draw = rng.random()
                cumulative = 0.0
                for kind in sorted(rates):
                    cumulative += rates[kind]
                    if draw < cumulative:
                        events.append(
                            ChaosEvent(
                                kind,
                                offset,
                                seconds=seconds,
                                keep_bytes=keep_bytes,
                            )
                        )
                        break
            scripts.append(ChaosScript(events))
        return cls(scripts)

    def next_script(self) -> ChaosScript:
        with self._lock:
            index = len(self._issued)
            script = (
                self._scripts[index] if index < len(self._scripts) else ChaosScript()
            )
            self._issued.append(script)
            return script

    @property
    def connections_used(self) -> int:
        with self._lock:
            return len(self._issued)

    @property
    def injected(self) -> "Counter[str]":
        """Aggregate fired-fault counts across every issued connection."""
        with self._lock:
            total: "Counter[str]" = Counter()
            for script in self._issued:
                total.update(script.injected)
            return total

    # -- client plumbing ----------------------------------------------------------
    def connect(
        self,
        sock: socket.socket,
        max_message_bytes: int = DEFAULT_MAX_MESSAGE_BYTES,
    ) -> Tuple["ChaosConnection", "ChaosChannel"]:
        """Build the fault-injected transport/channel pair for a fresh
        connection — the hook :class:`~repro.service.client.ServiceClient`
        calls when constructed with ``chaos=scenario``."""
        script = self.next_script()
        transport = ChaosConnection(sock, max_message_bytes=max_message_bytes)
        return transport, ChaosChannel(transport, script)


class ChaosConnection(SocketConnection):
    """A :class:`SocketConnection` that faults the next frame it sends.

    The channel above arms one event; the connection implements what it
    looks like *on the socket*, on the bytes of the one encoded frame:
    truncation really leaves a half-announced message behind, corruption
    really flips a bit after the CRC was computed, a stall really parks
    mid-message.  Receive-side behaviour is untouched — the server's
    responses travel clean; it is the client's *sends* the storm hits.
    """

    def __init__(self, sock: socket.socket, **kwargs):
        super().__init__(sock, **kwargs)
        self._armed: Optional[ChaosEvent] = None

    def arm(self, event: ChaosEvent) -> None:
        """Fault the next frame with a ``truncate``, ``corrupt`` or
        ``stall`` event (one-shot)."""
        self._armed = event

    def send_bytes(self, data) -> None:
        event, self._armed = self._armed, None
        if event is None:
            return super().send_bytes(data)
        frame = memoryview(bytearray(self._encode(data)))
        body = _MESSAGE_HEADER.size  # offset of the first payload byte
        middle = body + (frame.nbytes - body) // 2
        if event.kind == "truncate":
            # honest header, dishonest body: the receiver is owed bytes it
            # will never get
            keep = min(body + max(0, event.keep_bytes), frame.nbytes)
            self._send_all(frame[:keep])
            self.close()
            raise OSError("chaos: frame truncated mid-send, connection dropped")
        if event.kind == "corrupt":
            # CRC of the original payload, then one flipped bit: exactly
            # what in-flight corruption under a correct sender looks like
            frame[middle] ^= 0x01
            self._send_all(frame)
            return
        # stall: pause mid-payload, then complete — the slow-loris shape
        self._send_all(frame[:middle])
        time.sleep(event.seconds)
        self._send_all(frame[middle:])


class ChaosChannel(FrameChannel):
    """A :class:`FrameChannel` that consults a :class:`ChaosScript` on
    every outbound :class:`ServiceRequest` (hello frames and other
    plumbing pass through untouched — chaos strikes requests, not the
    handshake, which has its own dedicated failure-mode tests)."""

    def __init__(self, connection: ChaosConnection, script: ChaosScript):
        super().__init__(connection)
        self.script = script
        self._request_index = 0

    def send_message(self, obj) -> None:
        if not isinstance(obj, ServiceRequest):
            return super().send_message(obj)
        index = self._request_index
        self._request_index += 1
        event = self.script.event_for(index)
        if event is None:
            return super().send_message(obj)
        # counted before sending: the server may reap a poisoned stream
        # (and RST us) before the send returns
        self.script.note(event.kind)
        if event.kind == "drop":
            self.close()
            raise OSError("chaos: connection dropped before send")
        if event.kind == "duplicate":
            for _copy in range(max(2, event.copies)):
                super().send_message(obj)
            return
        self._connection.arm(event)
        super().send_message(obj)  # a truncate raises once its prefix is sent
