"""The load generator: one process, one pipelined service connection.

Two threads touch the connection: the calling thread sends, and the
client's own receiver thread resolves responses.  A done-callback, run on
the receiver thread as each response resolves, first stamps the completion
instant and then reduces the answer to its oracle digest, so collecting
results never inflates latency and no answer is held after it arrives.

* :func:`open_loop` sends on a seeded Poisson schedule whether or not
  earlier requests have returned, and times each request from when it was
  *due*: a stall delays every later request and that delay is measured.
* :func:`closed_loop` keeps a fixed number of requests outstanding and
  reports the completion rate — the service's capacity on that mix.
* :func:`pipelined` sends a fixed list with a bounded window (the
  final-state reads).
"""

from __future__ import annotations

import contextlib
import gc
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.exceptions import ServiceOverloadedError
from repro.service import ServiceClient

from benchmarks.e2e.workloads import Digest, Op, OpStream, digest_answer

#: how long a phase waits for its stragglers before calling them failed
DRAIN_TIMEOUT_S = 30.0


@dataclass
class Sent:
    op: Op
    due: float
    sent: float
    done: float = 0.0
    error: Optional[BaseException] = None
    #: the answer's oracle digest (queries that succeeded)
    digest: Optional[Digest] = None


@dataclass
class PhaseResult:
    """What one load phase sent, and when each request completed."""

    requests: List[Sent] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0
    #: seconds the program spent in full garbage collections meanwhile
    gc_full_s: float = 0.0

    def latencies(self, op: str) -> List[float]:
        """Seconds from due to completion; a refused or failed request is +inf."""
        return [
            r.done - r.due if r.done and r.error is None else float("inf")
            for r in self.requests if r.op[1] == op
        ]

    def lateness(self) -> List[float]:
        return [r.sent - r.due for r in self.requests]

    def succeeded(self) -> int:
        return sum(1 for r in self.requests if r.done and r.error is None)

    def rejected(self) -> int:
        return sum(1 for r in self.requests if isinstance(r.error, ServiceOverloadedError))

    def errors(self) -> List[BaseException]:
        return [
            r.error if r.done else TimeoutError("no response within the drain timeout")
            for r in self.requests
            if not r.done or (r.error is not None and not isinstance(r.error, ServiceOverloadedError))
        ]

    def result_rows(self) -> int:
        return sum(r.digest[0] for r in self.requests if r.digest is not None)


class _InFlight:
    """Counts outstanding requests; optionally caps them at ``window``."""

    def __init__(self, window: Optional[int] = None):
        self._slots = threading.Semaphore(window) if window else None
        self._count = 0
        self._idle = threading.Condition()

    def acquire(self) -> bool:
        if self._slots is not None and not self._slots.acquire(timeout=DRAIN_TIMEOUT_S):
            return False
        with self._idle:
            self._count += 1
        return True

    def release(self) -> None:
        if self._slots is not None:
            self._slots.release()
        with self._idle:
            self._count -= 1
            if self._count == 0:
                self._idle.notify_all()

    def wait_idle(self) -> None:
        with self._idle:
            self._idle.wait_for(lambda: self._count == 0, timeout=DRAIN_TIMEOUT_S)


def _submit(client: ServiceClient, request: Sent, in_flight: _InFlight, attribute: str) -> None:
    tenant, op, payload = request.op

    def on_done(future) -> None:
        request.done = time.perf_counter()
        request.error = future.exception()
        if request.error is None and op == "query":
            request.digest = digest_answer(future.result(), attribute)
        in_flight.release()

    client.submit(tenant, op, payload).add_done_callback(on_done)


def _finish(result: PhaseResult, in_flight: _InFlight) -> PhaseResult:
    in_flight.wait_idle()
    result.finished = max((r.done for r in result.requests if r.done), default=result.started)
    return result


@contextlib.contextmanager
def collections_deferred():
    """Keep the generator's own garbage collections out of measured phases.

    A full collection in this process would stall the sender and make it
    send late; the garbage the phases make is collected when they end.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def open_loop(client: ServiceClient, ops: Sequence[Op], offsets: Sequence[float], attribute: str) -> PhaseResult:
    """Send ``ops[i]`` at ``offsets[i]`` seconds after the start."""
    result, in_flight = PhaseResult(), _InFlight()
    sleep, now = time.sleep, time.perf_counter
    origin = now() + 0.005
    result.started = origin
    for op, offset in zip(ops, offsets):
        due = origin + offset
        delay = due - now()
        if delay > 0:
            sleep(delay)
        request = Sent(op=op, due=due, sent=now())
        result.requests.append(request)
        in_flight.acquire()
        _submit(client, request, in_flight, attribute)
    return _finish(result, in_flight)


def closed_loop(client: ServiceClient, stream: OpStream, window: int, duration: float, attribute: str) -> PhaseResult:
    """Keep ``window`` requests in flight for ``duration`` seconds."""
    result, in_flight = PhaseResult(), _InFlight(window)
    result.started = time.perf_counter()
    end = result.started + duration
    while in_flight.acquire():
        now = time.perf_counter()
        if now >= end:
            in_flight.release()
            break
        request = Sent(op=stream.next(), due=now, sent=now)
        result.requests.append(request)
        _submit(client, request, in_flight, attribute)
    return _finish(result, in_flight)


def pipelined(client: ServiceClient, ops: Sequence[Op], window: int, attribute: str) -> PhaseResult:
    """All of ``ops`` with at most ``window`` in flight."""
    result, in_flight = PhaseResult(started=time.perf_counter()), _InFlight(window)
    for op in ops:
        if not in_flight.acquire():
            break
        now = time.perf_counter()
        request = Sent(op=op, due=now, sent=now)
        result.requests.append(request)
        _submit(client, request, in_flight, attribute)
    return _finish(result, in_flight)
