"""Runtime span tracing for the end-to-end benchmark.

The benchmark times the program's layers from the outside: :class:`Tracer`
replaces the public callables listed by :func:`wire_targets` and
:func:`program_targets` with timing wrappers, in whichever process executes
them (the server child, the load-generating parent, the fleet child).
Nothing under ``src/`` knows it is being traced.

Each call records one :class:`Span`: its name, the phase it ran in, start
and end (``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on Linux and
therefore comparable across processes on one host), the calling thread's
CPU time, its parent (a per-thread stack, propagated across
``ThreadPoolExecutor.submit`` so fleet member batches nest under the fleet
call that fanned them out), an optional request key, and up to two sizes.
Spans stay in memory and are exported as plain lists at the end of a run.

A span is only recorded while :attr:`Tracer.phase` is set, so one install
can cover set-up and a traced phase while an untraced phase runs with the
wrappers in place but idle.
"""

from __future__ import annotations

import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, Tuple

#: annotate(span, args, kwargs, result) fills a span's key and sizes
Annotate = Callable[["Span", tuple, dict, object], None]
#: (owner object, attribute name, span name, annotate or None)
Target = Tuple[object, str, str, Optional[Annotate]]


class Span:
    """One timed call."""

    __slots__ = (
        "name", "phase", "start", "end", "cpu", "parent", "thread",
        "key", "size", "out", "failed",
    )

    def __init__(self, name: str, phase: str, parent: Optional["Span"]):
        self.name = name
        self.phase = phase
        self.parent = parent
        self.thread = threading.get_ident()
        self.start = 0.0
        self.end = 0.0
        self.cpu = 0.0
        self.key: Optional[str] = None
        self.size = 0.0
        self.out = 0.0
        self.failed = False


class Tracer:
    """Installs timing wrappers and collects their spans in memory."""

    def __init__(self, process: str):
        self.process = process
        self.phase: Optional[str] = None
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- installation -----------------------------------------------------------
    def install(self, targets: Iterable[Target]) -> "Tracer":
        for owner, attribute, name, annotate in targets:
            original = getattr(owner, attribute)
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, annotate))
        self._propagate_through_executors()
        return self

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _wrap(self, function, name: str, annotate: Optional[Annotate]):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            phase = tracer.phase
            if phase is None:
                return function(*args, **kwargs)
            stack = tracer._stack()
            span = Span(name, phase, stack[-1] if stack else None)
            stack.append(span)
            cpu = time.thread_time()
            span.start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                span.cpu = time.thread_time() - cpu
                stack.pop()
                tracer.spans.append(span)
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result

        return traced

    def _propagate_through_executors(self) -> None:
        """Make work submitted to a thread pool a child of the submitter's
        current span (the fleet fans member batches out this way)."""
        tracer = self
        original = ThreadPoolExecutor.submit

        @functools.wraps(original)
        def submit(pool, fn, /, *args, **kwargs):
            parent = tracer.current() if tracer.phase is not None else None
            if parent is None:
                return original(pool, fn, *args, **kwargs)

            def run(*run_args, **run_kwargs):
                stack = tracer._stack()
                stack.append(parent)
                try:
                    return fn(*run_args, **run_kwargs)
                finally:
                    stack.pop()

            return original(pool, run, *args, **kwargs)

        self._patches.append((ThreadPoolExecutor, "submit", original))
        ThreadPoolExecutor.submit = submit

    # -- export -----------------------------------------------------------------
    def export(self) -> List[list]:
        """Spans as plain lists (picklable, JSON-able); parents by index."""
        spans = self.spans
        index = {id(span): position for position, span in enumerate(spans)}
        return [
            [
                span.name, self.process, span.phase, span.start, span.end,
                span.cpu,
                index.get(id(span.parent), -1) if span.parent is not None else -1,
                span.thread, span.key, span.size, span.out, span.failed,
            ]
            for span in spans
        ]


# -- annotations ------------------------------------------------------------------
def _request_key(channel, message) -> Optional[str]:
    request_id = getattr(message, "request_id", None)
    return None if request_id is None else f"{id(channel)}:{request_id}"


def _annotate_send(span: Span, args, kwargs, result) -> None:
    channel, message = args[0], args[1]
    span.key = _request_key(channel, message)
    # a response carries the server's execution time for queue-wait maths
    span.out = float(getattr(message, "service_seconds", 0.0) or 0.0)


def _annotate_recv(span: Span, args, kwargs, result) -> None:
    span.key = _request_key(args[0], result)


def _annotate_bytes(span: Span, args, kwargs, result) -> None:
    span.size = float(memoryview(args[1]).nbytes)


def _annotate_length(position: int) -> Annotate:
    def annotate(span: Span, args, kwargs, result) -> None:
        span.size = float(len(args[position]))

    return annotate


def _annotate_member(span: Span, args, kwargs, result) -> None:
    span.key = str(getattr(args[0], "name", id(args[0])))
    span.size = float(len(args[1]))


def _annotate_merge(span: Span, args, kwargs, result) -> None:
    span.size = float(len(args[1]) + len(args[2]))
    span.out = float(len(result))


# -- target lists -----------------------------------------------------------------
def wire_targets() -> List[Target]:
    """The frame channel and socket calls, for either end of the wire."""
    from repro.cloud.process_member import FrameChannel
    from repro.service.protocol import SocketConnection

    return [
        (FrameChannel, "send_message", "FrameChannel.send_message", _annotate_send),
        (FrameChannel, "recv_message", "FrameChannel.recv_message", _annotate_recv),
        (SocketConnection, "send_bytes", "SocketConnection.send_bytes", _annotate_bytes),
        (SocketConnection, "recv_bytes", "SocketConnection.recv", None),
        (SocketConnection, "recv_bytes_into", "SocketConnection.recv", None),
    ]


def program_targets(scheme_classes: Iterable[type]) -> List[Target]:
    """Every traced public callable of the program, by layer.

    ``scheme_classes`` are the concrete schemes in use; their crypto calls
    are patched on the class that defines them, so an inherited method is
    wrapped once, on the base class.
    """
    from repro.cloud.multi_cloud import MultiCloud
    from repro.cloud.server import CloudServer
    from repro.core import engine as engine_module
    from repro.core.engine import QueryBinningEngine
    from repro.core.retrieval import BinRetriever
    from repro.owner.db_owner import DBOwner
    from repro.service.tenants import TenantSession

    targets: List[Target] = [
        (TenantSession, "execute", "TenantSession.execute", None),
        (DBOwner, "query", "DBOwner.query", None),
        (DBOwner, "insert", "DBOwner.insert", None),
        (DBOwner, "insert_many", "DBOwner.insert_many", _annotate_length(1)),
        (DBOwner, "outsource", "DBOwner.outsource", None),
        (QueryBinningEngine, "query_with_trace", "QueryBinningEngine.query_with_trace", None),
        (QueryBinningEngine, "request_for_decision", "QueryBinningEngine.request_for_decision", None),
        (QueryBinningEngine, "build_requests", "QueryBinningEngine.build_requests", None),
        (QueryBinningEngine, "execute_workload_with_rows",
         "QueryBinningEngine.execute_workload_with_rows", _annotate_length(1)),
        (QueryBinningEngine, "insert", "QueryBinningEngine.insert", None),
        (QueryBinningEngine, "insert_many", "QueryBinningEngine.insert_many", _annotate_length(1)),
        (QueryBinningEngine, "setup", "QueryBinningEngine.setup", None),
        (BinRetriever, "retrieve", "BinRetriever.retrieve", None),
        # the engine imported these by name, so its module binding is patched
        (engine_module, "merge_results", "merge_results", _annotate_merge),
        (engine_module, "group_rows_by_value", "group_rows_by_value", None),
        (CloudServer, "serve", "CloudServer.serve", None),
        (CloudServer, "process_batch", "CloudServer.process_batch", _annotate_member),
        (CloudServer, "append_sensitive", "CloudServer.append_sensitive", None),
        (CloudServer, "register_non_sensitive_row", "CloudServer.register_non_sensitive_row", None),
        (CloudServer, "store_sensitive", "CloudServer.store", None),
        (CloudServer, "store_non_sensitive", "CloudServer.store", None),
        (CloudServer, "build_index", "CloudServer.store", None),
        (MultiCloud, "process_batch", "MultiCloud.process_batch", None),
        (MultiCloud, "append_sensitive_sharded", "MultiCloud.append_sensitive_sharded", None),
        (MultiCloud, "outsource_sharded", "MultiCloud.store", None),
    ]
    crypto = {
        "tokens_for_values": "scheme.tokens_for_values",
        "search": "scheme.search",
        "indexed_search": "scheme.search",
        "decrypt_rows": "scheme.decrypt_rows",
        "encrypt_rows": "scheme.encrypt_rows",
        "make_fake_rows": "scheme.make_fake_rows",
    }
    patched = set()
    for scheme_class in scheme_classes:
        for attribute, name in crypto.items():
            owner = next(
                klass for klass in scheme_class.__mro__ if attribute in vars(klass)
            )
            if (owner, attribute) not in patched:
                patched.add((owner, attribute))
                targets.append((owner, attribute, name, None))
    return targets
