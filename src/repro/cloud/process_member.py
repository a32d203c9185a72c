"""Process-backed multi-cloud members.

The thread-backed :class:`~repro.cloud.multi_cloud.MultiCloud` divides a
batch across members, but every member still computes under the coordinator
process's GIL — CPU-bound cloud work (SSE trial decryption above all) never
actually runs in parallel.  This module provides the escape hatch:
``MultiCloud(member_backend="process")`` places each member's
:class:`~repro.cloud.server.CloudServer` in its own worker process, connected
to the coordinator by a :class:`ProcessMemberProxy` that speaks a small
pickled RPC protocol over a pipe.

Design
------
* **State affinity.**  Each member's stored relations, ciphertexts, and
  indexes live in exactly one worker process for the fleet's lifetime (a
  pool that round-robins tasks would be useless — the state *is* the
  member).  The worker is a plain command loop around a real server object,
  so every server behaviour — including test subclasses such as the
  fault-injecting server — works unchanged behind the proxy.
* **Batched observation sync.**  The coordinator must keep seeing the exact
  single-server information split: per-member adversarial views, statistics,
  and network charges.  Every RPC reply therefore carries the compact view
  records produced since the previous reply plus the worker's
  :class:`~repro.cloud.server.ObservationSnapshot`; the proxy appends the
  records to its view log and applies the snapshot with the same
  ``restore`` crash rollback uses, so its ``view_log``, ``stats`` and
  ``network`` always read what the worker's do.  Observations are synced
  once per batch, not once per query, so the IPC cost amortises exactly
  like the compute.
* **Crash semantics for real.**  ``observation_snapshot`` /
  ``restore_observations`` are forwarded across the boundary, so the fleet's
  wave-based failover (and the fault-injection parity harness) works
  identically for process members.  A worker process that actually dies
  (EOF on the pipe) surfaces as :class:`~repro.exceptions.MemberFailure`
  from ``process_batch`` — a genuine process loss feeds the same failover
  path the simulated crashes exercise.
* **Isolated scheme copies.**  Each worker holds its own (pickled) copy of
  the search scheme, so schemes whose cloud-side matching mutates internal
  work counters (``concurrent_search_safe = False``) are race-free under
  this backend without serialising members; their counters then tally the
  per-worker work and are not synced back to the owner's scheme object.

* **RPC deadlines.**  Every RPC waits for its reply with
  ``connection.poll(rpc_timeout)`` instead of a blocking ``recv()``, so a
  wedged-but-alive worker can hang neither a batch nor ``close()``.  A
  missed deadline raises :class:`~repro.exceptions.MemberTimeout` (a
  :class:`~repro.exceptions.MemberFailure`), feeding the fleet's ordinary
  retry/failover path, and the proxy *abandons* the worker — kills it and
  marks itself closed — because a late reply could no longer be matched to
  its request without desynchronising the pipe protocol.
* **Framed wire format.**  Messages cross the pipe as frames
  (:class:`FrameChannel`) instead of ``Connection.send``'s implicit
  pickling: a frame is the message pickled once with protocol 5 and moved
  in one ``send_bytes`` call, whose own length prefix is the frame's only
  header.
* **Version handshake.**  The first thing a worker writes is a fixed-size
  hello frame carrying the wire magic, wire-format version, and pickle
  protocol.  The proxy validates it before the first RPC and fails loudly
  (:class:`~repro.exceptions.ProcessMemberError`) on any mismatch, so a
  mixed-version coordinator/worker pair can never exchange frames it would
  silently misparse.

The proxy raises :class:`~repro.exceptions.ProcessMemberError` when the
worker protocol itself breaks outside a batch (a dead worker during
outsourcing is a deployment error, not a servable fault).
"""

from __future__ import annotations

import multiprocessing
import pickle
import struct
import threading
import weakref
from typing import Callable, List, Optional

from repro.adversary.view import ViewLog
from repro.cloud.network import NetworkModel
from repro.cloud.server import (
    CloudServer,
    CloudStatistics,
    ObservationSnapshot,
    QueryResponse,
)
from repro.cloud.storage import slice_rows
from repro.crypto.base import EncryptedSearchScheme
from repro.data.relation import Row
from repro.exceptions import MemberFailure, MemberTimeout, ProcessMemberError

_SHUTDOWN = None  # sentinel message ending the worker loop

# -- wire format ------------------------------------------------------------------
#: Magic bytes opening the handshake frame ("Repro QB Wire").
WIRE_MAGIC = b"RQBW"
#: Version of the frame layout: one transport message per pickled message.
#: Bump on any incompatible change.
WIRE_VERSION = 2
#: Pickle protocol frames are encoded with; the hello pins it so both ends
#: agree.
WIRE_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL
#: How long the proxy waits for the worker's hello frame.  Deliberately
#: independent of ``rpc_timeout`` — tests pin tiny RPC deadlines to provoke
#: :class:`~repro.exceptions.MemberTimeout`, and process startup (fork +
#: server construction) must not race those.
HANDSHAKE_TIMEOUT = 10.0

#: Handshake frame: magic, wire version, pickle protocol.
_HELLO = struct.Struct("<4sHH")


def _hello_blob() -> bytes:
    return _HELLO.pack(WIRE_MAGIC, WIRE_VERSION, WIRE_PICKLE_PROTOCOL)


def _check_hello(blob: bytes, peer: str) -> None:
    """Validate a peer's hello frame; raise loudly on any mismatch."""
    if len(blob) != _HELLO.size:
        raise ProcessMemberError(
            f"{peer}: malformed wire handshake ({len(blob)} bytes, "
            f"expected {_HELLO.size})"
        )
    magic, version, protocol = _HELLO.unpack(blob)
    if magic != WIRE_MAGIC:
        raise ProcessMemberError(
            f"{peer}: wire handshake magic mismatch "
            f"(got {magic!r}, expected {WIRE_MAGIC!r})"
        )
    if version != WIRE_VERSION:
        raise ProcessMemberError(
            f"{peer}: wire format version mismatch (peer speaks v{version}, "
            f"this coordinator speaks v{WIRE_VERSION}); refusing to exchange "
            "frames with a mixed-version pair"
        )
    if protocol != WIRE_PICKLE_PROTOCOL:
        raise ProcessMemberError(
            f"{peer}: pickle protocol mismatch (peer uses protocol "
            f"{protocol}, this coordinator uses {WIRE_PICKLE_PROTOCOL})"
        )


class FrameChannel:
    """Pickle-5 frames over a ``Connection``-shaped transport.

    One frame is one transport message: :meth:`send_message` pickles the
    object once with protocol 5 and hands the payload to the transport's
    ``send_bytes``; :meth:`recv_message` unpickles what one ``recv_bytes``
    returns.  The transport owns the frame's only header — a
    ``multiprocessing`` pipe's own length prefix, or the service socket's
    ``u32 length | u32 crc32`` (:class:`~repro.service.protocol.SocketConnection`,
    which also enforces the service's frame cap).
    """

    def __init__(self, connection):
        self._connection = connection

    # -- handshake ----------------------------------------------------------------
    def send_hello(self) -> None:
        self._connection.send_bytes(_hello_blob())

    def recv_hello(self, peer: str) -> None:
        _check_hello(self._connection.recv_bytes(), peer)

    # -- frames -------------------------------------------------------------------
    def send_message(self, obj) -> None:
        payload = pickle.dumps(obj, protocol=WIRE_PICKLE_PROTOCOL)
        self._connection.send_bytes(payload)

    def recv_message(self):
        payload = self._connection.recv_bytes()
        return pickle.loads(payload)

    # -- plumbing -----------------------------------------------------------------
    def close(self) -> None:
        self._connection.close()

    @property
    def closed(self) -> bool:
        return self._connection.closed


def _worker_main(connection, server_factory, server_kwargs) -> None:
    """The member process: a command loop around one real server object."""
    channel = FrameChannel(connection)
    try:
        # Hello goes out before the server is even constructed, so a
        # mixed-version pair fails during proxy startup, not mid-workload.
        channel.send_hello()
    except Exception:
        connection.close()
        return
    server = (server_factory or CloudServer)(**server_kwargs)
    synced_views = 0
    while True:
        try:
            message = channel.recv_message()
        except (EOFError, OSError):
            break
        except Exception:
            # Undecodable frame: the peer is not speaking this protocol,
            # so stop serving.
            break
        if message is _SHUTDOWN or message is None:
            break
        method, args, kwargs = message
        try:
            if method == "register_non_sensitive_row":
                result = _register_row(server, args[0])
            else:
                result = getattr(server, method)(*args, **kwargs)
        except BaseException as error:  # ship the failure, keep serving
            try:
                channel.send_message(("error", error))
            except Exception:
                break
            continue
        # Batched observation sync: the view records since the last reply
        # plus the snapshot.  A restore or reset may have truncated the log
        # below the synced watermark; the snapshot's view count truncates
        # the proxy's log to match.
        synced_views = min(synced_views, len(server.view_log))
        records = server.view_log.records_since(synced_views)
        synced_views = len(server.view_log)
        try:
            channel.send_message(
                ("ok", result, records, server.observation_snapshot())
            )
        except Exception:
            break
    try:
        server.close()  # releases a disk-backed store's database file
    except Exception:
        pass
    connection.close()


def _register_row(server: CloudServer, row: Row) -> None:
    """Worker-side shim for owner inserts into the shared cleartext relation.

    In-process members share the owner's relation object, so the row is
    already stored when ``register_non_sensitive_row`` runs.  A worker holds
    its own copy, so the insert must be replayed first.
    """
    relation = server._non_sensitive
    if relation is not None and row.rid not in relation:
        relation.insert(
            dict(row.values), sensitive=row.sensitive, rid=row.rid, validate=False
        )
    return server.register_non_sensitive_row(row)


def _spawn_context():
    """Prefer ``fork`` (cheap, inherits imported modules — required for
    factories defined in non-importable test modules); fall back to the
    platform default elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def process_backend_available() -> bool:
    """Whether this platform supports process-backed members (fork start)."""
    return "fork" in multiprocessing.get_all_start_methods()


class ProcessMemberProxy:
    """Coordinator-side stand-in for a :class:`CloudServer` in a worker process.

    Duck-types the server surface the fleet, the engine, and the harnesses
    touch.  Storage commands and queries are forwarded over the pipe; the
    observable side effects come back with every reply (new view records
    plus the worker's :class:`~repro.cloud.server.ObservationSnapshot`) and
    land in local mirrors (``view_log``, ``stats``, ``network``), so adversary,
    auditor, and parity code read member observations exactly as they would
    off an in-process server.  Unknown method calls are forwarded
    generically, which is what lets test-only members (e.g.
    ``schedule_failure`` on the fault-injecting server) be driven through
    the proxy without special cases.
    """

    #: default RPC deadline in seconds — generous on purpose: it exists to
    #: catch wedged workers, not to police slow-but-progressing batches.
    DEFAULT_RPC_TIMEOUT = 60.0

    def __init__(
        self,
        name: str,
        server_factory: Optional[Callable[..., CloudServer]] = None,
        rpc_timeout: Optional[float] = None,
        **server_kwargs,
    ):
        self.name = name
        #: per-RPC reply deadline (seconds); ``None`` restores the blocking
        #: pre-deadline behaviour (not recommended outside debugging).
        self.rpc_timeout = (
            self.DEFAULT_RPC_TIMEOUT if rpc_timeout is None else rpc_timeout
        )
        self.network = NetworkModel()
        self.view_log = ViewLog()
        self.stats = CloudStatistics()
        self._queries_issued = 0
        self._scheme: Optional[EncryptedSearchScheme] = None
        self._encrypted_row_count = 0
        self._closed = False
        #: serializes the request/reply exchange *and* the mirror updates it
        #: carries: the pipe is one conversation, so two threads calling into
        #: the proxy concurrently would interleave frames and read each
        #: other's replies.  Re-entrant so locked wrappers can nest ``_call``.
        self._rpc_lock = threading.RLock()

        context = _spawn_context()
        self._connection, worker_connection = context.Pipe()
        self._process = context.Process(
            target=_worker_main,
            args=(
                worker_connection,
                server_factory,
                dict(server_kwargs, name=name),
            ),
            daemon=True,
            name=f"repro-member-{name}",
        )
        self._process.start()
        worker_connection.close()
        self._channel = FrameChannel(self._connection)
        self._finalizer = weakref.finalize(
            self, _shutdown_worker, self._channel, self._process
        )
        self._await_handshake()

    def _await_handshake(self) -> None:
        """Validate the worker's hello frame before the first RPC.

        Any mismatch (or a worker that dies / stays silent) kills the worker
        and raises :class:`~repro.exceptions.ProcessMemberError` — a
        mixed-version coordinator/worker pair must fail at startup, never by
        silently misparsing frames mid-workload.
        """
        try:
            if not self._connection.poll(HANDSHAKE_TIMEOUT):
                raise ProcessMemberError(
                    f"{self.name}: no wire handshake from worker within "
                    f"{HANDSHAKE_TIMEOUT:.0f}s"
                )
            self._channel.recv_hello(self.name)
        except ProcessMemberError:
            self._abandon_worker()
            raise
        except (EOFError, OSError) as error:
            self._abandon_worker()
            raise ProcessMemberError(
                f"{self.name}: worker died before completing the wire "
                f"handshake ({error!r})"
            ) from error

    # -- RPC plumbing -------------------------------------------------------------
    def _call(self, method: str, *args, **kwargs):
        return self._deadline_call(self.rpc_timeout, method, args, kwargs)

    def _deadline_call(
        self, deadline: Optional[float], method: str, args, kwargs
    ):
        with self._rpc_lock:
            return self._deadline_call_locked(deadline, method, args, kwargs)

    def _deadline_call_locked(
        self, deadline: Optional[float], method: str, args, kwargs
    ):
        if self._closed:
            if method == "process_batch":
                # the member is gone; let the fleet's failover machinery
                # route its work to replicas instead of failing the batch
                raise MemberFailure(f"{self.name}: member process is down")
            raise ProcessMemberError(f"{self.name}: member process is closed")
        try:
            self._channel.send_message((method, args, kwargs))
            if deadline is not None and not self._connection.poll(deadline):
                # Wedged (or hopelessly slow) worker.  The pipe still holds
                # our request, so any late reply could never be matched to a
                # future call — the only safe move is to abandon the worker
                # entirely and let failover re-place its work.
                self._abandon_worker()
                raise MemberTimeout(
                    f"{self.name}: no reply to {method!r} within {deadline:.1f}s; "
                    "worker abandoned"
                )
            reply = self._channel.recv_message()
        except (EOFError, OSError, BrokenPipeError) as error:
            self._closed = True
            if method == "process_batch":
                # a member process that died mid-batch is exactly the crash
                # the fleet's failover machinery exists for
                raise MemberFailure(
                    f"{self.name}: member process died while serving a batch"
                ) from error
            raise ProcessMemberError(
                f"{self.name}: member process is unreachable ({error!r})"
            ) from error
        if reply[0] == "error":
            raise reply[1]
        _status, result, records, snapshot = reply
        self.view_log.extend_records(records)
        snapshot.restore(self)
        return result

    def _abandon_worker(self) -> None:
        """Kill a wedged worker immediately (no graceful shutdown attempt)."""
        self._closed = True
        self._finalizer.detach()
        _shutdown_worker(self._channel, self._process, graceful=False)

    def ping(self, timeout: Optional[float] = None) -> str:
        """Liveness probe: round-trip a no-op RPC under ``timeout`` seconds.

        Returns the worker-side server's name.  Raises
        :class:`~repro.exceptions.MemberTimeout` when the worker misses the
        deadline (it is then abandoned) and
        :class:`~repro.exceptions.ProcessMemberError` when it is already
        closed or unreachable.
        """
        deadline = self.rpc_timeout if timeout is None else timeout
        return self._deadline_call(deadline, "ping", (), {})

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)

        def remote_method(*args, **kwargs):
            return self._call(name, *args, **kwargs)

        remote_method.__name__ = name
        return remote_method

    # -- server surface -----------------------------------------------------------
    @property
    def scheme(self) -> Optional[EncryptedSearchScheme]:
        """The owner-side handle of the outsourced scheme.

        The worker holds its *own* copy (see the module docstring); this
        handle is what the fleet consults for capability flags such as
        ``concurrent_search_safe``.
        """
        return self._scheme

    @property
    def encrypted_row_count(self) -> int:
        return self._encrypted_row_count

    def store_non_sensitive(self, relation) -> None:
        self._call("store_non_sensitive", relation)

    def store_sensitive(self, slices, scheme) -> None:
        self._call("store_sensitive", slices, scheme)
        # mirrors update only after the worker actually stored the rows
        self._scheme = scheme
        self._encrypted_row_count = slice_rows(slices)

    def append_sensitive(self, slices) -> None:
        self._call("append_sensitive", slices)
        self._encrypted_row_count += slice_rows(slices)

    def receive_migrated_slice(self, slices) -> None:
        self._call("receive_migrated_slice", slices)
        self._encrypted_row_count += slice_rows(slices)

    def drop_sensitive_bins(self, bins) -> int:
        dropped = self._call("drop_sensitive_bins", list(bins))
        self._encrypted_row_count -= dropped
        return dropped

    def build_index(self, attribute: str) -> None:
        self._call("build_index", attribute)

    def register_non_sensitive_row(self, row: Row) -> None:
        self._call("register_non_sensitive_row", row)

    def process_batch(self, requests) -> List[QueryResponse]:
        return self._call("process_batch", list(requests))

    def process_request(self, *args, **kwargs) -> QueryResponse:
        return self._call("process_request", *args, **kwargs)

    def reset_observations(self) -> None:
        # A live worker resets itself and its reply's snapshot clears the
        # mirrors.  A closed member (dead or departed) has no worker left;
        # clearing the mirrors locally keeps fleet-wide resets total over
        # tombstones and stops fleet aggregates counting a gone member's
        # past work.
        with self._rpc_lock:
            if not self._closed:
                self._call("reset_observations")
            else:
                ObservationSnapshot.cleared(self).restore(self)

    def observation_snapshot(self) -> ObservationSnapshot:
        """Snapshot the member's observations from the local mirrors.

        No RPC: every reply leaves the mirrors in step with the worker, and
        a local snapshot is the only kind a *dead* worker can still
        provide — which is what lets the fleet fail a real process loss
        over.
        """
        with self._rpc_lock:
            return ObservationSnapshot.of(self)

    def restore_observations(self, snapshot: ObservationSnapshot) -> None:
        with self._rpc_lock:
            if not self._closed:
                try:
                    self._call("restore_observations", snapshot)
                except (MemberFailure, ProcessMemberError):
                    # The worker died with its un-synced in-flight
                    # observations — the crash *is* the restore; only the
                    # mirrors need rolling back (and they never saw the lost
                    # work to begin with).
                    pass
            snapshot.restore(self)

    # -- lifecycle ----------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker down; the proxy keeps its mirrors readable."""
        with self._rpc_lock:
            if not self._closed:
                self._closed = True
                self._finalizer()

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:
        state = "closed" if self._closed else "live"
        return f"ProcessMemberProxy({self.name!r}, {state})"


def _shutdown_worker(channel, process, graceful: bool = True) -> None:
    """Finalizer: ask the worker to exit, then make sure it did.

    Escalates SIGTERM → SIGKILL: a worker wedged in uninterruptible compute
    (or shielding itself from SIGTERM) must never outlive its proxy, so when
    the post-terminate join times out the process is killed outright.
    ``graceful=False`` skips the cooperative shutdown request — used when
    abandoning a worker already known to be wedged.
    """
    if graceful:
        try:
            channel.send_message(_SHUTDOWN)
        except Exception:
            pass
        process.join(timeout=2.0)
    if process.is_alive():
        process.terminate()
        process.join(timeout=2.0)
    if process.is_alive():  # pragma: no cover - needs a SIGTERM-immune worker
        kill = getattr(process, "kill", None)
        if kill is not None:
            kill()
        process.join(timeout=2.0)
    try:
        channel.close()
    except Exception:
        pass
