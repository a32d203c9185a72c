"""Pluggable storage engines for the cloud server's encrypted store.

A :class:`~repro.cloud.server.CloudServer` keeps one sensitive-side store:
the encrypted relation in storage order, each row in the sensitive bin it
was stored with (the *bin-addressed store*).  This module puts it behind
one :class:`StorageBackend` interface so a member can keep it either in
process memory (:class:`MemoryBackend`) or in a per-member SQLite file
(:class:`SQLiteBackend`) whose size is bounded by disk, not RAM.

Placement
---------
A row's bin is fixed when the row is stored: every reset, append and
migrated slice places its own rows by the bin assignment that arrives with
them, and nothing moves a row afterwards.  A row with a bin joins that
bin's slice; a row without one is kept for requests that name no bin (the
linear scan over every stored row).  A bin retrieval reads exactly its
bin's slice.  A store outsourced without an assignment (the baselines)
therefore has only unplaced rows, and its bin slices are empty.

Parity contract
---------------
Both backends must be *observably identical*: the rows a full read or a bin
read returns and their order are pinned by the cross-backend parity suite
(``tests/test_storage.py``).  The ordering invariants that make this work:

* storage order is append order.  SQLite keeps a monotonically increasing
  ``position`` rowid; after a :meth:`StorageBackend.drop_bins` the surviving
  positions are sparse where the memory backend compacts, but the *relative*
  order — the only thing schemes observe — is identical.
* a bin read serves the bin's slice in append order, exactly as the
  dict-of-lists store does.

Durability and transactions
---------------------------
The SQLite file runs in WAL mode with ``synchronous=NORMAL``.  The single
shared connection is serialized by a re-entrant mutex — concurrent tenant
sessions, fleet waves, and lifecycle migrations may all reach one member —
and a SAVEPOINT scope holds the mutex end to end, so a probe from another
thread can never interleave inside an open transaction.  Every
multi-statement mutation — outsourcing, appends — runs inside a
``SAVEPOINT`` and rolls back atomically on error, so a failed migration can
never leave a member with half a slice: the handoff is a keyed ``SELECT`` on
the source and one transactional ``INSERT`` batch on the destination instead
of a Python row loop, and a drop is one keyed ``DELETE``.
"""

from __future__ import annotations

import os
import sqlite3
import tempfile
import threading
import weakref
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.crypto.base import EncryptedRow
from repro.exceptions import CloudError

#: accepted ``storage_backend=`` specifications
STORAGE_BACKENDS: Tuple[str, ...] = ("memory", "sqlite")


class StorageBackend:
    """Interface between a :class:`CloudServer` and its sensitive store.

    The server owns the *observable* behaviour — retrieval interning, view
    logs, network charging, invalidation — and delegates every touch of the
    encrypted relation and its bin-addressed grouping to one of these.
    """

    #: short name used in diagnostics and benchmark labels
    kind: str = "abstract"

    # -- outsourcing --------------------------------------------------------------
    def reset(
        self,
        rows: Sequence[EncryptedRow],
        bin_assignment: Optional[Mapping[int, int]],
    ) -> None:
        """Replace all stored state with ``rows`` (a fresh outsourcing),
        placed by ``bin_assignment``."""
        raise NotImplementedError

    def append(
        self,
        rows: Sequence[EncryptedRow],
        bin_assignment: Optional[Mapping[int, int]],
    ) -> None:
        """Append ``rows`` in storage order, placed by ``bin_assignment``."""
        raise NotImplementedError

    # -- reads --------------------------------------------------------------------
    def row_count(self) -> int:
        raise NotImplementedError

    def all_rows(self) -> Sequence[EncryptedRow]:
        """Every stored row in storage order (the linear-scan input)."""
        raise NotImplementedError

    def bin_counts(self) -> Dict[Optional[int], int]:
        """Stored row count per bin (``None`` = rows stored without one)."""
        raise NotImplementedError

    def bin_candidates(self, bin_index: int) -> Sequence[EncryptedRow]:
        """The bin-addressed scan set: exactly the bin's slice."""
        raise NotImplementedError

    # -- slice migration ----------------------------------------------------------
    def slice_bins(
        self, bins: Sequence[Optional[int]]
    ) -> Tuple[List[EncryptedRow], Dict[int, int]]:
        """The stored rows of ``bins`` (storage order) plus their bin map."""
        raise NotImplementedError

    def drop_bins(self, bins: Sequence[Optional[int]]) -> int:
        """Remove the slices of ``bins``; returns the number of rows dropped."""
        raise NotImplementedError

    # -- introspection ------------------------------------------------------------
    def bin_store_view(self) -> Dict[int, List[EncryptedRow]]:
        """The bin-addressed store as a dict (introspection/tests only)."""
        raise NotImplementedError

    # -- lifecycle ----------------------------------------------------------------
    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Group mutations atomically (a no-op for in-memory storage)."""
        yield

    def close(self) -> None:
        """Release storage resources (files, connections)."""


class MemoryBackend(StorageBackend):
    """In-process storage: a row list and a dict of bin slices."""

    kind = "memory"

    def __init__(self) -> None:
        self._rows: List[EncryptedRow] = []
        #: bin → its rows in storage order; ``None`` keys the unplaced rows
        self._slices: Dict[Optional[int], List[EncryptedRow]] = defaultdict(list)

    # -- outsourcing --------------------------------------------------------------
    def reset(
        self,
        rows: Sequence[EncryptedRow],
        bin_assignment: Optional[Mapping[int, int]],
    ) -> None:
        self._rows = []
        self._slices = defaultdict(list)
        self.append(rows, bin_assignment)

    def append(
        self,
        rows: Sequence[EncryptedRow],
        bin_assignment: Optional[Mapping[int, int]],
    ) -> None:
        self._rows.extend(rows)
        place, slices = (bin_assignment or {}).get, self._slices
        for row in rows:
            slices[place(row.rid)].append(row)

    # -- reads --------------------------------------------------------------------
    def row_count(self) -> int:
        return len(self._rows)

    def all_rows(self) -> Sequence[EncryptedRow]:
        return self._rows

    def bin_counts(self) -> Dict[Optional[int], int]:
        return {bin_index: len(rows) for bin_index, rows in self._slices.items()}

    def bin_candidates(self, bin_index: int) -> Sequence[EncryptedRow]:
        return self._slices.get(bin_index, ())

    # -- slice migration ----------------------------------------------------------
    def _picked(self, bins: Sequence[Optional[int]]) -> List[Optional[int]]:
        """The stored bins among ``bins``."""
        return [bin_index for bin_index in set(bins) if bin_index in self._slices]

    def slice_bins(
        self, bins: Sequence[Optional[int]]
    ) -> Tuple[List[EncryptedRow], Dict[int, int]]:
        picked = self._picked(bins)
        # slices hold the very objects of ``_rows``; identity recovers their
        # storage order across bins
        members = {id(row) for bin_index in picked for row in self._slices[bin_index]}
        rows = [row for row in self._rows if id(row) in members]
        assignment = {
            row.rid: bin_index
            for bin_index in picked
            if bin_index is not None
            for row in self._slices[bin_index]
        }
        return rows, assignment

    def drop_bins(self, bins: Sequence[Optional[int]]) -> int:
        gone = {
            id(row)
            for bin_index in self._picked(bins)
            for row in self._slices.pop(bin_index)
        }
        if not gone:
            return 0
        count = len(self._rows)
        self._rows = [row for row in self._rows if id(row) not in gone]
        return count - len(self._rows)

    # -- introspection ------------------------------------------------------------
    def bin_store_view(self) -> Dict[int, List[EncryptedRow]]:
        return {
            bin_index: rows
            for bin_index, rows in self._slices.items()
            if bin_index is not None
        }


def _cleanup_sqlite(connection: sqlite3.Connection, path: Optional[str]) -> None:
    """Finalizer: close the connection and unlink an owned temp database."""
    try:
        connection.close()
    except Exception:
        pass
    if path is not None:
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(path + suffix)
            except OSError:
                pass


class SQLiteBackend(StorageBackend):
    """Per-member SQLite storage: one table, keyed by bin.

    Schema:

    ``rows(position, rid, ciphertext, search_tag, is_fake, placed_bin)``
        the encrypted relation in storage order.  ``placed_bin`` is the bin
        the row was stored with (``NULL`` = none), indexed by
        ``rows_placed_bin``: the bin-addressed store, mirroring the memory
        backend's slices exactly.
    """

    kind = "sqlite"

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS rows (
            position   INTEGER PRIMARY KEY,
            rid        INTEGER NOT NULL,
            ciphertext BLOB NOT NULL,
            search_tag BLOB NOT NULL,
            is_fake    INTEGER NOT NULL,
            placed_bin INTEGER
        );
        CREATE INDEX IF NOT EXISTS rows_placed_bin ON rows(placed_bin);
    """

    def __init__(
        self,
        path: Optional[str] = None,
        directory: Optional[str] = None,
        member_name: str = "member",
    ) -> None:
        if path is None:
            safe = "".join(c if c.isalnum() or c in "-_" else "-" for c in member_name)
            handle, path = tempfile.mkstemp(
                prefix=f"repro-store-{safe}-", suffix=".sqlite3", dir=directory
            )
            os.close(handle)
            self._owns_file = True
        else:
            self._owns_file = False
        self.path = path
        # The single connection is shared across whatever threads reach this
        # member (fleet waves, lifecycle migrations, concurrent tenant
        # sessions), so every statement runs under ``_mutex`` — re-entrant
        # because a SAVEPOINT scope holds it while the statements inside run.
        # Without it, a probe from a second thread can interleave inside
        # another thread's open SAVEPOINT and be swept up by its rollback.
        self._mutex = threading.RLock()
        self._connection = sqlite3.connect(
            path, check_same_thread=False, isolation_level=None
        )
        self._connection.execute("PRAGMA journal_mode=WAL")
        self._connection.execute("PRAGMA synchronous=NORMAL")
        self._connection.executescript(self._SCHEMA)
        self._row_count = 0
        self._next_position = 0
        self._savepoint_depth = 0
        self._closed = False
        self._finalizer = weakref.finalize(
            self,
            _cleanup_sqlite,
            self._connection,
            path if self._owns_file else None,
        )

    # -- transactions -------------------------------------------------------------
    @contextmanager
    def transaction(self) -> Iterator[None]:
        """A SAVEPOINT-guarded scope: all statements commit or none do.

        The connection mutex is held for the *whole* scope, not per
        statement, so no other thread's read or write can land inside the
        SAVEPOINT (and be silently swept up by its rollback).
        """
        with self._mutex:
            name = f"sp_{self._savepoint_depth}"
            self._savepoint_depth += 1
            counters = (self._row_count, self._next_position)
            self._connection.execute(f"SAVEPOINT {name}")
            try:
                yield
            except BaseException:
                self._connection.execute(f"ROLLBACK TO {name}")
                self._connection.execute(f"RELEASE {name}")
                # the Python-side counters must roll back with the tables
                self._row_count, self._next_position = counters
                raise
            else:
                self._connection.execute(f"RELEASE {name}")
            finally:
                self._savepoint_depth -= 1

    # -- outsourcing --------------------------------------------------------------
    def reset(
        self,
        rows: Sequence[EncryptedRow],
        bin_assignment: Optional[Mapping[int, int]],
    ) -> None:
        with self.transaction():
            self._connection.execute("DELETE FROM rows")
            self._row_count = 0
            self._next_position = 0
            self.append(rows, bin_assignment)

    def append(
        self,
        rows: Sequence[EncryptedRow],
        bin_assignment: Optional[Mapping[int, int]],
    ) -> None:
        place = (bin_assignment or {}).get
        with self.transaction():
            start = self._next_position
            self._connection.executemany(
                "INSERT INTO rows(position, rid, ciphertext, search_tag, is_fake,"
                " placed_bin) VALUES (?, ?, ?, ?, ?, ?)",
                (
                    (
                        start + offset,
                        row.rid,
                        row.ciphertext,
                        row.search_tag,
                        int(row.is_fake),
                        place(row.rid),
                    )
                    for offset, row in enumerate(rows)
                ),
            )
            self._row_count += len(rows)
            self._next_position = start + len(rows)

    @staticmethod
    def _make_row(rid: int, ciphertext, search_tag, is_fake: int) -> EncryptedRow:
        return EncryptedRow(
            rid=rid,
            ciphertext=bytes(ciphertext),
            search_tag=bytes(search_tag),
            is_fake=bool(is_fake),
        )

    # -- reads --------------------------------------------------------------------
    def row_count(self) -> int:
        return self._row_count

    def all_rows(self) -> List[EncryptedRow]:
        make = self._make_row
        with self._mutex:
            return [
                make(*fields)
                for fields in self._connection.execute(
                    "SELECT rid, ciphertext, search_tag, is_fake FROM rows"
                    " ORDER BY position"
                )
            ]

    def bin_counts(self) -> Dict[Optional[int], int]:
        with self._mutex:
            return {
                bin_index: count
                for bin_index, count in self._connection.execute(
                    "SELECT placed_bin, COUNT(*) FROM rows GROUP BY placed_bin"
                )
            }

    def bin_candidates(self, bin_index: int) -> List[EncryptedRow]:
        make = self._make_row
        with self._mutex:
            return [
                make(*fields)
                for fields in self._connection.execute(
                    "SELECT rid, ciphertext, search_tag, is_fake FROM rows"
                    " WHERE placed_bin = ? ORDER BY position",
                    (bin_index,),
                )
            ]

    # -- slice migration ----------------------------------------------------------
    @staticmethod
    def _slice_condition(bins: Sequence[Optional[int]]) -> Tuple[str, List[int]]:
        """WHERE clause selecting the rows placed in ``bins``."""
        wanted = set(bins)
        real = sorted(b for b in wanted if b is not None)
        clauses = [f"placed_bin IN ({','.join('?' * len(real))})"] if real else []
        if None in wanted:
            clauses.append("placed_bin IS NULL")
        return " OR ".join(clauses) or "0", real

    def slice_bins(
        self, bins: Sequence[Optional[int]]
    ) -> Tuple[List[EncryptedRow], Dict[int, int]]:
        condition, params = self._slice_condition(bins)
        rows: List[EncryptedRow] = []
        assignment: Dict[int, int] = {}
        make = self._make_row
        with self._mutex:
            for (
                rid,
                ciphertext,
                search_tag,
                is_fake,
                bin_index,
            ) in self._connection.execute(
                "SELECT rid, ciphertext, search_tag, is_fake, placed_bin FROM rows"
                f" WHERE {condition} ORDER BY position",
                params,
            ):
                rows.append(make(rid, ciphertext, search_tag, is_fake))
                if bin_index is not None:
                    assignment[rid] = bin_index
        return rows, assignment

    def drop_bins(self, bins: Sequence[Optional[int]]) -> int:
        condition, params = self._slice_condition(bins)
        with self._mutex:
            dropped = self._connection.execute(
                f"DELETE FROM rows WHERE {condition}", params
            ).rowcount
            self._row_count -= dropped
        return dropped

    # -- introspection ------------------------------------------------------------
    def bin_store_view(self) -> Dict[int, List[EncryptedRow]]:
        view: Dict[int, List[EncryptedRow]] = {}
        make = self._make_row
        with self._mutex:
            for (
                bin_index,
                rid,
                ciphertext,
                search_tag,
                is_fake,
            ) in self._connection.execute(
                "SELECT placed_bin, rid, ciphertext, search_tag, is_fake FROM rows"
                " WHERE placed_bin IS NOT NULL ORDER BY position"
            ):
                view.setdefault(bin_index, []).append(
                    make(rid, ciphertext, search_tag, is_fake)
                )
        return view

    # -- lifecycle ----------------------------------------------------------------
    def close(self) -> None:
        """Close the connection and remove an owned temporary database file."""
        with self._mutex:
            if not self._closed:
                self._closed = True
                self._finalizer()


def make_storage_backend(
    spec: Union[str, StorageBackend, None],
    member_name: str = "member",
    directory: Optional[str] = None,
) -> StorageBackend:
    """Resolve a ``storage_backend=`` argument into a backend instance.

    ``spec`` may be ``"memory"`` (or ``None``), ``"sqlite"``, or an already
    constructed :class:`StorageBackend` (tests injecting doubles).
    ``directory`` places a SQLite backend's database file (default: the
    system temp dir, removed with the backend).
    """
    if isinstance(spec, StorageBackend):
        return spec
    if spec is None or spec == "memory":
        return MemoryBackend()
    if spec == "sqlite":
        return SQLiteBackend(directory=directory, member_name=member_name)
    raise CloudError(
        f"unknown storage_backend {spec!r}; choose from {list(STORAGE_BACKENDS)}"
    )
