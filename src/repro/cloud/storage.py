"""Pluggable storage engines for the cloud server's encrypted store.

A :class:`~repro.cloud.server.CloudServer` keeps one sensitive-side store:
the encrypted relation, each row in the slice of the sensitive bin it was
stored with.  This module puts it behind one :class:`StorageBackend`
interface so a member can keep it either in process memory
(:class:`MemoryBackend`) or in a per-member SQLite file
(:class:`SQLiteBackend`) whose size is bounded by disk, not RAM.

Placement
---------
Rows travel as a *slice map* (:data:`SliceMap`): each bin maps to its rows.
Every reset, append and migrated slice adds each bin's rows to that bin's
slice, and nothing moves a row afterwards.  The ``None`` key holds rows
stored without a bin (only the baselines and the naive engine send them);
requests that name no bin read them through the linear scan over every
stored row.  A bin retrieval reads exactly its bin's slice.

Parity contract
---------------
Both backends must be *observably identical*: the rows a full read, a bin
read or a slice read returns and their order are pinned by the
cross-backend parity suite (``tests/test_storage.py``).  Storage order is
defined once, by :func:`storage_order`: the rows without a bin first, then
the bins in ascending order, each bin's rows in append order.  SQLite keeps
a monotonically increasing ``position`` rowid and sorts by
``(placed_bin, position)``; after a :meth:`StorageBackend.drop_bins` the
surviving positions are sparse, but the order is the same.

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

import itertools
import os
import sqlite3
import tempfile
import threading
import weakref
from contextlib import contextmanager
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.crypto.base import EncryptedRow
from repro.exceptions import CloudError

#: accepted ``storage_backend=`` specifications
STORAGE_BACKENDS: Tuple[str, ...] = ("memory", "sqlite")

#: bin → its rows in storage order; ``None`` keys the rows without a bin
SliceMap = Mapping[Optional[int], Sequence[EncryptedRow]]


def storage_order(bins: Iterable[Optional[int]]) -> List[Optional[int]]:
    """``bins`` in storage order: ``None`` first, then ascending."""
    return sorted(bins, key=lambda bin_index: (bin_index is not None, bin_index))


def slice_rows(slices: SliceMap) -> int:
    """The number of rows a slice map carries."""
    return sum(map(len, slices.values()))


class StorageBackend:
    """Interface between a :class:`CloudServer` and its sensitive store.

    The server owns the *observable* behaviour — retrieval interning, view
    logs, network charging, invalidation — and delegates every touch of the
    encrypted slices to one of these.  A backend copies the rows it is
    handed: one slice list may be shared by every member of a replica chain.
    """

    #: short name used in diagnostics and benchmark labels
    kind: str = "abstract"

    # -- outsourcing --------------------------------------------------------------
    def reset(self, slices: SliceMap) -> None:
        """Replace all stored state with ``slices`` (a fresh outsourcing)."""
        raise NotImplementedError

    def append(self, slices: SliceMap) -> None:
        """Append each bin's rows to the end of its slice."""
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
        self, bins: Iterable[Optional[int]]
    ) -> Dict[Optional[int], List[EncryptedRow]]:
        """The stored slices of ``bins``, keyed in storage order."""
        raise NotImplementedError

    def drop_bins(self, bins: Iterable[Optional[int]]) -> int:
        """Remove the slices of ``bins``; returns the number of rows dropped."""
        raise NotImplementedError

    # -- lifecycle ----------------------------------------------------------------
    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Group mutations atomically (a no-op for in-memory storage)."""
        yield

    def close(self) -> None:
        """Release storage resources (files, connections)."""


class MemoryBackend(StorageBackend):
    """In-process storage: a dict of bin slices, each row in one list."""

    kind = "memory"

    def __init__(self) -> None:
        self._slices: Dict[Optional[int], List[EncryptedRow]] = {}
        self._row_count = 0

    # -- outsourcing --------------------------------------------------------------
    def reset(self, slices: SliceMap) -> None:
        self._slices = {}
        self._row_count = 0
        self.append(slices)

    def append(self, slices: SliceMap) -> None:
        stored = self._slices
        for bin_index, rows in slices.items():
            if rows:
                stored.setdefault(bin_index, []).extend(rows)
                self._row_count += len(rows)

    # -- reads --------------------------------------------------------------------
    def row_count(self) -> int:
        return self._row_count

    def all_rows(self) -> List[EncryptedRow]:
        slices = self._slices
        return [row for bin_index in storage_order(slices) for row in slices[bin_index]]

    def bin_counts(self) -> Dict[Optional[int], int]:
        return {bin_index: len(rows) for bin_index, rows in self._slices.items()}

    def bin_candidates(self, bin_index: int) -> Sequence[EncryptedRow]:
        return self._slices.get(bin_index, ())

    # -- slice migration ----------------------------------------------------------
    def slice_bins(
        self, bins: Iterable[Optional[int]]
    ) -> Dict[Optional[int], List[EncryptedRow]]:
        slices = self._slices
        return {
            bin_index: list(slices[bin_index])
            for bin_index in storage_order(set(bins).intersection(slices))
        }

    def drop_bins(self, bins: Iterable[Optional[int]]) -> int:
        dropped = sum(len(self._slices.pop(bin_index, ())) for bin_index in set(bins))
        self._row_count -= dropped
        return dropped


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
        the encrypted relation.  ``position`` is the append order and
        ``placed_bin`` the bin the row was stored with (``NULL`` = none).
        The ``rows_placed_bin`` index keeps ``(placed_bin, position)``
        order, which is storage order (``NULL`` sorts first), so every
        full, bin and slice read walks it: the memory backend's slices,
        exactly.
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
    def reset(self, slices: SliceMap) -> None:
        with self.transaction():
            self._connection.execute("DELETE FROM rows")
            self._row_count = 0
            self._next_position = 0
            self.append(slices)

    def append(self, slices: SliceMap) -> None:
        count = slice_rows(slices)
        with self.transaction():
            positions = itertools.count(self._next_position)
            self._connection.executemany(
                "INSERT INTO rows(position, rid, ciphertext, search_tag, is_fake,"
                " placed_bin) VALUES (?, ?, ?, ?, ?, ?)",
                (
                    (
                        next(positions),
                        row.rid,
                        row.ciphertext,
                        row.search_tag,
                        int(row.is_fake),
                        bin_index,
                    )
                    for bin_index, rows in slices.items()
                    for row in rows
                ),
            )
            self._row_count += count
            self._next_position += count

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
                    " ORDER BY placed_bin, position"
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
    def _slice_condition(bins: Iterable[Optional[int]]) -> Tuple[str, List[int]]:
        """WHERE clause selecting the rows placed in ``bins``."""
        wanted = set(bins)
        real = sorted(b for b in wanted if b is not None)
        clauses = [f"placed_bin IN ({','.join('?' * len(real))})"] if real else []
        if None in wanted:
            clauses.append("placed_bin IS NULL")
        return " OR ".join(clauses) or "0", real

    def slice_bins(
        self, bins: Iterable[Optional[int]]
    ) -> Dict[Optional[int], List[EncryptedRow]]:
        condition, params = self._slice_condition(bins)
        slices: Dict[Optional[int], List[EncryptedRow]] = {}
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
                f" WHERE {condition} ORDER BY placed_bin, position",
                params,
            ):
                slices.setdefault(bin_index, []).append(
                    make(rid, ciphertext, search_tag, is_fake)
                )
        return slices

    def drop_bins(self, bins: Iterable[Optional[int]]) -> int:
        condition, params = self._slice_condition(bins)
        with self._mutex:
            dropped = self._connection.execute(
                f"DELETE FROM rows WHERE {condition}", params
            ).rowcount
            self._row_count -= dropped
        return dropped

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
