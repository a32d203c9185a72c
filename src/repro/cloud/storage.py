"""Pluggable storage engines for the cloud server's encrypted stores.

A :class:`~repro.cloud.server.CloudServer` holds three sensitive-side stores:
the encrypted relation in storage order, the scheme's tag index (when
``supports_tag_index``), and the bin-addressed SSE store plus the rid → bin
assignment used by slice migration.  This module puts all of them behind one
:class:`StorageBackend` interface so a member can keep them either in process
memory (:class:`MemoryBackend`, the historical dict/list stores moved here
verbatim) or in a per-member SQLite file (:class:`SQLiteBackend`) whose size
is bounded by disk, not RAM.

Parity contract
---------------
Both backends must be *observably identical*: the rows a probe or a bin scan
returns, their order, and the work counters charged along the way are pinned
by the cross-backend parity suite (``tests/test_storage.py``).  The ordering
invariants that make this work:

* storage order is append order.  SQLite keeps a monotonically increasing
  ``position`` rowid; after a :meth:`StorageBackend.drop_bins` the surviving
  positions are sparse where the memory backend compacts, but the *relative*
  order — the only thing schemes observe — is identical.
* a tag-index bucket lists its ``(position, row)`` pairs in insertion order
  (``ORDER BY position``), matching the in-memory bucket lists.
* a bin scan serves the bin's slice in append order followed by the
  unassigned rows in append order, exactly as the dict-of-lists store does.

The tag index work counters (``probe_count`` / ``rows_examined``) live in
Python attributes — :class:`SQLiteTagIndex` is a thin probe shim over the
``tags`` table — and count the probes each index actually made; they are
not observations, so crash rollback never touches them or the database.

Durability and transactions
---------------------------
The SQLite file runs in WAL mode with ``synchronous=NORMAL``.  The single
shared connection is serialized by a re-entrant mutex — concurrent tenant
sessions, fleet waves, and lifecycle migrations may all reach one member —
and a SAVEPOINT scope holds the mutex end to end, so a probe from another
thread can never interleave inside an open transaction.  Every
multi-statement mutation — outsourcing, appends, migration drops — runs
inside a ``SAVEPOINT`` and rolls back atomically on error, so a failed
migration can never leave a member with half a slice: the handoff is a keyed
``SELECT`` on the source and one transactional ``INSERT`` batch on the
destination instead of a Python row loop.
"""

from __future__ import annotations

import os
import sqlite3
import tempfile
import threading
import weakref
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.cloud.indexes import EncryptedTagIndex
from repro.crypto.base import EncryptedRow, EncryptedSearchScheme
from repro.exceptions import CloudError

#: accepted ``storage_backend=`` specifications
STORAGE_BACKENDS: Tuple[str, ...] = ("memory", "sqlite")


class StorageBackend:
    """Interface between a :class:`CloudServer` and its sensitive stores.

    The server owns the *observable* behaviour — retrieval interning, view
    logs, network charging, invalidation — and delegates every touch of the
    encrypted relation, the tag index, the bin-addressed store, and the
    rid → bin assignment to one of these.
    """

    #: short name used in diagnostics and benchmark labels
    kind: str = "abstract"

    # -- outsourcing --------------------------------------------------------------
    def reset(
        self,
        rows: Sequence[EncryptedRow],
        scheme: EncryptedSearchScheme,
        bin_assignment: Optional[Mapping[int, int]],
        *,
        build_tag_index: bool,
        build_bin_store: bool,
    ) -> None:
        """Replace all stored state with ``rows`` (a fresh outsourcing)."""
        raise NotImplementedError

    def append(
        self,
        rows: Sequence[EncryptedRow],
        bin_assignment: Optional[Mapping[int, int]],
    ) -> None:
        """Append ``rows`` in storage order, extending derived structures."""
        raise NotImplementedError

    # -- reads --------------------------------------------------------------------
    def row_count(self) -> int:
        raise NotImplementedError

    def all_rows(self) -> Sequence[EncryptedRow]:
        """Every stored row in storage order (the linear-scan input)."""
        raise NotImplementedError

    def bin_counts(self) -> Dict[Optional[int], int]:
        """Stored row count per assigned bin (``None`` = unassigned)."""
        raise NotImplementedError

    def bin_candidates(self, bin_index: int) -> Sequence[EncryptedRow]:
        """The bin-addressed scan set: the bin's slice plus unassigned rows."""
        raise NotImplementedError

    # -- slice migration ----------------------------------------------------------
    def slice_bins(
        self, bins: Sequence[Optional[int]]
    ) -> Tuple[List[EncryptedRow], Dict[int, int]]:
        """The stored rows of ``bins`` (storage order) plus their bin map."""
        raise NotImplementedError

    def drop_bins(self, bins: Sequence[Optional[int]]) -> int:
        """Remove the slices of ``bins``; returns the number of rows dropped.

        Derived structures (tag index, bin store) are maintained over the
        survivors; tag-index work counters carry over so observation
        accounting never runs backwards.
        """
        raise NotImplementedError

    # -- derived structures -------------------------------------------------------
    @property
    def tag_index(self):
        """The live tag index (``None`` when the scheme has no stable tags)."""
        raise NotImplementedError

    @property
    def has_bin_store(self) -> bool:
        raise NotImplementedError

    def bin_store_view(self) -> Optional[Dict[int, List[EncryptedRow]]]:
        """The bin-addressed store as a dict (introspection/tests only)."""
        raise NotImplementedError

    def bin_assignment_view(self) -> Dict[int, int]:
        """The rid → bin assignment as a dict (introspection/tests only)."""
        raise NotImplementedError

    # -- lifecycle ----------------------------------------------------------------
    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Group mutations atomically (a no-op for in-memory storage)."""
        yield

    def close(self) -> None:
        """Release storage resources (files, connections)."""


class MemoryBackend(StorageBackend):
    """The historical in-process stores: a row list, dict indexes, dict bins."""

    kind = "memory"

    def __init__(self) -> None:
        self._rows: List[EncryptedRow] = []
        self._scheme: Optional[EncryptedSearchScheme] = None
        self._tag_index: Optional[EncryptedTagIndex] = None
        self._bin_store: Optional[Dict[int, List[EncryptedRow]]] = None
        self._unassigned: List[EncryptedRow] = []
        self._bin_assignment: Dict[int, int] = {}

    # -- outsourcing --------------------------------------------------------------
    def reset(
        self,
        rows: Sequence[EncryptedRow],
        scheme: EncryptedSearchScheme,
        bin_assignment: Optional[Mapping[int, int]],
        *,
        build_tag_index: bool,
        build_bin_store: bool,
    ) -> None:
        self._rows = list(rows)
        self._scheme = scheme
        self._tag_index = None
        self._bin_store = None
        self._unassigned = []
        self._bin_assignment = dict(bin_assignment) if bin_assignment else {}
        if build_tag_index:
            self._tag_index = EncryptedTagIndex(scheme)
            self._tag_index.add_rows(self._rows, 0)
        elif build_bin_store:
            self._bin_store = {}
            self._place_in_bins(self._rows, bin_assignment or {})

    def append(
        self,
        rows: Sequence[EncryptedRow],
        bin_assignment: Optional[Mapping[int, int]],
    ) -> None:
        start_position = len(self._rows)
        self._rows.extend(rows)
        if bin_assignment:
            self._bin_assignment.update(bin_assignment)
        if self._tag_index is not None:
            self._tag_index.add_rows(rows, start_position)
        if self._bin_store is not None:
            self._place_in_bins(rows, bin_assignment or {})

    def _place_in_bins(
        self,
        rows: Sequence[EncryptedRow],
        bin_assignment: Mapping[int, int],
    ) -> None:
        assert self._bin_store is not None
        for row in rows:
            bin_index = bin_assignment.get(row.rid)
            if bin_index is None:
                # Rows the owner did not place must stay visible to every bin
                # retrieval, otherwise the sliced scan could miss matches.
                self._unassigned.append(row)
            else:
                self._bin_store.setdefault(bin_index, []).append(row)

    # -- reads --------------------------------------------------------------------
    def row_count(self) -> int:
        return len(self._rows)

    def all_rows(self) -> Sequence[EncryptedRow]:
        return self._rows

    def bin_counts(self) -> Dict[Optional[int], int]:
        counts: Dict[Optional[int], int] = {}
        for row in self._rows:
            bin_index = self._bin_assignment.get(row.rid)
            counts[bin_index] = counts.get(bin_index, 0) + 1
        return counts

    def bin_candidates(self, bin_index: int) -> Sequence[EncryptedRow]:
        assert self._bin_store is not None
        candidates = self._bin_store.get(bin_index, [])
        if self._unassigned:
            candidates = candidates + self._unassigned
        return candidates

    # -- slice migration ----------------------------------------------------------
    def slice_bins(
        self, bins: Sequence[Optional[int]]
    ) -> Tuple[List[EncryptedRow], Dict[int, int]]:
        wanted = set(bins)
        include_unassigned = None in wanted
        rows: List[EncryptedRow] = []
        assignment: Dict[int, int] = {}
        for row in self._rows:
            bin_index = self._bin_assignment.get(row.rid)
            if bin_index is None:
                if include_unassigned:
                    rows.append(row)
            elif bin_index in wanted:
                rows.append(row)
                assignment[row.rid] = bin_index
        return rows, assignment

    def drop_bins(self, bins: Sequence[Optional[int]]) -> int:
        wanted = set(bins)
        include_unassigned = None in wanted
        keep: List[EncryptedRow] = []
        dropped = 0
        for row in self._rows:
            bin_index = self._bin_assignment.get(row.rid)
            if (bin_index is None and include_unassigned) or (
                bin_index is not None and bin_index in wanted
            ):
                dropped += 1
                self._bin_assignment.pop(row.rid, None)
            else:
                keep.append(row)
        if not dropped:
            return 0
        self._rows = keep
        if self._tag_index is not None:
            assert self._scheme is not None
            self._tag_index = EncryptedTagIndex(self._scheme)
            self._tag_index.add_rows(self._rows, 0)
        if self._bin_store is not None:
            self._bin_store = {}
            self._unassigned = []
            self._place_in_bins(self._rows, self._bin_assignment)
        return dropped

    # -- derived structures -------------------------------------------------------
    @property
    def tag_index(self) -> Optional[EncryptedTagIndex]:
        return self._tag_index

    @property
    def has_bin_store(self) -> bool:
        return self._bin_store is not None

    def bin_store_view(self) -> Optional[Dict[int, List[EncryptedRow]]]:
        return self._bin_store

    def bin_assignment_view(self) -> Dict[int, int]:
        return self._bin_assignment


class SQLiteTagIndex:
    """Probe shim giving the SQLite ``tags`` table the tag-index surface.

    Buckets live in the database; the work counters live here, as plain
    Python integers, exactly as on :class:`EncryptedTagIndex`.
    """

    _NO_ENTRIES: List[Tuple[int, EncryptedRow]] = []

    def __init__(self, backend: "SQLiteBackend") -> None:
        self._backend = backend
        self.probe_count = 0
        self.rows_examined = 0

    def probe(self, key: bytes) -> List[Tuple[int, EncryptedRow]]:
        """The (position, row) pairs stored under ``key`` (insertion order)."""
        self.probe_count += 1
        entries = self._backend._probe_tag(key)
        if not entries:
            return self._NO_ENTRIES
        self.rows_examined += len(entries)
        return entries

    def probe_many(
        self, keys: Sequence[bytes]
    ) -> List[List[Tuple[int, EncryptedRow]]]:
        """Batch :meth:`probe` (same per-key counter increments).

        Each key is still one keyed ``SELECT`` against the ``tags`` table;
        the batch surface exists so schemes can treat both tag-index
        implementations uniformly.
        """
        return [self.probe(key) for key in keys]

    def distinct_count(self) -> int:
        return self._backend._distinct_tag_count()

    def __len__(self) -> int:
        return self._backend._tag_entry_count()


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
    """Per-member SQLite storage: one table per store, bin-keyed indexes.

    Schema:

    ``rows(position, rid, ciphertext, search_tag, is_fake, placed_bin)``
        the encrypted relation in storage order.  ``placed_bin`` is the
        bin-addressed store: the bin each row was *placed* in at append time
        (``NULL`` = the unassigned overflow scanned by every bin retrieval),
        mirroring the dict-of-lists store exactly.
    ``bins(rid, bin)``
        the rid → bin assignment used by slice migration — kept for every
        scheme, exactly like the memory backend's ``_bin_assignment`` dict.
    ``tags(key, position)``
        the tag index's buckets; ``SQLiteTagIndex`` probes this table.
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
        CREATE INDEX IF NOT EXISTS rows_rid ON rows(rid);
        CREATE INDEX IF NOT EXISTS rows_placed_bin ON rows(placed_bin);
        CREATE TABLE IF NOT EXISTS bins (
            rid INTEGER PRIMARY KEY,
            bin INTEGER NOT NULL
        );
        CREATE INDEX IF NOT EXISTS bins_bin ON bins(bin);
        CREATE TABLE IF NOT EXISTS tags (
            key      BLOB NOT NULL,
            position INTEGER NOT NULL
        );
        CREATE INDEX IF NOT EXISTS tags_key ON tags(key);
        CREATE INDEX IF NOT EXISTS tags_position ON tags(position);
    """

    def __init__(
        self,
        path: Optional[str] = None,
        directory: Optional[str] = None,
        member_name: str = "member",
        synchronous: str = "NORMAL",
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
        self._connection.execute(f"PRAGMA synchronous={synchronous}")
        self._connection.executescript(self._SCHEMA)
        self._scheme: Optional[EncryptedSearchScheme] = None
        self._tag_index: Optional[SQLiteTagIndex] = None
        self._has_bin_store = False
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
        scheme: EncryptedSearchScheme,
        bin_assignment: Optional[Mapping[int, int]],
        *,
        build_tag_index: bool,
        build_bin_store: bool,
    ) -> None:
        rows = list(rows)
        assignment = dict(bin_assignment) if bin_assignment else {}
        with self.transaction():
            self._connection.execute("DELETE FROM rows")
            self._connection.execute("DELETE FROM bins")
            self._connection.execute("DELETE FROM tags")
            self._scheme = scheme
            self._tag_index = SQLiteTagIndex(self) if build_tag_index else None
            self._has_bin_store = build_bin_store
            self._row_count = 0
            self._next_position = 0
            self._insert_rows(rows, bin_assignment or {})
            if assignment:
                self._connection.executemany(
                    "INSERT OR REPLACE INTO bins(rid, bin) VALUES (?, ?)",
                    assignment.items(),
                )

    def append(
        self,
        rows: Sequence[EncryptedRow],
        bin_assignment: Optional[Mapping[int, int]],
    ) -> None:
        with self.transaction():
            self._insert_rows(rows, bin_assignment or {})
            if bin_assignment:
                self._connection.executemany(
                    "INSERT OR REPLACE INTO bins(rid, bin) VALUES (?, ?)",
                    bin_assignment.items(),
                )

    def _insert_rows(
        self,
        rows: Sequence[EncryptedRow],
        placement: Mapping[int, int],
    ) -> None:
        """Append ``rows`` at fresh positions, maintaining store and index."""
        start = self._next_position
        place = placement.get if self._has_bin_store else (lambda _rid: None)
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
        if self._tag_index is not None:
            assert self._scheme is not None
            index_key = self._scheme.index_key
            self._connection.executemany(
                "INSERT INTO tags(key, position) VALUES (?, ?)",
                (
                    (key, start + offset)
                    for offset, row in enumerate(rows)
                    if (key := index_key(row)) is not None
                ),
            )
        added = len(rows)
        self._row_count += added
        self._next_position = start + added

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
                    "SELECT b.bin, COUNT(*) FROM rows r"
                    " LEFT JOIN bins b ON b.rid = r.rid GROUP BY b.bin"
                )
            }

    def bin_candidates(self, bin_index: int) -> List[EncryptedRow]:
        make = self._make_row
        with self._mutex:
            candidates = [
                make(*fields)
                for fields in self._connection.execute(
                    "SELECT rid, ciphertext, search_tag, is_fake FROM rows"
                    " WHERE placed_bin = ? ORDER BY position",
                    (bin_index,),
                )
            ]
            candidates.extend(
                make(*fields)
                for fields in self._connection.execute(
                    "SELECT rid, ciphertext, search_tag, is_fake FROM rows"
                    " WHERE placed_bin IS NULL ORDER BY position"
                )
            )
        return candidates

    # -- slice migration ----------------------------------------------------------
    def _slice_condition(
        self, bins: Sequence[Optional[int]]
    ) -> Tuple[str, List[int]]:
        """WHERE clause (over ``rows r`` joined as ``b``) selecting the slices."""
        wanted = set(bins)
        include_unassigned = None in wanted
        real = sorted(b for b in wanted if b is not None)
        clauses = []
        if real:
            clauses.append(f"b.bin IN ({','.join('?' * len(real))})")
        if include_unassigned:
            clauses.append("b.rid IS NULL")
        if not clauses:
            clauses.append("0")
        return " OR ".join(clauses), real

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
                "SELECT r.rid, r.ciphertext, r.search_tag, r.is_fake, b.bin"
                " FROM rows r LEFT JOIN bins b ON b.rid = r.rid"
                f" WHERE {condition} ORDER BY r.position",
                params,
            ):
                rows.append(make(rid, ciphertext, search_tag, is_fake))
                if bin_index is not None:
                    assignment[rid] = bin_index
        return rows, assignment

    def drop_bins(self, bins: Sequence[Optional[int]]) -> int:
        condition, params = self._slice_condition(bins)
        with self.transaction():
            dropped_rows = self._connection.execute(
                "SELECT r.position, r.rid FROM rows r"
                f" LEFT JOIN bins b ON b.rid = r.rid WHERE {condition}",
                params,
            ).fetchall()
            if not dropped_rows:
                return 0
            self._connection.executemany(
                "DELETE FROM tags WHERE position = ?",
                ((position,) for position, _rid in dropped_rows),
            )
            self._connection.executemany(
                "DELETE FROM rows WHERE position = ?",
                ((position,) for position, _rid in dropped_rows),
            )
            self._connection.executemany(
                "DELETE FROM bins WHERE rid = ?",
                ((rid,) for _position, rid in dropped_rows),
            )
            if self._has_bin_store:
                # Match the memory backend's post-drop rebuild: surviving
                # rows are re-placed from the *assignment*, so a row whose
                # assignment arrived after its append moves out of the
                # unassigned overflow.
                self._connection.execute(
                    "UPDATE rows SET placed_bin ="
                    " (SELECT bin FROM bins WHERE bins.rid = rows.rid)"
                )
            self._row_count -= len(dropped_rows)
        return len(dropped_rows)

    # -- derived structures -------------------------------------------------------
    @property
    def tag_index(self) -> Optional[SQLiteTagIndex]:
        return self._tag_index

    @property
    def has_bin_store(self) -> bool:
        return self._has_bin_store

    def bin_store_view(self) -> Optional[Dict[int, List[EncryptedRow]]]:
        if not self._has_bin_store:
            return None
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

    def bin_assignment_view(self) -> Dict[int, int]:
        with self._mutex:
            return dict(self._connection.execute("SELECT rid, bin FROM bins"))

    # -- tag-index plumbing -------------------------------------------------------
    def _probe_tag(self, key: bytes) -> List[Tuple[int, EncryptedRow]]:
        make = self._make_row
        with self._mutex:
            return [
                (position, make(rid, ciphertext, search_tag, is_fake))
                for position, rid, ciphertext, search_tag, is_fake in (
                    self._connection.execute(
                        "SELECT t.position, r.rid, r.ciphertext, r.search_tag,"
                        " r.is_fake FROM tags t JOIN rows r ON r.position = t.position"
                        " WHERE t.key = ? ORDER BY t.position",
                        (key,),
                    )
                )
            ]

    def _distinct_tag_count(self) -> int:
        with self._mutex:
            (count,) = self._connection.execute(
                "SELECT COUNT(DISTINCT key) FROM tags"
            ).fetchone()
            return count

    def _tag_entry_count(self) -> int:
        with self._mutex:
            (count,) = self._connection.execute(
                "SELECT COUNT(*) FROM tags"
            ).fetchone()
            return count

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
