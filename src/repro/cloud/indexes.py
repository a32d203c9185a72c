"""Cloud-side indexes over the outsourced relations.

The non-sensitive relation is stored in plaintext, so the cloud can maintain
ordinary database indexes on it:

* :class:`HashIndex` — exact-match lookups (the common case for QB's
  ``IN``-expanded selection queries);
* :class:`SortedIndex` — a sorted-array index supporting equality and range
  probes, standing in for a B+-tree.

The *encrypted* relation gets the same treatment when its scheme opts in
(:attr:`~repro.crypto.base.EncryptedSearchScheme.supports_tag_index`):

* :class:`EncryptedTagIndex` — exact-match index from a scheme-stable search
  key (deterministic tag, Arx ``(value, i)`` tag, blinded tuple address) to
  the stored ciphertexts, so bin retrievals cost index probes instead of a
  scan of the whole relation.  The index holds only (key, rid, ciphertext)
  triples the honest-but-curious adversary already stores, so building it
  changes nothing in the adversarial view.

All indexes count the probes they actually make (and, for the encrypted
index, the rows examined) so the experiment harness can report index work
alongside wall-clock time.  These are work counters, not observations: a
query the cloud serves from an interned retrieval makes no probe and adds
nothing to them, and crash rollback leaves them alone.  What the cloud
*observed* is ``CloudStatistics``, which charges every query.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.data.relation import Relation, Row
from repro.exceptions import UnknownAttributeError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.crypto.base import EncryptedRow, EncryptedSearchScheme

#: Shared sentinel for missing buckets: callers treat lookup results as
#: read-only, so all misses may alias one list without risk.
_NO_ROWS: List[Row] = []


class HashIndex:
    """A hash index from attribute value to the rows holding it."""

    def __init__(self, relation: Relation, attribute: str):
        relation.schema[attribute]
        self.attribute = attribute
        self.relation_name = relation.name
        self._buckets: Dict[object, List[Row]] = defaultdict(list)
        for row in relation:
            self._buckets[row[attribute]].append(row)
        self.probe_count = 0

    def lookup(self, value: object) -> List[Row]:
        """Rows whose indexed attribute equals ``value``.

        Returns the live bucket (no defensive copy — probes are on the hot
        path of every query); callers must treat the result as read-only.
        """
        self.probe_count += 1
        return self._buckets.get(value, _NO_ROWS)

    def lookup_many(self, values: Iterable[object]) -> List[Row]:
        """Union of lookups for several values (bin-expanded queries)."""
        buckets = self._buckets
        results: List[Row] = []
        for value in values:
            self.probe_count += 1
            bucket = buckets.get(value)
            if bucket:
                results.extend(bucket)
        return results

    def add_row(self, row: Row) -> None:
        """Maintain the index after an insert."""
        self._buckets[row[self.attribute]].append(row)

    def distinct_count(self) -> int:
        return len(self._buckets)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


class SortedIndex:
    """A sorted-array index supporting equality and range probes."""

    def __init__(self, relation: Relation, attribute: str):
        relation.schema[attribute]
        self.attribute = attribute
        self.relation_name = relation.name
        pairs = sorted(
            ((row[attribute], row) for row in relation), key=lambda pair: pair[0]
        )
        self._keys: List[object] = [key for key, _ in pairs]
        self._rows: List[Row] = [row for _, row in pairs]
        self.probe_count = 0

    def lookup(self, value: object) -> List[Row]:
        """Equality probe by binary search."""
        self.probe_count += 1
        lo = bisect_left(self._keys, value)
        hi = bisect_right(self._keys, value)
        return self._rows[lo:hi]

    def lookup_many(self, values: Iterable[object]) -> List[Row]:
        results: List[Row] = []
        for value in values:
            results.extend(self.lookup(value))
        return results

    def range(
        self,
        low: Optional[object] = None,
        high: Optional[object] = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> List[Row]:
        """Rows whose indexed value lies in the requested interval."""
        self.probe_count += 1
        lo = 0
        hi = len(self._keys)
        if low is not None:
            lo = bisect_left(self._keys, low) if include_low else bisect_right(self._keys, low)
        if high is not None:
            hi = bisect_right(self._keys, high) if include_high else bisect_left(self._keys, high)
        return self._rows[lo:hi]

    def add_row(self, row: Row) -> None:
        """Maintain the index after an insert (O(n) array insert)."""
        key = row[self.attribute]
        position = bisect_right(self._keys, key)
        self._keys.insert(position, key)
        self._rows.insert(position, row)

    def min_key(self) -> object:
        if not self._keys:
            raise UnknownAttributeError("index is empty")
        return self._keys[0]

    def max_key(self) -> object:
        if not self._keys:
            raise UnknownAttributeError("index is empty")
        return self._keys[-1]

    def __len__(self) -> int:
        return len(self._rows)


class EncryptedTagIndex:
    """Exact-match index over the encrypted relation's stable search keys.

    Buckets map a scheme-defined key (see
    :meth:`~repro.crypto.base.EncryptedSearchScheme.index_key`) to the
    ``(storage position, row)`` pairs stored under it.  Positions let schemes
    reconstruct storage order, so the indexed search path returns exactly
    what the linear scan would have.

    ``probe_count`` counts key probes; ``rows_examined`` counts the rows the
    probes surfaced — the indexed analogue of "rows scanned", fed into
    :class:`~repro.cloud.server.QueryResponse.sensitive_scanned`.
    """

    _NO_ENTRIES: List[Tuple[int, "EncryptedRow"]] = []

    def __init__(self, scheme: "EncryptedSearchScheme"):
        self._scheme = scheme
        self._buckets: Dict[bytes, List[Tuple[int, "EncryptedRow"]]] = defaultdict(list)
        self._size = 0
        self.probe_count = 0
        self.rows_examined = 0

    def add_rows(self, rows: Sequence["EncryptedRow"], start_position: int) -> None:
        """Index ``rows`` stored at positions ``start_position, ...``.

        Keys come from the scheme's batch hook
        (:meth:`~repro.crypto.base.EncryptedSearchScheme.index_keys`), so
        outsource ingest pays one batched key derivation instead of a
        per-row call.
        """
        buckets = self._buckets
        keys = self._scheme.index_keys(rows)
        position = start_position
        size = 0
        for key, row in zip(keys, rows):
            if key is not None:
                buckets[key].append((position, row))
                size += 1
            position += 1
        self._size += size

    def probe(self, key: bytes) -> List[Tuple[int, "EncryptedRow"]]:
        """The (position, row) pairs stored under ``key`` (live, read-only)."""
        self.probe_count += 1
        bucket = self._buckets.get(key)
        if bucket is None:
            return self._NO_ENTRIES
        self.rows_examined += len(bucket)
        return bucket

    def probe_many(
        self, keys: Sequence[bytes]
    ) -> List[List[Tuple[int, "EncryptedRow"]]]:
        """Batch :meth:`probe`: one bucket list per key, in key order.

        Work-counter increments are exactly what the per-key loop would
        charge (``probe_count`` per key, ``rows_examined`` per surfaced
        row), so observation accounting cannot tell the paths apart.
        """
        buckets = self._buckets
        no_entries = self._NO_ENTRIES
        out: List[List[Tuple[int, "EncryptedRow"]]] = []
        append = out.append
        examined = 0
        for key in keys:
            bucket = buckets.get(key)
            if bucket is None:
                append(no_entries)
            else:
                examined += len(bucket)
                append(bucket)
        self.probe_count += len(keys)
        self.rows_examined += examined
        return out

    def distinct_count(self) -> int:
        return len(self._buckets)

    def __len__(self) -> int:
        return self._size
