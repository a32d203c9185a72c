"""Cloud-side index over the outsourced cleartext relation.

The non-sensitive relation is stored in plaintext, so the cloud keeps an
ordinary :class:`HashIndex` per searched attribute: exact-match lookups,
the only probe QB's ``IN``-expanded selection queries need.  The encrypted
relation has no index of its own; the cloud groups it by sensitive bin
instead (see :mod:`repro.cloud.storage`).

The index counts the probes it actually makes, so the experiment harness
can report index work alongside wall-clock time.  This is a work counter,
not an observation: a query the cloud serves from an interned retrieval
makes no probe and adds nothing to it, and crash rollback leaves it alone.
What the cloud *observed* is ``CloudStatistics``, which charges every query.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List

from repro.data.relation import Relation, Row

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
