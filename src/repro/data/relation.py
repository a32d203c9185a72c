"""In-memory relations (tables) used as the storage substrate.

The cloud in the paper is a conventional DBMS; for the reproduction we model
relations as ordered collections of rows.  Rows keep a stable ``rid`` (the
``t_i`` identifiers of the paper's figures), which is what an adversary
observes when encrypted tuples are returned: the *address* of the tuple, not
its content.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.data.schema import Attribute, Schema
from repro.exceptions import SchemaError, UnknownAttributeError


@dataclass(frozen=True)
class Row:
    """A single tuple of a relation.

    Attributes
    ----------
    rid:
        Stable row identifier, unique within its relation.  This is the
        "tuple address" the adversary observes for encrypted rows.
    values:
        Mapping from attribute name to value.
    sensitive:
        Row-level sensitivity flag assigned by the DB owner's policy.
    """

    rid: int
    values: Mapping[str, object]
    sensitive: bool = False

    def __getitem__(self, attribute: str) -> object:
        try:
            return self.values[attribute]
        except KeyError:
            raise UnknownAttributeError(
                f"row {self.rid} has no attribute {attribute!r}"
            ) from None

    def get(self, attribute: str, default: object = None) -> object:
        return self.values.get(attribute, default)

    def project(self, attributes: Sequence[str]) -> "Row":
        """Return a copy of the row restricted to ``attributes``."""
        return Row(
            rid=self.rid,
            values={name: self[name] for name in attributes},
            sensitive=self.sensitive,
        )

    def as_dict(self) -> Dict[str, object]:
        return dict(self.values)


class Relation:
    """A named, schema-validated, ordered collection of :class:`Row` objects.

    The class intentionally provides only the operations the reproduction
    needs: insertion, scanning, selection by predicate or by value, projection,
    and simple statistics (value frequencies) that feed the DB-owner metadata
    and the adversary's auxiliary knowledge.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        rows: Iterable[Row] = (),
        validate: bool = True,
    ):
        self.name = name
        self.schema = schema
        self._rows: List[Row] = []
        self._by_rid: Dict[int, Row] = {}
        self._rid_counter = itertools.count()
        for row in rows:
            self._add_row(row, validate=validate)

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_dicts(
        cls,
        name: str,
        schema: Schema,
        dicts: Iterable[Mapping[str, object]],
        sensitive: bool = False,
        validate: bool = True,
    ) -> "Relation":
        """Build a relation from plain dictionaries, assigning fresh rids."""
        relation = cls(name, schema)
        for values in dicts:
            relation.insert(values, sensitive=sensitive, validate=validate)
        return relation

    def _next_rid(self) -> int:
        rid = next(self._rid_counter)
        while rid in self._by_rid:
            rid = next(self._rid_counter)
        return rid

    def _add_row(self, row: Row, validate: bool = True) -> None:
        if validate:
            self.schema.validate_row(dict(row.values))
        if row.rid in self._by_rid:
            raise SchemaError(f"duplicate rid {row.rid} in relation {self.name!r}")
        self._rows.append(row)
        self._by_rid[row.rid] = row

    def insert(
        self,
        values: Mapping[str, object],
        sensitive: bool = False,
        rid: Optional[int] = None,
        validate: bool = True,
    ) -> Row:
        """Insert a new row and return it.

        When ``rid`` is omitted a fresh identifier is assigned.
        """
        if rid is None:
            rid = self._next_rid()
        row = Row(rid=rid, values=dict(values), sensitive=sensitive)
        self._add_row(row, validate=validate)
        return row

    def extend(
        self,
        dicts: Iterable[Mapping[str, object]],
        sensitive: bool = False,
        validate: bool = True,
    ) -> List[Row]:
        """Insert many rows at once; returns the created rows."""
        return [self.insert(d, sensitive=sensitive, validate=validate) for d in dicts]

    # -- container protocol ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, rid: object) -> bool:
        return rid in self._by_rid

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, {len(self)} rows, schema={self.schema!r})"

    # -- access -----------------------------------------------------------------
    @property
    def rows(self) -> Tuple[Row, ...]:
        return tuple(self._rows)

    @property
    def rids(self) -> Tuple[int, ...]:
        return tuple(row.rid for row in self._rows)

    def row(self, rid: int) -> Row:
        try:
            return self._by_rid[rid]
        except KeyError:
            raise UnknownAttributeError(
                f"relation {self.name!r} has no row with rid {rid}"
            ) from None

    # -- relational operators ----------------------------------------------------
    def scan(self) -> Iterator[Row]:
        """Full scan of the relation (a generator over rows)."""
        return iter(self._rows)

    def select(self, predicate: Callable[[Row], bool]) -> List[Row]:
        """Return the rows for which ``predicate(row)`` is true."""
        return [row for row in self._rows if predicate(row)]

    def select_equals(self, attribute: str, value: object) -> List[Row]:
        """Selection ``attribute = value`` (the paper's selection queries)."""
        self.schema[attribute]
        return [row for row in self._rows if row[attribute] == value]

    def select_in(self, attribute: str, values: Iterable[object]) -> List[Row]:
        """Selection ``attribute IN values`` — the shape QB bins produce."""
        self.schema[attribute]
        wanted = set(values)
        return [row for row in self._rows if row[attribute] in wanted]

    def project(self, attributes: Sequence[str]) -> "Relation":
        """Return a new relation restricted to ``attributes``."""
        projected_schema = self.schema.project(attributes)
        projected = Relation(f"{self.name}_proj", projected_schema)
        for row in self._rows:
            projected._add_row(row.project(attributes), validate=False)
        return projected

    def filter_new(self, name: str, predicate: Callable[[Row], bool]) -> "Relation":
        """Return a new relation containing the rows matching ``predicate``.

        Row identifiers are preserved so the sensitive/non-sensitive
        partitions keep the original ``t_i`` addresses (as in Figure 2).
        """
        result = Relation(name, self.schema)
        for row in self._rows:
            if predicate(row):
                result._add_row(row, validate=False)
        return result

    # -- statistics ----------------------------------------------------------------
    def value_counts(self, attribute: str) -> Counter:
        """Frequency of each distinct value of ``attribute``.

        This is exactly the metadata the DB owner stores ("searchable values
        and their frequency counts") and part of the adversary's auxiliary
        knowledge for the non-sensitive relation.
        """
        self.schema[attribute]
        return Counter(row[attribute] for row in self._rows)

    def distinct_values(self, attribute: str) -> List[Hashable]:
        """Distinct values of ``attribute`` in first-appearance order."""
        self.schema[attribute]
        seen: Dict[Hashable, None] = {}
        for row in self._rows:
            seen.setdefault(row[attribute], None)
        return list(seen)

    def estimated_size_bytes(self, bytes_per_value: int = 25) -> int:
        """A crude size estimate used by the network/cost model."""
        return len(self._rows) * len(self.schema) * bytes_per_value

    def to_dicts(self) -> List[Dict[str, object]]:
        """Materialise the relation as a list of plain dictionaries."""
        return [row.as_dict() for row in self._rows]


def union_rows(*row_groups: Iterable[Row]) -> List[Row]:
    """Union row groups by rid, preserving first-seen order.

    Used by ``qmerge``: the final answer of a partitioned query is the union
    of the rows returned by the sensitive and the non-sensitive sub-queries.
    """
    seen: Dict[int, Row] = {}
    for group in row_groups:
        for row in group:
            seen.setdefault(row.rid, row)
    return list(seen.values())
