"""Schema objects describing the attributes of a relation.

A :class:`Schema` is an ordered collection of :class:`Attribute` objects.
Schemas are deliberately lightweight: the library stores rows as mappings
from attribute name to value, and the schema is used for validation,
projection, and pretty-printing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from repro.exceptions import SchemaError, UnknownAttributeError


@dataclass(frozen=True)
class Attribute:
    """A single named attribute (column) of a relation.

    Parameters
    ----------
    name:
        Attribute name, e.g. ``"EId"``.
    dtype:
        Python type the attribute values are expected to have.  Values are
        validated against this type when rows are inserted with
        ``validate=True``.
    sensitive:
        Whether the *attribute itself* is sensitive (column-level
        sensitivity, as for ``SSN`` in the paper's Example 1).  Row-level
        sensitivity is handled separately by the partitioner.
    searchable:
        Whether the attribute may appear in selection predicates.  Query
        Binning builds bin metadata only for searchable attributes.
    """

    name: str
    dtype: type = str
    sensitive: bool = False
    searchable: bool = True

    def validate(self, value: object) -> None:
        """Raise :class:`SchemaError` when ``value`` has the wrong type.

        ``None`` is always accepted (SQL-style NULL); ints are accepted for
        float attributes.
        """
        if value is None:
            return
        if self.dtype is float and isinstance(value, int):
            return
        if not isinstance(value, self.dtype):
            raise SchemaError(
                f"attribute {self.name!r} expects {self.dtype.__name__}, "
                f"got {type(value).__name__} ({value!r})"
            )


class Schema:
    """An ordered, immutable collection of :class:`Attribute` objects."""

    def __init__(self, attributes: Iterable[Attribute]):
        attrs: Tuple[Attribute, ...] = tuple(attributes)
        names = [a.name for a in attrs]
        if len(names) != len(set(names)):
            raise SchemaError(f"duplicate attribute names in schema: {names}")
        if not attrs:
            raise SchemaError("a schema must contain at least one attribute")
        self._attributes = attrs
        self._by_name = {a.name: a for a in attrs}
        self._names = tuple(names)

    @classmethod
    def from_names(
        cls,
        names: Sequence[str],
        dtype: type = str,
        sensitive: Sequence[str] = (),
    ) -> "Schema":
        """Build a schema where every attribute shares a single ``dtype``."""
        sensitive_set = set(sensitive)
        unknown = sensitive_set - set(names)
        if unknown:
            raise SchemaError(f"sensitive attributes not in schema: {sorted(unknown)}")
        return cls(
            Attribute(name, dtype=dtype, sensitive=name in sensitive_set)
            for name in names
        )

    # -- container protocol -------------------------------------------------
    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Attribute:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownAttributeError(
                f"unknown attribute {name!r}; schema has {self.names}"
            ) from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        return f"Schema({', '.join(self.names)})"

    # -- accessors -----------------------------------------------------------
    @property
    def names(self) -> Tuple[str, ...]:
        """Attribute names in declaration order."""
        return self._names

    @property
    def attributes(self) -> Tuple[Attribute, ...]:
        return self._attributes

    @property
    def sensitive_names(self) -> Tuple[str, ...]:
        """Names of column-level sensitive attributes."""
        return tuple(a.name for a in self._attributes if a.sensitive)

    @property
    def searchable_names(self) -> Tuple[str, ...]:
        """Names of attributes that may appear in selection predicates."""
        return tuple(a.name for a in self._attributes if a.searchable)

    # -- derived schemas -----------------------------------------------------
    def project(self, names: Sequence[str]) -> "Schema":
        """Return a new schema restricted to ``names`` (in the given order)."""
        return Schema(self[name] for name in names)

    def drop(self, names: Sequence[str]) -> "Schema":
        """Return a new schema without the attributes in ``names``."""
        dropped = set(names)
        for name in dropped:
            self[name]  # raises UnknownAttributeError for bad names
        remaining = [a for a in self._attributes if a.name not in dropped]
        if not remaining:
            raise SchemaError("cannot drop every attribute of a schema")
        return Schema(remaining)

    def validate_row(self, row: "dict[str, object]") -> None:
        """Validate that ``row`` has exactly the schema's attributes."""
        keys = set(row)
        if keys != self._by_name.keys():
            raise SchemaError(
                "row keys do not match schema: "
                f"missing={sorted(self._by_name.keys() - keys)}, "
                f"extra={sorted(keys - self._by_name.keys())}"
            )
        for attribute in self._attributes:
            attribute.validate(row[attribute.name])


def common_schema(first: Schema, second: Schema) -> Optional[Schema]:
    """Return the shared schema of two relations, or ``None`` if they differ.

    Two schemas are compatible when they declare the same attribute names in
    the same order; sensitivity flags are allowed to differ (the sensitive
    partition typically keeps extra flags).
    """
    if first.names != second.names:
        return None
    return first
