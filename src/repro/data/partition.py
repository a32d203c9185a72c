"""Row-level sensitivity partitioning (the paper's §II).

The trusted DB owner divides a relation ``R`` into a sensitive sub-relation
``Rs`` and a non-sensitive sub-relation ``Rns``.  Sensitivity may come from:

* a user-supplied predicate over rows (e.g. ``Dept == "Defense"``),
* an explicit set of sensitive values of some attribute,
* the per-row ``sensitive`` flag already present on the rows, or
* a column-level sensitive attribute, which is split vertically into its own
  relation (the paper's ``Employee1`` holding only ``EId, SSN``).

The result mirrors Figure 2 of the paper: ``Employee1`` (vertical split of the
sensitive columns), ``Employee2`` (sensitive rows), ``Employee3``
(non-sensitive rows).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Collection, Dict, List, Mapping, Optional, Sequence

from repro.data.relation import Relation, Row
from repro.data.schema import Schema
from repro.exceptions import PartitioningError, SchemaError


RowPredicate = Callable[[Row], bool]


# -- shard assignment ----------------------------------------------------------
#
# Horizontal sharding (spreading bins across the servers of a
# :class:`~repro.cloud.multi_cloud.MultiCloud`) needs a deterministic
# item → shard assignment.  The functions below are pure functions of their
# inputs, so re-running setup — or rebalancing onto a different server count
# — always reproduces the same placement.


def stable_item_hash(item: object) -> int:
    """A process-independent hash of ``item`` (Python's ``hash`` is salted).

    CRC32 over the ``repr`` is stable across runs and platforms, which is all
    shard routing needs — this is a placement function, not a cryptographic
    commitment.
    """
    return zlib.crc32(repr(item).encode("utf-8"))


def hash_shard_assignment(
    items: Sequence[object], num_shards: int
) -> Dict[object, int]:
    """Assign each item to ``stable_item_hash(item) % num_shards``.

    Placement of one item is independent of the rest of the item set, so
    inserts that introduce new items never move existing ones.
    """
    if num_shards < 1:
        raise PartitioningError(f"need at least one shard, got {num_shards}")
    return {item: stable_item_hash(item) % num_shards for item in items}


def rendezvous_order(item: object, members: Collection[int]) -> tuple:
    """Order ``members`` by highest-random-weight for ``item``.

    Classic rendezvous (HRW) hashing: every (item, member) pair gets an
    independent stable weight and members are ranked by descending weight, so
    each item picks its own winner and, when a member disappears, only the
    items it was winning move — spread across *all* survivors in proportion
    to their weights instead of piling onto one deterministic successor.
    The shard router uses this to order a bin's cleartext failover
    candidates; a pure function of its inputs, so any two coordinators (or
    re-runs) agree on the order.
    """
    return tuple(
        sorted(members, key=lambda member: (-stable_item_hash((item, member)), member))
    )


def replica_chain(
    primary: int, num_shards: int, replication_factor: int
) -> tuple:
    """The ordered members holding one slice under k-way replication.

    The chain is the primary followed by its successors on the member ring —
    a pure function of ``(primary, num_shards, replication_factor)``, so
    replica placement is as deterministic (and as rebuild-safe) as primary
    placement.  Keeping replicas *contiguous after the primary* is what
    lets the shard router carve the ring into a token segment and a
    cleartext segment per sensitive bin: every replica stays inside the
    token segment, so replication can never co-locate a bin's token slice
    with its paired cleartext traffic (see
    :class:`repro.cloud.multi_cloud.ShardRouter`).
    """
    if replication_factor < 1:
        raise PartitioningError(
            f"replication_factor must be at least 1, got {replication_factor}"
        )
    if replication_factor > num_shards:
        raise PartitioningError(
            f"cannot place {replication_factor} replicas on {num_shards} shards"
        )
    return tuple(
        (primary + step) % num_shards for step in range(replication_factor)
    )


@dataclass
class SensitivityPolicy:
    """Declarative description of what makes a row or a column sensitive.

    Parameters
    ----------
    row_predicate:
        Callable returning ``True`` for sensitive rows.
    sensitive_values:
        Mapping from attribute name to the collection of values whose rows
        are sensitive (e.g. ``{"Dept": {"Defense"}}``).
    sensitive_attributes:
        Column-level sensitive attributes that must be split vertically and
        always encrypted (``SSN`` in the paper).
    key_attribute:
        The attribute retained alongside vertically-split sensitive columns
        so their values can later be re-joined at the owner (``EId``).
    use_row_flags:
        Whether to honour the ``Row.sensitive`` flag in addition to the other
        criteria.
    """

    row_predicate: Optional[RowPredicate] = None
    sensitive_values: Dict[str, Collection[object]] = field(default_factory=dict)
    sensitive_attributes: Sequence[str] = ()
    key_attribute: Optional[str] = None
    use_row_flags: bool = True

    def is_sensitive_row(self, row: Row) -> bool:
        """Decide whether a single row is sensitive under this policy."""
        if self.use_row_flags and row.sensitive:
            return True
        if self.row_predicate is not None and self.row_predicate(row):
            return True
        for attribute, values in self.sensitive_values.items():
            if row.get(attribute) in values:
                return True
        return False


@dataclass
class PartitionResult:
    """Outcome of partitioning a relation under a :class:`SensitivityPolicy`.

    Rows enter a partition only through :meth:`insert` (and
    :func:`partition_relation`, which shares its per-row step), so every row
    is classified and split by the one rule the policy states.

    Attributes
    ----------
    sensitive:
        ``Rs`` — rows classified sensitive, to be encrypted before
        outsourcing.
    non_sensitive:
        ``Rns`` — rows classified non-sensitive, outsourced in cleartext.
    vertical:
        Optional vertical split of column-level sensitive attributes
        (``Employee1`` in the paper), always treated as sensitive.
    policy:
        The policy that produced the partition and classifies its inserts.
    """

    sensitive: Relation
    non_sensitive: Relation
    vertical: Optional[Relation] = None
    policy: Optional[SensitivityPolicy] = None

    def __post_init__(self) -> None:
        #: one more than the highest rid either side holds
        self._next_rid = 1 + max(
            (row.rid for part in (self.sensitive, self.non_sensitive) for row in part),
            default=-1,
        )
        #: the attributes bins can be built over; :meth:`check` refuses
        #: ``None`` for each
        self._searchable = self.sensitive.schema.searchable_names
        #: the (key, column...) tuples ``vertical`` already holds
        self._vertical_rows = set()
        if self.vertical is not None:
            names = self.vertical.schema.names
            self._vertical_rows.update(
                tuple(row[name] for name in names) for row in self.vertical
            )

    @property
    def total_rows(self) -> int:
        return len(self.sensitive) + len(self.non_sensitive)

    @property
    def sensitivity_fraction(self) -> float:
        """The paper's α restricted to row counts: |Rs| / |R|."""
        total = self.total_rows
        if total == 0:
            return 0.0
        return len(self.sensitive) / total

    def sensitive_values(self, attribute: str) -> List[object]:
        """Distinct sensitive values of ``attribute`` (QB input ``S``)."""
        return self.sensitive.distinct_values(attribute)

    def non_sensitive_values(self, attribute: str) -> List[object]:
        """Distinct non-sensitive values of ``attribute`` (QB input ``NS``)."""
        return self.non_sensitive.distinct_values(attribute)

    def insert(self, values: Mapping[str, object], sensitive: bool = False) -> Row:
        """Put one new row into the partition, exactly as
        :func:`partition_relation` would have; returns the row as stored.

        ``sensitive`` is the row's own flag, which the policy honours when
        it uses row flags.  The row gets one fresh rid, unused on either
        side, and column-level attributes go to :attr:`vertical`.  A row
        :meth:`check` refuses raises :class:`SchemaError` before anything
        is added.
        """
        row = Row(rid=self._next_rid, values=dict(values), sensitive=sensitive)
        return self._split(row)

    def check(self, values: Mapping[str, object]) -> None:
        """Refuse a row with no value for a searchable attribute: bins are
        built over those values, and ``None`` marks an empty bin slot."""
        for name in self._searchable:
            if name in values and values[name] is None:
                raise SchemaError(f"a row needs a value for {name!r}")

    def _split(self, row: Row) -> Row:
        """The per-row step: check ``row``, classify it under the policy,
        move its column-level attributes to :attr:`vertical`, and add the
        rest to ``Rs`` or ``Rns`` under the row's rid."""
        self.check(row.values)
        sensitive = (self.policy or SensitivityPolicy()).is_sensitive_row(row)
        kept = {name: row[name] for name in self.sensitive.schema.names}
        vertical = None
        if self.vertical is not None:
            vertical = tuple(row[name] for name in self.vertical.schema.names)
        stored = Row(rid=row.rid, values=kept, sensitive=sensitive)
        (self.sensitive if sensitive else self.non_sensitive)._add_row(
            stored, validate=False
        )
        self._next_rid = max(self._next_rid, row.rid + 1)
        if vertical is not None and vertical not in self._vertical_rows:
            self._vertical_rows.add(vertical)
            self.vertical.insert(
                dict(zip(self.vertical.schema.names, vertical)),
                sensitive=True,
                validate=False,
            )
        return stored


def partition_relation(
    relation: Relation,
    policy: SensitivityPolicy,
    sensitive_name: Optional[str] = None,
    non_sensitive_name: Optional[str] = None,
) -> PartitionResult:
    """Split ``relation`` into sensitive and non-sensitive sub-relations.

    The horizontal split preserves row identifiers so that the adversary's
    view of returned encrypted tuples matches the paper's ``E(t_i)``
    notation.  When the policy names column-level sensitive attributes, those
    columns are removed from both horizontal partitions and placed in a
    separate, always-sensitive vertical relation together with the policy's
    ``key_attribute``.  Each row goes through the same per-row step as
    :meth:`PartitionResult.insert`.
    """
    sensitive_name = sensitive_name or f"{relation.name}_sensitive"
    non_sensitive_name = non_sensitive_name or f"{relation.name}_non_sensitive"

    horizontal_schema = relation.schema
    drop = [a for a in policy.sensitive_attributes if a in relation.schema]
    if drop:
        horizontal_schema = relation.schema.drop(drop)

    result = PartitionResult(
        sensitive=Relation(sensitive_name, horizontal_schema),
        non_sensitive=Relation(non_sensitive_name, horizontal_schema),
        vertical=_vertical_relation(relation, policy),
        policy=policy,
    )
    for row in relation:
        result._split(row)
    return result


def _vertical_relation(
    relation: Relation, policy: SensitivityPolicy
) -> Optional[Relation]:
    """The empty vertical relation of column-level sensitive attributes."""
    columns = [a for a in policy.sensitive_attributes if a in relation.schema]
    if not columns:
        return None
    key = policy.key_attribute
    if key is None:
        raise PartitioningError(
            "a key_attribute is required when sensitive_attributes are declared"
        )
    if key not in relation.schema:
        raise PartitioningError(f"key attribute {key!r} not in schema")
    projected_names = [key] + [c for c in columns if c != key]
    schema = relation.schema.project(projected_names)
    return Relation(f"{relation.name}_vertical", schema)


def partition_by_fraction(
    relation: Relation,
    attribute: str,
    sensitivity_fraction: float,
    name_prefix: Optional[str] = None,
) -> PartitionResult:
    """Partition ``relation`` so that roughly ``sensitivity_fraction`` of the
    *distinct values* of ``attribute`` (and all their rows) are sensitive.

    This is the knob the paper's experiments sweep (α ∈ {1 %, 5 %, ... 60 %}).
    Values are taken in first-appearance order, which keeps the construction
    deterministic for reproducible benchmarks.
    """
    if not 0.0 <= sensitivity_fraction <= 1.0:
        raise PartitioningError(
            f"sensitivity_fraction must be in [0, 1], got {sensitivity_fraction}"
        )
    values = relation.distinct_values(attribute)
    cutoff = int(round(len(values) * sensitivity_fraction))
    sensitive_values = set(values[:cutoff])
    policy = SensitivityPolicy(sensitive_values={attribute: sensitive_values})
    prefix = name_prefix or relation.name
    return partition_relation(
        relation,
        policy,
        sensitive_name=f"{prefix}_s",
        non_sensitive_name=f"{prefix}_ns",
    )
