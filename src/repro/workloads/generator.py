"""Synthetic dataset generators.

The experiments need datasets where four knobs can be turned independently:

* the number of distinct values and total tuples,
* the sensitivity fraction α (how many values / tuples are sensitive),
* the multiplicity distribution (uniform counts → the base case; Zipf-skewed
  counts → the general case that needs fake tuples),
* the association fraction (how many sensitive values also appear on the
  non-sensitive side).

:func:`generate_partitioned_dataset` builds a relation with those properties
and partitions it, returning a :class:`SyntheticDataset` ready to feed into a
:class:`~repro.core.engine.QueryBinningEngine`.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.data.partition import PartitionResult, SensitivityPolicy, partition_relation
from repro.data.relation import Relation
from repro.data.schema import Attribute, Schema
from repro.exceptions import ConfigurationError


def derive_stream_seed(seed: int, stream: str) -> int:
    """An independent RNG seed for one named stream of a generation run.

    Every optional knob of the generator (the insert stream today, future
    interleavings) draws from its *own* ``random.Random`` seeded by this
    derivation instead of sharing one generator.  Sharing is the classic
    determinism bug: with a single ``random.Random(seed)`` feeding every
    stream, merely *enabling* one knob shifts the shared generator's state
    and silently reshuffles every other stream — the "same seed" dataset is
    no longer the same.  Deriving per-stream seeds makes each stream a pure
    function of ``(seed, stream name)``, so knobs compose without
    perturbing each other.
    """
    digest = hashlib.sha256(f"{seed}:{stream}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class SyntheticDataset:
    """A generated relation, its partition, and the ground truth behind it."""

    relation: Relation
    partition: PartitionResult
    attribute: str
    sensitive_counts: Dict[object, int]
    non_sensitive_counts: Dict[object, int]
    #: optional insert workload rows (``insert_count`` knob): ``(values,
    #: sensitive)`` pairs of brand-new attribute values, ready for
    #: ``engine.insert(partition.insert(values, sensitive))``, which places
    #: each new value or rebins.  Generated from an independently derived
    #: stream seed, so requesting inserts never perturbs the base dataset
    #: for the same ``seed``.
    insert_stream: List[Tuple[Dict[str, str], bool]] = field(default_factory=list)

    @property
    def total_tuples(self) -> int:
        return len(self.relation)

    @property
    def alpha(self) -> float:
        sensitive = sum(self.sensitive_counts.values())
        total = sensitive + sum(self.non_sensitive_counts.values())
        return sensitive / total if total else 0.0

    @property
    def all_values(self) -> List[object]:
        seen: Dict[object, None] = {}
        for value in list(self.sensitive_counts) + list(self.non_sensitive_counts):
            seen.setdefault(value, None)
        return list(seen)


def uniform_counts(num_values: int, tuples_per_value: int = 1, prefix: str = "v") -> Dict[str, int]:
    """``num_values`` distinct values, each with the same multiplicity."""
    if num_values < 0 or tuples_per_value < 0:
        raise ConfigurationError("counts must be non-negative")
    return {f"{prefix}{index}": tuples_per_value for index in range(num_values)}


def zipf_counts(
    num_values: int,
    total_tuples: int,
    exponent: float = 1.0,
    prefix: str = "v",
) -> Dict[str, int]:
    """A Zipf-skewed multiplicity assignment over ``num_values`` values.

    Every value receives at least one tuple; the remainder is distributed
    proportionally to ``rank ** -exponent``.
    """
    if num_values <= 0:
        raise ConfigurationError("need at least one value")
    if total_tuples < num_values:
        raise ConfigurationError("total_tuples must be at least num_values")
    weights = [(rank + 1) ** -exponent for rank in range(num_values)]
    weight_sum = sum(weights)
    remaining = total_tuples - num_values
    counts = {}
    assigned = 0
    for index, weight in enumerate(weights):
        extra = int(remaining * weight / weight_sum)
        counts[f"{prefix}{index}"] = 1 + extra
        assigned += extra
    # distribute rounding leftovers to the heaviest values
    leftover = remaining - assigned
    for index in range(leftover):
        counts[f"{prefix}{index % num_values}"] += 1
    return counts


def generate_query_stream(
    values: Sequence[object],
    num_queries: int,
    mix: str = "uniform",
    zipf_exponent: float = 1.0,
    hot_fraction: float = 0.1,
    hot_weight: float = 0.9,
    seed: int = 7,
) -> List[object]:
    """A deterministic stream of query values over ``values``.

    Mixes
    -----
    ``"uniform"``
        Every value equally likely — the base case the earlier benchmarks
        measured.
    ``"zipf"``
        Value at rank *r* (in the order given) drawn with probability
        ∝ ``(r + 1) ** -zipf_exponent`` — the skewed workload whose
        frequency signal QB is designed to hide.
    ``"hotkey"``
        The first ``hot_fraction`` of the values receive ``hot_weight`` of
        the probability mass collectively; the rest share the remainder.
        Models a cache-friendly "working set" workload.

    The stream is a pure function of ``(seed, mix)`` via
    :func:`derive_stream_seed`, so switching mixes (or generating an insert
    stream from the same seed) never reshuffles another stream.
    """
    if num_queries < 0:
        raise ConfigurationError("num_queries must be non-negative")
    if not values:
        raise ConfigurationError("need at least one value to query")
    if mix == "uniform":
        weights = [1.0] * len(values)
    elif mix == "zipf":
        weights = [(rank + 1) ** -zipf_exponent for rank in range(len(values))]
    elif mix == "hotkey":
        if not 0.0 < hot_fraction <= 1.0:
            raise ConfigurationError("hot_fraction must be in (0, 1]")
        if not 0.0 <= hot_weight <= 1.0:
            raise ConfigurationError("hot_weight must be in [0, 1]")
        hot_count = max(1, int(len(values) * hot_fraction))
        cold_count = len(values) - hot_count
        if cold_count == 0:
            weights = [1.0] * len(values)
        else:
            weights = [hot_weight / hot_count] * hot_count + [
                (1.0 - hot_weight) / cold_count
            ] * cold_count
    else:
        raise ConfigurationError(f"unknown query mix {mix!r}")
    rng = random.Random(derive_stream_seed(seed, f"queries|{mix}"))
    return rng.choices(list(values), weights=weights, k=num_queries)


def interleave_operations(
    queries: Sequence[object],
    inserts: Sequence[object],
    seed: int = 7,
) -> List[Tuple[str, object]]:
    """Merge a query stream and an insert stream into one operation stream.

    Returns ``("query", item)`` / ``("insert", item)`` pairs.  The merge is
    a weighted random shuffle that preserves each stream's internal order
    (each next operation is drawn from the remaining streams proportionally
    to how many operations they still hold), seeded independently via
    :func:`derive_stream_seed` so the same ``seed`` always yields the same
    interleaving regardless of how the two input streams were generated.
    """
    rng = random.Random(derive_stream_seed(seed, "interleave"))
    merged: List[Tuple[str, object]] = []
    query_index = 0
    insert_index = 0
    remaining_queries = len(queries)
    remaining_inserts = len(inserts)
    while remaining_queries or remaining_inserts:
        if rng.randrange(remaining_queries + remaining_inserts) < remaining_queries:
            merged.append(("query", queries[query_index]))
            query_index += 1
            remaining_queries -= 1
        else:
            merged.append(("insert", inserts[insert_index]))
            insert_index += 1
            remaining_inserts -= 1
    return merged


def generate_partitioned_dataset(
    num_values: int = 100,
    sensitivity_fraction: float = 0.2,
    association_fraction: float = 0.5,
    tuples_per_value: int = 1,
    skew_exponent: Optional[float] = None,
    seed: int = 7,
    attribute: str = "key",
    extra_attributes: Sequence[str] = ("payload",),
    insert_count: int = 0,
) -> SyntheticDataset:
    """Generate a partitioned synthetic dataset.

    Parameters
    ----------
    num_values:
        Number of distinct values of the searchable attribute.
    sensitivity_fraction:
        Fraction of distinct values whose tuples are sensitive (α over values).
    association_fraction:
        Fraction of *sensitive* values that also have non-sensitive tuples
        (the associated values of §IV).
    tuples_per_value:
        Multiplicity for the uniform (base) case; ignored when
        ``skew_exponent`` is given.
    skew_exponent:
        When set, multiplicities follow a Zipf distribution with this
        exponent and roughly ``num_values * tuples_per_value`` total tuples.
    seed:
        RNG seed; generation is fully deterministic for a given seed.
    insert_count:
        When positive, also generate that many brand-new values as an
        insert workload (``dataset.insert_stream``), each row flagged
        sensitive with probability ``sensitivity_fraction``.

    Each stream of randomness draws from its own generator seeded by
    :func:`derive_stream_seed`, so turning a knob on (e.g. ``insert_count``)
    never reshuffles the base dataset produced for the same ``seed``.  The
    value-shuffle stream keeps the historical direct ``Random(seed)``
    seeding, pinning every dataset (and the traces derived from it) that
    existing tests and committed benchmarks depend on.
    """
    if not 0.0 <= sensitivity_fraction <= 1.0:
        raise ConfigurationError("sensitivity_fraction must be in [0, 1]")
    if not 0.0 <= association_fraction <= 1.0:
        raise ConfigurationError("association_fraction must be in [0, 1]")
    if insert_count < 0:
        raise ConfigurationError("insert_count must be non-negative")
    rng = random.Random(seed)  # the legacy value-shuffle stream (pinned)

    values = [f"v{index:06d}" for index in range(num_values)]
    rng.shuffle(values)
    num_sensitive = int(round(num_values * sensitivity_fraction))
    sensitive_values = values[:num_sensitive]
    non_sensitive_only = values[num_sensitive:]
    num_associated = int(round(len(sensitive_values) * association_fraction))
    associated_values = sensitive_values[:num_associated]

    if skew_exponent is None:
        multiplicity = {value: max(1, tuples_per_value) for value in values}
    else:
        total = num_values * max(1, tuples_per_value)
        skewed = zipf_counts(num_values, total, exponent=skew_exponent)
        multiplicity = {value: count for value, count in zip(values, skewed.values())}

    schema = Schema(
        [Attribute(attribute, dtype=str)]
        + [Attribute(name, dtype=str) for name in extra_attributes]
    )
    relation = Relation("synthetic", schema)
    sensitive_counts: Dict[object, int] = {}
    non_sensitive_counts: Dict[object, int] = {}

    def make_row(value: str, marker: str, index: int) -> Dict[str, str]:
        row = {attribute: value}
        for name in extra_attributes:
            row[name] = f"{marker}-{name}-{value}-{index}"
        return row

    for value in sensitive_values:
        count = multiplicity[value]
        for index in range(count):
            relation.insert(make_row(value, "s", index), sensitive=True, validate=False)
        sensitive_counts[value] = count

    for value in associated_values:
        count = multiplicity[value]
        for index in range(count):
            relation.insert(make_row(value, "ns", index), sensitive=False, validate=False)
        non_sensitive_counts[value] = count

    for value in non_sensitive_only:
        count = multiplicity[value]
        for index in range(count):
            relation.insert(make_row(value, "ns", index), sensitive=False, validate=False)
        non_sensitive_counts[value] = count

    insert_stream: List[Tuple[Dict[str, str], bool]] = []
    if insert_count:
        insert_rng = random.Random(derive_stream_seed(seed, "inserts"))
        for index in range(insert_count):
            value = f"x{index:06d}"  # disjoint from the v* base values
            sensitive = insert_rng.random() < sensitivity_fraction
            insert_stream.append(
                (make_row(value, "s" if sensitive else "ns", 0), sensitive)
            )
        insert_rng.shuffle(insert_stream)

    policy = SensitivityPolicy(use_row_flags=True)
    partition = partition_relation(relation, policy)
    return SyntheticDataset(
        relation=relation,
        partition=partition,
        attribute=attribute,
        sensitive_counts=sensitive_counts,
        non_sensitive_counts=non_sensitive_counts,
        insert_stream=insert_stream,
    )
