"""Group-by aggregation over a QB-protected attribute.

The paper notes (§I, "Full version") that QB "can also be extended to support
group-by aggregation queries".  This module implements that extension for the
common case of grouping by the binned attribute: the owner enumerates the
attribute's domain from its metadata, fetches each group's rows through the
usual bin machinery (so the cloud observes nothing beyond ordinary QB
selections), and computes COUNT / SUM / AVG / MIN / MAX locally.

Because a whole bin is fetched per request, groups that share a bin pair are
answered from a single round trip; the executor caches bin-pair responses to
exploit that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.engine import QueryBinningEngine
from repro.core.retrieval import RetrievalDecision
from repro.data.relation import Row
from repro.exceptions import ConfigurationError, QueryError

SUPPORTED_FUNCTIONS = ("count", "sum", "avg", "min", "max")


@dataclass
class GroupAggregate:
    """Aggregates of one group (one distinct value of the binned attribute)."""

    group: object
    count: int
    sum: Optional[float] = None
    avg: Optional[float] = None
    min: Optional[object] = None
    max: Optional[object] = None


@dataclass
class AggregationTrace:
    """Accounting for one group-by execution."""

    groups: int
    cloud_round_trips: int
    rows_fetched: int


class GroupByAggregator:
    """Execute ``SELECT A, f(m) ... GROUP BY A`` where ``A`` is the binned attribute."""

    def __init__(self, engine: QueryBinningEngine):
        if engine.metadata is None or engine.retriever is None:
            raise ConfigurationError("the engine must be set up before aggregating")
        self.engine = engine

    def _domain(self) -> List[object]:
        metadata = self.engine.metadata
        assert metadata is not None
        values: Dict[object, None] = {}
        for value in list(metadata.sensitive_counts) + list(metadata.non_sensitive_counts):
            values.setdefault(value, None)
        return list(values)

    def aggregate(
        self,
        measure: Optional[str] = None,
        functions: Sequence[str] = ("count",),
        groups: Optional[Iterable[object]] = None,
    ) -> Tuple[List[GroupAggregate], AggregationTrace]:
        """Compute the requested aggregates for every group.

        Parameters
        ----------
        measure:
            The attribute to aggregate (required for sum/avg/min/max; COUNT
            works without it).
        functions:
            Any subset of ``count, sum, avg, min, max``.
        groups:
            Restrict to specific group values; defaults to the whole domain
            known to the owner's metadata.
        """
        unknown = [f for f in functions if f not in SUPPORTED_FUNCTIONS]
        if unknown:
            raise QueryError(f"unsupported aggregate functions: {unknown}")
        needs_measure = any(f != "count" for f in functions)
        if needs_measure and measure is None:
            raise QueryError("sum/avg/min/max aggregates need a measure attribute")

        target_groups = list(groups) if groups is not None else self._domain()
        assert self.engine.retriever is not None

        # Cache rows per (sensitive bin, non-sensitive bin) pair: groups whose
        # values share a bin pair are answered by one cloud round trip.
        pair_cache: Dict[Tuple[Optional[int], Optional[int]], List[Row]] = {}
        round_trips = 0
        rows_fetched = 0
        results: List[GroupAggregate] = []

        for group in target_groups:
            decision = self.engine.retriever.retrieve(group)
            if not decision.retrieves_anything:
                results.append(GroupAggregate(group=group, count=0))
                continue
            pair = (decision.sensitive_bin_index, decision.non_sensitive_bin_index)
            if pair not in pair_cache:
                rows = self._fetch_bin_pair(decision)
                pair_cache[pair] = rows
                round_trips += 1
                rows_fetched += len(rows)
            group_rows = [
                row for row in pair_cache[pair] if row.get(self.engine.attribute) == group
            ]
            results.append(self._aggregate_rows(group, group_rows, measure, functions))

        trace = AggregationTrace(
            groups=len(target_groups),
            cloud_round_trips=round_trips,
            rows_fetched=rows_fetched,
        )
        return results, trace

    # -- internals ------------------------------------------------------------------
    def _fetch_bin_pair(self, decision: RetrievalDecision) -> List[Row]:
        """Fetch every row of one bin pair through the engine's cloud.

        Routing through the engine's per-bin token cache and passing the bin
        indexes lets the cloud search the sensitive bin's slice instead of
        scanning the whole relation.
        """
        engine = self.engine
        tokens = engine.tokens_for_decision(decision)
        response = engine.cloud.process_request(
            engine.attribute,
            list(decision.non_sensitive_values),
            tokens,
            sensitive_bin_index=decision.sensitive_bin_index,
            non_sensitive_bin_index=decision.non_sensitive_bin_index,
        )
        sensitive_rows = engine.scheme.decrypt_rows(response.encrypted_rows)
        return sensitive_rows + list(response.non_sensitive_rows)

    def _aggregate_rows(
        self,
        group: object,
        rows: List[Row],
        measure: Optional[str],
        functions: Sequence[str],
    ) -> GroupAggregate:
        aggregate = GroupAggregate(group=group, count=len(rows))
        if measure is None or not rows:
            return aggregate
        values = [row.get(measure) for row in rows if row.get(measure) is not None]
        if not values:
            return aggregate
        if "sum" in functions or "avg" in functions:
            total = sum(values)  # type: ignore[arg-type]
            if "sum" in functions:
                aggregate.sum = total
            if "avg" in functions:
                aggregate.avg = total / len(values)
        if "min" in functions:
            aggregate.min = min(values)
        if "max" in functions:
            aggregate.max = max(values)
        return aggregate
