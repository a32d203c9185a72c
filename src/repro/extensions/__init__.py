"""Extensions described in the paper's full version (§I "Full version").

The conference paper defers several capabilities to its technical report:
range queries, equi-joins over the binned attribute, inserts, and
multi-attribute (column-level) search.  These modules implement practical
versions of range queries, joins, multi-attribute search and grouped
aggregation on top of the core QB engine.  Inserts are core:
:meth:`~repro.data.partition.PartitionResult.insert` splits a row under the
policy and :meth:`~repro.core.engine.QueryBinningEngine.insert` places its
value in the bins, rebinning when no slot is free.
"""

from repro.extensions.range_queries import RangeQueryExecutor
from repro.extensions.joins import BinnedJoinExecutor
from repro.extensions.multi_attribute import MultiAttributeEngine
from repro.extensions.aggregation import GroupByAggregator

__all__ = [
    "RangeQueryExecutor",
    "BinnedJoinExecutor",
    "MultiAttributeEngine",
    "GroupByAggregator",
]
