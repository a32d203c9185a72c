"""``qmerge`` — merging of partitioned query results at the DB owner.

The cloud returns (a) decrypted-at-owner sensitive rows matching ``Ws`` and
(b) cleartext non-sensitive rows matching ``Wns``.  Both sets are supersets of
what the user asked for (they match a whole bin), so the owner must filter
them back down to the original predicate before unioning.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.data.relation import Row, union_rows
from repro.query.selection import SelectionQuery


def filter_rows(rows: Iterable[Row], query: SelectionQuery) -> List[Row]:
    """Keep only the rows that satisfy the original query predicate."""
    return [row for row in rows if row.get(query.attribute) == query.value]


def group_rows_by_value(rows: Iterable[Row], attribute: str) -> Dict[object, List[Row]]:
    """Index a bin's rows by attribute value, preserving bin order per value.

    One grouping pass over a bin answers every later predicate against that
    bin with a dict probe, replacing the per-query linear rescan
    :func:`filter_rows` performs — the owner-side merge hot loop under
    skewed workloads, where many queries land on the same (large) bin.
    ``grouped.get(value, [])`` returns exactly what
    ``filter_rows(rows, query)`` would, in the same order.
    """
    grouped: Dict[object, List[Row]] = {}
    for row in rows:
        # row.values.get == row.get (see Row.get); inlined because this loop
        # touches every row of every bin the workload lands on
        grouped.setdefault(row.values.get(attribute), []).append(row)
    return grouped


def project_rows(rows: Iterable[Row], projection: Optional[Sequence[str]]) -> List[Row]:
    """Apply the query's projection, if any."""
    if projection is None:
        return list(rows)
    return [row.project(projection) for row in rows]


def merge_results(
    query: SelectionQuery,
    sensitive_rows: Iterable[Row],
    non_sensitive_rows: Iterable[Row],
    already_filtered: bool = False,
) -> List[Row]:
    """Implement ``q(R) = qmerge(q(Rs), q(Rns))``.

    Parameters
    ----------
    query:
        The original user query ``q(w)``.
    sensitive_rows:
        Rows recovered (decrypted) from the sensitive sub-query.
    non_sensitive_rows:
        Cleartext rows returned by the non-sensitive sub-query.
    already_filtered:
        Set to ``True`` when the inputs already satisfy the exact predicate
        (e.g. in the naive, non-binned execution); bin-expanded results must
        be post-filtered.
    """
    if not already_filtered:
        sensitive_rows = filter_rows(sensitive_rows, query)
        non_sensitive_rows = filter_rows(non_sensitive_rows, query)
    merged = union_rows(sensitive_rows, non_sensitive_rows)
    return project_rows(merged, query.projection)
