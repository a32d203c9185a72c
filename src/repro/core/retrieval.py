"""Algorithm 2 — bin retrieval (answering queries).

Given a query value ``w``, the DB owner looks ``w`` up in its bin layout and
decides which *pair* of bins to retrieve:

* **Rule R1** — if ``w`` is the ``j``-th value of sensitive bin ``i``, fetch
  sensitive bin ``i`` and non-sensitive bin ``j``;
* **Rule R2** — otherwise, if ``w`` is the ``j``-th value of non-sensitive bin
  ``i``, fetch non-sensitive bin ``i`` and sensitive bin ``j``;
* if ``w`` is in neither side, nothing needs to be retrieved.

Following these rules for *every* query — including values that exist on only
one side — is what keeps every sensitive bin associated with every
non-sensitive bin and prevents the leakage of Example 4 / Table V.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.bins import BinLayout
from repro.exceptions import BinLookupError
from repro.query.selection import BinnedQuery, SelectionQuery


@dataclass(frozen=True)
class RetrievalDecision:
    """Which bins Algorithm 2 decided to fetch for a query value."""

    query_value: object
    rule: str  # "R1", "R2", or "none"
    sensitive_bin_index: Optional[int]
    non_sensitive_bin_index: Optional[int]
    sensitive_values: Tuple[object, ...]
    non_sensitive_values: Tuple[object, ...]

    @property
    def retrieves_anything(self) -> bool:
        return self.rule != "none"

    @property
    def bin_pair(self) -> Optional[Tuple[int, int]]:
        """The (sensitive bin, non-sensitive bin) pair this decision fetches,
        or ``None`` when nothing is retrieved.

        This pair is what the adversary reconstructs by grouping identical
        requests (see :meth:`BinRetriever.associated_bin_pairs`) and what
        shard routing must never co-locate on one fleet member.
        """
        if not self.retrieves_anything:
            return None
        return (self.sensitive_bin_index, self.non_sensitive_bin_index)


class BinRetriever:
    """Owner-side implementation of Algorithm 2 over a fixed layout.

    Decisions are pure functions of (layout, value); the engine memoizes
    them with the rest of its owner memo.
    """

    def __init__(self, layout: BinLayout):
        self.layout = layout

    def retrieve(self, value: object) -> RetrievalDecision:
        """Apply rules R1/R2 to ``value`` and return the decision."""
        sensitive_location = self.layout.locate_sensitive(value)
        if sensitive_location is not None:
            bin_index, position = sensitive_location
            return self._decision(value, "R1", bin_index, position)

        non_sensitive_location = self.layout.locate_non_sensitive(value)
        if non_sensitive_location is not None:
            bin_index, position = non_sensitive_location
            return self._decision(value, "R2", position, bin_index)

        return RetrievalDecision(
            query_value=value,
            rule="none",
            sensitive_bin_index=None,
            non_sensitive_bin_index=None,
            sensitive_values=(),
            non_sensitive_values=(),
        )

    def _decision(
        self, value: object, rule: str, sensitive_index: int, non_sensitive_index: int
    ) -> RetrievalDecision:
        if sensitive_index >= self.layout.num_sensitive_bins:
            raise BinLookupError(
                f"rule {rule} points at missing sensitive bin {sensitive_index}"
            )
        if non_sensitive_index >= self.layout.num_non_sensitive_bins:
            raise BinLookupError(
                f"rule {rule} points at missing non-sensitive bin {non_sensitive_index}"
            )
        sensitive_bin = self.layout.sensitive_bin(sensitive_index)
        non_sensitive_bin = self.layout.non_sensitive_bin(non_sensitive_index)
        return RetrievalDecision(
            query_value=value,
            rule=rule,
            sensitive_bin_index=sensitive_index,
            non_sensitive_bin_index=non_sensitive_index,
            sensitive_values=sensitive_bin.values,
            non_sensitive_values=non_sensitive_bin.values,
        )

    def rewrite(self, query: SelectionQuery) -> BinnedQuery:
        """Rewrite a selection query into its binned form."""
        decision = self.retrieve(query.value)
        return BinnedQuery(
            original=query,
            sensitive_values=decision.sensitive_values,
            non_sensitive_values=decision.non_sensitive_values,
            sensitive_bin_index=decision.sensitive_bin_index,
            non_sensitive_bin_index=decision.non_sensitive_bin_index,
        )

    # -- exhaustive analysis helpers (used by the security auditor) -------------
    def all_decisions(self) -> List[RetrievalDecision]:
        """The retrieval decision for every value known to the layout."""
        decisions = []
        seen = set()
        for value in self.layout.sensitive_values + self.layout.non_sensitive_values:
            if value in seen:
                continue
            seen.add(value)
            decisions.append(self.retrieve(value))
        return decisions

    def associated_bin_pairs(self) -> Dict[Tuple[int, int], List[object]]:
        """Which (sensitive bin, non-sensitive bin) pairs answering all values
        would associate, and for which query values.

        The paper's security argument requires this map to cover *every* pair
        once all values have been queried — see
        :class:`repro.adversary.surviving_matches.SurvivingMatchAnalysis`.
        """
        pairs: Dict[Tuple[int, int], List[object]] = {}
        for decision in self.all_decisions():
            key = decision.bin_pair
            if key is None:
                continue
            pairs.setdefault(key, []).append(decision.query_value)
        return pairs
