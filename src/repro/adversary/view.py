"""Adversarial views (``AV = Inc ∪ Opc`` in the paper's notation).

Every query execution at the cloud produces an adversarial view: the request
that arrived (cleartext non-sensitive values, plus the *number* of encrypted
tokens — their content is opaque) and the outputs transmitted in response
(cleartext non-sensitive rows, plus the addresses of the returned encrypted
rows).  Table II, Table III, Table IV, and Table V of the paper are simply
collections of such views; the attack and audit modules consume them.

Hot-path representation
-----------------------
QB workloads are heavily repetitive: every query answered from the same bin
pair produces a view whose content differs *only* in the query id.  Building
a fresh :class:`AdversarialView` — five tuples plus a dataclass — per query
is therefore pure fixed cost on the serving path.  The log instead records
compact ``(query_id, ViewTemplate)`` pairs, where the
:class:`ViewTemplate` (everything except the query id) is interned by the
cloud per distinct request, and materialises :class:`AdversarialView`
dataclasses lazily when the adversary, auditor, or a test actually reads
them.  Recording a steady-state query is then a single list append of a
two-tuple; the information content of the log is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.data.relation import Row

#: The canonical grouping key of a view: (sorted cleartext request reprs,
#: sorted returned encrypted addresses).
RequestSignature = Tuple[Tuple[object, ...], Tuple[int, ...]]


def _signature_of(
    non_sensitive_request: Sequence[object],
    returned_sensitive_rids: Sequence[int],
) -> RequestSignature:
    return (
        tuple(sorted(map(repr, non_sensitive_request))),
        tuple(sorted(returned_sensitive_rids)),
    )


@dataclass(frozen=True)
class AdversarialView:
    """What the honest-but-curious cloud learns from one query execution.

    Attributes
    ----------
    query_id:
        Sequence number of the query (the adversary can order observations).
    attribute:
        The searched attribute (visible because the non-sensitive sub-query is
        cleartext).
    non_sensitive_request:
        The cleartext values requested from ``Rns`` (``Wns``).
    sensitive_request_size:
        How many encrypted tokens were received for ``Rs`` (|Ws| as observed;
        the tokens themselves are opaque).
    returned_non_sensitive:
        The cleartext rows returned from ``Rns``.
    returned_sensitive_rids:
        The addresses (rids) of the encrypted rows returned from ``Rs``.
    sensitive_bin_index / non_sensitive_bin_index:
        Bin identifiers *if* the adversary can infer them from repetition of
        identical request sets; populated by the cloud for convenience of the
        analysis code (the adversary could derive them itself by grouping
        identical requests).
    """

    query_id: int
    attribute: str
    non_sensitive_request: Tuple[object, ...]
    sensitive_request_size: int
    returned_non_sensitive: Tuple[Row, ...]
    returned_sensitive_rids: Tuple[int, ...]
    sensitive_bin_index: Optional[int] = None
    non_sensitive_bin_index: Optional[int] = None

    @property
    def non_sensitive_output_size(self) -> int:
        return len(self.returned_non_sensitive)

    @property
    def sensitive_output_size(self) -> int:
        return len(self.returned_sensitive_rids)

    @property
    def total_output_size(self) -> int:
        return self.non_sensitive_output_size + self.sensitive_output_size

    def request_signature(self) -> RequestSignature:
        """A canonical signature of the observed request and encrypted output.

        Two queries answered from the same pair of bins have the same
        signature; grouping by signature is how the adversary reconstructs
        bin-level structure.  The attack/audit code calls this repeatedly
        while grouping, and sorting + ``repr``-ing the same tuples every time
        is wasted work, so the signature is computed once and cached on the
        view (views materialised from a shared :class:`ViewTemplate` share
        the template's cached signature).
        """
        cached = self.__dict__.get("_signature")
        if cached is None:
            template = self.__dict__.get("_template")
            if template is not None:
                cached = template.request_signature()
            else:
                cached = _signature_of(
                    self.non_sensitive_request, self.returned_sensitive_rids
                )
            object.__setattr__(self, "_signature", cached)
        return cached

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_signature", None)
        state.pop("_template", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)


@dataclass(frozen=True)
class ViewTemplate:
    """The query-invariant content of an adversarial view.

    Everything an :class:`AdversarialView` carries except the query id.  The
    cloud interns one template per distinct request it serves (bins repeat by
    design, so view content is highly redundant) and the log stores
    ``(query_id, template)`` pairs; full view dataclasses are materialised
    only when analysis code asks for them.
    """

    attribute: str
    non_sensitive_request: Tuple[object, ...]
    sensitive_request_size: int
    returned_non_sensitive: Tuple[Row, ...]
    returned_sensitive_rids: Tuple[int, ...]
    sensitive_bin_index: Optional[int] = None
    non_sensitive_bin_index: Optional[int] = None

    @classmethod
    def of(cls, view: AdversarialView) -> "ViewTemplate":
        """The template of an already-built view (legacy ``append`` path)."""
        return cls(
            attribute=view.attribute,
            non_sensitive_request=view.non_sensitive_request,
            sensitive_request_size=view.sensitive_request_size,
            returned_non_sensitive=view.returned_non_sensitive,
            returned_sensitive_rids=view.returned_sensitive_rids,
            sensitive_bin_index=view.sensitive_bin_index,
            non_sensitive_bin_index=view.non_sensitive_bin_index,
        )

    @property
    def total_output_size(self) -> int:
        return len(self.returned_non_sensitive) + len(self.returned_sensitive_rids)

    def materialize(self, query_id: int) -> AdversarialView:
        view = AdversarialView(
            query_id=query_id,
            attribute=self.attribute,
            non_sensitive_request=self.non_sensitive_request,
            sensitive_request_size=self.sensitive_request_size,
            returned_non_sensitive=self.returned_non_sensitive,
            returned_sensitive_rids=self.returned_sensitive_rids,
            sensitive_bin_index=self.sensitive_bin_index,
            non_sensitive_bin_index=self.non_sensitive_bin_index,
        )
        # Share the signature cache across every view cut from this template.
        object.__setattr__(view, "_template", self)
        return view

    def request_signature(self) -> RequestSignature:
        """The views' grouping key, computed once per template."""
        cached = self.__dict__.get("_signature")
        if cached is None:
            cached = _signature_of(
                self.non_sensitive_request, self.returned_sensitive_rids
            )
            object.__setattr__(self, "_signature", cached)
        return cached

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_signature", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)


class _MaterializedViews:
    """Read-only, list-like facade over a :class:`ViewLog`'s records.

    Supports indexing, iteration and ``len``, materialising views on demand
    and caching them so repeated analysis passes pay the dataclass cost
    once.
    """

    __slots__ = ("_log",)

    def __init__(self, log: "ViewLog"):
        self._log = log

    def __len__(self) -> int:
        return len(self._log._records)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[AdversarialView, List[AdversarialView]]:
        if isinstance(index, slice):
            return [
                self._log._view_at(position)
                for position in range(*index.indices(len(self)))
            ]
        length = len(self)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError("view index out of range")
        return self._log._view_at(index)

    def __iter__(self) -> Iterator[AdversarialView]:
        for position in range(len(self)):
            yield self._log._view_at(position)


class ViewLog:
    """An append-only log of adversarial views with aggregate accessors.

    Internally stores compact ``(query_id, ViewTemplate)`` records (see the
    module docstring); ``views`` exposes the familiar list-like sequence of
    materialised :class:`AdversarialView` objects.
    """

    def __init__(self, views: Optional[Iterable[AdversarialView]] = None):
        self._records: List[Tuple[int, ViewTemplate]] = []
        self._materialized: Dict[int, AdversarialView] = {}
        if views:
            for view in views:
                self.append(view)

    # -- recording ---------------------------------------------------------------
    def record(self, query_id: int, template: ViewTemplate) -> None:
        """Append one observation (the near-zero-allocation hot path)."""
        self._records.append((query_id, template))

    def append(self, view: AdversarialView) -> None:
        """Append a fully-built view (compatibility / test construction)."""
        position = len(self._records)
        self._records.append((view.query_id, ViewTemplate.of(view)))
        self._materialized[position] = view

    # -- access -------------------------------------------------------------------
    @property
    def records(self) -> List[Tuple[int, ViewTemplate]]:
        """The raw (query id, template) records, in arrival order."""
        return self._records

    def records_since(self, start: int) -> List[Tuple[int, ViewTemplate]]:
        """Records appended at or after position ``start`` (member sync)."""
        return self._records[start:]

    def extend_records(
        self, records: Iterable[Tuple[int, ViewTemplate]]
    ) -> None:
        """Append already-compact records (observation sync from a worker)."""
        self._records.extend(records)

    @property
    def views(self) -> _MaterializedViews:
        return _MaterializedViews(self)

    def _view_at(self, position: int) -> AdversarialView:
        view = self._materialized.get(position)
        if view is None:
            query_id, template = self._records[position]
            view = template.materialize(query_id)
            self._materialized[position] = view
        return view

    def truncate(self, length: int) -> None:
        """Forget every record at position ``length`` or later (observation
        rollback and process-member sync)."""
        del self._records[length:]
        if self._materialized:
            for position in [p for p in self._materialized if p >= length]:
                del self._materialized[position]

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[AdversarialView]:
        for position in range(len(self._records)):
            yield self._view_at(position)

    # -- adversary-side aggregations --------------------------------------------
    #
    # Aggregations read the compact records directly: no views need to be
    # materialised to compute sizes, frequencies, or bin pairs.

    def output_sizes(self) -> List[int]:
        """Total output size per query — the signal behind the size attack."""
        return [template.total_output_size for _query_id, template in self._records]

    def sensitive_output_sizes(self) -> List[int]:
        return [
            len(template.returned_sensitive_rids)
            for _query_id, template in self._records
        ]

    def request_frequency(self) -> Dict[RequestSignature, int]:
        """How often each request signature was observed (workload skew)."""
        counts: Dict[RequestSignature, int] = {}
        for _query_id, template in self._records:
            signature = template.request_signature()
            counts[signature] = counts.get(signature, 0) + 1
        return counts

    def observed_bin_pairs(self) -> List[Tuple[int, int]]:
        """(sensitive bin, non-sensitive bin) pairs seen so far, when known."""
        pairs = []
        for _query_id, template in self._records:
            if (
                template.sensitive_bin_index is None
                or template.non_sensitive_bin_index is None
            ):
                continue
            pairs.append(
                (template.sensitive_bin_index, template.non_sensitive_bin_index)
            )
        return pairs

    def distinct_sensitive_rid_sets(self) -> List[Tuple[int, ...]]:
        """Distinct encrypted-output address sets (proxies for sensitive bins)."""
        seen: Dict[Tuple[int, ...], None] = {}
        for _query_id, template in self._records:
            seen.setdefault(template.request_signature()[1], None)
        return list(seen)

    def distinct_non_sensitive_request_sets(self) -> List[Tuple[object, ...]]:
        """Distinct cleartext request sets (proxies for non-sensitive bins)."""
        seen: Dict[Tuple[object, ...], None] = {}
        for _query_id, template in self._records:
            seen.setdefault(template.request_signature()[0], None)
        return list(seen)
