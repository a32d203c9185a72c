"""The fully-encrypted baseline: no sensitivity partitioning at all.

Every tuple — sensitive or not — is encrypted with the chosen scheme and every
selection is answered by the scheme's encrypted search.  This is the
denominator of the paper's η ratio: QB is worthwhile exactly when its mixed
cleartext/encrypted execution beats this baseline.

Because pure-Python crypto timings would not be comparable to the paper's
server-grade numbers, the baseline reports both a *measured* execution (for
functional tests on small data) and a *modelled* cost derived from
:class:`~repro.model.parameters.CostParameters` (for the benchmark harness on
paper-scale tuple counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.cloud.server import CloudServer
from repro.crypto.base import EncryptedSearchScheme
from repro.data.relation import Relation, Row
from repro.exceptions import ConfigurationError
from repro.model.cost import cost_crypt
from repro.model.parameters import CostParameters
from repro.query.selection import SelectionQuery


@dataclass
class BaselineTrace:
    """Accounting for one baseline query."""

    value: object
    rows_returned: int
    tuples_scanned: int
    modelled_seconds: float


class FullEncryptionBaseline:
    """Encrypt-everything execution of selection queries."""

    def __init__(
        self,
        relation: Relation,
        attribute: str,
        scheme: EncryptedSearchScheme,
        cloud: Optional[CloudServer] = None,
        cost_parameters: Optional[CostParameters] = None,
    ):
        self.relation = relation
        self.attribute = attribute
        self.scheme = scheme
        self.cloud = cloud or CloudServer()
        self.params = cost_parameters or CostParameters.paper_defaults()
        self._outsourced = False

    def setup(self) -> "FullEncryptionBaseline":
        """Encrypt the whole relation and outsource it."""
        encrypted = self.scheme.encrypt_rows(list(self.relation.rows), self.attribute)
        self.cloud.store_sensitive({None: encrypted}, self.scheme)
        self._outsourced = True
        return self

    def query(self, value: object) -> List[Row]:
        rows, _trace = self.query_with_trace(value)
        return rows

    def query_with_trace(self, value: object) -> Tuple[List[Row], BaselineTrace]:
        """Execute one encrypted selection and return rows plus accounting."""
        if not self._outsourced:
            raise ConfigurationError("call setup() before issuing queries")
        query = SelectionQuery(self.attribute, value)
        tokens = self.scheme.tokens_for_values([value], self.attribute)
        response = self.cloud.process_request(self.attribute, [], tokens)
        rows = [
            row
            for row in self.scheme.decrypt_rows(response.encrypted_rows)
            if row[self.attribute] == query.value
        ]
        trace = BaselineTrace(
            value=value,
            rows_returned=len(rows),
            tuples_scanned=len(self.relation),
            modelled_seconds=self.modelled_query_seconds(),
        )
        return rows, trace

    def execute_workload(self, values: Iterable[object]) -> List[BaselineTrace]:
        return [self.query_with_trace(value)[1] for value in values]

    # -- analytical cost -------------------------------------------------------------
    def modelled_query_seconds(self, num_probes: int = 1) -> float:
        """Cost of ``num_probes`` encrypted selections over the whole relation."""
        return cost_crypt(num_probes, len(self.relation), self.params)
