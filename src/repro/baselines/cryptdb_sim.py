"""A CryptDB-style deterministic-encryption store.

CryptDB's DET onion (and any deterministic or order-preserving layer) lets the
cloud answer equality selections directly over ciphertexts, but equal
plaintexts map to equal ciphertexts, so the cloud sees the full frequency
histogram of the column — the leak behind the Naveed et al. inference attacks
the paper cites ([11], [12]).

This baseline outsources an *entire* relation under
:class:`~repro.crypto.deterministic.DeterministicScheme` and is used by the
security experiments as the frequency-count-attack victim, contrasted with the
same data protected by QB over a non-deterministic scheme.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.adversary.attacks import AttackOutcome, frequency_count_attack
from repro.cloud.server import CloudServer
from repro.crypto.base import EncryptedRow
from repro.crypto.deterministic import DeterministicScheme
from repro.data.relation import Relation, Row
from repro.exceptions import ConfigurationError


class DeterministicStoreBaseline:
    """Outsource everything under deterministic encryption; query by tag."""

    def __init__(
        self,
        relation: Relation,
        attribute: str,
        scheme: Optional[DeterministicScheme] = None,
        cloud: Optional[CloudServer] = None,
    ):
        self.relation = relation
        self.attribute = attribute
        self.scheme = scheme or DeterministicScheme()
        self.cloud = cloud or CloudServer()
        self._outsourced = False

    def setup(self) -> "DeterministicStoreBaseline":
        encrypted = self.scheme.encrypt_rows(list(self.relation.rows), self.attribute)
        self.cloud.store_sensitive({None: encrypted}, self.scheme)
        self._outsourced = True
        return self

    def query(self, value: object) -> List[Row]:
        """Equality selection answered entirely by ciphertext-tag matching."""
        if not self._outsourced:
            raise ConfigurationError("call setup() before issuing queries")
        tokens = self.scheme.tokens_for_values([value], self.attribute)
        response = self.cloud.process_request(self.attribute, [], tokens)
        return self.scheme.decrypt_rows(response.encrypted_rows)

    def execute_workload(self, values: Iterable[object]) -> int:
        """Run a workload; returns the number of queries executed."""
        count = 0
        for value in values:
            self.query(value)
            count += 1
        return count

    # -- what the adversary gets -------------------------------------------------
    def stored_ciphertexts(self) -> Tuple[EncryptedRow, ...]:
        return self.cloud.stored_encrypted_rows

    def run_frequency_attack(self) -> AttackOutcome:
        """Mount the frequency-count attack against the stored ciphertexts."""
        true_counts = dict(self.relation.value_counts(self.attribute))
        return frequency_count_attack(self.stored_ciphertexts(), true_counts)
