"""Arx-style indexable encryption (paper §VI).

Arx encrypts the *i*-th occurrence of a value ``v`` as a deterministic
function of the pair ``(v, i)``, so no two ciphertexts are equal and the
stored data leaks no frequencies, yet the cloud can still build an exact-match
index over the tags.  To query, the DB owner — who keeps the per-value
occurrence counters — generates the tags for every occurrence of the wanted
value and probes the index.

On its own the technique leaks the output size, the query's frequency-count
(the number of probes equals the value's multiplicity), and the workload skew.
The paper's §VI shows that wrapping it in QB removes those signals; the
security benchmarks reproduce that claim.
"""

from __future__ import annotations

import pickle
from collections import defaultdict
from typing import Dict, List, Sequence

from repro.crypto.base import (
    EncryptedRow,
    EncryptedSearchScheme,
    LeakageProfile,
    SearchToken,
)
from repro.crypto.primitives import (
    SecretKey,
    aead_decrypt,
    encode_value,
    encrypt_many,
    prf_many,
)
from repro.data.relation import Row


def _occurrence_counter() -> "defaultdict[object, int]":
    """Module-level factory so scheme instances stay picklable.

    Process-backed fleet members receive their scheme copy over a pipe; a
    ``defaultdict(lambda: ...)`` would make every Arx instance unpicklable.
    """
    return defaultdict(int)


class ArxIndexScheme(EncryptedSearchScheme):
    """Counter-based indexable encryption with owner-side occurrence counters."""

    name = "arx-index"

    #: Relative search-cost factor vs cleartext (the paper measures β ≈ 1.4-2.5
    #: for Arx because the cloud uses a regular index).
    beta_estimate = 2.0

    def __init__(self, key: SecretKey | None = None):
        self._key = key or SecretKey.generate()
        self._row_key = self._key.derive("row")
        self._tag_key = self._key.derive("tag")
        # Owner-side metadata: attribute -> value -> number of occurrences seen.
        self._counters: Dict[str, Dict[object, int]] = defaultdict(
            _occurrence_counter
        )

    @property
    def leakage(self) -> LeakageProfile:
        return LeakageProfile(
            name=self.name,
            leaks_output_size=True,
            leaks_frequency=False,  # not at rest; only at query time
            leaks_order=False,
            leaks_access_pattern=True,
            deterministic=False,
        )

    def _tag_material(self, attribute: str, value: object, occurrence: int) -> bytes:
        """The PRF input of an occurrence tag: ``attribute|value|occ8``."""
        return (
            attribute.encode()
            + b"|"
            + encode_value(value)
            + b"|"
            + occurrence.to_bytes(8, "big")
        )

    # -- owner side -------------------------------------------------------------
    def encrypt_rows(self, rows: Sequence[Row], attribute: str) -> List[EncryptedRow]:
        rows = list(rows)
        counters = self._counters[attribute]
        materials: List[bytes] = []
        payloads: List[bytes] = []
        for row in rows:
            value = row[attribute]
            occurrence = counters[value]
            counters[value] = occurrence + 1
            materials.append(self._tag_material(attribute, value, occurrence))
            payloads.append(
                pickle.dumps(
                    {
                        "rid": row.rid,
                        "values": dict(row.values),
                        "sensitive": row.sensitive,
                    }
                )
            )
        ciphertexts = encrypt_many(self._row_key, payloads)
        tags = prf_many(self._tag_key.material, materials)
        return [
            EncryptedRow(rid=row.rid, ciphertext=ciphertext, search_tag=tag)
            for row, ciphertext, tag in zip(rows, ciphertexts, tags)
        ]

    def tokens_for_values(
        self, values: Sequence[object], attribute: str
    ) -> List[SearchToken]:
        """Generate one token per stored occurrence of each requested value."""
        counters = self._counters.get(attribute, {})
        materials: List[bytes] = []
        hints: List[int] = []
        for value in values:
            for occurrence in range(counters.get(value, 0)):
                materials.append(self._tag_material(attribute, value, occurrence))
                hints.append(occurrence)
        return [
            SearchToken(payload=payload, hint=hint)
            for payload, hint in zip(prf_many(self._tag_key.material, materials), hints)
        ]

    def decrypt_row(self, encrypted: EncryptedRow) -> Row:
        payload = pickle.loads(aead_decrypt(self._row_key, encrypted.ciphertext))
        return Row(
            rid=payload["rid"], values=payload["values"], sensitive=payload["sensitive"]
        )

    def decrypt_rows_many(self, encrypted: Sequence[EncryptedRow]) -> List[Row]:
        return self._decrypt_row_payloads(self._row_key, encrypted)

    # -- cloud side ----------------------------------------------------------------
    def search(
        self, stored: Sequence[EncryptedRow], tokens: Sequence[SearchToken]
    ) -> List[EncryptedRow]:
        """The stored rows whose occurrence tag a token names, in storage
        order (one tag-set filter, as the deterministic scheme does)."""
        wanted = {token.payload for token in tokens}
        return [row for row in stored if row.search_tag in wanted]

    # -- metadata accessors -----------------------------------------------------
    def occurrence_count(self, attribute: str, value: object) -> int:
        """The owner's histogram entry for ``value`` (metadata size driver)."""
        return self._counters.get(attribute, {}).get(value, 0)
