"""Deterministic encryption (the CryptDB "DET onion" analogue).

Every occurrence of a value produces the same search tag, so the cloud can
build an equality index and answer selections without owner help — but the
ciphertexts leak the full frequency histogram of the attribute, the classic
weakness exploited by Naveed et al.'s inference attacks (paper refs [11],
[12]).  The reproduction uses this scheme as the *victim* in frequency-count
attack demonstrations and to show that QB removes the signal.
"""

from __future__ import annotations

import pickle
from typing import List, Sequence

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


class DeterministicScheme(EncryptedSearchScheme):
    """HMAC-based deterministic tagging plus probabilistic row payloads.

    The row payload itself is still probabilistically encrypted (so the cloud
    cannot read non-searched attributes); determinism is confined to the
    per-attribute search tag, mirroring how practical systems deploy DET
    encryption on selected columns.
    """

    name = "deterministic"

    #: Tags are a deterministic function of (attribute, value), so the cloud
    #: can serve searches from an exact-match tag index; the base-class
    #: ``index_key`` / ``token_index_key`` defaults (search tag / token
    #: payload) are exactly right.
    supports_tag_index = True

    def __init__(self, key: SecretKey | None = None):
        self._key = key or SecretKey.generate()
        self._row_key = self._key.derive("row")
        self._tag_key = self._key.derive("tag")

    @property
    def leakage(self) -> LeakageProfile:
        return LeakageProfile(
            name=self.name,
            leaks_output_size=True,
            leaks_frequency=True,
            leaks_order=False,
            leaks_access_pattern=True,
            deterministic=True,
        )

    def _tag_many(self, attribute: str, values: Sequence[object]) -> List[bytes]:
        """``PRF(tag_key, attribute|value)`` per value, one HMAC key schedule."""
        prefix = attribute.encode() + b"|"
        return prf_many(
            self._tag_key.material, [prefix + encode_value(value) for value in values]
        )

    # -- owner side -----------------------------------------------------------
    def encrypt_rows(self, rows: Sequence[Row], attribute: str) -> List[EncryptedRow]:
        rows = list(rows)
        payloads = [
            pickle.dumps(
                {"rid": row.rid, "values": dict(row.values), "sensitive": row.sensitive}
            )
            for row in rows
        ]
        ciphertexts = encrypt_many(self._row_key, payloads)
        tags = self._tag_many(attribute, [row[attribute] for row in rows])
        return [
            EncryptedRow(rid=row.rid, ciphertext=ciphertext, search_tag=tag)
            for row, ciphertext, tag in zip(rows, ciphertexts, tags)
        ]

    def tokens_for_values(
        self, values: Sequence[object], attribute: str
    ) -> List[SearchToken]:
        return [
            SearchToken(payload=tag) for tag in self._tag_many(attribute, values)
        ]

    def decrypt_row(self, encrypted: EncryptedRow) -> Row:
        payload = pickle.loads(aead_decrypt(self._row_key, encrypted.ciphertext))
        return Row(
            rid=payload["rid"], values=payload["values"], sensitive=payload["sensitive"]
        )

    def decrypt_rows_many(self, encrypted: Sequence[EncryptedRow]) -> List[Row]:
        return self._decrypt_row_payloads(self._row_key, encrypted)

    # -- cloud side -------------------------------------------------------------
    def search(
        self, stored: Sequence[EncryptedRow], tokens: Sequence[SearchToken]
    ) -> List[EncryptedRow]:
        wanted = {token.payload for token in tokens}
        return [row for row in stored if row.search_tag in wanted]
