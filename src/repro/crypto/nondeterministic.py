"""Non-deterministic (probabilistic) row encryption.

This is the scheme the paper assumes protects the sensitive relation by
default: ciphertext indistinguishability means two occurrences of the same
value (e.g. ``E152`` in Example 1) have different ciphertexts, so the cloud
cannot match values on its own.

Search therefore works the way the paper's experimental section describes for
the "No-Ind" systems: the DB owner resolves the bin's values to tuple
addresses using its own metadata (built at encryption time), sends the
addresses, and the cloud returns the ciphertexts stored at those addresses.
The adversary consequently observes only (a) how many addresses were probed
and (b) which ciphertexts were returned — the access pattern — which is the
adversarial view QB is designed to neutralise.
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


def _address_list() -> "defaultdict[object, List[int]]":
    """Module-level factory so scheme instances stay picklable.

    Process-backed fleet members receive their scheme copy over a pipe; a
    ``defaultdict(lambda: ...)`` would make every instance unpicklable.
    """
    return defaultdict(list)


class NonDeterministicScheme(EncryptedSearchScheme):
    """AES-GCM (or HMAC-stream fallback) probabilistic row encryption.

    Parameters
    ----------
    key:
        The owner's secret key; derived sub-keys are used for row encryption
        and address blinding.
    """

    name = "non-deterministic"

    #: Search resolves tokens to tuple addresses, so the cloud can keep an
    #: address → row index instead of scanning (the index reveals nothing
    #: beyond the rids the adversary already observes as the access pattern).
    supports_tag_index = True

    def __init__(self, key: SecretKey | None = None):
        self._key = key or SecretKey.generate()
        self._row_key = self._key.derive("row")
        self._addr_key = self._key.derive("addr")
        # Owner-side metadata: attribute -> value -> [rid, ...]
        self._address_book: Dict[str, Dict[object, List[int]]] = defaultdict(
            _address_list
        )

    @property
    def leakage(self) -> LeakageProfile:
        return LeakageProfile(
            name=self.name,
            leaks_output_size=True,
            leaks_frequency=False,
            leaks_order=False,
            leaks_access_pattern=True,
            deterministic=False,
        )

    # -- owner side -----------------------------------------------------------
    def encrypt_rows(self, rows: Sequence[Row], attribute: str) -> List[EncryptedRow]:
        rows = list(rows)
        payloads: List[bytes] = []
        book = self._address_book[attribute]
        for row in rows:
            payloads.append(
                pickle.dumps(
                    {
                        "rid": row.rid,
                        "values": dict(row.values),
                        "sensitive": row.sensitive,
                    }
                )
            )
            book[row[attribute]].append(row.rid)
        ciphertexts = encrypt_many(self._row_key, payloads)
        return [
            EncryptedRow(rid=row.rid, ciphertext=ciphertext, search_tag=b"")
            for row, ciphertext in zip(rows, ciphertexts)
        ]

    def tokens_for_values(
        self, values: Sequence[object], attribute: str
    ) -> List[SearchToken]:
        """Resolve values to blinded address tokens using owner metadata."""
        book = self._address_book.get(attribute, {})
        rids = [rid for value in values for rid in book.get(value, [])]
        blinded_many = prf_many(
            self._addr_key.material, [encode_value(rid) for rid in rids]
        )
        return [
            SearchToken(payload=blinded, hint=rid)
            for blinded, rid in zip(blinded_many, rids)
        ]

    def decrypt_row(self, encrypted: EncryptedRow) -> Row:
        payload = pickle.loads(aead_decrypt(self._row_key, encrypted.ciphertext))
        return Row(
            rid=payload["rid"], values=payload["values"], sensitive=payload["sensitive"]
        )

    def decrypt_rows_many(self, encrypted: Sequence[EncryptedRow]) -> List[Row]:
        return self._decrypt_row_payloads(self._row_key, encrypted)

    # -- cloud side -------------------------------------------------------------
    def index_key(self, row: EncryptedRow) -> bytes:
        """Index rows by tuple address (the ``hint`` tokens carry)."""
        return encode_value(row.rid)

    def token_index_key(self, token: SearchToken) -> bytes | None:
        return encode_value(token.hint) if token.hint is not None else None

    def search(
        self, stored: Sequence[EncryptedRow], tokens: Sequence[SearchToken]
    ) -> List[EncryptedRow]:
        """Return the ciphertexts at the requested (blinded) addresses."""
        wanted = {token.hint for token in tokens if token.hint is not None}
        return [row for row in stored if row.rid in wanted]

    # -- maintenance --------------------------------------------------------------
    def forget_metadata(self, attribute: str) -> None:
        """Drop the owner's address book for ``attribute`` (testing hook)."""
        self._address_book.pop(attribute, None)

    def known_values(self, attribute: str) -> List[object]:
        """Values for which the owner holds address metadata."""
        return list(self._address_book.get(attribute, {}))
