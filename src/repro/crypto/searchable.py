"""Searchable symmetric encryption (SSE) in the style of Song-Wagner-Perrig.

Ciphertexts are probabilistic at rest (per-row nonces), so the stored data
does not leak frequencies.  A search token for a value lets the cloud test
every stored row for a match, revealing — per query — which rows matched
(access pattern) and how many (output size), and repeated queries for the
same value produce the same token (workload-skew signal).
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
    NONCE_BYTES,
    SecretKey,
    aead_decrypt,
    constant_time_equals,
    encode_value,
    encrypt_many,
    hmac_template,
    prf_many,
    random_bytes,
)
from repro.data.relation import Row
from repro.exceptions import CryptoError


class SSEScheme(EncryptedSearchScheme):
    """Token-tested searchable encryption.

    Each stored row carries ``nonce || PRF(token_v, nonce)`` for its value of
    the searched attribute, where ``token_v = PRF(k, v)``.  The cloud matches
    a query token by recomputing the PRF over each stored nonce.
    """

    name = "sse"

    #: Tags embed a per-row nonce, so the cloud cannot index them: matching
    #: requires recomputing the PRF per (row, token) pair.  Under QB the
    #: cloud's bin-addressed store confines that trial-testing to one bin.
    supports_tag_index = False

    def __init__(self, key: SecretKey | None = None):
        self._key = key or SecretKey.generate()
        self._row_key = self._key.derive("row")
        self._token_key = self._key.derive("token")

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

    # -- owner side -------------------------------------------------------------
    def encrypt_rows(self, rows: Sequence[Row], attribute: str) -> List[EncryptedRow]:
        rows = list(rows)
        payloads = [
            pickle.dumps(
                {"rid": row.rid, "values": dict(row.values), "sensitive": row.sensitive}
            )
            for row in rows
        ]
        ciphertexts = encrypt_many(self._row_key, payloads)
        # One value token per *distinct* value (hot-key batches repeat
        # values), then one HMAC template per token: tagging a row costs a
        # state copy over its nonce instead of two key schedules.
        prefix = attribute.encode() + b"|"
        distinct = {row[attribute]: None for row in rows}
        value_tokens = prf_many(
            self._token_key.material,
            [prefix + encode_value(value) for value in distinct],
        )
        templates = {
            value: hmac_template(token)
            for value, token in zip(distinct, value_tokens)
        }
        nonces = random_bytes(NONCE_BYTES * len(rows))
        encrypted: List[EncryptedRow] = []
        append = encrypted.append
        offset = 0
        for row, ciphertext in zip(rows, ciphertexts):
            nonce = nonces[offset : offset + NONCE_BYTES]
            offset += NONCE_BYTES
            mac = templates[row[attribute]].copy()
            mac.update(nonce)
            append(
                EncryptedRow(
                    rid=row.rid,
                    ciphertext=ciphertext,
                    search_tag=nonce + mac.digest(),
                )
            )
        return encrypted

    def tokens_for_values(
        self, values: Sequence[object], attribute: str
    ) -> List[SearchToken]:
        prefix = attribute.encode() + b"|"
        return [
            SearchToken(payload=token)
            for token in prf_many(
                self._token_key.material,
                [prefix + encode_value(value) for value in values],
            )
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
        """Trial-test every stored row against every token (CPU-bound).

        This loop *is* the cloud's per-query cost for SSE — one PRF
        evaluation per (row, token) pair until a match — and the reason
        process-backed fleet members exist: under Query Binning each member
        trial-decrypts only its own bins' slices, and only separate
        processes let those slices be tested in parallel.

        The whole bin slice runs in one sweep with one HMAC template per
        token: each (row, token) trial costs a state copy plus a digest over
        the 12-byte nonce instead of a fresh ``hmac.new`` key schedule.
        Matches come back in storage order, the first matching token wins,
        and a malformed tag raises ``CryptoError``.
        """
        matches: List[EncryptedRow] = []
        append = matches.append
        equals = constant_time_equals
        nonce_bytes = NONCE_BYTES
        templates = [hmac_template(token.payload) for token in tokens]
        for row in stored:
            search_tag = row.search_tag
            if len(search_tag) < nonce_bytes:
                raise CryptoError("malformed SSE search tag")
            nonce = search_tag[:nonce_bytes]
            tag = search_tag[nonce_bytes:]
            for template in templates:
                mac = template.copy()
                mac.update(nonce)
                if equals(mac.digest(), tag):
                    append(row)
                    break
        return matches
