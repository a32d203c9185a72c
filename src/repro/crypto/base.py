"""Common interface for encrypted-search schemes.

QB is a *meta* technique: it rewrites queries into bins and hands the
sensitive bin to whatever cryptographic search scheme protects ``Rs``.  Every
scheme in this package therefore implements the same, small interface:

* ``encrypt_rows`` — the DB owner encrypts the sensitive rows before
  outsourcing them;
* ``tokens_for_values`` — the DB owner turns the sensitive bin ``Ws`` into
  search tokens;
* ``search`` — the (untrusted) cloud matches tokens against stored
  ciphertexts and returns matching :class:`EncryptedRow` objects;
* ``decrypt_row`` — the DB owner recovers the plaintext row.

Each scheme also advertises a :class:`LeakageProfile` describing which
attacks it is susceptible to on its own; the security benchmarks use this to
demonstrate that QB removes the size / frequency / workload-skew signals even
when the underlying scheme leaks them.

Schemes whose rows carry a *stable* per-row search key additionally opt into
cloud-side indexing by setting :attr:`EncryptedSearchScheme.supports_tag_index`
and (when the key is not simply ``search_tag`` / ``token.payload``) overriding
the :meth:`~EncryptedSearchScheme.index_key` /
:meth:`~EncryptedSearchScheme.token_index_key` hooks.  The cloud then serves
their queries from an :class:`~repro.cloud.indexes.EncryptedTagIndex` instead
of scanning the whole encrypted relation; schemes that must examine rows to
match (trial decryption, PRF testing) keep ``supports_tag_index = False`` and
are served from the cloud's bin-addressed store when Query Binning supplies a
bin assignment.  Indexing changes nothing in the adversarial view: the index
is built from exactly the (tag, rid) pairs the adversary already stores.
"""

from __future__ import annotations

import abc
import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.crypto.primitives import SecretKey, decrypt_many
from repro.data.relation import Row
from repro.exceptions import CryptoError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (indexes imports base)
    from repro.cloud.indexes import EncryptedTagIndex


@dataclass(frozen=True)
class SearchToken:
    """An opaque token the owner sends to the cloud to search ``Rs``.

    ``payload`` is scheme-specific (a PRF output, a ciphertext, a share...).
    ``hint`` carries scheme-specific routing information (e.g. the Arx
    counter index); it must not reveal the plaintext value.

    Tokens are interned by the owner per sensitive bin and re-sent for every
    retrieval of the bin, so the same token objects are hashed over and over
    (request interning keys on token tuples); the hash is computed once and
    cached on the instance (and excluded from pickles — process-backed
    members receive tokens over a pipe).
    """

    payload: bytes
    hint: Optional[int] = None

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.payload, self.hint))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)


@dataclass(frozen=True)
class EncryptedRow:
    """A sensitive row as stored at the cloud.

    Attributes
    ----------
    rid:
        The tuple address.  The adversary sees this (access pattern), which is
        exactly the paper's adversarial-view granularity for sensitive data.
    ciphertext:
        Probabilistically encrypted full row payload.
    search_tag:
        Scheme-specific searchable tag for the binned attribute (may be
        empty for schemes that search by owner-side decryption).
    is_fake:
        True for the padding tuples added by the general-case binning.
    """

    rid: int
    ciphertext: bytes
    search_tag: bytes = b""
    is_fake: bool = False


@dataclass(frozen=True)
class LeakageProfile:
    """Which classical attacks a scheme is vulnerable to *on its own*."""

    name: str
    leaks_output_size: bool = True
    leaks_frequency: bool = False
    leaks_order: bool = False
    leaks_access_pattern: bool = True
    deterministic: bool = False

    def vulnerable_attacks(self) -> Tuple[str, ...]:
        attacks = []
        if self.leaks_output_size:
            attacks.append("size")
        if self.leaks_frequency:
            attacks.append("frequency-count")
        if self.leaks_output_size or self.leaks_frequency:
            attacks.append("workload-skew")
        if self.leaks_access_pattern:
            attacks.append("access-pattern")
        if self.leaks_order:
            attacks.append("order")
        return tuple(attacks)


class EncryptedSearchScheme(abc.ABC):
    """Abstract base class for all encrypted-search schemes."""

    #: human-readable scheme name, set by subclasses
    name: str = "abstract"

    #: True when every stored row carries a stable key (:meth:`index_key`)
    #: that search tokens can be mapped onto (:meth:`token_index_key`), so the
    #: cloud may answer ``search`` with exact-match index probes instead of a
    #: scan.  Schemes that must *examine* rows to match (trial decryption, PRF
    #: testing) leave this False and rely on the bin-addressed store.
    supports_tag_index: bool = False

    #: True when the cloud-side matching path (``search`` /
    #: ``indexed_search``) touches no shared mutable state, so several cloud
    #: servers holding the *same* scheme object may search concurrently
    #: (sharded multi-cloud execution).  Schemes that mutate work counters
    #: inside ``search`` (e.g. Paillier's ``homomorphic_ops``) must set this
    #: False; the fleet then serialises member searches instead of losing
    #: increments to the non-atomic ``+=``.
    concurrent_search_safe: bool = True

    # -- batch execution contract -------------------------------------------
    #
    # Every operation takes whole batches (``encrypt_rows``, ``search``,
    # :meth:`decrypt_rows_many`, :meth:`index_keys`), so the built-in
    # schemes amortise per-call crypto setup (HMAC key schedules, AES-GCM
    # cipher objects, sub-key derivations) over the batch.  The tests pin
    # their outputs against the primitives and the plaintext oracle.

    #: How many times the base-class scalar :meth:`decrypt_rows_many` loop
    #: ran (class-level zero; ``+=`` creates the instance counter on first
    #: use).  Must stay zero on the hot path for the built-in schemes, which
    #: all override it; the perfsmoke tripwire catches a lost override.
    scalar_fallback_calls: int = 0

    @property
    @abc.abstractmethod
    def leakage(self) -> LeakageProfile:
        """The scheme's standalone leakage profile."""

    @abc.abstractmethod
    def encrypt_rows(
        self, rows: Sequence[Row], attribute: str
    ) -> List[EncryptedRow]:
        """Encrypt sensitive rows for outsourcing, tagging ``attribute``."""

    @abc.abstractmethod
    def tokens_for_values(
        self, values: Sequence[object], attribute: str
    ) -> List[SearchToken]:
        """Build the search tokens for the sensitive bin ``Ws``."""

    @abc.abstractmethod
    def search(
        self, stored: Sequence[EncryptedRow], tokens: Sequence[SearchToken]
    ) -> List[EncryptedRow]:
        """Cloud-side matching of tokens against stored ciphertexts."""

    @abc.abstractmethod
    def decrypt_row(self, encrypted: EncryptedRow) -> Row:
        """Owner-side decryption of a returned ciphertext."""

    # -- cloud-side indexing hooks ------------------------------------------
    def index_key(self, row: EncryptedRow) -> Optional[bytes]:
        """The stable key the cloud indexes ``row`` under, or ``None``.

        Only consulted when :attr:`supports_tag_index` is True.  The default
        uses the row's search tag, which is correct for every scheme whose
        tag is a deterministic function of the (attribute, value) pair.
        """
        return row.search_tag or None

    def token_index_key(self, token: SearchToken) -> Optional[bytes]:
        """The index key a search token probes for, or ``None``."""
        return token.payload

    def index_keys(self, rows: Sequence[EncryptedRow]) -> List[Optional[bytes]]:
        """Batch :meth:`index_key` (tag-index ingest builds from this).

        The default simply loops; schemes whose key derivation does real
        crypto work may override with a vectorized pass.  Must stay
        element-wise identical to the scalar hook.
        """
        index_key = self.index_key
        return [index_key(row) for row in rows]

    def indexed_search(
        self, index: "EncryptedTagIndex", tokens: Sequence[SearchToken]
    ) -> List[EncryptedRow]:
        """Answer ``search`` from a cloud-side tag index.

        The default mirrors the membership-test scans used by most schemes:
        each stored row is returned at most once, in storage order, if any
        token probes its key.  Schemes whose linear ``search`` has different
        multiplicity/order semantics (e.g. Arx's per-token probing) override
        this so the indexed and linear paths stay bit-identical.

        Probes go through the index's batch entry point when it has one
        (``probe_many``), which charges the same per-key ``probe_count`` /
        ``rows_examined`` increments as a per-key loop would.
        """
        token_index_key = self.token_index_key
        keys = [key for key in map(token_index_key, tokens) if key is not None]
        matched: Dict[int, EncryptedRow] = {}
        update = matched.update  # bulk-insert each bucket (positions are unique)
        probe_many = getattr(index, "probe_many", None)
        if probe_many is not None:
            for bucket in probe_many(keys):
                update(bucket)
        else:  # pragma: no cover - index without a batch probe surface
            for key in keys:
                update(index.probe(key))
        return [row for _position, row in sorted(matched.items())]

    # -- conveniences shared by all schemes ---------------------------------
    def decrypt_rows(self, encrypted: Iterable[EncryptedRow]) -> List[Row]:
        """Decrypt many rows, silently dropping padding (fake) tuples."""
        real = [item for item in encrypted if not item.is_fake]
        if not real:
            return []
        return self.decrypt_rows_many(real)

    def decrypt_rows_many(self, encrypted: Sequence[EncryptedRow]) -> List[Row]:
        """Decrypt a batch of (non-fake) rows.

        The base implementation is the scalar reference loop; schemes whose
        payloads share one row key override it with a single
        :func:`~repro.crypto.primitives.decrypt_many` pass (via
        :meth:`_decrypt_row_payloads`).  Row order and raised errors are
        identical either way.
        """
        self.scalar_fallback_calls += 1
        decrypt_row = self.decrypt_row
        return [decrypt_row(item) for item in encrypted]

    def _decrypt_row_payloads(
        self, row_key: SecretKey, encrypted: Sequence[EncryptedRow]
    ) -> List[Row]:
        """One-pass batch decryption of the standard pickled row payload.

        Shared by every scheme that stores rows as
        ``aead_encrypt(row_key, pickle({rid, values, sensitive}))`` — which
        is all four built-in schemes — so their ``decrypt_rows_many``
        overrides are one-liners.
        """
        payloads = decrypt_many(row_key, [item.ciphertext for item in encrypted])
        loads = pickle.loads
        return [
            Row(rid=data["rid"], values=data["values"], sensitive=data["sensitive"])
            for data in map(loads, payloads)
        ]

    def make_fake_row(self, attribute: str, template: Row) -> EncryptedRow:
        """Create an indistinguishable padding tuple for bin equalisation.

        The default implementation encrypts a copy of ``template`` with a
        sentinel rid of ``-1`` family; schemes may override for tighter
        constructions.  Fake rows are never returned to the application: the
        owner drops them during decryption.
        """
        fakes = self.make_fake_rows(attribute, [template])
        return fakes[0]

    def make_fake_rows(
        self, attribute: str, templates: Sequence[Row]
    ) -> List[EncryptedRow]:
        """Create many padding tuples with a single ``encrypt_rows`` call.

        Bin equalisation can require thousands of fake tuples; encrypting
        them in one batch amortises per-call overhead (key schedules, counter
        lookups) instead of paying it once per deficit unit.
        """
        templates = list(templates)
        if not templates:
            return []
        encrypted = self.encrypt_rows(templates, attribute)
        if len(encrypted) != len(templates):
            raise CryptoError(
                "scheme produced "
                f"{len(encrypted)} ciphertexts for {len(templates)} fake rows"
            )
        return [
            EncryptedRow(
                rid=item.rid,
                ciphertext=item.ciphertext,
                search_tag=item.search_tag,
                is_fake=True,
            )
            for item in encrypted
        ]
