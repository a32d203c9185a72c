"""Low-level cryptographic primitives shared by the schemes in this package.

The primitives are intentionally standard: HMAC-SHA256 as a PRF, a
Fisher-Yates keyed permutation for the secret value permutation QB requires
(Algorithm 1, line 2), and AES-GCM (when the ``cryptography`` package is
available) or an HMAC-derived stream cipher fallback for probabilistic
encryption.  The fallback keeps the library importable in constrained
environments; it is clearly marked and only used when AES is unavailable.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import pickle
import secrets
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.exceptions import CryptoError, IntegrityError

try:  # pragma: no cover - availability depends on the environment
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    _HAS_AESGCM = True
except Exception:  # pragma: no cover
    AESGCM = None  # type: ignore[assignment]
    _HAS_AESGCM = False


DEFAULT_KEY_BYTES = 32
NONCE_BYTES = 12


def random_bytes(length: int = DEFAULT_KEY_BYTES) -> bytes:
    """Cryptographically secure random bytes."""
    return secrets.token_bytes(length)


@dataclass(frozen=True)
class SecretKey:
    """A symmetric key with domain-separated sub-key derivation."""

    material: bytes

    @classmethod
    def generate(cls, length: int = DEFAULT_KEY_BYTES) -> "SecretKey":
        return cls(random_bytes(length))

    @classmethod
    def from_passphrase(cls, passphrase: str, salt: bytes = b"repro-qb") -> "SecretKey":
        """Derive a key from a passphrase (PBKDF2-HMAC-SHA256)."""
        material = hashlib.pbkdf2_hmac("sha256", passphrase.encode(), salt, 100_000)
        return cls(material)

    def derive(self, purpose: str) -> "SecretKey":
        """Derive an independent sub-key for ``purpose`` (domain separation).

        Schemes derive their sub-keys once, when they are constructed.
        """
        return SecretKey(prf(self.material, purpose.encode()))

    def __repr__(self) -> str:  # avoid leaking key material in logs
        return f"SecretKey(<{len(self.material)} bytes>)"


def prf(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 pseudo-random function."""
    return hmac.new(key, message, hashlib.sha256).digest()


def hmac_template(key: bytes) -> "hmac.HMAC":
    """A reusable HMAC-SHA256 object for ``key`` (no message absorbed yet).

    ``template.copy().update(message)`` evaluates the PRF without re-running
    the HMAC key schedule (two SHA-256 compressions of the padded key), which
    is the dominant per-call cost for short messages.  The copies produce
    digests bit-identical to :func:`prf`.
    """
    return hmac.new(key, digestmod=hashlib.sha256)


def prf_many(key: bytes, messages: Iterable[bytes]) -> List[bytes]:
    """HMAC-SHA256 over many messages under one key, amortising key setup.

    One key schedule for the whole batch; each message costs a state copy
    plus the digest over the message itself.  Output is element-wise
    identical to ``[prf(key, m) for m in messages]``.
    """
    copy = hmac.new(key, digestmod=hashlib.sha256).copy
    digests: List[bytes] = []
    append = digests.append
    for message in messages:
        mac = copy()
        mac.update(message)
        append(mac.digest())
    return digests


def prf_int(key: bytes, message: bytes, modulus: int) -> int:
    """PRF output reduced modulo ``modulus`` (used by keyed permutations)."""
    if modulus <= 0:
        raise CryptoError("modulus must be positive")
    return int.from_bytes(prf(key, message), "big") % modulus


def constant_time_equals(first: bytes, second: bytes) -> bool:
    """Constant-time byte comparison."""
    return hmac.compare_digest(first, second)


def encode_value(value: object) -> bytes:
    """Serialise an arbitrary (picklable) value for encryption or hashing.

    Strings and integers get a stable, canonical encoding so that tokens are
    reproducible across processes; other objects fall back to pickle.
    """
    if isinstance(value, str):
        return b"s:" + value.encode("utf-8")
    if isinstance(value, bool):  # bool before int: bool is an int subclass
        return b"b:" + (b"1" if value else b"0")
    if isinstance(value, int):
        return b"i:" + str(value).encode("ascii")
    if isinstance(value, float):
        return b"f:" + repr(value).encode("ascii")
    if value is None:
        return b"n:"
    return b"p:" + pickle.dumps(value)


def decode_value(blob: bytes) -> object:
    """Inverse of :func:`encode_value`."""
    if len(blob) < 2 or blob[1:2] != b":":
        raise CryptoError("malformed encoded value")
    tag, payload = blob[:1], blob[2:]
    if tag == b"s":
        return payload.decode("utf-8")
    if tag == b"b":
        return payload == b"1"
    if tag == b"i":
        return int(payload)
    if tag == b"f":
        return float(payload)
    if tag == b"n":
        return None
    if tag == b"p":
        return pickle.loads(payload)
    raise CryptoError(f"unknown value encoding tag {tag!r}")


def keyed_permutation(items: Sequence[object], key: SecretKey) -> List[object]:
    """Deterministically permute ``items`` under ``key`` (Fisher-Yates).

    QB requires the DB owner to secretly permute the sensitive values before
    assigning them to bins so the adversary cannot recompute the layout from
    public value order (Algorithm 1, line 2 and footnote 4).
    """
    permuted = list(items)
    for i in range(len(permuted) - 1, 0, -1):
        j = prf_int(key.material, f"perm|{i}".encode(), i + 1)
        permuted[i], permuted[j] = permuted[j], permuted[i]
    return permuted


# ---------------------------------------------------------------------------
# Authenticated probabilistic encryption
# ---------------------------------------------------------------------------

def _aesgcm_for(material: bytes):
    """An ``AESGCM`` cipher keyed by the first 32 bytes of ``material``.

    Building one runs the AES key schedule (a few microseconds), so the
    batch entry points build one per call, not one per row.
    """
    return AESGCM(material[:32])


def aead_encrypt(key: SecretKey, plaintext: bytes, associated_data: bytes = b"") -> bytes:
    """Probabilistic authenticated encryption of ``plaintext``.

    Uses AES-GCM when available; otherwise an HMAC-SHA256 stream construction
    (CTR-style keystream + encrypt-then-MAC).  Ciphertexts embed the nonce so
    they are self-contained, and the two constructions are distinguished by a
    one-byte header.
    """
    nonce = random_bytes(NONCE_BYTES)
    if _HAS_AESGCM:
        ciphertext = _aesgcm_for(key.material).encrypt(nonce, plaintext, associated_data)
        return b"\x01" + nonce + ciphertext
    return b"\x02" + nonce + _fallback_encrypt(key, nonce, plaintext, associated_data)


def aead_decrypt(key: SecretKey, blob: bytes, associated_data: bytes = b"") -> bytes:
    """Decrypt and authenticate a ciphertext produced by :func:`aead_encrypt`."""
    if len(blob) < 1 + NONCE_BYTES:
        raise IntegrityError("ciphertext too short")
    header, nonce, body = blob[:1], blob[1 : 1 + NONCE_BYTES], blob[1 + NONCE_BYTES :]
    if header == b"\x01":
        if not _HAS_AESGCM:  # pragma: no cover - environment mismatch
            raise CryptoError("AES-GCM ciphertext but AES-GCM is unavailable")
        try:
            return _aesgcm_for(key.material).decrypt(nonce, body, associated_data)
        except Exception as exc:
            raise IntegrityError("AES-GCM authentication failed") from exc
    if header == b"\x02":
        return _fallback_decrypt(key, nonce, body, associated_data)
    raise CryptoError(f"unknown ciphertext header {header!r}")


def encrypt_many(
    key: SecretKey, plaintexts: Sequence[bytes], associated_data: bytes = b""
) -> List[bytes]:
    """Batch :func:`aead_encrypt`: one key schedule, one nonce draw.

    Ciphertexts are format-identical to the scalar path (header byte,
    embedded per-item nonce) — a batch-encrypted blob decrypts through
    either entry point.  The batch draws all nonces in a single
    ``os.urandom`` call and uses one cipher object for every item.
    """
    plaintexts = list(plaintexts)
    if not plaintexts:
        return []
    nonces = os.urandom(NONCE_BYTES * len(plaintexts))
    out: List[bytes] = []
    append = out.append
    offset = 0
    if _HAS_AESGCM:
        encrypt = _aesgcm_for(key.material).encrypt
        for plaintext in plaintexts:
            nonce = nonces[offset : offset + NONCE_BYTES]
            offset += NONCE_BYTES
            append(b"\x01" + nonce + encrypt(nonce, plaintext, associated_data))
        return out
    for plaintext in plaintexts:
        nonce = nonces[offset : offset + NONCE_BYTES]
        offset += NONCE_BYTES
        append(b"\x02" + nonce + _fallback_encrypt(key, nonce, plaintext, associated_data))
    return out


def decrypt_many(
    key: SecretKey, blobs: Sequence[bytes], associated_data: bytes = b""
) -> List[bytes]:
    """Batch :func:`aead_decrypt` under one key, amortising cipher setup.

    Element-wise identical (results *and* raised errors) to the scalar
    loop: the first malformed or tampered blob raises, exactly as the
    per-row path would at that position.
    """
    cipher = _aesgcm_for(key.material) if _HAS_AESGCM else None
    if cipher is not None and all(
        len(blob) >= 1 + NONCE_BYTES and blob[0] == 1 for blob in blobs
    ):
        # fast path: every blob is well-formed AES-GCM, so the per-blob
        # header dispatch collapses to one comprehension (this is the bin
        # decryption hot loop); the first tampered blob still raises the
        # same error the scalar path would at that position
        decrypt = cipher.decrypt
        try:
            return [
                decrypt(blob[1 : 1 + NONCE_BYTES], blob[1 + NONCE_BYTES :], associated_data)
                for blob in blobs
            ]
        except Exception as exc:
            raise IntegrityError("AES-GCM authentication failed") from exc
    out: List[bytes] = []
    append = out.append
    for blob in blobs:
        if len(blob) < 1 + NONCE_BYTES:
            raise IntegrityError("ciphertext too short")
        header = blob[:1]
        nonce = blob[1 : 1 + NONCE_BYTES]
        body = blob[1 + NONCE_BYTES :]
        if header == b"\x01":
            if cipher is None:  # pragma: no cover - environment mismatch
                raise CryptoError("AES-GCM ciphertext but AES-GCM is unavailable")
            try:
                append(cipher.decrypt(nonce, body, associated_data))
            except Exception as exc:
                raise IntegrityError("AES-GCM authentication failed") from exc
        elif header == b"\x02":
            append(_fallback_decrypt(key, nonce, body, associated_data))
        else:
            raise CryptoError(f"unknown ciphertext header {header!r}")
    return out


def _keystream(key: SecretKey, nonce: bytes, length: int) -> bytes:
    blocks = []
    counter = 0
    while sum(len(b) for b in blocks) < length:
        blocks.append(prf(key.material, b"stream|" + nonce + counter.to_bytes(8, "big")))
        counter += 1
    return b"".join(blocks)[:length]


def _fallback_encrypt(
    key: SecretKey, nonce: bytes, plaintext: bytes, associated_data: bytes
) -> bytes:
    stream = _keystream(key.derive("enc"), nonce, len(plaintext))
    body = bytes(p ^ s for p, s in zip(plaintext, stream))
    tag = prf(key.derive("mac").material, nonce + associated_data + body)
    return body + tag


def _fallback_decrypt(
    key: SecretKey, nonce: bytes, blob: bytes, associated_data: bytes
) -> bytes:
    if len(blob) < 32:
        raise IntegrityError("ciphertext too short for authentication tag")
    body, tag = blob[:-32], blob[-32:]
    expected = prf(key.derive("mac").material, nonce + associated_data + body)
    if not constant_time_equals(tag, expected):
        raise IntegrityError("authentication tag mismatch")
    stream = _keystream(key.derive("enc"), nonce, len(body))
    return bytes(c ^ s for c, s in zip(body, stream))


def has_hardware_aes() -> bool:
    """Whether AES-GCM from ``cryptography`` is available in this environment."""
    return _HAS_AESGCM
