"""Cryptographic substrates used by the reproduction.

The paper layers Query Binning on top of *existing* cryptographic search
techniques.  This package implements functional equivalents of the families
the paper discusses:

* non-deterministic (probabilistic) encryption — AES-GCM (`nondeterministic`),
* deterministic encryption — HMAC-based (`deterministic`),
* searchable symmetric encryption — PRF-token search (`searchable`),
* Arx-style indexable encryption — value‖counter ciphertexts (`arx_index`),
* secret sharing — Shamir and additive shares over a prime field
  (`secret_sharing`),
* additively homomorphic encryption — Paillier (`homomorphic`),
* distributed point functions — two-party GGM-style DPF (`dpf`).

All schemes expose a common :class:`~repro.crypto.base.EncryptedSearchScheme`
interface so the cloud server and the QB engine can be parameterised by the
underlying technique, exactly as the paper intends ("QB ... can be built on
top of any cryptographic technique").
"""

from repro.crypto.base import (
    EncryptedRow,
    EncryptedSearchScheme,
    LeakageProfile,
    SearchToken,
)
from repro.crypto.primitives import SecretKey, constant_time_equals, prf, random_bytes
from repro.crypto.nondeterministic import NonDeterministicScheme
from repro.crypto.deterministic import DeterministicScheme
from repro.crypto.searchable import SSEScheme
from repro.crypto.arx_index import ArxIndexScheme
from repro.crypto.secret_sharing import (
    AdditiveSecretSharing,
    ShamirSecretSharing,
    SecretSharingScheme,
)
from repro.crypto.homomorphic import PaillierKeyPair, PaillierScheme
from repro.crypto.dpf import DistributedPointFunction
from repro.crypto.oram import ObliviousRowStore, PathORAM
from repro.crypto.pir import TwoServerPIR

__all__ = [
    "EncryptedRow",
    "EncryptedSearchScheme",
    "LeakageProfile",
    "SearchToken",
    "SecretKey",
    "prf",
    "random_bytes",
    "constant_time_equals",
    "NonDeterministicScheme",
    "DeterministicScheme",
    "SSEScheme",
    "ArxIndexScheme",
    "ShamirSecretSharing",
    "AdditiveSecretSharing",
    "SecretSharingScheme",
    "PaillierKeyPair",
    "PaillierScheme",
    "DistributedPointFunction",
    "PathORAM",
    "ObliviousRowStore",
    "TwoServerPIR",
]
