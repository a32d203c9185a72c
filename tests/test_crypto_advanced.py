"""Unit tests for secret sharing, Paillier, and DPF."""

import pytest

from repro.crypto.dpf import DistributedPointFunction
from repro.crypto.homomorphic import PaillierKeyPair, PaillierScheme, _is_probable_prime
from repro.crypto.secret_sharing import (
    AdditiveSecretSharing,
    SecretSharingScheme,
    ShamirSecretSharing,
    Share,
)
from repro.data.relation import Relation
from repro.data.schema import Attribute, Schema
from repro.exceptions import CryptoError


class TestShamir:
    def test_share_and_reconstruct(self):
        sharing = ShamirSecretSharing(threshold=3, parties=5)
        secret = 123456789
        shares = sharing.share(secret)
        assert sharing.reconstruct(shares[:3]) == secret
        assert sharing.reconstruct(shares[2:]) == secret

    def test_below_threshold_rejected(self):
        sharing = ShamirSecretSharing(threshold=3, parties=5)
        shares = sharing.share(42)
        with pytest.raises(CryptoError):
            sharing.reconstruct(shares[:2])

    def test_additive_homomorphism_of_shares(self):
        sharing = ShamirSecretSharing(threshold=2, parties=3)
        a_shares = sharing.share(100)
        b_shares = sharing.share(23)
        summed = sharing.add_shares(a_shares, b_shares)
        assert sharing.reconstruct(summed) == 123

    def test_invalid_parameters_rejected(self):
        with pytest.raises(CryptoError):
            ShamirSecretSharing(threshold=0, parties=3)
        with pytest.raises(CryptoError):
            ShamirSecretSharing(threshold=4, parties=3)
        with pytest.raises(CryptoError):
            ShamirSecretSharing(threshold=2, parties=5, prime=3)


class TestAdditiveSharing:
    def test_share_and_reconstruct(self):
        sharing = AdditiveSecretSharing(parties=4)
        shares = sharing.share(999)
        assert sharing.reconstruct(shares) == 999

    def test_all_shares_required(self):
        sharing = AdditiveSecretSharing(parties=3)
        shares = sharing.share(7)
        with pytest.raises(CryptoError):
            sharing.reconstruct(shares[:2])

    def test_at_least_two_parties(self):
        with pytest.raises(CryptoError):
            AdditiveSecretSharing(parties=1)


class TestSecretSharingScheme:
    def _rows(self):
        schema = Schema([Attribute("key"), Attribute("payload")])
        relation = Relation("r", schema)
        for i, key in enumerate(["x", "y", "x", "z"]):
            relation.insert({"key": key, "payload": str(i)}, sensitive=True)
        return list(relation.rows)

    def test_search_by_share_comparison(self):
        scheme = SecretSharingScheme(parties=3, threshold=2)
        rows = self._rows()
        stored = scheme.encrypt_rows(rows, "key")
        matches = scheme.search(stored, scheme.tokens_for_values(["x"], "key"))
        assert {m.rid for m in matches} == {r.rid for r in rows if r["key"] == "x"}

    def test_scan_count_grows_linearly(self):
        scheme = SecretSharingScheme()
        stored = scheme.encrypt_rows(self._rows(), "key")
        scheme.search(stored, scheme.tokens_for_values(["x"], "key"))
        assert scheme.scan_count == len(stored)

    def test_leakage_hides_access_pattern(self):
        assert not SecretSharingScheme().leakage.leaks_access_pattern


class TestPaillier:
    @pytest.fixture(scope="class")
    def keypair(self):
        return PaillierKeyPair.generate(bits=128)

    def test_encrypt_decrypt(self, keypair):
        for value in (0, 1, 42, 10**9):
            assert keypair.private.decrypt(keypair.public.encrypt(value)) == value

    def test_encryption_is_probabilistic(self, keypair):
        assert keypair.public.encrypt(5) != keypair.public.encrypt(5)

    def test_homomorphic_addition(self, keypair):
        c = keypair.public.add(keypair.public.encrypt(30), keypair.public.encrypt(12))
        assert keypair.private.decrypt(c) == 42

    def test_add_plain_and_multiply_plain(self, keypair):
        c = keypair.public.add_plain(keypair.public.encrypt(10), 5)
        assert keypair.private.decrypt(c) == 15
        c2 = keypair.public.multiply_plain(keypair.public.encrypt(7), 6)
        assert keypair.private.decrypt(c2) == 42

    def test_negative_values_wrap_mod_n(self, keypair):
        c = keypair.public.add(keypair.public.encrypt(10), keypair.public.encrypt(-10))
        assert keypair.private.decrypt(c) == 0

    def test_miller_rabin_agrees_on_small_numbers(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
        for n in range(2, 32):
            assert _is_probable_prime(n) == (n in primes)

    def test_paillier_scheme_search(self):
        scheme = PaillierScheme(PaillierKeyPair.generate(bits=128))
        schema = Schema([Attribute("key"), Attribute("payload")])
        relation = Relation("r", schema)
        for i, key in enumerate(["a", "b", "a"]):
            relation.insert({"key": key, "payload": str(i)}, sensitive=True)
        stored = scheme.encrypt_rows(list(relation.rows), "key")
        matches = scheme.search(stored, scheme.tokens_for_values(["a"], "key"))
        assert len(matches) == 2
        assert scheme.homomorphic_ops >= len(stored)


class TestDPF:
    def test_point_function_correctness(self):
        dpf = DistributedPointFunction(domain_bits=6)
        key0, key1 = dpf.generate(alpha=37, beta=5)
        for x in range(dpf.domain_size):
            combined = dpf.reconstruct(dpf.evaluate(key0, x), dpf.evaluate(key1, x))
            assert combined == (5 if x == 37 else 0)

    def test_full_domain_evaluation(self):
        dpf = DistributedPointFunction(domain_bits=4)
        key0, key1 = dpf.generate(alpha=3, beta=1)
        sums = [
            dpf.reconstruct(a, b)
            for a, b in zip(dpf.evaluate_full(key0), dpf.evaluate_full(key1))
        ]
        assert sums.index(1) == 3 and sum(sums) == 1

    def test_single_share_looks_uninformative(self):
        dpf = DistributedPointFunction(domain_bits=5)
        key0, _key1 = dpf.generate(alpha=9, beta=1)
        shares = dpf.evaluate_full(key0)
        # One party's shares alone should not be a point function: more than
        # one position must be non-zero (overwhelmingly likely).
        assert sum(1 for s in shares if s != 0) > 1

    def test_alpha_out_of_domain_rejected(self):
        dpf = DistributedPointFunction(domain_bits=3)
        with pytest.raises(CryptoError):
            dpf.generate(alpha=8)
        key0, _ = dpf.generate(alpha=1)
        with pytest.raises(CryptoError):
            dpf.evaluate(key0, 8)

    def test_invalid_domain_rejected(self):
        with pytest.raises(CryptoError):
            DistributedPointFunction(domain_bits=0)
