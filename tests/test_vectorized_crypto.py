"""The batched crypto hot path, checked against the primitives.

Every scheme computes its tags, tokens, and payloads in batches
(``prf_many`` / ``encrypt_many`` / ``decrypt_many``).  These tests recompute
the expected values one at a time from ``prf`` over the scheme's derived
sub-keys and from ``aead_decrypt``, so the batch code is pinned to the
constructions it implements: bit-identical tags and tokens, exact match
sets, and round-tripping payloads.  They also cover the primitives
themselves and the framed process-member wire format with its version
handshake.
"""

from __future__ import annotations

import collections
import pickle
import socket
import threading

import pytest

from repro.cloud import process_member
from repro.cloud.process_member import (
    FrameChannel,
    ProcessMemberProxy,
    WIRE_MAGIC,
    WIRE_PICKLE_PROTOCOL,
    WIRE_VERSION,
    _check_hello,
    _HELLO,
    process_backend_available,
)
from repro.cloud.server import BatchRequest
from repro.crypto.arx_index import ArxIndexScheme
from repro.crypto.deterministic import DeterministicScheme
from repro.crypto.nondeterministic import NonDeterministicScheme
from repro.crypto.primitives import (
    SecretKey,
    aead_decrypt,
    aead_encrypt,
    decrypt_many,
    encode_value,
    encrypt_many,
    prf,
    prf_many,
)
from repro.crypto.searchable import SSEScheme
from repro.data.relation import Relation, Row
from repro.data.schema import Attribute, Schema
from repro.exceptions import IntegrityError, ProcessMemberError
from repro.service.protocol import SocketConnection
from repro.workloads.generator import generate_partitioned_dataset

VECTOR_SCHEMES = {
    "deterministic": DeterministicScheme,
    "arx-index": ArxIndexScheme,
    "non-deterministic": NonDeterministicScheme,
    "sse": SSEScheme,
}


def sample_rows(num: int = 12):
    schema = Schema([Attribute("key"), Attribute("payload")])
    relation = Relation("r", schema)
    keys = ["a", "b", "a", "c"]
    for index in range(num):
        relation.insert(
            {"key": keys[index % len(keys)], "payload": f"p-{index}"},
            sensitive=True,
        )
    return list(relation.rows)


SCHEME_KEY = SecretKey.from_passphrase("vector-parity")


# -- primitives ---------------------------------------------------------------
class TestPrimitiveParity:
    def test_prf_many_matches_prf(self):
        key = b"k" * 32
        messages = [f"m{i}".encode() for i in range(50)] + [b""]
        assert prf_many(key, messages) == [prf(key, m) for m in messages]

    def test_encrypt_many_round_trips_and_matches_scalar_format(self):
        key = SecretKey.from_passphrase("batch")
        plaintexts = [f"payload-{i}".encode() for i in range(40)] + [b""]
        blobs = encrypt_many(key, plaintexts)
        assert len(blobs) == len(plaintexts)
        # same header byte and layout as the scalar path, so either side
        # can decrypt the other's output
        scalar_blob = aead_encrypt(key, plaintexts[0])
        assert blobs[0][:1] == scalar_blob[:1]
        assert [aead_decrypt(key, blob) for blob in blobs] == plaintexts
        assert decrypt_many(key, blobs) == plaintexts

    def test_encrypt_many_uses_fresh_nonces(self):
        key = SecretKey.from_passphrase("batch")
        blobs = encrypt_many(key, [b"same"] * 20)
        assert len({bytes(blob) for blob in blobs}) == 20

    def test_decrypt_many_raises_the_scalar_error_at_the_failing_element(self):
        key = SecretKey.from_passphrase("batch")
        blobs = encrypt_many(key, [b"one", b"two", b"three"])
        tampered = blobs[1][:-1] + bytes([blobs[1][-1] ^ 1])
        with pytest.raises(IntegrityError):
            decrypt_many(key, [blobs[0], tampered, blobs[2]])
        with pytest.raises(IntegrityError):
            aead_decrypt(key, tampered)

    def test_derive_memoization_returns_equal_keys_and_survives_pickle(self):
        key = SecretKey.from_passphrase("memo")
        assert key.derive("row").material == key.derive("row").material
        clone = pickle.loads(pickle.dumps(key))
        assert clone.material == key.material
        assert clone.derive("row").material == key.derive("row").material


# -- schemes against the primitives -------------------------------------------
#
# Expected tags, tokens, and payloads are computed here from ``prf`` over the
# scheme's derived sub-keys and ``aead_decrypt``, independently of the
# schemes' own batch code.
def sub_key(label: str) -> bytes:
    return SCHEME_KEY.derive(label).material


def value_material(value) -> bytes:
    return b"key|" + encode_value(value)


def occurrences(rows):
    """(row, occurrence index of its value so far), in row order."""
    seen = {}
    for row in rows:
        occurrence = seen.get(row["key"], 0)
        seen[row["key"]] = occurrence + 1
        yield row, occurrence


def arx_material(value, occurrence: int) -> bytes:
    return value_material(value) + b"|" + occurrence.to_bytes(8, "big")


class TestTagsMatchPrimitives:
    def test_deterministic_tags_are_prf_of_attribute_and_value(self):
        rows = sample_rows()
        stored = DeterministicScheme(SCHEME_KEY).encrypt_rows(rows, "key")
        assert [r.search_tag for r in stored] == [
            prf(sub_key("tag"), value_material(row["key"])) for row in rows
        ]

    def test_arx_tags_are_prf_of_value_and_occurrence(self):
        rows = sample_rows()
        stored = ArxIndexScheme(SCHEME_KEY).encrypt_rows(rows, "key")
        assert [r.search_tag for r in stored] == [
            prf(sub_key("tag"), arx_material(row["key"], occurrence))
            for row, occurrence in occurrences(rows)
        ]

    def test_non_deterministic_rows_carry_no_tag(self):
        stored = NonDeterministicScheme(SCHEME_KEY).encrypt_rows(sample_rows(), "key")
        assert all(r.search_tag == b"" for r in stored)

    def test_sse_tags_are_nonce_and_prf_of_the_value_token(self):
        rows = sample_rows()
        stored = SSEScheme(SCHEME_KEY).encrypt_rows(rows, "key")
        for row, encrypted in zip(rows, stored):
            nonce, tag = encrypted.search_tag[:12], encrypted.search_tag[12:]
            token = prf(sub_key("token"), value_material(row["key"]))
            assert tag == prf(token, nonce)
        # per-row nonces: equal values still get distinct tags
        assert len({r.search_tag for r in stored}) == len(stored)


class TestTokensMatchPrimitives:
    VALUES = ["a", "c", "zzz"]

    def test_deterministic_tokens(self):
        scheme = DeterministicScheme(SCHEME_KEY)
        scheme.encrypt_rows(sample_rows(), "key")
        assert [
            (t.payload, t.hint) for t in scheme.tokens_for_values(self.VALUES, "key")
        ] == [(prf(sub_key("tag"), value_material(v)), None) for v in self.VALUES]

    def test_arx_tokens_cover_every_stored_occurrence(self):
        scheme = ArxIndexScheme(SCHEME_KEY)
        rows = sample_rows()
        scheme.encrypt_rows(rows, "key")
        counts = {}
        for row in rows:
            counts[row["key"]] = counts.get(row["key"], 0) + 1
        assert [
            (t.payload, t.hint) for t in scheme.tokens_for_values(self.VALUES, "key")
        ] == [
            (prf(sub_key("tag"), arx_material(v, occurrence)), occurrence)
            for v in self.VALUES
            for occurrence in range(counts.get(v, 0))
        ]

    def test_non_deterministic_tokens_blind_each_address(self):
        scheme = NonDeterministicScheme(SCHEME_KEY)
        rows = sample_rows()
        scheme.encrypt_rows(rows, "key")
        assert [
            (t.payload, t.hint) for t in scheme.tokens_for_values(self.VALUES, "key")
        ] == [
            (prf(sub_key("addr"), encode_value(row.rid)), row.rid)
            for v in self.VALUES
            for row in rows
            if row["key"] == v
        ]

    def test_sse_tokens(self):
        scheme = SSEScheme(SCHEME_KEY)
        scheme.encrypt_rows(sample_rows(), "key")
        assert [
            (t.payload, t.hint) for t in scheme.tokens_for_values(self.VALUES, "key")
        ] == [(prf(sub_key("token"), value_material(v)), None) for v in self.VALUES]


@pytest.mark.parametrize(
    "scheme_cls", VECTOR_SCHEMES.values(), ids=VECTOR_SCHEMES.keys()
)
class TestSchemeRoundTrips:
    def test_payloads_decrypt_under_the_row_key(self, scheme_cls):
        rows = sample_rows()
        scheme = scheme_cls(SCHEME_KEY)
        stored = scheme.encrypt_rows(rows, "key")
        assert [r.rid for r in stored] == [row.rid for row in rows]
        assert [
            pickle.loads(aead_decrypt(SCHEME_KEY.derive("row"), r.ciphertext))
            for r in stored
        ] == [
            {"rid": row.rid, "values": dict(row.values), "sensitive": row.sensitive}
            for row in rows
        ]
        assert [r.as_dict() for r in scheme.decrypt_rows(stored)] == [
            row.as_dict() for row in rows
        ]
        assert scheme.scalar_fallback_calls == 0

    def test_search_returns_exactly_the_matching_rows(self, scheme_cls):
        scheme = scheme_cls(SCHEME_KEY)
        rows = sample_rows()
        stored = scheme.encrypt_rows(rows, "key")
        tokens = scheme.tokens_for_values(["a", "b"], "key")
        matches = [m.rid for m in scheme.search(stored, tokens)]
        expected = [row.rid for row in rows if row["key"] in {"a", "b"}]
        assert matches == expected


class TestSSESearchEdgeCases:
    def test_search_preserves_storage_order_and_multiplicity(self):
        scheme = SSEScheme(SCHEME_KEY)
        rows = sample_rows()
        stored = scheme.encrypt_rows(rows, "key")
        tokens = scheme.tokens_for_values(["b", "a"], "key")
        assert [m.rid for m in scheme.search(stored, tokens)] == [
            row.rid for row in rows if row["key"] in {"a", "b"}
        ]

    def test_search_rejects_malformed_tags(self):
        from repro.crypto.base import EncryptedRow
        from repro.exceptions import CryptoError

        scheme = SSEScheme(SCHEME_KEY)
        stored = scheme.encrypt_rows(sample_rows(4), "key")
        bad = [EncryptedRow(rid=99, ciphertext=b"x", search_tag=b"short")] + list(
            stored
        )
        with pytest.raises(CryptoError):
            scheme.search(bad, scheme.tokens_for_values(["a"], "key"))


# -- engine-level parity ------------------------------------------------------
@pytest.mark.skipif(
    not process_backend_available(), reason="no fork start method"
)
def test_vectorized_process_execution_matches_sequential(parity_harness):
    """The full pipeline — batched crypto + framed wire format — pins the
    sharded/process placement bit-identical to sequential execution."""
    harness = parity_harness(SSEScheme, member_backend="process")
    workload = harness.workload()
    runs = harness.run_all(workload)
    harness.assert_identical_results(runs)
    harness.assert_identical_traces(runs)
    harness.assert_single_server_parity(runs["sequential"], runs["batched"])


# -- engine/owner batched inserts ---------------------------------------------
@pytest.mark.parametrize("scheme_cls", [DeterministicScheme, ArxIndexScheme])
def test_insert_many_is_equivalent_to_per_row_inserts(
    parity_harness, scheme_cls
):
    def make_dataset():
        return generate_partitioned_dataset(
            num_values=20,
            sensitivity_fraction=0.5,
            association_fraction=0.5,
            tuples_per_value=2,
            seed=13,
        )

    # two independent (but deterministic, hence identical) dataset copies:
    # engines over the same partition would insert into shared relations
    dataset = make_dataset()
    loop_engine = parity_harness(scheme_cls, dataset=make_dataset()).make_engine()
    batch_engine = parity_harness(scheme_cls, dataset=make_dataset()).make_engine()

    # insert existing values only: a new value could rebin mid-stream
    existing = list(dataset.all_values)[:6]
    stream = [
        ({"key": value, "payload": f"new-{index}"}, index % 2 == 0)
        for index, value in enumerate(existing)
    ]
    for values, sensitive in stream:
        loop_engine.insert(loop_engine.partition.insert(values, sensitive=sensitive))
    batch_engine.insert_many(
        [batch_engine.partition.insert(values, sensitive=s) for values, s in stream]
    )

    assert loop_engine.metadata is not None and batch_engine.metadata is not None
    assert (
        loop_engine.metadata.sensitive_counts
        == batch_engine.metadata.sensitive_counts
    )
    assert (
        loop_engine.metadata.non_sensitive_counts
        == batch_engine.metadata.non_sensitive_counts
    )
    for value in existing:
        loop_rows = sorted(
            tuple(sorted(row.values.items())) for row in loop_engine.query(value)
        )
        batch_rows = sorted(
            tuple(sorted(row.values.items())) for row in batch_engine.query(value)
        )
        assert loop_rows == batch_rows


# -- wire format --------------------------------------------------------------
class _LoopbackTransport:
    """A ``Connection``-shaped queue of messages that counts its calls."""

    def __init__(self):
        self.messages = collections.deque()
        self.calls = collections.Counter()

    def send_bytes(self, data):
        self.calls["send_bytes"] += 1
        self.messages.append(bytes(data))

    def recv_bytes(self):
        self.calls["recv_bytes"] += 1
        return self.messages.popleft()


class TestFrameChannel:
    @pytest.fixture(params=["pipe", "socket"])
    def pair(self, request):
        """A connected channel pair over a multiprocessing pipe or over a
        socketpair wrapped in the service's :class:`SocketConnection`."""
        if request.param == "pipe":
            left, right = process_member._spawn_context().Pipe()
        else:
            left, right = (SocketConnection(end) for end in socket.socketpair())
        sender, receiver = FrameChannel(left), FrameChannel(right)
        yield sender, receiver
        sender.close()
        receiver.close()

    def test_round_trip(self, pair):
        sender, receiver = pair
        message = ("method", ({"rows": list(range(100))},), {"flag": True})
        sender.send_message(message)
        assert receiver.recv_message() == message

    def test_frame_of_several_mib_round_trips(self, pair):
        sender, receiver = pair
        payload = {"blob": bytes(range(256)) * (16 * 1024)}  # 4 MiB
        # the transport buffers less than one frame: send while receiving
        writer = threading.Thread(target=sender.send_message, args=(payload,))
        writer.start()
        assert receiver.recv_message() == payload
        writer.join(timeout=10.0)
        assert not writer.is_alive()

    def test_pickle_buffer_values_round_trip(self, pair):
        sender, receiver = pair
        raw = bytes(range(256)) * 10
        sender.send_message({"oob": pickle.PickleBuffer(raw)})
        received = receiver.recv_message()
        assert bytes(received["oob"]) == raw

    def test_messages_arrive_in_send_order(self, pair):
        sender, receiver = pair
        for index in range(5):
            sender.send_message({"i": index, "pad": b"x" * 1000})
        for index in range(5):
            assert receiver.recv_message()["i"] == index

    def test_one_frame_is_one_transport_message(self):
        transport = _LoopbackTransport()
        channel = FrameChannel(transport)
        messages = [("ping", (), {}), {"blob": b"x" * (3 << 20)}]
        for message in messages:
            channel.send_message(message)
        assert transport.calls == {"send_bytes": len(messages)}
        assert [channel.recv_message() for _ in messages] == messages
        assert transport.calls == {
            "send_bytes": len(messages),
            "recv_bytes": len(messages),
        }


class TestWireHandshake:
    def test_well_formed_hello_passes(self):
        _check_hello(
            _HELLO.pack(WIRE_MAGIC, WIRE_VERSION, WIRE_PICKLE_PROTOCOL), "m"
        )

    @pytest.mark.parametrize(
        "blob,fragment",
        [
            (b"junk", "malformed"),
            (
                _HELLO.pack(b"NOPE", WIRE_VERSION, WIRE_PICKLE_PROTOCOL),
                "magic mismatch",
            ),
            (
                _HELLO.pack(WIRE_MAGIC, WIRE_VERSION + 1, WIRE_PICKLE_PROTOCOL),
                "version mismatch",
            ),
            (
                _HELLO.pack(WIRE_MAGIC, WIRE_VERSION, WIRE_PICKLE_PROTOCOL + 1),
                "protocol mismatch",
            ),
        ],
        ids=["malformed", "magic", "version", "protocol"],
    )
    def test_mismatches_fail_loudly(self, blob, fragment):
        with pytest.raises(ProcessMemberError, match=fragment):
            _check_hello(blob, "member-0")


def _mixed_version_worker(connection, server_factory, server_kwargs):
    """A worker speaking a future wire version (handshake e2e shim)."""
    connection.send_bytes(
        _HELLO.pack(WIRE_MAGIC, WIRE_VERSION + 1, WIRE_PICKLE_PROTOCOL)
    )
    try:
        connection.recv_bytes()
    except (EOFError, OSError):
        pass
    connection.close()


@pytest.mark.skipif(
    not process_backend_available(), reason="no fork start method"
)
class TestProcessMemberWire:
    def test_mixed_version_pair_fails_at_startup(self, monkeypatch):
        monkeypatch.setattr(
            process_member, "_worker_main", _mixed_version_worker
        )
        with pytest.raises(ProcessMemberError, match="version mismatch"):
            ProcessMemberProxy(name="mixed")

    def test_rpcs_accumulate_transfers_and_reset_rebaselines(self):
        schema = Schema([Attribute("key")])
        relation = Relation("r", schema)
        for i in range(6):
            relation.insert({"key": f"k{i % 2}"})
        request = BatchRequest(attribute="key", cleartext_values=("k0",))
        proxy = ProcessMemberProxy(name="wire")
        try:
            proxy.store_non_sensitive(relation)
            proxy.build_index("key")
            proxy.process_batch([request])
            assert proxy.network.transfers("download") == 1
            one_query = proxy.network.total_tuples("download")
            assert one_query == 3
            proxy.process_batch([request])
            assert proxy.network.transfers("download") == 2
            assert proxy.network.total_tuples("download") == 2 * one_query
            proxy.reset_observations()
            assert proxy.network.transfers() == 0 and len(proxy.view_log) == 0
            proxy.process_batch([request])
            assert proxy.network.transfers() == 1
            assert proxy.network.total_tuples("download") == one_query
            assert proxy.stats.queries_served == 1 and len(proxy.view_log) == 1
        finally:
            proxy.close()
