"""The engine's one query pipeline.

Every query — a single :meth:`QueryBinningEngine.query_with_trace` or a
workload under any placement — runs ``build_requests`` → one response fetch
→ one decrypt/merge/trace loop.  These tests pin what the placement may
change (only how responses are fetched) and check the single-query path,
which the service uses, against the plaintext oracle for every scheme.
"""

from __future__ import annotations

import pytest

from repro.crypto.arx_index import ArxIndexScheme
from repro.crypto.base import EncryptedSearchScheme
from repro.crypto.deterministic import DeterministicScheme
from repro.crypto.nondeterministic import NonDeterministicScheme
from repro.crypto.searchable import SSEScheme
from repro.exceptions import ConfigurationError

SCHEMES = {
    "deterministic": DeterministicScheme,
    "arx-index": ArxIndexScheme,
    "non-deterministic": NonDeterministicScheme,
    "sse": SSEScheme,
}


def count_calls(monkeypatch, target, name: str) -> list:
    """Wrap ``target.name`` so each call appends its first argument."""
    original = getattr(target, name)
    calls: list = []

    def wrapper(*args, **kwargs):
        calls.append(args[0] if args else None)
        return original(*args, **kwargs)

    monkeypatch.setattr(target, name, wrapper)
    return calls


@pytest.mark.parametrize("scheme_cls", SCHEMES.values(), ids=SCHEMES.keys())
def test_single_queries_are_served_one_request_each(
    parity_harness, monkeypatch, scheme_cls
):
    harness = parity_harness(scheme_cls)
    engine = harness.make_engine()
    served = count_calls(monkeypatch, engine.cloud, "serve")
    batches = count_calls(monkeypatch, engine.cloud, "process_batch")
    expected = harness.oracle_rids()

    for value in harness.dataset.all_values:
        rows, trace = engine.query_with_trace(value)
        assert sorted(row.rid for row in rows) == expected.get(value, [])
        assert trace.query.value == value

    assert len(served) == len(list(harness.dataset.all_values))
    assert batches == []


def test_batched_placement_fetches_the_workload_in_one_call(
    parity_harness, monkeypatch
):
    harness = parity_harness(DeterministicScheme)
    engine = harness.make_engine()
    served = count_calls(monkeypatch, engine.cloud, "serve")
    batches = count_calls(monkeypatch, engine.cloud, "process_batch")
    workload = harness.workload()

    traces = engine.execute_workload(workload, placement="batched")

    assert len(traces) == len(workload)
    assert len(batches) == 1 and len(batches[0]) == len(workload)
    assert served == []


def test_each_retrieval_is_decrypted_once(parity_harness, monkeypatch):
    harness = parity_harness(DeterministicScheme)
    engine = harness.make_engine()
    decrypts = count_calls(monkeypatch, engine.scheme, "decrypt_rows_many")
    workload = harness.workload(repeats=3)

    outcome = engine.execute_workload_with_rows(workload, placement="sequential")
    bins = {
        engine.rewrite(value).sensitive_bin_index for value in set(workload)
    } - {None}
    assert 0 < len(decrypts) <= len(bins)

    # a later workload reuses the per-bin plaintext cache
    first = len(decrypts)
    again = engine.execute_workload_with_rows(workload, placement="batched")
    assert len(decrypts) == first
    assert [sorted(r.rid for r in rows) for rows, _ in again] == [
        sorted(r.rid for r in rows) for rows, _ in outcome
    ]


def test_unknown_placement_is_rejected(parity_harness):
    engine = parity_harness(DeterministicScheme).make_engine()
    with pytest.raises(ConfigurationError, match="unknown placement"):
        engine.execute_workload([0], placement="scalar")


def test_sharded_placement_requires_a_fleet(parity_harness):
    harness = parity_harness(DeterministicScheme)
    engine = harness.make_engine()
    with pytest.raises(ConfigurationError, match="requires a MultiCloud"):
        engine.execute_workload(harness.workload(repeats=1), placement="sharded")


class BaseLoopDeterministicScheme(DeterministicScheme):
    """Deterministic encryption that has lost its batch decryption override."""

    decrypt_rows_many = EncryptedSearchScheme.decrypt_rows_many


def test_a_lost_decrypt_override_is_counted_and_still_correct(parity_harness):
    """The other side of the perfsmoke tripwire: the base class's scalar
    ``decrypt_rows_many`` loop is observable in ``scalar_fallback_calls``."""
    harness = parity_harness(BaseLoopDeterministicScheme)
    run = harness.run("batched", harness.workload(repeats=1))
    harness.assert_matches_oracle(run)
    assert run.engine.scheme.scalar_fallback_calls > 0
