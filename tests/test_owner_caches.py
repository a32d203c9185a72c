"""The owner memo: its bounds and its invalidation.

The engine memoizes four things on the query path — retrieval decisions per
query value, search tokens per sensitive bin, interned requests per bin
pair, and decrypted plaintexts per sensitive bin.  No size knob caps them;
the layout does.  These tests pin that bound (one entry per queried value,
bin or bin pair, no entry for values outside the layout, no eviction however
many bin pairs the layout has), prove that a repeated workload is all memo
hits with correct answers, and prove that a rebin or a sensitive insert
fully invalidates the memo, for all four schemes.
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest

from repro.cloud.multi_cloud import MultiCloud
from repro.cloud.server import CloudServer
from repro.core.engine import QueryBinningEngine
from repro.crypto.arx_index import ArxIndexScheme
from repro.crypto.deterministic import DeterministicScheme
from repro.crypto.nondeterministic import NonDeterministicScheme
from repro.crypto.searchable import SSEScheme
from repro.crypto.primitives import SecretKey
from repro.workloads.generator import generate_partitioned_dataset

SCHEMES = {
    "deterministic": DeterministicScheme,
    "arx-index": ArxIndexScheme,
    "non-deterministic": NonDeterministicScheme,
    "sse": SSEScheme,
}


def _make_dataset(seed: int = 7):
    return generate_partitioned_dataset(
        num_values=30,
        sensitivity_fraction=0.5,
        association_fraction=0.6,
        tuples_per_value=2,
        seed=seed,
    )


def _make_engine(dataset, scheme_factory) -> QueryBinningEngine:
    engine = QueryBinningEngine(
        partition=dataset.partition,
        attribute=dataset.attribute,
        scheme=scheme_factory(SecretKey.from_passphrase("cache-tests")),
        cloud=CloudServer(),
        rng=random.Random(3),
    )
    return engine.setup()


def _expected_rids(dataset, value) -> List[int]:
    """Ground truth straight off the partitions."""
    attribute = dataset.attribute
    rids = [
        row.rid
        for relation in (dataset.partition.sensitive, dataset.partition.non_sensitive)
        for row in relation.rows
        if row[attribute] == value
    ]
    return sorted(rids)


def _values_in_distinct_sensitive_bins(engine, count: int) -> List[object]:
    """One query value per sensitive bin, for ``count`` different bins."""
    values = []
    for bin_ in engine.layout.sensitive_bins:
        if bin_.values:
            values.append(bin_.values[0])
        if len(values) == count:
            return values
    raise AssertionError(f"layout has fewer than {count} non-empty sensitive bins")


def _layout_values(engine) -> set:
    return set(engine.layout.sensitive_values) | set(engine.layout.non_sensitive_values)


def _count_calls(monkeypatch, obj, name: str, calls: Dict[str, int]) -> None:
    """Count the calls to ``obj.<name>`` in ``calls[name]``."""
    inner = getattr(obj, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(obj, name, counting)


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
class TestMemoBoundedByLayout:
    def test_every_queried_bin_keeps_its_entry(self, scheme_name):
        """Querying every non-empty sensitive bin leaves one token tuple and
        one plaintext list per bin and evicts none: re-querying the first
        bin reuses its entries."""
        dataset = _make_dataset()
        engine = _make_engine(dataset, SCHEMES[scheme_name])
        values = _values_in_distinct_sensitive_bins(
            engine, sum(1 for bin_ in engine.layout.sensitive_bins if bin_.values)
        )
        for value in values:
            assert sorted(r.rid for r in engine.query(value)) == _expected_rids(
                dataset, value
            )
        assert len(engine._token_cache) == len(values)
        assert len(engine._decrypted_bin_cache) == len(values)
        assert len(engine._request_cache) == len(engine._decisions) == len(values)

        first = engine.retriever.retrieve(values[0]).sensitive_bin_index
        tokens, rows = engine._token_cache[first], engine._decrypted_bin_cache[first]
        assert isinstance(tokens, tuple)
        engine.query(values[0])
        assert engine._token_cache[first] is tokens
        assert engine._decrypted_bin_cache[first] is rows

    @pytest.mark.parametrize("placement", ["sequential", "batched", "sharded"])
    def test_repeat_workload_is_all_hits_within_layout_bounds(
        self, scheme_name, placement, monkeypatch
    ):
        """Tokens and plaintexts are computed once per sensitive bin; a
        shuffled repeat salted with unknown values computes none, answers as
        the partitions say, and leaves every memo within the layout's count
        of values, sensitive bins, or bin pairs."""
        dataset = _make_dataset()
        engine = QueryBinningEngine(
            partition=dataset.partition,
            attribute=dataset.attribute,
            scheme=SCHEMES[scheme_name](SecretKey.from_passphrase("cache-tests")),
            cloud=CloudServer(),
            rng=random.Random(3),
            multi_cloud=MultiCloud(2),
        ).setup()
        calls = {"tokens_for_values": 0, "decrypt_rows": 0}
        for name in calls:
            _count_calls(monkeypatch, engine.scheme, name, calls)

        workload = list(dataset.all_values)
        engine.execute_workload(workload, placement)
        assert calls["tokens_for_values"] == len(engine._token_cache) > 0
        assert calls["decrypt_rows"] == len(engine._decrypted_bin_cache) > 0

        calls.update(tokens_for_values=0, decrypt_rows=0)
        workload = workload * 2 + [f"unknown-{i}" for i in range(40)]
        random.Random(23).shuffle(workload)
        answers = [
            sorted(r.rid for r in rows)
            for rows, _ in engine.execute_workload_with_rows(workload, placement)
        ]
        assert answers == [_expected_rids(dataset, value) for value in workload]
        assert calls == {"tokens_for_values": 0, "decrypt_rows": 0}

        layout = engine.layout
        assert len(engine._decisions) <= len(_layout_values(engine))
        assert len(engine._token_cache) <= layout.num_sensitive_bins
        assert len(engine._decrypted_bin_cache) <= layout.num_sensitive_bins
        assert len(engine._request_cache) <= (
            layout.num_sensitive_bins * layout.num_non_sensitive_bins
        )


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
class TestRebinInvalidation:
    def test_rebin_clears_every_owner_cache(self, scheme_name):
        """A rebin re-encrypts and re-bins everything; stale tokens, interned
        requests, or plaintexts would silently answer from the dead layout."""
        dataset = _make_dataset(seed=11)
        engine = _make_engine(dataset, SCHEMES[scheme_name])

        for value in _values_in_distinct_sensitive_bins(engine, 3):
            engine.query(value)
        assert engine._token_cache and engine._decrypted_bin_cache
        assert engine._request_cache

        engine.rebin()
        assert engine._token_cache == {}
        assert engine._request_cache == {}
        assert engine._decrypted_bin_cache == {}

        # the rebuilt layout answers correctly (fresh tokens/plaintexts)
        for value in _values_in_distinct_sensitive_bins(engine, 3):
            assert sorted(r.rid for r in engine.query(value)) == _expected_rids(
                dataset, value
            )

    def test_sensitive_insert_invalidates(self, scheme_name):
        """A sensitive insert changes owner metadata (address books, counters)
        and bin ciphertexts: every cached token set and plaintext must go."""
        dataset = _make_dataset(seed=13)
        engine = _make_engine(dataset, SCHEMES[scheme_name])
        value = _values_in_distinct_sensitive_bins(engine, 1)[0]
        engine.query(value)
        assert engine._token_cache and engine._decrypted_bin_cache

        template = dict(engine.partition.sensitive.rows[0].values)
        template[engine.attribute] = value
        engine.insert(engine.partition.insert(template, sensitive=True))
        assert engine._token_cache == {}
        assert engine._request_cache == {}
        assert engine._decrypted_bin_cache == {}

        rows = sorted(r.rid for r in engine.query(value))
        assert rows == _expected_rids(dataset, value)


class TestMemoBounds:
    def test_decision_memo_skips_values_outside_the_layout(self):
        """Query values arrive from outside; one that retrieves nothing
        must not leave an entry, or distinct unknown values would grow the
        memo without bound."""
        dataset = generate_partitioned_dataset(
            num_values=100,
            sensitivity_fraction=0.5,
            association_fraction=0.6,
            tuples_per_value=1,
            seed=5,
        )
        engine = _make_engine(dataset, DeterministicScheme)
        for value in dataset.all_values:
            engine.query(value)
        for i in range(10_000):
            assert engine.query(f"unknown-{i}") == []
        assert 0 < len(engine._decisions) <= len(_layout_values(engine))

    def test_requests_stay_interned_past_1024_bin_pairs(self):
        """Every bin pair keeps its interned request, however many pairs
        the layout has: here 45 x 45 = 2,025."""
        dataset = generate_partitioned_dataset(
            num_values=2500,
            sensitivity_fraction=0.5,
            association_fraction=0.6,
            tuples_per_value=1,
            seed=3,
        )
        engine = _make_engine(dataset, DeterministicScheme)
        layout = engine.layout
        assert layout.num_sensitive_bins * layout.num_non_sensitive_bins > 1024
        values = list(dataset.all_values)
        first, _ = engine.build_requests(values)
        second, _ = engine.build_requests(values)
        assert len(first) == len(second) == len(values)
        identical = sum(a is b for a, b in zip(first, second))
        assert identical == len(values)
