"""Parity and invariance tests for the encrypted search index subsystem.

The cloud may answer the sensitive half of a query three ways (tag index,
bin-addressed store, linear scan — see :mod:`repro.cloud.server`); these tests
pin the contract that all paths are observationally identical: same rows, same
order, same adversarial views, same statistics.  Batching
(:meth:`CloudServer.process_batch` / ``execute_workload(placement="batched")``) gets
the same treatment: it may deduplicate *work* but never merge or alter what
each query contributes to the view log and the counters.
"""

import random

import pytest

from repro.cloud.server import BatchRequest, CloudServer
from repro.core.engine import QueryBinningEngine
from repro.crypto.arx_index import ArxIndexScheme
from repro.crypto.deterministic import DeterministicScheme
from repro.crypto.nondeterministic import NonDeterministicScheme
from repro.crypto.primitives import SecretKey
from repro.crypto.searchable import SSEScheme
from repro.workloads.generator import generate_partitioned_dataset

SCHEMES = {
    "deterministic": DeterministicScheme,
    "arx-index": ArxIndexScheme,
    "non-deterministic": NonDeterministicScheme,
    "sse": SSEScheme,
}

#: general-case dataset (skewed multiplicities force fake tuples)
DATASET_KWARGS = dict(
    num_values=24,
    sensitivity_fraction=0.5,
    association_fraction=0.6,
    tuples_per_value=3,
    skew_exponent=1.1,
    seed=9,
)


def build_engine(dataset, scheme_factory, use_encrypted_indexes, seed=17):
    engine = QueryBinningEngine(
        partition=dataset.partition,
        attribute=dataset.attribute,
        scheme=scheme_factory(SecretKey.from_passphrase("parity-key")),
        cloud=CloudServer(use_encrypted_indexes=use_encrypted_indexes),
        rng=random.Random(seed),
    )
    return engine.setup()


@pytest.fixture(scope="module")
def dataset():
    return generate_partitioned_dataset(**DATASET_KWARGS)


class TestIndexedLinearParity:
    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
    def test_every_query_returns_identical_rows(self, dataset, scheme_name):
        indexed = build_engine(dataset, SCHEMES[scheme_name], True)
        linear = build_engine(dataset, SCHEMES[scheme_name], False)
        for value in dataset.all_values:
            indexed_rows = indexed.query(value)
            linear_rows = linear.query(value)
            assert sorted(r.rid for r in indexed_rows) == sorted(
                r.rid for r in linear_rows
            ), f"row set diverged for {value!r} under {scheme_name}"

    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
    def test_adversarial_views_are_identical(self, dataset, scheme_name):
        """The index must not change what the cloud observes — not even order."""
        indexed = build_engine(dataset, SCHEMES[scheme_name], True)
        linear = build_engine(dataset, SCHEMES[scheme_name], False)
        for value in dataset.all_values:
            indexed.query(value)
            linear.query(value)
        assert len(indexed.cloud.view_log) == len(linear.cloud.view_log)
        for via, vib in zip(indexed.cloud.view_log, linear.cloud.view_log):
            assert via.non_sensitive_request == vib.non_sensitive_request
            assert via.sensitive_request_size == vib.sensitive_request_size
            assert via.returned_sensitive_rids == vib.returned_sensitive_rids
            assert via.sensitive_bin_index == vib.sensitive_bin_index

    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
    def test_indexed_path_scans_fewer_rows(self, dataset, scheme_name):
        indexed = build_engine(dataset, SCHEMES[scheme_name], True)
        linear = build_engine(dataset, SCHEMES[scheme_name], False)
        for value in dataset.all_values:
            indexed.query(value)
            linear.query(value)
        assert (
            indexed.cloud.stats.sensitive_rows_scanned
            < linear.cloud.stats.sensitive_rows_scanned
        )

    def test_tag_index_built_for_capable_schemes(self, dataset):
        for name, factory in SCHEMES.items():
            engine = build_engine(dataset, factory, True)
            if factory.supports_tag_index:
                assert engine.cloud._tag_index is not None, name
            else:
                assert engine.cloud._tag_index is None, name
                assert engine.cloud._bin_store is not None, name

    def test_bin_store_scan_bounded_by_bin_size(self, dataset):
        """SSE (no stable tags) scans one bin's slice, never the relation."""
        engine = build_engine(dataset, SSEScheme, True)
        total = engine.cloud.encrypted_row_count
        for value in dataset.all_values:
            _, trace = engine.query_with_trace(value)
            del trace
        per_query = [
            view.sensitive_request_size for view in engine.cloud.view_log
        ]
        assert per_query  # sanity: sensitive requests happened
        store = engine.cloud._bin_store
        largest_bin = max(len(rows) for rows in store.values())
        assert largest_bin < total
        # every response examined at most one bin's rows
        last = engine.cloud.process_request(
            engine.attribute,
            [],
            engine.tokens_for_decision(engine.retriever.retrieve(dataset.all_values[0])),
            sensitive_bin_index=engine.retriever.retrieve(
                dataset.all_values[0]
            ).sensitive_bin_index,
        )
        assert last.sensitive_scanned <= largest_bin


class TestBatchingInvariance:
    def _workload(self, dataset, repeats=3, seed=41):
        rng = random.Random(seed)
        workload = list(dataset.all_values) * repeats
        rng.shuffle(workload)
        return workload

    @pytest.mark.parametrize("scheme_name", ["deterministic", "sse"])
    def test_batched_equals_sequential(self, dataset, scheme_name):
        sequential = build_engine(dataset, SCHEMES[scheme_name], True)
        batched = build_engine(dataset, SCHEMES[scheme_name], True)
        workload = self._workload(dataset)

        traces_seq = sequential.execute_workload(workload, placement="sequential")
        traces_bat = batched.execute_workload(workload)

        assert len(traces_seq) == len(traces_bat)
        for ts, tb in zip(traces_seq, traces_bat):
            assert ts.query == tb.query
            assert ts.sensitive_values_requested == tb.sensitive_values_requested
            assert ts.non_sensitive_values_requested == tb.non_sensitive_values_requested
            assert ts.encrypted_rows_returned == tb.encrypted_rows_returned
            assert ts.non_sensitive_rows_returned == tb.non_sensitive_rows_returned
            assert ts.rows_after_merge == tb.rows_after_merge
            assert ts.transfer_seconds == pytest.approx(tb.transfer_seconds)

        # CloudStatistics must be unchanged by batching, field for field.
        assert sequential.cloud.stats == batched.cloud.stats

        # The tag index's own work counters must not diverge either.
        if sequential.cloud._tag_index is not None:
            assert (
                sequential.cloud._tag_index.probe_count
                == batched.cloud._tag_index.probe_count
            )
            assert (
                sequential.cloud._tag_index.rows_examined
                == batched.cloud._tag_index.rows_examined
            )

        # Each query keeps its own adversarial view: same count, same content.
        assert len(sequential.cloud.view_log) == len(batched.cloud.view_log)
        for vs, vb in zip(sequential.cloud.view_log, batched.cloud.view_log):
            assert vs.query_id == vb.query_id
            assert vs.request_signature() == vb.request_signature()
            assert vs.sensitive_bin_index == vb.sensitive_bin_index
            assert vs.non_sensitive_bin_index == vb.non_sensitive_bin_index

    def test_process_batch_dedupes_shared_retrievals(self, dataset):
        """Duplicate requests in one batch share one computed result list."""
        engine = build_engine(dataset, DeterministicScheme, True)
        decision = engine.retriever.retrieve(dataset.all_values[0])
        request = BatchRequest(
            attribute=engine.attribute,
            cleartext_values=tuple(decision.non_sensitive_values),
            tokens=tuple(engine.tokens_for_decision(decision)),
            sensitive_bin_index=decision.sensitive_bin_index,
            non_sensitive_bin_index=decision.non_sensitive_bin_index,
        )
        responses = engine.cloud.process_batch([request, request, request])
        assert len(responses) == 3
        first = responses[0]
        for other in responses[1:]:
            # identity, not equality: the retrieval ran once
            assert other.encrypted_rows is first.encrypted_rows
            assert other.non_sensitive_rows is first.non_sensitive_rows
        # ...but every request produced its own view.
        assert len(engine.cloud.view_log) == 3


class TestOwnerSideCaching:
    class CountingScheme(DeterministicScheme):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.token_calls = 0

        def tokens_for_values(self, values, attribute):
            self.token_calls += 1
            return super().tokens_for_values(values, attribute)

    def test_tokens_cached_per_bin(self, dataset):
        engine = build_engine(dataset, self.CountingScheme, True)
        value = dataset.all_values[0]
        engine.query(value)
        calls_after_first = engine.scheme.token_calls
        engine.query(value)
        engine.query(value)
        assert engine.scheme.token_calls == calls_after_first

    def test_sensitive_insert_invalidates_token_cache(self, dataset):
        engine = build_engine(dataset, self.CountingScheme, True)
        value = next(
            v
            for v in dataset.all_values
            if engine.layout.locate_sensitive(v) is not None
        )
        engine.query(value)
        calls_after_first = engine.scheme.token_calls
        template = next(iter(engine.partition.sensitive.rows))
        new_values = dict(template.values)
        new_values[engine.attribute] = value
        engine.insert(new_values, sensitive=True)
        rows = engine.query(value)
        assert engine.scheme.token_calls > calls_after_first
        # the fresh tokens surface the inserted row
        assert any(r[engine.attribute] == value for r in rows)

    def test_fake_rows_batch_generated(self, dataset):
        engine = build_engine(dataset, DeterministicScheme, True)
        layout = engine.layout
        assert engine.fake_rows_outsourced == sum(layout.fake_tuples.values())
        assert engine.fake_rows_outsourced > 0  # the skewed dataset pads
        fakes = [row for row in engine.cloud.stored_encrypted_rows if row.is_fake]
        assert len(fakes) == engine.fake_rows_outsourced


class TestCloudHotPathFixes:
    def test_hash_index_lookup_does_not_copy(self, dataset):
        from repro.cloud.indexes import HashIndex

        relation = dataset.partition.non_sensitive
        index = HashIndex(relation, dataset.attribute)
        hit_value = next(iter(relation)).values[dataset.attribute]
        assert index.lookup(hit_value) is index.lookup(hit_value)
        assert index.lookup("definitely-missing") == []

    def test_stored_encrypted_rows_cached_until_mutation(self, dataset):
        engine = build_engine(dataset, DeterministicScheme, True)
        server = engine.cloud
        snapshot = server.stored_encrypted_rows
        template = next(iter(engine.partition.sensitive.rows))
        extra = engine.scheme.encrypt_rows([template], engine.attribute)
        server.append_sensitive(extra)
        refreshed = server.stored_encrypted_rows
        assert len(refreshed) == len(snapshot) + 1
