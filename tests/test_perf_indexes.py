"""Parity and invariance tests for the cloud's sensitive read paths.

The cloud answers the sensitive half of a query from the requested bin's
slice or, for the reference path, from a linear scan of every stored row
(see :mod:`repro.cloud.server`); these tests pin the contract that both are
observationally identical: same rows, same order, same adversarial views.
Only the rows examined differ.  Batching
(:meth:`CloudServer.process_batch` / ``execute_workload(placement="batched")``) gets
the same treatment: it may deduplicate *work* but never merge or alter what
each query contributes to the view log and the counters.
"""

import random

import pytest

from repro.cloud.server import BatchRequest, CloudServer
from repro.cloud.storage import STORAGE_BACKENDS
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


def build_engine(
    dataset, scheme_factory, use_encrypted_indexes, seed=17, storage_backend="memory"
):
    engine = QueryBinningEngine(
        partition=dataset.partition,
        attribute=dataset.attribute,
        scheme=scheme_factory(SecretKey.from_passphrase("parity-key")),
        cloud=CloudServer(
            use_encrypted_indexes=use_encrypted_indexes,
            storage_backend=storage_backend,
        ),
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

    def test_every_scheme_store_grouped_by_bin(self, dataset):
        for name, factory in SCHEMES.items():
            engine = build_engine(dataset, factory, True)
            store = engine.cloud._bin_store
            assert store, name
            assert sum(len(rows) for rows in store.values()) == (
                engine.cloud.encrypted_row_count
            ), name

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


class TestOneReadPath:
    """A request that names its sensitive bin reads the bin's slice; one
    that names no bin scans every stored row.  There is no third path."""

    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
    def test_cold_binned_retrieval_selects_each_slice_once(self, dataset, scheme_name):
        engine = build_engine(dataset, SCHEMES[scheme_name], True, storage_backend="sqlite")
        try:
            requests, _slots = engine.build_requests(dataset.all_values)
            halves = {
                (request.sensitive_bin_index, request.tokens)
                for request in requests
                if request.tokens
            }
            # bins carry more tokens than the bound allows statements
            assert max(len(tokens) for _bin, tokens in halves) > 2
            selects = []

            def count(statement):
                if statement.lstrip().upper().startswith("SELECT"):
                    selects.append(statement)

            connection = engine.cloud.storage._connection
            connection.set_trace_callback(count)
            try:
                engine.execute_workload(dataset.all_values, placement="batched")
            finally:
                connection.set_trace_callback(None)
            # the slice and the unassigned overflow: two reads per half
            assert 0 < len(selects) <= 2 * len(halves)
        finally:
            engine.cloud.close()

    @pytest.mark.parametrize("storage_backend", STORAGE_BACKENDS)
    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
    def test_unbinned_request_scans_every_row(
        self, dataset, scheme_name, storage_backend
    ):
        engine = build_engine(
            dataset, SCHEMES[scheme_name], True, storage_backend=storage_backend
        )
        cloud, scheme, attribute = engine.cloud, engine.scheme, engine.attribute
        try:
            stored = cloud.encrypted_row_count
            for value in dataset.partition.sensitive.value_counts(attribute):
                tokens = scheme.tokens_for_values([value], attribute)
                scanned_before = cloud.stats.sensitive_rows_scanned
                response = cloud.process_request(attribute, [], tokens)
                assert cloud.stats.sensitive_rows_scanned - scanned_before == stored
                oracle = sorted(
                    row.rid
                    for row in dataset.partition.sensitive.rows
                    if row[attribute] == value
                )
                rows = scheme.decrypt_rows(response.encrypted_rows)
                assert sorted(row.rid for row in rows) == oracle, value
        finally:
            cloud.close()


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
        engine.insert(engine.partition.insert(new_values, sensitive=True))
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
