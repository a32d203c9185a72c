"""Integration-style tests for the QB and naive partitioned engines."""

import random

import pytest

from repro.cloud.server import CloudServer
from repro.core.engine import NaivePartitionedEngine, QueryBinningEngine
from repro.crypto.arx_index import ArxIndexScheme
from repro.crypto.deterministic import DeterministicScheme
from repro.crypto.nondeterministic import NonDeterministicScheme
from repro.crypto.searchable import SSEScheme
from repro.exceptions import ConfigurationError
from repro.workloads.generator import generate_partitioned_dataset


def make_engine(dataset, scheme=None, **kwargs):
    engine = QueryBinningEngine(
        partition=dataset.partition,
        attribute=dataset.attribute,
        scheme=scheme or NonDeterministicScheme(),
        cloud=CloudServer(),
        rng=random.Random(17),
        **kwargs,
    )
    return engine.setup()


def plain_answer(dataset, value):
    """Ground truth: rids of all rows matching the value in the original data."""
    return {
        row.rid for row in dataset.relation if row[dataset.attribute] == value
    }


class TestQueryBinningCorrectness:
    def test_every_value_returns_exactly_the_matching_rows(self, small_dataset):
        engine = make_engine(small_dataset)
        for value in small_dataset.all_values:
            rows = engine.query(value)
            assert {row.rid for row in rows} == plain_answer(small_dataset, value)

    def test_unknown_value_returns_empty_without_touching_cloud(self, small_dataset):
        engine = make_engine(small_dataset)
        before = len(engine.cloud.view_log)
        assert engine.query("not-a-value") == []
        assert len(engine.cloud.view_log) == before

    def test_correctness_with_skewed_counts(self, skewed_dataset):
        engine = make_engine(skewed_dataset)
        for value in skewed_dataset.all_values:
            rows = engine.query(value)
            assert {row.rid for row in rows} == plain_answer(skewed_dataset, value)

    @pytest.mark.parametrize("scheme_cls", [DeterministicScheme, SSEScheme, ArxIndexScheme])
    def test_correctness_over_other_schemes(self, small_dataset, scheme_cls):
        engine = make_engine(small_dataset, scheme=scheme_cls())
        for value in list(small_dataset.all_values)[:10]:
            rows = engine.query(value)
            assert {row.rid for row in rows} == plain_answer(small_dataset, value)

    def test_requires_setup(self, small_dataset):
        engine = QueryBinningEngine(
            partition=small_dataset.partition,
            attribute=small_dataset.attribute,
            scheme=NonDeterministicScheme(),
        )
        with pytest.raises(ConfigurationError):
            engine.query("v000000")


class TestQueryBinningBehaviour:
    def test_requests_cover_whole_bins(self, small_dataset):
        engine = make_engine(small_dataset)
        value = small_dataset.all_values[0]
        _rows, trace = engine.query_with_trace(value)
        assert trace.binned is not None
        layout = engine.layout
        assert trace.sensitive_values_requested in {0, *{b.size for b in layout.sensitive_bins}}
        assert trace.non_sensitive_values_requested in {
            0,
            *{b.size for b in layout.non_sensitive_bins},
        }

    def test_rewrite_exposes_bins_without_executing(self, small_dataset):
        engine = make_engine(small_dataset)
        before = len(engine.cloud.view_log)
        binned = engine.rewrite(small_dataset.all_values[0])
        assert binned.total_requested_values > 0
        assert len(engine.cloud.view_log) == before

    def test_fake_tuples_outsourced_for_skewed_data(self, skewed_dataset):
        engine = make_engine(skewed_dataset)
        assert engine.plan.strategy == "general"
        expected_fakes = sum(engine.layout.fake_tuples.values())
        assert engine.fake_rows_outsourced == expected_fakes
        real_rows = len(skewed_dataset.partition.sensitive)
        assert engine.cloud.encrypted_row_count == real_rows + expected_fakes

    def test_fake_tuples_never_reach_query_answers(self, skewed_dataset):
        engine = make_engine(skewed_dataset)
        for value in skewed_dataset.all_values[:8]:
            for row in engine.query(value):
                assert row.rid >= 0

    def test_fake_tuples_can_be_disabled(self, skewed_dataset):
        engine = make_engine(skewed_dataset, add_fake_tuples=False)
        assert engine.fake_rows_outsourced == 0

    def test_equal_sensitive_output_sizes_with_fakes(self, skewed_dataset):
        """With padding, every sensitive bin returns the same number of
        encrypted tuples — the property that defeats the size attack."""
        engine = make_engine(skewed_dataset)
        sizes = set()
        for value in skewed_dataset.all_values:
            _rows, trace = engine.query_with_trace(value)
            if trace.binned is not None and trace.sensitive_values_requested:
                sizes.add(trace.encrypted_rows_returned)
        assert len(sizes) == 1

    def test_execute_workload_returns_traces(self, small_dataset):
        engine = make_engine(small_dataset)
        traces = engine.execute_workload(small_dataset.all_values[:5])
        assert len(traces) == 5
        assert all(trace.rows_after_merge >= 0 for trace in traces)

    def test_insert_existing_value_visible_in_queries(self, small_dataset):
        engine = make_engine(small_dataset)
        value = small_dataset.all_values[0]
        before = len(engine.query(value))
        engine.insert(
            engine.partition.insert({"key": value, "payload": "fresh"}, sensitive=True)
        )
        assert len(engine.query(value)) == before + 1

    def test_force_layout_is_respected(self, small_dataset):
        engine = make_engine(small_dataset, force_layout=(3, 10))
        assert engine.layout.num_sensitive_bins == 3
        assert engine.layout.num_non_sensitive_bins == 10


class TestNaiveEngine:
    def test_naive_returns_correct_answers(self, employee_split):
        engine = NaivePartitionedEngine(
            partition=employee_split,
            attribute="EId",
            scheme=NonDeterministicScheme(),
            cloud=CloudServer(),
        ).setup()
        assert len(engine.query("E259")) == 2
        assert len(engine.query("E101")) == 1
        assert len(engine.query("E199")) == 1
        assert engine.query("E000") == []

    def test_naive_sends_exact_values(self, employee_split):
        engine = NaivePartitionedEngine(
            partition=employee_split,
            attribute="EId",
            scheme=NonDeterministicScheme(),
            cloud=CloudServer(),
        ).setup()
        engine.query("E259")
        view = engine.cloud.view_log.views[0]
        assert view.non_sensitive_request == ("E259",)

    def test_naive_requires_setup(self, employee_split):
        engine = NaivePartitionedEngine(
            partition=employee_split, attribute="EId", scheme=NonDeterministicScheme()
        )
        with pytest.raises(ConfigurationError):
            engine.query("E259")
