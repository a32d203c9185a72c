"""Tests for the comparison baselines (full encryption, Opaque, Jana, DET)."""

import pytest

from repro.baselines.cryptdb_sim import DeterministicStoreBaseline
from repro.baselines.full_encryption import FullEncryptionBaseline
from repro.baselines.jana_sim import JanaSimulator
from repro.baselines.opaque_sim import OpaqueSimulator
from repro.crypto.nondeterministic import NonDeterministicScheme
from repro.exceptions import ConfigurationError
from repro.workloads.generator import generate_partitioned_dataset


@pytest.fixture
def small_relation():
    return generate_partitioned_dataset(
        num_values=20, sensitivity_fraction=0.5, tuples_per_value=2, seed=9
    ).relation


class TestFullEncryptionBaseline:
    def test_queries_are_answered_correctly(self, small_relation):
        baseline = FullEncryptionBaseline(
            small_relation, "key", NonDeterministicScheme()
        ).setup()
        value = small_relation.distinct_values("key")[0]
        rows = baseline.query(value)
        expected = {r.rid for r in small_relation if r["key"] == value}
        assert {r.rid for r in rows} == expected

    def test_requires_setup(self, small_relation):
        baseline = FullEncryptionBaseline(small_relation, "key", NonDeterministicScheme())
        with pytest.raises(ConfigurationError):
            baseline.query("x")

    def test_trace_reports_full_scan_and_model_cost(self, small_relation):
        baseline = FullEncryptionBaseline(
            small_relation, "key", NonDeterministicScheme()
        ).setup()
        # every query scans every stored row: its request names no bin
        for query_count, value in enumerate(small_relation.distinct_values("key")[:3], 1):
            _rows, trace = baseline.query_with_trace(value)
            assert trace.tuples_scanned == len(small_relation)
            assert trace.modelled_seconds > 0
            assert baseline.cloud.stats.sensitive_rows_scanned == (
                query_count * len(small_relation)
            )

    def test_relation_is_stored_as_one_unbinned_slice(self, small_relation):
        """Without binning every row is stored under ``None``, in relation
        order, which is the slice a request naming no bin scans."""
        baseline = FullEncryptionBaseline(
            small_relation, "key", NonDeterministicScheme()
        ).setup()
        assert baseline.cloud.stored_sensitive_bins() == {None: len(small_relation)}
        [(bin_index, rows)] = baseline.cloud.sensitive_slice([None]).items()
        assert bin_index is None
        assert [row.rid for row in rows] == [row.rid for row in small_relation.rows]

    def test_modelled_cost_scales_with_relation_size(self, small_relation):
        small = FullEncryptionBaseline(
            small_relation, "key", NonDeterministicScheme()
        ).setup()
        bigger_relation = generate_partitioned_dataset(
            num_values=200, tuples_per_value=2, seed=9
        ).relation
        big = FullEncryptionBaseline(
            bigger_relation, "key", NonDeterministicScheme()
        ).setup()
        assert big.modelled_query_seconds() > small.modelled_query_seconds()


class TestOpaqueSimulator:
    def test_calibration_point(self):
        sim = OpaqueSimulator()
        assert sim.full_encryption_seconds() == pytest.approx(89.0)

    def test_table6_shape(self):
        """QB+Opaque grows roughly linearly with sensitivity and stays far
        below the 89 s full-encryption scan at low sensitivity."""
        row = OpaqueSimulator().table6_row()
        times = [row[a] for a in (0.01, 0.05, 0.2, 0.4, 0.6)]
        assert times == sorted(times)
        assert times[0] < 15  # ~11 s in the paper
        assert times[-1] < 89
        assert row[0.01] < row[0.6] < OpaqueSimulator().full_encryption_seconds() + 20

    def test_speedup_decreases_with_sensitivity(self):
        sim = OpaqueSimulator()
        assert sim.speedup_over_full_encryption(0.01) > sim.speedup_over_full_encryption(0.6)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OpaqueSimulator(dataset_tuples=0)
        with pytest.raises(ConfigurationError):
            OpaqueSimulator().qb_selection_seconds(1.5)


class TestJanaSimulator:
    def test_calibration_point(self):
        assert JanaSimulator().full_encryption_seconds() == pytest.approx(1051.0)

    def test_table6_shape(self):
        row = JanaSimulator().table6_row()
        times = [row[a] for a in (0.01, 0.05, 0.2, 0.4, 0.6)]
        assert times == sorted(times)
        assert times[0] < 60  # ~22 s in the paper
        assert 500 < times[-1] < 1051  # ~749 s in the paper

    def test_jana_slower_than_opaque_at_every_sensitivity(self):
        opaque = OpaqueSimulator().table6_row()
        jana = JanaSimulator().table6_row()
        for alpha in opaque:
            assert jana[alpha] > opaque[alpha]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            JanaSimulator(full_scan_seconds=0)


class TestDeterministicStoreBaseline:
    def test_queries_work_but_frequency_leaks(self, small_relation):
        baseline = DeterministicStoreBaseline(small_relation, "key").setup()
        value = small_relation.distinct_values("key")[0]
        rows = baseline.query(value)
        assert {r.rid for r in rows} == {
            r.rid for r in small_relation if r["key"] == value
        }
        outcome = baseline.run_frequency_attack()
        assert outcome.succeeded

    def test_relation_is_stored_as_one_unbinned_slice(self, small_relation):
        baseline = DeterministicStoreBaseline(small_relation, "key").setup()
        assert baseline.cloud.stored_sensitive_bins() == {None: len(small_relation)}
        [(bin_index, rows)] = baseline.cloud.sensitive_slice([None]).items()
        assert bin_index is None
        assert [row.rid for row in rows] == [row.rid for row in small_relation.rows]

    def test_requires_setup(self, small_relation):
        baseline = DeterministicStoreBaseline(small_relation, "key")
        with pytest.raises(ConfigurationError):
            baseline.query("x")

    def test_workload_execution_counts_queries(self, small_relation):
        baseline = DeterministicStoreBaseline(small_relation, "key").setup()
        values = small_relation.distinct_values("key")[:5]
        assert baseline.execute_workload(values) == 5
