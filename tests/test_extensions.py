"""Tests for the full-version extensions: ranges, joins, inserts, multi-attribute."""

import random

import pytest

from repro.cloud.server import CloudServer
from repro.core.engine import QueryBinningEngine
from repro.crypto.nondeterministic import NonDeterministicScheme
from repro.data.partition import SensitivityPolicy, partition_relation
from repro.data.relation import Relation
from repro.data.schema import Attribute, Schema
from repro.exceptions import ConfigurationError, QueryError
from repro.extensions.joins import BinnedJoinExecutor
from repro.extensions.multi_attribute import MultiAttributeEngine
from repro.extensions.range_queries import RangeQueryExecutor
from repro.workloads.generator import generate_partitioned_dataset


def numeric_dataset(num_values=24, seed=3):
    """A partitioned relation whose searchable attribute is an integer."""
    schema = Schema([Attribute("k", dtype=int), Attribute("payload")])
    relation = Relation("numbers", schema)
    for value in range(num_values):
        relation.insert(
            {"k": value, "payload": f"p{value}"}, sensitive=(value % 3 == 0)
        )
    partition = partition_relation(relation, SensitivityPolicy())
    return relation, partition


def make_engine(partition, attribute, seed=5):
    return QueryBinningEngine(
        partition=partition,
        attribute=attribute,
        scheme=NonDeterministicScheme(),
        cloud=CloudServer(),
        rng=random.Random(seed),
    ).setup()


class TestRangeQueries:
    def test_range_returns_all_covered_rows(self):
        relation, partition = numeric_dataset()
        engine = make_engine(partition, "k")
        executor = RangeQueryExecutor(engine)
        rows, trace = executor.query_range(5, 12)
        expected = {r.rid for r in relation if 5 <= r["k"] <= 12}
        assert {r.rid for r in rows} == expected
        assert trace.covered_values == 8
        assert trace.rows_returned == len(expected)

    def test_open_boundaries_clamped_to_domain(self):
        relation, partition = numeric_dataset()
        executor = RangeQueryExecutor(make_engine(partition, "k"))
        rows, _ = executor.query_range(None, 3)
        assert {r["k"] for r in rows} == {0, 1, 2, 3}

    def test_empty_range_returns_nothing(self):
        _, partition = numeric_dataset()
        executor = RangeQueryExecutor(make_engine(partition, "k"))
        rows, trace = executor.query_range(1000, 2000)
        assert rows == [] and trace.covered_values == 0

    def test_requires_set_up_engine(self):
        _, partition = numeric_dataset()
        engine = QueryBinningEngine(
            partition=partition, attribute="k", scheme=NonDeterministicScheme()
        )
        with pytest.raises(ConfigurationError):
            RangeQueryExecutor(engine)

    def test_bin_pairs_bounded_by_layout(self):
        _, partition = numeric_dataset(num_values=30)
        engine = make_engine(partition, "k")
        executor = RangeQueryExecutor(engine)
        _, trace = executor.query_range(0, 29)
        max_pairs = engine.layout.num_sensitive_bins * engine.layout.num_non_sensitive_bins
        assert trace.distinct_bin_pairs <= max_pairs


class TestJoins:
    def _two_partitions(self):
        left_schema = Schema([Attribute("dept"), Attribute("employee")])
        left = Relation("employees", left_schema)
        right_schema = Schema([Attribute("dept"), Attribute("budget")])
        right = Relation("budgets", right_schema)
        for i, dept in enumerate(["sales", "eng", "eng", "hr", "ops"]):
            left.insert({"dept": dept, "employee": f"e{i}"}, sensitive=(dept == "eng"))
        for dept, budget in [("eng", "10"), ("hr", "5"), ("finance", "7")]:
            right.insert({"dept": dept, "budget": budget}, sensitive=(dept == "hr"))
        policy = SensitivityPolicy()
        return partition_relation(left, policy), partition_relation(right, policy)

    def test_join_produces_expected_pairs(self):
        left_partition, right_partition = self._two_partitions()
        left_engine = make_engine(left_partition, "dept", seed=1)
        right_engine = make_engine(right_partition, "dept", seed=2)
        joined, trace = BinnedJoinExecutor(left_engine, right_engine).execute()
        pairs = {(j.left["employee"], j.right["budget"]) for j in joined}
        assert pairs == {("e1", "10"), ("e2", "10"), ("e3", "5")}
        assert trace.output_rows == 3

    def test_join_values_can_be_overridden(self):
        left_partition, right_partition = self._two_partitions()
        left_engine = make_engine(left_partition, "dept", seed=1)
        right_engine = make_engine(right_partition, "dept", seed=2)
        joined, trace = BinnedJoinExecutor(
            left_engine, right_engine, join_values=["eng"]
        ).execute()
        assert trace.join_values_probed == 1
        assert {j.value for j in joined} == {"eng"}

    def test_joined_row_as_dict_prefixes_columns(self):
        left_partition, right_partition = self._two_partitions()
        joined, _ = BinnedJoinExecutor(
            make_engine(left_partition, "dept", 1), make_engine(right_partition, "dept", 2)
        ).execute()
        record = joined[0].as_dict()
        assert any(key.startswith("L.") for key in record)
        assert any(key.startswith("R.") for key in record)

    def test_mismatched_attributes_require_explicit_values(self):
        left_partition, right_partition = self._two_partitions()
        left_engine = make_engine(left_partition, "dept", 1)
        right_engine = make_engine(right_partition, "budget", 2)
        with pytest.raises(ConfigurationError):
            BinnedJoinExecutor(left_engine, right_engine)


def insert(engine, values, sensitive):
    """The library write path: the partition places the row, the engine
    absorbs it."""
    engine.insert(engine.partition.insert(values, sensitive=sensitive))


class TestInserts:
    def test_insert_existing_value(self, small_dataset):
        engine = make_engine(small_dataset.partition, small_dataset.attribute)
        layout = engine.layout
        value = small_dataset.all_values[0]
        before = len(engine.query(value))
        insert(engine, {"key": value, "payload": "new"}, sensitive=True)
        assert len(engine.query(value)) == before + 1
        assert engine.layout is layout  # no rebin

    def test_insert_new_value_becomes_queryable(self, small_dataset):
        engine = make_engine(small_dataset.partition, small_dataset.attribute)
        insert(engine, {"key": "brand-new", "payload": "x"}, sensitive=True)
        rows = engine.query("brand-new")
        assert len(rows) == 1
        assert engine.layout.locate_sensitive("brand-new") is not None

    def test_insert_new_non_sensitive_value(self, small_dataset):
        engine = make_engine(small_dataset.partition, small_dataset.attribute)
        insert(engine, {"key": "public-new", "payload": "y"}, sensitive=False)
        assert len(engine.query("public-new")) == 1

    def test_layout_stays_valid_after_inserts(self, small_dataset):
        engine = make_engine(small_dataset.partition, small_dataset.attribute)
        for i in range(6):
            insert(engine, {"key": f"extra{i}", "payload": "z"}, sensitive=(i % 2 == 0))
        engine.layout.validate()
        for i in range(6):
            assert len(engine.query(f"extra{i}")) == 1


class TestMultiAttribute:
    def _partition(self):
        schema = Schema([Attribute("city"), Attribute("team"), Attribute("name")])
        relation = Relation("staff", schema)
        rows = [
            ("sf", "db", "ann", True),
            ("sf", "ml", "bob", False),
            ("la", "db", "cat", True),
            ("la", "ml", "dan", False),
            ("ny", "db", "eve", False),
        ]
        for city, team, name, sensitive in rows:
            relation.insert({"city": city, "team": team, "name": name}, sensitive=sensitive)
        return partition_relation(relation, SensitivityPolicy())

    def test_queries_per_attribute(self):
        engine = MultiAttributeEngine(
            self._partition(), ["city", "team"], permutation_seed=4
        ).setup()
        assert {r["name"] for r in engine.query("city", "sf")} == {"ann", "bob"}
        assert {r["name"] for r in engine.query("team", "db")} == {"ann", "cat", "eve"}

    def test_conjunctive_query_intersects(self):
        engine = MultiAttributeEngine(
            self._partition(), ["city", "team"], permutation_seed=4
        ).setup()
        rows = engine.conjunctive_query({"city": "la", "team": "db"})
        assert [r["name"] for r in rows] == ["cat"]

    def test_unknown_attribute_rejected(self):
        engine = MultiAttributeEngine(self._partition(), ["city"], permutation_seed=4).setup()
        with pytest.raises(QueryError):
            engine.query("team", "db")

    def test_setup_validates_attributes(self):
        with pytest.raises(ConfigurationError):
            MultiAttributeEngine(self._partition(), ["nope"]).setup()
        with pytest.raises(ConfigurationError):
            MultiAttributeEngine(self._partition(), [])

    def test_storage_accounting(self):
        engine = MultiAttributeEngine(
            self._partition(), ["city", "team"], permutation_seed=4
        ).setup()
        assert engine.total_metadata_bytes() > 0
        assert engine.total_encrypted_rows() >= 2 * 2  # two copies of 2 sensitive rows

    def test_empty_conjunctive_query_rejected(self):
        engine = MultiAttributeEngine(self._partition(), ["city"], permutation_seed=4).setup()
        with pytest.raises(QueryError):
            engine.conjunctive_query({})


class TestInsertAccounting:
    """Rebins: forced when no slot is free, or asked for; every value stays
    retrievable across them."""

    def test_exhausted_capacity_rebins_and_keeps_every_value(self, small_dataset):
        engine = make_engine(small_dataset.partition, small_dataset.attribute)
        rebins = issued = 0
        for i in range(60):
            layout = engine.layout
            insert(engine, {"key": f"cram{i}", "payload": "p"}, sensitive=True)
            issued += 1
            rebins += engine.layout is not layout
            if rebins >= 2:
                break
        assert rebins >= 1, "never exhausted capacity"
        engine.layout.validate()
        # every crammed value is still retrievable after the forced rebins
        for i in range(issued):
            assert len(engine.query(f"cram{i}")) == 1

    def test_insert_rebin_insert_across_placements(self, small_dataset):
        """insert → rebin → insert on a sharded engine stays queryable under
        every placement, with identical results."""
        from repro.cloud.multi_cloud import MultiCloud

        fleet = MultiCloud(3)
        engine = QueryBinningEngine(
            partition=small_dataset.partition,
            attribute=small_dataset.attribute,
            scheme=NonDeterministicScheme(),
            cloud=CloudServer(),
            rng=random.Random(5),
            multi_cloud=fleet,
        ).setup()
        try:
            insert(engine, {"key": "pre-rebin", "payload": "a"}, sensitive=True)
            engine.rebin()  # a full fleet redeployment
            insert(engine, {"key": "post-rebin", "payload": "b"}, sensitive=False)
            workload = ["pre-rebin", "post-rebin", small_dataset.all_values[0]]
            results = {}
            for placement in ("sequential", "batched", "sharded"):
                outcome = engine.execute_workload_with_rows(
                    workload, placement=placement
                )
                results[placement] = [
                    sorted(row.rid for row in rows) for rows, _trace in outcome
                ]
                for rids in results[placement][:2]:
                    assert len(rids) == 1
            assert results["batched"] == results["sequential"]
            assert results["sharded"] == results["sequential"]
        finally:
            fleet.close()
