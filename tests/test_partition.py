"""Unit tests for repro.data.partition (row/column sensitivity splitting)."""

import pytest

from repro.data.partition import (
    SensitivityPolicy,
    partition_by_fraction,
    partition_relation,
)
from repro.data.relation import Relation, Row
from repro.data.schema import Attribute, Schema
from repro.exceptions import PartitioningError, UnknownAttributeError
from repro.workloads.employee import (
    build_employee_relation,
    employee_policy,
    employee_schema,
)


class TestSensitivityPolicy:
    def test_value_based_classification(self):
        policy = SensitivityPolicy(sensitive_values={"dept": {"defense"}})
        row = Row(rid=0, values={"dept": "defense"})
        assert policy.is_sensitive_row(row)
        assert not policy.is_sensitive_row(Row(rid=1, values={"dept": "design"}))

    def test_predicate_based_classification(self):
        policy = SensitivityPolicy(row_predicate=lambda r: r["salary"] > 100)
        assert policy.is_sensitive_row(Row(rid=0, values={"salary": 200}))
        assert not policy.is_sensitive_row(Row(rid=1, values={"salary": 50}))

    def test_row_flag_classification(self):
        policy = SensitivityPolicy()
        assert policy.is_sensitive_row(Row(rid=0, values={}, sensitive=True))
        assert not SensitivityPolicy(use_row_flags=False).is_sensitive_row(
            Row(rid=0, values={}, sensitive=True)
        )


class TestEmployeePartition:
    def test_matches_paper_figure2(self):
        result = partition_relation(build_employee_relation(), employee_policy())
        # Employee2: the four Defense tuples t1, t4, t5, t7 (rids 0, 3, 4, 6).
        assert result.sensitive.rids == (0, 3, 4, 6)
        # Employee3: the four Design tuples t2, t3, t6, t8 (rids 1, 2, 5, 7).
        assert result.non_sensitive.rids == (1, 2, 5, 7)

    def test_vertical_split_contains_ssn(self):
        result = partition_relation(build_employee_relation(), employee_policy())
        assert result.vertical is not None
        assert result.vertical.schema.names == ("EId", "SSN")
        # 6 distinct (EId, SSN) pairs in Figure 2a.
        assert len(result.vertical) == 6

    def test_ssn_removed_from_horizontal_partitions(self):
        result = partition_relation(build_employee_relation(), employee_policy())
        assert "SSN" not in result.sensitive.schema
        assert "SSN" not in result.non_sensitive.schema

    def test_sensitivity_fraction(self):
        result = partition_relation(build_employee_relation(), employee_policy())
        assert result.sensitivity_fraction == pytest.approx(0.5)

    def test_partition_values_accessors(self):
        result = partition_relation(build_employee_relation(), employee_policy())
        assert set(result.sensitive_values("EId")) == {"E101", "E259", "E152", "E159"}
        assert set(result.non_sensitive_values("EId")) == {"E259", "E199", "E254", "E152"}


class TestPartitionValidation:
    def test_vertical_split_requires_key(self):
        policy = SensitivityPolicy(sensitive_attributes=("SSN",))
        with pytest.raises(PartitioningError):
            partition_relation(build_employee_relation(), policy)

    def test_vertical_split_requires_existing_key(self):
        policy = SensitivityPolicy(sensitive_attributes=("SSN",), key_attribute="Nope")
        with pytest.raises(PartitioningError):
            partition_relation(build_employee_relation(), policy)


class TestPartitionByFraction:
    def _relation(self, num_values=10):
        schema = Schema([Attribute("key"), Attribute("payload")])
        relation = Relation("r", schema)
        for i in range(num_values):
            relation.insert({"key": f"k{i}", "payload": str(i)})
        return relation

    def test_fraction_zero_and_one(self):
        relation = self._relation()
        all_ns = partition_by_fraction(relation, "key", 0.0)
        assert len(all_ns.sensitive) == 0 and len(all_ns.non_sensitive) == 10
        all_s = partition_by_fraction(relation, "key", 1.0)
        assert len(all_s.sensitive) == 10 and len(all_s.non_sensitive) == 0

    def test_fraction_partial(self):
        result = partition_by_fraction(self._relation(), "key", 0.3)
        assert len(result.sensitive) == 3
        assert len(result.non_sensitive) == 7

    def test_invalid_fraction_raises(self):
        with pytest.raises(PartitioningError):
            partition_by_fraction(self._relation(), "key", 1.5)

    def test_total_rows_preserved(self):
        relation = self._relation(25)
        result = partition_by_fraction(relation, "key", 0.4)
        assert result.total_rows == 25


def _contents(relation):
    return [(row.rid, dict(row.values), row.sensitive) for row in relation]


class TestPartitionInsert:
    """``PartitionResult.insert`` puts a row where ``partition_relation``
    would have put it."""

    def test_inserts_match_partitioning_the_whole_relation(self):
        rows = build_employee_relation().to_dicts()
        head = Relation.from_dicts("Employee", employee_schema(), rows[:5])
        result = partition_relation(head, employee_policy())
        for values in rows[5:]:
            result.insert(values)
        whole = partition_relation(build_employee_relation(), employee_policy())
        assert _contents(result.sensitive) == _contents(whole.sensitive)
        assert _contents(result.non_sensitive) == _contents(whole.non_sensitive)
        assert _contents(result.vertical) == _contents(whole.vertical)

    def test_fresh_rids_are_unused_on_either_side(self):
        result = partition_relation(build_employee_relation(), employee_policy())
        taken = set(result.sensitive.rids) | set(result.non_sensitive.rids)
        values = dict(build_employee_relation().rows[0].values)
        first = result.insert(values)
        second = result.insert({**values, "Dept": "Design"})
        assert first.sensitive and not second.sensitive
        assert len({first.rid, second.rid} | taken) == len(taken) + 2

    def test_row_flag_is_honoured_when_the_policy_uses_it(self):
        relation = Relation.from_dicts(
            "r", Schema([Attribute("key")]), [{"key": "a"}, {"key": "b"}]
        )
        flags = partition_relation(relation, SensitivityPolicy())
        assert flags.insert({"key": "c"}, sensitive=True).sensitive
        assert not flags.insert({"key": "d"}).sensitive
        no_flags = partition_relation(relation, SensitivityPolicy(use_row_flags=False))
        assert not no_flags.insert({"key": "e"}, sensitive=True).sensitive

    def test_missing_attribute_changes_nothing(self):
        result = partition_relation(build_employee_relation(), employee_policy())
        before = [len(result.sensitive), len(result.non_sensitive), len(result.vertical)]
        with pytest.raises(UnknownAttributeError):
            result.insert({"EId": "E1", "SSN": "1", "Dept": "Defense"})
        after = [len(result.sensitive), len(result.non_sensitive), len(result.vertical)]
        assert after == before
