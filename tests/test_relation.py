"""Unit tests for repro.data.relation."""

import pytest

from repro.data.relation import Relation, Row, union_rows
from repro.data.schema import Attribute, Schema
from repro.exceptions import SchemaError, UnknownAttributeError


def people_schema():
    return Schema([Attribute("name"), Attribute("dept")])


def sample_relation():
    relation = Relation("people", people_schema())
    relation.insert({"name": "ann", "dept": "design"})
    relation.insert({"name": "bob", "dept": "defense"}, sensitive=True)
    relation.insert({"name": "ann", "dept": "defense"}, sensitive=True)
    return relation


class TestRow:
    def test_getitem_and_get(self):
        row = Row(rid=1, values={"name": "ann"})
        assert row["name"] == "ann"
        assert row.get("missing", "x") == "x"

    def test_getitem_unknown_raises(self):
        with pytest.raises(UnknownAttributeError):
            Row(rid=1, values={"name": "ann"})["dept"]

    def test_project_keeps_rid_and_sensitivity(self):
        row = Row(rid=7, values={"name": "ann", "dept": "d"}, sensitive=True)
        projected = row.project(["name"])
        assert projected.rid == 7 and projected.sensitive
        assert projected.as_dict() == {"name": "ann"}


class TestRelation:
    def test_insert_assigns_increasing_rids(self):
        relation = sample_relation()
        assert relation.rids == (0, 1, 2)

    def test_insert_validates_against_schema(self):
        relation = Relation("people", people_schema())
        with pytest.raises(SchemaError):
            relation.insert({"name": "ann"})

    def test_insert_with_explicit_rid_and_duplicate_rejected(self):
        relation = Relation("people", people_schema())
        relation.insert({"name": "ann", "dept": "d"}, rid=10)
        with pytest.raises(SchemaError):
            relation.insert({"name": "bob", "dept": "d"}, rid=10)

    def test_row_lookup_by_rid(self):
        relation = sample_relation()
        assert relation.row(1)["name"] == "bob"
        with pytest.raises(UnknownAttributeError):
            relation.row(99)

    def test_select_equals(self):
        relation = sample_relation()
        assert len(relation.select_equals("name", "ann")) == 2

    def test_select_equals_unknown_attribute(self):
        with pytest.raises(UnknownAttributeError):
            sample_relation().select_equals("nope", "x")

    def test_select_in(self):
        relation = sample_relation()
        rows = relation.select_in("name", {"ann", "bob"})
        assert len(rows) == 3

    def test_select_predicate(self):
        relation = sample_relation()
        rows = relation.select(lambda row: row.sensitive)
        assert {row["dept"] for row in rows} == {"defense"}

    def test_project_returns_new_relation(self):
        projected = sample_relation().project(["name"])
        assert projected.schema.names == ("name",)
        assert len(projected) == 3

    def test_filter_new_preserves_rids(self):
        relation = sample_relation()
        filtered = relation.filter_new("sensitive_only", lambda r: r.sensitive)
        assert filtered.rids == (1, 2)

    def test_value_counts(self):
        counts = sample_relation().value_counts("name")
        assert counts == {"ann": 2, "bob": 1}

    def test_distinct_values_order(self):
        assert sample_relation().distinct_values("dept") == ["design", "defense"]

    def test_extend_and_len(self):
        relation = Relation("people", people_schema())
        relation.extend([{"name": f"p{i}", "dept": "d"} for i in range(5)])
        assert len(relation) == 5

    def test_estimated_size_scales_with_rows(self):
        small = sample_relation().estimated_size_bytes()
        relation = sample_relation()
        relation.insert({"name": "zed", "dept": "d"})
        assert relation.estimated_size_bytes() > small

    def test_to_dicts_round_trip(self):
        dicts = sample_relation().to_dicts()
        rebuilt = Relation.from_dicts("copy", people_schema(), dicts)
        assert rebuilt.value_counts("name") == sample_relation().value_counts("name")


class TestUnionRows:
    def test_union_deduplicates_by_rid(self):
        a = Row(rid=1, values={"name": "ann"})
        b = Row(rid=2, values={"name": "bob"})
        same_as_a = Row(rid=1, values={"name": "ann"})
        merged = union_rows([a, b], [same_as_a])
        assert [row.rid for row in merged] == [1, 2]

    def test_union_preserves_first_seen_order(self):
        rows = [Row(rid=i, values={"name": "x", "dept": "d"}) for i in (3, 1, 2)]
        merged = union_rows(rows)
        assert [row.rid for row in merged] == [3, 1, 2]
