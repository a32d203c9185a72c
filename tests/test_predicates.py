"""Unit tests for the predicate algebra and selection/merge helpers."""

import pytest

from repro.data.relation import Row
from repro.exceptions import QueryError
from repro.query.merge import (
    filter_rows,
    group_rows_by_value,
    merge_results,
    project_rows,
)
from repro.query.predicates import (
    And,
    Equals,
    InSet,
    Not,
    Or,
    RangePredicate,
    TruePredicate,
)
from repro.query.selection import BinnedQuery, SelectionQuery


def row(**values):
    return Row(rid=values.pop("rid", 0), values=values)


class TestPredicates:
    def test_equals(self):
        pred = Equals("dept", "defense")
        assert pred.matches(row(dept="defense"))
        assert not pred.matches(row(dept="design"))
        assert pred.attributes() == ("dept",)

    def test_in_set(self):
        pred = InSet("id", ["a", "b"])
        assert pred.matches(row(id="a"))
        assert not pred.matches(row(id="z"))
        assert len(pred) == 2

    def test_range_inclusive_and_exclusive(self):
        pred = RangePredicate("age", low=10, high=20)
        assert pred.matches(row(age=10)) and pred.matches(row(age=20))
        exclusive = RangePredicate("age", low=10, high=20, include_low=False, include_high=False)
        assert not exclusive.matches(row(age=10))
        assert not exclusive.matches(row(age=20))
        assert exclusive.matches(row(age=15))

    def test_range_open_ended(self):
        assert RangePredicate("age", low=18).matches(row(age=99))
        assert RangePredicate("age", high=18).matches(row(age=5))

    def test_range_requires_a_bound(self):
        with pytest.raises(QueryError):
            RangePredicate("age")

    def test_range_null_value_never_matches(self):
        assert not RangePredicate("age", low=0).matches(row(age=None))

    def test_boolean_combinators(self):
        pred = Equals("dept", "defense") & RangePredicate("age", low=30)
        assert pred.matches(row(dept="defense", age=40))
        assert not pred.matches(row(dept="defense", age=20))
        either = Equals("dept", "defense") | Equals("dept", "design")
        assert either.matches(row(dept="design", age=1))
        negated = ~Equals("dept", "defense")
        assert negated.matches(row(dept="design"))

    def test_combined_attributes_deduplicated(self):
        pred = And([Equals("a", 1), Or([Equals("a", 2), Equals("b", 3)])])
        assert pred.attributes() == ("a", "b")

    def test_true_predicate(self):
        assert TruePredicate().matches(row(x=1))
        assert TruePredicate().attributes() == ()


class TestSelectionQuery:
    def test_describe_mentions_attribute_and_value(self):
        query = SelectionQuery("EId", "E101")
        assert "EId" in query.describe() and "E101" in query.describe()

    def test_empty_attribute_rejected(self):
        with pytest.raises(QueryError):
            SelectionQuery("", "x")

    def test_binned_query_counts_and_coverage(self):
        query = SelectionQuery("EId", "E101")
        binned = BinnedQuery(
            original=query,
            sensitive_values=("E101", "E259"),
            non_sensitive_values=("E199", "E254"),
        )
        assert binned.total_requested_values == 4
        assert binned.covers_query_value()
        missing = BinnedQuery(query, ("E1",), ("E2",))
        assert not missing.covers_query_value()


class TestMerge:
    def test_filter_rows_applies_original_predicate(self):
        query = SelectionQuery("id", "a")
        rows = [row(rid=1, id="a"), row(rid=2, id="b")]
        assert [r.rid for r in filter_rows(rows, query)] == [1]

    def test_merge_unions_and_filters(self):
        query = SelectionQuery("id", "a")
        sensitive = [row(rid=1, id="a"), row(rid=2, id="z")]
        non_sensitive = [row(rid=3, id="a"), row(rid=1, id="a")]
        merged = merge_results(query, sensitive, non_sensitive)
        assert sorted(r.rid for r in merged) == [1, 3]

    def test_merge_respects_projection(self):
        query = SelectionQuery("id", "a", projection=("id",))
        merged = merge_results(query, [row(rid=1, id="a", other=5)], [])
        assert merged[0].as_dict() == {"id": "a"}

    def test_merge_already_filtered_skips_filtering(self):
        query = SelectionQuery("id", "a")
        rows = [row(rid=9, id="zzz")]
        merged = merge_results(query, rows, [], already_filtered=True)
        assert [r.rid for r in merged] == [9]

    def test_project_rows_none_is_identity(self):
        rows = [row(rid=1, id="a")]
        assert project_rows(rows, None) == rows

    def test_grouping_matches_filter_rows_per_value(self):
        rows = [
            row(rid=1, id="a"), row(rid=2, id="b"), row(rid=3, id="a"),
            row(rid=4, id="c"), row(rid=5, id="b"),
        ]
        grouped = group_rows_by_value(rows, "id")
        for value in ("a", "b", "c", "missing"):
            query = SelectionQuery("id", value)
            assert grouped.get(value, []) == filter_rows(rows, query)
