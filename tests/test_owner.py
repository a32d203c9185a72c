"""Tests for the DB-owner façade and key store."""

import pytest

from repro.crypto.deterministic import DeterministicScheme
from repro.exceptions import ConfigurationError
from repro.owner.db_owner import DBOwner
from repro.owner.keystore import KeyStore
from repro.workloads.employee import build_employee_relation, employee_policy


class TestKeyStore:
    def test_keys_are_deterministic_per_purpose(self):
        store = KeyStore.from_passphrase("secret")
        assert store.key_for("a").material == store.key_for("a").material
        assert store.key_for("a").material != store.key_for("b").material

    def test_scheme_and_permutation_keys_differ(self):
        store = KeyStore.from_passphrase("secret")
        assert store.scheme_key("EId").material != store.permutation_key("EId").material

    def test_same_passphrase_reproduces_keys(self):
        first = KeyStore.from_passphrase("secret").scheme_key("EId")
        second = KeyStore.from_passphrase("secret").scheme_key("EId")
        assert first.material == second.material

    def test_rotate_invalidates_previous_keys(self):
        store = KeyStore.from_passphrase("secret")
        before = store.scheme_key("EId").material
        store.rotate()
        assert store.scheme_key("EId").material != before


class TestDBOwner:
    def _owner(self, **kwargs):
        return DBOwner(
            build_employee_relation(), employee_policy(), permutation_seed=7, **kwargs
        )

    def test_outsource_and_query(self):
        owner = self._owner()
        owner.outsource("EId")
        assert sorted(r["Office"] for r in owner.query("EId", "E259")) == ["2", "6"]
        assert [r["Dept"] for r in owner.query("EId", "E101")] == ["Defense"]
        assert owner.query("EId", "E000") == []

    def test_outsource_is_idempotent(self):
        owner = self._owner()
        first = owner.outsource("EId")
        second = owner.outsource("EId")
        assert first is second

    def test_query_before_outsource_rejected(self):
        with pytest.raises(ConfigurationError):
            self._owner().query("EId", "E259")

    def test_custom_scheme_is_used(self):
        owner = self._owner(scheme_factory=DeterministicScheme)
        engine = owner.outsource("EId")
        assert engine.scheme.name == "deterministic"
        assert len(owner.query("EId", "E259")) == 2

    def test_audit_full_domain_is_secure(self):
        owner = self._owner()
        owner.outsource("EId")
        values = sorted(
            set(owner.partition.sensitive.distinct_values("EId"))
            | set(owner.partition.non_sensitive.distinct_values("EId"))
        )
        owner.execute_workload("EId", values)
        report = owner.audit("EId", full_domain_queried=True)
        assert report.secure, report.violations

    def test_insert_is_classified_by_policy(self):
        owner = self._owner()
        owner.outsource("EId")
        owner.insert(
            {
                "EId": "E300",
                "FirstName": "New",
                "LastName": "Hire",
                "SSN": "777",
                "Office": "9",
                "Dept": "Design",
            }
        )
        # New Design employee is non-sensitive; its value is new, so the
        # engine places it in the bins, and the next query returns it.
        assert "E300" in owner.partition.non_sensitive.distinct_values("EId")
        assert [row["LastName"] for row in owner.query("EId", "E300")] == ["Hire"]

    def test_multiple_attributes_use_separate_clouds(self):
        owner = self._owner()
        eid_engine = owner.outsource("EId")
        office_engine = owner.outsource("Office")
        assert eid_engine.cloud is not office_engine.cloud
        assert {r["EId"] for r in owner.query("Office", "2")} == {"E259", "E199", "E159"}

    def test_metadata_size_accounts_all_attributes(self):
        owner = self._owner()
        owner.outsource("EId")
        one = owner.metadata_size_bytes()
        owner.outsource("Office")
        assert owner.metadata_size_bytes() > one

    def test_searchable_attributes_exclude_nothing_by_default(self):
        owner = self._owner()
        assert "EId" in owner.searchable_attributes()

    def test_query_with_trace(self):
        owner = self._owner()
        owner.outsource("EId")
        rows, trace = owner.query_with_trace("EId", "E259")
        assert trace.rows_after_merge == len(rows) == 2
