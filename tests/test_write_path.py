"""One write path: the partition's policy splits each inserted row, and every
outsourced attribute's engine places its value.

Each test pins one way an insert went wrong before the two steps were one
path: a write acknowledged and never returned, a column-level attribute
outsourced in clear, two engines handing out one rid, a value placed off
its transpose slot, a row flag the wire could not carry, a malformed row
that changed state before it was refused, and a row with no binned value
kept in the partition and later stored outside every bin.
"""

from contextlib import contextmanager

import pytest

from repro.cloud.server import CloudServer
from repro.core.engine import QueryBinningEngine
from repro.crypto.deterministic import DeterministicScheme
from repro.crypto.primitives import SecretKey
from repro.data.partition import SensitivityPolicy
from repro.data.relation import Relation
from repro.data.schema import Attribute, Schema
from repro.exceptions import ConfigurationError, SchemaError, ServiceError
from repro.owner.db_owner import DBOwner
from repro.service import EncryptedSearchService, ServiceClient, TenantRegistry
from repro.workloads.employee import build_employee_relation, employee_policy
from repro.workloads.generator import generate_partitioned_dataset


def employee_row(eid, dept, first="New", last="Hire", ssn="999"):
    return {
        "EId": eid, "FirstName": first, "LastName": last,
        "SSN": ssn, "Office": "9", "Dept": dept,
    }


def employee_owner(*attributes, **kwargs):
    owner = DBOwner(
        build_employee_relation(), employee_policy(), permutation_seed=7, **kwargs
    )
    for attribute in attributes or ("EId",):
        owner.outsource(attribute)
    return owner


def oracle(owner, attribute, value):
    """The plaintext selection over ``Rs ∪ Rns``: the rids an answer holds."""
    partition = owner.partition
    return sorted(
        row.rid
        for relation in (partition.sensitive, partition.non_sensitive)
        for row in relation
        if row[attribute] == value
    )


def rids(rows):
    return sorted(row.rid for row in rows)


@contextmanager
def serving(owner):
    """A service with ``owner`` as tenant ``acme``, and a client for it."""
    registry = TenantRegistry()
    registry.register_session("acme", owner)
    service = EncryptedSearchService(registry, num_workers=2).start()
    try:
        with ServiceClient(*service.address) as client:
            yield client
    finally:
        service.stop()


class TestNewValues:
    """A value the layout lacks is placed (or rebinned) and returned."""

    def test_owner_insert_returns_new_values(self):
        owner = employee_owner()
        owner.insert(employee_row("E998", "Defense"))
        owner.insert(employee_row("E999", "Design"))
        for value in ("E998", "E999"):
            rows = owner.query("EId", value)
            assert [row["LastName"] for row in rows] == ["Hire"]
            assert rids(rows) == oracle(owner, "EId", value)

    def test_sharded_fleet_returns_new_values(self):
        owner = employee_owner(num_clouds=2)
        try:
            owner.insert(employee_row("E998", "Defense"))
            owner.insert(employee_row("E999", "Design"))
            engine = owner.engine_for("EId")
            for placement in ("sharded", "sequential"):
                outcome = engine.execute_workload_with_rows(
                    ["E998", "E999"], placement=placement
                )
                for value, (rows, _trace) in zip(["E998", "E999"], outcome):
                    assert len(rows) == 1
                    assert rids(rows) == oracle(owner, "EId", value)
        finally:
            owner.close()

    def test_service_insert_returns_new_values(self):
        owner = employee_owner()
        with serving(owner) as client:
            client.insert("acme", employee_row("E998", "Defense"))
            client.insert("acme", employee_row("E999", "Design"))
            for value in ("E998", "E999"):
                rows = client.query("acme", "EId", value)
                assert [values["LastName"] for _rid, values in rows] == ["Hire"]
                assert sorted(rid for rid, _values in rows) == oracle(owner, "EId", value)


def _payload_is_sensitive(row):
    return str(row.get("payload", "")).startswith("s-")


@pytest.mark.parametrize(
    "seed, skew", [(3, None), (5, 1.1)], ids=["uniform-seed3", "zipf-seed5"]
)
@pytest.mark.parametrize("direction", ["to-cleartext", "to-sensitive"])
def test_cross_side_inserts_keep_the_layout_and_the_answers(seed, skew, direction):
    """A value one side holds, inserted on the other side, takes its
    transpose slot or rebins: every answer equals the plaintext oracle and
    the layout stays valid (general-case data, 13x13 bins)."""
    dataset = generate_partitioned_dataset(
        num_values=200, sensitivity_fraction=0.5, association_fraction=0.6,
        tuples_per_value=3, skew_exponent=skew, seed=seed,
    )
    owner = DBOwner(
        dataset.relation,
        SensitivityPolicy(row_predicate=_payload_is_sensitive),
        permutation_seed=seed,
    )
    engine = owner.outsource("key")
    assert engine.plan.strategy == "general"
    held, other = dataset.sensitive_counts, dataset.non_sensitive_counts
    marker = "ns"
    if direction == "to-sensitive":
        held, other, marker = other, held, "s"
    pool = [value for value in held if value not in other]
    for index, value in enumerate(pool[:40]):
        owner.insert({"key": value, "payload": f"{marker}-payload-{value}-x{index}"})
        engine.layout.validate()
        assert rids(owner.query("key", value)) == oracle(owner, "key", value)
    for value in dataset.all_values:
        assert rids(owner.query("key", value)) == oracle(owner, "key", value)


def test_one_insert_reaches_two_outsourced_attributes():
    owner = employee_owner("EId", "FirstName")
    owner.insert(employee_row("E996", "Design", first="Zed"))
    by_eid = owner.query("EId", "E996")
    by_name = owner.query("FirstName", "Zed")
    assert len(by_eid) == 1
    assert rids(by_eid) == rids(by_name) == oracle(owner, "EId", "E996")


def test_column_level_attribute_never_reaches_a_cloud():
    """``SSN`` goes to the vertical relation: no cloud stores, sees or
    answers it, whichever side the row lands on."""
    owner = employee_owner(num_clouds=2)
    try:
        owner.insert(employee_row("E259", "Design", ssn="999-SECRET"))
        owner.insert(employee_row("E101", "Defense", ssn="998-SECRET"))
        engine = owner.engine_for("EId")
        answers = [row for value in ("E259", "E101") for row in owner.query("EId", value)]
        for rows, _trace in engine.execute_workload_with_rows(
            ["E259", "E101"], placement="sharded"
        ):
            answers.extend(rows)
        assert len(answers) == 2 * (3 + 2)
        assert all("SSN" not in row.values for row in answers)
        for server in [engine.cloud] + list(engine.multi_cloud.servers):
            assert all("SSN" not in row.values for row in server.non_sensitive_relation)
            views = list(server.view_log.views)
            assert all(
                "SSN" not in row.values
                for view in views
                for row in view.returned_non_sensitive
            )
        pairs = {(row["EId"], row["SSN"]) for row in owner.partition.vertical}
        assert {("E259", "999-SECRET"), ("E101", "998-SECRET")} <= pairs
    finally:
        owner.close()


class TestRowFlag:
    """An insert carries its row's own flag, which ``use_row_flags`` reads."""

    def _owner(self):
        dataset = generate_partitioned_dataset(
            num_values=30, sensitivity_fraction=0.4, association_fraction=0.5, seed=21
        )
        owner = DBOwner(
            dataset.relation, SensitivityPolicy(use_row_flags=True), permutation_seed=5
        )
        owner.outsource("key")
        cleartext_only = next(
            v for v in dataset.non_sensitive_counts if v not in dataset.sensitive_counts
        )
        return owner, cleartext_only

    def test_flagged_service_insert_is_sensitive_and_returned(self):
        owner, cleartext_only = self._owner()
        with serving(owner) as client:
            for value in (cleartext_only, "flag-new"):
                client.insert(
                    "acme", {"key": value, "payload": f"flagged-{value}"}, sensitive=True
                )
                rows = client.query("acme", "key", value)
                assert f"flagged-{value}" in {values["payload"] for _rid, values in rows}
                assert sorted(rid for rid, _values in rows) == oracle(owner, "key", value)
            client.call("acme", "insert", ({"key": "plain-new", "payload": "plain"},))
            with pytest.raises(ServiceError):
                client.call("acme", "insert", ({"key": "x", "payload": "y"}, "yes"))
        sensitive = {row["payload"] for row in owner.partition.sensitive}
        assert {f"flagged-{cleartext_only}", "flagged-flag-new"} <= sensitive
        assert "plain" not in sensitive
        assert "plain" in {row["payload"] for row in owner.partition.non_sensitive}

    def test_owner_insert_many_carries_the_flag(self):
        owner, cleartext_only = self._owner()
        rows = [
            {"key": cleartext_only, "payload": "f1"},
            {"key": "flag-new", "payload": "f2"},
        ]
        owner.insert_many(rows, sensitive=True)
        assert {row["payload"] for row in owner.partition.sensitive} >= {"f1", "f2"}
        for value in (cleartext_only, "flag-new"):
            assert rids(owner.query("key", value)) == oracle(owner, "key", value)


MALFORMED_ROWS = {
    "missing-key": {k: v for k, v in employee_row("E1", "Design").items() if k != "EId"},
    "none-key": employee_row(None, "Design"),
    "extra-column": {**employee_row("E1", "Design"), "Salary": "1"},
    "wrong-type": {**employee_row("E1", "Design"), "Office": 9},
}


def _stored_sizes(owner):
    partition = owner.partition
    return (
        len(partition.sensitive),
        len(partition.non_sensitive),
        len(partition.vertical),
        owner.engine_for("EId").cloud.encrypted_row_count,
    )


@pytest.mark.parametrize("kind", sorted(MALFORMED_ROWS))
def test_malformed_service_insert_is_refused_before_any_write(kind):
    owner = employee_owner()
    before = _stored_sizes(owner)
    with serving(owner) as client:
        with pytest.raises(SchemaError):
            client.insert("acme", MALFORMED_ROWS[kind])
        assert _stored_sizes(owner) == before
        assert client.ping("acme") == "pong"


def test_malformed_row_refuses_the_whole_batch():
    owner = employee_owner()
    before = _stored_sizes(owner)
    with pytest.raises(SchemaError):
        owner.insert_many(
            [employee_row("E994", "Defense"), MALFORMED_ROWS["none-key"]]
        )
    assert _stored_sizes(owner) == before
    assert owner.query("EId", "E994") == []


def test_library_insert_without_a_binned_value_changes_nothing():
    """The partition refuses ``None`` for the binned attribute before either
    side changes, so no later rebin can store a row outside every bin."""
    dataset = generate_partitioned_dataset(
        num_values=30, sensitivity_fraction=0.4, association_fraction=0.5, seed=21
    )
    engine = QueryBinningEngine(
        dataset.partition,
        dataset.attribute,
        DeterministicScheme(SecretKey.from_passphrase("write-path")),
        cloud=CloudServer(),
    ).setup()
    partition = engine.partition
    before = (len(partition.sensitive), len(partition.non_sensitive))
    with pytest.raises(SchemaError):
        engine.insert(
            partition.insert(
                {dataset.attribute: None, "payload": "no-bin"}, sensitive=True
            )
        )
    assert (len(partition.sensitive), len(partition.non_sensitive)) == before
    engine.rebin()
    assert None not in engine.cloud.stored_sensitive_bins()


def test_only_a_searchable_attribute_is_binned():
    """The partition refuses ``None`` only for searchable attributes, so
    an attribute that may hold ``None`` is never binned."""
    schema = Schema([Attribute("key"), Attribute("note", searchable=False)])
    relation = Relation("r", schema)
    relation.insert({"key": "a", "note": None}, sensitive=True)
    relation.insert({"key": "b", "note": "n"})
    owner = DBOwner(relation, SensitivityPolicy())
    with pytest.raises(ConfigurationError):
        owner.outsource("note")
    owner.outsource("key")
    owner.insert({"key": "a", "note": None}, sensitive=True)
    assert rids(owner.query("key", "a")) == oracle(owner, "key", "a")
