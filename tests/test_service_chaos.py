"""Chaos parity: the service under a hostile wire equals the service
under a clean one.

The headline suite scripts a five-kind fault storm (drop, truncate,
stall, corrupt, duplicate) against every connection of N concurrent
retrying clients and proves, for all four encrypted-search schemes, that

* every query returns exactly what a fault-free reference owner returns,
* every insert lands **exactly once** — replays and duplicate deliveries
  are absorbed by the per-tenant dedup window, never re-applied,
* every scripted fault actually fired (a storm that silently misses
  proves nothing), and
* the service winds down clean: pending drains to zero and no ``svc-*``
  thread outlives ``stop()``.

Faults are *scripted at request offsets*, not drawn from probabilities,
so every run of this suite exercises the identical storm — the service
analogue of the fleet's seeded :class:`FaultInjectionHarness` discipline.
"""

import threading
import time

import pytest

from repro.crypto.arx_index import ArxIndexScheme
from repro.crypto.deterministic import DeterministicScheme
from repro.crypto.nondeterministic import NonDeterministicScheme
from repro.crypto.searchable import SSEScheme
from repro.exceptions import ServiceError
from repro.owner.db_owner import DBOwner
from repro.owner.keystore import KeyStore
from repro.service import (
    ChaosEvent,
    ChaosScenario,
    ChaosScript,
    EncryptedSearchService,
    RetryPolicy,
    ServiceClient,
    TenantRegistry,
)
from repro.workloads.employee import build_employee_relation, employee_policy

pytestmark = pytest.mark.service

SCHEMES = {
    "deterministic": DeterministicScheme,
    "arx-index": ArxIndexScheme,
    "non-deterministic": NonDeterministicScheme,
    "sse": SSEScheme,
}

#: Queried throughout the run; never inserted under, so mid-storm query
#: results are independent of how concurrent inserts interleave.
QUERY_VALUES = ("E259", "E101", "E152", "E199")
#: All inserts go under this (existing) value; it is queried only after
#: the storm, when every insert has settled.
INSERT_VALUE = "E254"


def _wait_until(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {message}")
        time.sleep(0.002)


def _service_threads():
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("svc-")
    ]


def _insert_row(client_index: int, insert_index: int) -> dict:
    """One insert, identified in answers by its (FirstName, LastName) pair.
    ``SSN`` is column-level sensitive under ``employee_policy()``, so it
    goes to the vertical relation and never comes back in an answer."""
    return {
        "EId": INSERT_VALUE,
        "FirstName": f"C{client_index}",
        "LastName": f"Row{insert_index}",
        "SSN": f"9{client_index}{insert_index}",
        "Office": "9",
        "Dept": "QA",
    }


def _client_ops(client_index: int):
    """12 ops: 9 queries interleaved with 3 inserts (ops 2, 4, 7)."""
    ops = []
    insert_index = 0
    for position, kind in enumerate("qqiqiqqiqqqq"):
        if kind == "q":
            ops.append(("query", QUERY_VALUES[position % len(QUERY_VALUES)]))
        else:
            ops.append(("insert", _insert_row(client_index, insert_index)))
            insert_index += 1
    return ops


def _storm() -> ChaosScenario:
    """The scripted five-kind storm one client endures, connection by
    connection.  With the 12-op trace above and sequential calls, the
    offsets land as annotated — every kind fires exactly once, and the
    ``duplicate`` strikes an insert, so the dedup window must absorb it.
    """
    return ChaosScenario(
        [
            ChaosScript(
                [
                    ChaosEvent("stall", 1, seconds=0.03),  # query, slowly
                    ChaosEvent("duplicate", 2),  # first insert, twice
                    ChaosEvent("truncate", 5),  # mid-frame death
                ]
            ),
            # reconnect resumes at op 5; offset 2 is op 7 — the third
            # insert's frame corrupts in flight, the server reaps, and the
            # retry must replay the insert without double-applying
            ChaosScript([ChaosEvent("corrupt", 2)]),
            # resumes at op 7; offset 3 is op 10 — dropped before sending
            ChaosScript([ChaosEvent("drop", 3)]),
            # resumes at op 10; offset 1 duplicates a query (harmless)
            ChaosScript([ChaosEvent("duplicate", 1)]),
        ]
    )


EXPECTED_STORM = {"stall": 1, "duplicate": 2, "truncate": 1, "corrupt": 1, "drop": 1}


def _reference_rows(owner: DBOwner, value: str):
    return sorted(
        (row.rid, dict(row.values)) for row in owner.query("EId", value)
    )


class TestChaosParity:
    """The headline suite: N retrying clients through the storm, per scheme."""

    NUM_CLIENTS = 3

    @pytest.fixture(params=sorted(SCHEMES), ids=sorted(SCHEMES))
    def scheme_factory(self, request):
        return SCHEMES[request.param]

    def test_storm_is_unobservable_in_results(self, scheme_factory):
        registry = TenantRegistry()
        registry.provision(
            "acme",
            build_employee_relation(),
            employee_policy(),
            attributes=("EId",),
            scheme_factory=scheme_factory,
            permutation_seed=17,
        )
        reference = DBOwner(
            build_employee_relation(),
            employee_policy(),
            keystore=KeyStore(),
            scheme_factory=scheme_factory,
            permutation_seed=17,
        )
        reference.outsource("EId")
        baseline = {value: _reference_rows(reference, value) for value in QUERY_VALUES}
        inserted_before = len(reference.query("EId", INSERT_VALUE))

        service = EncryptedSearchService(registry, num_workers=4).start()
        scenarios = []
        failures = []
        try:
            host, port = service.address

            def run_client(client_index: int, scenario: ChaosScenario):
                try:
                    client = ServiceClient(
                        host,
                        port,
                        retry=RetryPolicy(
                            max_attempts=8, base_delay=0.01, seed=client_index
                        ),
                        chaos=scenario,
                        client_id=f"storm-{client_index}",
                    )
                    try:
                        for op, argument in _client_ops(client_index):
                            if op == "query":
                                rows = client.query("acme", "EId", argument)
                                assert (
                                    sorted((rid, values) for rid, values in rows)
                                    == baseline[argument]
                                ), f"query {argument} diverged mid-storm"
                            else:
                                client.insert("acme", argument)
                    finally:
                        client.close()
                except Exception as exc:  # noqa: BLE001 - collected and re-raised
                    failures.append((client_index, exc))

            threads = []
            for client_index in range(self.NUM_CLIENTS):
                scenario = _storm()
                scenarios.append(scenario)
                thread = threading.Thread(
                    target=run_client, args=(client_index, scenario)
                )
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive(), "chaos client wedged"
            assert failures == []

            # the storm fired, fully, for every client
            for scenario in scenarios:
                assert dict(scenario.injected) == EXPECTED_STORM
                assert scenario.connections_used == 4

            # duplicate deliveries never re-applied: exactly one dedup
            # absorption per client (the duplicated insert), no more
            _wait_until(
                lambda: service.stats()["pending"] == 0,
                message="late duplicate deliveries to drain",
            )
            assert service.stats()["deduplicated"] == self.NUM_CLIENTS
            assert registry.get("acme").stats()["deduplicated"] == self.NUM_CLIENTS
            # the storm's observable damage is all accounted for: per
            # client, one truncated stream and one CRC failure, each
            # reaping its connection; drops close at message boundaries
            # (orderly hangups) and are not reaps
            stats = service.stats()
            assert stats["corrupt_frames"] == 2 * self.NUM_CLIENTS
            assert stats["reaped_connections"] == 2 * self.NUM_CLIENTS

            # post-storm parity, including exactly-once inserts
            with ServiceClient(host, port) as probe:
                for value in QUERY_VALUES:
                    rows = probe.query("acme", "EId", value)
                    assert (
                        sorted((rid, values) for rid, values in rows)
                        == baseline[value]
                    )
                inserted = probe.query("acme", "EId", INSERT_VALUE)
            assert all("SSN" not in values for _rid, values in inserted)
            for client_index in range(self.NUM_CLIENTS):
                for insert_index in range(3):
                    expected = _insert_row(client_index, insert_index)
                    name = (expected["FirstName"], expected["LastName"])
                    matches = [
                        values
                        for _rid, values in inserted
                        if (values["FirstName"], values["LastName"]) == name
                    ]
                    assert len(matches) == 1, (
                        f"insert {name} applied "
                        f"{len(matches)} times, expected exactly once"
                    )
                    del expected["SSN"]
                    assert matches[0] == expected
            assert len(inserted) == inserted_before + 3 * self.NUM_CLIENTS
        finally:
            service.stop()
        assert _service_threads() == []


@pytest.mark.chaos
class TestChaosSmoke:
    """Tier-1-fast: one scripted drop, one retry, one insert — applied once."""

    def test_dropped_insert_retries_exactly_once(self):
        registry = TenantRegistry()
        registry.provision(
            "acme",
            build_employee_relation(),
            employee_policy(),
            attributes=("EId",),
            permutation_seed=17,
        )
        scenario = ChaosScenario([ChaosScript([ChaosEvent("drop", 1)])])
        service = EncryptedSearchService(registry, num_workers=2).start()
        try:
            host, port = service.address
            with ServiceClient(host, port) as probe:
                before = len(probe.query("acme", "EId", INSERT_VALUE))
            with ServiceClient(
                host,
                port,
                retry=RetryPolicy(max_attempts=4, base_delay=0.01, seed=7),
                chaos=scenario,
            ) as client:
                client.insert("acme", _insert_row(9, 0))
                client.insert("acme", _insert_row(9, 1))  # dropped, retried
            assert dict(scenario.injected) == {"drop": 1}
            assert scenario.connections_used == 2
            with ServiceClient(host, port) as probe:
                after = probe.query("acme", "EId", INSERT_VALUE)
            assert len(after) == before + 2
            assert all("SSN" not in values for _rid, values in after)
            assert (
                sum(
                    1
                    for _rid, values in after
                    if (values["FirstName"], values["LastName"]) == ("C9", "Row1")
                )
                == 1
            )
        finally:
            service.stop()
        assert _service_threads() == []


class TestChaosMachinery:
    def test_seeded_scenarios_are_reproducible(self):
        def snapshot(scenario):
            return [
                sorted(
                    (event.at_request, event.kind)
                    for event in script._events.values()
                )
                for script in scenario._scripts
            ]

        first = ChaosScenario.seeded(
            seed=42, connections=6, requests_per_connection=20,
            rates={"drop": 0.1, "corrupt": 0.05},
        )
        second = ChaosScenario.seeded(
            seed=42, connections=6, requests_per_connection=20,
            rates={"drop": 0.1, "corrupt": 0.05},
        )
        third = ChaosScenario.seeded(
            seed=43, connections=6, requests_per_connection=20,
            rates={"drop": 0.1, "corrupt": 0.05},
        )
        assert snapshot(first) == snapshot(second)
        assert snapshot(first) != snapshot(third)  # different storm
        assert any(events for events in snapshot(first))  # fired at all

    def test_rates_above_one_are_rejected(self):
        with pytest.raises(ServiceError):
            ChaosScenario.seeded(
                seed=1, connections=1, requests_per_connection=1,
                rates={"drop": 0.7, "corrupt": 0.6},
            )

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ServiceError):
            ChaosEvent("meteor", 0)

    def test_two_events_on_one_offset_are_rejected(self):
        with pytest.raises(ServiceError):
            ChaosScript([ChaosEvent("drop", 3), ChaosEvent("stall", 3)])

    def test_exhausted_scenario_issues_clean_scripts(self):
        scenario = ChaosScenario([ChaosScript([ChaosEvent("drop", 0)])])
        assert len(scenario.next_script()) == 1
        assert len(scenario.next_script()) == 0  # the storm is finite
        assert scenario.connections_used == 2
