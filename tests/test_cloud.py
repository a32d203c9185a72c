"""Unit tests for the cloud substrate: indexes, network model, servers."""

import pytest

from repro.cloud.indexes import HashIndex
from repro.cloud.multi_cloud import MultiCloud, ShardRouter
from repro.cloud.network import NetworkModel
from repro.cloud.server import BatchRequest, CloudServer
from repro.crypto.nondeterministic import NonDeterministicScheme
from repro.data.relation import Relation
from repro.data.schema import Attribute, Schema
from repro.exceptions import CloudError, UnknownAttributeError


def keyed_relation(num_rows=12):
    schema = Schema([Attribute("key"), Attribute("payload")])
    relation = Relation("r", schema)
    for i in range(num_rows):
        relation.insert({"key": f"k{i % 4}", "payload": str(i)})
    return relation


def sharded_fleet(count=2):
    """A fleet holding one sensitive bin, a router, and a request for ``k0``."""
    relation = keyed_relation()
    scheme = NonDeterministicScheme()
    encrypted = scheme.encrypt_rows(list(relation.rows)[:4], "key")
    router = ShardRouter(1, 1, count)
    fleet = MultiCloud(count=count)
    fleet.outsource_sharded(
        "key", relation, encrypted, scheme, {row.rid: 0 for row in encrypted}, router
    )
    request = BatchRequest(
        attribute="key",
        cleartext_values=("k0",),
        tokens=tuple(scheme.tokens_for_values(["k0"], "key")),
        sensitive_bin_index=0,
        non_sensitive_bin_index=0,
    )
    return fleet, router, request


class TestHashIndex:
    def test_lookup_finds_all_matching_rows(self):
        index = HashIndex(keyed_relation(), "key")
        assert len(index.lookup("k1")) == 3
        assert index.lookup("missing") == []

    def test_lookup_many_unions(self):
        index = HashIndex(keyed_relation(), "key")
        assert len(index.lookup_many(["k0", "k1"])) == 6

    def test_probe_count_tracks_work(self):
        index = HashIndex(keyed_relation(), "key")
        index.lookup_many(["k0", "k1", "k2"])
        assert index.probe_count == 3

    def test_add_row_updates_index(self):
        relation = keyed_relation()
        index = HashIndex(relation, "key")
        new_row = relation.insert({"key": "k9", "payload": "new"})
        index.add_row(new_row)
        assert [r.rid for r in index.lookup("k9")] == [new_row.rid]

    def test_distinct_count_and_len(self):
        index = HashIndex(keyed_relation(), "key")
        assert index.distinct_count() == 4
        assert len(index) == 12

    def test_unknown_attribute_rejected(self):
        with pytest.raises(UnknownAttributeError):
            HashIndex(keyed_relation(), "nope")


class TestNetworkModel:
    def test_seconds_per_tuple_matches_bandwidth(self):
        network = NetworkModel(bandwidth_mbps=30.0, bytes_per_tuple=200, latency_seconds=0.0)
        assert network.seconds_per_tuple == pytest.approx(200 * 8 / 30e6)

    def test_transfer_and_logging(self):
        network = NetworkModel(latency_seconds=0.0)
        seconds = network.record("download", tuples=100)
        assert seconds > 0
        assert network.total_tuples("download") == 100
        assert network.total_seconds() == pytest.approx(seconds)

    def test_direction_filters(self):
        network = NetworkModel()
        network.record("upload", tuples=10)
        network.record("download", tuples=5)
        assert network.total_tuples("upload") == 10
        assert network.total_tuples("download") == 5
        assert network.total_tuples() == 15

    def test_reset(self):
        network = NetworkModel()
        network.record("upload", tuples=1)
        network.reset()
        assert network.total_seconds() == 0.0 and network.total_tuples() == 0
        assert network.total_bytes() == 0 and network.transfers() == 0


class TestCloudServer:
    def _stored_server(self):
        relation = keyed_relation()
        scheme = NonDeterministicScheme()
        encrypted = scheme.encrypt_rows(list(relation.rows)[:4], "key")
        server = CloudServer()
        server.store_non_sensitive(relation)
        server.store_sensitive(encrypted, scheme)
        return server, scheme

    def test_requires_outsourcing_before_queries(self):
        server = CloudServer()
        with pytest.raises(CloudError):
            server.non_sensitive_relation
        with pytest.raises(CloudError):
            server.build_index("key")

    def test_process_request_returns_both_halves(self):
        server, scheme = self._stored_server()
        tokens = scheme.tokens_for_values(["k0"], "key")
        response = server.process_request("key", ["k0"], tokens)
        assert response.total_returned == len(response.non_sensitive_rows) + len(
            response.encrypted_rows
        )
        assert response.non_sensitive_rows  # cleartext matches exist

    def test_adversarial_view_recorded(self):
        server, scheme = self._stored_server()
        server.process_request("key", ["k0", "k1"], scheme.tokens_for_values(["k0"], "key"))
        assert len(server.view_log) == 1
        view = server.view_log.views[0]
        assert view.non_sensitive_request == ("k0", "k1")
        assert view.sensitive_request_size >= 1

    def test_statistics_accumulate(self):
        server, scheme = self._stored_server()
        server.process_request("key", ["k0"], [])
        server.process_request("key", ["k1"], [])
        assert server.stats.queries_served == 2
        assert server.stats.non_sensitive_rows_returned == 6

    def test_sensitive_search_requires_scheme(self):
        server = CloudServer()
        server.store_non_sensitive(keyed_relation())
        with pytest.raises(CloudError):
            server.process_request("key", [], [object()])

    def test_append_rows(self):
        server, scheme = self._stored_server()
        before = server.encrypted_row_count
        more = scheme.encrypt_rows(list(keyed_relation().rows)[:2], "key")
        server.append_sensitive(more)
        assert server.encrypted_row_count == before + 2
        row = server.non_sensitive_relation.insert({"key": "k7", "payload": "x"})
        server.register_non_sensitive_row(row)
        response = server.process_request("key", ["k7"], [])
        assert len(response.non_sensitive_rows) == 1

    def test_reset_observations(self):
        server, scheme = self._stored_server()
        server.process_request("key", ["k0"], [])
        server.reset_observations()
        assert len(server.view_log) == 0 and server.stats.queries_served == 0

    def test_first_request_builds_the_missing_index(self):
        relation = keyed_relation()
        server = CloudServer()
        server.store_non_sensitive(relation)  # no build_index("key")
        response = server.process_request("key", ["k2", "k3"], [])
        assert len(response.non_sensitive_rows) == 6
        index = server._indexes["key"]
        assert index.probe_count == 2
        assert server.stats.non_sensitive_probes == 2
        server.process_request("key", ["k1"], [])
        assert server._indexes["key"] is index  # built once, then reused


class TestMultiCloud:
    def test_requires_two_servers(self):
        with pytest.raises(CloudError):
            MultiCloud(count=1)

    def test_cleartext_half_charged_to_one_member(self):
        fleet, router, request = sharded_fleet()
        (response,) = fleet.process_batch([request], router)
        assert len(response.non_sensitive_rows) == 3
        assert len(response.encrypted_rows) == 1
        (((token_member, _), (cleartext_member, _)),) = fleet.last_report.placements
        assert token_member != cleartext_member
        # the cleartext request is charged only to the member serving it
        token_stats = fleet.servers[token_member].stats
        cleartext_stats = fleet.servers[cleartext_member].stats
        assert token_stats.non_sensitive_probes == 0
        assert token_stats.non_sensitive_rows_returned == 0
        assert cleartext_stats.non_sensitive_rows_returned == 3
        assert cleartext_stats.sensitive_tokens_processed == 0

    def test_distribution_shape_checked(self):
        fleet = MultiCloud(count=3)
        wrong_size = ShardRouter(1, 1, 2)
        with pytest.raises(CloudError):
            fleet.outsource_sharded(
                "key", keyed_relation(), [], NonDeterministicScheme(), {}, wrong_size
            )
        with pytest.raises(CloudError):
            fleet.process_batch(
                [BatchRequest(attribute="key", cleartext_values=("k0",))], wrong_size
            )

    def test_view_isolation_per_server(self):
        fleet, router, request = sharded_fleet()
        fleet.process_batch([request], router)
        views = {server.name: list(server.view_log) for server in fleet.servers}
        assert len(views["cloud-0"]) == 1 and len(views["cloud-1"]) == 1
        # no member's view pairs a cleartext request with a token request
        for (view,) in views.values():
            assert not (view.non_sensitive_request and view.sensitive_request_size)
        assert sum(server.network.total_seconds() for server in fleet.servers) > 0
