"""Cross-strategy execution parity: sequential vs batched vs sharded.

The repo's core security claim is that execution strategy is unobservable:
whether the owner serves a workload one request at a time, batched on one
server, or sharded across a non-colluding fleet, every query returns the same
rows and every server records the same adversarial information (or, for the
fleet, a strict *subset* of it — each member sees only one half of every
request).  These tests drive the reusable
:class:`tests.conftest.ExecutionParityHarness` across all four bundled
encrypted-search schemes.
"""

import pytest

from repro.crypto.arx_index import ArxIndexScheme
from repro.crypto.deterministic import DeterministicScheme
from repro.crypto.nondeterministic import NonDeterministicScheme
from repro.crypto.searchable import SSEScheme

SCHEMES = {
    "deterministic": DeterministicScheme,
    "arx-index": ArxIndexScheme,
    "non-deterministic": NonDeterministicScheme,
    "sse": SSEScheme,
}

pytestmark = pytest.mark.multicloud


@pytest.fixture(params=sorted(SCHEMES), ids=sorted(SCHEMES))
def scheme_runs(request, parity_harness):
    """One workload executed under every placement, per scheme."""
    harness = parity_harness(SCHEMES[request.param])
    workload = harness.workload()
    return harness, workload, harness.run_all(workload)


class TestCrossStrategyParity:
    def test_identical_results(self, scheme_runs):
        harness, _workload, runs = scheme_runs
        harness.assert_identical_results(runs)

    def test_identical_traces(self, scheme_runs):
        harness, _workload, runs = scheme_runs
        harness.assert_identical_traces(runs)

    def test_batched_views_and_statistics_identical(self, scheme_runs):
        harness, _workload, runs = scheme_runs
        harness.assert_single_server_parity(runs["sequential"], runs["batched"])

    def test_sharded_views_split_but_information_preserved(self, scheme_runs):
        harness, workload, runs = scheme_runs
        harness.assert_sharded_view_parity(runs["sequential"], runs["sharded"], workload)

    def test_sharded_statistics_aggregate_to_single_server(self, scheme_runs):
        harness, _workload, runs = scheme_runs
        harness.assert_sharded_statistics_parity(runs["sequential"], runs["sharded"])

    def test_no_fleet_member_sees_both_halves(self, scheme_runs):
        """The non-collusion guarantee, asserted on raw logs (not placements)."""
        _harness, _workload, runs = scheme_runs
        fleet = runs["sharded"].fleet
        assert fleet is not None
        for server in fleet.servers:
            assert len(server.view_log) > 0  # the workload touched every member
            for view in server.view_log:
                has_cleartext = bool(view.non_sensitive_request)
                has_tokens = view.sensitive_request_size > 0
                assert not (has_cleartext and has_tokens), (
                    f"{server.name} observed both halves of a request"
                )


class TestShardedAcrossConfigurations:
    """Parity holds regardless of fleet size or index configuration."""

    @pytest.mark.parametrize("num_shards", [2, 5])
    def test_fleet_shape_is_unobservable(self, parity_harness, num_shards):
        harness = parity_harness(DeterministicScheme, num_shards=num_shards)
        workload = harness.workload(repeats=1)
        runs = {p: harness.run(p, workload) for p in ("sequential", "sharded")}
        harness.assert_identical_results(runs)
        harness.assert_sharded_view_parity(runs["sequential"], runs["sharded"], workload)
        harness.assert_sharded_statistics_parity(runs["sequential"], runs["sharded"])

    def test_linear_scan_fleet_scans_fewer_rows_per_member(self, parity_harness):
        """Without indexes, sharding still returns identical rows while each
        member only scans its own slice — the work contraction behind the
        qps-vs-server-count benchmark."""
        harness = parity_harness(
            DeterministicScheme, num_shards=3, use_encrypted_indexes=False
        )
        workload = harness.workload(repeats=1)
        runs = {p: harness.run(p, workload) for p in ("sequential", "sharded")}
        harness.assert_identical_results(runs)
        fleet = runs["sharded"].fleet
        stored_total = runs["sequential"].cloud.encrypted_row_count
        assert sum(s.encrypted_row_count for s in fleet.servers) == stored_total
        for server in fleet.servers:
            assert server.encrypted_row_count < stored_total
        # aggregate scanned rows shrink: each request scanned one shard slice
        assert (
            fleet.aggregate_stat("sensitive_rows_scanned")
            < runs["sequential"].cloud.stats.sensitive_rows_scanned
        )

    def test_sharded_insert_stays_queryable_and_consistent(self, parity_harness):
        """Inserts route to the member owning the value's bin; results stay
        identical to the single reference server afterwards."""
        harness = parity_harness(DeterministicScheme)
        engine = harness.make_engine(sharded=True)
        value = next(
            v
            for v in harness.dataset.all_values
            if engine.layout.locate_sensitive(v) is not None
        )
        template = next(iter(engine.partition.sensitive.rows))
        new_values = dict(template.values)
        new_values[engine.attribute] = value
        before_fleet = sum(s.encrypted_row_count for s in engine.multi_cloud.servers)
        engine.insert(engine.partition.insert(new_values, sensitive=True))
        after_fleet = sum(s.encrypted_row_count for s in engine.multi_cloud.servers)
        assert after_fleet == before_fleet + 1
        # the row landed on exactly the member owning its bin
        bin_index = engine.layout.locate_sensitive(value)[0]
        owner_index = engine.shard_router.shard_of_sensitive(bin_index)
        [(rows, _trace)] = engine.execute_workload_with_rows([value], placement="sharded")
        assert any(row[engine.attribute] == value for row in rows)
        reference = engine.query(value)  # single reference server
        assert sorted(r.rid for r in rows) == sorted(r.rid for r in reference)
        assert engine.multi_cloud[owner_index].encrypted_row_count > 0

    def test_plaintext_cache_is_bounded(self, parity_harness):
        """The owner's per-bin plaintext memo never holds more entries than
        the layout has sensitive bins, and answers match the oracle."""
        harness = parity_harness(DeterministicScheme)
        engine = harness.make_engine()
        expected = harness.oracle_rids()
        bins = engine.layout.num_sensitive_bins
        for value in harness.workload():
            rids = sorted(r.rid for r in engine.query(value))
            assert rids == expected.get(value, [])
            assert len(engine._decrypted_bin_cache) <= bins

    def test_rebin_resets_fleet_observations_with_reference(self, parity_harness):
        """Re-binning re-outsources everywhere; every store — reference and
        fleet members alike — must restart its observation log, or the
        fleet-vs-reference parity invariants break after the first rebin."""
        harness = parity_harness(DeterministicScheme)
        engine = harness.make_engine(sharded=True)
        workload = harness.workload(repeats=1)
        engine.execute_workload_with_rows(workload, placement="sharded")
        assert any(len(s.view_log) > 0 for s in engine.multi_cloud.servers)

        engine.rebin()
        assert len(engine.cloud.view_log) == 0
        for server in engine.multi_cloud.servers:
            assert len(server.view_log) == 0
            assert server.stats.queries_served == 0
        # and the rebuilt fleet still answers identically to the reference
        [(rows, _)] = engine.execute_workload_with_rows(
            [workload[0]], placement="sharded"
        )
        reference_rows = engine.query(workload[0])
        assert sorted(r.rid for r in rows) == sorted(r.rid for r in reference_rows)
