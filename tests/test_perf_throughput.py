"""Fast perf smoke for the indexed query pipeline (``pytest -m perf -q``).

Runs the throughput benchmark machinery at reduced scale so the tier-1 suite
exercises every cloud search path end-to-end.  Assertions here are restricted
to the *hardware-independent* contraction (rows examined per query) so the
suite stays deterministic on loaded machines; the wall-clock acceptance
numbers (≥5x queries/sec at 100k rows) are recorded in the committed
``BENCH_throughput.json`` trajectory and asserted by the explicitly-invoked
(bench files are not auto-collected) full-scale test::

    PYTHONPATH=src python -m pytest -m perf -q \
        benchmarks/bench_perf_query_throughput.py
"""

import json

import pytest

from benchmarks.bench_perf_query_throughput import print_results, run_throughput_suite


@pytest.mark.perf
def test_perf_smoke_indexed_query_throughput():
    results = run_throughput_suite(
        sizes=(10_000,),
        query_budget={
            "linear-scan": 20,
            "bin-slice": 150,
            "bin-slice+batch": 150,
            "sse-linear-scan": 3,
            "sse-bin-store": 20,
        },
        out_path=None,
    )
    print_results(results)
    measured = results["sizes"][0]["results"]

    # Every configuration answered its whole workload.
    for name, config in measured.items():
        assert config["queries"] > 0, name
        assert config["elapsed_seconds"] > 0, name

    # The rows-scanned contraction is deterministic: linear scans examine the
    # whole encrypted relation per query, the bin-slice paths one bin's worth.
    linear_rows = measured["linear-scan"]["rows_scanned_per_query"]
    stored = measured["linear-scan"]["encrypted_rows_stored"]
    assert linear_rows == stored
    assert measured["sse-linear-scan"]["rows_scanned_per_query"] == stored
    assert measured["bin-slice"]["rows_scanned_per_query"] < linear_rows / 5
    assert measured["bin-slice+batch"]["rows_scanned_per_query"] < linear_rows / 5
    assert measured["sse-bin-store"]["rows_scanned_per_query"] < linear_rows / 5


def test_throughput_suite_keeps_other_trajectory_sections(tmp_path):
    """A run replaces only its own top-level keys in the trajectory file."""
    out_path = tmp_path / "BENCH_throughput.json"
    other = {"rows": 20_000, "qps": 1.5}
    out_path.write_text(json.dumps({"storage_scaling": other, "configs": ["old"]}))
    results = run_throughput_suite(
        sizes=(200,),
        configs=("bin-slice",),
        query_budget={"linear-scan": 2, "bin-slice": 2},
        out_path=out_path,
    )
    trajectory = json.loads(out_path.read_text())
    assert trajectory["storage_scaling"] == other
    assert set(trajectory) == {"storage_scaling"} | set(results)
    assert trajectory["configs"] == ["linear-scan", "bin-slice"]
    assert trajectory["sizes"] == results["sizes"]


@pytest.mark.perf
@pytest.mark.multicloud
def test_perf_smoke_sharded_fleet_contracts_per_server_work():
    """Reduced-scale smoke for the multi-cloud scaling benchmark.

    The wall-clock qps curve lives in ``BENCH_throughput.json`` (written by
    ``benchmarks/bench_perf_multicloud.py``); here we assert its
    hardware-independent driver: sharding a linear-scan relation across a
    fleet splits storage bin-by-bin, so the rows any member examines per
    query shrink with the member count while results stay identical to the
    single-server batch path.
    """
    from benchmarks.bench_perf_multicloud import run_fleet_comparison

    comparison = run_fleet_comparison(size=4_000, server_counts=(1, 4), queries=12)
    single, sharded = comparison["runs"]["1"], comparison["runs"]["4"]

    assert single["queries"] == sharded["queries"] > 0
    # identical per-query result sizes: sharding is unobservable to the owner
    assert comparison["result_rids_match"] is True
    # the single server examined the full relation per sensitive request...
    assert single["rows_scanned_per_query"] == single["encrypted_rows_stored"]
    # ...while no fleet member even *stores* half of it, and the per-query
    # scan contracts accordingly.
    assert sharded["max_rows_stored_per_server"] < single["encrypted_rows_stored"] / 2
    assert sharded["rows_scanned_per_query"] < single["rows_scanned_per_query"] / 2
